"""Kill a run at each of its artifact operations, then check what it left.

A forked child, pinned to one CPU so that twin b and calibration run in it
and no grandchild outlives it, counts every artifact operation under its
output directory: each open with a writing mode, each write on the file that
open returned, each fsync and each replace.  It SIGKILLs itself right after
the i-th one, for every i.  A kill does not unwind through ``finally`` or
``with`` blocks, so these runs see the windows that a raised exception
cannot (the method of Pillai et al. 2014, "All File Systems Are Not Created
Equal", OSDI).
"""

import builtins
import os
import shutil
import signal
import traceback

import pytest

from clamseg import augment, phantoms, preprocess, trainer
from clamseg.errors import DataError

from test_trainer import make_dataset, run_args

pytestmark = pytest.mark.skipif(not hasattr(os, "fork") or not hasattr(os, "sched_setaffinity"),
                                reason="needs fork and CPU affinity")


class _CountedFile:
    """A file whose write and writelines calls count as operations.  Each one
    first flushes what the earlier ones buffered, so a kill right after it
    leaves every earlier write on disk and this one maybe not, as a full
    buffer would."""

    def __init__(self, fh, op):
        self._fh, self._op = fh, op

    def write(self, data):
        self._fh.flush()
        n = self._fh.write(data)
        self._op()
        return n

    def writelines(self, lines):
        self._fh.flush()
        self._fh.writelines(lines)
        self._op()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)

    def __getattr__(self, name):
        return getattr(self._fh, name)


def _hook_artifact_ops(root, kill_at):
    """Counts this process's artifact operations under ``root`` from now on,
    and SIGKILLs the process right after operation number ``kill_at``.
    Returns the one-element list that holds the count."""
    count = [0]
    fds = set()
    real_open, real_fsync, real_replace = builtins.open, os.fsync, os.replace

    def op():
        count[0] += 1
        if count[0] == kill_at:
            os.kill(os.getpid(), signal.SIGKILL)

    def under(path):
        return os.path.abspath(path).startswith(root + os.sep)

    def open_(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if not set(mode) & set("wax+") or not isinstance(file, (str, os.PathLike)) \
                or not under(file):
            return fh
        fds.add(fh.fileno())
        op()
        return _CountedFile(fh, op)

    def fsync(fd):
        real_fsync(fd)
        if fd in fds:
            op()

    def replace(src, dst, **kwargs):
        real_replace(src, dst, **kwargs)
        if under(dst):
            op()

    builtins.open, os.fsync, os.replace = open_, fsync, replace
    return count


def _in_child(fn, root, kill_at=None):
    """Runs ``fn()`` in a forked child on one CPU, which counts its artifact
    operations under ``root`` and is SIGKILLed after operation ``kill_at``.
    Returns the count, or None when the kill came first."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(r)
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
            count = _hook_artifact_ops(str(root), kill_at)
            fn()
            os.write(w, b"%d" % count[0])
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(w)
    with os.fdopen(r, "rb") as fh:
        out = fh.read()
    _, status = os.waitpid(pid, 0)
    if os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL:
        return None
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0, "the child failed"
    return int(out)


def _fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


def _files(root):
    """Relative path -> bytes of every file under root, without temp files,
    and the names of the temp files."""
    out, tmp = {}, []
    for dirpath, _, names in os.walk(root):
        for n in names:
            p = os.path.join(dirpath, n)
            if n.endswith(".tmp"):
                tmp.append(n)
            else:
                with open(p, "rb") as fh:
                    out[os.path.relpath(p, root)] = fh.read()
    return out, tmp


def _read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


# -- training ---------------------------------------------------------------

def _train(data, out, **kw):
    args = dict(run_args(data, out, steps=4), checkpoint_every=2)
    args.update(kw)
    return lambda: trainer.run_training(**args)


def _kill_loop_over_training(data, run_dir, start, run, want=None, steps=4):
    """For every i: set the run directory up with ``start``, kill ``run`` at
    operation i, resume once in place to ``steps`` (or rerun fresh without a
    checkpoint), and return the kill points whose checkpoint or log differ from ``want``,
    by default an uninterrupted fresh run's."""
    out = os.path.join(run_dir, "r.clam")
    if want is None:
        _fresh_dir(run_dir)
        assert _in_child(_train(data, out), run_dir) is not None
        want = _read_bytes(out), _read_bytes(out + ".log")
    _fresh_dir(run_dir)
    start(out)
    n_ops = _in_child(run, run_dir)
    assert (_read_bytes(out), _read_bytes(out + ".log")) == want
    bad = []
    for i in range(1, n_ops + 1):
        _fresh_dir(run_dir)
        start(out)
        assert _in_child(run, run_dir, kill_at=i) is None
        again = (_train(data, out, steps=steps, resume_from=out) if os.path.exists(out)
                 else _train(data, out, steps=steps))
        _in_child(again, run_dir)
        if (_read_bytes(out), _read_bytes(out + ".log")) != want:
            bad.append(i)
    return n_ops, bad


def test_a_kill_anywhere_in_a_fresh_run_resumes_to_the_same_bytes(tmp_path):
    data = make_dataset(tmp_path)
    run_dir = str(tmp_path / "run")
    out = os.path.join(run_dir, "r.clam")
    n_ops, bad = _kill_loop_over_training(data, run_dir, lambda out: None, _train(data, out))
    assert n_ops >= 18  # the log, its four lines and three checkpoint saves
    assert bad == []


def test_a_kill_anywhere_in_a_resume_in_place_resumes_to_the_same_bytes(tmp_path):
    data = make_dataset(tmp_path)
    step2 = str(tmp_path / "step2")
    _fresh_dir(step2)
    _in_child(_train(data, os.path.join(step2, "r.clam"), steps=2), step2)

    def start(out):
        for name in ("r.clam", "r.clam.log"):
            shutil.copy(os.path.join(step2, name), os.path.dirname(out))

    run_dir = str(tmp_path / "run")
    out = os.path.join(run_dir, "r.clam")
    n_ops, bad = _kill_loop_over_training(data, run_dir, start,
                                          _train(data, out, resume_from=out))
    assert n_ops >= 12  # the log, its two new lines and two checkpoint saves
    assert bad == []


def test_a_kill_anywhere_in_a_resume_in_place_from_a_pruned_checkpoint_resumes_to_the_same_bytes(
        tmp_path):
    data = make_dataset(tmp_path)
    step2 = str(tmp_path / "step2")
    _fresh_dir(step2)
    _in_child(_train(data, os.path.join(step2, "r.clam"), steps=2), step2)
    pruned = os.path.join(step2, "pruned.clam")
    trainer.save_state(trainer.prune_state(trainer.load_state(os.path.join(step2, "r.clam")), 1),
                       pruned)
    ref = os.path.join(step2, "ref.clam")
    _in_child(_train(data, ref, steps=6, resume_from=pruned), step2)

    def start(out):
        shutil.copy(pruned, out)

    run_dir = str(tmp_path / "run")
    out = os.path.join(run_dir, "r.clam")
    n_ops, bad = _kill_loop_over_training(data, run_dir, start,
                                          _train(data, out, steps=6, resume_from=out),
                                          want=(_read_bytes(ref), _read_bytes(ref + ".log")),
                                          steps=6)
    assert n_ops >= 16  # the log, its four new lines and three checkpoint saves
    assert bad == []


# -- data sets --------------------------------------------------------------

def _batch_key(data_dir):
    return [(b.name, b.label, b.eta, b.image.tobytes())
            for b in augment.load_batch(data_dir, "train")]


def _kill_loop_over_a_tree(out, make, start=lambda: None):
    """For every i: kill ``make()`` at operation i in a fresh ``out`` that
    ``start()`` set up; the tree must then read as the uninterrupted tree's
    train split, or fail to read with a DataError, and a rerun must give the
    uninterrupted bytes and remove the killed run's temp files.  Returns the
    number of kill points and the trees that read."""
    _fresh_dir(out)
    start()
    n_ops = _in_child(make, out)
    want_files, tmp = _files(out)
    want_batch = _batch_key(out)
    assert tmp == []
    reads = 0
    for i in range(1, n_ops + 1):
        _fresh_dir(out)
        start()
        assert _in_child(make, out, kill_at=i) is None
        try:
            got = _batch_key(out)
        except DataError:
            pass
        else:
            assert got == want_batch, f"killed at operation {i}, the tree reads otherwise"
            reads += 1
        make()
        files, tmp = _files(out)
        assert files == want_files, f"killed at operation {i}, a rerun differs"
        assert tmp == [], f"killed at operation {i}, a rerun leaves {tmp}"
    return n_ops, reads


def _gen(out, seed=77):
    return lambda: phantoms.generate_phantoms(out, 6, 0.5, seed=seed,
                                              params=phantoms.PhantomParams.easy(size=16))


def test_a_kill_anywhere_in_gen_data_leaves_a_full_tree_or_a_data_error(tmp_path):
    out = str(tmp_path / "ds")
    n_ops, reads = _kill_loop_over_a_tree(out, _gen(out))
    # three PGMs per image, gen_params.tsv and three manifests; the train
    # manifest is written after every image, so only kills after it read
    assert n_ops >= 6 * 3 * 3 + 4 * 4
    assert 0 < reads < n_ops


def test_a_kill_anywhere_in_preprocess_leaves_a_full_tree_or_a_data_error(tmp_path):
    src = str(tmp_path / "ds")
    _gen(src)()
    out = str(tmp_path / "pre")
    n_ops, reads = _kill_loop_over_a_tree(
        out, lambda: preprocess.preprocess_dataset(src, out, out_size=16))
    assert n_ops >= 6 * 2 * 3 + 4 * 4
    assert 0 < reads < n_ops


def test_a_kill_anywhere_in_gen_data_rerun_at_a_new_seed_never_reads_as_a_mixed_tree(tmp_path):
    # the old manifests go before the first image is rewritten
    out = str(tmp_path / "ds")
    n_ops, reads = _kill_loop_over_a_tree(out, _gen(out, seed=78), start=_gen(out))
    assert n_ops >= 6 * 3 * 3 + 4 * 4
    assert 0 < reads < n_ops


def test_a_kill_anywhere_in_preprocess_rerun_on_new_images_never_reads_as_a_mixed_tree(tmp_path):
    old, new = str(tmp_path / "old"), str(tmp_path / "new")
    _gen(old)()
    _gen(new, seed=78)()
    out = str(tmp_path / "pre")
    n_ops, reads = _kill_loop_over_a_tree(
        out, lambda: preprocess.preprocess_dataset(new, out, out_size=16),
        start=lambda: preprocess.preprocess_dataset(old, out, out_size=16))
    assert n_ops >= 6 * 2 * 3 + 4 * 4
    assert 0 < reads < n_ops
