"""Twin b's forked worker and ``cores.split_in_two``, which forks the second
half of calibration and of the gradcheck suite: same bits as in process,
errors that match, no process left behind, and the stall warning of
``run_training``."""

import gc
import multiprocessing
import os
import signal
import sys
import time

import numpy as np
import pytest

from clamseg import augment, cli, config, cores, losses, metrics, phantoms, trainer
from clamseg import tensor as T
from clamseg.errors import NonFiniteLossError, NumericError
from clamseg.unetpp import UnetPPConfig

TwinB = trainer.TwinB


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("twin") / "ds")
    phantoms.generate_phantoms(out, 6, 0.5, seed=77,
                               params=phantoms.PhantomParams.easy(size=16),
                               split_fracs=(1.0, 0.0, 0.0))
    return out


def run_args(data, out, steps=4, optimizer="sgd", lr=0.05):
    rc = config.RunConfig(levels=2, base_channels=2, tile_size=8, optimizer=optimizer, lr=lr,
                          n_augment=2, n_normal=1, n_cross=1, default_eta=0.5)
    return dict(data_dir=data, model_config=config.to_model_config(rc),
                opt_config=config.to_optimizer_config(rc), policy=config.to_policy(rc),
                steps=steps, seed=123, out_path=out)


def place(monkeypatch, worker):
    """Make the trainer see two CPUs (twin b forked, calibration split in
    two) or one (both in process).

    -> the list that gets one entry per worker started.
    """
    cpus = {0, 1} if worker else {0}
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    started = []
    monkeypatch.setattr(trainer, "TwinB", lambda state: started.append(1) or TwinB(state))
    return started


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def poison_init(monkeypatch, poison):
    """Have ``init_state`` hand ``poison(state)`` a fresh state before training."""
    init_state = trainer.init_state

    def poisoned(*args, **kwargs):
        state = init_state(*args, **kwargs)
        poison(state)
        return state

    monkeypatch.setattr(trainer, "init_state", poisoned)


def poison_b(state):
    state.model_b.params["head_1.weight"].data[0, 0, 0, 0] = np.inf


# -- bits -------------------------------------------------------------------

def test_halves_back_propagated_apart_match_the_joint_loss():
    # each placement of train_step against one joint loss over both halves,
    # one backward pass and one optimizer tick over every parameter; in a
    # siamese state both halves back-propagate into one set of gradients
    cfg = UnetPPConfig(levels=2, input_size=8, base_channels=2)
    policy = augment.PairPolicy(n_augment=1, n_normal=1, n_cross=2, tile_size=8,
                                default_eta=0.5)
    rng = np.random.default_rng(3)
    sa, sb = (rng.uniform(0, 1, (4, 8, 8)).astype(np.float32) for _ in range(2))
    cross, etas = [False, True, True, False], [1.0, 0.5, 0.25, 0.75]
    pairs = [augment.PairSample("cross" if c else "augment", a, b, e, "a.pgm", "b.pgm",
                                (0, 0), {}) for a, b, c, e in zip(sa, sb, cross, etas)]

    def state(optimizer, siamese):
        opt = config.to_optimizer_config(config.RunConfig(optimizer=optimizer, lr=0.05))
        return trainer.init_state(cfg, opt, policy, 5, siamese=siamese)

    cases = [(opt, siamese, place) for opt in ("sgd", "adam") for siamese in (False, True)
             for place in ("local", "worker") if not (siamese and place == "worker")]
    for optimizer, siamese, place in cases:
        ref = state(optimizer, siamese)
        for _, model in ref.models():
            model.zero_grads()
        p_a, p_b = trainer._forward(ref.model_a, sa), trainer._forward(ref.model_b, sb)
        total, per = losses.pair_total(losses.pair_half_terms(p_a.data, p_b, cross)
                                       + losses.pair_half_terms(p_b.data, p_a, cross), etas)
        T.backward(total)
        grad_sq = sum(float(np.sum(t.grad.astype(np.float64) ** 2))
                      for t in ref.optimizer.params.values())
        ref.optimizer.step(ref.optimizer.params, ref.optimizer.t + 1)

        split = state(optimizer, siamese)
        twin_b = (TwinB if place == "worker" else trainer.LocalTwinB)(split)
        try:
            m = trainer.train_step(split, pairs, twin_b)
            twin_b.pull(split)
        finally:
            twin_b.close()
        case = (optimizer, siamese, place)
        assert m["total_loss"] == total.item(), case
        assert m["pos_loss_mean"] == np.mean([per[0], per[3]]), case
        assert m["neg_loss_mean"] == np.mean(per[1:3]), case
        assert m["grad_norm"] == np.sqrt(grad_sq), case
        assert split.step == ref.step == 1, case
        want = trainer._checkpoint_arrays(ref)
        for name, arr in trainer._checkpoint_arrays(split).items():
            assert arr.tobytes() == want[name].tobytes(), (case, name)


def test_each_half_calls_pair_loss_terms_once_per_step(data, tmp_path, monkeypatch):
    # both halves reach the loss through the module attribute, so patching
    # it (a tracer, another objective) reaches both in either placement
    log = tmp_path / "calls"
    pair_loss_terms = trainer.pair_loss_terms

    def counted(*args):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return pair_loss_terms(*args)

    monkeypatch.setattr(trainer, "pair_loss_terms", counted)
    for worker in (True, False):
        place(monkeypatch, worker)
        log.write_text("")
        trainer.run_training(**run_args(data, str(tmp_path / "r.clam"), steps=3))
        pids = log.read_text().split()
        here = pids.count(str(os.getpid()))
        # twin a's half here; twin b's in the worker, or here too
        assert here == (3 if worker else 6)
        assert len(pids) == 6 and len(set(pids)) == (2 if worker else 1)


@pytest.mark.parametrize("optimizer,lr", [("sgd", 0.05), ("adam", 1e-3)])
def test_worker_and_in_process_write_identical_artifacts(data, tmp_path, monkeypatch,
                                                         optimizer, lr):
    def artifacts(worker):
        started = place(monkeypatch, worker)
        d = tmp_path / ("worker" if worker else "local")
        d.mkdir()
        full, half = str(d / "full.clam"), str(d / "half.clam")
        _, rows = trainer.run_training(**run_args(data, full, 6, optimizer, lr),
                                       checkpoint_every=2)
        trainer.run_training(**run_args(data, half, 3, optimizer, lr))
        trainer.run_training(**run_args(data, half, 6, optimizer, lr), resume_from=half)
        pruned = str(d / "pruned.clam")
        trainer.save_state(trainer.prune_state(trainer.load_state(full), 1), pruned)
        assert len(started) == (3 if worker else 0)
        report = str(d / "eval")
        metrics.evaluate(full, data, split="train", trials=101, out_prefix=report)
        return rows, [read(p) for p in (full, full + ".log", half, half + ".log", pruned,
                                        report + ".txt", report + ".kv")]

    rows, files = artifacts(worker=True)
    assert artifacts(worker=False) == (rows, files)
    # the resumed run equals the uninterrupted one
    assert files[2:4] == files[0:2]


# -- processes ---------------------------------------------------------------

def test_no_worker_outlives_a_run_that_returns(data, tmp_path, monkeypatch):
    started = place(monkeypatch, worker=True)
    trainer.run_training(**run_args(data, str(tmp_path / "r.clam")))
    assert started == [1]
    assert multiprocessing.active_children() == []


def test_no_worker_outlives_a_crash_in_calibration(data, tmp_path, monkeypatch):
    started = place(monkeypatch, worker=True)

    def crash(state, batch):
        raise RuntimeError("killed")

    monkeypatch.setattr(trainer, "calibrate_marker_channel", crash)
    with pytest.raises(RuntimeError, match="killed"):
        trainer.run_training(**run_args(data, str(tmp_path / "r.clam")))
    assert started == [1]
    assert multiprocessing.active_children() == []


def test_no_worker_outlives_a_failed_save_mid_run(data, tmp_path, monkeypatch):
    started = place(monkeypatch, worker=True)

    def fail(state, path):
        raise OSError("disk full")

    monkeypatch.setattr(trainer, "save_state", fail)
    t0 = time.monotonic()
    # the traceback keeps the run's frames alive, so a worker that the run
    # left open is not ended by the garbage collector before the check
    with pytest.raises(OSError, match="disk full") as failure:
        trainer.run_training(**run_args(data, str(tmp_path / "r.clam")), checkpoint_every=2)
    assert time.monotonic() - t0 < 20
    assert started == [1]
    assert multiprocessing.active_children() == []


def test_killed_worker_is_an_error_and_the_run_resumes(data, tmp_path, monkeypatch):
    full = str(tmp_path / "full.clam")
    trainer.run_training(**run_args(data, full, steps=6))
    started = place(monkeypatch, worker=True)
    train_step = trainer.train_step

    def kill_at_step_3(state, pairs, twin_b):
        if state.step == 3:
            os.kill(twin_b.proc.pid, signal.SIGKILL)
        return train_step(state, pairs, twin_b)

    out = str(tmp_path / "r.clam")
    with monkeypatch.context() as mp:
        mp.setattr(trainer, "train_step", kill_at_step_3)
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match=r"worker process \(pid \d+\) ended mid-exchange"):
            trainer.run_training(**run_args(data, out, steps=6), checkpoint_every=2)
        assert time.monotonic() - t0 < 20
    assert multiprocessing.active_children() == []
    assert trainer.load_state(out).step == 2
    trainer.run_training(**run_args(data, out, steps=6), resume_from=out)
    assert started == [1, 1]
    assert read(out) == read(full)
    assert read(out + ".log") == read(full + ".log")


# -- cores.split_in_two ------------------------------------------------------

def pids(lo, hi):
    return [(i, os.getpid()) for i in range(lo, hi)]


@pytest.mark.parametrize("n", [0, 1, 2, 7])
def test_split_returns_the_items_in_order(monkeypatch, n):
    place(monkeypatch, worker=True)
    out = cores.split_in_two(pids, n)
    assert [i for i, _ in out] == list(range(n))
    # the second half of two or more items ran in another process
    assert len({pid for _, pid in out}) == (2 if n >= 2 else n)


def test_split_on_one_cpu_forks_nothing(monkeypatch):
    place(monkeypatch, worker=False)
    calls = []

    def fn(lo, hi):
        calls.append((lo, hi))
        return pids(lo, hi)

    assert cores.split_in_two(fn, 5) == [(i, os.getpid()) for i in range(5)]
    assert calls == [(0, 5)]


def test_a_child_exception_is_raised_in_the_parent(monkeypatch):
    place(monkeypatch, worker=True)

    def fn(lo, hi):
        if lo:
            raise KeyError(f"item {lo}")
        return pids(lo, hi)

    with pytest.raises(KeyError, match="item 2"):
        cores.split_in_two(fn, 4)


def test_a_parent_exception_wins_and_the_child_is_reaped(monkeypatch):
    place(monkeypatch, worker=True)

    def fn(lo, hi):
        if lo:
            time.sleep(60)
            raise KeyError("the child's")
        raise ValueError("the parent's")

    t0 = time.monotonic()
    with pytest.raises(ValueError, match="the parent's"):
        cores.split_in_two(fn, 4)
    assert time.monotonic() - t0 < 20
    assert multiprocessing.active_children() == []


def test_a_killed_child_is_an_error(monkeypatch):
    place(monkeypatch, worker=True)

    def fn(lo, hi):
        if lo:
            os.kill(os.getpid(), signal.SIGKILL)
        return pids(lo, hi)

    t0 = time.monotonic()
    with pytest.raises(RuntimeError, match=r"worker process \(pid \d+\) ended "
                                           r"mid-exchange, exit code -9"):
        cores.split_in_two(fn, 4)
    assert time.monotonic() - t0 < 20


def _return_at_once(conn):
    pass


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="Linux fault counts")
def test_a_forked_child_puts_no_full_collection_in_the_parents_faults():
    # a full collection writes the header of every object it tracks, and the
    # fork write-protected the pages that hold them: unfrozen, these 100,000
    # lists fault in about 3,000 pages
    import resource

    keep = [[None] for _ in range(100_000)]
    child = cores.Child(_return_at_once)
    child.close()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    gc.collect()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults < 500, faults
    assert len(keep) == 100_000


# -- errors ------------------------------------------------------------------

def test_twin_b_failure_reads_the_same_in_both_placements(data, tmp_path, monkeypatch):
    poison_init(monkeypatch, poison_b)
    errors = []
    for worker in (True, False):
        started = place(monkeypatch, worker)
        with pytest.raises(NonFiniteLossError) as exc:
            trainer.run_training(**run_args(data, str(tmp_path / "r.clam")))
        assert len(started) == int(worker)
        assert multiprocessing.active_children() == []
        errors.append((str(exc.value), exc.value.provenance))
    assert errors[0] == errors[1]
    assert errors[0][0].startswith("non-finite loss at step 0: non-finite values")
    assert len(errors[0][1]) == 4


def test_twin_b_failure_exits_3_from_the_cli(data, tmp_path, monkeypatch, capsys):
    poison_init(monkeypatch, poison_b)
    started = place(monkeypatch, worker=True)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("levels = 2\nbase_channels = 2\ntile_size = 8\n")
    assert cli.main(["train", "--data", data, "--config", str(cfg),
                     "--out", str(tmp_path / "m.clam"), "--steps", "2", "--seed", "0"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("numeric failure: non-finite loss at step 0")
    assert err[1].startswith("pair 0: kind=")
    assert started == [1]


@pytest.mark.parametrize("worker", [True, False])
def test_when_both_twins_fail_twin_a_is_reported(data, tmp_path, monkeypatch, worker):
    def fail(tag):
        def forward(x, **kwargs):
            raise NumericError(f"twin {tag} failed")
        return forward

    def poison(state):
        state.model_a.forward = fail("a")
        state.model_b.forward = fail("b")

    poison_init(monkeypatch, poison)
    place(monkeypatch, worker)
    with pytest.raises(NonFiniteLossError, match="step 0: twin a failed"):
        trainer.run_training(**run_args(data, str(tmp_path / "r.clam")))
    assert multiprocessing.active_children() == []


# -- the stall warning -------------------------------------------------------

def test_a_held_loss_warns_once(data, tmp_path, monkeypatch, capsys):
    train_step = trainer.train_step
    monkeypatch.setattr(trainer, "train_step",
                        lambda *a: {**train_step(*a), "total_loss": 1.5})
    trainer.run_training(**run_args(data, str(tmp_path / "r.clam"),
                                    steps=trainer.STALL_STEPS + 3))
    warnings = [ln for ln in capsys.readouterr().err.splitlines() if "warning" in ln]
    assert warnings == [f"warning: total_loss has stayed within 1e-06 of 1.500000 for "
                        f"{trainer.STALL_STEPS} steps, to step {trainer.STALL_STEPS}; "
                        "the twins may have stopped learning"]


def test_a_learning_run_does_not_warn(data, tmp_path, capsys):
    trainer.run_training(**run_args(data, str(tmp_path / "r.clam"),
                                    steps=trainer.STALL_STEPS + 3))
    assert "warning" not in capsys.readouterr().err
