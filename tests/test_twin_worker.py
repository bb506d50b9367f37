"""Twin b's forked worker and ``cores.split_in_two``, which forks the second
half of calibration and of the gradcheck suite: same bits as in process,
errors that match, no process left behind, and the stall warning of
``run_training``."""

import multiprocessing
import os
import signal
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
    cfg = UnetPPConfig(levels=2, input_size=8, base_channels=2)
    state = trainer.init_state(cfg, config.to_optimizer_config(config.RunConfig()),
                               augment.PairPolicy(n_augment=1, n_normal=1, n_cross=2,
                                                  tile_size=8, default_eta=0.5), 5)
    rng = np.random.default_rng(3)
    sa, sb = (rng.uniform(0, 1, (4, 8, 8)).astype(np.float32) for _ in range(2))
    cross, etas = [False, True, True, False], [1.0, 0.5, 0.25, 0.75]

    def grads():
        return {k: t.grad.copy() for k, t in state.optimizer.params.items()}

    for _, model in state.models():
        model.zero_grads()
    p_a, p_b = trainer._forward(state.model_a, sa), trainer._forward(state.model_b, sb)
    total, per = losses.pair_batch_loss(p_a, p_b, cross, etas)
    T.backward(total)
    joint = grads()

    for _, model in state.models():
        model.zero_grads()
    p_a, p_b = trainer._forward(state.model_a, sa), trainer._forward(state.model_b, sb)
    half_a = losses.pair_half_terms(p_b.data, p_a, cross)
    half_b = losses.pair_half_terms(p_a.data, p_b, cross)
    T.backward(losses.pair_total(half_b, etas)[0])
    T.backward(losses.pair_total(half_a, etas)[0])
    split_total, split_per = losses.pair_total(T.Tensor(half_b.data + half_a.data), etas)

    assert split_total.data.tobytes() == total.data.tobytes()
    assert split_per == per
    split = grads()
    for name, g in joint.items():
        assert split[name].tobytes() == g.tobytes(), name


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
