"""Tests for the finite-difference checker itself, then the op-level suite,
and the suite split across two cores."""

import contextlib
import multiprocessing
import os

import numpy as np
import pytest

from clamseg import cli
from clamseg import gradcheck as gc
from clamseg import tensor as T


def test_linear_function_is_near_exact():
    x = T.Tensor(np.arange(1.0, 7.0).reshape(2, 3))
    report = gc.gradcheck(lambda t: t.sum(), x)
    assert report["pass"]
    assert report["max_rel_err"] < 1e-9
    assert report["n_checked"] == 6
    assert report["n_skipped"] == 0


def test_quadratic_passes_at_default_tolerance():
    rng = np.random.default_rng(2)
    x = T.Tensor(rng.standard_normal((3, 4)))
    report = gc.gradcheck(lambda t: (t * t).mean(), x)
    assert report["pass"], report


def test_wrong_gradient_is_detected():
    def bad_square(x):
        out = x.data * x.data

        def grad_fn(g):
            return (g * 3.0 * x.data,)  # deliberately wrong factor

        return T._result(out, "bad_square", (x,), grad_fn)

    x = T.Tensor(np.array([0.7, -1.2, 2.0]))
    report = gc.gradcheck(lambda t: bad_square(t).sum(), x)
    assert not report["pass"]
    assert report["max_rel_err"] > 0.2


def test_non_scalar_function_rejected():
    x = T.Tensor(np.ones(3))
    with pytest.raises(ValueError):
        gc.gradcheck(lambda t: t * 2.0, x)


def test_constant_function_reports_zero_gradient():
    x = T.Tensor(np.ones(2))
    c = T.Tensor(np.full((), 5.0))
    report = gc.gradcheck(lambda t: c * 1.0, x)
    assert report["pass"]
    assert report["max_rel_err"] == 0.0


def test_wrong_gradient_by_one_part_in_a_thousand_is_detected():
    # the Richardson fallback removes truncation error only: an analytic
    # gradient off by a relative 1e-3 still misses at both steps
    def square(x, scale):
        def grad_fn(g):
            return (g * 2.0 * scale * x.data,)

        return T._result(x.data * x.data, "square", (x,), grad_fn)

    x = T.Tensor(np.array([0.7, -1.2, 2.0]))
    assert gc.gradcheck(lambda t: square(t, 1.0).sum(), x)["pass"]
    report = gc.gradcheck(lambda t: square(t, 1.0 + 1e-3).sum(), x)
    assert not report["pass"]
    assert 5e-4 < report["max_rel_err"] < 2e-3


def test_truncation_error_is_extrapolated_away():
    # d/dx log x = 1/x; the central difference at h = 1e-3 overshoots by a
    # relative h^2 / (3 x^2) = 1.3e-4 at x = 0.05, and the h, h/2 Richardson
    # estimate is off by about h^4 / (5 x^4) = 3e-8
    x = T.Tensor(np.array([0.05]))
    report = gc.gradcheck(lambda t: T.log(t).sum(), x)
    assert report["pass"] and report["n_checked"] == 1
    assert report["max_rel_err"] < 1e-6


def test_half_step_probes_are_covered_by_the_kink_skip():
    # the signature changes between the +/-h and the +/-h/2 probes only; the
    # extrapolated estimate would mix two pieces, so the coordinate is skipped
    x0 = 0.05

    def f(t):
        return T.log(t).sum(), bool(abs(t.data[0] - x0) < 7.5e-4)

    report = gc.gradcheck(f, T.Tensor(np.array([x0])))
    assert report["n_skipped"] == 1 and report["n_checked"] == 0


def test_gradcheck_records_only_the_analytic_pass(monkeypatch):
    nodes = []

    class CountingNode(T.TapeNode):
        __slots__ = ()

        def __init__(self, parents, grad_fn):
            nodes.append(1)
            super().__init__(parents, grad_fn)

    monkeypatch.setattr(T, "TapeNode", CountingNode)
    rng = np.random.default_rng(5)
    # a parameter that requires grad, as in the model cases, would put every
    # recorded probe on the tape
    w = T.Tensor(rng.standard_normal((2, 2, 3, 3)), requires_grad=True)

    def f(t):
        return (T.relu(T.conv2d(t, w, padding=1)) * 0.5).sum()

    f(T.Tensor(np.zeros((1, 2, 4, 4)), requires_grad=True))
    per_pass = len(nodes)
    assert per_pass == 4
    nodes.clear()
    report = gc.gradcheck(f, T.Tensor(rng.uniform(0.5, 1.0, (1, 2, 4, 4))))
    assert report["n_checked"] == 32
    assert len(nodes) == per_pass


def test_suite_reports_do_not_depend_on_the_probes_skipping_the_tape(monkeypatch):
    tape_free = gc.run_suite("all", seeds=range(2))
    monkeypatch.setattr(T, "no_grad", contextlib.nullcontext)
    assert gc.run_suite("all", seeds=range(2)) == tape_free


def test_model_case_seeds_with_large_truncation_error_pass():
    # at h = 1e-3 the plain central difference misses tol on these case seeds
    results = gc.run_suite("model", seeds=[97, 167, 176])
    failures = [(n, r) for n, r in results if not r["pass"]]
    assert not failures, failures[:3]


def test_kink_coordinates_are_skipped_via_signature():
    # coordinate 0 sits closer to the relu kink than the probe step; its
    # numeric estimate would be badly wrong, so the signature must skip it
    x = T.Tensor(np.array([5e-4, 1.0]))

    def f(t):
        out = T.relu(t).sum()
        return out, (t.data > 0).tobytes()

    report = gc.gradcheck(f, x)
    assert report["n_skipped"] == 1
    assert report["n_checked"] == 1
    assert report["pass"]


def test_kink_failure_visible_without_signature():
    x = T.Tensor(np.array([5e-4, 1.0]))
    report = gc.gradcheck(lambda t: T.relu(t).sum(), x)
    assert not report["pass"]


def test_op_suite_passes_across_twenty_seeds():
    results = gc.run_suite(module="tensor", seeds=range(20))
    failures = [(n, r) for n, r in results if not r["pass"]]
    assert not failures, failures[:3]
    names = {n.split("[")[0] for n, _ in results}
    expected = {"conv2d/input", "conv2d/kernel", "conv2d/bias", "conv2d/stride2-input",
                "conv2d/stride2-kernel", "upsample_bilinear2x", "relu", "log",
                "clamp_min", "bounded_ratio/y", "bounded_ratio/p", "softmax_channels",
                "concat_channels", "add", "add/scalar", "mul", "mul/scalar", "sum", "mean"}
    assert expected <= names


def test_unknown_suite_module_rejected():
    with pytest.raises(ValueError):
        gc.run_suite(module="bogus")


# -- the suite on two cores ----------------------------------------------------

def place(monkeypatch, cpus):
    """Make the suite see ``cpus`` CPUs (two: the second half of the seeds
    runs in a forked child; one: all in process).

    -> the list that gets one entry per process started.
    """
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    started = []
    start = multiprocessing.context.ForkProcess.start
    monkeypatch.setattr(multiprocessing.context.ForkProcess, "start",
                        lambda self: started.append(1) or start(self))
    return started


def test_split_suite_equals_the_in_process_suite(monkeypatch):
    started = place(monkeypatch, cpus=2)
    split = gc.run_suite("all", seeds=range(3))
    assert started == [1]
    started = place(monkeypatch, cpus=1)
    assert gc.run_suite("all", seeds=range(3)) == split
    assert started == []
    seeds = [int(n.split("[seed=")[1][:-1]) for n, _ in split]
    assert seeds == sorted(seeds) and set(seeds) == {0, 1, 2}


def test_one_seed_forks_nothing(monkeypatch):
    started = place(monkeypatch, cpus=2)
    results = gc.run_suite("loss", seeds=[4])
    assert started == []
    assert results and all(n.endswith("[seed=4]") for n, _ in results)


def test_a_seed_generator_gives_the_same_list_as_a_range(monkeypatch):
    started = place(monkeypatch, cpus=2)
    assert gc.run_suite("loss", seeds=(s for s in range(4))) == gc.run_suite("loss", seeds=range(4))
    assert started == [1, 1]


def test_a_case_error_in_the_childs_half_is_raised_here(monkeypatch):
    started = place(monkeypatch, cpus=2)
    model_cases = gc.model_cases

    def broken(seed):
        if seed == 3:
            raise FloatingPointError(f"case seed {seed}")
        return model_cases(seed)

    monkeypatch.setattr(gc, "model_cases", broken)
    # seed 0 is the parent's half, seed 3 the child's
    with pytest.raises(FloatingPointError, match="case seed 3"):
        gc.run_suite("model", seeds=[0, 3])
    assert started == [1]
    assert multiprocessing.active_children() == []


def test_cli_prints_the_same_lines_in_both_placements(monkeypatch, capsys):
    out = []
    for cpus in (2, 1):
        started = place(monkeypatch, cpus)
        assert cli.main(["gradcheck", "--module", "loss", "--seeds", "2"]) == 0
        assert started == [1] * (cpus == 2)
        out.append(capsys.readouterr().out)
    assert out[0] == out[1]
    assert out[0].count("[seed=1]") == out[0].count("[seed=0]") > 0
