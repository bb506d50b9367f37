"""Checks on the benchmark itself, on workloads shrunk to a few seconds.

    python3 -m pytest bench/test_bench.py

* A traced training job gives bit-identical losses to an untraced one.
* The exact counts in the per-layer table repeat from job to job.
* Uninstalling the tracer puts every original function back.
* BENCHMARK.json follows the result contract and names exactly the
  per-layer metrics the tracer produces.
"""

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from clamseg import checkpoint, gradcheck  # noqa: E402
from clamseg import tensor as T  # noqa: E402
from tracing import LAYER_HOOKS, OP_GROUPS, Tracer, layer_metrics  # noqa: E402
from workloads import EvalTiles, GradcheckSuite, TrainSmoke  # noqa: E402

# per-layer figures that are computed from counts and shapes, not timed
EXACT = ("calls", "gflop", "computed_mb", "bytes", "batch_mean", "probes", "skipped_frac")


def _small(kind, tmp_path):
    wl = {"train": lambda: TrainSmoke(3, count=40, steps=3),
          "eval": lambda: EvalTiles(3, count=20, ckpt_steps=2),
          "gradcheck": lambda: GradcheckSuite(3, case_seeds=[0, 1])}[kind]()
    wl.setup(Tracer(), str(tmp_path))
    wl.prepare()
    return wl


def _traced_job(wl):
    tracer = Tracer()
    tracer.install()
    try:
        job = wl.job()
    finally:
        tracer.uninstall()
    counts = {k: job.extra.get(k, 0) for k in ("checked", "skipped")}
    return job, layer_metrics(tracer, 1, 1, counts)


def test_traced_training_losses_are_bit_identical(tmp_path):
    wl = _small("train", tmp_path)
    plain = wl.job()
    traced, _ = _traced_job(wl)
    assert traced.extra["losses"] == plain.extra["losses"]
    assert plain.failed == traced.failed == 0


@pytest.mark.parametrize("kind", ["train", "eval", "gradcheck"])
def test_exact_counts_repeat(kind, tmp_path):
    wl = _small(kind, tmp_path)
    (job1, first), (job2, second) = _traced_job(wl), _traced_job(wl)
    assert job1.failed == job2.failed == 0
    exact = [k for k in first if k.endswith(EXACT)]
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}
    nonzero = {"train": "tensor.conv2d.gflop", "eval": "checkpoint.bytes",
               "gradcheck": "gradcheck.probes"}[kind]
    assert first[nonzero] > 0


def test_uninstall_restores_every_original():
    hooked = [(T, op) for op in OP_GROUPS] + [(o, a) for o, a, _ in LAYER_HOOKS]
    hooked += [(gradcheck, "gradcheck"), (checkpoint, "save_checkpoint"),
               (checkpoint, "load_checkpoint")]
    before = [vars(owner)[attr] for owner, attr in hooked]
    tracer = Tracer()
    tracer.install()
    assert all(vars(o)[a] is not b for (o, a), b in zip(hooked, before))
    tracer.uninstall()
    assert all(vars(o)[a] is b for (o, a), b in zip(hooked, before))


def test_benchmark_json_matches_the_tracer():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert {w["name"] for w in spec["workloads"]} == {"train-smoke", "eval-tiles", "gradcheck"}
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in e2e.values())
    assert max(m["bound"] for m in e2e.values()) == e2e["setup_s"]["bound"]
    produced = set(layer_metrics(Tracer(), 1, 1, {})) | {"tracing_overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == produced
