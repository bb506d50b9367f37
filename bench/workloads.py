"""The benchmark's three workloads: set-up, one job, and the checks on its outputs.

Each workload builds its inputs from the workload seed during set-up, then
runs fixed-size jobs through clamseg's public functions.  The program's own
settings, its training seed included, are those of the acceptance criteria.
A job returns its wall time, the latency of each unit of work in it, and how
many operations it attempted and how many failed a check.

* ``train-smoke``: the criterion-6 smoke run (200 easy 64-px phantoms,
  external organ masks, L=3, base 8, tile 32, 8 pairs/step, sgd) through
  ``trainer.run_training`` with a periodic checkpoint save and the final
  marker calibration.  Unit: one step, ``make_pairs`` plus ``train_step``.
* ``eval-tiles``: a checkpoint trained briefly during set-up with the same
  config, scored by ``metrics.evaluate`` on the test split of 128-px
  phantoms (16 tiles per image), then one ``trainer.infer`` call per test
  image, which reloads the checkpoint each time as ``clamseg infer`` does.
  Forward only.  Unit: one ``infer`` call.
* ``gradcheck``: the criterion-1 suite, ``run_suite("all")`` over case seeds
  0..19 at h=1e-3, tol=1e-4.  Float64, tiny tensors, so per-call overhead
  dominates.  Unit: one ``gradcheck`` case.
"""

import math
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from clamseg import augment, config, gradcheck, metrics, phantoms, preprocess, trainer
from tracing import Patches

SMOKE = config.RunConfig(levels=3, base_channels=8, tile_size=32, optimizer="sgd",
                         lr=0.3, n_augment=2, n_normal=2, n_cross=4,
                         default_eta=1.0, checkpoint_every=10)
# the criterion-6 training seed; the workload seed only generates the data
TRAIN_SEED = 42


@dataclass
class Job:
    seconds: float
    units: list
    attempted: int
    failed: int
    extra: dict = field(default_factory=dict)


class Stopwatch:
    """Records the duration of every call to the wrapped functions."""

    def __init__(self):
        self.times = defaultdict(list)
        self._patches = Patches()

    def wrap(self, owner, attr):
        fn = getattr(owner, attr)
        times = self.times[attr]

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                times.append(time.perf_counter() - t0)

        self._patches.patch(owner, attr, wrapper)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._patches.restore()
        return False


def _make_data(tracer, out_dir, count, size, seed):
    raw, prep = os.path.join(out_dir, "raw"), os.path.join(out_dir, "prep")
    with tracer.span("phantoms.generate"):
        phantoms.generate_phantoms(raw, count, 0.5, seed,
                                   params=phantoms.PhantomParams.easy(size=size))
    with tracer.span("preprocess.dataset"):
        preprocess.preprocess_dataset(raw, prep, mask_mode="external", out_size=size)
    return prep


def _train(data_dir, steps, out_path):
    return trainer.run_training(
        data_dir=data_dir, model_config=config.to_model_config(SMOKE),
        opt_config=config.to_optimizer_config(SMOKE), policy=config.to_policy(SMOKE),
        steps=steps, seed=TRAIN_SEED, out_path=out_path,
        checkpoint_every=SMOKE.checkpoint_every)


def percentiles_ms(seconds):
    """(p50, p90) in ms of durations given in seconds."""
    return tuple(float(np.percentile(seconds, q)) * 1000.0 for q in (50, 90))


class Workload:
    """Set-up, a fixed-size job, and the workload's own named figures."""

    def prepare(self):
        """Untimed work after set-up that the output checks need."""


class TrainSmoke(Workload):
    name = "train-smoke"
    unit = "training step (make_pairs + train_step)"

    def __init__(self, seed, count=200, steps=35):
        self.seed = seed
        self.count = count
        self.steps = steps
        self.reference = None

    def setup(self, tracer, out_dir):
        self.out_dir = out_dir
        self.data = _make_data(tracer, out_dir, self.count, 64, self.seed)

    def job(self):
        with Stopwatch() as sw:
            for owner, attr in ((augment, "make_pairs"), (trainer, "train_step"),
                                (trainer, "calibrate_marker_channel")):
                sw.wrap(owner, attr)
            t0 = time.perf_counter()
            _, rows = _train(self.data, self.steps, os.path.join(self.out_dir, "smoke.ckpt"))
            seconds = time.perf_counter() - t0
        losses = [r["total_loss"] for r in rows]
        if self.reference is None:
            self.reference = losses
        # a rerun on the same data and seed must repeat every loss bit for bit
        failed = sum(not math.isfinite(v) or v != ref
                     for v, ref in zip(losses, self.reference))
        failed += abs(self.steps - len(losses))
        steps = [a + b for a, b in zip(sw.times["make_pairs"], sw.times["train_step"])]
        return Job(seconds, steps, max(self.steps, len(losses)), failed,
                   {"calibrate_s": sum(sw.times["calibrate_marker_channel"]),
                    "losses": losses})

    def summary(self, jobs):
        steps = [u for j in jobs for u in j.units]
        p50, p90 = percentiles_ms(steps)
        pairs = SMOKE.n_augment + SMOKE.n_normal + SMOKE.n_cross
        return {"step_ms_p50": (p50, "ms"), "step_ms_p90": (p90, "ms"),
                "pairs_per_s": (pairs * len(steps) / sum(steps), "1/s"),
                "calibrate_s": (float(np.median([j.extra["calibrate_s"] for j in jobs])), "s"),
                "loss_last10": (float(np.mean(jobs[0].extra["losses"][-10:])), "loss")}


class EvalTiles(Workload):
    name = "eval-tiles"
    unit = "trainer.infer call on one 128-px test image"

    def __init__(self, seed, count=40, ckpt_steps=5):
        self.seed = seed
        self.count = count
        self.ckpt_steps = ckpt_steps
        self.reference = None

    def setup(self, tracer, out_dir):
        self.out_dir = out_dir
        self.data = _make_data(tracer, out_dir, self.count, 128, self.seed)
        self.ckpt = os.path.join(out_dir, "eval.ckpt")
        with tracer.span("setup.checkpoint"):
            _train(self.data, self.ckpt_steps, self.ckpt)

    def prepare(self):
        """Reference masks for the infer check, from a state loaded once."""
        self.images = [b.image for b in augment.load_batch(self.data, "test")]
        state = trainer.load_state(self.ckpt)
        self.masks = [trainer.infer_state(state, img) for img in self.images]

    def job(self):
        with Stopwatch() as sw:
            sw.wrap(trainer, "infer_state")
            t0 = time.perf_counter()
            report = metrics.evaluate(self.ckpt, self.data, split="test", trials=200,
                                      seed=0, out_prefix=os.path.join(self.out_dir, "eval"))
            eval_s = time.perf_counter() - t0
        dices = [row[2] for row in report["per_image"]]
        if self.reference is None:
            self.reference = dices
        failed = sum(not (math.isfinite(d) and 0.0 <= d <= 1.0) or d != ref
                     for d, ref in zip(dices, self.reference))
        failed += abs(len(self.images) - len(dices))
        attempted = max(len(self.images), len(dices))

        units = []
        for img, ref in zip(self.images, self.masks):
            t0 = time.perf_counter()
            mask = trainer.infer(self.ckpt, img)
            units.append(time.perf_counter() - t0)
            attempted += 1
            failed += not np.array_equal(mask, ref)
        return Job(eval_s + sum(units), units, attempted, failed,
                   {"eval_s": eval_s, "eval_image_s": sw.times["infer_state"]})

    def summary(self, jobs):
        p50, p90 = percentiles_ms([t for j in jobs for t in j.extra["eval_image_s"]])
        return {"eval_image_ms_p50": (p50, "ms"), "eval_image_ms_p90": (p90, "ms"),
                "eval_s": (float(np.median([j.extra["eval_s"] for j in jobs])), "s"),
                "infer_ms_p50": (percentiles_ms([u for j in jobs for u in j.units])[0], "ms")}


class GradcheckSuite(Workload):
    name = "gradcheck"
    unit = "one gradcheck case"

    def __init__(self, seed, case_seeds=range(20)):
        # the workload seed sets the order in which the fixed criterion-1
        # case seeds run; the cases themselves are those of criterion 1
        self.order = [int(s) for s in
                      np.random.default_rng(seed).permutation(np.asarray(case_seeds))]

    def setup(self, tracer, out_dir):
        with tracer.span("gradcheck.catalogs"):
            self.expected = sum(1 for s in self.order
                                for cat in (gradcheck.op_cases(s), gradcheck.loss_cases(s),
                                            gradcheck.model_cases(s))
                                for _ in cat)

    def job(self):
        with Stopwatch() as sw:
            sw.wrap(gradcheck, "gradcheck")
            t0 = time.perf_counter()
            results = gradcheck.run_suite("all", seeds=self.order, h=1e-3, tol=1e-4)
            seconds = time.perf_counter() - t0
        failed = sum(not r["pass"] for _, r in results) + abs(self.expected - len(results))
        counts = {"checked": sum(r["n_checked"] for _, r in results),
                  "skipped": sum(r["n_skipped"] for _, r in results)}
        return Job(seconds, sw.times["gradcheck"], max(len(results), self.expected), failed,
                   counts)

    def summary(self, jobs):
        return {"gradcheck_s": (float(np.median([j.seconds for j in jobs])), "s")}


WORKLOADS = {w.name: w for w in (TrainSmoke, EvalTiles, GradcheckSuite)}
