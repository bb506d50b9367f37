"""Span tracing of clamseg's public functions, installed from outside the program.

Every hook replaces a module or class attribute with a timing wrapper, so the
program carries no timing code and an untraced run executes it unchanged.
``Patches.restore`` puts every original object back.

A span is one call: ``(span_id, parent_id, name, start, end)``.  Spans are kept
in memory (up to ``MAX_SPANS``; the rest are only aggregated) and written out
by ``write_spans`` when the run ends.  For each name the tracer aggregates
calls, inclusive time and self time (inclusive time minus the time its child
spans cover).  Spans opened inside ``trainer.train_step`` are also aggregated
separately, so the share of a training step that the tape ops explain can be
computed.
"""

import os
import time
from collections import defaultdict
from contextlib import contextmanager

from clamseg import augment, checkpoint, gradcheck, metrics, trainer
from clamseg import tensor as T
from clamseg.unetpp import UnetPP

STEP_SPAN = "trainer.train_step"
MAX_SPANS = 200_000

# public tape ops, grouped as the per-layer table reports them
OP_GROUPS = {
    "conv2d": "conv2d",
    "upsample_bilinear2x": "upsample_bilinear2x",
    "softmax_channels": "softmax_channels",
    "concat_channels": "concat_channels",
    "relu": "relu",
    "add": "pointwise",
    "mul": "pointwise",
    "log": "pointwise",
    "clamp_min": "pointwise",
    "bounded_ratio": "pointwise",
    "tsum": "pointwise",
    "tmean": "pointwise",
}

# gradcheck case catalogs, recognised by the function that built the case
CATALOGS = {"op_cases": "tensor", "loss_cases": "loss", "model_cases": "model"}

# (owner, attribute, span name) for every non-op layer boundary
LAYER_HOOKS = [
    (T, "backward", "tensor.backward"),
    (UnetPP, "forward", "unetpp.forward"),
    (trainer, "train_step", STEP_SPAN),
    (trainer, "pair_loss_terms", "trainer.pair_loss_terms"),
    (trainer.Optimizer, "step", "trainer.optimizer"),
    (trainer, "stitch_probs", "trainer.stitch_probs"),
    (trainer, "calibrate_marker_channel", "trainer.calibrate"),
    (trainer, "save_state", "trainer.save_state"),
    (trainer, "load_state", "trainer.load_state"),
    (augment, "make_pairs", "augment.make_pairs"),
    (augment, "augment_chain", "augment.augment_chain"),
    (augment, "bilinear_resize", "imops.bilinear_resize"),
    (metrics, "evaluate", "metrics.evaluate"),
    (metrics, "random_baseline", "metrics.random_baseline"),
]


class Patches:
    """Attribute replacements that can all be undone, newest first."""

    def __init__(self):
        self._saved = []

    def patch(self, owner, attr, new):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def restore(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)


def _conv2d_cost(args, kwargs, out):
    """Computed (fwd flop, fwd bytes, bwd flop, bwd bytes) of one conv2d call.

    Bytes are array sizes read and written, not measured memory traffic.
    """
    x, w = args[0].data, args[1].data
    b = args[2] if len(args) > 2 else kwargs.get("b")
    B, cout, ho, wo = out.data.shape
    flop = 2 * B * cout * ho * wo * w.shape[1] * w.shape[2] * w.shape[3]
    bias = b.data.nbytes if b is not None else 0
    fwd_bytes = x.nbytes + w.nbytes + bias + out.data.nbytes
    # grad_fn reads g, x (as columns) and w; writes gx, gw and the bias grad
    bwd_bytes = out.data.nbytes + 2 * x.nbytes + 2 * w.nbytes + bias
    return flop, fwd_bytes, 2 * flop, bwd_bytes


def _upsample_cost(args, kwargs, out):
    x = args[0].data
    nbytes = x.nbytes + out.data.nbytes
    return 0, nbytes, 0, nbytes


OP_COSTS = {"conv2d": _conv2d_cost, "upsample_bilinear2x": _upsample_cost}


class Tracer:
    """In-memory span recorder with per-name aggregates and computed counters."""

    def __init__(self):
        self.spans = []
        self.dropped = 0
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.step_total = defaultdict(float)
        self.step_self = defaultdict(float)
        self.counters = defaultdict(float)
        self._stack = []  # [span_id, parent_id, name, start, child_time, in_step]
        self._next_id = 0
        self._patches = Patches()

    # -- spans ----------------------------------------------------------------

    def open(self, name):
        parent = self._stack[-1] if self._stack else None
        in_step = name == STEP_SPAN or (parent is not None and parent[5])
        self._next_id += 1
        self._stack.append([self._next_id, parent[0] if parent else 0, name,
                            time.perf_counter(), 0.0, in_step])

    def close(self):
        end = time.perf_counter()
        sid, pid, name, start, child, in_step = self._stack.pop()
        dur = end - start
        self.calls[name] += 1
        self.total[name] += dur
        self.self_time[name] += dur - child
        if in_step:
            self.step_total[name] += dur
            self.step_self[name] += dur - child
        if self._stack:
            self._stack[-1][4] += dur
        if len(self.spans) < MAX_SPANS:
            self.spans.append((sid, pid, name, start, end))
        else:
            self.dropped += 1

    @contextmanager
    def span(self, name):
        self.open(name)
        try:
            yield
        finally:
            self.close()

    def timed(self, fn, name):
        def wrapper(*args, **kwargs):
            self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close()

        return wrapper

    # -- hooks ----------------------------------------------------------------

    def install(self):
        """Wrap every tape op, its grad_fn, and each layer boundary."""
        for op in OP_GROUPS:
            self._patches.patch(T, op, self._timed_op(op, getattr(T, op)))
        for owner, attr, name in LAYER_HOOKS:
            self._patches.patch(owner, attr, self.timed(getattr(owner, attr), name))
        self._patches.patch(gradcheck, "gradcheck", self._timed_gradcheck(gradcheck.gradcheck))
        for attr, name in (("save_checkpoint", "checkpoint.save"),
                           ("load_checkpoint", "checkpoint.load")):
            self._patches.patch(checkpoint, attr,
                                self._timed_file_io(getattr(checkpoint, attr), name))

    def uninstall(self):
        self._patches.restore()

    def _timed_op(self, op, fn):
        fwd, bwd = f"tensor.{op}.fwd", f"tensor.{op}.bwd"
        cost = OP_COSTS.get(op)
        counters = self.counters

        def wrapper(*args, **kwargs):
            self.open(fwd)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close()
            bwd_cost = None
            if cost is not None:
                f_flop, f_bytes, b_flop, b_bytes = cost(args, kwargs, out)
                counters[f"{op}.flop"] += f_flop
                counters[f"{op}.bytes"] += f_bytes
                counters[f"{op}.batch"] += out.data.shape[0]
                bwd_cost = (b_flop, b_bytes)
            node = out._node
            if node is not None:
                node.grad_fn = self._timed_grad(op, bwd, node.grad_fn, bwd_cost)
            return out

        return wrapper

    def _timed_grad(self, op, name, grad_fn, cost):
        counters = self.counters

        def wrapper(g):
            self.open(name)
            try:
                return grad_fn(g)
            finally:
                self.close()
                if cost is not None:
                    counters[f"{op}.flop"] += cost[0]
                    counters[f"{op}.bytes"] += cost[1]

        return wrapper

    def _timed_gradcheck(self, fn):
        def wrapper(f, point, *args, **kwargs):
            catalog = CATALOGS.get(f.__qualname__.split(".")[0], "other")
            self.open(f"gradcheck.{catalog}")
            try:
                return fn(f, point, *args, **kwargs)
            finally:
                self.close()

        return wrapper

    def _timed_file_io(self, fn, name):
        """Time a call whose first argument is a file path; count its bytes."""
        timed = self.timed(fn, name)

        def wrapper(path, *args, **kwargs):
            out = timed(path, *args, **kwargs)
            self.counters["checkpoint.bytes"] += os.path.getsize(path)
            return out

        return wrapper

    # -- output ---------------------------------------------------------------

    def write_spans(self, path):
        """Write the kept spans as tab-separated rows, ordered by start time."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("span_id\tparent_id\tname\tstart_s\tend_s\n")
            for sid, pid, name, start, end in sorted(self.spans, key=lambda s: s[3]):
                fh.write(f"{sid}\t{pid}\t{name}\t{start:.9f}\t{end:.9f}\n")
            if self.dropped:
                fh.write(f"# {self.dropped} further spans aggregated but not kept\n")


def layer_metrics(tr, jobs, setups, gc_counts):
    """The per-layer table: per job of the workload, set-up layers per set-up.

    ``gc_counts`` holds the gradcheck totals the suite reports itself
    (coordinates checked and skipped).  Times are in ms unless named ``_s``.
    """
    per = 1.0 / jobs
    ms = 1000.0 * per
    out = {}
    for group in dict.fromkeys(OP_GROUPS.values()):
        ops = [op for op, g in OP_GROUPS.items() if g == group]
        out[f"tensor.{group}.fwd_ms"] = sum(tr.self_time[f"tensor.{op}.fwd"] for op in ops) * ms
        out[f"tensor.{group}.bwd_ms"] = sum(tr.self_time[f"tensor.{op}.bwd"] for op in ops) * ms
        out[f"tensor.{group}.calls"] = sum(tr.calls[f"tensor.{op}.fwd"] for op in ops) * per
    out["tensor.backward.overhead_ms"] = tr.self_time["tensor.backward"] * ms
    conv_calls = tr.calls["tensor.conv2d.fwd"]
    out["tensor.conv2d.batch_mean"] = tr.counters["conv2d.batch"] / conv_calls if conv_calls else 0.0
    out["tensor.conv2d.gflop"] = tr.counters["conv2d.flop"] * per / 1e9
    conv_s = tr.self_time["tensor.conv2d.fwd"] + tr.self_time["tensor.conv2d.bwd"]
    out["tensor.conv2d.gflop_per_s"] = tr.counters["conv2d.flop"] / conv_s / 1e9 if conv_s else 0.0
    out["tensor.conv2d.computed_mb"] = tr.counters["conv2d.bytes"] * per / 1e6
    out["tensor.upsample_bilinear2x.computed_mb"] = (
        tr.counters["upsample_bilinear2x.bytes"] * per / 1e6)
    step_s = tr.total[STEP_SPAN]
    op_step_s = sum(v for k, v in tr.step_self.items() if k.startswith("tensor."))
    out["tensor.share_of_train_step"] = op_step_s / step_s if step_s else 0.0

    out["unetpp.forward.calls"] = tr.calls["unetpp.forward"] * per
    out["unetpp.forward_ms"] = tr.total["unetpp.forward"] * ms

    out["trainer.train_step_ms"] = step_s * ms
    out["trainer.pair_loss_terms_ms"] = tr.total["trainer.pair_loss_terms"] * ms
    out["trainer.backward_ms"] = tr.step_total["tensor.backward"] * ms
    for name in ("optimizer", "stitch_probs", "calibrate", "save_state", "load_state"):
        out[f"trainer.{name}_ms"] = tr.total[f"trainer.{name}"] * ms

    out["augment.make_pairs_ms"] = tr.total["augment.make_pairs"] * ms
    out["augment.augment_chain.calls"] = tr.calls["augment.augment_chain"] * per
    out["imops.bilinear_resize_ms"] = tr.total["imops.bilinear_resize"] * ms

    out["checkpoint.save_ms"] = tr.total["checkpoint.save"] * ms
    out["checkpoint.load_ms"] = tr.total["checkpoint.load"] * ms
    out["checkpoint.bytes"] = tr.counters["checkpoint.bytes"] * per

    out["metrics.evaluate_ms"] = tr.total["metrics.evaluate"] * ms
    out["metrics.random_baseline_ms"] = tr.total["metrics.random_baseline"] * ms

    for catalog in CATALOGS.values():
        out[f"gradcheck.{catalog}_s"] = tr.total[f"gradcheck.{catalog}"] * per
    coords = gc_counts.get("checked", 0) + gc_counts.get("skipped", 0)
    out["gradcheck.probes"] = 2 * coords * per
    out["gradcheck.skipped_frac"] = gc_counts.get("skipped", 0) / coords if coords else 0.0

    out["phantoms.generate_ms"] = tr.total["phantoms.generate"] * 1000.0 / setups
    out["preprocess.dataset_ms"] = tr.total["preprocess.dataset"] * 1000.0 / setups
    return out
