"""Nested encoder-decoder lattice with deep-supervision heads.

Nodes X^{i,j} live on the triangle 0 <= i+j <= L-1.  Level i runs at
``base_channels * 2**i`` channels and spatial side ``input_size / 2**i``.
Backbone nodes (i, 0) apply a stride-1 same-padding conv (+relu) and then,
below the deepest level, a stride-2 conv (+relu) that doubles channels and
feeds level i+1; the downsampling thus lives inside the second convolution
rather than a pooling layer.  Selected "repeat" levels insert one extra
stride-1 conv before the downsampler, giving two consecutive blocks at the
same dimensions.  The deepest backbone node uses two stride-1 convs.

Nested nodes (i, j >= 1) bilinearly upsample X^{i+1,j-1}, halve its channels
with a 1x1 conv (+relu), concatenate all X^{i,0..j-1} skips, and fuse with a
stride-1 conv (+relu) at the level's kernel size.  Each supervision head j is
an independent 1x1 conv from X^{0,j} to 2 classes followed by a channel
softmax, so pruning to any depth needs no recalibration.

Parameter naming is ``node_{i}_{j}.conv{K}.{weight,bias}`` with K numbered in
application order within the node, and ``head_{j}.{weight,bias}``.
"""

import numpy as np

from . import tensor as T
from .seeding import derive_rng


def default_kernel_schedule(levels):
    """Smallest odd nondecreasing schedule growing every two levels: 3,3,5,5,7,..."""
    sched = []
    k = 3
    while len(sched) < levels:
        sched.append(k)
        if len(sched) < levels:
            sched.append(k)
        k += 2
    return sched


class UnetPPConfig:
    """Architecture settings; validated on construction."""

    def __init__(self, levels, input_size, base_channels, kernel_schedule=None,
                 repeat_levels=None, repeat_seed=None, heads=None):
        self.levels = int(levels)
        self.input_size = int(input_size)
        self.base_channels = int(base_channels)
        self.kernel_schedule = list(kernel_schedule) if kernel_schedule is not None \
            else default_kernel_schedule(self.levels)
        if repeat_levels is None and repeat_seed is not None:
            rng = derive_rng(repeat_seed, "repeat-levels")
            repeat_levels = {i for i in range(self.levels) if rng.random() < 0.5}
        self.repeat_levels = frozenset(int(i) for i in (repeat_levels or ()))
        self.heads = tuple(sorted(int(h) for h in heads)) if heads is not None \
            else tuple(range(1, self.levels))
        self.validate()

    def validate(self):
        L = self.levels
        if L < 2:
            raise ValueError(f"levels must be >= 2, got {L}")
        if self.base_channels < 1:
            raise ValueError("base_channels must be positive")
        if self.input_size % (2 ** (L - 1)) != 0:
            raise ValueError(
                f"input_size {self.input_size} not divisible by 2^{L - 1}")
        ks = self.kernel_schedule
        if len(ks) != L:
            raise ValueError(f"kernel_schedule length {len(ks)} != levels {L}")
        if any(k % 2 == 0 or k < 1 for k in ks):
            raise ValueError(f"kernel_schedule must be odd positive integers, got {ks}")
        if any(a > b for a, b in zip(ks, ks[1:])):
            raise ValueError(f"kernel_schedule must be nondecreasing, got {ks}")
        if not self.repeat_levels <= set(range(L)):
            raise ValueError(f"repeat_levels {sorted(self.repeat_levels)} outside 0..{L - 1}")
        if not self.heads or not set(self.heads) <= set(range(1, L)):
            raise ValueError(f"heads {self.heads} must be a nonempty subset of 1..{L - 1}")

    def channels(self, level):
        return self.base_channels * (2 ** level)

    def side(self, level):
        return self.input_size // (2 ** level)


class _Conv:
    __slots__ = ("name", "in_ch", "out_ch", "k", "stride", "relu")

    def __init__(self, name, in_ch, out_ch, k, stride=1, relu=True):
        self.name = name
        self.in_ch = in_ch
        self.out_ch = out_ch
        self.k = k
        self.stride = stride
        self.relu = relu

    @property
    def pad(self):
        return (self.k - 1) // 2


class UnetPP:
    """A built lattice: parameter tensors plus the evaluation plan.

    ``seed`` draws the weights (He-normal, one stream per weight name; biases
    zero).  ``seed=None`` draws nothing and leaves every parameter zero, for
    a caller that fills them all itself: a checkpoint load or a prune.

    ``truncated`` marks a model produced by pruning: its deepest backbone
    node keeps only the stride-1 convs that the full graph would have run for
    that head depth, so outputs stay bit-identical to the parent graph.
    """

    def __init__(self, config, seed=0, dtype=np.float32, truncated=False):
        self.config = config
        self.dtype = dtype
        self.truncated = bool(truncated)
        self.node_plan = {}   # (i, j) -> [_Conv, ...]; backbone downsampler kept separate
        self.down_plan = {}   # i -> _Conv producing level i+1 input
        self.head_plan = {}   # j -> _Conv (1x1, no relu)
        self.params = {}
        self._build(seed)

    # -- construction -------------------------------------------------------

    def _build(self, seed):
        cfg = self.config
        L = cfg.levels
        for i in range(L):
            c = cfg.channels(i)
            k = cfg.kernel_schedule[i]
            in_ch = 1 if i == 0 else c
            convs = [_Conv(f"node_{i}_0.conv1", in_ch, c, k)]
            if i in cfg.repeat_levels:
                convs.append(_Conv(f"node_{i}_0.conv{len(convs) + 1}", c, c, k))
            if i == L - 1 and not self.truncated:
                convs.append(_Conv(f"node_{i}_0.conv{len(convs) + 1}", c, c, k))
            self.node_plan[(i, 0)] = convs
            if i < L - 1:
                self.down_plan[i] = _Conv(
                    f"node_{i}_0.conv{len(convs) + 1}", c, cfg.channels(i + 1), k, stride=2)
        for j in range(1, L):
            for i in range(L - j):
                c = cfg.channels(i)
                k = cfg.kernel_schedule[i]
                self.node_plan[(i, j)] = [
                    _Conv(f"node_{i}_{j}.conv1", cfg.channels(i + 1), c, 1),
                    _Conv(f"node_{i}_{j}.conv2", (j + 1) * c, c, k),
                ]
        for j in cfg.heads:
            self.head_plan[j] = _Conv(f"head_{j}", cfg.channels(0), 2, 1, relu=False)

        specs = [s for convs in self.node_plan.values() for s in convs]
        specs += list(self.down_plan.values()) + list(self.head_plan.values())
        for spec in specs:
            self._init_param(spec, seed)

    def _init_param(self, spec, seed):
        wname, bname = spec.name + ".weight", spec.name + ".bias"
        assert wname not in self.params, f"parameter name collision: {wname}"
        shape = (spec.out_ch, spec.in_ch, spec.k, spec.k)
        if seed is None:
            w = np.zeros(shape, dtype=self.dtype)
        else:
            fan_in = spec.in_ch * spec.k * spec.k
            w = derive_rng(seed, "init", wname).standard_normal(shape) * np.sqrt(2.0 / fan_in)
        self.params[wname] = T.Tensor(w, requires_grad=True, dtype=self.dtype)
        self.params[bname] = T.Tensor(np.zeros(spec.out_ch, dtype=self.dtype),
                                      requires_grad=True, dtype=self.dtype)

    # -- evaluation ---------------------------------------------------------

    def _apply(self, spec, h, trace):
        out = T.conv2d(h, self.params[spec.name + ".weight"],
                       self.params[spec.name + ".bias"],
                       stride=spec.stride, padding=spec.pad)
        if not spec.relu:
            return out
        if trace is not None:
            trace[spec.name + ".pre"] = out.data  # relu inputs only: kink signature
        return T.relu(out)

    def resolve_depth(self, depth):
        if depth is None:
            return max(self.config.heads)
        depth = int(depth)
        if depth not in self.config.heads:
            raise ValueError(f"unknown head depth {depth}; available: {list(self.config.heads)}")
        return depth

    def forward(self, x, depth=None, trace=None):
        """Probability map (B x 2 x S x S) from head(depth), deepest by default.

        Only nodes with i + j <= depth are evaluated, so a head's output is
        bit-identical between the full and the pruned-to-depth graph.  A
        ``trace`` dict receives each relu's input as ``<conv name>.pre``.

        The forward holds a node's output only until its last consumer has
        run: a row's earlier nodes until the row's last node (i + j = depth)
        has concatenated them, the node that last node upsamples until the
        upsample, and X^{0,depth} until the head.  A node's own intermediates
        (the downsampled input, the projection, the concatenation) die with
        the node.  What the tape keeps is up to the ops' rules.
        """
        cfg = self.config
        d = self.resolve_depth(depth)
        if not isinstance(x, T.Tensor):
            raise TypeError("forward expects a Tensor")
        S = cfg.input_size
        if x.data.ndim != 4 or x.data.shape[1] != 1 or x.data.shape[2:] != (S, S):
            raise ValueError(f"forward expects B x 1 x {S} x {S} input, got {x.data.shape}")
        if x.data.dtype != self.dtype:
            raise ValueError(f"forward expects dtype {np.dtype(self.dtype).name}, got {x.data.dtype}")

        X = {}
        h = x
        for i in range(d + 1):
            for spec in self.node_plan[(i, 0)]:
                h = self._apply(spec, h, trace)
            X[(i, 0)] = h
            h = self._apply(self.down_plan[i], h, trace) if i < d else None
        for j in range(1, d + 1):
            for i in range(d - j + 1):
                proj_spec, fuse_spec = self.node_plan[(i, j)]
                # a row's last node is the last consumer of its inputs
                take = X.pop if i + j == d else X.__getitem__
                proj = self._apply(proj_spec, T.upsample_bilinear2x(take((i + 1, j - 1))), trace)
                fused = T.concat_channels([take((i, jj)) for jj in range(j)] + [proj])
                proj = None
                X[(i, j)] = self._apply(fuse_spec, fused, trace)
                fused = None
        return T.softmax_channels(self._apply(self.head_plan[d], X.pop((0, d)), trace))

    # -- parameter access ---------------------------------------------------

    def parameter_items(self):
        """(name, tensor) pairs in sorted-name order: the canonical ordering
        for optimizers and checkpoints."""
        return sorted(self.params.items())

    def parameter_count(self):
        return sum(t.data.size for t in self.params.values())

    def zero_grads(self):
        for t in self.params.values():
            t.zero_grad()

    # -- pruning ------------------------------------------------------------

    def prune(self, depth):
        """New model evaluating only nodes i + j <= depth, weights copied.

        The result's deepest backbone node drops the downsampler (and, for a
        formerly deepest node, nothing else changes), keeping head(depth)
        outputs bit-identical to this graph.
        """
        cfg = self.config
        d = self.resolve_depth(depth)
        truncated = d < cfg.levels - 1 or self.truncated
        sub = UnetPPConfig(
            levels=d + 1, input_size=cfg.input_size, base_channels=cfg.base_channels,
            kernel_schedule=cfg.kernel_schedule[:d + 1],
            repeat_levels=[i for i in cfg.repeat_levels if i <= d],
            heads=[h for h in cfg.heads if h <= d])
        out = UnetPP(sub, seed=None, dtype=self.dtype, truncated=truncated)
        for name, t in out.params.items():
            t.data = self.params[name].data.copy()
        return out
