"""Minimal n-dimensional float tensor with reverse-mode autodiff.

Tensors wrap a numpy array (float32 by default, float64 for shadow
evaluations used by the gradient checker).  Every differentiable operation
records a node on an implicit tape: the node holds, per operand, that
operand's node, the operand itself if it is a ``requires_grad`` leaf, or
None, and a rule mapping the upstream gradient to operand gradients.
``backward`` replays the recorded nodes in reverse topological order,
accumulates gradients into every ``requires_grad`` leaf, and consumes the
tape as it goes, so a second backward without a new forward pass is an
error.

Conventions fixed project-wide:

* Image layout is batch x channel x height x width.
* Bilinear upsampling uses half-pixel sample centers: output pixel j reads
  source coordinate ``s = (j + 0.5) / 2 - 0.5``; with ``f = floor(s)`` and
  ``t = s - f`` the value is ``(1 - t) * x[clip(f)] + t * x[clip(f + 1)]``.
* relu uses subgradient 0 at 0.
* Any non-finite value produced by a forward op raises ``NumericError``;
  NaN/Inf is never silent.

Forward ops are pure and deterministic (fixed reduction order), so repeated
runs on identical inputs are bit-identical.  Every op treats the samples of a
batch independently, so sample i of a batched forward is bit-identical to the
same sample run alone.

Inside ``no_grad()`` ops record nothing: forward-only callers (inference,
calibration, the gradient checker's finite-difference probes) keep no
backward graph alive even when their parameters require gradients.

The tape holds only what the rules read.  No node refers to an intermediate
tensor, so an op's output array lives only while a rule has captured it:
conv keeps its padded input, never its window columns, softmax its output,
relu and clamp_min a bool mask.  Those masks are built in the forward and
only when the op is recorded, so forward-only calls never pay for them.
``backward`` drops each node's rule as soon as it has run, so the saved
arrays are freed during the reverse pass, not after it; a conv rule drops
its padded input once the kernel gradient has read it, before it builds the
input gradient.
"""

import ctypes
import sys
from contextlib import contextmanager
from functools import lru_cache

import numpy as np

from .errors import NumericError
from .imops import _axis_taps

_FLOAT_DTYPES = (np.float32, np.float64)

# ``backward`` frees the whole tape by the end of a step.  Under glibc's
# default dynamic thresholds the freed temporaries go back to the kernel
# (trimmed heap top, unmapped large blocks), and the next step faults them in
# again page by page.  Criterion-6 train_step (two twins, 8 pairs, 2-vCPU x86
# VM), median minor faults per step after 3 warm-up steps:
# 3,390-3,970 with the defaults, with 8.7-12.4 ms of a 55-67 ms step in sys
# time; 1,270-1,350 with the trim threshold alone; 3,670-3,870 with the mmap
# threshold alone; 0 (mean under 2) with both.  Setting either one also
# turns off the dynamic thresholds.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MALLOC_SETTINGS = ((_M_TRIM_THRESHOLD, 256 << 20),
                    (_M_MMAP_THRESHOLD, 32 << 20))  # the largest glibc takes on 64-bit


def _keep_freed_memory():
    """Sets the allocator thresholds above; True if every ``mallopt`` took.

    Does nothing off Linux, or where the C library has no ``mallopt``, and
    stops at the first call that returns 0.
    """
    if not sys.platform.startswith("linux"):
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return all(mallopt(param, value) for param, value in _MALLOC_SETTINGS)


_keep_freed_memory()


class TapeNode:
    """One recorded operation: per operand its node, a leaf Tensor or None,
    plus a gradient rule; ``backward`` sets the rule to None once it ran."""

    __slots__ = ("parents", "grad_fn")

    def __init__(self, parents, grad_fn):
        self.parents = parents
        self.grad_fn = grad_fn  # upstream grad array -> tuple of operand grads


class Tensor:
    """n-d float array, autodiff leaf or intermediate (rank <= 4)."""

    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype)
        elif arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        if arr.ndim > 4:
            raise ValueError(f"rank {arr.ndim} > 4 not supported")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(arr) if requires_grad else None
        self._node = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data.item())

    def zero_grad(self):
        if self.grad is not None:
            self.grad[...] = 0

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"

    # operator sugar; scalar operands stay in the tensor's dtype
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def sum(self):
        return tsum(self)

    def mean(self):
        return tmean(self)


def _check_finite(arr, op):
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite values produced by {op}")


_recording = True


@contextmanager
def no_grad():
    """Run ops without recording tape nodes; the previous mode is restored on exit."""
    global _recording
    prev = _recording
    _recording = False
    try:
        yield
    finally:
        _recording = prev


def _tape_ref(t):
    """What a node records for operand ``t``: its live node, ``t`` itself if it
    is a requires_grad leaf, or None.  A consumed node counts as none."""
    node = t._node
    if node is not None and node.grad_fn is not None:
        return node
    return t if t.requires_grad else None


def _needs_grad(t):
    """True when backward must deliver a gradient to ``t``: a leaf or a live tape node."""
    return _tape_ref(t) is not None


def _wrap(data):
    """Tensor without gradient around ``data``, already in a float dtype at rank <= 4.

    Skips the checks and casts that ``Tensor()`` applies to user data.
    """
    out = Tensor.__new__(Tensor)
    # a 0-d reduction or 0-d arithmetic yields a numpy scalar, not an array
    out.data = data if type(data) is np.ndarray else np.asarray(data)
    out.requires_grad = False
    out.grad = None
    out._node = None
    return out


def _result(data, op, parents, grad_fn):
    """Wrap an op's output, in its operands' dtype, recording a node if needed."""
    _check_finite(data, op)
    out = _wrap(data)
    if _recording:
        refs = tuple(_tape_ref(p) for p in parents)
        if any(r is not None for r in refs):
            out._node = TapeNode(refs, grad_fn)
    return out


def _same_shape(a, b, op):
    if a.data.shape != b.data.shape:
        raise ValueError(f"{op}: shape mismatch {a.data.shape} vs {b.data.shape}")
    if a.data.dtype != b.data.dtype:
        raise ValueError(f"{op}: dtype mismatch {a.data.dtype} vs {b.data.dtype}")


# ---------------------------------------------------------------------------
# elementwise and scalar ops

def _operands(a, b, op):
    """(a, b, scalar) of a binary op; ``scalar`` is True when only b is 0-d.

    A number becomes a 0-d tensor in the other operand's dtype, and a 0-d
    operand goes second.  Unless ``scalar``, shapes and dtypes must match.
    """
    if not isinstance(a, Tensor):
        a = _wrap(np.full((), a, dtype=b.data.dtype))
    if not isinstance(b, Tensor):
        b = _wrap(np.full((), b, dtype=a.data.dtype))
    if a.data.shape == () and b.data.shape != ():
        a, b = b, a
    scalar = b.data.shape == () and a.data.shape != ()
    if not scalar:
        _same_shape(a, b, op)
    return a, b, scalar


def add(a, b):
    a, b, scalar = _operands(a, b, "add")
    out = a.data + b.data

    def grad_fn(g):
        gb = g.sum(dtype=g.dtype).reshape(()) if scalar else g
        return g, gb

    return _result(out, "add", (a, b), grad_fn)


def mul(a, b):
    a, b, scalar = _operands(a, b, "mul")
    with np.errstate(over="ignore"):
        out = a.data * b.data

    # each operand's gradient reads the other operand only
    ad = a.data if _needs_grad(b) else None
    bd = b.data if _needs_grad(a) else None

    def grad_fn(g):
        ga = None if bd is None else g * bd
        if ad is None:
            gb = None
        elif scalar:
            gb = (g * ad).sum(dtype=g.dtype).reshape(())
        else:
            gb = g * ad
        return ga, gb

    return _result(out, "mul", (a, b), grad_fn)


def relu(x):
    out = np.maximum(x.data, 0)
    mask = x.data > 0 if _recording and _needs_grad(x) else None

    def grad_fn(g):
        return (g * mask,)

    return _result(out, "relu", (x,), grad_fn)


def log(x):
    xd = x.data
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(xd)

    def grad_fn(g):
        return (g / xd,)

    return _result(out, "log", (x,), grad_fn)


def clamp_min(x, floor):
    """Elementwise max(x, floor); gradient passes where x >= floor."""
    floor = float(floor)
    out = np.maximum(x.data, floor)
    mask = x.data >= floor if _recording and _needs_grad(x) else None

    def grad_fn(g):
        return (g * mask,)

    return _result(out, "clamp_min", (x,), grad_fn)


def bounded_ratio(y, p):
    """Elementwise y*p / (y^2 + p^2) with the convention 0/0 := 0.

    Smooth away from (0, 0).  Where |y| and |p| are both below the dtype's
    smallest normal number (0 included) the value and both partial
    derivatives are defined as 0: all-zero target entries are fully inert,
    and so are subnormal points, whose partials (about 1 / max(|y|, |p|))
    would overflow float32.  Intermediates are float64: in float32 the square
    of y^2 + p^2 in the partials underflows to 0 once y and p fall below
    about 1e-11.
    """
    _same_shape(y, p, "bounded_ratio")
    dt = y.data.dtype
    yd = np.asarray(y.data, dtype=np.float64)
    pd = np.asarray(p.data, dtype=np.float64)
    denom = yd * yd + pd * pd
    live = np.maximum(np.abs(yd), np.abs(pd)) >= np.finfo(dt).tiny
    safe = np.where(live, denom, 1)
    out = np.where(live, yd * pd / safe, 0).astype(dt, copy=False)
    needs_gy, needs_gp = _needs_grad(y), _needs_grad(p)

    def grad_fn(g):
        sq = safe * safe
        gy = gp = None
        if needs_gy:
            gy = (np.where(live, pd * (pd * pd - yd * yd) / sq, 0) * g).astype(dt)
        if needs_gp:
            gp = (np.where(live, yd * (yd * yd - pd * pd) / sq, 0) * g).astype(dt)
        return gy, gp

    return _result(out, "bounded_ratio", (y, p), grad_fn)


# ---------------------------------------------------------------------------
# reductions

def tsum(x):
    shape, dtype = x.data.shape, x.data.dtype
    out = x.data.sum(dtype=dtype).reshape(())

    def grad_fn(g):
        return (np.full(shape, g, dtype=dtype),)

    return _result(out, "sum", (x,), grad_fn)


def tmean(x):
    shape, dtype, n = x.data.shape, x.data.dtype, x.data.size
    out = (x.data.sum(dtype=dtype) / n).reshape(())

    def grad_fn(g):
        return (np.full(shape, g / n, dtype=dtype),)

    return _result(out, "mean", (x,), grad_fn)


# ---------------------------------------------------------------------------
# structured ops

def concat_channels(parts):
    """Concatenate rank-4 tensors along the channel axis."""
    parts = list(parts)
    if not parts:
        raise ValueError("concat_channels: empty input list")
    ref = parts[0]
    for p in parts[1:]:
        if p.data.ndim != 4 or ref.data.ndim != 4:
            raise ValueError("concat_channels: rank-4 tensors required")
        if p.data.shape[0] != ref.data.shape[0] or p.data.shape[2:] != ref.data.shape[2:]:
            raise ValueError(f"concat_channels: incompatible shapes {ref.data.shape} vs {p.data.shape}")
        if p.data.dtype != ref.data.dtype:
            raise ValueError("concat_channels: dtype mismatch")
    out = np.concatenate([p.data for p in parts], axis=1)
    sizes = [p.data.shape[1] for p in parts]

    def grad_fn(g):
        splits = np.split(g, np.cumsum(sizes)[:-1], axis=1)
        return tuple(splits)

    return _result(out, "concat_channels", tuple(parts), grad_fn)


def softmax_channels(x):
    """Per-pixel softmax across the channel axis of a B x C x H x W tensor."""
    if x.data.ndim != 4:
        raise ValueError("softmax_channels: rank-4 tensor required")
    z = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)

    def grad_fn(g):
        inner = (g * p).sum(axis=1, keepdims=True)
        return (p * (g - inner),)

    return _result(p, "softmax_channels", (x,), grad_fn)


# Smallest per-sample column count Cin*k*k*Ho*Wo that takes the tap path.
# The tap path makes k*k small products where im2col makes one copy and one
# product, so its fixed cost per call is higher.  Forward + backward on one
# BLAS thread (2-vCPU x86 VM), float32, B = 8: the tap path is 1.1-1.5x
# slower at 9216-18432 columns and 1.1-1.7x faster on the criterion-6
# lattice's stride-1 convs (36864-221184 columns).  At gradcheck's float64
# shapes (<= 2304 columns) it is 2-3x slower.
_TAP_MIN_COLS = 32768


def _flat_pad(a, pad, k):
    """(buffer, Wp): ``a`` zero-padded by ``pad``, each sample's rows end to end.

    The buffer is (B, C, Hp*Wp + k - 1); the k - 1 trailing zeros let tap
    (i, j) of a k x k correlation be the contiguous slice that starts at
    ``i*Wp + j`` and is ``Ho*Wp`` long.  A negative ``pad`` crops instead.
    The buffer is always C-contiguous.  At pad 0 and k = 1 it is a
    reshape of ``a``, a view when ``a`` is C-contiguous and a copy otherwise.
    """
    if pad < 0:
        a = a[:, :, -pad:pad, -pad:pad]
        pad = 0
    B, C, H, W = a.shape
    if pad == 0 and k == 1:
        return np.ascontiguousarray(a).reshape(B, C, H * W), W
    Hp, Wp = H + 2 * pad, W + 2 * pad
    buf = np.zeros((B, C, Hp * Wp + k - 1), dtype=a.dtype)
    buf[:, :, :Hp * Wp].reshape(B, C, Hp, Wp)[:, :, pad:pad + H, pad:pad + W] = a
    return buf, Wp


def _window_cols(buf, Wp, k, stride):
    """(B, C*k*k, Ho*Wo) columns of the k x k windows of a ``_flat_pad`` buffer.

    One read-only strided view of the (C-contiguous) buffer, row stride Wp,
    at ``stride``; the reshape copies it, except for a 1 x 1 window at
    stride 1.  The view is built with the ``np.ndarray`` constructor, which
    costs a fraction of ``as_strided`` at gradcheck's tiny shapes.
    """
    B, C, n = buf.shape
    Hp = (n - k + 1) // Wp
    Ho, Wo = (Hp - k) // stride + 1, (Wp - k) // stride + 1
    s0, s1, e = buf.strides
    row = Wp * e
    cols = np.ndarray((B, C, k, k, Ho, Wo), buf.dtype, buf, 0,
                      (s0, s1, row, e, row * stride, e * stride))
    cols.flags.writeable = False
    return cols.reshape(B, C * k * k, Ho * Wo)


def _tap_slices(buf, Wp, k, n):
    """(i, j, slice) for the k x k taps: the n columns of ``buf`` from i*Wp + j."""
    for i in range(k):
        for j in range(k):
            yield i, j, buf[:, :, i * Wp + j:i * Wp + j + n]


def _tap_correlate(buf, Wp, taps):
    """Stride-1 correlation of a ``_flat_pad`` buffer with taps (k, k, Cout, Cin).

    Sums one product per tap and crops the k - 1 junk columns that each
    output row picks up from the next padded row.
    """
    k, _, Cout, _ = taps.shape
    B = buf.shape[0]
    Ho = (buf.shape[2] - k + 1) // Wp - k + 1
    slices = _tap_slices(buf, Wp, k, Ho * Wp)
    i, j, sl = next(slices)
    out = np.matmul(taps[i, j], sl)
    tmp = np.empty_like(out)
    for i, j, sl in slices:
        out += np.matmul(taps[i, j], sl, out=tmp)
    tmp = None  # freed before the cropped copy
    return np.ascontiguousarray(out.reshape(B, Cout, Ho, Wp)[:, :, :, :Wp - k + 1])


def conv2d(x, w, b=None, stride=1, padding=0):
    """2-d cross-correlation of B x Cin x H x W with Cout x Cin x k x k.

    Square kernels; stride 1 or 2.  With same-padding (k - 1) / 2 the output
    side is ceil(H / stride).  Gradients are recorded for input, kernel and
    bias; the input gradient is None when the input is plain data.

    Both paths read the input zero-padded once into a row-flattened buffer
    (``_flat_pad``).  A stride-1 conv with k > 1 whose per-sample column
    count Cin*k*k*Ho*Wo reaches ``_TAP_MIN_COLS`` takes the tap path: the
    output is the sum of k*k kernel-tap products with shifted slices of the
    buffer.  Every other conv takes the im2col path: one product of the
    flattened kernel with the (B, Cin*k*k, Ho*Wo) window columns
    (``_window_cols``), a read-only strided view of the C-contiguous buffer
    that the reshape copies unless the window is 1 x 1 at stride 1.  The two
    paths round differently, so the choice depends on the sample's shape
    only, never on B: a sample run alone takes the same path as in a batch
    and gets the same bits.

    The recorded node keeps the padded buffer only, never the columns, which
    are k*k times the input at stride 1 and about k*k / 4 times at stride 2.

    Backward: the kernel gradient is, per sample and summed over the batch,
    the product of the upstream gradient with the columns, rebuilt from the
    buffer by the same copy as in the forward (im2col), or with each tap's
    buffer slice (taps, the gradient laid out with the buffer's row width
    and junk columns zeroed).  The rule then drops the buffer, which nothing
    reads again because the tape runs each rule once.  At stride 1 the input
    gradient is the stride-1 correlation of the upstream gradient, padded by
    k - 1 - padding (cropped where that is negative), with the flipped,
    channel-transposed kernel, on the same path as the forward.  At stride 2
    it scatters the column gradient back over the k x k window offsets.
    """
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ValueError("conv2d: input and kernel must be rank 4")
    B, Cin, H, W = x.data.shape
    Cout, Ck, kh, kw = w.data.shape
    if kh != kw:
        raise ValueError(f"conv2d: kernel must be square, got {kh}x{kw}")
    if Ck != Cin:
        raise ValueError(f"conv2d: channel mismatch, input {Cin} vs kernel {Ck}")
    if stride not in (1, 2):
        raise ValueError(f"conv2d: stride must be 1 or 2, got {stride}")
    if padding < 0:
        raise ValueError("conv2d: negative padding")
    if b is not None:
        if b.data.shape != (Cout,):
            raise ValueError(f"conv2d: bias shape {b.data.shape} != ({Cout},)")
        if b.data.dtype != x.data.dtype:
            raise ValueError("conv2d: bias dtype mismatch")
    if w.data.dtype != x.data.dtype:
        raise ValueError("conv2d: kernel dtype mismatch")
    k = kh
    wd = w.data
    Ho = (H + 2 * padding - k) // stride + 1
    Wo = (W + 2 * padding - k) // stride + 1
    if Ho <= 0 or Wo <= 0:
        raise ValueError(f"conv2d: non-positive output dims {Ho}x{Wo}")

    taps = stride == 1 and k > 1 and Cin * k * k * Ho * Wo >= _TAP_MIN_COLS
    with np.errstate(over="ignore", invalid="ignore"):
        buf, Wp = _flat_pad(x.data, padding, k)
        if taps:
            # contiguous (Cout, Cin) tap blocks: a strided w[:, :, i, j] misses BLAS
            out = _tap_correlate(buf, Wp, wd.transpose(2, 3, 0, 1).copy())
        else:
            wm = wd.reshape(Cout, Cin * k * k)
            out = np.matmul(wm, _window_cols(buf, Wp, k, stride)).reshape(B, Cout, Ho, Wo)
        if b is not None:
            out += b.data[None, :, None, None]
    needs_gx, has_bias = _needs_grad(x), b is not None

    def grad_fn(g):
        nonlocal buf
        gm = g.reshape(B, Cout, Ho * Wo)
        if taps:
            gflat = np.zeros((B, Cout, Ho, Wp), dtype=g.dtype)
            gflat[:, :, :, :Wo] = g
            gt = gflat.reshape(B, Cout, Ho * Wp).transpose(0, 2, 1)
            per_sample = np.empty((k, k, B, Cin, Cout), dtype=g.dtype)
            for i, j, sl in _tap_slices(buf, Wp, k, Ho * Wp):
                np.matmul(sl, gt, out=per_sample[i, j])
            gw = per_sample.sum(axis=2).transpose(3, 2, 0, 1)
            gflat = gt = per_sample = sl = None  # dead before gx allocates too
        else:
            gw = np.matmul(_window_cols(buf, Wp, k, stride),
                           gm.transpose(0, 2, 1)).sum(axis=0).T.reshape(wd.shape)
        buf = None  # read by the kernel gradient only; dead before gx allocates
        if not needs_gx:
            gx = None
        elif stride == 1:
            gbuf, gWp = _flat_pad(g, k - 1 - padding, k)
            wf = wd[:, :, ::-1, ::-1]
            if taps:
                gx = _tap_correlate(gbuf, gWp, wf.transpose(2, 3, 1, 0).copy())
            else:
                wt = wf.transpose(1, 0, 2, 3).reshape(Cin, Cout * k * k)
                gx = np.matmul(wt, _window_cols(gbuf, gWp, k, 1)).reshape(B, Cin, H, W)
        else:
            # correlating a zero-dilated gradient measured 2.5x slower at the downsampler shapes
            gcols = np.matmul(wm.T, gm).reshape(B, Cin, k, k, Ho, Wo)
            gxp = np.zeros((B, Cin, H + 2 * padding, W + 2 * padding), dtype=g.dtype)
            for i in range(k):
                for j in range(k):
                    gxp[:, :, i:i + Ho * stride:stride, j:j + Wo * stride:stride] += gcols[:, :, i, j]
            gx = gxp[:, :, padding:padding + H, padding:padding + W]
        if not has_bias:
            return gx, gw
        return gx, gw, g.sum(axis=(0, 2, 3))

    parents = (x, w) if b is None else (x, w, b)
    return _result(out, "conv2d", parents, grad_fn)


@lru_cache(maxsize=None)
def _up2x_matrix(n, dtype):
    """The (2n x n) half-pixel interpolation matrix of one axis (read-only).

    Row j holds the two taps of output pixel j (``imops._axis_taps``); at
    the borders both taps clip to the same source pixel and their weights
    add up.
    """
    i0, i1, t = _axis_taps(n, 2 * n)
    t = t.astype(dtype)
    dst = np.arange(2 * n)
    u = np.zeros((2 * n, n), dtype=dtype)
    u[dst, i0] += 1 - t
    u[dst, i1] += t
    u.flags.writeable = False
    return u


def upsample_bilinear2x(x):
    """Double H and W by bilinear interpolation with half-pixel centers.

    Exact separable linear operator ``U_h . x . U_w^T`` per channel plane;
    the gradient is its transpose ``U_h^T . g . U_w``, built from the same
    per-axis matrices.
    """
    if x.data.ndim != 4:
        raise ValueError("upsample_bilinear2x: rank-4 tensor required")
    _, _, H, W = x.data.shape
    uh = _up2x_matrix(H, x.data.dtype.type)
    uw = _up2x_matrix(W, x.data.dtype.type)
    out = np.matmul(np.matmul(uh, x.data), uw.T)

    def grad_fn(g):
        return (np.matmul(np.matmul(uh.T, g), uw),)

    return _result(out, "upsample_bilinear2x", (x,), grad_fn)


# ---------------------------------------------------------------------------
# reverse pass

def backward(loss):
    """Accumulate d(loss)/d(leaf) into the ``.grad`` of every reachable requires_grad leaf.

    Walks the nodes in reverse topological order and drops each node's rule
    once it has run, which frees the arrays it saved.  The tape is consumed:
    a second backward from the loss or from any tensor on the consumed part
    raises.
    """
    if not isinstance(loss, Tensor):
        raise TypeError("backward expects a Tensor")
    if loss.data.shape != ():
        raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    root = loss._node
    if root is None or root.grad_fn is None:
        raise ValueError("loss is not connected to a tape (no recorded ops, or backward already ran)")

    # nodes and leaves, each after everything it depends on
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        item, expanded = stack.pop()
        if expanded:
            order.append(item)
            continue
        if id(item) in seen:
            continue
        seen.add(id(item))
        stack.append((item, True))
        if not isinstance(item, Tensor):
            if item.grad_fn is None:
                raise ValueError("the tape below this loss was consumed by an earlier backward")
            for p in item.parents:
                if p is not None and id(p) not in seen:
                    stack.append((p, False))

    grads = {id(root): np.ones((), dtype=loss.data.dtype)}
    while order:
        item = order.pop()
        g = grads.pop(id(item), None)
        if isinstance(item, Tensor):
            if g is not None and item.requires_grad:
                item.grad += g
            continue
        rule, item.grad_fn = item.grad_fn, None
        pgs = () if g is None else rule(g)
        rule = None  # frees what the rule saved before the next rule runs
        for p, pg in zip(item.parents, pgs):
            if p is None or pg is None:
                continue
            if id(p) in grads:
                grads[id(p)] = grads[id(p)] + pg
            else:
                grads[id(p)] = pg
