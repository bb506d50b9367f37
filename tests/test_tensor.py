"""Tensor op tests against independent window/scalar oracles and finite differences."""

import math
import platform
import types
import warnings

import numpy as np
import pytest

from clamseg import losses
from clamseg import tensor as T
from clamseg.errors import NumericError
from clamseg.unetpp import UnetPP, UnetPPConfig


# ---------------------------------------------------------------------------
# oracles: naive per-element reference implementations, no shared code with
# the library versions

def conv_window_oracle(x, w, b=None, stride=1, padding=0):
    B, Cin, H, W = x.shape
    Cout, _, k, _ = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    Ho = (H + 2 * padding - k) // stride + 1
    Wo = (W + 2 * padding - k) // stride + 1
    out = np.zeros((B, Cout, Ho, Wo), dtype=np.float64)
    for bi in range(B):
        for co in range(Cout):
            for r in range(Ho):
                for c in range(Wo):
                    win = xp[bi, :, r * stride:r * stride + k, c * stride:c * stride + k]
                    out[bi, co, r, c] = float((win.astype(np.float64) * w[co]).sum())
            if b is not None:
                out[bi, co] += b[co]
    return out


def conv_grads_scatter_oracle(x, w, g, stride=1, padding=0):
    """(gx, gw, gb) of a conv by scattering the column gradient over the k x k offsets."""
    B, Cin, H, W = x.shape
    Cout, _, k, _ = w.shape
    _, _, Ho, Wo = g.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    cols = np.zeros((B, Cin, k, k, Ho, Wo), dtype=x.dtype)
    for i in range(k):
        for j in range(k):
            cols[:, :, i, j] = xp[:, :, i:i + Ho * stride:stride, j:j + Wo * stride:stride]
    colm = cols.reshape(B, Cin * k * k, Ho * Wo)
    gm = g.reshape(B, Cout, Ho * Wo)
    gw = np.matmul(gm, colm.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
    gcols = np.matmul(w.reshape(Cout, -1).T, gm).reshape(B, Cin, k, k, Ho, Wo)
    gxp = np.zeros_like(xp)
    for i in range(k):
        for j in range(k):
            gxp[:, :, i:i + Ho * stride:stride, j:j + Wo * stride:stride] += gcols[:, :, i, j]
    return gxp[:, :, padding:padding + H, padding:padding + W], gw, g.sum(axis=(0, 2, 3))


def up2x_scalar_oracle(x):
    B, C, H, W = x.shape
    out = np.zeros((B, C, 2 * H, 2 * W), dtype=np.float64)

    def px(bi, ci, i, j):
        return float(x[bi, ci, min(max(i, 0), H - 1), min(max(j, 0), W - 1)])

    for bi in range(B):
        for ci in range(C):
            for r in range(2 * H):
                for c in range(2 * W):
                    sr = (r + 0.5) / 2 - 0.5
                    sc = (c + 0.5) / 2 - 0.5
                    fr, fc = math.floor(sr), math.floor(sc)
                    tr, tc = sr - fr, sc - fc
                    out[bi, ci, r, c] = (
                        (1 - tr) * (1 - tc) * px(bi, ci, fr, fc)
                        + (1 - tr) * tc * px(bi, ci, fr, fc + 1)
                        + tr * (1 - tc) * px(bi, ci, fr + 1, fc)
                        + tr * tc * px(bi, ci, fr + 1, fc + 1)
                    )
    return out


def fd_grad(f, x, h=1e-3):
    """Central-difference gradient of scalar f() wrt float64 array x (mutated in place)."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        fp = f()
        x[idx] = orig - h
        fm = f()
        x[idx] = orig
        g[idx] = (fp - fm) / (2 * h)
    return g


def assert_grads_close(analytic, numeric, tol=1e-4):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    worst = np.max(np.abs(analytic - numeric) / denom)
    assert worst < tol, f"max relative gradient error {worst:.3e}"


# ---------------------------------------------------------------------------
# conv2d

def test_conv2d_identity_diagonal_window():
    x = T.Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
    w = T.Tensor(np.array([[[[1.0, 0.0], [0.0, 1.0]]]]))
    out = T.conv2d(x, w)
    assert out.shape == (1, 1, 1, 1)
    assert out.item() == 5.0
    ref = conv_window_oracle(x.data, w.data)
    np.testing.assert_allclose(out.data, ref)


def test_conv2d_one_by_one_doubles():
    x = T.Tensor(np.ones((1, 1, 3, 3)))
    w = T.Tensor(np.full((1, 1, 1, 1), 2.0))
    out = T.conv2d(x, w)
    np.testing.assert_array_equal(out.data, np.full((1, 1, 3, 3), 2.0))
    # a 1 x 1, pad-0 window is the input itself: its columns copy nothing
    buf, Wp = T._flat_pad(x.data, 0, 1)
    assert np.shares_memory(T._window_cols(buf, Wp, 1, 1), x.data)


@pytest.mark.parametrize("k,stride", [(1, 1), (2, 1), (3, 1), (3, 2), (5, 2), (1, 2)])
def test_conv2d_matches_window_oracle(k, stride):
    rng = np.random.default_rng(100 + k * 10 + stride)
    pad = (k - 1) // 2
    x = rng.standard_normal((2, 3, 9, 8))
    w = rng.standard_normal((4, 3, k, k))
    b = rng.standard_normal(4)
    out = T.conv2d(T.Tensor(x), T.Tensor(w), T.Tensor(b), stride=stride, padding=pad)
    ref = conv_window_oracle(x, w, b, stride=stride, padding=pad)
    assert out.shape == ref.shape
    np.testing.assert_allclose(out.data, ref, rtol=1e-5, atol=1e-5)


def test_conv2d_same_padding_stride2_halves_sides():
    for k, side in [(3, 16), (5, 16), (3, 15)]:
        x = T.Tensor(np.zeros((1, 2, side, side)))
        w = T.Tensor(np.zeros((2, 2, k, k)))
        out = T.conv2d(x, w, stride=2, padding=(k - 1) // 2)
        want = (side + 1) // 2
        assert out.shape == (1, 2, want, want)


def test_conv2d_linearity():
    rng = np.random.default_rng(7)
    x1 = rng.standard_normal((1, 2, 6, 6)).astype(np.float32)
    x2 = rng.standard_normal((1, 2, 6, 6)).astype(np.float32)
    w = T.Tensor(rng.standard_normal((3, 2, 3, 3)).astype(np.float32))
    mix = T.conv2d(T.Tensor(2.0 * x1 + 0.5 * x2), w, padding=1)
    sep = 2.0 * conv_window_oracle(x1, w.data.astype(np.float64), padding=1) \
        + 0.5 * conv_window_oracle(x2, w.data.astype(np.float64), padding=1)
    np.testing.assert_allclose(mix.data, sep, rtol=2e-5, atol=2e-5)


def test_conv2d_rejects_bad_arguments():
    x = T.Tensor(np.zeros((1, 2, 4, 4)))
    w = T.Tensor(np.zeros((3, 2, 3, 3)))
    with pytest.raises(ValueError):
        T.conv2d(x, w, stride=3)
    with pytest.raises(ValueError):
        T.conv2d(x, T.Tensor(np.zeros((3, 1, 3, 3))))
    with pytest.raises(ValueError):
        T.conv2d(x, T.Tensor(np.zeros((3, 2, 3, 2))))
    with pytest.raises(ValueError):
        T.conv2d(T.Tensor(np.zeros((2, 4, 4))), w)
    with pytest.raises(ValueError):
        T.conv2d(x, w, padding=-1)
    with pytest.raises(ValueError):
        T.conv2d(x, w, b=T.Tensor(np.zeros(4)))


@pytest.mark.parametrize("stride,padding", [(1, 1), (2, 1), (1, 0)])
def test_conv2d_gradients_match_finite_differences(stride, padding):
    rng = np.random.default_rng(31 + stride + padding)
    x = rng.standard_normal((2, 2, 5, 5))
    w = rng.standard_normal((3, 2, 3, 3))
    b = rng.standard_normal(3)

    tx, tw, tb = (T.Tensor(a, requires_grad=True, dtype=np.float64) for a in (x, w, b))
    loss = T.conv2d(tx, tw, tb, stride=stride, padding=padding).sum()
    T.backward(loss)

    def run():
        out = T.conv2d(T.Tensor(x, dtype=np.float64), T.Tensor(w, dtype=np.float64),
                       T.Tensor(b, dtype=np.float64), stride=stride, padding=padding)
        return float(out.data.sum())

    assert_grads_close(tx.grad, fd_grad(run, x))
    assert_grads_close(tw.grad, fd_grad(run, w))
    assert_grads_close(tb.grad, fd_grad(run, b))


@pytest.mark.parametrize("k,stride,padding", [
    (k, stride, padding) for k in (1, 2, 3, 5) for stride in (1, 2)
    for padding in sorted({0, (k - 1) // 2, k - 1, k})])
def test_conv2d_gradients_against_random_upstream(k, stride, padding):
    # a random upstream gradient (not a sum) exposes a kernel flip or a
    # channel transpose in the backward rule; odd side 15 at stride 2
    rng = np.random.default_rng(1000 + 100 * k + 10 * stride + padding)
    side = 15 if stride == 2 else 6
    x = rng.standard_normal((2, 2, side, side))
    w = rng.standard_normal((3, 2, k, k))
    b = rng.standard_normal(3)
    Ho = (side + 2 * padding - k) // stride + 1
    g = rng.standard_normal((2, 3, Ho, Ho))

    tx, tw, tb = (T.Tensor(a, requires_grad=True, dtype=np.float64) for a in (x, w, b))
    out = T.conv2d(tx, tw, tb, stride=stride, padding=padding)
    assert out.shape == g.shape
    T.backward((out * T.Tensor(g, dtype=np.float64)).sum())

    def run():
        out = T.conv2d(T.Tensor(x, dtype=np.float64), T.Tensor(w, dtype=np.float64),
                       T.Tensor(b, dtype=np.float64), stride=stride, padding=padding)
        return float((out.data * g).sum())

    assert_grads_close(tx.grad, fd_grad(run, x))
    assert_grads_close(tw.grad, fd_grad(run, w))
    assert_grads_close(tb.grad, fd_grad(run, b))
    for got, want in zip((tx.grad, tw.grad, tb.grad),
                         conv_grads_scatter_oracle(x, w, g, stride, padding)):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_conv2d_plain_input_gets_no_gradient():
    rng = np.random.default_rng(41)
    x = T.Tensor(rng.standard_normal((2, 2, 5, 5)))
    w = T.Tensor(rng.standard_normal((3, 2, 3, 3)), requires_grad=True)
    b = T.Tensor(rng.standard_normal(3), requires_grad=True)
    g = rng.standard_normal((2, 3, 5, 5))
    for stride in (1, 2):
        out = T.conv2d(x, w, b, stride=stride, padding=1)
        gx, gw, gb = out._node.grad_fn(g[:, :, ::stride, ::stride])
        assert gx is None
        assert gw.shape == w.shape and gb.shape == b.shape
    # an input that is itself on the tape still gets one
    h = T.relu(T.Tensor(x.data, requires_grad=True))
    gx, _, _ = T.conv2d(h, w, b, padding=1)._node.grad_fn(g)
    assert gx.shape == x.shape


@pytest.mark.parametrize("k", [1, 3])
def test_conv2d_channel_slice_input_matches_contiguous_copy(k):
    # a channel slice of a batch-2 array is not C-contiguous, like the
    # pieces concat_channels' backward splits off; the window columns are
    # built on a C-contiguous buffer either way
    rng = np.random.default_rng(60 + k)
    wide = rng.standard_normal((2, 5, 6, 6))
    w = rng.standard_normal((3, 2, k, k))
    b = rng.standard_normal(3)
    g = rng.standard_normal((2, 3, 6, 6))
    results = []
    for x in (wide[:, 1:3], np.ascontiguousarray(wide[:, 1:3])):
        tx, tw, tb = (T.Tensor(a, requires_grad=True, dtype=np.float64) for a in (x, w, b))
        out = T.conv2d(tx, tw, tb, padding=(k - 1) // 2)
        T.backward((out * T.Tensor(g, dtype=np.float64)).sum())
        results.append((out.data, tx.grad, tw.grad, tb.grad))
    assert not wide[:, 1:3].flags.c_contiguous
    for sliced, contiguous in zip(*results):
        np.testing.assert_array_equal(sliced, contiguous)


def test_window_columns_of_a_one_by_one_conv_are_a_read_only_view():
    x = np.random.default_rng(62).standard_normal((2, 5, 4, 4))[:, 1:3]
    buf, Wp = T._flat_pad(x, 0, 1)
    assert buf.flags.c_contiguous
    cols = T._window_cols(buf, Wp, 1, 1)
    assert np.shares_memory(cols, buf)
    assert not cols.flags.writeable
    np.testing.assert_array_equal(cols, x.reshape(2, 2, 16))


def test_conv2d_float32_backward_matches_float64_on_unetpp_step():
    # one B=8 hybrid-loss backward through the criterion-6 lattice; float32
    # gradients from the correlation backward agree with float64 and with
    # the scatter backward, parameter by parameter
    cfg = UnetPPConfig(levels=3, input_size=32, base_channels=8)
    rng = np.random.default_rng(51)
    x = rng.uniform(0, 1, (8, 1, 32, 32))
    marker = (rng.uniform(0, 1, (8, 32, 32)) > 0.7).astype(np.float64)
    target = np.stack([1 - marker, marker], axis=1)

    def step_grads(dtype, scatter=False):
        model = UnetPP(cfg, seed=5, dtype=dtype)
        if dtype == np.float64:
            for name, t in UnetPP(cfg, seed=5).params.items():
                model.params[name].data = t.data.astype(np.float64)
        conv2d = T.conv2d

        def scatter_conv2d(xt, wt, bt=None, stride=1, padding=0):
            out = conv2d(xt, wt, bt, stride=stride, padding=padding)
            if out._node is not None:
                out._node.grad_fn = lambda g: conv_grads_scatter_oracle(
                    xt.data, wt.data, g, stride, padding)
            return out

        with pytest.MonkeyPatch.context() as mp:
            if scatter:
                mp.setattr(T, "conv2d", scatter_conv2d)
            prob = model.forward(T.Tensor(x.astype(np.float32).astype(dtype)))
            T.backward(losses.hybrid_loss(T.Tensor(target, dtype=dtype), prob))
        return {name: t.grad for name, t in model.parameter_items()}

    g32, g64, g32_scatter = step_grads(np.float32), step_grads(np.float64), step_grads(np.float32, True)
    assert len(g32) == len(g64)
    for name, ref in g64.items():
        scale = np.abs(ref).max()
        if scale == 0:  # heads of the shallower depths are not on this graph
            assert not g32[name].any() and name.startswith("head_"), name
            continue
        assert np.abs(g32[name] - ref).max() <= 1e-4 * scale, name
        assert np.abs(g32[name] - g32_scatter[name]).max() <= 1e-4 * scale, name


def _conv_all_grads(x, w, b, g, padding):
    """(out, gx, gw, gb) of one conv2d under upstream gradient g."""
    tx, tw, tb = (T.Tensor(a, requires_grad=True) for a in (x, w, b))
    out = T.conv2d(tx, tw, tb, padding=padding)
    T.backward((out * T.Tensor(g)).sum())
    return out.data, tx.grad, tw.grad, tb.grad


@pytest.fixture
def count_tap_convs(monkeypatch):
    """Counts the tap path's correlations (forward and input gradient)."""
    calls = []
    tap_correlate = T._tap_correlate

    def spy(buf, Wp, taps):
        calls.append((buf.shape, Wp, taps.shape))
        return tap_correlate(buf, Wp, taps)

    monkeypatch.setattr(T, "_tap_correlate", spy)
    return calls


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("k,padding", [(k, p) for k in (3, 5) for p in sorted({0, (k - 1) // 2, k - 1, k})])
def test_conv2d_tap_path_matches_im2col_path(k, padding, dtype, monkeypatch, count_tap_convs):
    # the same inputs through both stride-1 paths, the selection constant
    # forced each way; odd and unequal sides
    rng = np.random.default_rng(2000 + 10 * k + padding)
    side_h, side_w = 9, 7
    x = rng.standard_normal((3, 4, side_h, side_w)).astype(dtype)
    w = rng.standard_normal((5, 4, k, k)).astype(dtype)
    b = rng.standard_normal(5).astype(dtype)
    g = rng.standard_normal((3, 5, side_h + 2 * padding - k + 1, side_w + 2 * padding - k + 1)).astype(dtype)

    monkeypatch.setattr(T, "_TAP_MIN_COLS", 10 ** 12)
    via_im2col = _conv_all_grads(x, w, b, g, padding)
    assert not count_tap_convs
    monkeypatch.setattr(T, "_TAP_MIN_COLS", 1)
    via_taps = _conv_all_grads(x, w, b, g, padding)
    assert len(count_tap_convs) == 2  # forward and input gradient
    for name, got, want in zip(("out", "gx", "gw", "gb"), via_taps, via_im2col):
        assert got.shape == want.shape and got.dtype == want.dtype, name
        if dtype == np.float64:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12, err_msg=name)
        else:
            assert np.abs(got - want).max() <= 1e-5 * np.abs(want).max(), name


def test_conv2d_tap_path_gradients_match_finite_differences(count_tap_convs):
    # a shape past the real selection constant (8 * 25 * 16 * 16 columns)
    rng = np.random.default_rng(2100)
    x = rng.standard_normal((1, 8, 16, 16))
    w = rng.standard_normal((2, 8, 5, 5))
    b = rng.standard_normal(2)
    g = rng.standard_normal((1, 2, 16, 16))
    assert 8 * 5 * 5 * 16 * 16 >= T._TAP_MIN_COLS
    _, gx, gw, gb = _conv_all_grads(x, w, b, g, 2)
    assert len(count_tap_convs) == 2

    def run():
        out = T.conv2d(T.Tensor(x), T.Tensor(w), T.Tensor(b), padding=2)
        return float((out.data * g).sum())

    assert_grads_close(gx, fd_grad(run, x))
    assert_grads_close(gw, fd_grad(run, w))
    assert_grads_close(gb, fd_grad(run, b))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_tap_path_batched_forward_matches_single_samples_bitwise(dtype, count_tap_convs):
    # the criterion-6 lattice, where every stride-1 k > 1 conv but the
    # Cin = 1 stem takes the tap path
    model = UnetPP(UnetPPConfig(levels=3, input_size=32, base_channels=8), seed=3, dtype=dtype)
    x = np.random.default_rng(61).uniform(0, 1, (8, 1, 32, 32)).astype(dtype)
    with T.no_grad():
        batched = model.forward(T.Tensor(x)).data
        assert len(count_tap_convs) == 6
        for i in range(8):
            alone = model.forward(T.Tensor(x[i:i + 1])).data
            assert batched[i].tobytes() == alone[0].tobytes(), i


# ---------------------------------------------------------------------------
# bilinear upsampling

def test_upsample2x_two_pixel_row():
    x = T.Tensor(np.array([[[[0.0, 2.0]]]]))
    out = T.upsample_bilinear2x(x)
    assert out.shape == (1, 1, 2, 4)
    np.testing.assert_allclose(out.data[0, 0, 0], [0.0, 0.5, 1.5, 2.0])
    np.testing.assert_allclose(out.data[0, 0, 1], [0.0, 0.5, 1.5, 2.0])


@pytest.mark.parametrize("hw", [(1, 1), (2, 3), (4, 4), (5, 2)])
def test_upsample2x_matches_scalar_oracle(hw):
    rng = np.random.default_rng(hash(hw) % 1000)
    x = rng.standard_normal((2, 2) + hw)
    out = T.upsample_bilinear2x(T.Tensor(x, dtype=np.float64))
    np.testing.assert_allclose(out.data, up2x_scalar_oracle(x), rtol=1e-12, atol=1e-12)


def test_upsample2x_backward_is_transpose():
    # for a linear map U: <U x, g> == <x, U^T g> for any x, g
    rng = np.random.default_rng(5)
    x = rng.standard_normal((1, 3, 4, 5))
    g = rng.standard_normal((1, 3, 8, 10))
    tx = T.Tensor(x, requires_grad=True, dtype=np.float64)
    out = T.upsample_bilinear2x(tx)
    loss = (out * T.Tensor(g, dtype=np.float64)).sum()
    T.backward(loss)
    lhs = float((up2x_scalar_oracle(x) * g).sum())
    rhs = float((x * tx.grad).sum())
    assert abs(lhs - rhs) < 1e-10


def test_upsample2x_gradient_finite_differences():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((1, 2, 3, 3))
    tx = T.Tensor(x, requires_grad=True, dtype=np.float64)
    out = T.upsample_bilinear2x(tx)
    T.backward((out * out).sum())

    def run():
        o = T.upsample_bilinear2x(T.Tensor(x, dtype=np.float64))
        return float((o.data * o.data).sum())

    assert_grads_close(tx.grad, fd_grad(run, x))


# ---------------------------------------------------------------------------
# elementwise ops

def test_relu_forward_and_subgradient():
    x = T.Tensor(np.array([-2.0, 0.0, 3.0]), requires_grad=True)
    out = T.relu(x)
    np.testing.assert_array_equal(out.data, [0.0, 0.0, 3.0])
    T.backward(out.sum())
    np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])


@pytest.mark.parametrize("op", [T.relu, lambda t: T.clamp_min(t, 0.25)])
def test_relu_and_clamp_min_gradients_read_the_forward_input(op):
    # the backward mask comes from the input array captured in the forward,
    # not from whatever .data holds at backward time
    x = T.Tensor(np.array([-1.0, 0.1, 0.5, 2.0]), requires_grad=True)
    h = x * 1.0
    out = op(h)
    h.data = -h.data
    T.backward((out * T.Tensor(np.array([1.0, 2.0, 3.0, 4.0]))).sum())
    want = [0.0, 0.0, 3.0, 4.0] if op is not T.relu else [0.0, 2.0, 3.0, 4.0]
    np.testing.assert_array_equal(x.grad, want)


def test_log_gradient_and_nonfinite_guard():
    x = T.Tensor(np.array([0.5, 2.0]), requires_grad=True, dtype=np.float64)
    T.backward(T.log(x).sum())
    np.testing.assert_allclose(x.grad, [2.0, 0.5])
    with pytest.raises(NumericError):
        T.log(T.Tensor(np.array([0.0, 1.0])))


def test_clamp_min_floor_and_gradient():
    x = T.Tensor(np.array([1e-9, 0.5]), requires_grad=True)
    out = T.clamp_min(x, 1e-7)
    np.testing.assert_allclose(out.data, [1e-7, 0.5])
    T.backward(out.sum())
    np.testing.assert_array_equal(x.grad, [0.0, 1.0])


def test_bounded_ratio_values_and_zero_convention():
    y = T.Tensor(np.array([0.0, 1.0, 0.3, 0.0]))
    p = T.Tensor(np.array([0.0, 1.0, 0.3, 0.7]))
    out = T.bounded_ratio(y, p)
    np.testing.assert_allclose(out.data, [0.0, 0.5, 0.5, 0.0], rtol=1e-6)


def test_bounded_ratio_gradients():
    rng = np.random.default_rng(11)
    y = rng.uniform(0.25, 1.0, size=6)
    p = y * rng.uniform(1.5, 3.0, size=6)  # off-diagonal keeps partials well sized
    ty = T.Tensor(y, requires_grad=True, dtype=np.float64)
    tp = T.Tensor(p, requires_grad=True, dtype=np.float64)
    T.backward(T.bounded_ratio(ty, tp).sum())

    def run():
        return float(T.bounded_ratio(T.Tensor(y, dtype=np.float64), T.Tensor(p, dtype=np.float64)).data.sum())

    assert_grads_close(ty.grad, fd_grad(run, y))
    assert_grads_close(tp.grad, fd_grad(run, p))

    # at the 0/0 point both partials are defined as zero
    zy = T.Tensor(np.zeros(2), requires_grad=True)
    zp = T.Tensor(np.zeros(2), requires_grad=True)
    T.backward(T.bounded_ratio(zy, zp).sum())
    np.testing.assert_array_equal(zy.grad, 0)
    np.testing.assert_array_equal(zp.grad, 0)


def test_bounded_ratio_tiny_float32_stays_finite():
    # y^2 + p^2 = 2e-40 is subnormal in float32 and its square underflows to
    # 0 there; the float64 intermediates keep value and partials finite
    y = T.Tensor(np.full(3, 1e-20, dtype=np.float32), requires_grad=True)
    p = T.Tensor(np.full(3, 1e-20, dtype=np.float32), requires_grad=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = T.bounded_ratio(y, p)
        T.backward(out.sum())
    assert out.data.dtype == np.float32
    np.testing.assert_allclose(out.data, 0.5, rtol=1e-6)
    for g in (y.grad, p.grad):
        assert g.dtype == np.float32
        assert np.isfinite(g).all()


def test_bounded_ratio_subnormal_float32_into_softmax_stays_finite():
    # y and p below float32's smallest normal number (1.2e-38) are the inert
    # 0/0 case; their partials would grow past the float32 range otherwise,
    # and softmax_channels' backward would turn the inf into NaN
    z = T.Tensor(np.array([0.0, -90.5], dtype=np.float32).reshape(1, 2, 1, 1), requires_grad=True)
    p = T.softmax_channels(z)
    assert 0 < p.data[0, 1, 0, 0] < np.finfo(np.float32).tiny
    y = T.Tensor(np.array([1.0, 1e-39], dtype=np.float32).reshape(1, 2, 1, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = T.bounded_ratio(y, p)
        T.backward(out.sum())
    assert out.data[0, 1, 0, 0] == 0
    assert np.isfinite(z.grad).all()


def test_constant_operands_get_no_gradient():
    rng = np.random.default_rng(13)
    a = T.Tensor(rng.uniform(0.5, 1, 4), requires_grad=True)
    c = T.Tensor(rng.uniform(0.5, 1, 4))
    g = np.ones(4)
    assert T.mul(a, c)._node.grad_fn(g)[1] is None
    assert T.mul(c, a)._node.grad_fn(g)[0] is None
    assert T.mul(a, 2.0)._node.grad_fn(g)[1] is None
    gy, gp = T.bounded_ratio(c, a)._node.grad_fn(g)
    assert gy is None and gp.shape == (4,)
    gy, gp = T.bounded_ratio(a, c)._node.grad_fn(g)
    assert gy.shape == (4,) and gp is None


def test_softmax_channels_uniform_and_shift_invariance():
    x = T.Tensor(np.zeros((1, 2, 2, 2)))
    out = T.softmax_channels(x)
    np.testing.assert_allclose(out.data, 0.5)

    rng = np.random.default_rng(3)
    z = rng.standard_normal((2, 3, 4, 4))
    a = T.softmax_channels(T.Tensor(z, dtype=np.float64)).data
    b = T.softmax_channels(T.Tensor(z + 7.0, dtype=np.float64)).data
    np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(a.sum(axis=1), 1.0, rtol=1e-12)


def test_softmax_channels_gradient():
    rng = np.random.default_rng(4)
    z = rng.standard_normal((1, 3, 2, 2))
    g = rng.standard_normal((1, 3, 2, 2))
    tz = T.Tensor(z, requires_grad=True, dtype=np.float64)
    loss = (T.softmax_channels(tz) * T.Tensor(g, dtype=np.float64)).sum()
    T.backward(loss)

    def run():
        return float((T.softmax_channels(T.Tensor(z, dtype=np.float64)).data * g).sum())

    assert_grads_close(tz.grad, fd_grad(run, z))


def test_concat_channels_roundtrip_gradients():
    rng = np.random.default_rng(8)
    parts = [rng.standard_normal((1, c, 3, 3)) for c in (1, 2, 3)]
    ts = [T.Tensor(p, requires_grad=True, dtype=np.float64) for p in parts]
    cat = T.concat_channels(ts)
    assert cat.shape == (1, 6, 3, 3)
    np.testing.assert_array_equal(cat.data, np.concatenate(parts, axis=1))
    w = rng.standard_normal((1, 6, 3, 3))
    T.backward((cat * T.Tensor(w, dtype=np.float64)).sum())
    for t, chunk in zip(ts, np.split(w, [1, 3], axis=1)):
        np.testing.assert_array_equal(t.grad, chunk)


def test_concat_channels_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        T.concat_channels([T.Tensor(np.zeros((1, 1, 2, 2))), T.Tensor(np.zeros((1, 1, 3, 2)))])
    with pytest.raises(ValueError):
        T.concat_channels([])


def test_arithmetic_operators_and_scalars():
    a = T.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    b = T.Tensor(np.array([3.0, 5.0]), requires_grad=True)
    out = 0.5 * ((a + b) * 2.0 + -1.0 * a)
    np.testing.assert_allclose(out.data, [3.5, 6.0])
    T.backward(out.sum())
    np.testing.assert_allclose(a.grad, [0.5, 0.5])
    np.testing.assert_allclose(b.grad, [1.0, 1.0])


def test_sum_and_mean():
    x = T.Tensor(np.arange(6, dtype=np.float32).reshape(2, 3), requires_grad=True)
    assert x.sum().item() == 15.0
    y = T.Tensor(np.arange(6, dtype=np.float32).reshape(2, 3), requires_grad=True)
    m = y.mean()
    assert m.item() == 2.5
    T.backward(m)
    np.testing.assert_allclose(y.grad, np.full((2, 3), 1 / 6), rtol=1e-6)


# ---------------------------------------------------------------------------
# tape mechanics

@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_op_outputs_keep_dtype_and_are_non_leaf_arrays(dtype):
    rng = np.random.default_rng(70)
    x = T.Tensor(rng.uniform(0.2, 1.0, (1, 2, 4, 4)), requires_grad=True, dtype=dtype)
    w = T.Tensor(rng.standard_normal((2, 2, 3, 3)), dtype=dtype)
    outs = [T.conv2d(x, w, padding=1), T.conv2d(x, w, stride=2, padding=1),
            T.upsample_bilinear2x(x), T.softmax_channels(x), T.concat_channels([x, x]),
            T.relu(x), T.log(x), T.clamp_min(x, 0.5), T.bounded_ratio(x, x),
            x + x, x + 2.0, x * x, x * 2.0, x.sum(), x.mean(), x.sum() * 2.0, x.sum() + x.sum()]
    for out in outs:
        assert type(out.data) is np.ndarray
        assert out.dtype == dtype
        assert not out.requires_grad and out.grad is None
        assert out._node is not None

def test_backward_accumulates_shared_subexpressions():
    x = T.Tensor(np.array([2.0]), requires_grad=True)
    y = x * x + x * 3.0  # dy/dx = 2x + 3 = 7
    T.backward(y.sum())
    np.testing.assert_allclose(x.grad, [7.0])


def test_backward_leaves_untouched_leaf_at_zero():
    used = T.Tensor(np.ones(3), requires_grad=True)
    unused = T.Tensor(np.ones(3), requires_grad=True)
    T.backward((used * 2.0).sum())
    np.testing.assert_array_equal(unused.grad, 0.0)
    np.testing.assert_array_equal(used.grad, 2.0)


def test_backward_requires_scalar_and_fresh_tape():
    x = T.Tensor(np.ones(2), requires_grad=True)
    with pytest.raises(ValueError):
        T.backward(x * 1.0)
    loss = (x * 2.0).sum()
    T.backward(loss)
    with pytest.raises(ValueError):
        T.backward(loss)
    with pytest.raises(ValueError):
        T.backward(T.Tensor(np.zeros(())))


def test_forward_is_bit_identical_across_runs():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((1, 2, 8, 8)).astype(np.float32)
    w = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)

    def run():
        out = T.conv2d(T.Tensor(x), T.Tensor(w), padding=1)
        return T.softmax_channels(T.upsample_bilinear2x(out)).data

    a, b = run(), run()
    assert a.tobytes() == b.tobytes()


def test_nonfinite_forward_raises():
    big = T.Tensor(np.array([1e30], dtype=np.float32))
    with pytest.raises(NumericError):
        big * big  # overflows float32 to inf


def test_gradient_dtype_follows_data_dtype():
    x64 = T.Tensor(np.ones(2), requires_grad=True, dtype=np.float64)
    T.backward((x64 * x64).sum())
    assert x64.grad.dtype == np.float64
    x32 = T.Tensor(np.ones(2, dtype=np.float32), requires_grad=True)
    T.backward((x32 * x32).sum())
    assert x32.grad.dtype == np.float32


def test_no_grad_records_no_tape_nodes():
    rng = np.random.default_rng(31)
    x = T.Tensor(rng.standard_normal((2, 2, 4, 4)), requires_grad=True)
    w = T.Tensor(rng.standard_normal((2, 2, 3, 3)), requires_grad=True)
    with T.no_grad():
        h = T.relu(T.conv2d(x, w, padding=1))
        out = T.softmax_channels(T.upsample_bilinear2x(h)) * 2.0
        loss = out.sum()
    for t in (h, out, loss):
        assert t._node is None
    with pytest.raises(ValueError, match="not connected"):
        T.backward(loss)
    # recording resumes after the block
    T.backward(T.conv2d(x, w, padding=1).sum())
    assert np.abs(w.grad).max() > 0


def test_no_grad_restores_recording_when_body_raises():
    x = T.Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
    with pytest.raises(NumericError):
        with T.no_grad():
            T.log(x * 0.0)
    assert T.relu(x)._node is not None
    with T.no_grad():
        with T.no_grad():
            pass
        assert T.relu(x)._node is None
    assert T.relu(x)._node is not None


# ---------------------------------------------------------------------------
# what the tape keeps

def _criterion6_twin():
    """A criterion-6 twin, a batch of 8 inputs, and a pair loss function."""
    model = UnetPP(UnetPPConfig(levels=3, input_size=32, base_channels=8), seed=7)
    rng = np.random.default_rng(72)
    x = T.Tensor(rng.uniform(0, 1, (8, 1, 32, 32)).astype(np.float32))
    target = rng.uniform(0, 1, (8, 2, 32, 32)).astype(np.float32)
    cross = [i % 2 == 1 for i in range(8)]

    def loss_of(p):
        return losses.pair_total(losses.pair_half_terms(target, p, cross), [1.0] * 8)[0]

    return model, x, loss_of


def test_a_recorded_forward_keeps_only_what_the_backward_rules_read():
    # a tape that keeps every operand holds 10.6 MB here, one that keeps
    # conv buffers, relu masks and the softmax output 5.7 MB
    import tracemalloc

    model, x, _ = _criterion6_twin()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        p = model.forward(x)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert p._node is not None
    assert held < 8e6, held


def test_relu_inputs_and_concat_outputs_die_with_the_forward(monkeypatch):
    import weakref

    model, x, _ = _criterion6_twin()
    refs = {"relu": [], "concat_channels": []}
    relu, concat = T.relu, T.concat_channels

    def relu_spy(h):
        refs["relu"].append(weakref.ref(h.data))
        return relu(h)

    def concat_spy(parts):
        out = concat(parts)
        refs["concat_channels"].append(weakref.ref(out.data))
        return out

    monkeypatch.setattr(T, "relu", relu_spy)
    monkeypatch.setattr(T, "concat_channels", concat_spy)
    p = model.forward(x)
    assert p._node is not None
    assert len(refs["relu"]) == 12 and len(refs["concat_channels"]) == 3
    assert {op: sum(r() is not None for r in rs) for op, rs in refs.items()} == \
        {"relu": 0, "concat_channels": 0}


def _saved_arrays(loss, exclude):
    """{node: [weakref, ...]} of the arrays each rule on ``loss``'s tape
    captured, except those sharing memory with an array of ``exclude``."""
    import weakref

    out, stack, seen = {}, [loss._node], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        arrays = []
        for cell in node.grad_fn.__closure__ or ():
            try:
                a = cell.cell_contents
            except ValueError:  # a variable that this op's path never set
                continue
            if isinstance(a, np.ndarray) and not any(np.may_share_memory(a, e) for e in exclude):
                arrays.append(weakref.ref(a))
        out[node] = arrays
        for p in node.parents:
            p = p._node if isinstance(p, T.Tensor) else p
            if p is not None:
                stack.append(p)
    return out


def test_backward_frees_what_each_rule_saved_as_soon_as_it_ran():
    model, x, loss_of = _criterion6_twin()
    loss = loss_of(model.forward(x))
    # parameters, the input and the cached upsampling matrices outlive the step
    exclude = [t.data for t in model.params.values()] + [x.data] + \
        [T._up2x_matrix(n, np.float32) for n in (8, 16)]
    saved = _saved_arrays(loss, exclude)
    assert sum(len(v) for v in saved.values()) > 30
    alive_before = []

    def watch(node, rule):
        others = [r for other, rs in saved.items() if other is not node for r in rs]

        def checked(g):
            alive_before.append(sum(r() is not None for r in others))
            return rule(g)

        return checked

    for node in saved:
        node.grad_fn = watch(node, node.grad_fn)
    T.backward(loss)
    # when the last rule runs, every other rule's arrays are gone
    assert len(alive_before) == len(saved)
    assert alive_before[-1] == 0
    assert sum(r() is not None for rs in saved.values() for r in rs) == 0


def test_a_consumed_tape_raises_from_the_loss_and_from_any_tensor_on_it():
    x = T.Tensor(np.ones(3), requires_grad=True)
    s = (x * 2.0).sum()
    loss = s * 3.0
    T.backward(loss)
    for t in (loss, s):
        with pytest.raises(ValueError):
            T.backward(t)
    # backward from an intermediate consumes the tape below the loss too
    x.zero_grad()
    s = (x * 2.0).sum()
    loss = s * 3.0
    T.backward(s)
    with pytest.raises(ValueError, match="consumed"):
        T.backward(loss)
    np.testing.assert_array_equal(x.grad, 2.0)


def test_a_forward_only_relu_allocates_its_output_and_no_mask():
    import tracemalloc

    x = T.Tensor(np.ones((64, 64, 64), dtype=np.float32) - 0.5, requires_grad=True)
    for record in (False, True):
        tracemalloc.start()
        try:
            if record:
                out = T.relu(x)
            else:
                with T.no_grad():
                    out = T.relu(x)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # beside the 1 MiB output, a recorded relu keeps a one-byte-per-element mask
        mask = x.data.size if record else 0
        assert mask <= held - out.data.nbytes < mask + x.data.size // 8


# ---------------------------------------------------------------------------
# allocator thresholds

@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc allocator only")
def test_training_steps_keep_their_memory_without_page_faults():
    # forward, pair loss and backward of both criterion-6 twins at B=8; with
    # glibc's default thresholds every step faults its freed tape back in
    # (about 6,650 minor faults per step here), with the fixed ones it
    # reuses it
    import resource

    cfg = UnetPPConfig(levels=3, input_size=32, base_channels=8)
    model_a, model_b = UnetPP(cfg, seed=7), UnetPP(cfg, seed=7)
    rng = np.random.default_rng(71)
    xa, xb = (T.Tensor(rng.uniform(0, 1, (8, 1, 32, 32)).astype(np.float32)) for _ in range(2))
    cross, etas = [i % 2 == 1 for i in range(8)], [1.0] * 8

    def step():
        # each twin's half against the other's map, back-propagated apart
        pa, pb = model_a.forward(xa), model_b.forward(xb)
        for target, p in ((pa.data, pb), (pb.data, pa)):
            T.backward(losses.pair_total(losses.pair_half_terms(target, p, cross), etas)[0])

    for _ in range(3):
        step()
    steps = 10
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(steps):
        step()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults / steps < 200, faults


def _no_c_library(name):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", [lambda name: types.SimpleNamespace(), _no_c_library],
                         ids=["no-mallopt", "no-libc"])
def test_allocator_setup_without_mallopt_does_nothing(monkeypatch, cdll):
    monkeypatch.setattr(T.ctypes, "CDLL", cdll)
    assert T._keep_freed_memory() is False
