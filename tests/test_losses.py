"""Loss values against a scalar python-float oracle, plus gradient behavior."""

import math

import numpy as np
import pytest

from clamseg import gradcheck as gc
from clamseg import losses
from clamseg import tensor as T


def hybrid_oracle(y, p):
    """Direct per-pixel evaluation of the published formula in python floats."""
    y = np.asarray(y, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    B, C, H, W = y.shape
    total = 0.0
    for idx in np.ndindex(y.shape):
        yv, pv = float(y[idx]), float(p[idx])
        term = yv * math.log(max(pv, 1e-7))
        denom = yv * yv + pv * pv
        if denom > 0:
            term += yv * pv / denom
        total += term
    return -total / (B * H * W)


def _as_maps(ylist, plist):
    # each list entry is one pixel's per-class values; build 1 x C x 1 x n maps
    y = np.array(ylist, dtype=np.float64).T[None, :, None, :]
    p = np.array(plist, dtype=np.float64).T[None, :, None, :]
    return y, p


def _one_hot(mask):
    """B x H x W {0,1} mask -> B x 2 x H x W one-hot target (marker channel 1)."""
    m = np.asarray(mask, dtype=np.float64)
    return np.stack([1 - m, m], axis=1)


def test_oracle_reproduces_frozen_values():
    y, p = _as_maps([[1, 0]], [[1, 0]])
    assert hybrid_oracle(y, p) == pytest.approx(-0.5, abs=1e-12)
    y, p = _as_maps([[1, 0]], [[0.5, 0.5]])
    assert hybrid_oracle(y, p) == pytest.approx(0.2931471805599453, abs=1e-12)
    y, p = _as_maps([[1, 0], [1, 0]], [[1, 0], [0.5, 0.5]])
    assert hybrid_oracle(y, p) == pytest.approx(-0.10342640972002735, abs=1e-12)


def test_hybrid_loss_perfect_one_hot():
    y, p = _as_maps([[1, 0]], [[1, 0]])
    out = losses.hybrid_loss(T.Tensor(y), T.Tensor(p))
    assert out.item() == pytest.approx(-0.5, abs=1e-6)


def test_hybrid_loss_uniform_prediction():
    y, p = _as_maps([[1, 0]], [[0.5, 0.5]])
    out = losses.hybrid_loss(T.Tensor(y, dtype=np.float64), T.Tensor(p, dtype=np.float64))
    assert out.item() == pytest.approx(0.2931471805599453, abs=1e-12)
    out32 = losses.hybrid_loss(T.Tensor(y), T.Tensor(p))
    assert out32.item() == pytest.approx(0.2931471805599453, abs=1e-6)


def test_hybrid_loss_two_pixel_mean():
    y, p = _as_maps([[1, 0], [1, 0]], [[1, 0], [0.5, 0.5]])
    out = losses.hybrid_loss(T.Tensor(y), T.Tensor(p))
    assert out.item() == pytest.approx(-0.10342640972002735, abs=1e-6)


def test_divides_by_pixels_not_channels():
    # same per-pixel content, batch doubled: mean unchanged; channel count
    # does not enter the normalizer
    rng = np.random.default_rng(0)
    p = rng.uniform(0.05, 0.95, size=(1, 2, 3, 3))
    p = p / p.sum(axis=1, keepdims=True)
    y = np.zeros_like(p)
    y[:, 0] = 1.0
    one = losses.hybrid_loss(T.Tensor(y, dtype=np.float64), T.Tensor(p, dtype=np.float64)).item()
    y2, p2 = np.concatenate([y, y]), np.concatenate([p, p])
    two = losses.hybrid_loss(T.Tensor(y2, dtype=np.float64), T.Tensor(p2, dtype=np.float64)).item()
    assert two == pytest.approx(one, rel=1e-12)
    assert one == pytest.approx(hybrid_oracle(y, p), rel=1e-12)


def test_zero_zero_pixel_is_exactly_inert():
    y = T.Tensor(np.zeros((1, 2, 1, 1)))
    p = T.Tensor(np.zeros((1, 2, 1, 1)), requires_grad=True)
    out = losses.hybrid_loss(y, p)
    assert out.item() == 0.0
    T.backward(out)
    np.testing.assert_array_equal(p.grad, 0.0)


@pytest.mark.parametrize("seed", range(10))
def test_matches_oracle_on_random_soft_maps(seed):
    rng = np.random.default_rng(seed)
    p = rng.uniform(0, 1, size=(2, 2, 4, 4))
    p = p / p.sum(axis=1, keepdims=True)
    y = rng.uniform(0, 1, size=(2, 2, 4, 4))
    y = y / y.sum(axis=1, keepdims=True)
    got = losses.hybrid_loss(T.Tensor(y, dtype=np.float64), T.Tensor(p, dtype=np.float64)).item()
    assert got == pytest.approx(hybrid_oracle(y, p), rel=1e-10)


def test_validation_errors():
    good = T.Tensor(np.full((1, 2, 2, 2), 0.5))
    with pytest.raises(ValueError):
        losses.hybrid_loss(good, T.Tensor(np.full((1, 2, 2, 3), 0.5)))
    with pytest.raises(ValueError):
        losses.hybrid_loss(good, T.Tensor(np.full((1, 2, 2, 2), 1.5)))
    with pytest.raises(ValueError):
        losses.hybrid_loss(T.Tensor(np.full((1, 2, 2, 2), -0.5)), good)
    with pytest.raises(ValueError):
        losses.hybrid_loss(T.Tensor(np.full((2, 2), 0.5)), good)


@pytest.mark.parametrize("seed", range(8))
def test_moving_toward_one_hot_target_decreases_loss(seed):
    rng = np.random.default_rng(40 + seed)
    hard = rng.integers(0, 2, size=(1, 3, 3))
    y = T.Tensor(_one_hot(hard))
    p = rng.uniform(0.05, 0.95, size=(1, 2, 3, 3))
    p = p / p.sum(axis=1, keepdims=True)
    base = losses.hybrid_loss(y, T.Tensor(p, dtype=np.float64)).item()
    closer = 0.5 * p + 0.5 * y.data
    better = losses.hybrid_loss(y, T.Tensor(closer, dtype=np.float64)).item()
    ideal = losses.hybrid_loss(y, T.Tensor(y.data.copy(), dtype=np.float64)).item()
    assert better < base
    assert ideal <= better
    assert ideal == pytest.approx(-0.5, abs=1e-12)


def test_pixel_permutation_invariance():
    rng = np.random.default_rng(9)
    p = rng.uniform(0.05, 0.95, size=(1, 2, 1, 12))
    p = p / p.sum(axis=1, keepdims=True)
    y = T.Tensor(_one_hot(rng.integers(0, 2, size=(1, 1, 12))))
    perm = rng.permutation(12)
    a = losses.hybrid_loss(y, T.Tensor(p, dtype=np.float64)).item()
    b = losses.hybrid_loss(T.Tensor(y.data[..., perm], dtype=np.float64),
                           T.Tensor(p[..., perm], dtype=np.float64)).item()
    assert b == pytest.approx(a, rel=1e-12)


# ---------------------------------------------------------------------------
# pair losses, as a training step computes them

def _soft(rng, shape=(1, 2, 3, 3)):
    z = rng.uniform(0.05, 0.95, size=shape)
    return z / z.sum(axis=1, keepdims=True)


def _pair_batch_loss(a, b, cross, etas):
    """A pair batch's loss as a training step reports it: twin b's half
    (against a's map) plus twin a's (against b's), weighted by the etas."""
    return losses.pair_total(losses.pair_half_terms(a.data, b, cross)
                             + losses.pair_half_terms(b.data, a, cross), etas)


def _pair_loss(a, b, cross):
    """One pair's loss at eta 1, from 1 x C x H x W arrays."""
    total, _ = _pair_batch_loss(T.Tensor(a), T.Tensor(b), [cross], [1.0])
    return total.item()


def test_positive_pair_one_hot_fixed_point():
    m = _one_hot(np.array([[[0, 1], [1, 0]]]))
    assert _pair_loss(m, m.copy(), False) == pytest.approx(-0.5, abs=1e-6)


def test_positive_pair_symmetry():
    rng = np.random.default_rng(21)
    a, b = _soft(rng), _soft(rng)
    assert _pair_loss(a, b, False) == _pair_loss(b, a, False)


def test_positive_pair_matches_compositional_oracle():
    rng = np.random.default_rng(22)
    a, b = _soft(rng), _soft(rng)
    want = 0.5 * (hybrid_oracle(a, b) + hybrid_oracle(b, a))
    assert _pair_loss(a, b, False) == pytest.approx(want, rel=1e-10)


def test_stop_gradient_freezes_target_branch():
    # twin b's half takes twin a's map as a plain array, so a's logits get
    # nothing from it
    rng = np.random.default_rng(23)
    za = T.Tensor(rng.standard_normal((1, 2, 3, 3)), requires_grad=True, dtype=np.float64)
    zb = T.Tensor(rng.standard_normal((1, 2, 3, 3)), requires_grad=True, dtype=np.float64)
    pa, pb = T.softmax_channels(za), T.softmax_channels(zb)
    half_b, _ = losses.pair_total(losses.pair_half_terms(pa.data, pb, [False]), [1.0])
    T.backward(half_b)
    np.testing.assert_array_equal(za.grad, 0.0)
    assert np.abs(zb.grad).max() > 0


def test_negative_pair_maximally_different_maps():
    a, b = _one_hot(np.ones((1, 2, 2))), _one_hot(np.zeros((1, 2, 2)))
    assert _pair_loss(a, b, True) == pytest.approx(-0.5, abs=1e-6)


def test_negative_pair_degenerate_uniform_equals_positive():
    u = np.full((1, 2, 2, 2), 0.5)
    assert _pair_loss(u, u.copy(), True) == pytest.approx(_pair_loss(u, u.copy(), False),
                                                          abs=1e-7)


@pytest.mark.parametrize("seed", range(6))
def test_negative_pair_matches_compositional_oracle(seed):
    rng = np.random.default_rng(50 + seed)
    a, b = _soft(rng), _soft(rng)
    want = 0.5 * (hybrid_oracle(a[:, ::-1], b) + hybrid_oracle(b[:, ::-1], a))
    assert _pair_loss(a, b, True) == pytest.approx(want, rel=1e-10)


def test_negative_pair_requires_two_channels():
    tri = T.Tensor(np.full((1, 3, 2, 2), 1 / 3))
    with pytest.raises(ValueError, match="C = 2"):
        losses.pair_half_terms(tri.data, tri, [True])


def test_pair_batch_loss_matches_per_pair_losses():
    rng = np.random.default_rng(60)
    a = T.Tensor(_soft(rng, (3, 2, 3, 3)), dtype=np.float64)
    b = T.Tensor(_soft(rng, (3, 2, 3, 3)), dtype=np.float64)
    cross = [False, True, False]
    etas = [0.75, 0.4, 0.0]
    total, per = _pair_batch_loss(a, b, cross, etas)
    want = []
    for i, neg in enumerate(cross):
        ai, bi = a.data[i:i + 1], b.data[i:i + 1]
        ta, tb = (ai[:, ::-1], bi[:, ::-1]) if neg else (ai, bi)
        want.append(0.5 * (losses.hybrid_loss(T.Tensor(ta), T.Tensor(bi)).item()
                           + losses.hybrid_loss(T.Tensor(tb), T.Tensor(ai)).item()))
    np.testing.assert_allclose(per, want, rtol=1e-12)
    assert total.item() == pytest.approx(sum(e * w for e, w in zip(etas, want)), rel=1e-12)


def test_pair_batch_loss_weights_each_sample_gradient():
    rng = np.random.default_rng(61)
    za = T.Tensor(rng.standard_normal((2, 2, 3, 3)), requires_grad=True, dtype=np.float64)
    zb = T.Tensor(rng.standard_normal((2, 2, 3, 3)), requires_grad=True, dtype=np.float64)
    total, _ = _pair_batch_loss(T.softmax_channels(za), T.softmax_channels(zb),
                                [True, False], [0.0, 0.5])
    T.backward(total)
    # a zero eta makes its sample inert in both branches
    np.testing.assert_array_equal(za.grad[0], 0.0)
    np.testing.assert_array_equal(zb.grad[0], 0.0)
    assert np.abs(za.grad[1]).max() > 0 and np.abs(zb.grad[1]).max() > 0


def test_pair_batch_loss_argument_validation():
    u = T.Tensor(np.full((2, 2, 2, 2), 0.5))
    terms = losses.pair_half_terms(u.data, u, [False, False])
    with pytest.raises(ValueError, match="weights"):
        losses.pair_total(terms, [1.0])
    with pytest.raises(ValueError, match="kinds"):
        losses.pair_half_terms(u.data, u, [False])
    with pytest.raises(ValueError, match="outside"):
        losses.pair_total(terms, [1.0, 2.0])
    tri = T.Tensor(np.full((1, 3, 2, 2), 1 / 3))
    with pytest.raises(ValueError, match="C = 2"):
        losses.pair_half_terms(tri.data, tri, [True])


def test_loss_gradcheck_suite_passes():
    results = gc.run_suite(module="loss", seeds=range(20))
    failures = [(n, r) for n, r in results if not r["pass"]]
    assert not failures, failures[:3]
