"""Probabilistic hybrid loss and the contrastive pair losses built on it.

The hybrid loss of a target map Y against a probability map P (both
B x C x H x W) is

    -(1/N) * sum_c sum_n [ y * log p  +  y * p / (y^2 + p^2) ]

where N is the pixel count B*H*W (dividing by N only, not N*C, so values can
be negative; a perfect one-hot match scores -0.5).  The log is clamped at
p >= 1e-7 and the ratio uses the convention 0/0 := 0, which makes pixels with
y = 0 in every class exactly inert: zero loss and zero gradient to P.

Pair losses symmetrize the hybrid loss with a stop-gradient on the target
branch.  Positive pairs pull the two maps together; negative pairs (C = 2
only) push map B toward the channel-swapped complement of map A and vice
versa, reusing the same hybrid primitive.  Training evaluates a whole step's
pairs at once, one pair per batch sample, in two halves, one per twin: a
twin's half (``pair_half_terms``) scores its own map against the other
twin's as a plain array, and ``pair_total`` weights and reduces it.
"""

import numpy as np

from . import tensor as T

LOG_FLOOR = 1e-7
RANGE_SLACK = 1e-6


def one_hot_target(mask, marker_channel=1, dtype=np.float32):
    """B x H x W {0,1} mask -> B x 2 x H x W one-hot target tensor."""
    mask = np.asarray(mask)
    if mask.ndim != 3:
        raise ValueError(f"mask must be B x H x W, got shape {mask.shape}")
    marker = (mask > 0).astype(dtype)
    chans = [1 - marker, marker] if marker_channel == 1 else [marker, 1 - marker]
    return T.Tensor(np.stack(chans, axis=1), dtype=dtype)


def _check_map(name, t):
    if t.data.ndim != 4:
        raise ValueError(f"{name} must be rank 4 (B x C x H x W), got {t.data.shape}")
    lo, hi = float(t.data.min()), float(t.data.max())
    if lo < -RANGE_SLACK or hi > 1 + RANGE_SLACK:
        raise ValueError(f"{name} values outside [0, 1]: min {lo:.3g}, max {hi:.3g}")


def _hybrid_terms(y, p):
    """Elementwise summand y * log p + y * p / (y^2 + p^2), before the -1/N."""
    _check_map("Y", y)
    _check_map("P", p)
    if y.data.shape != p.data.shape:
        raise ValueError(f"shape mismatch: Y {y.data.shape} vs P {p.data.shape}")
    return y * T.log(T.clamp_min(p, LOG_FLOOR)) + T.bounded_ratio(y, p)


def hybrid_loss(y, p):
    """Scalar hybrid loss; differentiable w.r.t. P, and w.r.t. Y when soft."""
    terms = _hybrid_terms(y, p)
    n = y.data.shape[0] * y.data.shape[2] * y.data.shape[3]
    return terms.sum() * (-1.0 / n)


def positive_pair_loss(p_a, p_b):
    """Half-sum of hybrid losses with each map as the other's frozen target."""
    if p_a.data.shape != p_b.data.shape:
        raise ValueError(f"shape mismatch: {p_a.data.shape} vs {p_b.data.shape}")
    return (hybrid_loss(p_a.detach(), p_b) + hybrid_loss(p_b.detach(), p_a)) * 0.5


def _complement(p):
    # channel-swapped frozen copy of a two-class map; target branch only,
    # so no tape connection is needed
    if p.data.shape[1] != 2:
        raise ValueError(f"negative_pair_loss requires C = 2, got C = {p.data.shape[1]}")
    return T.Tensor(p.data[:, ::-1].copy())


def negative_pair_loss(p_a, p_b):
    """Like the positive loss but against channel-swapped frozen targets."""
    if p_a.data.shape != p_b.data.shape:
        raise ValueError(f"shape mismatch: {p_a.data.shape} vs {p_b.data.shape}")
    return (hybrid_loss(_complement(p_a), p_b) + hybrid_loss(_complement(p_b), p_a)) * 0.5


def pair_half_terms(target, p, cross):
    """One twin's half of a pair batch's loss, before weighting.

    The hybrid terms of this twin's map ``p`` against ``target``, the other
    twin's map as a plain array (so no gradient reaches the other twin),
    channel-swapped on the samples where ``cross[i]``.  Each twin's half
    depends on the other only through that array, so the two halves can be
    computed, and back-propagated, apart.
    """
    B, C = p.data.shape[:2]
    cross = np.asarray(cross, dtype=bool)
    if cross.shape != (B,):
        raise ValueError(f"{cross.size} pair kinds for a batch of {B}")
    if cross.any() and C != 2:
        raise ValueError(f"cross pairs require C = 2, got C = {C}")
    target = np.where(cross[:, None, None, None], target[:, ::-1], target)
    return _hybrid_terms(T.Tensor(target), p)


def pair_total(terms, etas):
    """Eta-weighted total of a batch's pair-loss terms -> (total, per-pair values).

    Sample i of ``terms`` is pair i, and pair i is weighted by ``etas[i]``
    inside one reduction.  Training back-propagates each twin's half alone,
    which gives that half the same gradient as the sum of both would, and
    reports the sum of both as the step's loss.  The per-pair values (plain
    floats, unweighted) are read off the forward data and are not on the
    tape.
    """
    B, _, H, W = terms.shape
    etas = [float(e) for e in etas]
    if len(etas) != B:
        raise ValueError(f"{B} losses vs {len(etas)} weights")
    for e in etas:
        if not (0.0 <= e <= 1.0):
            raise ValueError(f"pair weight {e} outside [0, 1]")
    scale = -0.5 / (H * W)
    weight = np.broadcast_to(np.asarray(etas, dtype=terms.dtype)[:, None, None, None] * scale,
                             terms.shape)
    total = (terms * T.Tensor(weight)).sum()
    per = terms.data.sum(axis=(1, 2, 3), dtype=np.float64) * scale
    return total, [float(v) for v in per]
