"""Probabilistic hybrid loss and the contrastive pair loss built on it.

The hybrid loss of a target map Y against a probability map P (both
B x C x H x W) is

    -(1/N) * sum_c sum_n [ y * log p  +  y * p / (y^2 + p^2) ]

where N is the pixel count B*H*W (dividing by N only, not N*C, so values can
be negative; a perfect one-hot match scores -0.5).  The log is clamped at
p >= 1e-7 and the ratio uses the convention 0/0 := 0, which makes pixels with
y = 0 in every class exactly inert: zero loss and zero gradient to P.

The pair loss symmetrizes the hybrid terms with a stop-gradient on the
target branch.  Plain pairs pull the two maps together; cross pairs (C = 2
only) push each map toward the channel-swapped complement of the other.
Training evaluates a whole step's pairs at once, one pair per batch sample,
in two halves, one per twin: a twin's half (``pair_half_terms``) scores its
own map against the other twin's as a plain array, and ``pair_total``
weights and reduces it.
"""

import numpy as np

from . import tensor as T

LOG_FLOOR = 1e-7
RANGE_SLACK = 1e-6


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
