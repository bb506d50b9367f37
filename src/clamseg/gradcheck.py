"""Finite-difference gradient verification.

Analytic gradients from the tape are compared against central differences
``(f(x+h) - f(x-h)) / 2h`` evaluated coordinate by coordinate on a float64
shadow copy of the same graph (float32 rounding is too noisy for the 1e-4
tolerance used here).  Relative error per coordinate is
``|a - n| / max(|a|, |n|, 1e-8)``.  Only the analytic pass records a tape;
the probes run under ``no_grad``.

The central difference has an O(h^2) truncation error, which on a few model
cases exceeds the tolerance at h = 1e-3.  A coordinate that misses the
tolerance is probed again at h/2, and its estimate becomes the Richardson
extrapolation ``(4 D(h/2) - D(h)) / 3``, whose error is O(h^4).  A wrong
analytic gradient misses by its own error at either step, so this rescues
truncation error only.

relu is only piecewise smooth, so checks must stay away from its kinks.
Direct relu cases draw points bounded away from 0.  For composite graphs the
checked function may also return a discrete activation signature; any
coordinate whose probes (+/-h, and +/-h/2 when taken) land on different
signatures sits across a kink and is skipped (counted in the report rather
than silently dropped).

Each seed's cases are independent of the others', so ``run_suite`` (behind
``clamseg gradcheck`` and criterion 1) checks the second half of its seeds in
a forked child while the calling process checks the first, unless it may use
only one CPU (the rule of ``cores.split_in_two``, which marker calibration
shares); the reports come back in the serial order.
"""

import numpy as np

from . import tensor as T
from .cores import split_in_two
from .seeding import derive_rng


def _call(f, x):
    out = f(x)
    sig = None
    if isinstance(out, tuple):
        out, sig = out
    return out, sig


def _rel_err(a, n):
    return abs(a - n) / max(abs(a), abs(n), 1e-8)


def gradcheck(f, point, h=1e-3, tol=1e-4):
    """Check d f / d point at one point.

    ``f`` maps a Tensor to a scalar Tensor (optionally ``(scalar, signature)``
    where the signature is any equality-comparable digest of the discrete
    activation pattern).  Returns a report dict with ``max_rel_err``,
    ``pass``, ``n_checked`` and ``n_skipped``.
    """
    x0 = np.asarray(point.data if isinstance(point, T.Tensor) else point, dtype=np.float64)
    xt = T.Tensor(x0.copy(), requires_grad=True, dtype=np.float64)
    out, _ = _call(f, xt)
    if not isinstance(out, T.Tensor) or out.data.shape != ():
        raise ValueError("gradcheck requires a scalar-valued function")
    if out._node is None:
        analytic = np.zeros_like(x0)
    else:
        T.backward(out)
        analytic = xt.grad

    max_rel = 0.0
    skipped = 0
    flat = x0.reshape(-1)
    aflat = analytic.reshape(-1)
    probe = x0.copy()
    pflat = probe.reshape(-1)

    def central(i, step):
        # (estimate, signature at +step, signature at -step); f reads the
        # probe array in place, and no probe result outlives its call
        orig = flat[i]
        pflat[i] = orig + step
        fp, sp = _call(f, T.Tensor(probe))
        pflat[i] = orig - step
        fm, sm = _call(f, T.Tensor(probe))
        pflat[i] = orig
        return (fp.item() - fm.item()) / (2 * step), sp, sm

    with T.no_grad():
        for i in range(flat.size):
            numeric, sp, sm = central(i, h)
            if sp is not None and sp != sm:
                skipped += 1
                continue
            a = aflat[i]
            rel = _rel_err(a, numeric)
            if rel >= tol:
                half, sp2, sm2 = central(i, h / 2)
                if sp is not None and not sp == sp2 == sm2:
                    skipped += 1
                    continue
                rel = _rel_err(a, (4 * half - numeric) / 3)
            if rel > max_rel:
                max_rel = rel
    return {
        "max_rel_err": max_rel,
        "pass": max_rel < tol,
        "n_checked": flat.size - skipped,
        "n_skipped": skipped,
    }


# ---------------------------------------------------------------------------
# case catalogs; every differentiable op appears at least once

def _away_from_zero(rng, shape, margin=0.1):
    x = rng.uniform(-1.0, 1.0, size=shape)
    return np.where(np.abs(x) < margin, x + np.sign(x + 1e-12) * 2 * margin, x)


def op_cases(seed):
    """Yield (name, f, point) checks covering each differentiable op."""
    rng = derive_rng(seed, "gradcheck", "ops")

    x = rng.standard_normal((1, 2, 5, 5))
    w = rng.standard_normal((3, 2, 3, 3)) * 0.5
    b = rng.standard_normal(3) * 0.1
    wt, bt = T.Tensor(w, dtype=np.float64), T.Tensor(b, dtype=np.float64)
    xt = T.Tensor(x, dtype=np.float64)
    yield ("conv2d/input", lambda t: T.conv2d(t, wt, bt, padding=1).sum(), x)
    yield ("conv2d/kernel", lambda t: T.conv2d(xt, t, bt, padding=1).sum(), w)
    yield ("conv2d/bias", lambda t: T.conv2d(xt, wt, t, padding=1).sum(), b)

    w5 = rng.standard_normal((2, 2, 5, 5)) * 0.3
    w5t = T.Tensor(w5, dtype=np.float64)
    x6 = rng.standard_normal((1, 2, 6, 6))
    yield ("conv2d/stride2-input",
           lambda t: (T.conv2d(t, w5t, stride=2, padding=2) * 2.0).sum(), x6)
    yield ("conv2d/stride2-kernel",
           lambda t: (T.conv2d(T.Tensor(x6, dtype=np.float64), t, stride=2, padding=2) * 2.0).sum(), w5)

    u = rng.standard_normal((1, 2, 3, 4))
    gu = rng.standard_normal((1, 2, 6, 8))
    gut = T.Tensor(gu, dtype=np.float64)
    yield ("upsample_bilinear2x", lambda t: (T.upsample_bilinear2x(t) * gut).sum(), u)

    r = _away_from_zero(rng, (2, 3, 4))
    yield ("relu", lambda t: (T.relu(t) * T.relu(t)).sum(), r)

    pos = rng.uniform(0.2, 2.0, size=(3, 3))
    yield ("log", lambda t: T.log(t).sum(), pos)

    c = _away_from_zero(rng, (2, 5), margin=0.2) + 0.5  # kink at 0.5 excluded by the margin
    yield ("clamp_min", lambda t: (T.clamp_min(t, 0.5) * T.clamp_min(t, 0.5)).sum(), c)

    # bounded_ratio points stay away from the origin (curvature ~ 1/r^3) and
    # off the y = p diagonal, where the exact partials vanish and the relative
    # error becomes ill-conditioned
    yb = rng.uniform(0.25, 1.0, size=(6,))
    pb = yb * rng.uniform(1.5, 3.0, size=(6,))
    pbt, ybt = T.Tensor(pb, dtype=np.float64), T.Tensor(yb, dtype=np.float64)
    yield ("bounded_ratio/y", lambda t: T.bounded_ratio(t, pbt).sum(), yb)
    yield ("bounded_ratio/p", lambda t: T.bounded_ratio(ybt, t).sum(), pb)

    z = rng.standard_normal((1, 3, 3, 3))
    gz = rng.standard_normal((1, 3, 3, 3))
    gzt = T.Tensor(gz, dtype=np.float64)
    yield ("softmax_channels", lambda t: (T.softmax_channels(t) * gzt).sum(), z)

    p1 = rng.standard_normal((1, 2, 3, 3))
    p2 = rng.standard_normal((1, 1, 3, 3))
    p2t = T.Tensor(p2, dtype=np.float64)
    gc = rng.standard_normal((1, 3, 3, 3))
    gct = T.Tensor(gc, dtype=np.float64)
    yield ("concat_channels", lambda t: (T.concat_channels([t, p2t]) * gct).sum(), p1)

    a = rng.standard_normal((4, 3))
    b2 = rng.standard_normal((4, 3))
    b2t = T.Tensor(b2, dtype=np.float64)
    yield ("add", lambda t: ((t + b2t) * (t + b2t)).sum(), a)
    yield ("add/scalar", lambda t: ((t + 1.5) * (t + 1.5)).sum(), a)
    yield ("mul", lambda t: (t * b2t).sum(), a)
    yield ("mul/scalar", lambda t: ((t * 0.7) * (t * 0.7)).sum(), a)
    yield ("sum", lambda t: t.sum(), a)
    yield ("mean", lambda t: (t * b2t).mean(), a)


def loss_cases(seed):
    """Yield checks for the training losses composed with softmax."""
    from . import losses

    rng = derive_rng(seed, "gradcheck", "loss")
    z = rng.uniform(-2.0, 2.0, size=(1, 2, 4, 4))
    ohid = rng.integers(0, 2, size=(1, 4, 4))
    y = np.stack([ohid == 0, ohid == 1], axis=1).astype(np.float64)
    yt = T.Tensor(y, dtype=np.float64)
    yield ("hybrid_loss∘softmax",
           lambda t: losses.hybrid_loss(yt, T.softmax_channels(t)), z)

    # pair losses: finite differences cannot represent stop-gradient (moving
    # the live branch also moves the frozen target's value), so the check
    # holds the target fixed and probes one term's prediction branch
    za = rng.uniform(-2.0, 2.0, size=(1, 2, 4, 4))
    pa = T.softmax_channels(T.Tensor(za, dtype=np.float64))
    yield ("positive_pair/first-term",
           lambda t: losses.hybrid_loss(pa, T.softmax_channels(t)), z)
    comp = T.Tensor(pa.data[:, ::-1].copy())
    yield ("negative_pair/first-term",
           lambda t: losses.hybrid_loss(comp, T.softmax_channels(t)), z)

    # a pair batch's loss as training back-propagates it: one twin's half
    # against the other's fixed map, a cross and a plain pair with distinct
    # etas
    etas = list(rng.uniform(0.1, 1.0, size=2))
    other = T.softmax_channels(T.Tensor(rng.uniform(-2, 2, size=(2, 2, 1, 2)),
                                        dtype=np.float64)).data
    zl = rng.uniform(-2.0, 2.0, size=(2, 2, 1, 2))
    yield ("pair_total∘pair_half_terms∘softmax",
           lambda t: losses.pair_total(
               losses.pair_half_terms(other, T.softmax_channels(t), [True, False]), etas)[0],
           zl)


def model_cases(seed):
    """Full small-model checks: 2 levels, base width 2, 8x8 input.

    The checked function returns (loss, relu-signature); coordinates probing
    across a relu kink are skipped inside gradcheck.
    """
    from . import losses
    from .unetpp import UnetPP, UnetPPConfig

    rng = derive_rng(seed, "gradcheck", "model")
    cfg = UnetPPConfig(levels=2, input_size=8, base_channels=2)
    model = UnetPP(cfg, seed=seed, dtype=np.float64)
    x = rng.uniform(0.0, 1.0, size=(1, 1, 8, 8))
    ohid = rng.integers(0, 2, size=(1, 8, 8))
    y = np.stack([ohid == 0, ohid == 1], axis=1).astype(np.float64)
    yt = T.Tensor(y, dtype=np.float64)

    def head_loss(xt):
        trace = {}
        prob = model.forward(xt, trace=trace)
        return losses.hybrid_loss(yt, prob), _relu_signature(trace)

    yield ("model/input", head_loss, x)

    xt_fixed = T.Tensor(x, dtype=np.float64)
    for name in sorted(model.params):
        orig = model.params[name]

        def param_fn(t, _name=name):
            model.params[_name] = t
            try:
                return head_loss(xt_fixed)
            finally:
                model.params[_name] = orig

        yield (f"model/{name}", param_fn, orig.data.copy())


def _relu_signature(trace):
    keys = sorted(k for k in trace if k.endswith(".pre"))
    return (np.concatenate([trace[k] for k in keys], axis=None) > 0).tobytes()


# ---------------------------------------------------------------------------
# suite driver

def run_suite(module="all", seeds=range(20), h=1e-3, tol=1e-4):
    """Run the selected case catalog over the given seeds.

    Returns a list of (case_name, report) in the serial order, also when a
    forked child checked the second half of the seeds (``cores.split_in_two``).
    """
    if module not in ("all", "tensor", "loss", "model"):
        raise ValueError(f"unknown gradcheck module {module!r}")
    seeds = list(seeds)
    catalogs = [cases for key, cases in (("tensor", op_cases), ("loss", loss_cases),
                                         ("model", model_cases))
                if module in ("all", key)]

    def check(lo, hi):
        return [(f"{name}[seed={s}]",
                 gradcheck(f, T.Tensor(np.asarray(point, dtype=np.float64)), h=h, tol=tol))
                for s in seeds[lo:hi] for cases in catalogs for name, f, point in cases(s)]

    return split_in_two(check, len(seeds))
