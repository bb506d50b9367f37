import dataclasses
import os
import re
from pathlib import Path

import numpy as np
import pytest

from clamseg import (augment, checkpoint, cli, config, gradcheck, losses, pgm, phantoms,
                     trainer, unetpp)
from clamseg import tensor as T
from clamseg.errors import DataError, NonFiniteLossError
from clamseg.manifest import Record, manifest_path, write_manifest
from clamseg.seeding import derive_key, derive_rng
from clamseg.unetpp import UnetPP, UnetPPConfig


def tiny_config():
    return UnetPPConfig(levels=2, input_size=8, base_channels=2)


def tiny_policy(**kw):
    args = dict(n_augment=2, n_normal=1, n_cross=1, tile_size=8, default_eta=0.5)
    args.update(kw)
    return augment.PairPolicy(**args)


def opt_config(**settings):
    """The optimizer of a RunConfig with these settings, defaults elsewhere."""
    return config.to_optimizer_config(config.RunConfig(**settings))


def tiny_state(kind="sgd", lr=0.05, seed=5, siamese=False):
    return trainer.init_state(tiny_config(), opt_config(optimizer=kind, lr=lr),
                              tiny_policy(), seed, siamese=siamese)


def phantom_slice(seed=0, size=8, dtype=np.float32):
    # lesion ranges pinned so preset tuning cannot shift the frozen
    # oracle values and finite-difference probe points below
    rng = derive_rng(seed, "phantom", "0000")
    params = phantoms.PhantomParams(size=size, lesion_radius=(0.04, 0.09),
                                    lesion_value=(0.85, 0.95))
    img, _, _, _ = phantoms.make_phantom(rng, params, True)
    return img.astype(dtype)


def pair_of(kind, a, b, eta=1.0):
    return augment.PairSample(kind, a, b, eta, "a.pgm", "b.pgm", (0, 0), {})


def params_bytes(model):
    return b"".join(t.data.tobytes() for _, t in model.parameter_items())


def make_dataset(tmp_path, n=6, size=16, seed=77):
    out = str(tmp_path / "ds")
    phantoms.generate_phantoms(out, n, 0.5, seed=seed,
                               params=phantoms.PhantomParams.easy(size=size),
                               split_fracs=(1.0, 0.0, 0.0))
    return out


# -- optimizer --------------------------------------------------------------

def one_param(val=1.0, grad=0.0):
    t = T.Tensor(np.array([val], dtype=np.float32), requires_grad=True)
    t.grad[0] = grad
    return {"w": t}


def test_sgd_update():
    p = one_param(grad=0.5)
    opt = trainer.Optimizer(opt_config(optimizer="sgd", lr=0.1), p)
    opt.step(opt.params, opt.t + 1)
    assert p["w"].data[0] == pytest.approx(0.95, abs=1e-7)
    assert opt.t == 1


def test_adam_first_step_is_signed_lr():
    p = one_param(grad=0.5)
    opt = trainer.Optimizer(opt_config(), p)
    opt.step(opt.params, opt.t + 1)
    # bias-corrected first step collapses to lr * g / (|g| + eps)
    assert p["w"].data[0] == pytest.approx(0.999, abs=1e-6)


def test_zero_gradient_is_a_no_op():
    for kind in ("sgd", "adam"):
        p = one_param(0.625)
        before = p["w"].data.tobytes()
        opt = trainer.Optimizer(opt_config(optimizer=kind), p)
        opt.step(opt.params, opt.t + 1)
        assert p["w"].data.tobytes() == before


def test_optimizer_validation():
    base = opt_config()
    with pytest.raises(ValueError, match="kind"):
        dataclasses.replace(base, kind="rmsprop").validate()
    with pytest.raises(ValueError, match="learning rate"):
        dataclasses.replace(base, lr=0.0).validate()
    with pytest.raises(ValueError, match="beta2"):
        dataclasses.replace(base, beta2=1.0).validate()
    with pytest.raises(ValueError, match="eps"):
        dataclasses.replace(base, eps=0.0).validate()


# -- train_step -------------------------------------------------------------

def test_symmetric_fixed_point_keeps_models_identical():
    state = tiny_state(kind="sgd", lr=0.1)
    assert params_bytes(state.model_a) == params_bytes(state.model_b)
    sl = phantom_slice()
    pairs = [pair_of("augment", sl, sl.copy()) for _ in range(3)]
    x = T.Tensor(sl[None, None])
    pa = state.model_a.forward(x)
    pb = state.model_b.forward(T.Tensor(sl[None, None]))
    assert pa.data.tobytes() == pb.data.tobytes()
    for _ in range(3):
        m = trainer.train_step(state, pairs)
        assert np.isfinite(m["total_loss"])
        assert params_bytes(state.model_a) == params_bytes(state.model_b)


def test_all_eta_zero_batch_changes_nothing():
    state = tiny_state(kind="adam")
    sl = phantom_slice(1)
    other = phantom_slice(2)
    pairs = [pair_of("augment", sl, other, eta=0.0),
             pair_of("cross", sl, other, eta=0.0)]
    before_a = params_bytes(state.model_a)
    before_b = params_bytes(state.model_b)
    m = trainer.train_step(state, pairs)
    assert m["total_loss"] == 0.0
    assert m["grad_norm"] == 0.0
    assert params_bytes(state.model_a) == before_a
    assert params_bytes(state.model_b) == before_b


def test_metrics_fields_and_polarity_split():
    state = tiny_state()
    pairs = [pair_of("augment", phantom_slice(1), phantom_slice(2)),
             pair_of("normal", phantom_slice(3), phantom_slice(4)),
             pair_of("cross", phantom_slice(5), phantom_slice(6), eta=0.5)]
    m = trainer.train_step(state, pairs)
    assert m["step"] == 1
    for key in ("total_loss", "pos_loss_mean", "neg_loss_mean", "grad_norm"):
        assert np.isfinite(m[key])
    assert m["grad_norm"] > 0
    line = trainer.format_metrics_line(m)
    assert len(line.split("\t")) == 5
    assert line.split("\t")[0] == "1"


def test_empty_batch_rejected():
    with pytest.raises(ValueError, match="empty"):
        trainer.train_step(tiny_state(), [])


def test_non_finite_loss_aborts_with_provenance():
    state = tiny_state()
    for _, t in state.model_a.parameter_items():
        t.data = t.data * np.float32(1e30)
    pairs = [pair_of("augment", phantom_slice(1), phantom_slice(2))]
    with pytest.raises(NonFiniteLossError) as exc:
        trainer.train_step(state, pairs)
    prov = exc.value.provenance
    assert prov and prov[0]["kind"] == "augment"
    assert prov[0]["source_a"] == "a.pgm"


def test_non_finite_gradient_rejected_before_update(monkeypatch):
    state = tiny_state(kind="adam")
    pairs = [pair_of("augment", phantom_slice(1), phantom_slice(2)),
             pair_of("cross", phantom_slice(3), phantom_slice(4), eta=0.5)]
    before_a, before_b = params_bytes(state.model_a), params_bytes(state.model_b)
    backward = T.backward

    def poisoned(loss):
        out = backward(loss)
        state.model_b.params["head_1.bias"].grad[0] = np.inf
        return out

    monkeypatch.setattr(T, "backward", poisoned)
    with pytest.raises(NonFiniteLossError, match="gradient at step 0.*b/head_1.bias") as exc:
        trainer.train_step(state, pairs)
    assert [p["kind"] for p in exc.value.provenance] == ["augment", "cross"]
    assert exc.value.provenance[1]["eta"] == 0.5
    assert state.step == 0 and state.optimizer.t == 0
    assert params_bytes(state.model_a) == before_a
    assert params_bytes(state.model_b) == before_b
    assert all(not m.any() for m in state.optimizer.m.values())


def test_pair_loss_terms_per_pair_values_match_single_pairs():
    state = tiny_state()

    def loss(pairs):
        # twin b's half plus twin a's, as a training step adds them
        cross, etas = [p.kind == "cross" for p in pairs], [p.eta for p in pairs]
        pa = trainer._forward(state.model_a, [p.slice_a for p in pairs])
        pb = trainer._forward(state.model_b, [p.slice_b for p in pairs])
        terms = (trainer.pair_loss_terms(pa.data, pb, cross, etas)
                 + trainer.pair_loss_terms(pb.data, pa, cross, etas))
        return losses.pair_total(T.Tensor(terms), etas)

    pairs = [pair_of("augment", phantom_slice(1), phantom_slice(2), eta=0.75),
             pair_of("cross", phantom_slice(3), phantom_slice(4), eta=0.4),
             pair_of("normal", phantom_slice(5), phantom_slice(6), eta=1.0)]
    total, per = loss(pairs)
    single = [loss([p])[1][0] for p in pairs]
    np.testing.assert_allclose(per, single, rtol=1e-6)
    assert total.item() == pytest.approx(0.75 * per[0] + 0.4 * per[1] + per[2], rel=1e-5)


# -- gradients vs finite differences ---------------------------------------

def pair_batch(pairs, attr, dtype):
    return T.Tensor(np.stack([getattr(p, attr) for p in pairs]).astype(dtype)[:, None])


def capture_targets(model_a, model_b, pairs):
    """Forward-only (P_A, P_B) batch arrays used as frozen targets."""
    with T.no_grad():
        return tuple(m.forward(pair_batch(pairs, attr, m.dtype)).data
                     for m, attr in ((model_a, "slice_a"), (model_b, "slice_b")))


def frozen_pair_loss(model_a, model_b, pairs, frozen):
    """(total pair loss, relu signature) with the target branches fixed to the
    captured ``frozen`` (P_A, P_B) arrays instead of the live maps.

    The gradient equals that of the live loss (the stop-gradient branch
    contributes none), but only the frozen form gives a finite-difference
    probe a function of the probed parameter alone.
    """
    trace_a, trace_b = {}, {}
    pa = model_a.forward(pair_batch(pairs, "slice_a", model_a.dtype), trace=trace_a)
    pb = model_b.forward(pair_batch(pairs, "slice_b", model_b.dtype), trace=trace_b)
    cross = [p.kind == "cross" for p in pairs]
    total, _ = losses.pair_total(losses.pair_half_terms(frozen[0], pb, cross)
                                 + losses.pair_half_terms(frozen[1], pa, cross),
                                 [p.eta for p in pairs])
    return total, gradcheck._relu_signature(trace_a) + gradcheck._relu_signature(trace_b)


def frozen_loss_fn(model, name, model_a, model_b, pairs, frozen):
    orig = model.params[name]

    def f(t):
        model.params[name] = t
        try:
            return frozen_pair_loss(model_a, model_b, pairs, frozen)
        finally:
            model.params[name] = orig

    return f, orig


@pytest.mark.parametrize("kind", ["augment", "cross"])
def test_single_pair_gradient_matches_finite_differences(kind):
    cfg = tiny_config()
    ma = UnetPP(cfg, seed=31, dtype=np.float64)
    mb = UnetPP(cfg, seed=32, dtype=np.float64)
    sa = phantom_slice(11, dtype=np.float64)
    sb, _ = augment.blur(sa, derive_rng(12, "fd"))
    pairs = [pair_of(kind, sa, sb, eta=0.75)]
    frozen = capture_targets(ma, mb, pairs)

    checked = skipped = 0
    for model in (ma, mb):
        for name in sorted(model.params):
            f, point = frozen_loss_fn(model, name, ma, mb, pairs, frozen)
            report = gradcheck.gradcheck(
                f, T.Tensor(point.data.copy(), requires_grad=True, dtype=np.float64))
            assert report["pass"], f"{name}: {report}"
            checked += report["n_checked"]
            skipped += report["n_skipped"]
    assert checked > 300
    # relu kink skips must stay a small minority
    assert skipped < 0.2 * (checked + skipped)


def test_mixed_pair_batch_gradient_matches_finite_differences():
    # augment and cross pairs with distinct etas in one batch exercise the
    # per-sample complement and the per-sample weighting
    cfg = tiny_config()
    ma = UnetPP(cfg, seed=33, dtype=np.float64)
    mb = UnetPP(cfg, seed=34, dtype=np.float64)
    sa = phantom_slice(15, dtype=np.float64)
    sb, _ = augment.blur(sa, derive_rng(16, "fd"))
    sc = phantom_slice(17, dtype=np.float64)
    pairs = [pair_of("augment", sa, sb, eta=0.75), pair_of("cross", sb, sc, eta=0.4)]
    frozen = capture_targets(ma, mb, pairs)
    assert frozen[0].shape == frozen[1].shape == (2, 2, 8, 8)

    checked = skipped = 0
    for model in (ma, mb):
        for name in sorted(model.params):
            f, point = frozen_loss_fn(model, name, ma, mb, pairs, frozen)
            report = gradcheck.gradcheck(
                f, T.Tensor(point.data.copy(), requires_grad=True, dtype=np.float64),
                tol=1e-4)
            assert report["pass"], f"{name}: {report}"
            checked += report["n_checked"]
            skipped += report["n_skipped"]
    assert checked > 300
    assert skipped < 0.2 * (checked + skipped)


def test_frozen_targets_reproduce_live_loss_value():
    cfg = tiny_config()
    ma = UnetPP(cfg, seed=41, dtype=np.float64)
    mb = UnetPP(cfg, seed=42, dtype=np.float64)
    sa = phantom_slice(13, dtype=np.float64)
    sb = phantom_slice(14, dtype=np.float64)
    for kind in ("augment", "cross"):
        pairs = [pair_of(kind, sa, sb, eta=1.0)]
        frozen = capture_targets(ma, mb, pairs)
        # the two halves of a training step, each against the other's live map
        cross = [kind == "cross"]
        pa = ma.forward(pair_batch(pairs, "slice_a", ma.dtype))
        pb = mb.forward(pair_batch(pairs, "slice_b", mb.dtype))
        terms = (trainer.pair_loss_terms(pa.data, pb, cross, [1.0])
                 + trainer.pair_loss_terms(pb.data, pa, cross, [1.0]))
        live, _ = losses.pair_total(T.Tensor(terms), [1.0])
        froz, _ = frozen_pair_loss(ma, mb, pairs, frozen)
        assert froz.item() == pytest.approx(live.item(), abs=1e-12)


# -- state round trips ------------------------------------------------------

def test_save_load_save_byte_identical(tmp_path):
    state = tiny_state(kind="adam")
    pairs = [pair_of("augment", phantom_slice(1), phantom_slice(2))]
    trainer.train_step(state, pairs)
    p1, p2 = str(tmp_path / "a.clam"), str(tmp_path / "b.clam")
    trainer.save_state(state, p1)
    s2 = trainer.load_state(p1)
    trainer.save_state(s2, p2)
    assert Path(p1).read_bytes() == Path(p2).read_bytes()
    assert s2.step == state.step
    assert s2.optimizer.t == state.optimizer.t
    assert params_bytes(s2.model_a) == params_bytes(state.model_a)
    assert params_bytes(s2.model_b) == params_bytes(state.model_b)


def test_loaded_state_trains_identically(tmp_path):
    sa = tiny_state(kind="adam", seed=9)
    pairs = [pair_of("augment", phantom_slice(1), phantom_slice(2)),
             pair_of("cross", phantom_slice(3), phantom_slice(4), eta=0.5)]
    trainer.train_step(sa, pairs)
    p = str(tmp_path / "s.clam")
    trainer.save_state(sa, p)
    sb = trainer.load_state(p)
    ma = trainer.train_step(sa, pairs)
    mb = trainer.train_step(sb, pairs)
    assert ma == mb
    assert params_bytes(sa.model_a) == params_bytes(sb.model_a)


def test_state_roundtrip_preserves_forward_bits(tmp_path):
    state = tiny_state(kind="adam", seed=21)
    trainer.train_step(state, [pair_of("cross", phantom_slice(1), phantom_slice(2))])
    p = str(tmp_path / "s.clam")
    trainer.save_state(state, p)
    back = trainer.load_state(p)
    x = T.Tensor(np.stack([phantom_slice(3), phantom_slice(4)])[:, None])
    for model, loaded in ((state.model_a, back.model_a), (state.model_b, back.model_b)):
        assert loaded.forward(x).data.tobytes() == model.forward(x).data.tobytes()


@pytest.mark.parametrize("kind, siamese, depth", [
    ("sgd", False, None), ("adam", False, None), ("sgd", True, None), ("adam", False, 1),
], ids=["sgd", "adam", "siamese", "pruned"])
def test_load_prune_and_infer_draw_nothing(tmp_path, monkeypatch, kind, siamese, depth):
    cfg = UnetPPConfig(levels=3, input_size=8, base_channels=2)
    state = trainer.init_state(cfg, opt_config(optimizer=kind), tiny_policy(), 5,
                               siamese=siamese)
    trainer.train_step(state, [pair_of("cross", phantom_slice(1), phantom_slice(2))])

    def refuse(*args):
        raise AssertionError(f"drew from seed labels {args}")
    monkeypatch.setattr(unetpp, "derive_rng", refuse)
    monkeypatch.setattr(trainer, "derive_key", refuse)
    if depth is not None:
        state = trainer.prune_state(state, depth)
    p1, p2 = str(tmp_path / "a.clam"), str(tmp_path / "b.clam")
    trainer.save_state(state, p1)
    back = trainer.load_state(p1)
    trainer.save_state(back, p2)
    assert Path(p1).read_bytes() == Path(p2).read_bytes()
    assert (back.model_b is back.model_a) is siamese
    img = phantom_slice(3, size=16)
    assert np.array_equal(trainer.infer(p1, img), trainer.infer_state(state, img))


def _resaved(src, dst, edit):
    """Copy checkpoint src to dst with its name -> array map changed by edit."""
    text, tensors = checkpoint.load_checkpoint(src)
    edit(tensors)
    checkpoint.save_checkpoint(dst, text, tensors)
    return dst


def test_load_state_rejects_bad_names_and_shapes(tmp_path):
    src = str(tmp_path / "s.clam")
    trainer.save_state(tiny_state(kind="adam"), src)
    bad = str(tmp_path / "bad.clam")
    cases = [
        ("model_a/node_9_9.conv1.weight", lambda t, n: t.update({n: np.zeros(3, np.float32)}),
         "unexpected tensor"),
        ("model_a/head_1.bias", lambda t, n: t.pop(n), "missing tensor"),
        ("opt/v/b/head_1.bias", lambda t, n: t.pop(n), "missing tensor"),
        ("model_b/node_0_1.conv2.weight", lambda t, n: t.update({n: t[n][:1]}), "has shape"),
        ("opt/m/a/head_1.weight", lambda t, n: t.update({n: t[n].ravel()}), "has shape"),
    ]
    for name, edit, what in cases:
        _resaved(src, bad, lambda t: edit(t, name))
        with pytest.raises(DataError, match=re.escape(repr(name))) as e:
            trainer.load_state(bad)
        assert what in str(e.value)


def test_every_truncated_checkpoint_is_a_data_error(tmp_path):
    src = tmp_path / "s.clam"
    trainer.save_state(tiny_state(siamese=True), str(src))
    raw = src.read_bytes()
    bad = tmp_path / "bad.clam"
    for n in range(len(raw)):
        bad.write_bytes(raw[:n])
        with pytest.raises(DataError):
            trainer.load_state(str(bad))


@pytest.mark.parametrize("kind, siamese, stray", [
    ("sgd", True, "model_b/node_0_0.conv1.weight"),
    ("sgd", False, "opt/m/a/node_0_0.conv1.weight"),
    ("adam", False, "zzz"),
], ids=["model_b-in-siamese", "moment-in-sgd", "other-name"])
def test_stray_tensor_is_a_data_error(tmp_path, capsys, kind, siamese, stray):
    # a stray tensor is refused even when its shape fits a real parameter
    src = str(tmp_path / "s.clam")
    trainer.save_state(tiny_state(kind=kind, siamese=siamese), src)
    bad = _resaved(src, str(tmp_path / "bad.clam"),
                   lambda t: t.update({stray: t["model_a/node_0_0.conv1.weight"]}))
    with pytest.raises(DataError, match=f"unexpected tensor {re.escape(repr(stray))}"):
        trainer.load_state(bad)
    image = str(tmp_path / "img.pgm")
    pgm.write_unit(image, phantom_slice(3, size=16))
    assert cli.main(["infer", "--ckpt", bad, "--image", image,
                     "--out", str(tmp_path / "m.pgm")]) == 2
    assert stray in capsys.readouterr().err


# -- run_training ----------------------------------------------------------

def run_args(data, out, steps=4, seed=123):
    return dict(data_dir=data, model_config=tiny_config(),
                opt_config=opt_config(),
                policy=tiny_policy(), steps=steps, seed=seed, out_path=out)


def test_run_training_deterministic(tmp_path):
    data = make_dataset(tmp_path)
    o1, o2 = str(tmp_path / "r1.clam"), str(tmp_path / "r2.clam")
    s1, m1 = trainer.run_training(**run_args(data, o1))
    s2, m2 = trainer.run_training(**run_args(data, o2))
    assert Path(o1).read_bytes() == Path(o2).read_bytes()
    assert Path(o1 + ".log").read_text() == Path(o2 + ".log").read_text()
    assert m1 == m2
    assert s1.step == 4
    log_lines = Path(o1 + ".log").read_text().splitlines()
    assert len(log_lines) == 4
    assert log_lines[0].split("\t")[0] == "1"


def test_run_training_seed_matters(tmp_path):
    data = make_dataset(tmp_path)
    o1, o2 = str(tmp_path / "r1.clam"), str(tmp_path / "r2.clam")
    trainer.run_training(**run_args(data, o1, seed=1))
    trainer.run_training(**run_args(data, o2, seed=2))
    assert Path(o1).read_bytes() != Path(o2).read_bytes()


def test_resume_matches_single_run(tmp_path):
    data = make_dataset(tmp_path)
    full = str(tmp_path / "full.clam")
    trainer.run_training(**run_args(data, full, steps=6))
    half = str(tmp_path / "half.clam")
    trainer.run_training(**run_args(data, half, steps=3))
    resumed = str(tmp_path / "res.clam")
    trainer.run_training(**dict(run_args(data, resumed, steps=6), resume_from=half))
    assert Path(full).read_bytes() == Path(resumed).read_bytes()
    assert Path(full + ".log").read_bytes() == Path(resumed + ".log").read_bytes()


def test_resume_in_place_after_a_crash_matches_single_run(tmp_path, monkeypatch):
    data = make_dataset(tmp_path)
    full = str(tmp_path / "full.clam")
    trainer.run_training(**run_args(data, full, steps=6))
    out = str(tmp_path / "r.clam")

    def crash(state, batch):
        raise RuntimeError("killed")

    with monkeypatch.context() as mp:
        mp.setattr(trainer, "calibrate_marker_channel", crash)
        with pytest.raises(RuntimeError):
            trainer.run_training(**run_args(data, out, steps=3), checkpoint_every=2)
    # the resume point is step 2; the streamed log already holds step 3
    assert trainer.load_state(out).step == 2
    assert len(Path(out + ".log").read_text().splitlines()) == 3
    trainer.run_training(**dict(run_args(data, out, steps=6), resume_from=out))
    assert Path(full).read_bytes() == Path(out).read_bytes()
    assert Path(full + ".log").read_bytes() == Path(out + ".log").read_bytes()


def test_resume_zero_steps_resaves_identically(tmp_path):
    data = make_dataset(tmp_path)
    out = str(tmp_path / "r.clam")
    trainer.run_training(**run_args(data, out, steps=3))
    again = str(tmp_path / "again.clam")
    trainer.run_training(**dict(run_args(data, again, steps=3), resume_from=out))
    assert Path(out).read_bytes() == Path(again).read_bytes()
    assert Path(out + ".log").read_bytes() == Path(again + ".log").read_bytes()


def test_resume_from_a_corrupt_log_is_a_data_error(tmp_path):
    data = make_dataset(tmp_path)
    out = str(tmp_path / "r.clam")
    trainer.run_training(**run_args(data, out, steps=2))
    with open(out + ".log", "a", encoding="ascii") as fh:
        fh.write("garbage\n")
    with pytest.raises(DataError, match="not a metrics log"):
        trainer.run_training(**dict(run_args(data, str(tmp_path / "o.clam"), steps=3),
                                    resume_from=out))


@pytest.mark.parametrize("text, missing", [
    ("1\ta\n3\tc\n", 2),
    ("1\ta\n2\tb\n", 3),
    ("1\ta\n1\ta\n2\tb\n3\tc\n", 2),
    ("1\ta\n2\tb\n3\tc", 3),
], ids=["gap", "short", "duplicate", "cut"])
def test_carried_log_must_hold_steps_1_to_k_in_order(tmp_path, text, missing):
    log = tmp_path / "r.clam.log"
    log.write_text(text)
    with pytest.raises(DataError, match=f"step {missing} is missing"):
        trainer._carried_log_lines(str(log), 3)


@pytest.mark.parametrize("text, step, kept", [
    ("", 3, 0),
    ("4\ta\n5\tb\n", 3, 0),
    ("3\ta\n4\tb\n5\tc\n", 4, 2),
], ids=["empty", "after", "from-3"])
def test_carried_log_may_start_after_a_pruned_checkpoint(tmp_path, text, step, kept):
    log = tmp_path / "r.clam.log"
    log.write_text(text)
    assert trainer._carried_log_lines(str(log), step) == text.splitlines(keepends=True)[:kept]


@pytest.mark.parametrize("text, step, match", [
    ("5\ta\n", 3, "starts at step 5"),
    ("0\ta\n1\tb\n", 1, "starts at step 0"),
    ("3\ta\n5\tb\n", 4, "step 4 is missing"),
], ids=["late", "zero", "gap"])
def test_carried_log_from_a_later_step_must_still_reach_k(tmp_path, text, step, match):
    log = tmp_path / "r.clam.log"
    log.write_text(text)
    with pytest.raises(DataError, match=match):
        trainer._carried_log_lines(str(log), step)


def test_a_run_from_a_pruned_checkpoint_resumes_twice_to_the_same_bytes(tmp_path, monkeypatch):
    data = make_dataset(tmp_path)
    step2 = str(tmp_path / "step2.clam")
    trainer.run_training(**run_args(data, step2, steps=2))
    pruned = str(tmp_path / "pruned.clam")
    trainer.save_state(trainer.prune_state(trainer.load_state(step2), 1), pruned)
    full = str(tmp_path / "full.clam")
    trainer.run_training(**dict(run_args(data, full, steps=6), resume_from=pruned))
    assert Path(full + ".log").read_text().splitlines()[0].split("\t")[0] == "3"

    def crash(state, batch):
        raise RuntimeError("killed")

    out = str(tmp_path / "r.clam")
    with monkeypatch.context() as mp:
        mp.setattr(trainer, "calibrate_marker_channel", crash)
        with pytest.raises(RuntimeError):
            trainer.run_training(**dict(run_args(data, out, steps=5), resume_from=pruned),
                                 checkpoint_every=2)
    # the resume point is step 4; the log holds steps 3..5
    assert trainer.load_state(out).step == 4
    assert len(Path(out + ".log").read_text().splitlines()) == 3
    trainer.run_training(**dict(run_args(data, out, steps=6), resume_from=out))
    assert Path(full).read_bytes() == Path(out).read_bytes()
    assert Path(full + ".log").read_bytes() == Path(out + ".log").read_bytes()


def test_resume_below_checkpoint_step_rejected(tmp_path):
    data = make_dataset(tmp_path)
    out = str(tmp_path / "r.clam")
    trainer.run_training(**run_args(data, out, steps=3))
    with pytest.raises(ValueError, match="below checkpoint"):
        trainer.run_training(**dict(run_args(data, out, steps=2), resume_from=out))


def test_periodic_checkpointing(tmp_path):
    data = make_dataset(tmp_path)
    out = str(tmp_path / "r.clam")
    state, _ = trainer.run_training(**run_args(data, out, steps=4),
                                    checkpoint_every=2)
    assert trainer.load_state(out).step == 4
    assert state.marker_channel in (0, 1)


def test_training_rejects_hidden_mask_paths(tmp_path):
    data = make_dataset(tmp_path)
    recs = [Record("eval_masks/img_0000.pgm", "pos")]
    write_manifest(manifest_path(data, "train"), recs)
    with pytest.raises(DataError, match="hidden"):
        trainer.run_training(**run_args(data, str(tmp_path / "o.clam")))


def test_mismatched_tile_and_input_size_rejected():
    with pytest.raises(ValueError, match="tile size"):
        trainer.init_state(tiny_config(), opt_config(),
                           tiny_policy(tile_size=16), seed=1)


def test_twins_start_equal_but_unshared():
    state = trainer.init_state(tiny_config(), opt_config(optimizer="sgd", lr=0.05),
                               tiny_policy(), 5)
    drawn = UnetPP(tiny_config(), seed=derive_key(5, "init"))
    assert state.model_a is not state.model_b
    for model in (state.model_a, state.model_b):
        assert model.truncated is False
        assert params_bytes(model) == params_bytes(drawn)
    for (name, a), (_, b) in zip(state.model_a.parameter_items(), state.model_b.parameter_items()):
        assert not np.shares_memory(a.data, b.data), name
        assert not np.shares_memory(a.grad, b.grad), name


def test_siamese_flag_shares_weights(tmp_path):
    state = tiny_state(kind="sgd", siamese=True)
    assert state.model_a is state.model_b
    pairs = [pair_of("augment", phantom_slice(1), phantom_slice(2))]
    trainer.train_step(state, pairs)
    p = str(tmp_path / "s.clam")
    trainer.save_state(state, p)
    back = trainer.load_state(p)
    assert back.model_a is back.model_b
    assert params_bytes(back.model_a) == params_bytes(state.model_a)


@pytest.mark.parametrize("siamese", [False, True])
def test_prune_state_keeps_moments_step_and_sharing(siamese):
    cfg = UnetPPConfig(levels=3, input_size=8, base_channels=2)
    state = trainer.init_state(cfg, opt_config(), tiny_policy(), 5, siamese=siamese)
    pairs = [pair_of("augment", phantom_slice(1), phantom_slice(2)),
             pair_of("cross", phantom_slice(3), phantom_slice(4), eta=0.5)]
    for _ in range(2):
        trainer.train_step(state, pairs)
    state.marker_channel = 0
    pruned = trainer.prune_state(state, 1)
    old, new = state.optimizer, pruned.optimizer
    assert pruned.step == new.t == state.step == 2
    assert (pruned.model_b is pruned.model_a) is siamese
    assert pruned.marker_channel == 0
    kept = {f"{tag}/{n}": t for tag, m in pruned.models() for n, t in m.parameter_items()}
    assert 0 < len(kept) < len(old.params)
    assert set(new.m) == set(new.v) == set(kept)
    for key, t in kept.items():
        assert new.params[key] is t
        for slot in ("m", "v"):
            moment, parent = getattr(new, slot)[key], getattr(old, slot)[key]
            assert moment.tobytes() == parent.tobytes(), (slot, key)
            assert not np.shares_memory(moment, parent), (slot, key)
    assert any(new.m[key].any() for key in kept)
    assert trainer.train_step(pruned, pairs)["step"] == 3


# -- inference --------------------------------------------------------------

def test_infer_shapes_and_threshold(tmp_path):
    state = tiny_state()
    img = phantom_slice(3, size=16)
    probs = trainer.stitch_probs(state, img)
    assert probs.shape == (2, 16, 16)
    # untrained model: probabilities stay strictly inside (0, 1)
    assert probs.min() > 0.0 and probs.max() < 1.0
    assert np.allclose(probs.sum(axis=0), 1.0, atol=1e-5)
    mask = trainer.infer_state(state, img)
    assert mask.dtype == bool and mask.shape == (16, 16)
    p = str(tmp_path / "c.clam")
    trainer.save_state(state, p)
    mask2 = trainer.infer(p, img)
    assert np.array_equal(mask, mask2)


def test_stitch_probs_matches_per_tile_forward():
    state = tiny_state(seed=8)
    img = phantom_slice(5, size=24)
    probs = trainer.stitch_probs(state, img)
    for (r, c), sl in augment.tile(img, 8):
        alone = state.model_a.forward(T.Tensor(sl[None, None])).data[0]
        assert probs[:, r * 8:(r + 1) * 8, c * 8:(c + 1) * 8].tobytes() == alone.tobytes()


def test_stitch_probs_records_no_tape(monkeypatch):
    state = tiny_state()
    outs = []
    forward = UnetPP.forward

    def keep(self, x, **kw):
        out = forward(self, x, **kw)
        outs.append(out)
        return out

    monkeypatch.setattr(UnetPP, "forward", keep)
    trainer.stitch_probs(state, phantom_slice(3, size=16))
    assert len(outs) == 1 and outs[0].data.shape[0] == 4
    assert outs[0]._node is None


def test_infer_rejects_bad_geometry():
    state = tiny_state()
    with pytest.raises(DataError, match="divide"):
        trainer.stitch_probs(state, np.zeros((12, 12), dtype=np.float32))
    with pytest.raises(DataError, match="square"):
        trainer.stitch_probs(state, np.zeros((16, 8), dtype=np.float32))
