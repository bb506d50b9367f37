import math
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from clamseg import augment, config, metrics, phantoms, pgm, preprocess, trainer, unetpp
from clamseg.errors import DataError
from clamseg.seeding import derive_rng
from clamseg.unetpp import UnetPPConfig


def rect(h, w, box):
    m = np.zeros((h, w), dtype=bool)
    r0, r1, c0, c1 = box
    m[r0:r1, c0:c1] = True
    return m


def test_dice_examples():
    a = rect(8, 8, (0, 2, 0, 1))  # two pixels
    b = rect(8, 8, (1, 3, 0, 1))  # two pixels, one shared
    assert metrics.dice(a, a) == 1.0
    assert metrics.dice(a, ~a & rect(8, 8, (4, 6, 4, 6))) == 0.0
    assert metrics.dice(a, b) == 0.5
    assert metrics.dice(np.zeros((4, 4), bool), np.zeros((4, 4), bool)) == 1.0


def test_iou_examples():
    a = rect(8, 8, (0, 2, 0, 1))
    b = rect(8, 8, (1, 3, 0, 1))
    assert metrics.iou(a, a) == 1.0
    assert metrics.iou(a, b) == pytest.approx(1.0 / 3.0)
    assert metrics.iou(np.zeros((2, 2), bool), np.zeros((2, 2), bool)) == 1.0


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="differ"):
        metrics.dice(np.zeros((2, 2), bool), np.zeros((3, 3), bool))
    with pytest.raises(ValueError, match="differ"):
        metrics.iou(np.zeros((2, 2), bool), np.zeros((2, 3), bool))


def test_symmetry_and_identity_on_random_pairs():
    rng = derive_rng(5, "metric-pairs")
    for _ in range(1000):
        a = rng.random((6, 6)) < rng.random()
        b = rng.random((6, 6)) < rng.random()
        d = metrics.dice(a, b)
        j = metrics.iou(a, b)
        assert metrics.dice(b, a) == d
        assert metrics.iou(b, a) == j
        assert j <= d + 1e-12
        # iou and dice are linked by j = d / (2 - d)
        assert abs(j - d / (2.0 - d)) < 1e-9


def test_baseline_rate_zero_and_one():
    truth = rect(10, 10, (2, 5, 2, 5))  # 9 of 100 pixels
    assert metrics.random_baseline([truth], 0.0, seed=1, trials=100) == 0.0
    rho = truth.mean()
    want = 2 * rho / (1 + rho)
    got = metrics.random_baseline([truth], 1.0, seed=1, trials=100)
    assert got == pytest.approx(want, abs=1e-12)


def test_baseline_empty_truth_at_rate_zero_scores_one():
    empty = np.zeros((8, 8), dtype=bool)
    assert metrics.random_baseline([empty], 0.0, seed=1, trials=100) == 1.0


def binomial_expectation_oracle(n, t, q, power=1):
    """Exact E[dice ** power] for an n-pixel image with t truth pixels and
    iid predictions firing at rate q."""
    total = 0.0
    for i in range(t + 1):
        pi = math.comb(t, i) * q ** i * (1 - q) ** (t - i)
        for j in range(n - t + 1):
            pj = math.comb(n - t, j) * q ** j * (1 - q) ** (n - t - j)
            denom = i + j + t
            score = 1.0 if denom == 0 else 2.0 * i / denom
            total += pi * pj * score ** power
    return total


def test_baseline_matches_expectation_oracle():
    truth = rect(3, 3, (0, 1, 0, 3))  # 3 of 9 pixels
    for q in (0.2, 0.5, 0.8):
        exact = binomial_expectation_oracle(9, 3, q)
        mc = metrics.random_baseline([truth], q, seed=7, trials=4000)
        assert abs(mc - exact) < 0.02, (q, mc, exact)


def test_baseline_validation_and_determinism():
    truth = rect(4, 4, (0, 2, 0, 2))
    with pytest.raises(ValueError, match="100"):
        metrics.random_baseline([truth], 0.5, trials=99)
    with pytest.raises(ValueError, match="no truth"):
        metrics.random_baseline([], 0.5)
    with pytest.raises(ValueError, match="rate"):
        metrics.random_baseline([truth], 1.5)
    a = metrics.random_baseline([truth], 0.5, seed=3, trials=150)
    b = metrics.random_baseline([truth], 0.5, seed=3, trials=150)
    assert a == b


def test_baseline_lies_within_three_standard_errors_of_the_oracle():
    rng = derive_rng(11, "baseline-truths")
    a, b = rng.random((5, 7)) < 0.4, rng.random((3, 3)) < 0.5
    empty = np.zeros((5, 5), dtype=bool)
    trials = 10_000
    for truths in ([a], [b], [empty], [a, b, empty]):
        for rate in (0.05, 0.3, 0.9):
            moments = [(binomial_expectation_oracle(t.size, int(t.sum()), rate),
                        binomial_expectation_oracle(t.size, int(t.sum()), rate, power=2))
                       for t in truths]
            # each trial draws every truth independently, so the variances add
            mean = sum(m1 for m1, _ in moments) / len(truths)
            var = sum(m2 - m1 * m1 for m1, m2 in moments) / len(truths) ** 2
            se = math.sqrt(var / trials)
            got = metrics.random_baseline(truths, rate, seed=4, trials=trials)
            assert abs(got - mean) <= 3 * se, (len(truths), rate, got, mean, se)


def test_baseline_depends_on_the_seed():
    truth = rect(5, 7, (1, 4, 2, 5))
    assert (metrics.random_baseline([truth], 0.3, seed=1)
            != metrics.random_baseline([truth], 0.3, seed=2))


def checkpointed_state(tmp_path, tile=8):
    cfg = UnetPPConfig(levels=2, input_size=tile, base_channels=2)
    policy = augment.PairPolicy(n_augment=1, n_normal=1, n_cross=1, tile_size=tile,
                                default_eta=0.5)
    opt_config = config.to_optimizer_config(config.RunConfig())
    state = trainer.init_state(cfg, opt_config, policy, seed=3)
    p = str(tmp_path / "model.clam")
    trainer.save_state(state, p)
    return p


def raw_dataset(tmp_path, n=6, size=16):
    out = str(tmp_path / "raw")
    phantoms.generate_phantoms(out, n, 0.5, seed=19,
                               params=phantoms.PhantomParams.easy(size=size),
                               split_fracs=(0.4, 0.0, 0.6))
    return out


def test_evaluate_raw_dataset(tmp_path):
    data = raw_dataset(tmp_path)
    ckpt = checkpointed_state(tmp_path)
    report = metrics.evaluate(ckpt, data, split="test", trials=100)
    assert report["n_images"] >= 2
    assert 0.0 <= report["mean_dice"] <= 1.0
    assert 0.0 <= report["baseline_dice"] <= 1.0
    assert os.path.exists(ckpt + ".eval_test.txt")
    assert os.path.exists(ckpt + ".eval_test.kv")


def test_evaluate_draws_no_weights(tmp_path, monkeypatch):
    data = raw_dataset(tmp_path)
    ckpt = checkpointed_state(tmp_path)
    want = metrics.evaluate(ckpt, data, split="test", trials=100)

    def refuse(*args):
        raise AssertionError(f"drew from seed labels {args}")
    monkeypatch.setattr(unetpp, "derive_rng", refuse)
    monkeypatch.setattr(trainer, "derive_key", refuse)
    assert metrics.evaluate(ckpt, data, split="test", trials=100) == want


def test_evaluate_reports_are_deterministic_and_consistent(tmp_path):
    data = raw_dataset(tmp_path)
    ckpt = checkpointed_state(tmp_path)
    metrics.evaluate(ckpt, data, split="test", trials=100)
    txt1 = Path(ckpt + ".eval_test.txt").read_text()
    kv1 = Path(ckpt + ".eval_test.kv").read_text()
    report = metrics.evaluate(ckpt, data, split="test", trials=100)
    assert Path(ckpt + ".eval_test.txt").read_text() == txt1
    assert Path(ckpt + ".eval_test.kv").read_text() == kv1

    # aggregate lines equal recomputation from the per-image lines
    per = {}
    for line in kv1.splitlines():
        k, v = line.split("=", 1)
        per[k] = v
    image_dices = [float(v) for k, v in per.items()
                   if k.startswith("image.") and k.endswith(".dice")]
    assert len(image_dices) == report["n_images"]
    assert np.mean(image_dices) == pytest.approx(report["mean_dice"], abs=1e-6)


def test_evaluate_preprocessed_dataset_uses_its_hidden_masks(tmp_path):
    raw = raw_dataset(tmp_path, n=6, size=32)
    pre = str(tmp_path / "pre")
    preprocess.preprocess_dataset(raw, pre, mask_mode="external", out_size=16)
    ckpt = checkpointed_state(tmp_path)
    report = metrics.evaluate(ckpt, pre, split="test", trials=100)
    assert report["n_images"] >= 2
    # positive-labeled images keep nonempty transformed truths
    labels = {name: lab for name, lab, _, _ in report["per_image"]}
    assert any(lab == "pos" for lab in labels.values())


def test_evaluate_finds_hidden_masks_after_both_directories_move(tmp_path):
    before = tmp_path / "before"
    os.makedirs(before)
    raw = raw_dataset(before, n=6, size=32)
    preprocess.preprocess_dataset(raw, str(before / "pre"), mask_mode="external", out_size=16)
    ckpt = checkpointed_state(tmp_path)
    want = metrics.evaluate(ckpt, str(before / "pre"), split="test", trials=100)
    after = tmp_path / "after"
    os.rename(before, after)
    got = metrics.evaluate(ckpt, str(after / "pre"), split="test", trials=100)
    assert got["n_images"] == want["n_images"] >= 2
    assert got["per_image"] == want["per_image"]


def test_evaluate_a_tree_preprocessed_from_a_preprocessed_tree(tmp_path):
    raw = raw_dataset(tmp_path, n=6, size=32)
    p1, p2 = str(tmp_path / "p1"), str(tmp_path / "p2")
    preprocess.preprocess_dataset(raw, p1, mask_mode="external", out_size=16)
    preprocess.preprocess_dataset(p1, p2, mask_mode="external", out_size=16)
    ckpt = checkpointed_state(tmp_path)
    want = metrics.evaluate(ckpt, p1, split="test", trials=100)
    got = metrics.evaluate(ckpt, p2, split="test", trials=100)
    assert got["n_images"] == want["n_images"] >= 2
    assert got["per_image"] == want["per_image"]


def test_evaluate_a_preprocessed_tree_after_its_raw_tree_is_deleted(tmp_path):
    raw = raw_dataset(tmp_path, n=6, size=32)
    pre = str(tmp_path / "pre")
    preprocess.preprocess_dataset(raw, pre, mask_mode="external", out_size=16)
    ckpt = checkpointed_state(tmp_path)
    want = metrics.evaluate(ckpt, pre, split="test", trials=100)
    shutil.rmtree(raw)
    got = metrics.evaluate(ckpt, pre, split="test", trials=100)
    assert got["n_images"] >= 2
    assert got == want


def test_evaluate_missing_mask_is_error(tmp_path):
    data = raw_dataset(tmp_path)
    ckpt = checkpointed_state(tmp_path)
    for n in os.listdir(os.path.join(data, "eval_masks")):
        if n.endswith(".pgm"):
            os.remove(os.path.join(data, "eval_masks", n))
    with pytest.raises(DataError, match="missing hidden mask"):
        metrics.evaluate(ckpt, data, split="test", trials=100)
