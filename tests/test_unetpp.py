"""Lattice construction, forward shapes, pruning identity, init determinism."""

import numpy as np
import pytest

from clamseg import gradcheck as gc
from clamseg import tensor as T
from clamseg.unetpp import UnetPP, UnetPPConfig, default_kernel_schedule


def small_cfg(**kw):
    args = dict(levels=2, input_size=8, base_channels=2)
    args.update(kw)
    return UnetPPConfig(**args)


def rand_input(rng, size, dtype=np.float32):
    return T.Tensor(rng.uniform(0, 1, (1, 1, size, size)).astype(dtype))


def test_default_kernel_schedule():
    assert default_kernel_schedule(5) == [3, 3, 5, 5, 7]
    assert default_kernel_schedule(2) == [3, 3]
    assert default_kernel_schedule(7) == [3, 3, 5, 5, 7, 7, 9]


def test_config_validation():
    with pytest.raises(ValueError):
        UnetPPConfig(levels=1, input_size=8, base_channels=2)
    with pytest.raises(ValueError):
        UnetPPConfig(levels=4, input_size=20, base_channels=2)  # 20 not divisible by 8
    with pytest.raises(ValueError):
        small_cfg(kernel_schedule=[3])
    with pytest.raises(ValueError):
        small_cfg(kernel_schedule=[3, 4])
    with pytest.raises(ValueError):
        small_cfg(kernel_schedule=[5, 3])
    with pytest.raises(ValueError):
        small_cfg(repeat_levels=[2])
    with pytest.raises(ValueError):
        small_cfg(heads=[2])
    with pytest.raises(ValueError):
        small_cfg(heads=[])


def test_shape_table_followss_doubling_halving_rule():
    cfg = UnetPPConfig(levels=5, input_size=256, base_channels=16)
    model = UnetPP(cfg, seed=0)
    shape_table = {(i, j): (cfg.channels(i), cfg.side(i)) for i, j in model.node_plan}
    assert shape_table[(0, 0)] == (16, 256)
    assert shape_table[(4, 0)] == (256, 16)
    assert shape_table[(2, 1)] == (64, 64)
    assert len(model.node_plan) == 15  # L(L+1)/2


def test_smallest_lattice_nodes_and_head():
    cfg = UnetPPConfig(levels=2, input_size=4, base_channels=1)
    model = UnetPP(cfg, seed=0)
    assert set(model.node_plan) == {(0, 0), (1, 0), (0, 1)}
    assert set(model.head_plan) == {1}


def test_l2_has_fourteen_named_tensors():
    model = UnetPP(small_cfg(), seed=0)
    names = sorted(model.params)
    assert len(names) == 14
    assert names == [
        "head_1.bias", "head_1.weight",
        "node_0_0.conv1.bias", "node_0_0.conv1.weight",
        "node_0_0.conv2.bias", "node_0_0.conv2.weight",
        "node_0_1.conv1.bias", "node_0_1.conv1.weight",
        "node_0_1.conv2.bias", "node_0_1.conv2.weight",
        "node_1_0.conv1.bias", "node_1_0.conv1.weight",
        "node_1_0.conv2.bias", "node_1_0.conv2.weight",
    ]


def test_channel_doubling_through_stride2_conv():
    # level 0 at base 16: stride-1 conv keeps 16 channels at full size, the
    # stride-2 second conv doubles to 32 at half size
    cfg = UnetPPConfig(levels=2, input_size=8, base_channels=16)
    model = UnetPP(cfg, seed=1)
    trace = {}
    model.forward(rand_input(np.random.default_rng(0), 8), trace=trace)
    assert trace["node_0_0.conv1.pre"].shape == (1, 16, 8, 8)
    assert trace["node_0_0.conv2.pre"].shape == (1, 32, 4, 4)


def test_forward_softmax_output_and_debug_shapes():
    cfg = UnetPPConfig(levels=3, input_size=16, base_channels=2)
    model = UnetPP(cfg, seed=3)
    trace = {}
    out = model.forward(rand_input(np.random.default_rng(1), 16), trace=trace)
    assert out.shape == (1, 2, 16, 16)
    np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-6)
    assert out.data.min() > 0 and out.data.max() < 1
    # a node's output is the relu of its last stride-1 conv
    assert len(model.node_plan) == 6
    for (i, j), convs in model.node_plan.items():
        c, s = cfg.channels(i), cfg.side(i)
        assert trace[convs[-1].name + ".pre"].shape == (1, c, s, s), (i, j)


def test_depth_limits_evaluated_nodes():
    cfg = UnetPPConfig(levels=5, input_size=16, base_channels=1)
    model = UnetPP(cfg, seed=4)
    trace = {}
    model.forward(rand_input(np.random.default_rng(2), 16), depth=2, trace=trace)
    nodes = {tuple(int(v) for v in key.split(".")[0].split("_")[1:])
             for key in trace if key.startswith("node_")}
    assert nodes == {(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0)}
    assert "head_2.prob" in trace


@pytest.mark.parametrize("repeat", [(), (1, 3)])
def test_pruning_bit_identity(repeat):
    cfg = UnetPPConfig(levels=5, input_size=16, base_channels=1, repeat_levels=repeat)
    model = UnetPP(cfg, seed=5)
    rng = np.random.default_rng(6)
    for d in (1, 2, 3, 4):
        pruned = model.prune(d)
        for _ in range(10):
            x = rand_input(rng, 16)
            full = model.forward(x, depth=d)
            sub = pruned.forward(x, depth=d)
            assert full.data.tobytes() == sub.data.tobytes()


def test_pruned_model_drops_unreachable_parameters():
    model = UnetPP(UnetPPConfig(levels=3, input_size=8, base_channels=2), seed=7)
    pruned = model.prune(1)
    assert set(pruned.params) <= set(model.params)
    assert "node_2_0.conv1.weight" not in pruned.params
    assert "node_1_0.conv2.weight" not in pruned.params  # downsampler dropped
    assert pruned.config.levels == 2
    deeper = pruned.prune(1)
    x = rand_input(np.random.default_rng(3), 8)
    assert deeper.forward(x, 1).data.tobytes() == model.forward(x, 1).data.tobytes()


def test_seeded_init_is_reproducible_and_seed_sensitive():
    a = UnetPP(small_cfg(), seed=11)
    b = UnetPP(small_cfg(), seed=11)
    c = UnetPP(small_cfg(), seed=12)
    for name, t in a.parameter_items():
        assert t.data.tobytes() == b.params[name].data.tobytes()
    assert any(a.params[n].data.tobytes() != c.params[n].data.tobytes()
               for n in a.params if n.endswith("weight"))


def test_he_init_scale_and_zero_biases():
    cfg = UnetPPConfig(levels=2, input_size=8, base_channels=32)
    model = UnetPP(cfg, seed=13)
    w = model.params["node_1_0.conv1.weight"].data  # fan_in = 64*9
    assert w.std() == pytest.approx(np.sqrt(2.0 / (64 * 9)), rel=0.1)
    for name, t in model.parameter_items():
        if name.endswith("bias"):
            np.testing.assert_array_equal(t.data, 0.0)


def test_repeat_level_adds_same_dimension_block():
    cfg = UnetPPConfig(levels=3, input_size=8, base_channels=2, repeat_levels=[1])
    model = UnetPP(cfg, seed=8)
    assert "node_1_0.conv2.weight" in model.params
    assert "node_1_0.conv3.weight" in model.params
    trace = {}
    model.forward(rand_input(np.random.default_rng(4), 8), trace=trace)
    # two consecutive stride-1 blocks at level 1 dims, then the downsampler
    assert trace["node_1_0.conv1.pre"].shape == (1, 4, 4, 4)
    assert trace["node_1_0.conv2.pre"].shape == (1, 4, 4, 4)
    assert trace["node_1_0.conv3.pre"].shape == (1, 8, 2, 2)
    plain = UnetPP(UnetPPConfig(levels=3, input_size=8, base_channels=2), seed=8)
    assert len(model.params) == len(plain.params) + 2


def test_repeat_seed_draws_levels_deterministically():
    a = UnetPPConfig(levels=5, input_size=16, base_channels=1, repeat_seed=7)
    b = UnetPPConfig(levels=5, input_size=16, base_channels=1, repeat_seed=7)
    assert a.repeat_levels == b.repeat_levels
    assert a.repeat_levels <= set(range(5))
    draws = {frozenset(UnetPPConfig(levels=5, input_size=16, base_channels=1,
                                    repeat_seed=s).repeat_levels) for s in range(8)}
    assert len(draws) > 1


def test_forward_input_validation():
    model = UnetPP(small_cfg(), seed=0)
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError):
        model.forward(T.Tensor(rng.uniform(0, 1, (1, 1, 4, 4)).astype(np.float32)))
    with pytest.raises(ValueError):
        model.forward(T.Tensor(rng.uniform(0, 1, (1, 2, 8, 8)).astype(np.float32)))
    with pytest.raises(ValueError):
        model.forward(rand_input(rng, 8), depth=0)
    with pytest.raises(ValueError):
        model.forward(rand_input(rng, 8), depth=5)
    with pytest.raises(ValueError):
        model.forward(rand_input(rng, 8, dtype=np.float64))


def test_parameter_items_sorted():
    model = UnetPP(small_cfg(), seed=0)
    names = [n for n, _ in model.parameter_items()]
    assert names == sorted(names)


def test_model_gradcheck_small_sample():
    # two seeds here; the acceptance suite runs the full twenty
    results = gc.run_suite(module="model", seeds=range(2))
    failures = [(n, r) for n, r in results if not r["pass"]]
    assert not failures, failures[:3]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_batched_forward_matches_single_samples_bitwise(dtype):
    model = UnetPP(small_cfg(levels=3, input_size=16, base_channels=3, repeat_levels=[1]),
                   seed=6, dtype=dtype)
    x = np.random.default_rng(8).uniform(0, 1, (5, 1, 16, 16)).astype(dtype)
    for depth in (1, 2):
        batched = model.forward(T.Tensor(x), depth=depth).data
        assert batched.shape == (5, 2, 16, 16)
        for i in range(5):
            alone = model.forward(T.Tensor(x[i:i + 1]), depth=depth).data
            assert batched[i].tobytes() == alone[0].tobytes()
