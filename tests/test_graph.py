import numpy as np
import pytest

from combnet.config import NetConfig, REFERENCE_CONFIG, parse_config
from combnet.convops import ConvSpec, counting
from combnet.errors import ConfigError
from combnet.forward import Backend, Mode, forward
from combnet.graph import (Node, build_graph, count_layers, node_flop_count,
                           node_param_count, validate_config)
from combnet.tensor import Tensor
from combnet.weights import init_weights


@pytest.fixture(scope="module")
def g96():
    return build_graph(NetConfig(input_h=96, input_w=96))


@pytest.fixture(scope="module")
def ws96(g96):
    return init_weights(g96, 42)


def shapes(g):
    return {n.name: n.out_shape for n in g.nodes}


def test_tier_output_shapes_96(g96):
    s = shapes(g96)
    assert s["t1.conv"] == (16, 48, 48)
    assert s["t2.cat"] == (32, 24, 24)
    assert s["t3.u2.b4.add"] == (64, 12, 12)
    assert s["head.kp"] == (16, 48, 48)


def test_deep_supervision_resolutions_96(g96):
    s = shapes(g96)
    assert s["ds8.head"] == (16, 12, 12)
    assert s["ds4.head"] == (16, 24, 24)
    assert s["ds2.head"] == (16, 48, 48)


def test_ladder_dilations_exact(g96):
    for u in (1, 2):
        dils = [g96.node(f"t3.u{u}.b{k}.conv").conv.dilation for k in (1, 2, 3, 4)]
        assert dils == [1, 2, 3, 4]


def test_head_output_shapes(g96):
    s = shapes(g96)
    assert s["head.vis"] == (18,)
    assert s["aux.head"] == (18, 48, 48)
    assert s["head.cho"] == (16,)
    assert s["head.dhp"] == (18,)
    assert s["seg.head"] == (3, 48, 48)


def test_resolution_must_divide_by_8():
    with pytest.raises(ConfigError):
        NetConfig(input_h=100, input_w=100)


def test_group_inconsistency_rejected():
    with pytest.raises(ConfigError):
        NetConfig(tier3_bottleneck=30)  # 30 % 8 != 0


# ---------------------------------------------------------------------------
# validate_config
# ---------------------------------------------------------------------------

def test_reference_config_has_zero_warnings():
    rep = validate_config(build_graph(REFERENCE_CONFIG))
    assert rep.warnings == []
    assert rep.errors == []


def test_six_filters_per_group_warns():
    # ladder 3x3 convs get 48/8 = 6 filters/group
    g = build_graph(NetConfig(tier3_bottleneck=48))
    rep = validate_config(g)
    assert len(rep.warnings) == 8
    assert all("6 filters/group" in w for w in rep.warnings)


def test_channelwise_convs_exempt_from_lane_warning():
    rep = validate_config(build_graph(NetConfig(lane_width=16)))
    # decoder/stage/head convs are channel-wise (1 filter/group): never warned
    assert not any("dec." in w or "head.kp" in w for w in rep.warnings)


def test_tier2_groups_invariant_violation():
    g = build_graph(NetConfig(tier2_groups=8))
    rep = validate_config(g)
    assert any("tier-2 grouping factor" in e for e in rep.errors)


def test_tier_channel_invariant_violation():
    g = build_graph(NetConfig(tier3_channels=128))
    rep = validate_config(g)
    assert any("tier-3" in e and "128" in e for e in rep.errors)


def test_tier2_never_concatenates_input(g96):
    cat = g96.node("t2.cat")
    assert "t1.conv" not in cat.inputs
    assert set(cat.inputs) == {"t2.u1.expand", "t2.u2.expand"}


@pytest.mark.parametrize("cfg", [
    REFERENCE_CONFIG, NetConfig(input_h=96, input_w=96),
    NetConfig(tier3_bottleneck=48), NetConfig(tier2_groups=8),
    NetConfig(tier3_channels=128), NetConfig(ladder_dilations=(1, 2, 4, 8))])
def test_built_graph_structure(cfg):
    g = build_graph(cfg)

    def kernels(prefix):
        return [g.node(f"{prefix}.{c}").conv.kernel[0]
                for c in ("reduce", "conv", "expand")]

    # tier 2: two 1-3-1 units whose outputs, never the tier input, are concatenated
    assert kernels("t2.u1") == kernels("t2.u2") == [1, 3, 1]
    assert g.node("t2.cat").inputs == ("t2.u1.expand", "t2.u2.expand")
    assert g.node("t2.u1.reduce").inputs[0] not in g.node("t2.cat").inputs
    # tier 3: every ladder block is a residual 1-3-1 bottleneck
    src = "t3.entry"
    for u in (1, 2):
        for k in range(1, len(cfg.ladder_dilations) + 1):
            p = f"t3.u{u}.b{k}"
            assert kernels(p) == [1, 3, 1]
            assert g.node(f"{p}.add").inputs == (f"{p}.expand", src)
            src = f"{p}.add"
    # channel-wise decoder stages, ungrouped auxiliary decoder
    for name in ("dec.s1", "dec.s2"):
        spec = g.node(name).conv
        assert spec.groups == spec.in_ch == spec.out_ch
    for name in ("aux.proj", "aux.s1", "aux.s2", "aux.head"):
        assert g.node(name).conv.groups == 1


# ---------------------------------------------------------------------------
# accounting
# ---------------------------------------------------------------------------

def test_param_count_single_conv_example():
    node = Node("c", "conv", ("x",),
                conv=ConvSpec(1, 16, (3, 3), has_bias=True), bn=False)
    assert node_param_count(node) == 160  # 3*3*1*16 + 16


def test_param_count_grouped_example():
    node = Node("c", "conv", ("x",),
                conv=ConvSpec(32, 32, (3, 3), groups=4, has_bias=True), bn=False)
    assert node_param_count(node) == 2_336  # 9*32*(32/4) + 32


def test_gap_flop_count_example():
    node = Node("p", "gap", ("x",), out_shape=(16,))
    assert node_flop_count(node, (16, 6, 6)) == (0, 592)  # 16*6*6 adds + 16 divides


def test_reference_params_within_budget():
    rows, totals = count_layers(build_graph(REFERENCE_CONFIG), Mode.INFERENCE_HEADS)
    total = totals.params
    assert sum(r.params for r in rows) == total
    assert 0.031e6 <= total <= 0.051e6  # +-25% around 0.041M
    assert abs(total - 41_000) / 41_000 < 0.05  # lands close to the target


def test_tier1_flops_example(g96):
    rows, _ = count_layers(g96, Mode.INFERENCE_HEADS)
    t1 = next(r for r in rows if r.name == "t1.conv")
    assert 2 * t1.macs == 663_552  # 2*(48*48*16*1*9), before bias/BN adds


def test_decoder_stage_flops_example(g96):
    rows, _ = count_layers(g96, Mode.INFERENCE_HEADS)
    s2 = next(r for r in rows if r.name == "dec.s2")
    assert 2 * s2.macs == 663_552  # channel-wise 3x3, 16 maps at 48x48


def test_reference_flops_within_budget():
    rows, totals = count_layers(build_graph(REFERENCE_CONFIG), Mode.INFERENCE_HEADS)
    total = totals.flops
    assert sum(r.flops for r in rows) == total
    assert total <= 45e6
    assert 0.02625e9 <= total <= 0.04375e9  # +-25% around 0.035G


def test_doubled_tier3_channels_strictly_heavier():
    base = count_layers(build_graph(REFERENCE_CONFIG), Mode.INFERENCE_HEADS)[1].params
    big = count_layers(build_graph(NetConfig(tier3_channels=128, tier3_bottleneck=64)),
                       Mode.INFERENCE_HEADS)[1].params
    assert big > base


def test_count_flops_matches_instrumented_forward(g96, ws96):
    img = Tensor.from_array(
        np.random.default_rng(0).uniform(0, 1, (1, 96, 96)).astype(np.float32))
    with counting() as ops:
        forward(g96, ws96, img, Backend.REFERENCE, Mode.ALL_HEADS)
    assert ops.flops == count_layers(g96, Mode.ALL_HEADS)[1].flops
    with counting() as ops:
        forward(g96, ws96, img, Backend.REFERENCE, Mode.INFERENCE_HEADS)
    assert ops.flops == count_layers(g96, Mode.INFERENCE_HEADS)[1].flops


def test_symbolic_shapes_match_execution(g96, ws96):
    # spot-check symbolic propagation against observed head shapes
    img = Tensor.from_array(
        np.random.default_rng(1).uniform(0, 1, (1, 96, 96)).astype(np.float32))
    out = forward(g96, ws96, img, Backend.REFERENCE, Mode.ALL_HEADS)
    s = shapes(g96)
    assert out.primary_heatmaps.shape == s["head.kp"]
    assert out.visibility_logits.shape == s["head.vis"]
    assert out.aux_heatmaps.shape == s["aux.head"]
    assert out.segmentation_logits.shape == s["seg.head"]
    assert tuple(m.shape for m in out.deep_supervision) == (
        s["ds8.head"], s["ds4.head"], s["ds2.head"])


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def test_parse_config_roundtrip():
    cfg = parse_config(REFERENCE_CONFIG.canonical_text())
    assert cfg == REFERENCE_CONFIG
    assert cfg.config_hash() == REFERENCE_CONFIG.config_hash()


def test_parse_config_overrides_and_comments():
    cfg = parse_config("# comment\ninput_h = 96\ninput_w = 96\nlane_width = 8\n")
    assert (cfg.input_h, cfg.input_w, cfg.lane_width) == (96, 96, 8)


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError):
        parse_config("no_such_key = 1\n")
