from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from combnet import convops, graph, postprocess
from combnet.config import (MAX_INPUT_SIDE, NetConfig, REFERENCE_CONFIG, load_config,
                            parse_config)
from combnet.convops import ConvSpec, counting
from combnet.errors import ConfigError, ShapeMismatchError
from combnet.forward import Backend, Mode, forward
from combnet.graph import (LADDER_DILATIONS, GraphSpec, Node, build_graph, count_layers,
                           node_flop_count, node_param_count)
from combnet.losses import KeypointTarget
from combnet.postprocess import PhaseFrame
from combnet.tensor import Tensor
from combnet.weights import init_weights

REFERENCE_CFG = Path(__file__).parent.parent / "configs" / "reference.cfg"


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


def test_resolution_is_at_most_the_maximum_per_side():
    NetConfig(input_h=MAX_INPUT_SIDE, input_w=MAX_INPUT_SIDE)
    for h, w in ((MAX_INPUT_SIDE + 8, 128), (128, MAX_INPUT_SIDE + 8)):
        with pytest.raises(ConfigError, match=f"{h}x{w} must be divisible by 8 and at most "
                                              f"{MAX_INPUT_SIDE} per side"):
            NetConfig(input_h=h, input_w=w)


def test_inference_convs_fill_whole_lanes():
    # every deployed conv has one filter per group (channel-wise) or a
    # multiple of 4, a whole 128-bit vector of 32-bit reals, at every
    # resolution: the resolution is the only config value the graph reads
    cfgs = [REFERENCE_CONFIG] + [
        NetConfig(input_h=h, input_w=w)
        for h, w in ((8, 8), (96, 96), (64, 128), (256, 256), (1024, 8))]
    for cfg in cfgs:
        g = build_graph(cfg)
        convs = [n.conv for n in g.nodes_for(Mode.INFERENCE_HEADS) if n.kind == "conv"]
        assert len(convs) == 36
        for spec in convs:
            fpg = spec.out_ch // spec.groups
            assert fpg == 1 or fpg % 4 == 0, (cfg, spec)


def test_reference_config_has_zero_warnings(capsys):
    # the reference graph fills whole lanes, and count reports no warning
    from combnet import cli
    for n in build_graph(REFERENCE_CONFIG).nodes_for(Mode.INFERENCE_HEADS):
        if n.kind == "conv":
            fpg = n.conv.out_ch // n.conv.groups
            assert fpg == 1 or fpg % 4 == 0, n.name
    assert cli.main(["count"]) == 0
    out = capsys.readouterr()
    assert "warning" not in (out.out + out.err).lower()


def test_channelwise_convs_exempt_from_lane_warning(g96):
    # the only convs short of a whole lane are the decoder/head convs with one
    # filter per group; the stages and the keypoint head are channel-wise
    short = {n.name: n.conv for n in g96.nodes_for(Mode.INFERENCE_HEADS)
             if n.kind == "conv" and (n.conv.out_ch // n.conv.groups) % 4 != 0}
    assert set(short) == {"dec.proj", "dec.s1", "dec.s2", "head.kp"}
    assert all(spec.out_ch == spec.groups for spec in short.values())
    for name in ("dec.s1", "dec.s2", "head.kp"):
        assert short[name].groups == short[name].in_ch == short[name].out_ch


def test_tier2_never_concatenates_input(g96):
    cat = g96.node("t2.cat")
    assert "t1.conv" not in cat.inputs
    assert set(cat.inputs) == {"t2.u1.expand", "t2.u2.expand"}


@pytest.mark.parametrize("cfg", [
    REFERENCE_CONFIG, NetConfig(input_h=96, input_w=96)])
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
        for k in range(1, len(LADDER_DILATIONS) + 1):
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


def test_shipped_config_file_is_the_reference_config():
    cfg = load_config(REFERENCE_CFG)
    assert cfg == REFERENCE_CONFIG


def test_shipped_config_file_names_every_field_once():
    text = REFERENCE_CFG.read_text()
    keys = [line.split("#", 1)[0].partition("=")[0].strip() for line in text.splitlines()]
    keys = [k for k in keys if k]
    assert sorted(keys) == sorted(f.name for f in fields(NetConfig))


@pytest.mark.parametrize("ints, floats", [
    ("z_min_mm = 100", "z_min_mm = 100.0"),
    ("amplitude_coeffs = 1, 0, 0, 0", "amplitude_coeffs = 1.0, 0.0, 0.0, 0.0")])
def test_equal_configs_hash_equally(ints, floats):
    a, b = parse_config(ints), parse_config(floats)
    assert a == b
    assert a.config_hash() == b.config_hash()
    assert parse_config("z_min_mm = 100").config_hash() == REFERENCE_CONFIG.config_hash()


def test_int_beyond_float_range_is_a_config_error():
    with pytest.raises(ConfigError, match="z_max_mm must be a finite number"):
        parse_config("z_max_mm = 1" + "0" * 400 + "\n")


def test_parse_config_overrides_and_comments():
    cfg = parse_config("# comment\ninput_h = 96\ninput_w = 96\n")
    assert (cfg.input_h, cfg.input_w) == (96, 96)


def test_config_fields_are_what_a_deployment_sets():
    assert [f.name for f in fields(NetConfig)] == [
        "input_h", "input_w", "z_min_mm", "z_max_mm", "amplitude_coeffs"]


def test_config_exposes_the_fixed_network_values():
    # the label spaces, loss constants and operating point are the module
    # constants, readable from any config instance but not settable
    fixed = {"keypoints": 16, "aux_keypoints": 18, "hands": 2,
             "fingertip_indices": (2, 4, 10, 12), "orientation_eps": 0.1,
             "conf_threshold": 0.05, "kp_vis_threshold": 0.5,
             "hand_vis_threshold": 0.5, "depth_window": 5}
    constants = {"keypoints": graph.KEYPOINTS, "aux_keypoints": graph.AUX_KEYPOINTS,
                 "hands": graph.HANDS, "fingertip_indices": graph.FINGERTIP_INDICES,
                 "orientation_eps": graph.ORIENTATION_EPS,
                 "conf_threshold": postprocess.CONF_THRESHOLD,
                 "kp_vis_threshold": postprocess.KP_VIS_THRESHOLD,
                 "hand_vis_threshold": postprocess.HAND_VIS_THRESHOLD,
                 "depth_window": postprocess.DEPTH_WINDOW}
    assert constants == fixed
    for cfg in (REFERENCE_CONFIG, NetConfig(input_h=96, input_w=96)):
        assert {name: getattr(cfg, name) for name in fixed} == fixed
        with pytest.raises(AttributeError):
            cfg.hands = 1
        for name in fixed:
            with pytest.raises(ConfigError, match=f"unknown config key '{name}'"):
                parse_config(f"{name} = 1\n")
    with pytest.raises(TypeError):
        NetConfig(hands=1)


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError):
        parse_config("no_such_key = 1\n")


@pytest.mark.parametrize("module", [convops, graph], ids=["convops", "graph"])
def test_every_exported_name_resolves(module):
    # a public name deleted from the module cannot stay behind in __all__
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


# ---------------------------------------------------------------------------
# value records that check what they are built from
# ---------------------------------------------------------------------------

_PHASE = np.ones((2, 2), np.uint16)
CHECKED_RECORDS = {
    # record: (valid fields in field order, an invalid field, the error it raises)
    "ConvSpec": (ConvSpec, dict(in_ch=4, out_ch=4, kernel=(3, 3), stride=1, dilation=1,
                                groups=2, has_bias=False), {"groups": 3}, ConfigError),
    "PhaseFrame": (PhaseFrame, dict(phases=(_PHASE,) * 4, z_min=100.0, z_max=1000.0),
                   {"phases": (_PHASE,) * 3}, ShapeMismatchError),
    "KeypointTarget": (KeypointTarget, dict(pixels=[(0, 0), None], fingertip=[True, False]),
                       {"fingertip": [True]}, ShapeMismatchError),
    "GraphSpec": (GraphSpec, build_graph(NetConfig(input_h=32, input_w=32))._asdict(),
                  {"nodes": None}, TypeError),
}


@pytest.mark.parametrize("name", sorted(CHECKED_RECORDS))
def test_checked_record_builds_from_valid_fields(name):
    cls, good, _, _ = CHECKED_RECORDS[name]
    rec = cls(**good)
    assert cls._fields == tuple(good)
    assert repr(rec).startswith(f"{name}({cls._fields[0]}=")
    for same in (cls(*good.values()), cls._make(good.values()), rec._replace()):
        assert type(same) is cls


@pytest.mark.parametrize("how", ["direct", "keyword", "_make", "_replace"])
@pytest.mark.parametrize("name", sorted(CHECKED_RECORDS))
def test_checked_record_checks_every_constructor(name, how):
    cls, good, bad, error = CHECKED_RECORDS[name]
    fields = {**good, **bad}
    build = {"direct": lambda: cls(*fields.values()), "keyword": lambda: cls(**fields),
             "_make": lambda: cls._make(fields.values()),
             "_replace": lambda: cls(**good)._replace(**bad)}[how]
    with pytest.raises(error):
        build()


def test_replaced_graph_spec_looks_nodes_up_in_its_own_nodes(g96):
    g = g96._replace(nodes=g96.nodes[:2])
    assert g.node(g96.nodes[1].name) is g96.nodes[1]
    with pytest.raises(KeyError):
        g.node(g96.nodes[2].name)
