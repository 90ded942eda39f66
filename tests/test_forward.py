import numpy as np
import pytest

from combnet.config import NetConfig
from combnet.forward import Backend, Mode, forward, prepare_optimized
from combnet.errors import ConfigError, ShapeMismatchError
from combnet.graph import build_graph
from combnet.tensor import Tensor
from combnet.weights import init_weights


@pytest.fixture(scope="module")
def setup96():
    g = build_graph(NetConfig(input_h=96, input_w=96))
    ws = init_weights(g, 11)
    img = Tensor.from_array(
        np.random.default_rng(11).uniform(0, 1, (1, 96, 96)).astype(np.float32))
    return g, ws, img


def test_backend_agreement(setup96):
    g, ws, img = setup96
    ref = forward(g, ws, img, Backend.REFERENCE, Mode.ALL_HEADS)
    opt = forward(g, ws, img, Backend.OPTIMIZED, Mode.ALL_HEADS)
    assert np.max(np.abs(ref.primary_heatmaps - opt.primary_heatmaps)) <= 1e-4
    assert np.max(np.abs(ref.visibility_logits - opt.visibility_logits)) <= 1e-4
    assert np.max(np.abs(ref.aux_heatmaps - opt.aux_heatmaps)) <= 1e-4
    assert np.max(np.abs(ref.segmentation_logits - opt.segmentation_logits)) <= 1e-4
    for a, b in zip(ref.deep_supervision, opt.deep_supervision):
        assert np.max(np.abs(a - b)) <= 1e-4


def test_inference_heads_is_slice_of_all_heads(setup96):
    g, ws, img = setup96
    inf = forward(g, ws, img, Backend.REFERENCE, Mode.INFERENCE_HEADS)
    full = forward(g, ws, img, Backend.REFERENCE, Mode.ALL_HEADS)
    np.testing.assert_array_equal(inf.primary_heatmaps, full.primary_heatmaps)
    np.testing.assert_array_equal(inf.visibility_logits, full.visibility_logits)
    assert inf.aux_heatmaps is None and inf.deep_supervision is None


def test_determinism_across_runs(setup96):
    g, ws, img = setup96
    a = forward(g, ws, img, Backend.OPTIMIZED, Mode.INFERENCE_HEADS)
    b = forward(g, ws, img, Backend.OPTIMIZED, Mode.INFERENCE_HEADS)
    np.testing.assert_array_equal(a.primary_heatmaps, b.primary_heatmaps)


def test_prepared_weights_reusable(setup96):
    g, ws, img = setup96
    prep = prepare_optimized(g, ws)
    a = forward(g, ws, img, Backend.OPTIMIZED, Mode.INFERENCE_HEADS, prepared=prep)
    b = forward(g, ws, img, Backend.OPTIMIZED, Mode.INFERENCE_HEADS)
    np.testing.assert_array_equal(a.primary_heatmaps, b.primary_heatmaps)


def test_inference_plan_packs_only_inference_convs(setup96):
    g, ws, img = setup96
    inf_convs = {n.name for n in g.nodes
                 if n.kind == "conv" and n.name in g.inference_names}
    assert len(inf_convs) == 36
    plan = prepare_optimized(g, ws, Mode.INFERENCE_HEADS)
    assert set(plan) == inf_convs
    a = forward(g, ws, img, Backend.OPTIMIZED, Mode.INFERENCE_HEADS, prepared=plan)
    b = forward(g, ws, img, Backend.OPTIMIZED, Mode.INFERENCE_HEADS,
                prepared=prepare_optimized(g, ws))
    np.testing.assert_array_equal(a.primary_heatmaps, b.primary_heatmaps)
    np.testing.assert_array_equal(a.visibility_logits, b.visibility_logits)


def test_all_heads_forward_rejects_inference_plan(setup96):
    g, ws, img = setup96
    plan = prepare_optimized(g, ws, Mode.INFERENCE_HEADS)
    with pytest.raises(ConfigError, match="ds8.head"):
        forward(g, ws, img, Backend.OPTIMIZED, Mode.ALL_HEADS, prepared=plan)


def test_wrong_resolution_rejected(setup96):
    g, ws, _ = setup96
    bad = Tensor.from_array(np.zeros((1, 64, 64), np.float32))
    with pytest.raises(ShapeMismatchError):
        forward(g, ws, bad)


def test_missing_weights_rejected(setup96):
    g, _, img = setup96
    ws = init_weights(g, 3)
    del ws.entries["dec.s2.w"]
    with pytest.raises(ShapeMismatchError):
        forward(g, ws, img)
