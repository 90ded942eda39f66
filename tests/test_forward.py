import math
import threading

import numpy as np
import pytest

from combnet import forward as forward_module
from combnet.config import NetConfig
from combnet.convops import counting, fold_batchnorm
from combnet.forward import Backend, Mode, forward, prepare_optimized
from combnet.errors import ConfigError, ShapeMismatchError
from combnet.graph import build_graph
from combnet.tensor import Tensor, pack_kernels
from combnet.weights import WeightStore, init_weights


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
    assert set(plan.convs) == inf_convs
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


# ---------------------------------------------------------------------------
# the optimized plan
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", list(Mode))
def test_plan_arrays_equal_the_per_conv_fold_and_pack(mode):
    g = build_graph(NetConfig(input_h=96, input_w=96))
    ws = init_weights(g, 3)
    rng = np.random.default_rng(3)
    for name, a in list(ws.entries.items()):      # non-trivial BN and biases
        if ".bn." in name or name.endswith(".b"):
            low = 0.1 if name.endswith((".bn.g", ".bn.v")) else -1.0
            ws.set(name, rng.uniform(low, 2.0, a.shape))
    plan = prepare_optimized(g, ws, mode)
    convs = [n for n in g.nodes_for(mode) if n.kind == "conv"]
    assert sorted(plan.convs) == sorted(n.name for n in convs)
    for node in convs:
        w, bias, bn = ws.node_params(node)
        if bn is not None:
            w, bias = fold_batchnorm(w, bias, bn)
        step = plan.convs[node.name]
        assert np.array_equal(step.weights, pack_kernels(w, node.conv.groups))
        assert not step.weights.flags.writeable
        if bias is None:
            assert step.bias is None
        else:
            assert step.bias.dtype == np.float32 and np.array_equal(step.bias, bias)
            assert not step.bias.flags.writeable
    for w, b in plan.linears.values():
        assert not w.flags.writeable and not b.flags.writeable


def _heads(h):
    return [getattr(h, k) for k in h._fields if getattr(h, k) is not None]


def _assert_same_heads(a, b):
    for x, y in zip(_heads(a), _heads(b), strict=True):
        if isinstance(x, tuple):
            assert all(np.array_equal(p, q) for p, q in zip(x, y, strict=True))
        else:
            assert x.dtype == y.dtype and np.array_equal(x, y)


@pytest.mark.parametrize("entry, message", [
    ("dec.s2.w", "weight store invalid: missing entry dec.s2.w"),
    ("head.vis.b", "weight store invalid: missing entry head.vis.b"),
    ("t1.conv.w", r"weight store invalid: entry t1.conv.w has shape \(2, 3\), "
                  r"expected \(16, 1, 3, 3\)"),
    ("head.vis.w", r"weight store invalid: entry head.vis.w has shape \(2, 3\), "
                   r"expected \(18, 64\)"),
])
def test_plan_build_validates_the_store(setup96, entry, message):
    g, _, _ = setup96
    ws = init_weights(g, 3)
    if "missing" in message:
        del ws.entries[entry]
    else:
        ws.set(entry, np.zeros((2, 3), np.float32))
    with pytest.raises(ShapeMismatchError, match=message):
        prepare_optimized(g, ws, Mode.INFERENCE_HEADS)


def test_forward_with_a_plan_reads_and_validates_no_weights(setup96, monkeypatch):
    g, ws, img = setup96
    calls = []
    validate = forward_module.validate_weights

    def counted(*args):
        calls.append(args)
        return validate(*args)

    monkeypatch.setattr(forward_module, "validate_weights", counted)
    plan = prepare_optimized(g, ws)
    assert len(calls) == 1
    a = forward(g, ws, img, Backend.OPTIMIZED, Mode.ALL_HEADS, prepared=plan)
    # an empty store: every weight the pass reads comes from the plan
    b = forward(g, WeightStore(), img, Backend.OPTIMIZED, Mode.ALL_HEADS, prepared=plan)
    assert len(calls) == 1
    _assert_same_heads(a, b)


def test_plan_is_immutable_and_detached_from_the_store(setup96):
    g, _, img = setup96
    ws = init_weights(g, 4)
    plan = prepare_optimized(g, ws, Mode.INFERENCE_HEADS)
    before = forward(g, ws, img, Backend.OPTIMIZED, prepared=plan)
    with pytest.raises(TypeError):
        plan.convs["t1.conv"] = None
    step = plan.convs["t1.conv"]
    w, b = plan.linears["head.vis"]
    for arr in (step.weights, step.bias, w, b):
        with pytest.raises(ValueError):
            arr[...] = 0
    for arr in ws.entries.values():
        arr[...] = 0
    _assert_same_heads(before, forward(g, ws, img, Backend.OPTIMIZED, prepared=plan))


def test_plan_folds_residual_adds(setup96, monkeypatch):
    g, ws, img = setup96

    def forbidden(*args):
        raise AssertionError("called on the optimized path")

    plan = prepare_optimized(g, ws)
    adds = [n for n in g.nodes if n.kind == "add"]
    assert adds
    for add in adds:
        step = plan.convs[add.inputs[0]]
        assert (step.out, step.residual, step.relu) == (add.name, add.inputs[1], True)
    # the optimized pass runs no separate ReLU
    monkeypatch.setattr(forward_module, "relu", forbidden)
    forward(g, ws, img, Backend.OPTIMIZED, Mode.ALL_HEADS, prepared=plan)


def test_reference_bn_rounds_conv_then_bn_once(setup96, monkeypatch):
    # BN reads the conv's unrounded float64 result, as the BN-fold oracle and
    # the folded conv round once
    g, ws, img = setup96
    bn = forward_module.batchnorm_inference
    inputs = []

    def recorded(x, params):
        inputs.append(x)
        return bn(x, params)

    monkeypatch.setattr(forward_module, "batchnorm_inference", recorded)
    forward(g, ws, img, Backend.REFERENCE, Mode.ALL_HEADS)
    assert len(inputs) == sum(n.bn for n in g.nodes) > 0
    for x in inputs:
        assert isinstance(x, np.ndarray) and x.dtype == np.float64 and x.ndim == 3


def test_two_threads_share_one_plan(setup96):
    g, ws, img = setup96
    plan = prepare_optimized(g, ws)
    with counting() as ops:
        want = forward(g, ws, img, Backend.OPTIMIZED, Mode.ALL_HEADS, prepared=plan)
    results, errors = [], []

    def work():
        try:
            with counting() as mine:
                heads = [forward(g, ws, img, Backend.OPTIMIZED, Mode.ALL_HEADS,
                                 prepared=plan) for _ in range(5)]
            results.append((heads, mine.mults, mine.adds))
        except Exception as exc:  # reported below, in the test's thread
            errors.append(exc)

    threads = [threading.Thread(target=work) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors and len(results) == 2
    for heads, mults, adds in results:
        for h in heads:
            _assert_same_heads(want, h)
        assert (mults, adds) == (5 * ops.mults, 5 * ops.adds)


@pytest.mark.parametrize("side", [96, 128])
@pytest.mark.parametrize("mode", list(Mode))
def test_optimized_counts_equal_the_reference_less_the_folded_bn_multiplies(side, mode):
    # folding BN keeps every add (the folded bias adds BN's shift) and drops
    # BN's one multiply per output element of each BN conv
    g = build_graph(NetConfig(input_h=side, input_w=side))
    ws = init_weights(g, 5)
    img = Tensor.from_array(
        np.random.default_rng(5).uniform(0, 1, (1, side, side)).astype(np.float32))
    with counting() as ref:
        forward(g, ws, img, Backend.REFERENCE, mode)
    bn_outputs = sum(math.prod(n.out_shape) for n in g.nodes_for(mode) if n.bn)
    for plan in (None, prepare_optimized(g, ws, mode)):
        with counting() as opt:
            forward(g, ws, img, Backend.OPTIMIZED, mode, prepared=plan)
        assert opt.adds == ref.adds
        assert ref.mults - opt.mults == bn_outputs > 0
