import json
import math

import numpy as np
import pytest

from combnet import verify
from combnet.errors import ConfigError, InputError, ShapeMismatchError
from combnet.losses import (KeypointTarget, LossBundle,
                            LOSS_WEIGHTS, deep_supervision_loss,
                            handpose_ce, keypoint_ce, load_frame_targets,
                            orientation_ce_soft, parse_frame_targets, seg_ce,
                            total_loss, visibility_bce)


def fd_gradient(fn, z, step=1e-4):
    z = np.asarray(z, dtype=np.float64)
    out = np.zeros(z.size)
    flat = z.reshape(-1)
    for i in range(flat.size):
        zp, zm = flat.copy(), flat.copy()
        zp[i] += step
        zm[i] -= step
        out[i] = (fn(zp.reshape(z.shape)) - fn(zm.reshape(z.shape))) / (2 * step)
    return out.reshape(z.shape)


def rel_err(a, b):
    a, b = np.asarray(a).reshape(-1), np.asarray(b).reshape(-1)
    return np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)


# ---------------------------------------------------------------------------
# keypoint cross-entropy
# ---------------------------------------------------------------------------

def test_uniform_logits_48x48():
    loss, _ = keypoint_ce(np.zeros((1, 48, 48)), KeypointTarget([(5, 7)]))
    assert abs(loss - math.log(2304)) <= 1e-9


def test_fingertip_doubles_loss():
    tgt = KeypointTarget([(5, 7)], [True])
    loss, _ = keypoint_ce(np.zeros((1, 48, 48)), tgt)
    assert abs(loss - 2 * math.log(2304)) <= 1e-9


def test_saturated_logit_drives_loss_to_zero():
    z = np.zeros((1, 48, 48))
    z[0, 5, 7] = 1000.0
    loss, _ = keypoint_ce(z, KeypointTarget([(5, 7)]))
    assert loss <= 1e-9


def test_invisible_keypoints_masked():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((3, 6, 8))
    tgt = KeypointTarget([None, (2, 3), None])
    loss, grad = keypoint_ce(z, tgt)
    only, grad_only = keypoint_ce(z[1:2], KeypointTarget([(2, 3)]))
    assert abs(loss - only) <= 1e-12
    assert np.all(grad[0] == 0) and np.all(grad[2] == 0)
    np.testing.assert_allclose(grad[1], grad_only[0])


def test_all_invisible_gives_zero():
    loss, grad = keypoint_ce(np.ones((2, 4, 4)), KeypointTarget([None, None]))
    assert loss == 0.0 and np.all(grad == 0)


def test_out_of_bounds_target_rejected():
    with pytest.raises(ShapeMismatchError):
        keypoint_ce(np.zeros((1, 4, 4)), KeypointTarget([(4, 0)]))


def test_fingertip_mean_uses_keypoint_count():
    # two visible keypoints, one fingertip: (2*L + L) / 2 over uniform maps
    loss, _ = keypoint_ce(np.zeros((2, 4, 8)), KeypointTarget([(0, 0), (1, 1)],
                                                              [True, False]))
    assert abs(loss - 1.5 * math.log(32)) <= 1e-9


def test_keypoint_matches_formula_oracle():
    rng = np.random.default_rng(10)
    z = rng.standard_normal((5, 4, 6))
    pixels = [(1, 2), None, (3, 5), (0, 0), None]
    tips = [True, False, False, True, True]
    expect, grad_expect, visible = 0.0, np.zeros_like(z), 0
    for k in range(5):
        if pixels[k] is None:
            continue
        weight = 2.0 if tips[k] else 1.0
        p = np.exp(z[k] - z[k].max())
        p /= p.sum()
        expect += -weight * math.log(p[pixels[k]])
        grad_expect[k] = weight * p
        grad_expect[k][pixels[k]] -= weight
        visible += 1
    loss, grad = keypoint_ce(z, KeypointTarget(pixels, tips))
    assert abs(loss - expect / visible) <= 1e-9
    np.testing.assert_allclose(grad, grad_expect / visible, rtol=0, atol=1e-12)


def test_shift_invariance():
    rng = np.random.default_rng(2)
    z = rng.standard_normal((2, 5, 5))
    tgt = KeypointTarget([(1, 2), (3, 4)])
    a, _ = keypoint_ce(z, tgt)
    b, _ = keypoint_ce(z + 123.456, tgt)
    assert abs(a - b) <= 1e-9


# ---------------------------------------------------------------------------
# visibility / orientation / pose / segmentation
# ---------------------------------------------------------------------------

def test_bce_closed_forms():
    loss, _ = visibility_bce(np.zeros(18), np.ones(18))
    assert abs(loss - math.log(2)) <= 1e-9
    loss, _ = visibility_bce(np.full(18, 1000.0), np.ones(18))
    assert loss <= 1e-9
    loss, grad = visibility_bce(np.full(18, -1000.0), np.zeros(18))
    assert loss <= 1e-9 and np.all(grad == 0.0)


def test_bce_matches_direct_formula():
    rng = np.random.default_rng(3)
    z = rng.standard_normal(18) * 3
    y = (rng.random(18) < 0.5).astype(float)
    # independent direct evaluation of -[y log s + (1-y) log(1-s)]
    s = 1 / (1 + np.exp(-z))
    direct = float(np.mean(-(y * np.log(s) + (1 - y) * np.log(1 - s))))
    loss, _ = visibility_bce(z, y)
    assert abs(loss - direct) <= 1e-9


def test_bce_length_mismatch():
    with pytest.raises(ShapeMismatchError):
        visibility_bce(np.zeros(18), np.ones(17))


def test_orientation_uniform_logits_any_eps():
    for eps in (0.0, 0.1, 0.5):
        loss, _ = orientation_ce_soft(np.zeros((2, 8)), [0, 7], eps)
        assert abs(loss - math.log(8)) <= 1e-9


def test_orientation_eps_zero_is_plain_ce():
    rng = np.random.default_rng(4)
    z = rng.standard_normal((1, 8))
    loss, _ = orientation_ce_soft(z, [3], 0.0, [True])
    p = np.exp(z[0] - z[0].max())
    p /= p.sum()
    assert abs(loss + math.log(p[3])) <= 1e-9


def test_orientation_hand_computed_value():
    # eps=0.1, logits [1,0,...,0], label 0; oracle computed from scalar math
    e = math.exp(1.0)
    Z = e + 7.0
    target0 = 0.9 + 0.1 / 8
    expected = -(target0 * math.log(e / Z) + 7 * (0.1 / 8) * math.log(1.0 / Z))
    loss, _ = orientation_ce_soft(np.array([[1.0] + [0.0] * 7]), [0], 0.1, [True])
    assert abs(loss - expected) <= 1e-12


def test_orientation_bad_label():
    with pytest.raises(ConfigError):
        orientation_ce_soft(np.zeros((1, 8)), [8], 0.1, [True])


@pytest.mark.parametrize("call", [
    lambda: orientation_ce_soft(np.zeros((2, 8)), [1]),         # too few labels
    lambda: orientation_ce_soft(np.zeros((2, 8)), [1, 2, 5]),   # too many labels
    lambda: handpose_ce(np.zeros((2, 9)), [1]),
    lambda: orientation_ce_soft(np.zeros((2, 8)), [1, 2], present=[True]),
])
def test_per_hand_ce_rejects_label_count_mismatch(call):
    with pytest.raises(ShapeMismatchError):
        call()


def test_orientation_absent_hands_masked():
    rng = np.random.default_rng(5)
    z = rng.standard_normal((2, 8))
    both, _ = orientation_ce_soft(z, [1, 2], 0.1, [True, True])
    left, _ = orientation_ce_soft(z, [1, 2], 0.1, [True, False])
    lone, _ = orientation_ce_soft(z[:1], [1], 0.1, [True])
    assert abs(left - lone) <= 1e-12
    none, grad = orientation_ce_soft(z, [1, 2], 0.1, [False, False])
    assert none == 0.0 and np.all(grad == 0)


def test_orientation_absent_hand_label_unread():
    rng = np.random.default_rng(11)
    z = rng.standard_normal((2, 8))
    loss, grad = orientation_ce_soft(z, [3, 99], 0.1, [True, False])
    lone, grad_lone = orientation_ce_soft(z[:1], [3], 0.1, [True])
    assert loss == lone
    np.testing.assert_array_equal(grad[0], grad_lone[0])
    assert np.all(grad[1] == 0)


def test_handpose_closed_forms():
    loss, _ = handpose_ce(np.zeros((2, 9)), [0, 8])
    assert abs(loss - math.log(9)) <= 1e-9
    z = np.zeros((1, 9))
    z[0, 4] = 1000.0
    loss, _ = handpose_ce(z, [4])
    assert loss <= 1e-9
    with pytest.raises(ConfigError):
        handpose_ce(np.zeros((1, 9)), [9])


def test_handpose_matches_formula_oracle():
    rng = np.random.default_rng(6)
    z = rng.standard_normal((2, 9))
    labels = [2, 7]
    expect = 0.0
    for h in range(2):
        p = np.exp(z[h] - z[h].max())
        p /= p.sum()
        expect += -math.log(p[labels[h]])
    loss, _ = handpose_ce(z, labels)
    assert abs(loss - expect / 2) <= 1e-9


def test_seg_closed_forms():
    loss, _ = seg_ce(np.zeros((3, 4, 4)), np.zeros((4, 4), int))
    assert abs(loss - math.log(3)) <= 1e-9
    z = np.zeros((3, 2, 2))
    lab = np.array([[0, 1], [2, 0]])
    for i in range(2):
        for j in range(2):
            z[lab[i, j], i, j] = 1000.0
    loss, _ = seg_ce(z, lab)
    assert loss <= 1e-9


def test_seg_2x2_hand_computation():
    rng = np.random.default_rng(7)
    z = rng.standard_normal((3, 2, 2))
    lab = np.array([[0, 2], [1, 1]])
    expect = 0.0
    for i in range(2):
        for j in range(2):
            p = np.exp(z[:, i, j] - z[:, i, j].max())
            p /= p.sum()
            expect += -math.log(p[lab[i, j]])
    loss, _ = seg_ce(z, lab)
    assert abs(loss - expect / 4) <= 1e-9


def test_seg_invalid_label():
    with pytest.raises(ConfigError):
        seg_ce(np.zeros((3, 2, 2)), np.full((2, 2), 3))


# ---------------------------------------------------------------------------
# deep supervision and total
# ---------------------------------------------------------------------------

def test_deep_supervision_uniform_closed_form():
    maps = [np.zeros((16, 12, 12)), np.zeros((16, 24, 24)), np.zeros((16, 48, 48))]
    tgt = KeypointTarget([(r % 96, (3 * r) % 96) for r in range(0, 96, 6)])
    loss, _ = deep_supervision_loss(maps, tgt, (96, 96))
    want = math.log(144) + math.log(576) + math.log(2304)
    assert abs(loss - want) <= 1e-9


def test_deep_supervision_zero_visible():
    maps = [np.ones((2, 3, 4)), np.ones((2, 6, 8)), np.ones((2, 12, 16))]
    loss, grads = deep_supervision_loss(maps, KeypointTarget([None, None]), (24, 32))
    assert loss == 0.0
    assert all(np.all(gr == 0) for gr in grads)


def test_deep_supervision_rejects_single_scale():
    with pytest.raises(ShapeMismatchError):
        deep_supervision_loss([np.zeros((2, 12, 12))], KeypointTarget([(0, 0), (0, 0)]),
                              (96, 96))


def test_deep_supervision_rejects_wrong_resolution():
    maps = [np.zeros((2, 10, 10)), np.zeros((2, 24, 24)), np.zeros((2, 48, 48))]
    with pytest.raises(ShapeMismatchError):
        deep_supervision_loss(maps, KeypointTarget([(0, 0), (0, 0)]), (96, 96))


def test_target_rescaling_integer_division():
    tgt = KeypointTarget([(47, 95), None])
    low = tgt.rescaled(8)
    assert low.pixels == [(5, 11), None]


def test_total_loss_unit_bundle():
    assert total_loss(LossBundle(1, 1, 1, 1, 1, 1, 1)) == 103.0


def test_total_loss_zero_and_seg_weight():
    assert total_loss(LossBundle()) == 0.0
    assert total_loss(LossBundle(l_seg=1.0)) == 50.0
    assert LOSS_WEIGHTS == {"kp": 1.0, "akp": 1.0, "kphv": 20.0, "cho": 20.0,
                            "dhp": 10.0, "seg": 50.0, "ds": 1.0}


def test_total_loss_rejects_nonfinite():
    with pytest.raises(ConfigError):
        total_loss(LossBundle(l_kp=float("nan")))


def test_total_gradient_is_weighted_sum():
    # d(total)/d(logits) through one task equals the task weight times the
    # task gradient; checked by finite differences through total_loss
    rng = np.random.default_rng(8)
    z = rng.standard_normal((2, 5, 5))
    tgt = KeypointTarget([(1, 1), (2, 2)])
    _, grad_kp = keypoint_ce(z, tgt)

    def composite(q):
        return total_loss(LossBundle(l_kp=keypoint_ce(q, tgt)[0]))

    fd = fd_gradient(composite, z)
    assert rel_err(LOSS_WEIGHTS["kp"] * grad_kp, fd) <= 1e-6


# ---------------------------------------------------------------------------
# analytic gradients vs finite differences (small instances)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(3))
def test_keypoint_grad_fd(seed):
    rng = np.random.default_rng(30 + seed)
    z = rng.standard_normal((3, 5, 6))
    tgt = KeypointTarget([(1, 2), None, (4, 5)], [False, False, True])
    _, grad = keypoint_ce(z, tgt)
    fd = fd_gradient(lambda q: keypoint_ce(q, tgt)[0], z)
    assert rel_err(grad, fd) <= 1e-4


def fd_check_per_coordinate(fn, z0):
    """`verify._fd_check` as a loop of two unbatched loss calls per coordinate."""
    z0 = np.asarray(z0, dtype=np.float64)
    grad = np.asarray(fn(z0)[1], dtype=np.float64)
    fd = fd_gradient(lambda q: fn(q)[0], z0)
    denom = max(float(np.linalg.norm(grad.reshape(-1))),
                float(np.linalg.norm(fd.reshape(-1))), 1e-12)
    return float(np.linalg.norm((grad - fd).reshape(-1))) / denom


def test_fd_check_equals_the_per_coordinate_loop(monkeypatch):
    fd_check = verify._fd_check
    instances = []
    monkeypatch.setattr(verify, "_fd_check",
                        lambda fn, z0: instances.append((fn, z0)) or 0.0)
    verify.loss_gradient_suite(11, 1)   # one instance from each of the six makers
    assert len(instances) == 6
    rng = np.random.default_rng(12)
    tgt = KeypointTarget([(1, 2), None, (4, 6)], [True, False, False])
    y = np.array([1.0, 0.0, 0.0, 1.0, 1.0])
    instances += [((lambda q: keypoint_ce(q, tgt)), rng.standard_normal((3, 5, 7))),
                  ((lambda q: visibility_bce(q, y)), rng.standard_normal(5))]
    for _, z0 in instances[-2:]:   # a partial last block; one smaller than a block
        assert np.size(z0) % verify._FD_BLOCK != 0
    for fn, z0 in instances:
        assert fd_check(fn, z0) == fd_check_per_coordinate(fn, z0)


def test_fd_check_gives_the_same_bits_whatever_the_block(monkeypatch):
    fd_check = verify._fd_check
    instances = []
    monkeypatch.setattr(verify, "_fd_check",
                        lambda fn, z0: instances.append((fn, z0)) or 0.0)
    verify.loss_gradient_suite(11, 1)
    small, deep = instances[1], instances[-1]   # visibility_bce, deep supervision
    assert np.size(small[1]) < verify._FD_BLOCK and np.size(deep[1]) == 1008
    for fn, z0 in (small, deep):
        results = []
        for block in (1, 7, 32, np.size(z0)):
            monkeypatch.setattr(verify, "_FD_BLOCK", block)
            results.append(fd_check(fn, z0))
        assert results == [results[0]] * 4


def test_loss_nonnegativity_random():
    rng = np.random.default_rng(9)
    for _ in range(20):
        z = rng.standard_normal((2, 4, 4)) * 3
        loss, _ = keypoint_ce(z, KeypointTarget([(0, 0), (3, 3)]))
        assert loss >= 0.0
        lb, _ = visibility_bce(rng.standard_normal(18), (rng.random(18) < 0.5))
        assert lb >= 0.0


# ---------------------------------------------------------------------------
# leading batch axes
# ---------------------------------------------------------------------------

TIPS = [True, False, False, True]
BATCH_CASES = {
    "keypoint_ce": ((4, 5, 7), lambda z: keypoint_ce(
        z, KeypointTarget([(1, 2), None, (4, 6), (0, 0)], TIPS))),
    "keypoint_ce, no visible keypoint": ((4, 5, 7), lambda z: keypoint_ce(
        z, KeypointTarget([None] * 4, TIPS))),
    "visibility_bce": ((18,), lambda z: visibility_bce(z, np.arange(18) % 3 == 0)),
    "orientation_ce_soft": ((2, 8), lambda z: orientation_ce_soft(
        z, [3, 6], 0.1, [True, True])),
    "orientation_ce_soft, no present hand": ((2, 8), lambda z: orientation_ce_soft(
        z, [3, 6], 0.1, [False, False])),
    "handpose_ce": ((2, 9), lambda z: handpose_ce(z, [None, 8], [True, True])),
    "handpose_ce, no present hand": ((2, 9), lambda z: handpose_ce(
        z, [1, 8], [False, False])),
    "seg_ce": ((3, 5, 7), lambda z: seg_ce(z, np.arange(35).reshape(5, 7) % 3)),
}


@pytest.mark.parametrize("batch", [(3,), (2, 2)])
@pytest.mark.parametrize("name", sorted(BATCH_CASES))
def test_batch_rows_equal_unbatched_calls(name, batch):
    shape, call = BATCH_CASES[name]
    z = np.random.default_rng(13).standard_normal(batch + shape) * 3
    loss, grad = call(z)
    assert loss.shape == batch and grad.shape == z.shape
    for b in np.ndindex(batch):
        one, one_grad = call(z[b])
        assert type(one) is float
        assert np.array_equal(loss[b], one)
        assert np.array_equal(grad[b], one_grad)


@pytest.mark.parametrize("batch", [(3,), (2, 2)])
@pytest.mark.parametrize("pixels", [[(3, 5), None, (23, 31), (10, 0)], [None] * 4],
                         ids=["visible", "no visible keypoint"])
def test_deep_supervision_batch_rows_equal_unbatched_calls(pixels, batch):
    rng = np.random.default_rng(14)
    maps = [rng.standard_normal(batch + (4, 24 // f, 32 // f)) for f in (8, 4, 2)]
    tgt = KeypointTarget(pixels, TIPS)
    loss, grads = deep_supervision_loss(maps, tgt, (24, 32))
    assert loss.shape == batch
    for b in np.ndindex(batch):
        one, one_grads = deep_supervision_loss([m[b] for m in maps], tgt, (24, 32))
        assert type(one) is float
        assert np.array_equal(loss[b], one)
        assert all(np.array_equal(g[b], og) for g, og in zip(grads, one_grads))


def _logits_and_loss(name, batch, dtype):
    """The logits of a BATCH_CASES loss, or of deep supervision's three
    scales, and a function that runs the loss on them."""
    rng = np.random.default_rng(15)
    if name == "deep_supervision":
        maps = [(rng.standard_normal(batch + (4, 24 // f, 32 // f)) * 3).astype(dtype)
                for f in (8, 4, 2)]
        tgt = KeypointTarget([(3, 5), None, (23, 31), (10, 0)], TIPS)
        return maps, lambda: deep_supervision_loss(maps, tgt, (24, 32))[1]
    shape, call = BATCH_CASES[name]
    z = (rng.standard_normal(batch + shape) * 3).astype(dtype)
    return [z], lambda: [call(z)[1]]


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("batch", [(), (3,)])
@pytest.mark.parametrize("name", sorted(BATCH_CASES) + ["deep_supervision"])
def test_no_loss_writes_into_or_aliases_its_logits(name, batch, dtype):
    # float64 C-contiguous logits are the caller's own array inside the loss,
    # which works in place on the arrays it makes
    logits, grads_of = _logits_and_loss(name, batch, dtype)
    before = [z.tobytes() for z in logits]
    grads = grads_of()
    assert [z.tobytes() for z in logits] == before
    assert not any(np.shares_memory(g, z) for g in grads for z in logits)


def test_deep_supervision_rejects_scales_of_different_batch_shapes():
    maps = [np.zeros((3, 2, 3, 4)), np.zeros((2, 2, 6, 8)), np.zeros((3, 2, 12, 16))]
    with pytest.raises(ShapeMismatchError):
        deep_supervision_loss(maps, KeypointTarget([(0, 0), (0, 0)]), (24, 32))


# ---------------------------------------------------------------------------
# frame annotation ingestion
# ---------------------------------------------------------------------------

def make_doc():
    return {
        "keypoints": [[10, 20]] * 8 + [None] * 8,
        "aux_keypoints": [[5, 5]] * 18,
        "hands": [True, False],
        "orientation": [3, None],
        "pose": [1, None],
        "segmentation": "frame0_seg.pgm",
    }


def test_parse_frame_targets():
    ft = parse_frame_targets(make_doc())
    assert ft.keypoints[0] == (10, 20) and ft.keypoints[-1] is None
    assert ft.hands_present.tolist() == [True, False]
    assert ft.fingertips.sum() == 4  # default fingertip configuration
    labels = ft.visibility_labels()
    assert labels.shape == (18,)
    assert labels[:8].sum() == 8 and labels[8:16].sum() == 0
    assert labels[16] == 1.0 and labels[17] == 0.0
    assert ft.segmentation_path == "frame0_seg.pgm"


def test_parse_frame_targets_rescaling():
    ft = parse_frame_targets(make_doc())
    tgt = ft.keypoint_target(divisor=2)
    assert tgt.pixels[0] == (5, 10)


def test_parse_frame_rejects_malformed():
    doc = make_doc()
    doc["keypoints"] = doc["keypoints"][:3]
    with pytest.raises(InputError):
        parse_frame_targets(doc)
    with pytest.raises(InputError):
        parse_frame_targets({"hands": [True, True]})
    doc = make_doc()
    doc["keypoints"][0] = [1]
    with pytest.raises(InputError):
        parse_frame_targets(doc)


@pytest.mark.parametrize("key, labels", [
    ("orientation", [1]),          # fewer labels than hands
    ("orientation", ["x", 1]),     # not a number
    ("pose", [1, 2, 3]),           # more labels than hands
    ("orientation", [1.7, None]),  # not an integer
    ("pose", [True, None]),        # a bool is not a class id
    ("keypoints", [[10.7, True]] + [None] * 15),   # not an integer pair
    ("aux_keypoints", [["3", "4"]] + [None] * 17),  # strings are not pixels
    ("hands", ["no", 0]),                           # flags must be booleans
    ("fingertips", ["no"] * 16),
])
def test_parse_frame_rejects_bad_class_labels(key, labels):
    doc = make_doc()
    doc[key] = labels
    with pytest.raises(InputError, match=key):
        parse_frame_targets(doc)


@pytest.mark.parametrize("value", [0, 1.5, ["a"], True, {"path": "a.pgm"}])
def test_parse_frame_rejects_a_segmentation_that_is_not_a_path(value):
    # read_pgm16(0) would open file descriptor 0 and read stdin
    doc = make_doc()
    doc["segmentation"] = value
    with pytest.raises(InputError, match="segmentation: expected a path or null"):
        parse_frame_targets(doc)
    doc["segmentation"] = None
    assert parse_frame_targets(doc).segmentation_path is None


def test_load_frame_targets_file(tmp_path):
    p = tmp_path / "frame.json"
    p.write_text(json.dumps(make_doc()))
    ft = load_frame_targets(p)
    assert ft.orientation == [3, None]
    with pytest.raises(InputError):
        load_frame_targets(tmp_path / "missing.json")
    p.write_bytes(b'{"hands": ["\xff"]}')
    with pytest.raises(InputError, match="cannot read frame annotation"):
        load_frame_targets(p)


def test_frame_loss_bundle_end_to_end():
    from combnet.config import NetConfig
    from combnet.forward import Backend, Mode, forward
    from combnet.graph import build_graph
    from combnet.losses import frame_loss_bundle
    from combnet.tensor import Tensor
    from combnet.weights import init_weights

    g = build_graph(NetConfig(input_h=96, input_w=96))
    ws = init_weights(g, 5)
    rng = np.random.default_rng(5)
    img = Tensor.from_array(rng.uniform(0, 1, (1, 96, 96)).astype(np.float32))
    heads = forward(g, ws, img, Backend.REFERENCE, Mode.ALL_HEADS)
    tg = parse_frame_targets({
        "keypoints": [[int(rng.integers(0, 96)), int(rng.integers(0, 96))]
                      for _ in range(16)],
        "aux_keypoints": [[int(rng.integers(0, 96)), int(rng.integers(0, 96))]
                          for _ in range(18)],
        "hands": [True, True],
        "orientation": [2, 5],
        "pose": [1, None],
    })
    seg = rng.integers(0, 3, (48, 48))
    bundle = frame_loss_bundle(heads, tg, seg_label_map=seg, input_hw=(96, 96))
    vals = bundle.values()
    assert all(np.isfinite(v) and v >= 0 for v in vals.values())
    assert vals["dhp"] > 0  # the labeled hand still contributes
    assert total_loss(bundle) == sum(LOSS_WEIGHTS[k] * v for k, v in vals.items())
    # a frame without a segmentation map zeroes that task only
    lean = frame_loss_bundle(heads, tg, input_hw=(96, 96))
    assert lean.l_seg == 0.0 and lean.l_kp == bundle.l_kp
