import numpy as np
import pytest

from combnet.errors import ConfigError, InputError, ShapeMismatchError
from combnet.pgm import parse_pgm16, read_pgm16
from combnet.postprocess import (InputTransform, KeypointResult, PhaseFrame,
                                 amplitude_from_phases, decode_heatmaps,
                                 gate_visibility, lift_to_2_5d, normalize_input,
                                 result_document)


def phases(vals, shape=(6, 8)):
    return tuple(np.full(shape, v, np.uint16) for v in vals)


# ---------------------------------------------------------------------------
# amplitude synthesis
# ---------------------------------------------------------------------------

def test_amplitude_constant_phases_default_coeffs():
    frame = PhaseFrame(phases([100, 100, 100, 100]))
    np.testing.assert_allclose(amplitude_from_phases(frame), 100.0)


def test_amplitude_selects_single_phase():
    frame = PhaseFrame(phases([7, 11, 13, 17]))
    np.testing.assert_allclose(amplitude_from_phases(frame, (1, 0, 0, 0)), 7.0)


def test_amplitude_matches_pixel_loop_oracle():
    rng = np.random.default_rng(0)
    ph = tuple(rng.integers(0, 65536, (5, 4)).astype(np.uint16) for _ in range(4))
    coeffs = rng.standard_normal(4)
    got = amplitude_from_phases(PhaseFrame(ph), coeffs)
    for y in range(5):
        for x in range(4):
            val = sum(float(coeffs[i]) * float(ph[i][y, x]) for i in range(4))
            assert abs(got[y, x] - max(val, 0.0)) <= 1e-3 * max(1.0, abs(val))


def _amplitude_three_pass(frame, coeffs):
    """The earlier expression: per phase a float64 copy, a product and a sum,
    then the clamp and the float32 cast."""
    acc = np.zeros(frame.phases[0].shape, dtype=np.float64)
    for c, p in zip(np.asarray(coeffs, dtype=np.float64), frame.phases):
        acc += c * p.astype(np.float64)
    return np.maximum(acc, 0.0).astype(np.float32)


def test_amplitude_is_byte_identical_to_the_three_pass_expression():
    rng = np.random.default_rng(5)
    for i in range(60):
        shape = tuple(int(n) for n in rng.integers(1, 24, 2))
        ph = [rng.integers(0, 65536, shape).astype(np.uint16) for _ in range(4)]
        ph[i % 4][rng.random(shape) < 0.3] = 0          # zero pixels
        coeffs = rng.uniform(-2.0, 2.0, 4)                # negative coefficients too
        frame = PhaseFrame(tuple(ph))
        got = amplitude_from_phases(frame, coeffs)
        want = _amplitude_three_pass(frame, coeffs)
        assert got.dtype == np.float32 and got.shape == shape
        assert got.tobytes() == want.tobytes()


def test_amplitude_clamps_negative():
    frame = PhaseFrame(phases([50, 0, 0, 0]))
    out = amplitude_from_phases(frame, (-1, 0, 0, 0))
    assert np.all(out == 0.0)


def test_amplitude_past_float32_is_a_config_error():
    frame = PhaseFrame(phases([1, 2, 3, 4]))
    with pytest.raises(ConfigError, match="float32"):
        amplitude_from_phases(frame, (1e300, 0, 0, 0))


def test_phase_dims_must_agree():
    ph = phases([1, 2, 3])
    with pytest.raises(ShapeMismatchError):
        PhaseFrame(ph + (np.zeros((2, 2), np.uint16),))


# ---------------------------------------------------------------------------
# input normalization
# ---------------------------------------------------------------------------

def test_normalize_full_scale():
    t, tf = normalize_input(np.full((8, 8), 65535, np.uint16))
    assert np.all(t.array == 1.0)
    assert tf == InputTransform()


def test_normalize_zero():
    t, _ = normalize_input(np.zeros((8, 8), np.uint16))
    assert np.all(t.array == 0.0)


def test_normalize_denormalize_roundtrip():
    rng = np.random.default_rng(1)
    img = rng.integers(0, 65536, (16, 16)).astype(np.uint16)
    t, _ = normalize_input(img)
    np.testing.assert_array_equal(np.rint(t.array[0] * 65535).astype(np.uint16), img)


def test_normalize_crop_and_scale_transform():
    rng = np.random.default_rng(2)
    img = rng.integers(0, 65536, (32, 48)).astype(np.uint16)
    t, tf = normalize_input(img, (16, 16))
    assert t.dims == (1, 16, 16)
    # center crop of the wide image: 32x32 starting at column 8
    assert (tf.scale_u, tf.scale_v) == (2.0, 2.0)
    assert (tf.offset_u, tf.offset_v) == (8.0, 0.0)
    # net pixel (0.5, 0.5) maps back inside the crop
    su, sv = tf.to_source(0.5, 0.5)
    assert 8 <= su < 40 and 0 <= sv < 32


@pytest.mark.parametrize("shape", [(1, 1), (2, 1)])
def test_normalize_tiny_image_keeps_a_nonempty_crop(shape):
    img = (np.arange(1, shape[0] * shape[1] + 1) * 1000).astype(np.uint16).reshape(shape)
    t, tf = normalize_input(img, (96, 192))
    assert tf.scale_u > 0 and tf.scale_v > 0
    for v in range(96):
        _, sv = tf.to_source(0.5, v + 0.5)
        assert 0 <= sv < shape[0]
        # the row the transform names is the row that was sampled
        assert t.array[0, v, 0] == np.float32(img[int(sv), 0]) / np.float32(65535)


def test_normalize_rejects_empty():
    with pytest.raises(InputError):
        normalize_input(np.zeros((0, 4), np.uint16))


# ---------------------------------------------------------------------------
# heatmap decoding
# ---------------------------------------------------------------------------

def test_decode_single_peak():
    z = np.zeros((1, 48, 48))
    z[0, 5, 7] = 50.0
    (kp,) = decode_heatmaps(z, input_hw=(96, 96))
    assert (kp.u, kp.v) == (7 * 2 + 1.0, 5 * 2 + 1.0)  # cell center at scale 2
    assert kp.confidence > 0.999
    assert kp.visible


def test_decode_uniform_map_confidence():
    (kp,) = decode_heatmaps(np.zeros((1, 6, 8)), conf_threshold=0.05)
    assert abs(kp.confidence - 1 / 48) <= 1e-12
    assert not kp.visible  # 1/48 < 0.05


def test_decode_tie_breaks_row_major():
    z = np.full((1, 4, 4), -5.0)
    z[0, 0, 3] = 2.0
    z[0, 2, 1] = 2.0
    (kp,) = decode_heatmaps(z, input_hw=(8, 8))
    assert (kp.u, kp.v) == ((3 + 0.5) * 2, (0 + 0.5) * 2)  # (0,3) wins
    # verified against an exhaustive scan for the first maximum
    flat = z[0].reshape(-1)
    best = min(i for i in range(flat.size) if flat[i] == flat.max())
    assert divmod(best, 4) == (0, 3)


def test_decode_always_in_bounds():
    rng = np.random.default_rng(3)
    for _ in range(50):
        maps = rng.standard_normal((4, 5, 7))
        for kp in decode_heatmaps(maps, input_hw=(10, 14)):
            assert 0 <= kp.u < 14 and 0 <= kp.v < 10


# ---------------------------------------------------------------------------
# visibility gating
# ---------------------------------------------------------------------------

def kps16():
    return [KeypointResult(u=float(i), v=float(i), confidence=0.9) for i in range(16)]


def test_gate_both_hands_absent_early_out():
    vis = np.concatenate([np.full(16, 5.0), [-1000.0, -1000.0]])
    hands, early_out = gate_visibility(kps16(), vis)
    assert early_out
    assert all(not h.present for h in hands)
    assert sum(kp.visible for h in hands for kp in h.keypoints) == 0


def test_gate_all_pass():
    vis = np.full(18, 1000.0)
    hands, early_out = gate_visibility(kps16(), vis)
    assert not early_out
    assert all(h.present for h in hands)
    assert sum(kp.visible for h in hands for kp in h.keypoints) == 16


def test_gate_left_hand_low_suppresses_exactly_its_keypoints():
    vis = np.concatenate([np.full(16, 5.0), [-5.0, 5.0]])
    hands, early_out = gate_visibility(kps16(), vis)
    assert not early_out
    assert not hands[0].present and hands[1].present
    assert sum(kp.visible for kp in hands[0].keypoints) == 0
    assert sum(kp.visible for kp in hands[1].keypoints) == 8


def test_gate_never_flips_invisible_to_visible():
    kps = kps16()
    for kp in kps[:5]:
        kp.visible = False
    hands, _ = gate_visibility(kps, np.full(18, 1000.0))
    flat = [kp for h in hands for kp in h.keypoints]
    assert sum(kp.visible for kp in flat) == 11


def test_gate_rejects_keypoints_that_do_not_split_over_hands():
    with pytest.raises(ShapeMismatchError, match="16 keypoints do not split evenly"):
        gate_visibility(kps16(), np.zeros(19), hands=3)


def test_gate_suppression_monotone_in_threshold():
    rng = np.random.default_rng(4)
    vis = rng.standard_normal(18)
    kps = kps16()
    prev = None
    for thr in (0.1, 0.3, 0.5, 0.7, 0.9):
        hands, _ = gate_visibility(kps, vis, kp_threshold=thr, hand_threshold=thr)
        count = sum(kp.visible for h in hands for kp in h.keypoints)
        if prev is not None:
            assert count <= prev
        prev = count


def test_gate_validation():
    with pytest.raises(ShapeMismatchError):
        gate_visibility(kps16(), np.zeros(17))
    with pytest.raises(ConfigError):
        gate_visibility(kps16(), np.zeros(18), kp_threshold=0.0)


# ---------------------------------------------------------------------------
# 2.5D lifting
# ---------------------------------------------------------------------------

def one_hand(u, v, visible=True):
    from combnet.postprocess import HandResult, KeypointResult
    return [HandResult(True, [KeypointResult(u, v, 0.9, visible)])]


def test_lift_direct_hit():
    depth = np.zeros((10, 10))
    depth[4, 6] = 500.0
    hands = lift_to_2_5d(one_hand(6.2, 4.7), depth)
    kp = hands[0].keypoints[0]
    assert kp.depth_valid and kp.z == 500.0


def test_lift_median_fallback():
    depth = np.zeros((10, 10))
    depth[3, 3], depth[4, 4], depth[5, 5] = 400.0, 410.0, 420.0
    hands = lift_to_2_5d(one_hand(4.0, 4.0), depth)  # depth[4,4]=410 valid though
    assert hands[0].keypoints[0].z == 410.0
    depth[4, 4] = 0.0  # invalid center -> median of {400, 420}
    hands = lift_to_2_5d(one_hand(4.0, 4.0), depth)
    kp = hands[0].keypoints[0]
    assert kp.depth_valid and kp.z == 410.0


def test_lift_median_of_three():
    depth = np.zeros((7, 7))
    depth[0, 0], depth[1, 1], depth[2, 2] = 400.0, 410.0, 420.0
    hands = lift_to_2_5d(one_hand(1.0, 1.0), depth)
    assert hands[0].keypoints[0].z == 410.0


def test_lift_all_invalid():
    hands = lift_to_2_5d(one_hand(5.0, 5.0), np.zeros((10, 10)))
    kp = hands[0].keypoints[0]
    assert not kp.depth_valid and kp.z is None


def test_lift_out_of_image_not_an_error():
    hands = lift_to_2_5d(one_hand(50.0, 2.0), np.full((10, 10), 500.0))
    assert not hands[0].keypoints[0].depth_valid


def test_lift_skips_invisible():
    hands = lift_to_2_5d(one_hand(5.0, 5.0, visible=False), np.full((10, 10), 500.0))
    assert not hands[0].keypoints[0].depth_valid


def test_lift_z_within_range_whenever_valid():
    rng = np.random.default_rng(5)
    depth = rng.uniform(0, 2000, (20, 20))
    for _ in range(50):
        u, v = rng.uniform(0, 20, 2)
        hands = lift_to_2_5d(one_hand(float(u), float(v)), depth,
                             z_range=(100.0, 1000.0))
        kp = hands[0].keypoints[0]
        if kp.depth_valid:
            assert 100.0 <= kp.z <= 1000.0


def test_lift_respects_transform():
    depth = np.zeros((20, 20))
    depth[10, 14] = 700.0
    tf = InputTransform(scale_u=2.0, scale_v=2.0, offset_u=0.0, offset_v=0.0)
    hands = lift_to_2_5d(one_hand(7.2, 5.3), depth, transform=tf)
    assert hands[0].keypoints[0].z == 700.0


def test_lift_window_must_be_odd():
    with pytest.raises(ConfigError):
        lift_to_2_5d(one_hand(1.0, 1.0), np.zeros((5, 5)), window=4)


def test_result_document_schema():
    hands = lift_to_2_5d(one_hand(3.0, 4.0), np.full((10, 10), 300.0))
    doc = result_document(hands, early_out=False)
    assert set(doc) == {"hands", "early_out"}
    kp = doc["hands"][0]["keypoints"][0]
    assert set(kp) == {"u", "v", "confidence", "visible", "z", "depth_valid"}
    assert kp["z"] == 300.0 and kp["depth_valid"]


# ---------------------------------------------------------------------------
# PGM I/O
# ---------------------------------------------------------------------------

def test_pgm_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    img = rng.integers(0, 65536, (9, 13)).astype(np.uint16)
    p = tmp_path / "img.pgm"
    p.write_bytes(b"P5\n13 9\n65535\n" + img.astype(">u2").tobytes())
    np.testing.assert_array_equal(read_pgm16(p), img)


def test_pgm_handles_comments():
    img = parse_pgm16(b"P5\n# a comment\n2 2\n65535\n" + np.arange(4, dtype=">u2").tobytes())
    np.testing.assert_array_equal(img, [[0, 1], [2, 3]])


def test_pgm_errors():
    with pytest.raises(InputError):
        parse_pgm16(b"P6\n2 2\n255\n" + bytes(12))
    with pytest.raises(InputError):
        parse_pgm16(b"P5\n4 4\n65535\n" + bytes(3))  # truncated
    with pytest.raises(InputError):
        read_pgm16("/nonexistent/file.pgm")
