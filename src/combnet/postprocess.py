"""Non-network inference stages: amplitude synthesis from TOF phase images,
input normalization, heatmap decoding, visibility gating with early-out, and
2.5D lifting against the depth image.

The depth image is processed in parallel with the network in a deployed
pipeline; everything here is a pure function of its inputs, so the stages
can run on separate workers without shared state.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import ConfigError, InputError, ShapeMismatchError
from .graph import HANDS
from .tensor import Tensor

U16_MAX = 65535.0
DEFAULT_AMPLITUDE_COEFFS = (0.25, 0.25, 0.25, 0.25)  # the reference sensor's calibration:
DEFAULT_Z_RANGE = (100.0, 1000.0)                    # phase weights, valid depth (mm)
CONF_THRESHOLD = 0.05        # softmax maximum below which a keypoint is invisible
KP_VIS_THRESHOLD = 0.5       # visibility-head sigmoid below which a keypoint
HAND_VIS_THRESHOLD = 0.5     # is hidden, or a hand absent
DEPTH_WINDOW = 5             # side of the depth-median fallback neighbourhood


class _PhaseFrame(NamedTuple):
    phases: tuple  # 4 arrays, h x w, uint16
    z_min: float = DEFAULT_Z_RANGE[0]
    z_max: float = DEFAULT_Z_RANGE[1]


class PhaseFrame(_PhaseFrame):
    """Four raw TOF phase images plus the sensor's valid depth range (mm)."""
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if len(self.phases) != 4:
            raise ShapeMismatchError(f"expected 4 phase images, got {len(self.phases)}")
        dims = {p.shape for p in self.phases}
        if len(dims) != 1:
            raise ShapeMismatchError(f"phase images disagree on dims: {dims}")
        if self.phases[0].size == 0:
            raise ShapeMismatchError(f"phase images are empty: dims {self.phases[0].shape}")
        return self

    _make = classmethod(lambda cls, values: cls(*values))  # _replace builds through it


class KeypointResult:
    """A keypoint: column u and row v in input-image pixels, the softmax max
    of its map, and once lifted its depth; z (mm) is set only when
    depth_valid."""
    __slots__ = ("u", "v", "confidence", "visible", "z", "depth_valid")

    def __init__(self, u: float, v: float, confidence: float, visible: bool = True,
                 z: float | None = None, depth_valid: bool = False):
        self.u, self.v, self.confidence, self.visible = u, v, confidence, visible
        self.z, self.depth_valid = z, depth_valid


class HandResult:
    __slots__ = ("present", "keypoints")

    def __init__(self, present: bool, keypoints: list | None = None):
        self.present, self.keypoints = present, [] if keypoints is None else keypoints


def amplitude_from_phases(frame: PhaseFrame, coeffs=DEFAULT_AMPLITUDE_COEFFS) -> np.ndarray:
    """Pixelwise linear combination of the four phase images, clamped to be
    non-negative. Returns float32 h x w."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if coeffs.shape != (4,) or not np.all(np.isfinite(coeffs)):
        raise ConfigError(f"need 4 finite coefficients, got {coeffs}")
    acc = np.zeros(frame.phases[0].shape, dtype=np.float64)
    for c, p in zip(coeffs, frame.phases):
        acc += p * c
    if np.max(acc) > np.finfo(np.float32).max:
        raise ConfigError(f"amplitude_coeffs {coeffs.tolist()} take the amplitude "
                          f"past the float32 range")
    return np.maximum(acc, 0.0, out=np.empty(acc.shape, np.float32))


class InputTransform(NamedTuple):
    """Maps network-input pixels back to source-image pixels:
    src = net * scale + offset (per axis)."""
    scale_u: float = 1.0
    scale_v: float = 1.0
    offset_u: float = 0.0
    offset_v: float = 0.0

    def to_source(self, u: float, v: float) -> tuple:
        return (u * self.scale_u + self.offset_u, v * self.scale_v + self.offset_v)


def normalize_input(image: np.ndarray, out_hw: tuple | None = None):
    """Map a 16-bit image to a [0,1] float32 (1,H,W) planar tensor.

    The image is center-cropped to the aspect ratio of `out_hw` (default:
    the source dims) and scaled by nearest-neighbor sampling (fully
    deterministic). Returns (tensor, InputTransform)."""
    img = np.asarray(image)
    if img.ndim != 2 or img.size == 0:
        raise InputError(f"expected a non-empty 2-D image, got shape {img.shape}")
    h, w = img.shape
    oh, ow = (h, w) if out_hw is None else out_hw
    scale = min(h / oh, w / ow)
    # at least one source pixel per axis: a tiny image rounds its crop to zero
    crop_h, crop_w = max(1, int(round(oh * scale))), max(1, int(round(ow * scale)))
    top, left = (h - crop_h) // 2, (w - crop_w) // 2
    rows = top + np.minimum((np.arange(oh) * crop_h) // oh, crop_h - 1)
    cols = left + np.minimum((np.arange(ow) * crop_w) // ow, crop_w - 1)
    sampled = img[np.ix_(rows, cols)]
    data = sampled.astype(np.float32) / np.float32(U16_MAX)
    tf = InputTransform(crop_w / ow, crop_h / oh, float(left), float(top))
    return Tensor.from_array(data[None]), tf


def decode_heatmaps(heatmaps: np.ndarray, conf_threshold: float = CONF_THRESHOLD,
                    input_hw: tuple | None = None) -> list:
    """Per map: spatial softmax, argmax (ties break to the smallest row-major
    index), confidence = max probability. (u, v) land at the center of the
    winning cell scaled to input resolution. Returns one
    :class:`KeypointResult` per map, with no depth; keypoints under the
    confidence threshold start out invisible."""
    maps = np.asarray(heatmaps, dtype=np.float64)
    if maps.ndim != 3:
        raise ShapeMismatchError(f"heatmaps must be (K,h,w), got {maps.shape}")
    K, h, w = maps.shape
    ih, iw = (2 * h, 2 * w) if input_hw is None else input_hw
    su, sv = iw / w, ih / h
    out = []
    for k in range(K):
        flat = maps[k].reshape(-1)
        shifted = flat - flat.max()
        p = np.exp(shifted)
        p /= p.sum()
        idx = int(np.argmax(p))  # first maximum in row-major order
        r, c = divmod(idx, w)
        conf = float(p[idx])
        out.append(KeypointResult(u=(c + 0.5) * su, v=(r + 0.5) * sv,
                                  confidence=conf, visible=conf >= conf_threshold))
    return out


def _sigmoid(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + np.exp(-z))
    e = np.exp(z)
    return e / (1.0 + e)


def gate_visibility(kps: list, vis_logits: np.ndarray,
                    kp_threshold: float = KP_VIS_THRESHOLD,
                    hand_threshold: float = HAND_VIS_THRESHOLD, hands: int = HANDS):
    """Apply the visibility head: suppress occluded keypoints and absent
    hands. Never flips an invisible keypoint back to visible. Returns
    (list of HandResult, early_out) with early_out true when no hand is
    present."""
    if not (0.0 < kp_threshold < 1.0 and 0.0 < hand_threshold < 1.0):
        raise ConfigError("thresholds must lie in (0, 1)")
    vis = np.asarray(vis_logits, dtype=np.float64).reshape(-1)
    K = len(kps)
    if vis.size != K + hands:
        raise ShapeMismatchError(
            f"{vis.size} visibility logits for {K} keypoints + {hands} hands")
    if hands < 1 or K % hands:
        raise ShapeMismatchError(f"{K} keypoints do not split evenly over {hands} hands")
    per_hand = K // hands
    hand_results = []
    for hand in range(hands):
        present = _sigmoid(vis[K + hand]) >= hand_threshold
        hr = HandResult(present=bool(present))
        for i in range(hand * per_hand, (hand + 1) * per_hand):
            kp = kps[i]
            visible = (kp.visible and present
                       and _sigmoid(vis[i]) >= kp_threshold)
            hr.keypoints.append(KeypointResult(
                u=kp.u, v=kp.v, confidence=kp.confidence, visible=bool(visible)))
        hand_results.append(hr)
    early_out = not any(h.present for h in hand_results)
    return hand_results, early_out


def lift_to_2_5d(hands: list, depth: np.ndarray, window: int = DEPTH_WINDOW,
                 z_range: tuple = DEFAULT_Z_RANGE,
                 transform: InputTransform = InputTransform()) -> list:
    """Attach a depth value to every visible keypoint.

    z is the depth at the keypoint pixel when inside [z_min, z_max]; otherwise
    the median of in-range depths in the window x window neighborhood; if the
    neighborhood holds none, depth_valid stays false. Keypoints outside the
    depth image are marked invalid, not an error."""
    if window < 1 or window % 2 == 0:
        raise ConfigError(f"window must be odd and positive, got {window}")
    depth = np.asarray(depth, dtype=np.float64)
    if depth.ndim != 2:
        raise ShapeMismatchError(f"depth image must be 2-D, got {depth.shape}")
    z_min, z_max = z_range
    dh, dw = depth.shape
    half = window // 2
    for hand in hands:
        for kp in hand.keypoints:
            kp.z, kp.depth_valid = None, False
            if not kp.visible:
                continue
            su, sv = transform.to_source(kp.u, kp.v)
            col, row = int(np.floor(su)), int(np.floor(sv))
            if not (0 <= row < dh and 0 <= col < dw):
                continue
            z = depth[row, col]
            if z_min <= z <= z_max:
                kp.z, kp.depth_valid = float(z), True
                continue
            patch = depth[max(0, row - half): row + half + 1,
                          max(0, col - half): col + half + 1]
            valid = patch[(patch >= z_min) & (patch <= z_max)]
            if valid.size:
                kp.z, kp.depth_valid = float(np.median(valid)), True
    return hands


def result_document(hands: list, early_out: bool) -> dict:
    """JSON-serializable inference result."""
    return {
        "hands": [
            {
                "present": hand.present,
                "keypoints": [
                    {
                        "u": round(kp.u, 4),
                        "v": round(kp.v, 4),
                        "confidence": round(kp.confidence, 6),
                        "visible": kp.visible,
                        "z": None if kp.z is None else round(kp.z, 3),
                        "depth_valid": kp.depth_valid,
                    }
                    for kp in hand.keypoints
                ],
            }
            for hand in hands
        ],
        "early_out": early_out,
    }
