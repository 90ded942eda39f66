"""The seven task losses, their aggregation, and analytic gradients.

Every loss returns ``(loss, grad)`` where ``grad`` is the derivative with
respect to the raw logits, exact up to floating point (verified against
central finite differences). Softmax uses max-subtraction; accumulation is
64-bit throughout.

Logits may carry any number of leading batch axes in front of the instance
shape; targets and labels are shared by the whole batch. The loss is then an
array of the batch shape, one loss per instance, and the gradient has the
logits' shape. With no batch axes the loss is a Python ``float``. Each
reduction runs per instance over the same contiguous elements, so a batch
row is bit-identical to the unbatched call on that row.

Aggregation weights: kp=1, akp=1, kphv=20, cho=20, dhp=10, seg=50, ds=1.
Fingertip keypoints contribute double to the heatmap losses; invisible
keypoints are masked out; per-hand losses average only over present hands.
"""

from __future__ import annotations

import json
from typing import NamedTuple

import numpy as np

from .config import _is_int
from .errors import ConfigError, InputError, ShapeMismatchError
from .graph import (AUX_KEYPOINTS, FINGERTIP_INDICES, HANDS, KEYPOINTS,
                    ORIENTATION_EPS)

LOSS_WEIGHTS = {
    "kp": 1.0, "akp": 1.0, "kphv": 20.0, "cho": 20.0,
    "dhp": 10.0, "seg": 50.0, "ds": 1.0,
}

FINGERTIP_WEIGHT = 2.0


class _KeypointTarget(NamedTuple):
    pixels: list
    fingertip: np.ndarray = None  # bool per keypoint; default all False


class KeypointTarget(_KeypointTarget):
    """Targets for one set of heatmaps, in heatmap pixel coordinates.
    ``pixels[k]`` is (row, col) or None when the keypoint is not visible."""
    __slots__ = ()

    def __new__(cls, pixels, fingertip=None):
        k = len(pixels)
        if fingertip is None:
            fingertip = np.zeros(k, dtype=bool)
        else:
            fingertip = np.asarray(fingertip, dtype=bool)
            if fingertip.shape != (k,):
                raise ShapeMismatchError("fingertip flags length != keypoint count")
        return super().__new__(cls, pixels, fingertip)

    _make = classmethod(lambda cls, values: cls(*values))  # _replace builds through it

    def rescaled(self, divisor: int) -> "KeypointTarget":
        """Map pixel coordinates to a coarser grid by integer division."""
        px = [None if p is None else (p[0] // divisor, p[1] // divisor)
              for p in self.pixels]
        return KeypointTarget(px, self.fingertip.copy())


class LossBundle(NamedTuple):
    l_kp: float = 0.0
    l_akp: float = 0.0
    l_kphv: float = 0.0
    l_cho: float = 0.0
    l_dhp: float = 0.0
    l_seg: float = 0.0
    l_ds: float = 0.0

    def values(self) -> dict:
        return {"kp": self.l_kp, "akp": self.l_akp, "kphv": self.l_kphv,
                "cho": self.l_cho, "dhp": self.l_dhp, "seg": self.l_seg,
                "ds": self.l_ds}


def _per_instance(loss):
    """One loss per instance: an array for a batched call, else a float."""
    return float(loss) if np.ndim(loss) == 0 else loss


def _log_softmax64(z: np.ndarray) -> np.ndarray:
    """Log-softmax along the last axis, in 64-bit, as a new array."""
    z = np.asarray(z, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)  # a copy: the caller's logits stay as they are
    z -= np.log(np.exp(z).sum(axis=-1, keepdims=True))
    return z


def _softmax_ce(z: np.ndarray, target: np.ndarray, weight: np.ndarray):
    """Softmax cross-entropy of each row of ``z`` (..., R, C) against the
    target distribution in the same row of ``target`` (R, C), scaled by the
    per-row ``weight`` (R,), all float64. Returns the weighted sum of each
    instance, an array of ``z``'s leading shape, and the gradient
    ``weight * (softmax - target)``, computed in the log-softmax's array."""
    logp = _log_softmax64(z)
    w = weight[:, None]
    per = -(w * target) * logp  # exactly -(w * target * logp): negation is exact
    grad = np.exp(logp, out=logp)
    grad -= target
    grad *= w
    return per.reshape(*z.shape[:-2], -1).sum(axis=-1), grad


def keypoint_ce(heatmap_logits: np.ndarray, targets: KeypointTarget):
    """Spatial softmax cross-entropy against 1-hot target pixels.

    Fingertip keypoints count double; invisible keypoints contribute zero.
    The result is the (weighted) sum divided by the number of contributing
    keypoints."""
    logits = np.asarray(heatmap_logits, dtype=np.float64)
    if logits.ndim < 3:
        raise ShapeMismatchError(f"heatmaps must be (..., K,h,w), got {logits.shape}")
    *batch, K, h, w = logits.shape
    if len(targets.pixels) != K:
        raise ShapeMismatchError(f"{len(targets.pixels)} targets for {K} maps")
    target = np.zeros((K, h * w))
    weight = np.zeros(K)
    for k, pix in enumerate(targets.pixels):
        if pix is None:
            continue
        r, c = pix
        if not (0 <= r < h and 0 <= c < w):
            raise ShapeMismatchError(f"target ({r},{c}) outside {h}x{w} map")
        target[k, r * w + c] = 1.0
        weight[k] = FINGERTIP_WEIGHT if targets.fingertip[k] else 1.0
    visible = np.count_nonzero(weight)
    if visible == 0:
        return _per_instance(np.zeros(batch)), np.zeros_like(logits)
    loss, grad = _softmax_ce(logits.reshape(*batch, K, h * w), target, weight)
    grad = grad.reshape(logits.shape)
    grad /= visible
    return _per_instance(loss / visible), grad


def visibility_bce(logits: np.ndarray, labels) -> tuple:
    """Mean sigmoid binary cross-entropy over keypoint + hand visibility flags,
    one flag per logit along the last axis."""
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    if z.shape[-1:] != y.shape:
        raise ShapeMismatchError(f"logits {z.shape} vs {y.size} labels")
    n = y.size
    # stable: max(z,0) - z*y + log(1+exp(-|z|)); exp(-|z|) never overflows
    e = np.exp(-np.abs(z))
    per = np.maximum(z, 0.0) - z * y + np.log1p(e)
    sig = np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
    return _per_instance(per.mean(axis=-1)), (sig - y) / n


def _per_hand_ce(logits, labels, present, eps):
    """Cross-entropy of each present hand's softmax against its label
    softened by ``eps``, averaged over present hands. A hand is absent when
    ``present`` says so or its label is None; absent hands' labels are not
    read."""
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim < 2:
        raise ShapeMismatchError(f"expected (..., hands, classes) logits, got {z.shape}")
    if not 0.0 <= eps < 1.0:
        raise ConfigError(f"eps {eps} outside [0,1)")
    hands, n_classes = z.shape[-2:]
    for what, v in (("labels", labels), ("presence flags", present)):
        if v is not None and len(v) != hands:
            raise ShapeMismatchError(f"{len(v)} {what} for {hands} hands")
    target = np.zeros((hands, n_classes))
    weight = np.zeros(hands)
    for hand in range(hands):
        if (present is not None and not present[hand]) or labels[hand] is None:
            continue
        label = int(labels[hand])
        if not 0 <= label < n_classes:
            raise ConfigError(f"label {label} outside [0,{n_classes})")
        target[hand] = eps / n_classes
        target[hand, label] += 1.0 - eps
        weight[hand] = 1.0
    n = np.count_nonzero(weight)
    if n == 0:
        return _per_instance(np.zeros(z.shape[:-2])), np.zeros_like(z)
    loss, grad = _softmax_ce(z, target, weight)
    return _per_instance(loss / n), grad / n


def orientation_ce_soft(logits: np.ndarray, labels, eps: float = ORIENTATION_EPS,
                        present=None):
    """Softened-label cross-entropy over the 8 categorical hand orientations,
    per hand, averaged over present hands. Target: (1-eps) on the label plus
    eps/8 uniform."""
    return _per_hand_ce(logits, labels, present, eps)


def handpose_ce(logits: np.ndarray, labels, present=None):
    """Softmax cross-entropy over the 9 discrete hand-pose classes per hand."""
    return _per_hand_ce(logits, labels, present, 0.0)


def seg_ce(logits: np.ndarray, label_map: np.ndarray):
    """Mean per-pixel softmax cross-entropy over the segmentation classes."""
    z = np.asarray(logits, dtype=np.float64)
    lab = np.asarray(label_map)
    if z.ndim < 3:
        raise ShapeMismatchError(
            f"segmentation logits must be (..., C,h,w), got {z.shape}")
    *batch, C, h, w = z.shape
    if lab.shape != (h, w):
        raise ShapeMismatchError(f"label map {lab.shape} != ({h},{w})")
    if lab.min() < 0 or lab.max() >= C:
        raise ConfigError(f"segmentation labels outside [0,{C})")
    npix = h * w
    target = np.zeros((npix, C))
    target[np.arange(npix), lab.reshape(-1).astype(np.int64)] = 1.0
    pixel_rows = np.swapaxes(z.reshape(*batch, C, npix), -1, -2)
    loss, grad = _softmax_ce(pixel_rows, target, np.ones(npix))
    grad = np.swapaxes(grad, -1, -2).reshape(z.shape)
    grad /= npix
    return _per_instance(loss / npix), grad


def deep_supervision_loss(heatmaps: list, targets: KeypointTarget, input_hw: tuple):
    """Sum of keypoint_ce over the 1/8, 1/4, 1/2 resolution supervision maps.
    ``targets`` is in full input-resolution pixels; each scale uses integer
    division of the coordinates."""
    if len(heatmaps) != 3:
        raise ShapeMismatchError(f"expected heatmaps at 3 scales, got {len(heatmaps)}")
    if len({np.shape(maps)[:-3] for maps in heatmaps}) > 1:
        raise ShapeMismatchError("the 3 scales' maps differ in batch shape")
    H, W = input_hw
    total = 0.0
    grads = []
    for frac, maps in zip((8, 4, 2), heatmaps):
        maps = np.asarray(maps)
        if maps.shape[-2:] != (H // frac, W // frac):
            raise ShapeMismatchError(
                f"scale 1/{frac} maps are {maps.shape[-2:]}, expected "
                f"{(H // frac, W // frac)}")
        loss, grad = keypoint_ce(maps, targets.rescaled(frac))
        total += loss
        grads.append(grad)
    return total, grads


def total_loss(bundle: LossBundle) -> float:
    """Weighted sum of the task losses (the training objective)."""
    vals = bundle.values()
    for name, v in vals.items():
        if not np.isfinite(v):
            raise ConfigError(f"non-finite task loss {name}={v}")
    return float(sum(LOSS_WEIGHTS[k] * v for k, v in vals.items()))


# ---------------------------------------------------------------------------
# Frame annotation ingestion
# ---------------------------------------------------------------------------

class FrameTargets(NamedTuple):
    """Per-frame training annotations, decoded from the JSON document:
    keypoint pixel coords at input resolution (or null), fingertip flags,
    per-hand presence, orientation/pose class ids, segmentation map path."""
    keypoints: list                     # K entries of (row, col) | None
    aux_keypoints: list                 # A entries of (row, col) | None
    fingertips: np.ndarray              # bool (K,)
    hands_present: np.ndarray           # bool (hands,)
    orientation: list                   # class id | None per hand
    pose: list                          # class id | None per hand
    segmentation_path: str | None = None

    def keypoint_target(self, divisor: int = 1) -> KeypointTarget:
        t = KeypointTarget(list(self.keypoints), self.fingertips.copy())
        return t.rescaled(divisor) if divisor != 1 else t

    def aux_target(self, divisor: int = 1) -> KeypointTarget:
        t = KeypointTarget(list(self.aux_keypoints))
        return t.rescaled(divisor) if divisor != 1 else t

    def visibility_labels(self) -> np.ndarray:
        kp = np.array([p is not None for p in self.keypoints], dtype=np.float64)
        return np.concatenate([kp, self.hands_present.astype(np.float64)])


def frame_loss_bundle(heads, targets: FrameTargets, seg_label_map=None,
                      orientation_eps: float = ORIENTATION_EPS,
                      input_hw: tuple | None = None) -> LossBundle:
    """Evaluate every task loss for one frame.

    `heads` is a full (ALL_HEADS) forward output; keypoint targets are given
    at input resolution and mapped to each head's grid. Hands without an
    orientation/pose label count as absent for that task. A missing
    segmentation map contributes zero."""
    K, hm_h, hm_w = heads.primary_heatmaps.shape
    hw = input_hw if input_hw is not None else (2 * hm_h, 2 * hm_w)
    div = hw[0] // hm_h
    l_kp, _ = keypoint_ce(heads.primary_heatmaps, targets.keypoint_target(div))
    l_akp, _ = keypoint_ce(heads.aux_heatmaps, targets.aux_target(div))
    l_kphv, _ = visibility_bce(heads.visibility_logits, targets.visibility_labels())
    l_cho, _ = orientation_ce_soft(heads.orientation_logits, targets.orientation,
                                   orientation_eps, targets.hands_present)
    l_dhp, _ = handpose_ce(heads.pose_logits, targets.pose, targets.hands_present)
    l_seg = 0.0
    if seg_label_map is not None:
        l_seg, _ = seg_ce(heads.segmentation_logits, seg_label_map)
    l_ds, _ = deep_supervision_loss(list(heads.deep_supervision),
                                    targets.keypoint_target(), hw)
    return LossBundle(float(l_kp), float(l_akp), float(l_kphv), float(l_cho),
                      float(l_dhp), float(l_seg), float(l_ds))


def _pair_or_none(entry, what):
    if entry is None:
        return None
    if not (isinstance(entry, (list, tuple)) and len(entry) == 2
            and all(_is_int(v) for v in entry)):
        raise InputError(f"{what}: expected [row, col] integers or null, got {entry!r}")
    return tuple(entry)


def _flags(doc, key, n) -> np.ndarray:
    v = doc[key]
    if not (isinstance(v, list) and len(v) == n and all(isinstance(f, bool) for f in v)):
        raise InputError(f"{key}: expected {n} true/false flags, got {v!r}")
    return np.array(v, dtype=bool)


def parse_frame_targets(doc: dict, keypoints: int = KEYPOINTS,
                        aux_keypoints: int = AUX_KEYPOINTS, hands: int = HANDS,
                        fingertip_indices=FINGERTIP_INDICES) -> FrameTargets:
    try:
        kps = [_pair_or_none(e, f"keypoints[{i}]")
               for i, e in enumerate(doc["keypoints"])]
        aux = [_pair_or_none(e, f"aux_keypoints[{i}]")
               for i, e in enumerate(doc.get("aux_keypoints", [None] * aux_keypoints))]
        present = _flags(doc, "hands", hands)
        orientation = doc.get("orientation", [None] * hands)
        pose = doc.get("pose", [None] * hands)
        segmentation = doc.get("segmentation")
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed frame annotation: {exc}") from exc
    for key, labels in (("orientation", orientation), ("pose", pose)):
        if not (isinstance(labels, list) and len(labels) == hands
                and all(v is None or _is_int(v) for v in labels)):
            raise InputError(f"{key}: expected {hands} class ids or nulls, got {labels!r}")
    if not (segmentation is None or isinstance(segmentation, str)):
        raise InputError(f"segmentation: expected a path or null, got {segmentation!r}")
    if len(kps) != keypoints:
        raise InputError(f"expected {keypoints} keypoints, got {len(kps)}")
    if len(aux) != aux_keypoints:
        raise InputError(f"expected {aux_keypoints} aux keypoints, got {len(aux)}")
    if "fingertips" in doc:
        tips = _flags(doc, "fingertips", keypoints)
    else:
        tips = np.zeros(keypoints, dtype=bool)
        tips[list(fingertip_indices)] = True
    return FrameTargets(kps, aux, tips, present, list(orientation), list(pose),
                        segmentation)


def load_frame_targets(path, **kw) -> FrameTargets:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read frame annotation {path}: {exc}") from exc
    return parse_frame_targets(doc, **kw)
