"""The seven task losses, their aggregation, and analytic gradients.

Every loss returns ``(loss, grad)`` where ``grad`` is the derivative with
respect to the raw logits, exact up to floating point (verified against
central finite differences). Softmax uses max-subtraction; accumulation is
64-bit throughout.

Aggregation weights: kp=1, akp=1, kphv=20, cho=20, dhp=10, seg=50, ds=1.
Fingertip keypoints contribute double to the heatmap losses; invisible
keypoints are masked out; per-hand losses average only over present hands.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError, ShapeMismatchError

LOSS_WEIGHTS = {
    "kp": 1.0, "akp": 1.0, "kphv": 20.0, "cho": 20.0,
    "dhp": 10.0, "seg": 50.0, "ds": 1.0,
}

FINGERTIP_WEIGHT = 2.0


@dataclass
class KeypointTarget:
    """Targets for one set of heatmaps, in heatmap pixel coordinates.
    ``pixels[k]`` is (row, col) or None when the keypoint is not visible."""
    pixels: list
    fingertip: np.ndarray = None  # bool per keypoint; default all False

    def __post_init__(self):
        k = len(self.pixels)
        if self.fingertip is None:
            self.fingertip = np.zeros(k, dtype=bool)
        else:
            self.fingertip = np.asarray(self.fingertip, dtype=bool)
            if self.fingertip.shape != (k,):
                raise ShapeMismatchError("fingertip flags length != keypoint count")

    def rescaled(self, divisor: int) -> "KeypointTarget":
        """Map pixel coordinates to a coarser grid by integer division."""
        px = [None if p is None else (p[0] // divisor, p[1] // divisor)
              for p in self.pixels]
        return KeypointTarget(px, self.fingertip.copy())


@dataclass
class LossBundle:
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


def _softmax64(z: np.ndarray, axis=-1) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def _log_softmax64(z: np.ndarray, axis=-1) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    z = z - z.max(axis=axis, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=axis, keepdims=True))


def keypoint_ce(heatmap_logits: np.ndarray, targets: KeypointTarget):
    """Spatial softmax cross-entropy against 1-hot target pixels.

    Fingertip keypoints count double; invisible keypoints contribute zero.
    The result is the (weighted) sum divided by the number of contributing
    keypoints."""
    logits = np.asarray(heatmap_logits, dtype=np.float64)
    if logits.ndim != 3:
        raise ShapeMismatchError(f"heatmaps must be (K,h,w), got {logits.shape}")
    K, h, w = logits.shape
    if len(targets.pixels) != K:
        raise ShapeMismatchError(f"{len(targets.pixels)} targets for {K} maps")
    grad = np.zeros_like(logits)
    total = 0.0
    visible = 0
    for k, pix in enumerate(targets.pixels):
        if pix is None:
            continue
        r, c = pix
        if not (0 <= r < h and 0 <= c < w):
            raise ShapeMismatchError(f"target ({r},{c}) outside {h}x{w} map")
        weight = FINGERTIP_WEIGHT if targets.fingertip[k] else 1.0
        flat = logits[k].reshape(-1)
        logp = _log_softmax64(flat)
        idx = r * w + c
        total += -weight * logp[idx]
        gk = np.exp(logp)
        gk[idx] -= 1.0
        grad[k] = (weight * gk).reshape(h, w)
        visible += 1
    if visible == 0:
        return 0.0, grad
    return total / visible, grad / visible


def aux_keypoint_ce(aux_logits: np.ndarray, targets: KeypointTarget):
    """Same mathematics as keypoint_ce over the auxiliary keypoint set."""
    return keypoint_ce(aux_logits, targets)


def visibility_bce(logits: np.ndarray, labels) -> tuple:
    """Mean sigmoid binary cross-entropy over keypoint + hand visibility flags."""
    z = np.asarray(logits, dtype=np.float64).reshape(-1)
    y = np.asarray(labels, dtype=np.float64).reshape(-1)
    if z.shape != y.shape:
        raise ShapeMismatchError(f"{z.shape[0]} logits vs {y.shape[0]} labels")
    n = z.size
    # stable: max(z,0) - z*y + log(1+exp(-|z|))
    per = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    sig = 1.0 / (1.0 + np.exp(-z))
    return float(per.mean()), (sig - y) / n


def _class_ce_soft(logits: np.ndarray, label: int, n_classes: int, eps: float):
    """Cross-entropy of softmax(logits) against a label-softened target."""
    if not 0 <= label < n_classes:
        raise ConfigError(f"label {label} outside [0,{n_classes})")
    if not 0.0 <= eps < 1.0:
        raise ConfigError(f"eps {eps} outside [0,1)")
    z = np.asarray(logits, dtype=np.float64).reshape(-1)
    if z.size != n_classes:
        raise ShapeMismatchError(f"{z.size} logits for {n_classes} classes")
    target = np.full(n_classes, eps / n_classes, dtype=np.float64)
    target[label] += 1.0 - eps
    logp = _log_softmax64(z)
    return float(-(target * logp).sum()), np.exp(logp) - target


def _per_hand_ce(logits2d, labels, present, n_classes, eps):
    z = np.asarray(logits2d, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] != n_classes:
        raise ShapeMismatchError(f"expected (hands,{n_classes}) logits, got {z.shape}")
    grad = np.zeros_like(z)
    total, n = 0.0, 0
    for hand in range(z.shape[0]):
        if present is not None and not present[hand]:
            continue
        loss, g = _class_ce_soft(z[hand], int(labels[hand]), n_classes, eps)
        total += loss
        grad[hand] = g
        n += 1
    if n == 0:
        return 0.0, grad
    return total / n, grad / n


def orientation_ce_soft(logits: np.ndarray, labels, eps: float = 0.1, present=None):
    """Softened-label cross-entropy over the 8 categorical hand orientations,
    per hand, averaged over present hands. Target: (1-eps) on the label plus
    eps/8 uniform."""
    return _per_hand_ce(logits, labels, present, np.asarray(logits).shape[-1], eps)


def handpose_ce(logits: np.ndarray, labels, present=None):
    """Softmax cross-entropy over the 9 discrete hand-pose classes per hand."""
    return _per_hand_ce(logits, labels, present, np.asarray(logits).shape[-1], 0.0)


def seg_ce(logits: np.ndarray, label_map: np.ndarray):
    """Mean per-pixel softmax cross-entropy over the segmentation classes."""
    z = np.asarray(logits, dtype=np.float64)
    lab = np.asarray(label_map)
    if z.ndim != 3:
        raise ShapeMismatchError(f"segmentation logits must be (C,h,w), got {z.shape}")
    C, h, w = z.shape
    if lab.shape != (h, w):
        raise ShapeMismatchError(f"label map {lab.shape} != ({h},{w})")
    if lab.min() < 0 or lab.max() >= C:
        raise ConfigError(f"segmentation labels outside [0,{C})")
    logp = _log_softmax64(z.reshape(C, -1), axis=0)
    flat_lab = lab.reshape(-1).astype(np.int64)
    npix = h * w
    picked = logp[flat_lab, np.arange(npix)]
    loss = float(-picked.mean())
    grad = np.exp(logp)
    grad[flat_lab, np.arange(npix)] -= 1.0
    return loss, (grad / npix).reshape(C, h, w)


def deep_supervision_loss(heatmaps: list, targets: KeypointTarget, input_hw: tuple):
    """Sum of keypoint_ce over the 1/8, 1/4, 1/2 resolution supervision maps.
    ``targets`` is in full input-resolution pixels; each scale uses integer
    division of the coordinates."""
    if len(heatmaps) != 3:
        raise ShapeMismatchError(f"expected heatmaps at 3 scales, got {len(heatmaps)}")
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

@dataclass
class FrameTargets:
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
                      orientation_eps: float = 0.1,
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
    l_akp, _ = aux_keypoint_ce(heads.aux_heatmaps, targets.aux_target(div))
    l_kphv, _ = visibility_bce(heads.visibility_logits, targets.visibility_labels())
    present = targets.hands_present
    cho_present = [bool(p) and lab is not None
                   for p, lab in zip(present, targets.orientation)]
    l_cho, _ = orientation_ce_soft(heads.orientation_logits,
                                   [0 if v is None else v for v in targets.orientation],
                                   orientation_eps, cho_present)
    dhp_present = [bool(p) and lab is not None
                   for p, lab in zip(present, targets.pose)]
    l_dhp, _ = handpose_ce(heads.pose_logits,
                           [0 if v is None else v for v in targets.pose], dhp_present)
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
    if (not isinstance(entry, (list, tuple))) or len(entry) != 2:
        raise InputError(f"{what}: expected [row, col] or null, got {entry!r}")
    return (int(entry[0]), int(entry[1]))


def parse_frame_targets(doc: dict, keypoints: int = 16, aux_keypoints: int = 18,
                        hands: int = 2,
                        fingertip_indices=(2, 4, 10, 12)) -> FrameTargets:
    try:
        kps = [_pair_or_none(e, f"keypoints[{i}]")
               for i, e in enumerate(doc["keypoints"])]
        aux = [_pair_or_none(e, f"aux_keypoints[{i}]")
               for i, e in enumerate(doc.get("aux_keypoints", [None] * aux_keypoints))]
        present = np.asarray(doc["hands"], dtype=bool)
        orientation = list(doc.get("orientation", [None] * hands))
        pose = list(doc.get("pose", [None] * hands))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed frame annotation: {exc}") from exc
    if len(kps) != keypoints:
        raise InputError(f"expected {keypoints} keypoints, got {len(kps)}")
    if len(aux) != aux_keypoints:
        raise InputError(f"expected {aux_keypoints} aux keypoints, got {len(aux)}")
    if present.shape != (hands,):
        raise InputError(f"expected {hands} hand flags")
    if "fingertips" in doc:
        tips = np.asarray(doc["fingertips"], dtype=bool)
        if tips.shape != (keypoints,):
            raise InputError(f"fingertip flags must have length {keypoints}")
    else:
        tips = np.zeros(keypoints, dtype=bool)
        tips[list(fingertip_indices)] = True
    return FrameTargets(kps, aux, tips, present, orientation, pose,
                        doc.get("segmentation"))


def load_frame_targets(path, **kw) -> FrameTargets:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read frame annotation {path}: {exc}") from exc
    return parse_frame_targets(doc, **kw)
