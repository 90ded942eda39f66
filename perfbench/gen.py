"""Deterministic input generator for the benchmark.

Everything the program under test sees is produced here from the benchmark
seed and written as files: four 16-bit TOF phase PGMs and a depth PGM per
inference frame, one crafted ``.cnwb`` weight file, and, for the loss path,
a 96x96 amplitude PGM, a frame-annotation JSON and a segmentation label-map
PGM per frame. The same seed always gives byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

PHASE_HW = (240, 320)        # sensor resolution of the phase and depth images
TRAIN_HW = (96, 96)          # loss-path input resolution
HANDS = 2
KEYPOINTS = 16
AUX_KEYPOINTS = 18
ORIENTATION_CLASSES = 8
POSE_CLASSES = 9

# The crafted weights make the inference path do all of its work: both hands
# present (no early-out), most keypoints above conf_threshold and visible.
# Sharpens the primary heatmaps so that most keypoints pass conf_threshold.
# The logits grow with it, and so does the float32 rounding gap between the
# backends: at 3000 their confidences drifted 1e-4 apart, at 1000 3e-5.
KP_KERNEL_SCALE = 1000.0
HAND_PRESENT_BIAS = 6.0
KP_VISIBLE_BIAS = 4.0
KP_HIDDEN_PER_HAND = 1        # keypoints per hand the visibility head hides


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _write_pgm(path: Path, img: np.ndarray) -> None:
    # Written here rather than with combnet.pgm so the inputs do not depend
    # on the code under test.
    img = np.asarray(img, dtype=np.uint16)
    h, w = img.shape
    path.write_bytes(f"P5\n{w} {h}\n65535\n".encode("ascii")
                     + img.astype(">u2").tobytes())


def _hand_mask(rng, hw, center, radius) -> np.ndarray:
    """Palm ellipse plus five finger strokes."""
    h, w = hw
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    cy, cx = center
    mask = ((yy - cy) / radius) ** 2 + ((xx - cx) / (0.8 * radius)) ** 2 <= 1.0
    for k in range(5):
        ang = -np.pi / 2 + (k - 2) * 0.35 + rng.normal(0, 0.05)
        length = radius * rng.uniform(0.9, 1.4)
        for t in np.linspace(0.8, 1.0 + length / radius, 12):
            fy, fx = cy + np.sin(ang) * radius * t, cx + np.cos(ang) * radius * t
            mask |= (yy - fy) ** 2 + (xx - fx) ** 2 <= (0.12 * radius) ** 2
    return mask


def make_phase_frame(seed: int, index: int):
    """One sensor frame: (4 phase images, depth image), uint16, PHASE_HW."""
    rng = _rng(seed, 1, index)
    h, w = PHASE_HW
    amp = rng.normal(2500.0, 300.0, (h, w))
    depth = rng.normal(900.0, 30.0, (h, w))
    # a far background region beyond z_max: keypoints there fall back to the
    # window median or come out depth-invalid
    y0, x0 = int(rng.integers(0, h // 2)), int(rng.integers(0, w // 2))
    depth[y0:y0 + h // 2, x0:x0 + w // 3] = rng.uniform(1200.0, 2500.0)
    for hand in range(HANDS):
        center = (rng.uniform(0.35 * h, 0.65 * h),
                  rng.uniform((0.15 + 0.45 * hand) * w, (0.40 + 0.45 * hand) * w))
        m = _hand_mask(rng, (h, w), center, rng.uniform(28.0, 40.0))
        amp[m] = rng.uniform(18000.0, 30000.0) + rng.normal(0.0, 1500.0, m.sum())
        depth[m] = rng.uniform(300.0, 700.0) + rng.normal(0.0, 8.0, m.sum())
    depth[rng.random((h, w)) < 0.05] = 0.0     # sensor drop-outs
    amp = np.clip(amp, 0.0, 40000.0)
    phi = rng.uniform(0.0, 2.0 * np.pi, (h, w))
    phases = [np.clip(np.rint(amp * (1.0 + 0.5 * np.cos(phi + k * np.pi / 2))),
                      0, 65535).astype(np.uint16) for k in range(4)]
    return phases, np.clip(np.rint(depth), 0, 65535).astype(np.uint16)


def make_weights(seed: int):
    """The crafted weight store: seeded init, then a sharpened primary head
    and visibility biases that keep both hands present and most keypoints
    visible. Every layer shape is resolution independent, so one store
    serves the 128x128 and the 96x96 configuration."""
    from combnet.config import REFERENCE_CONFIG
    from combnet.graph import build_graph
    from combnet.weights import init_weights

    ws = init_weights(build_graph(REFERENCE_CONFIG), seed)
    # non-negative decoder kernels keep every heatmap channel alive through
    # the decoder's ReLUs, so each primary map has a single sharp peak
    for name in ("dec.proj.w", "dec.s1.w", "dec.s2.w"):
        ws.set(name, np.abs(ws.get(name)))
    ws.set("head.kp.w", ws.get("head.kp.w") * KP_KERNEL_SCALE)
    rng = _rng(seed, 2)
    bias = np.full(KEYPOINTS + HANDS, KP_VISIBLE_BIAS, dtype=np.float32)
    per_hand = KEYPOINTS // HANDS
    for hand in range(HANDS):
        hidden = rng.choice(per_hand, KP_HIDDEN_PER_HAND, replace=False)
        bias[hand * per_hand + hidden] = -KP_VISIBLE_BIAS
    bias[KEYPOINTS:] = HAND_PRESENT_BIAS
    ws.set("head.vis.w", ws.get("head.vis.w") * 0.05)
    ws.set("head.vis.b", bias)
    return ws


def make_train_frame(seed: int, index: int):
    """(amplitude uint16 96x96, annotation dict, segmentation uint16 48x48)."""
    rng = _rng(seed, 3, index)
    h, w = TRAIN_HW
    amp = rng.normal(3000.0, 400.0, (h, w))
    seg = np.zeros((h // 2, w // 2), dtype=np.uint16)
    present = [bool(rng.random() < 0.9) for _ in range(HANDS)]
    if not any(present):
        present[0] = True
    keypoints = []
    for hand in range(HANDS):
        center = (rng.uniform(0.3 * h, 0.7 * h),
                  rng.uniform((0.1 + 0.45 * hand) * w, (0.45 + 0.45 * hand) * w))
        m = _hand_mask(rng, (h, w), center, rng.uniform(10.0, 14.0))
        if present[hand]:
            amp[m] = rng.uniform(20000.0, 32000.0)
            seg[m[::2, ::2]] = 1 + hand
        for _ in range(KEYPOINTS // HANDS):
            if present[hand] and rng.random() < 0.85:
                keypoints.append([int(np.clip(center[0] + rng.normal(0, 8), 0, h - 1)),
                                  int(np.clip(center[1] + rng.normal(0, 8), 0, w - 1))])
            else:
                keypoints.append(None)
    aux = [[int(rng.integers(0, h)), int(rng.integers(0, w))]
           if rng.random() < 0.8 else None for _ in range(AUX_KEYPOINTS)]
    doc = {
        "keypoints": keypoints,
        "aux_keypoints": aux,
        "hands": present,
        "orientation": [int(rng.integers(0, ORIENTATION_CLASSES)) if p else None
                        for p in present],
        "pose": [int(rng.integers(0, POSE_CLASSES)) if p else None for p in present],
    }
    amp = np.clip(np.rint(amp), 0, 65535).astype(np.uint16)
    return amp, doc, seg


def write_infer_inputs(seed: int, frames: int, root: Path) -> list:
    """Write the weight file and `frames` sensor frames; returns one dict of
    paths per frame."""
    from combnet.weights import save_weights

    root.mkdir(parents=True, exist_ok=True)
    weights = root / "weights.cnwb"
    save_weights(make_weights(seed), weights)
    out = []
    for i in range(frames):
        phases, depth = make_phase_frame(seed, i)
        paths = [root / f"f{i}_p{k}.pgm" for k in range(4)]
        for p, img in zip(paths, phases):
            _write_pgm(p, img)
        _write_pgm(root / f"f{i}_depth.pgm", depth)
        out.append({"weights": str(weights), "phases": [str(p) for p in paths],
                    "depth": str(root / f"f{i}_depth.pgm")})
    return out


def write_train_inputs(seed: int, frames: int, root: Path) -> dict:
    """Write the weight file, a 96x96 config and `frames` labelled frames."""
    from combnet.weights import save_weights

    root.mkdir(parents=True, exist_ok=True)
    weights = root / "weights.cnwb"
    save_weights(make_weights(seed), weights)
    cfg = root / "train96.cfg"
    cfg.write_text(f"input_h = {TRAIN_HW[0]}\ninput_w = {TRAIN_HW[1]}\n")
    out = []
    for i in range(frames):
        amp, doc, seg = make_train_frame(seed, i)
        img, ann, segp = root / f"t{i}.pgm", root / f"t{i}.json", root / f"t{i}_seg.pgm"
        _write_pgm(img, amp)
        _write_pgm(segp, seg)
        doc["segmentation"] = str(segp)
        ann.write_text(json.dumps(doc))
        out.append({"image": str(img), "annotation": str(ann)})
    return {"weights": str(weights), "config": str(cfg), "frames": out}


def verify_seeds(seed: int, count: int) -> list:
    """Seeds handed to `combnet verify --seed`, one per op, cycled."""
    return [int(s) for s in _rng(seed, 4).integers(0, 2**31 - 1, count)]
