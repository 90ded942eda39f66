"""Self-verification suites: oracle equivalence for the optimized kernels,
BN folding, end-to-end backend agreement, and finite-difference checks of
every loss gradient. Shared by `combnet verify` and the test suite.

All suites are deterministic for a given seed and report the worst deviation
they observed, so a report can be compared byte-for-byte across runs.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import keep_freed_memory
from .config import NetConfig
from .convops import (ConvSpec, comb_dilated_conv, conv2d_packed,
                      conv2d_ref, fold_batchnorm, batchnorm_inference)
from .errors import ConfigError
from .forward import Backend, Mode, forward
from .graph import build_graph
from .losses import (KeypointTarget, deep_supervision_loss, handpose_ce,
                     keypoint_ce, orientation_ce_soft, seg_ce, visibility_bce)
from .postprocess import decode_heatmaps
from .tensor import Tensor, pack_kernels, to_interleaved
from .weights import bn_scale_shift, init_weights


class SuiteResult(NamedTuple):
    name: str
    cases: int
    max_dev: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_dev <= self.tolerance

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status}  {self.name:<28} cases={self.cases:<4} "
                f"max_dev={self.max_dev:.3e}  tol={self.tolerance:.0e}")


def _at_least_one(name: str, n: int) -> None:
    """A suite over no cases would pass vacuously: a count below 1 is a
    configuration error."""
    if n < 1:
        raise ConfigError(f"{name} must be at least 1, got {n}")


def _random_conv_case(rng):
    groups = int(rng.choice([1, 4, 8, 0]))  # 0 -> channel-wise
    mult_in = int(rng.integers(1, 3))
    mult_out = int(rng.integers(1, 3))
    if groups == 0:
        in_ch = int(rng.choice([8, 16]))
        groups, out_ch = in_ch, in_ch
    else:
        in_ch, out_ch = groups * mult_in, groups * mult_out
    k = int(rng.choice([1, 3, 3, 5]))
    dilation = int(rng.choice([1, 2, 3, 4])) if k > 1 else 1
    stride = int(rng.choice([1, 2]))
    lo = dilation * (k - 1) + 1
    h = int(rng.integers(lo, lo + 9))
    w = int(rng.integers(lo, lo + 9))
    has_bias = bool(rng.random() < 0.5)
    spec = ConvSpec(in_ch, out_ch, (k, k), stride, dilation, groups, has_bias)
    x = rng.standard_normal((in_ch, h, w)).astype(np.float32)
    wts = rng.standard_normal(spec.weight_shape()).astype(np.float32)
    b = rng.standard_normal(out_ch).astype(np.float32) if has_bias else None
    return spec, x, wts, b


def conv_oracle_suite(seed: int, cases: int = 100) -> list:
    """The optimized conv vs conv2d_ref over randomized specs spanning groups
    {1,4,8,C} and dilation 1-4, each case run once: even-numbered cases at
    stride 1 as comb_dilated_conv (conv2d_packed limited to stride 1), odd
    ones at stride 2 as conv2d_packed. The packed line covers every case,
    the comb line the stride-1 ones, at least one by construction."""
    _at_least_one("cases", cases)
    rng = np.random.default_rng(seed)
    packed_dev, comb_dev = 0.0, 0.0
    for i in range(cases):
        spec, x, w, b = _random_conv_case(rng)
        spec = spec._replace(stride=1 + i % 2)  # by position: every run has a comb case
        t = Tensor.from_array(x)
        ref = conv2d_ref(t, w, b, spec).to_array()
        conv = comb_dilated_conv if spec.stride == 1 else conv2d_packed
        got = conv(to_interleaved(t), pack_kernels(w, spec.groups), b, spec).to_array()
        dev = float(np.max(np.abs(got - ref)))
        packed_dev = max(packed_dev, dev)
        if spec.stride == 1:
            comb_dev = max(comb_dev, dev)
    return [SuiteResult("conv packed vs reference", cases, packed_dev, 1e-5),
            SuiteResult("conv comb vs reference", (cases + 1) // 2, comb_dev, 1e-6)]


def bn_fold_suite(seed: int, cases: int = 50) -> SuiteResult:
    """Folded conv vs conv-then-BN on random parameters and inputs."""
    _at_least_one("cases", cases)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        spec, x, w, b = _random_conv_case(rng)
        bn = bn_scale_shift(rng.uniform(0.5, 2.0, spec.out_ch).astype(np.float32),
                            rng.standard_normal(spec.out_ch).astype(np.float32),
                            rng.standard_normal(spec.out_ch).astype(np.float32),
                            rng.uniform(0.1, 2.0, spec.out_ch).astype(np.float32))
        t = Tensor.from_array(x)
        # BN on the conv's float64 result, rounded once, as the folded conv is
        unfolded = batchnorm_inference(conv2d_ref(t, w, b, spec, rounded=False),
                                       bn).to_array()
        wf, bf = fold_batchnorm(w, b, bn)
        folded = conv2d_ref(t, wf, bf, spec).to_array()
        worst = max(worst, float(np.max(np.abs(folded - unfolded))))
    return SuiteResult("batch-norm folding", cases, worst, 1e-5)


def backend_e2e_suite(seed: int, pairs: int = 20) -> list:
    """Full forward at 96x96, Reference vs Optimized, over seeded (weights,
    image) pairs; also checks that decoded keypoints agree whenever the top-2
    heatmap margin is at least 1e-3."""
    _at_least_one("pairs", pairs)
    resolution = 96
    cfg = NetConfig(input_h=resolution, input_w=resolution)
    g = build_graph(cfg)
    rng = np.random.default_rng(seed)
    worst = 0.0
    decode_mismatches = 0
    checked = 0
    for i in range(pairs):
        ws = init_weights(g, seed + i)
        img = Tensor.from_array(rng.uniform(0.0, 1.0, (1, resolution, resolution))
                                .astype(np.float32))
        ref = forward(g, ws, img, Backend.REFERENCE, Mode.INFERENCE_HEADS)
        opt = forward(g, ws, img, Backend.OPTIMIZED, Mode.INFERENCE_HEADS)
        worst = max(worst,
                    float(np.max(np.abs(ref.primary_heatmaps - opt.primary_heatmaps))),
                    float(np.max(np.abs(ref.visibility_logits - opt.visibility_logits))))
        kref = decode_heatmaps(ref.primary_heatmaps, input_hw=(resolution, resolution))
        kopt = decode_heatmaps(opt.primary_heatmaps, input_hw=(resolution, resolution))
        for hm, a, bkp in zip(ref.primary_heatmaps, kref, kopt):
            flat = np.sort(hm.reshape(-1))
            if flat[-1] - flat[-2] < 1e-3:
                continue
            checked += 1
            if (a.u, a.v) != (bkp.u, bkp.v):
                decode_mismatches += 1
    return [SuiteResult("backend end-to-end", pairs, worst, 1e-4),
            SuiteResult("decode agreement (margin)", checked,
                        float(decode_mismatches), 0.0)]


# Coordinates per loss call in _fd_check: 64 perturbed rows of the largest
# instance (deep supervision, 1,008 coordinates) take 516 KB. That is above
# glibc's default 128 KiB mmap threshold, so loss_gradient_suite applies the
# allocator policy and each call reuses the last one's freed temporaries
# instead of faulting them in again. Larger blocks gain no time and add RSS.
_FD_BLOCK = 32


def _fd_check(fn, z0: np.ndarray) -> float:
    """Relative error between the analytic gradient of fn and central finite
    differences with step 1e-4 over every coordinate (64-bit). ``fn`` takes
    logits with leading batch axes: each block of coordinates is perturbed
    up and down in one call, of shape (2, block, *z0.shape)."""
    step = 1e-4
    z0 = np.asarray(z0, dtype=np.float64)
    _, grad = fn(z0)
    grad = np.asarray(grad, dtype=np.float64)
    flatz = z0.reshape(-1)
    fd = np.empty(flatz.size)
    for lo in range(0, flatz.size, _FD_BLOCK):
        b = min(_FD_BLOCK, flatz.size - lo)
        z = np.tile(flatz, (2, b, 1))
        diagonal = (np.arange(b), lo + np.arange(b))
        z[0][diagonal] += step
        z[1][diagonal] -= step
        f = fn(z.reshape(2, b, *z0.shape))[0]
        fd[lo:lo + b] = (f[0] - f[1]) / (2 * step)
    fd = fd.reshape(z0.shape)
    denom = max(float(np.linalg.norm(grad.reshape(-1))),
                float(np.linalg.norm(fd.reshape(-1))), 1e-12)
    return float(np.linalg.norm((grad - fd).reshape(-1))) / denom


def loss_gradient_suite(seed: int, instances: int = 10) -> list:
    """Every loss vs central finite differences on random small instances.
    Each maker draws one instance from the shared generator and returns the
    loss as a function of its logits, with the logits to check it at."""
    _at_least_one("instances", instances)
    keep_freed_memory()  # as forward does: _fd_check's blocks exceed 128 KiB
    rng = np.random.default_rng(seed)
    K, h, w = 4, 6, 8
    H, W = 24, 32
    ds_sizes = [(K, H // 8, W // 8), (K, H // 4, W // 4), (K, H // 2, W // 2)]
    ds_splits = np.cumsum([math.prod(s) for s in ds_sizes])

    def keypoint():
        pixels = [None if rng.random() < 0.25
                  else (int(rng.integers(0, h)), int(rng.integers(0, w)))
                  for _ in range(K)]
        if all(p is None for p in pixels):
            pixels[0] = (0, 0)
        tgt = KeypointTarget(pixels, rng.random(K) < 0.4)
        return (lambda q: keypoint_ce(q, tgt)), rng.standard_normal((K, h, w))

    def visibility():
        y = (rng.random(18) < 0.5).astype(np.float64)
        return (lambda q: visibility_bce(q, y)), rng.standard_normal(18)

    def orientation():
        labels = rng.integers(0, 8, size=2)
        present = rng.random(2) < 0.8
        if not present.any():
            present[0] = True
        return ((lambda q: orientation_ce_soft(q, labels, present=present)),
                rng.standard_normal((2, 8)))

    def handpose():
        labels = rng.integers(0, 9, size=2)
        present = rng.random(2) < 0.8
        if not present.any():
            present[1] = True
        return (lambda q: handpose_ce(q, labels, present)), rng.standard_normal((2, 9))

    def segmentation():
        lab = rng.integers(0, 3, size=(5, 7))
        return (lambda q: seg_ce(q, lab)), rng.standard_normal((3, 5, 7))

    def deep_supervision():
        pixels = [(int(rng.integers(0, H)), int(rng.integers(0, W)))
                  for _ in range(K)]
        tgt = KeypointTarget(pixels, rng.random(K) < 0.4)

        def fn(flat):
            parts = np.split(flat, ds_splits[:-1], axis=-1)
            maps = [p.reshape(*p.shape[:-1], *s) for p, s in zip(parts, ds_sizes)]
            loss, grads = deep_supervision_loss(maps, tgt, (H, W))
            return loss, np.concatenate([gr.reshape(*gr.shape[:-3], -1) for gr in grads],
                                        axis=-1)

        return fn, rng.standard_normal(ds_splits[-1])

    makers = (("keypoint_ce", keypoint), ("visibility_bce", visibility),
              ("orientation_ce_soft", orientation), ("handpose_ce", handpose),
              ("seg_ce", segmentation), ("deep_supervision", deep_supervision))
    return [SuiteResult(f"grad {name}", instances,
                        max(_fd_check(*make()) for _ in range(instances)),
                        1e-4)
            for name, make in makers]


def run_all(seed: int, conv_cases: int = 100, e2e_pairs: int = 20) -> list:
    # checked up front, so a bad pairs count fails before the conv suite runs
    _at_least_one("cases", conv_cases)
    _at_least_one("pairs", e2e_pairs)
    results = []
    results += conv_oracle_suite(seed, conv_cases)
    results.append(bn_fold_suite(seed + 1))
    results += backend_e2e_suite(seed + 2, e2e_pairs)
    results += loss_gradient_suite(seed + 3)
    return results


def report_text(results: list, seed: int) -> str:
    lines = [f"combnet verification (seed={seed})"]
    lines += [r.line() for r in results]
    n_fail = sum(not r.passed for r in results)
    lines.append(f"{len(results) - n_fail}/{len(results)} suites passed")
    return "\n".join(lines) + "\n"
