"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import functools
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

from combnet.config import REFERENCE_CONFIG, NetConfig
from combnet.convops import (ConvSpec, comb_dilated_conv, conv2d_ref, counting,
                             mac_count, zero_stuff_kernel, zero_stuffed_spec)
from combnet.forward import Backend, Mode, forward
from combnet.graph import build_graph, count_layers
from combnet.losses import (KeypointTarget, LossBundle, handpose_ce, keypoint_ce,
                            orientation_ce_soft, seg_ce, total_loss)
from combnet.tensor import Tensor
from combnet.verify import (backend_e2e_suite, bn_fold_suite, conv_oracle_suite,
                            loss_gradient_suite)
from combnet.weights import init_weights, save_weights

SEED = 20_240_101
REPO = Path(__file__).resolve().parent.parent

PARAM_TARGET = 41_000
FLOP_TARGET = 35_000_000


def criterion(num, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*a, **kw):
            try:
                fn(*a, **kw)
            except BaseException:
                print(f"ACCEPTANCE {num} FAIL: {title}")
                raise
            print(f"ACCEPTANCE {num} PASS: {title}")
        return run
    return wrap


@criterion(1, "budget reproduction (params/FLOPs within +-25%, weights <= 300 KB)")
def test_criterion_1_budget(tmp_path):
    g = build_graph(REFERENCE_CONFIG)
    _, total = count_layers(g, Mode.INFERENCE_HEADS)
    params, flops = total.params, total.flops
    assert abs(params - PARAM_TARGET) / PARAM_TARGET <= 0.25, \
        f"params {params} outside +-25% of {PARAM_TARGET}"
    assert abs(flops - FLOP_TARGET) / FLOP_TARGET <= 0.25, \
        f"FLOPs {flops} outside +-25% of {FLOP_TARGET}"
    size = save_weights(init_weights(g, SEED), tmp_path / "ref.cnwb")
    assert size <= 300 * 1024, f"weight file {size} bytes exceeds 300 KB"
    # the CLI reports the same budget deltas on the shipped default config
    r = subprocess.run([sys.executable, "-m", "combnet.cli", "count"],
                       capture_output=True, text=True, cwd=REPO)
    assert r.returncode == 0
    assert "params vs 0.041M target" in r.stdout


@criterion(2, "oracle equivalence over >=100 randomized conv cases")
def test_criterion_2_oracle_equivalence():
    results = conv_oracle_suite(SEED, cases=100)
    packed = next(r for r in results if "packed" in r.name)
    comb = next(r for r in results if "comb" in r.name)
    assert packed.cases >= 100
    assert packed.max_dev <= 1e-5, packed.line()
    assert comb.max_dev <= 1e-6, comb.line()


@criterion(3, "zero-overhead comb: counted multiplies equal theoretical MACs")
def test_criterion_3_zero_overhead():
    rng = np.random.default_rng(SEED)
    k = 3
    for d in (1, 2, 3, 4):
        spec = ConvSpec(32, 32, (k, k), dilation=d, groups=8)
        x = Tensor.from_array(rng.standard_normal((32, 12, 12)).astype(np.float32))
        w = rng.standard_normal(spec.weight_shape()).astype(np.float32)
        macs = mac_count(spec, 12, 12)
        with counting() as ops:
            comb_dilated_conv(x, w, None, spec)
        assert ops.mults == macs, f"d={d}: comb executed {ops.mults} != {macs}"
        # the naive baseline pays the zero-stuffed footprint: ((d(k-1)+1)/k)^2
        with counting() as ops_stuffed:
            conv2d_ref(x, zero_stuff_kernel(w, d), None, zero_stuffed_spec(spec))
        assert ops_stuffed.mults * k * k == macs * (d * (k - 1) + 1) ** 2
        if d == 2:
            assert (macs, ops_stuffed.mults) == (165_888, 460_800)


@criterion(4, "BN folding agrees with unfolded pipeline on 50 random cases")
def test_criterion_4_bn_folding():
    res = bn_fold_suite(SEED, cases=50)
    assert res.cases == 50
    assert res.max_dev <= 1e-5, res.line()


@criterion(5, "loss suite: gradients vs finite differences, closed forms, Eq-1 sum")
def test_criterion_5_losses():
    for res in loss_gradient_suite(SEED, instances=10):
        assert res.max_dev <= 1e-4, res.line()
    assert total_loss(LossBundle(1, 1, 1, 1, 1, 1, 1)) == 103.0
    lkp, _ = keypoint_ce(np.zeros((1, 48, 48)), KeypointTarget([(0, 0)]))
    assert abs(lkp - math.log(2304)) <= 1e-9
    lo, _ = orientation_ce_soft(np.zeros((2, 8)), [0, 0], 0.1)
    assert abs(lo - math.log(8)) <= 1e-9
    lp, _ = handpose_ce(np.zeros((2, 9)), [0, 0])
    assert abs(lp - math.log(9)) <= 1e-9
    ls, _ = seg_ce(np.zeros((3, 6, 6)), np.zeros((6, 6), int))
    assert abs(ls - math.log(3)) <= 1e-9


@criterion(6, "end-to-end determinism and backend agreement")
def test_criterion_6_backend_agreement():
    results = backend_e2e_suite(SEED, pairs=20)
    e2e = next(r for r in results if "end-to-end" in r.name)
    decode = next(r for r in results if "decode" in r.name)
    assert e2e.cases >= 20
    assert e2e.max_dev <= 1e-4, e2e.line()
    assert decode.max_dev == 0.0, "decoded keypoints diverged above the margin"
    # bit-exact determinism of a repeated forward, both backends
    g = build_graph(NetConfig(input_h=96, input_w=96))
    ws = init_weights(g, SEED)
    img = Tensor.from_array(
        np.random.default_rng(SEED).uniform(0, 1, (1, 96, 96)).astype(np.float32))
    for backend in (Backend.REFERENCE, Backend.OPTIMIZED):
        a = forward(g, ws, img, backend, Mode.INFERENCE_HEADS)
        b = forward(g, ws, img, backend, Mode.INFERENCE_HEADS)
        assert np.array_equal(a.primary_heatmaps, b.primary_heatmaps)
        assert np.array_equal(a.visibility_logits, b.visibility_logits)


@criterion(7, "substitute benchmark: comb multiply advantage (speedup reported)")
def test_criterion_7_benchmark_report(capsys):
    # Full-scale accuracy and on-device latency need the original training
    # corpus and VPU hardware; the desk-scale substitute is the property
    # suites above plus this multiply-count and wall-time report.
    from combnet.bench import run_benchmarks
    report = run_benchmarks(NetConfig(input_h=96, input_w=96), seed=SEED,
                            iters=3, warmup=1)
    rows = {r.case + "/" + r.backend: r for r in report.rows}
    comb = rows["dilated-3x3-g8-d2-12x12-comb/optimized"]
    stuffed = rows["dilated-3x3-g8-d2-12x12-zerostuffed/reference"]
    assert comb.mults_counted == 165_888
    assert stuffed.mults_counted == 460_800
    speedup = stuffed.median_ms / comb.median_ms
    with capsys.disabled():
        print(f"\n  comb multiply advantage: {stuffed.mults_counted}"
              f"/{comb.mults_counted} = "
              f"{stuffed.mults_counted / comb.mults_counted:.2f}x; "
              f"desk-scale wall-time ratio {speedup:.2f}x (reported, not gated)")
        sys.stdout.write(report.to_text())
