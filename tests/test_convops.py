import operator
import sys
import threading

import numpy as np
import pytest
from scipy import signal

from combnet import convops
from combnet.config import NetConfig
from combnet.convops import (ConvSpec, batchnorm_inference,
                             comb_dilated_conv, conv2d_packed, conv2d_ref,
                             conv_out_shape, counting, fold_batchnorm,
                             mac_count, relu, upsample_nearest_2x,
                             zero_stuff_kernel, zero_stuffed_spec)
from combnet.errors import (ConfigError, LayoutMismatchError, ShapeMismatchError,
                            UnsupportedConfigError)
from combnet.graph import BN_EPS, build_graph
from combnet.tensor import Tensor, pack_kernels, to_interleaved
from combnet.verify import _random_conv_case, bn_fold_suite
from combnet.weights import bn_scale_shift


def brute_force_conv(x, w, b, spec):
    """Independent triple-loop direct summation, written apart from the
    production kernels on purpose."""
    C, H, W = x.shape
    ph, pw = spec.pad()
    kh, kw = spec.kernel
    oh = (H + 2 * ph - spec.dilation * (kh - 1) - 1) // spec.stride + 1
    ow = (W + 2 * pw - spec.dilation * (kw - 1) - 1) // spec.stride + 1
    out = np.zeros((spec.out_ch, oh, ow))
    ipg, opg = spec.in_per_group, spec.out_per_group
    for oc in range(spec.out_ch):
        g = oc // opg
        for oy in range(oh):
            for ox in range(ow):
                acc = 0.0
                for ci in range(ipg):
                    for ky in range(kh):
                        for kx in range(kw):
                            y = oy * spec.stride + ky * spec.dilation - ph
                            xx = ox * spec.stride + kx * spec.dilation - pw
                            if 0 <= y < H and 0 <= xx < W:
                                acc += float(x[g * ipg + ci, y, xx]) * float(w[oc, ci, ky, kx])
                out[oc, oy, ox] = acc + (float(b[oc]) if b is not None else 0.0)
    return out


def run_ref(x, w, b, spec):
    return conv2d_ref(Tensor.from_array(x), w, b, spec).to_array()


def run_packed(x, w, b, spec):
    t = to_interleaved(Tensor.from_array(x))
    out = conv2d_packed(t, pack_kernels(w, spec.groups), b, spec)
    return out.to_array()


def run_comb(x, w, b, spec):
    t = to_interleaved(Tensor.from_array(x))
    out = comb_dilated_conv(t, pack_kernels(w, spec.groups), b, spec)
    return out.to_array()


# ---------------------------------------------------------------------------
# conv2d_ref
# ---------------------------------------------------------------------------

def test_ref_all_ones_same_padding():
    spec = ConvSpec(1, 1, (3, 3))
    out = run_ref(np.ones((1, 3, 3), np.float32), np.ones((1, 1, 3, 3), np.float32),
                  None, spec)[0]
    assert out[1, 1] == 9.0
    assert out[0, 0] == out[0, 2] == out[2, 0] == out[2, 2] == 4.0


def test_ref_delta_kernel_is_identity():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 7, 9)).astype(np.float32)
    w = np.zeros((3, 3, 3, 3), np.float32)
    for c in range(3):
        w[c, c, 1, 1] = 1.0
    out = run_ref(x, w, None, ConvSpec(3, 3, (3, 3)))
    np.testing.assert_array_equal(out, x)


def test_ref_grouped_strided_vs_brute_force():
    rng = np.random.default_rng(1)
    spec = ConvSpec(4, 8, (3, 3), stride=2, groups=2, has_bias=True)
    x = rng.standard_normal((4, 9, 8)).astype(np.float32)
    w = rng.standard_normal(spec.weight_shape()).astype(np.float32)
    b = rng.standard_normal(8).astype(np.float32)
    np.testing.assert_allclose(run_ref(x, w, b, spec), brute_force_conv(x, w, b, spec),
                               atol=1e-5)


@pytest.mark.parametrize("case", range(8))
def test_ref_vs_brute_force_randomized(case):
    rng = np.random.default_rng(100 + case)
    g = int(rng.choice([1, 2, 4]))
    spec = ConvSpec(g * int(rng.integers(1, 3)), g * int(rng.integers(1, 3)),
                    (int(rng.choice([1, 3])),) * 2,
                    stride=int(rng.choice([1, 2])),
                    dilation=int(rng.choice([1, 2, 3])), groups=g,
                    has_bias=bool(rng.random() < 0.5))
    k, d = spec.kernel[0], spec.dilation
    h = int(rng.integers(d * (k - 1) + 1, 12))
    w_ = int(rng.integers(d * (k - 1) + 1, 12))
    x = rng.standard_normal((spec.in_ch, h, w_)).astype(np.float32)
    w = rng.standard_normal(spec.weight_shape()).astype(np.float32)
    b = rng.standard_normal(spec.out_ch).astype(np.float32) if spec.has_bias else None
    np.testing.assert_allclose(run_ref(x, w, b, spec), brute_force_conv(x, w, b, spec),
                               atol=1e-4)


# The shapes the network runs: channel-wise at G = C = 16 (decoder, head.kp),
# one input channel into 16 outputs at stride 2 (t1.conv), 3-4 inputs into 2-4
# outputs per group, dilations 2 and 3 with and without a bias.
_NETWORK_SHAPED_SPECS = [
    (ConvSpec(16, 16, (3, 3), groups=16), (9, 9)),
    (ConvSpec(16, 16, (3, 3), groups=16, has_bias=True), (8, 7)),
    (ConvSpec(1, 16, (3, 3), stride=2, has_bias=True), (9, 8)),
    (ConvSpec(1, 16, (3, 3), stride=2), (7, 9)),
    (ConvSpec(12, 8, (3, 3), groups=4, has_bias=True), (9, 9)),
    (ConvSpec(8, 8, (3, 3), stride=2, groups=2), (9, 8)),
    (ConvSpec(6, 4, (1, 1), groups=2), (5, 6)),
    (ConvSpec(12, 12, (3, 3), groups=3), (6, 9)),
    (ConvSpec(16, 16, (3, 3), dilation=2, groups=16), (9, 9)),
    (ConvSpec(16, 16, (3, 3), dilation=3, groups=16, has_bias=True), (9, 7)),
    (ConvSpec(8, 16, (3, 3), dilation=2, groups=2, has_bias=True), (8, 9)),
    (ConvSpec(8, 8, (3, 3), dilation=3, groups=2), (9, 9)),
]


@pytest.mark.parametrize("case", range(len(_NETWORK_SHAPED_SPECS)))
def test_ref_vs_brute_force_on_network_shapes(case):
    spec, hw = _NETWORK_SHAPED_SPECS[case]
    rng = np.random.default_rng(200 + case)
    x = rng.standard_normal((spec.in_ch, *hw)).astype(np.float32)
    w = rng.standard_normal(spec.weight_shape()).astype(np.float32)
    b = rng.standard_normal(spec.out_ch).astype(np.float32) if spec.has_bias else None
    got = conv2d_ref(Tensor.from_array(x), w, b, spec, rounded=False)
    np.testing.assert_allclose(got, brute_force_conv(x, w, b, spec), rtol=0, atol=1e-9)


def _per_group_tensordot(x, w, b, spec):
    """The oracle as a per-group loop: per group and kernel tap, one
    np.tensordot of the (opg, ipg) weights with the (ipg, oh, ow) window."""
    ph, pw = spec.pad()
    c, h, wd = x.shape
    xp = np.zeros((c, h + 2 * ph, wd + 2 * pw))
    xp[:, ph:ph + h, pw:pw + wd] = x
    oh, ow = conv_out_shape(spec, h, wd)
    out = np.zeros((spec.out_ch, oh, ow))
    kh, kw = spec.kernel
    d, s = spec.dilation, spec.stride
    ipg, opg = spec.in_per_group, spec.out_per_group
    for g in range(spec.groups):
        wg = w[g * opg:(g + 1) * opg].astype(np.float64)
        for ky in range(kh):
            for kx in range(kw):
                patch = xp[g * ipg:(g + 1) * ipg, ky * d:ky * d + (oh - 1) * s + 1:s,
                           kx * d:kx * d + (ow - 1) * s + 1:s]
                out[g * opg:(g + 1) * opg] += np.tensordot(wg[:, :, ky, kx], patch,
                                                           axes=([1], [0]))
    if b is not None:
        out += b.astype(np.float64)[:, None, None]
    return out


@pytest.mark.parametrize("stride", [1, 2])
def test_ref_bits_equal_a_per_group_loop_on_random_specs(stride):
    # verify's reports stay byte-stable only while the oracle's 64-bit sums
    # keep these bits
    rng = np.random.default_rng(31 + stride)
    for _ in range(60):
        spec, x, w, b = _random_conv_case(rng)
        spec = spec._replace(stride=stride)
        got = conv2d_ref(Tensor.from_array(x), w, b, spec, rounded=False)
        assert np.array_equal(got, _per_group_tensordot(x, w, b, spec)), spec


def test_ref_bits_equal_a_per_group_loop_on_the_graph_convs():
    g = build_graph(NetConfig(input_h=96, input_w=96))
    rng = np.random.default_rng(32)
    convs = [n for n in g.nodes if n.kind == "conv"]
    assert {n.conv.groups for n in convs} >= {1, 16}
    for node in convs:
        spec = node.conv
        x = rng.standard_normal(g.node(node.inputs[0]).out_shape).astype(np.float32)
        w = rng.standard_normal(spec.weight_shape()).astype(np.float32)
        b = rng.standard_normal(spec.out_ch).astype(np.float32) if spec.has_bias else None
        got = conv2d_ref(Tensor.from_array(x), w, b, spec, rounded=False)
        assert np.array_equal(got, _per_group_tensordot(x, w, b, spec)), node.name


@pytest.mark.parametrize("rounded", [False, True])
def test_ref_empty_output_raises(rounded):
    # the engine's error: conv2d_packed raises it for the same call
    spec = ConvSpec(2, 2, (4, 4), has_bias=True)
    x = Tensor.from_array(np.ones((2, 1, 1), np.float32))
    w = np.ones(spec.weight_shape(), np.float32)
    with pytest.raises(ShapeMismatchError, match="empty output"):
        conv2d_ref(x, w, np.ones(2, np.float32), spec, rounded=rounded)


def test_ref_shape_errors():
    spec = ConvSpec(2, 2, (3, 3))
    with pytest.raises(ShapeMismatchError):
        conv2d_ref(Tensor.from_array(np.zeros((3, 5, 5), np.float32)),
                   np.zeros((2, 2, 3, 3), np.float32), None, spec)
    with pytest.raises(ConfigError):
        ConvSpec(3, 4, (3, 3), groups=2)
    with pytest.raises(ConfigError, match="non-positive"):
        ConvSpec(0, 1, (1, 1))
    with pytest.raises(ConfigError, match="stride"):
        ConvSpec(1, 1, (1, 1), stride=0)


@pytest.mark.parametrize("kernel", [conv2d_ref, conv2d_packed, comb_dilated_conv])
def test_conv_rejects_wrong_bias_length(kernel):
    spec = ConvSpec(4, 4, (3, 3), groups=2, has_bias=True)
    t = Tensor.from_array(np.zeros((4, 6, 6), np.float32))
    w = np.zeros(spec.weight_shape(), np.float32)
    if kernel is not conv2d_ref:
        t, w = to_interleaved(t), pack_kernels(w, 2)
    with pytest.raises(ShapeMismatchError, match="bias shape"):
        kernel(t, w, np.zeros(3, np.float32), spec)


# ---------------------------------------------------------------------------
# conv2d_packed
# ---------------------------------------------------------------------------

def test_packed_matches_ref_randomized():
    # groups 1-8 with 1-6 filters per group
    rng = np.random.default_rng(2)
    for _ in range(40):
        g = int(rng.choice([1, 2, 4, 8]))
        opg = int(rng.choice([1, 2, 3, 5, 6]))
        rng.integers(1, 6)  # drawn but unused, so that the 40 specs stay fixed
        spec = ConvSpec(g * int(rng.integers(1, 3)), g * opg,
                        (3, 3), stride=int(rng.choice([1, 2])),
                        dilation=int(rng.choice([1, 2])), groups=g,
                        has_bias=True)
        h = int(rng.integers(2 * spec.dilation + 1, 14))
        x = rng.standard_normal((spec.in_ch, h, h)).astype(np.float32)
        w = rng.standard_normal(spec.weight_shape()).astype(np.float32)
        b = rng.standard_normal(spec.out_ch).astype(np.float32)
        ref = run_ref(x, w, b, spec)
        with counting() as ops:
            got = run_packed(x, w, b, spec)
        assert np.max(np.abs(got - ref)) <= 1e-5
        assert ops.mults == mac_count(spec, h, h)


def test_packed_channelwise_equals_per_channel_filtering():
    # decoder configuration: groups == channels, checked against scipy
    rng = np.random.default_rng(3)
    C = 6
    spec = ConvSpec(C, C, (3, 3), groups=C)
    x = rng.standard_normal((C, 10, 12)).astype(np.float32)
    w = rng.standard_normal(spec.weight_shape()).astype(np.float32)
    got = run_packed(x, w, None, spec)
    for c in range(C):
        expect = signal.correlate2d(x[c].astype(np.float64), w[c, 0].astype(np.float64),
                                    mode="same", boundary="fill")
        np.testing.assert_allclose(got[c], expect, atol=1e-5)


def _wide(rng, shape):
    """Signed powers of two up to 2**30: products reach 2**60, so a sum
    taken in another tap order rounds to another float32."""
    return (rng.choice([-1.0, 1.0], shape)
            * 2.0 ** rng.choice([0, 15, 30], shape)).astype(np.float32)


def per_tap_broadcast_conv(x, w, b, spec):
    """Oracle for convs with one input channel per group: per kernel tap, in
    kernel order, the float64 broadcast multiply-add ``acc += patch *
    tap[:, 0]`` over the interleaved padded map, seeded with the first tap's
    product, then the bias and one rounding to float32. Returns the planar
    float32 result."""
    C, H, W = x.shape
    ph, pw = spec.pad()
    kh, kw = spec.kernel
    d, s = spec.dilation, spec.stride
    oh, ow = conv_out_shape(spec, H, W)
    xp = np.zeros((H + 2 * ph, W + 2 * pw, C))
    xp[ph:ph + H, pw:pw + W] = x.transpose(1, 2, 0)
    # tap (ky, kx) as (group, 1, out_ch_per_group), as pack_kernels lays it out
    taps = (w.reshape(spec.groups, spec.out_per_group, 1, kh, kw)
            .transpose(3, 4, 0, 2, 1).astype(np.float64))
    acc = None
    for ky in range(kh):
        for kx in range(kw):
            patch = xp[ky * d:ky * d + (oh - 1) * s + 1:s,
                       kx * d:kx * d + (ow - 1) * s + 1:s][..., None]
            tap = taps[ky, kx]
            if acc is None:
                acc = patch * tap[:, 0]
            else:
                acc += patch * tap[:, 0]
    out = acc.reshape(oh, ow, spec.out_ch)
    if b is not None:
        out += b.astype(np.float64)
    return out.astype(np.float32).transpose(2, 0, 1)


# 41x40 at 16 channels spans two depthwise row bands, the second partial;
# 2x2 at stride 2 is a single output pixel
@pytest.mark.parametrize("hw,k", [
    pytest.param(hw, k, id=f"{hw[0]}x{hw[1]}" + ("" if k == 3 else f"-k{k}"))
    for k in (3, 5) for hw in [(9, 13), (5, 3), (41, 40), (2, 2), (1, 3)]])
@pytest.mark.parametrize("dilation", [1, 3])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("chans", [(16, 16, 16), (1, 16, 1), (1, 8, 1), (4, 8, 4)],
                         ids=["depthwise", "stem-16", "stem-8", "g4-opg2"])
def test_one_input_channel_per_group_is_bit_exact(chans, stride, dilation, hw, k):
    # the depthwise row-tiled multiply-adds, the one-channel per-tap GEMM and
    # the 3x3 tap-stacked GEMM sum the same float64 products in the same tap
    # order as the oracle
    in_ch, out_ch, groups = chans
    spec = ConvSpec(in_ch, out_ch, (k, k), stride, dilation, groups, has_bias=True)
    rng = np.random.default_rng([in_ch, out_ch, stride, dilation, *hw] + [k] * (k != 3))
    x, w, b = _wide(rng, (in_ch, *hw)), _wide(rng, spec.weight_shape()), _wide(rng, out_ch)
    expect = per_tap_broadcast_conv(x, w, b, spec)
    runs = [run_packed] + [run_comb] * (stride == 1)
    for run in runs:
        with counting() as ops:
            got = run(x, w, b, spec)
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, expect, err_msg=run.__name__)
        assert ops.mults == mac_count(spec, *hw) > 0


def test_packed_zero_input_broadcasts_bias():
    spec = ConvSpec(4, 6, (3, 3), groups=2, has_bias=True)
    b = np.arange(6, dtype=np.float32)
    out = run_packed(np.zeros((4, 5, 5), np.float32),
                     np.ones(spec.weight_shape(), np.float32), b, spec)
    np.testing.assert_array_equal(out, np.broadcast_to(b[:, None, None], (6, 5, 5)))


def test_packed_rejects_inconsistent_packing():
    spec = ConvSpec(4, 4, (3, 3), groups=2)
    pw = pack_kernels(np.zeros((4, 2, 3, 3), np.float32), groups=4)
    x = to_interleaved(Tensor.from_array(np.zeros((4, 5, 5), np.float32)))
    with pytest.raises(ConfigError):
        conv2d_packed(x, pw, None, spec)


def test_packed_rejects_raw_weight_array():
    spec = ConvSpec(4, 4, (3, 3))
    x = to_interleaved(Tensor.from_array(np.zeros((4, 5, 5), np.float32)))
    with pytest.raises(ConfigError):
        conv2d_packed(x, np.zeros(spec.weight_shape(), np.float32), None, spec)


@pytest.mark.parametrize("kernel,interleaved,packed,error,match", [
    (conv2d_ref, False, True, ShapeMismatchError, r"expected \(4, 2, 3, 3\)"),
    (comb_dilated_conv, True, False, ConfigError, r"packed taps of shape \(3, 3, 2, 2, 2\)"),
    (comb_dilated_conv, False, True, LayoutMismatchError, "interleaved"),
    # the shared optimized body names the entry that was called
    (comb_dilated_conv, True, False, ConfigError, "^comb_dilated_conv takes packed taps"),
], ids=["ref-packed", "comb-raw", "comb-planar", "comb-named"])
def test_conv_rejects_wrong_weights_or_layout(kernel, interleaved, packed, error, match):
    # each kernel takes one layout and one weight shape; anything else is a
    # CombnetError naming what it wants, not a TypeError from numpy
    spec = ConvSpec(4, 4, (3, 3), dilation=2, groups=2)
    t = Tensor.from_array(np.zeros((4, 6, 6), np.float32))
    w = np.zeros(spec.weight_shape(), np.float32)
    with pytest.raises(error, match=match):
        kernel(to_interleaved(t) if interleaved else t,
               pack_kernels(w, 2) if packed else w, None, spec)


def test_conv_linearity_zero_bias():
    rng = np.random.default_rng(4)
    spec = ConvSpec(3, 6, (3, 3), groups=3)
    x = rng.standard_normal((3, 8, 8)).astype(np.float32)
    w = rng.standard_normal(spec.weight_shape()).astype(np.float32)
    base = run_ref(x, w, None, spec)
    # exact for power-of-two scaling
    np.testing.assert_array_equal(run_ref((2.0 * x).astype(np.float32), w, None, spec),
                                  2.0 * base)
    alpha = float(rng.uniform(0.3, 3.0))
    scaled = run_ref((alpha * x).astype(np.float32), w, None, spec)
    np.testing.assert_allclose(scaled, alpha * base, rtol=1e-5, atol=1e-5)


# ---------------------------------------------------------------------------
# comb dilated convolution
# ---------------------------------------------------------------------------

def test_comb_d1_bit_exact():
    rng = np.random.default_rng(5)
    spec = ConvSpec(4, 8, (3, 3), groups=2, has_bias=True)
    x = rng.standard_normal((4, 9, 9)).astype(np.float32)
    w = rng.standard_normal(spec.weight_shape()).astype(np.float32)
    b = rng.standard_normal(8).astype(np.float32)
    comb = run_comb(x, w, b, spec)
    np.testing.assert_array_equal(comb, run_ref(x, w, b, spec))


def test_comb_d2_matches_zero_stuffed_oracle():
    spec = ConvSpec(1, 1, (3, 3), dilation=2)
    x = np.arange(16, dtype=np.float32).reshape(1, 4, 4)
    rng = np.random.default_rng(6)
    w = rng.standard_normal((1, 1, 3, 3)).astype(np.float32)
    comb = run_comb(x, w, None, spec)
    stuffed = run_ref(x, zero_stuff_kernel(w, 2), None, zero_stuffed_spec(spec))
    np.testing.assert_allclose(comb, stuffed, atol=1e-6)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_comb_equals_ref_and_macs_independent_of_d(d):
    rng = np.random.default_rng(20 + d)
    spec = ConvSpec(32, 32, (3, 3), dilation=d, groups=8)
    x = rng.standard_normal((32, 12, 12)).astype(np.float32)
    w = rng.standard_normal(spec.weight_shape()).astype(np.float32)
    ref = run_ref(x, w, None, spec)
    with counting() as ops:
        comb = run_comb(x, w, None, spec)
    assert np.max(np.abs(comb - ref)) <= 1e-6
    assert mac_count(spec, 12, 12) == 165_888  # 12*12*32*(32/8)*9, for any d
    assert ops.mults == 165_888


def test_comb_interleaved_packed_path():
    rng = np.random.default_rng(8)
    spec = ConvSpec(8, 8, (3, 3), dilation=3, groups=4, has_bias=True)
    x = rng.standard_normal((8, 13, 11)).astype(np.float32)
    w = rng.standard_normal(spec.weight_shape()).astype(np.float32)
    b = rng.standard_normal(8).astype(np.float32)
    ref = run_ref(x, w, b, spec)
    out = comb_dilated_conv(to_interleaved(Tensor.from_array(x)),
                            pack_kernels(w, 4), b, spec)
    assert np.max(np.abs(out.to_array() - ref)) <= 1e-5


# (in_ch, out_ch, groups): in_ch/groups = 2, channel-wise, and one input
# channel per group with two outputs each
_COMB_SIZE_SPECS = {"": (8, 16, 4), "-cw": (8, 8, 8), "-ipg1": (4, 8, 4)}


_EVERY_COMB_SIZE = [
    pytest.param(d, h, h + dw, chans, id=f"{d}-{h}-{h + dw}{tag}")
    for tag, chans in _COMB_SIZE_SPECS.items() for d in (2, 3, 4)
    for h in range(1, 20) for dw in (0, 1)]


@pytest.mark.parametrize("d,h,w,chans", _EVERY_COMB_SIZE)
def test_comb_matches_ref_at_every_size(d, h, w, chans):
    # fields are uneven wherever d does not divide h or w; below 2d+1 some
    # fields are smaller than the kernel and give no output
    rng = np.random.default_rng(1000 * d + 10 * h + w)
    in_ch, out_ch, groups = chans
    spec = ConvSpec(in_ch, out_ch, (3, 3), dilation=d, groups=groups, has_bias=True)
    x = rng.standard_normal((in_ch, h, w)).astype(np.float32)
    wt = rng.standard_normal(spec.weight_shape()).astype(np.float32)
    b = rng.standard_normal(out_ch).astype(np.float32)
    ref = run_ref(x, wt, b, spec)
    for run in (run_comb, run_packed):  # both entries run stride 1 as the comb
        with counting() as ops:
            got = run(x, wt, b, spec)
        assert np.max(np.abs(got - ref)) <= 1e-6, run.__name__
        assert ops.mults == mac_count(spec, h, w), run.__name__


@pytest.mark.parametrize("d,h,w,chans", _EVERY_COMB_SIZE)
def test_comb_field_is_the_dense_conv_of_its_input_field(d, h, w, chans, monkeypatch):
    # the comb: output field (i, j), out[i::d, j::d], is bit for bit the
    # dilation-1 conv of the padded input's field xp[i::d, j::d] (its VALID
    # part: the inner outputs of the padded dense conv), and the core runs
    # once per conv, on the whole padded map
    core, calls = convops._conv_interleaved_core, []

    def counted(*args):
        calls.append(args[0].shape)
        return core(*args)

    rng = np.random.default_rng(2000 * d + 10 * h + w)
    in_ch, out_ch, groups = chans
    spec = ConvSpec(in_ch, out_ch, (3, 3), dilation=d, groups=groups, has_bias=True)
    x, b = _wide(rng, (in_ch, h, w)), _wide(rng, out_ch)
    taps = pack_kernels(_wide(rng, spec.weight_shape()), groups)
    t = to_interleaved(Tensor.from_array(x))
    monkeypatch.setattr(convops, "_conv_interleaved_core", counted)
    outs = []
    for conv in (comb_dilated_conv, conv2d_packed):
        calls.clear()
        outs.append(conv(t, taps, b, spec).to_array())
        assert calls == [(h + 2 * d, w + 2 * d, in_ch)], (conv.__name__, calls)
    monkeypatch.undo()
    assert np.array_equal(outs[0], outs[1])
    xp = np.zeros((in_ch, h + 2 * d, w + 2 * d), np.float32)
    xp[:, d:d + h, d:d + w] = x
    dense = spec._replace(dilation=1)
    for i in range(d):
        for j in range(d):
            field = to_interleaved(Tensor.from_array(xp[:, i::d, j::d]))
            expect = conv2d_packed(field, taps, b, dense).to_array()[:, 1:-1, 1:-1]
            assert np.array_equal(outs[0][:, i::d, j::d], expect), (i, j)


@pytest.mark.parametrize("kernel", [(2, 2), (4, 4), (2, 3), (1, 3)],
                         ids=lambda k: f"{k[0]}x{k[1]}")
@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("stride", [1, 2])
def test_even_and_non_square_dilated_kernels_match_ref(kernel, d, stride):
    # even kernels pad d*(k-1)//2, so a dilated one is off-centre and its
    # output can be smaller than the map (or empty); stride 1 is the comb
    # under both entries
    runs = [run_packed] + [run_comb] * (stride == 1)
    bound = 1e-6 if stride == 1 else 1e-5
    checked = 0
    for tag, (in_ch, out_ch, groups) in _COMB_SIZE_SPECS.items():
        spec = ConvSpec(in_ch, out_ch, kernel, stride, d, groups, has_bias=True)
        for h in range(1, 14):
            for w in (h, h + 1):
                rng = np.random.default_rng([*kernel, d, stride, in_ch, groups, h, w])
                x = rng.standard_normal((in_ch, h, w)).astype(np.float32)
                wt = rng.standard_normal(spec.weight_shape()).astype(np.float32)
                b = rng.standard_normal(out_ch).astype(np.float32)
                try:
                    macs = mac_count(spec, h, w)
                except ShapeMismatchError:
                    for run in [run_ref] + runs:
                        with pytest.raises(ShapeMismatchError, match="empty output"):
                            run(x, wt, b, spec)
                    continue
                ref = run_ref(x, wt, b, spec)
                for run in runs:
                    with counting() as ops:
                        got = run(x, wt, b, spec)
                    assert got.shape == ref.shape, (tag, h, w, run.__name__)
                    assert np.max(np.abs(got - ref)) <= bound, (tag, h, w, run.__name__)
                    assert ops.mults == macs, (tag, h, w, run.__name__)
                    checked += 1
    assert checked >= 3 * 24 * len(runs)


def test_comb_rejects_stride():
    spec = ConvSpec(1, 1, (3, 3), stride=2, dilation=2)
    with pytest.raises(UnsupportedConfigError):
        comb_dilated_conv(Tensor.from_array(np.zeros((1, 8, 8), np.float32)),
                          np.zeros((1, 1, 3, 3), np.float32), None, spec)


# validation and the spec's geometry: the only convops code that the oracle
# and the engine may both run
_SHARED_WITH_THE_ENGINE = {
    "_check_conv", "conv_out_shape", "_tap",
    "ConvSpec.pad", "ConvSpec.in_per_group", "ConvSpec.out_per_group",
    "ConvSpec.weight_shape", "count_ops"}


def _convops_functions_run(fn) -> set:
    """Qualified names of the combnet.convops functions that fn() runs."""
    ran = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == convops.__file__:
            ran.add(frame.f_code.co_qualname)

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return ran


def test_the_oracle_shares_no_step_with_the_engine():
    # padding, a bias, stride 2, dilations 2 and 3 (even and uneven fields)
    # and a 1x1 kernel; shared padding or bias code would show up here
    specs = [ConvSpec(4, 8, (3, 3), has_bias=True),
             ConvSpec(4, 8, (3, 3), stride=2, groups=2, has_bias=True),
             ConvSpec(8, 8, (3, 3), dilation=2, groups=8, has_bias=True),
             ConvSpec(4, 8, (3, 3), dilation=3, groups=4, has_bias=True),
             ConvSpec(8, 4, (1, 1), has_bias=True)]
    rng = np.random.default_rng(23)
    oracle, engine = set(), set()
    for spec in specs:
        x = Tensor.from_array(rng.standard_normal((spec.in_ch, 11, 13)).astype(np.float32))
        xi = to_interleaved(x)
        w = rng.standard_normal(spec.weight_shape()).astype(np.float32)
        b = rng.standard_normal(spec.out_ch).astype(np.float32)
        taps = pack_kernels(w, spec.groups)
        for rounded in (True, False):
            oracle |= _convops_functions_run(lambda: conv2d_ref(x, w, b, spec, rounded))
        engine |= _convops_functions_run(lambda: conv2d_packed(xi, taps, b, spec))
        if spec.stride == 1:
            engine |= _convops_functions_run(lambda: comb_dilated_conv(xi, taps, b, spec))
    assert "conv2d_ref" in oracle
    assert {"conv2d_packed", "comb_dilated_conv", "_conv_fields", "_store"} <= engine
    assert oracle & engine <= _SHARED_WITH_THE_ENGINE, oracle & engine - _SHARED_WITH_THE_ENGINE
    for qualname in _SHARED_WITH_THE_ENGINE:  # a renamed or deleted function fails here
        operator.attrgetter(qualname)(convops)


def _separate_epilogue(conv, relu_, residual):
    """The conv, then the residual add and the ReLU as separate passes."""
    a = conv()
    if residual is not None:
        a = Tensor(a.layout, a.array + residual.array)
        convops.count_ops(adds=a.data.size)
    return relu(a) if relu_ else a


@pytest.mark.parametrize("with_residual", [False, True], ids=["plain", "residual"])
@pytest.mark.parametrize("relu_", [False, True], ids=["linear", "relu"])
def test_fused_epilogue_matches_separate_passes(relu_, with_residual):
    # bias, residual add and ReLU in the one store give the bits and the
    # counts of the separate passes, ReLU last, for the packed conv and the
    # interleaved comb
    rng = np.random.default_rng(77)
    checked = 0
    for _ in range(60):
        spec, x, w, b = _random_conv_case(rng)
        t = to_interleaved(Tensor.from_array(x))
        pw = pack_kernels(w, spec.groups)
        out_dims = (spec.out_ch, *convops.conv_out_shape(spec, t.height, t.width))
        residual = (to_interleaved(Tensor.from_array(
            rng.standard_normal(out_dims).astype(np.float32))) if with_residual else None)
        kernels = [conv2d_packed] + [comb_dilated_conv] * (spec.stride == 1)
        for kernel in kernels:
            with counting() as fused_ops:
                fused = kernel(t, pw, b, spec, relu=relu_, residual=residual)
            with counting() as separate_ops:
                separate = _separate_epilogue(lambda: kernel(t, pw, b, spec),
                                              relu_, residual)
            assert fused.dims == separate.dims and fused.layout == separate.layout
            assert np.array_equal(fused.data, separate.data), spec
            assert ((fused_ops.mults, fused_ops.adds)
                    == (separate_ops.mults, separate_ops.adds)), spec
            checked += 1
    assert checked > 60


def test_fused_epilogue_rejects_mismatched_residual():
    spec = ConvSpec(4, 4, (3, 3), groups=4)
    t = to_interleaved(Tensor.from_array(np.ones((4, 6, 6), np.float32)))
    pw = pack_kernels(np.ones((4, 1, 3, 3), np.float32), 4)
    for residual in (to_interleaved(Tensor.from_array(np.ones((4, 5, 6), np.float32))),
                     Tensor.from_array(np.ones((4, 6, 6), np.float32))):
        with pytest.raises(ShapeMismatchError, match="residual"):
            conv2d_packed(t, pw, None, spec, residual=residual)


# ---------------------------------------------------------------------------
# batch norm folding
# ---------------------------------------------------------------------------

def test_fold_identity_bn_is_noop():
    rng = np.random.default_rng(9)
    w = rng.standard_normal((4, 2, 3, 3)).astype(np.float32)
    b = rng.standard_normal(4).astype(np.float32)
    # var + BN_EPS is exactly 1 in float32, so s is exactly gamma
    bn = bn_scale_shift(np.ones(4), np.zeros(4), np.zeros(4), np.full(4, 1 - BN_EPS))
    wf, bf = fold_batchnorm(w, b, bn)
    np.testing.assert_allclose(wf, w, atol=1e-6)
    np.testing.assert_allclose(bf, b, atol=1e-6)


def test_fold_gamma_two_doubles():
    w = np.ones((2, 1, 1, 1), np.float32)
    b = np.array([1.0, -1.0], np.float32)
    bn = bn_scale_shift(2 * np.ones(2), np.zeros(2), np.zeros(2), np.full(2, 1 - BN_EPS))
    wf, bf = fold_batchnorm(w, b, bn)
    np.testing.assert_allclose(wf, 2 * w, rtol=1e-6)
    np.testing.assert_allclose(bf, 2 * b, rtol=1e-6)


def test_fold_two_path_equivalence():
    rng = np.random.default_rng(11)
    for _ in range(10):
        spec = ConvSpec(4, 6, (3, 3), groups=2, has_bias=True)
        x = Tensor.from_array(rng.standard_normal((4, 7, 7)).astype(np.float32))
        w = rng.standard_normal(spec.weight_shape()).astype(np.float32)
        b = rng.standard_normal(6).astype(np.float32)
        bn = bn_scale_shift(rng.uniform(0.5, 2, 6).astype(np.float32),
                            rng.standard_normal(6).astype(np.float32),
                            rng.standard_normal(6).astype(np.float32),
                            rng.uniform(0.1, 2, 6).astype(np.float32))
        unfolded = batchnorm_inference(conv2d_ref(x, w, b, spec, rounded=False),
                                       bn).to_array()
        wf, bf = fold_batchnorm(w, b, bn)
        folded = conv2d_ref(x, wf, bf, spec).to_array()
        assert np.max(np.abs(folded - unfolded)) <= 1e-5


def test_bn_fold_suite_regression_seed():
    # failed at 1.144e-5 while unfolded BN rounded x*s and +t separately in float32
    assert bn_fold_suite(494923931, 50).passed


@pytest.mark.parametrize("seed", [1729, 1744, 2452])
def test_bn_fold_suite_rounds_the_reference_once(seed):
    # failed at 1.526e-5 while the reference rounded the conv to float32
    # before batch norm rounded again
    assert bn_fold_suite(seed, 50).passed


def test_fold_length_mismatch():
    bn = bn_scale_shift(np.ones(3), np.zeros(3), np.zeros(3), np.ones(3))
    with pytest.raises(ShapeMismatchError):
        fold_batchnorm(np.zeros((4, 1, 1, 1), np.float32), None, bn)


# ---------------------------------------------------------------------------
# relu / upsample / mac_count
# ---------------------------------------------------------------------------

def test_relu():
    t = Tensor.from_array(np.array([[[-1.0, 0.0, 2.0]]], np.float32))
    assert relu(t).data.tolist() == [0.0, 0.0, 2.0]


def test_upsample_single_pixel():
    t = Tensor.from_array(np.full((1, 1, 1), 3.5, np.float32))
    up = upsample_nearest_2x(t)
    assert up.dims == (1, 2, 2)
    assert np.all(up.to_array() == 3.5)


def test_upsample_preserves_channels_quadruples_pixels():
    rng = np.random.default_rng(12)
    for _ in range(5):
        c, h, w = (int(rng.integers(1, 5)) for _ in range(3))
        t = Tensor.from_array(rng.standard_normal((c, h, w)).astype(np.float32))
        up = upsample_nearest_2x(t)
        assert up.channels == c and up.data.size == 4 * t.data.size
        np.testing.assert_array_equal(up.to_array()[:, ::2, ::2], t.to_array())


def test_mac_count_examples():
    assert mac_count(ConvSpec(16, 32, (3, 3), stride=2, groups=4), 48, 48) == 663_552
    # 1x1 channel-wise: one MAC per output pixel per channel
    assert mac_count(ConvSpec(8, 8, (1, 1), groups=8), 10, 12) == 10 * 12 * 8


def test_mac_count_matches_instrumented_ref():
    rng = np.random.default_rng(13)
    spec = ConvSpec(4, 8, (3, 3), stride=2, groups=2)
    x = Tensor.from_array(rng.standard_normal((4, 11, 9)).astype(np.float32))
    w = rng.standard_normal(spec.weight_shape()).astype(np.float32)
    with counting() as ops:
        conv2d_ref(x, w, None, spec)
    assert ops.mults == mac_count(spec, 11, 9)


def test_counting_ignores_other_threads():
    rng = np.random.default_rng(14)
    spec = ConvSpec(2, 2, (3, 3))
    x = Tensor.from_array(rng.standard_normal((2, 16, 16)).astype(np.float32))
    w = rng.standard_normal(spec.weight_shape()).astype(np.float32)
    with counting() as ops:
        worker = threading.Thread(target=conv2d_ref, args=(x, w, None, spec))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        conv2d_ref(x, w, None, spec)
    assert ops.mults == mac_count(spec, 16, 16) == 9_216


def test_counting_blocks_nest_and_add_up():
    rng = np.random.default_rng(15)
    spec = ConvSpec(2, 2, (3, 3))
    x = Tensor.from_array(rng.standard_normal((2, 16, 16)).astype(np.float32))
    w = rng.standard_normal(spec.weight_shape()).astype(np.float32)
    with counting() as outer:
        with counting() as inner:
            conv2d_ref(x, w, None, spec)
    assert outer.mults == inner.mults == mac_count(spec, 16, 16)
    assert outer.adds == inner.adds
