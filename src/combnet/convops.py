"""Convolution kernels and related primitives.

Two convolution paths over the same math (cross-correlation, no kernel flip):

* :func:`conv2d_ref` — direct tap-loop convolution on channel-planar data.
  Serves as the oracle for everything else.
* :func:`conv2d_packed` — the optimized path: channel-interleaved input and,
  per kernel tap, one batched GEMM over all groups with the packed kernel
  stack's float64 tap operand (``PackedWeights.taps``).  With one input
  channel per group (channel-wise layers) each output takes one product per
  tap, so the tap is a broadcast multiply-add instead.

Dilated convolutions additionally get :func:`comb_dilated_conv`, which pads
the input once and runs a dense convolution over each of the d*d strided
pixel fields of the padded map — the dilated result at dense-convolution
cost (no zero-stuffing work).

All kernels accumulate in 64-bit and store 32-bit.  An optional instrumented
counter records the multiplies/adds the kernels actually execute so that
analytic MAC/FLOP accounting can be cross-checked exactly.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass, replace

import numpy as np

from .errors import (ConfigError, LayoutMismatchError, ShapeMismatchError,
                     UnsupportedConfigError)
from .tensor import Layout, PackedWeights, Tensor

__all__ = [
    "ConvSpec", "BnParams", "conv2d_ref", "conv2d_packed",
    "comb_dilated_conv", "fold_batchnorm",
    "batchnorm_inference", "relu", "upsample_nearest_2x", "mac_count",
    "conv_out_shape", "zero_stuff_kernel", "zero_stuffed_spec", "OpCounter",
    "counting", "add_mults", "add_adds",
]


@dataclass(frozen=True)
class ConvSpec:
    in_ch: int
    out_ch: int
    kernel: tuple  # (kh, kw)
    stride: int = 1
    dilation: int = 1
    groups: int = 1
    has_bias: bool = False

    def __post_init__(self):
        kh, kw = self.kernel
        if min(self.in_ch, self.out_ch, kh, kw) < 1:
            raise ConfigError(f"non-positive dims in {self}")
        if self.stride < 1 or self.dilation < 1 or self.groups < 1:
            raise ConfigError(f"stride/dilation/groups must be >= 1 in {self}")
        if self.in_ch % self.groups or self.out_ch % self.groups:
            raise ConfigError(
                f"groups={self.groups} must divide in_ch={self.in_ch} "
                f"and out_ch={self.out_ch}")

    @property
    def in_per_group(self) -> int:
        return self.in_ch // self.groups

    @property
    def out_per_group(self) -> int:
        return self.out_ch // self.groups

    def pad(self) -> tuple:
        """(pad_h, pad_w) of symmetric zero padding, d*(k-1)//2 per axis: an
        odd kernel at stride 1 keeps the input size."""
        kh, kw = self.kernel
        return (self.dilation * (kh - 1) // 2, self.dilation * (kw - 1) // 2)

    def weight_shape(self) -> tuple:
        return (self.out_ch, self.in_per_group, self.kernel[0], self.kernel[1])


def _valid_out_shape(spec: ConvSpec, h: int, w: int) -> tuple:
    """Output (h, w) of the unpadded convolution of an h x w map:
    floor((in - d*(k-1) - 1)/stride) + 1 per axis."""
    kh, kw = spec.kernel
    d, s = spec.dilation, spec.stride
    return (h - d * (kh - 1) - 1) // s + 1, (w - d * (kw - 1) - 1) // s + 1


def conv_out_shape(spec: ConvSpec, in_h: int, in_w: int) -> tuple:
    """Output (h, w): out = floor((in + 2p - d*(k-1) - 1)/stride) + 1."""
    ph, pw = spec.pad()
    oh, ow = _valid_out_shape(spec, in_h + 2 * ph, in_w + 2 * pw)
    if oh < 1 or ow < 1:
        raise ShapeMismatchError(f"empty output for {in_h}x{in_w} with {spec}")
    return oh, ow


def mac_count(spec: ConvSpec, in_h: int, in_w: int) -> int:
    """Theoretical multiply-accumulates: out_h*out_w*out_ch*(in_ch/groups)*kh*kw."""
    oh, ow = conv_out_shape(spec, in_h, in_w)
    return oh * ow * spec.out_ch * spec.in_per_group * spec.kernel[0] * spec.kernel[1]


# ---------------------------------------------------------------------------
# Instrumented operation counter
# ---------------------------------------------------------------------------

class OpCounter:
    """Tally of scalar multiplies/adds actually executed by the kernels."""

    def __init__(self):
        self.mults = 0
        self.adds = 0

    @property
    def flops(self) -> int:
        return self.mults + self.adds


# Context-local, so a counting() block sees only the kernels its own thread
# (or task) runs, even when threads share a graph.
_active_counter: ContextVar = ContextVar("combnet_active_counter", default=None)


class counting:
    """Context manager enabling kernel instrumentation.

    with counting() as ops:
        conv2d_ref(...)
    ops.mults  # multiplies executed

    Blocks nest: on exit, an inner block's tally is added to the enclosing
    block's, so the outer count covers every kernel run inside it.
    """

    def __enter__(self) -> OpCounter:
        self._ops = OpCounter()
        self._token = _active_counter.set(self._ops)
        return self._ops

    def __exit__(self, *exc):
        _active_counter.reset(self._token)
        outer = _active_counter.get()
        if outer is not None:
            outer.mults += self._ops.mults
            outer.adds += self._ops.adds
        return False


def add_mults(n: int):
    ops = _active_counter.get()
    if ops is not None:
        ops.mults += int(n)


def add_adds(n: int):
    ops = _active_counter.get()
    if ops is not None:
        ops.adds += int(n)


# ---------------------------------------------------------------------------
# Shared entry check and store
# ---------------------------------------------------------------------------

def _check_conv(name: str, x: Tensor, w, b, spec: ConvSpec, layout: Layout):
    """Validate a conv call; return (weights, float32 bias or None).
    Planar input takes a raw (out_ch, in_ch/groups, kh, kw) array,
    interleaved input takes PackedWeights."""
    if x.layout != layout:
        raise LayoutMismatchError(f"{name} expects a channel-{layout.value} tensor")
    if x.channels != spec.in_ch:
        raise ShapeMismatchError(f"input has {x.channels} channels, spec wants {spec.in_ch}")
    if layout == Layout.CHANNEL_INTERLEAVED:
        if not isinstance(w, PackedWeights):
            raise ConfigError(f"{name} on interleaved input takes PackedWeights, "
                              f"got {type(w).__name__}")
        if (w.out_ch, w.in_ch_per_group, w.kh, w.kw) != spec.weight_shape():
            raise ConfigError(
                f"packed dims ({w.out_ch},{w.in_ch_per_group},{w.kh},{w.kw}) "
                f"inconsistent with spec {spec.weight_shape()}")
        if w.groups != spec.groups:
            raise ConfigError(f"packed groups={w.groups} != spec groups={spec.groups}")
    else:
        w = np.asarray(w, dtype=np.float32)
        if tuple(w.shape) != spec.weight_shape():
            raise ShapeMismatchError(
                f"weight shape {w.shape} != expected {spec.weight_shape()}")
    if b is not None:
        b = np.asarray(b, dtype=np.float32)
        if b.shape != (spec.out_ch,):
            raise ShapeMismatchError(f"bias shape {b.shape} != ({spec.out_ch},)")
    return w, b


def _padded(x: Tensor, spec: ConvSpec) -> np.ndarray:
    """The input in float64 and its own layout, zero-padded by spec.pad()."""
    ph, pw = spec.pad()
    c, h, w = x.dims
    xp = np.zeros(x.layout.order(c, h + 2 * ph, w + 2 * pw))
    xp[x.layout.order(slice(None), slice(ph, ph + h), slice(pw, pw + w))] = x.view()
    return xp


def _store(out: np.ndarray, b, layout: Layout) -> Tensor:
    """Add the bias in 64-bit and round the result to a float32 tensor."""
    if b is not None:
        out += b.astype(np.float64).reshape(layout.order(-1, 1, 1))
        add_adds(out.size)
    return Tensor.from_view(out, layout)


# ---------------------------------------------------------------------------
# Reference (planar) convolution
# ---------------------------------------------------------------------------

def _conv_planar_core(xp: np.ndarray, w: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """Direct VALID convolution of an already padded float64 (C,H,W) array;
    returns the float64 (out_ch, out_h, out_w) result. Tap loop outside,
    channel contraction inside."""
    out_h, out_w = _valid_out_shape(spec, *xp.shape[1:])
    out = np.zeros((spec.out_ch, out_h, out_w))
    kh, kw = spec.kernel
    d, s = spec.dilation, spec.stride
    ipg, opg = spec.in_per_group, spec.out_per_group
    for g in range(spec.groups):
        xg = xp[g * ipg:(g + 1) * ipg]
        wg = w[g * opg:(g + 1) * opg].astype(np.float64)
        og = out[g * opg:(g + 1) * opg]
        for ky in range(kh):
            for kx in range(kw):
                patch = xg[:, ky * d: ky * d + (out_h - 1) * s + 1: s,
                           kx * d: kx * d + (out_w - 1) * s + 1: s]
                # (opg, ipg) . (ipg, oh, ow) -> (opg, oh, ow)
                og += np.tensordot(wg[:, :, ky, kx], patch, axes=([1], [0]))
    add_mults(out.size * ipg * kh * kw)
    add_adds(out.size * ipg * kh * kw)
    return out


def conv2d_ref(x: Tensor, w: np.ndarray, b, spec: ConvSpec) -> Tensor:
    """Reference convolution on a channel-planar tensor (the oracle path)."""
    w, b = _check_conv("conv2d_ref", x, w, b, spec, Layout.CHANNEL_PLANAR)
    return _store(_conv_planar_core(_padded(x, spec), w, spec), b, x.layout)


# ---------------------------------------------------------------------------
# Optimized (interleaved, packed) convolution
# ---------------------------------------------------------------------------

def _conv_interleaved_core(xp: np.ndarray, pw: PackedWeights,
                           spec: ConvSpec) -> np.ndarray:
    """Direct VALID convolution of an already padded float64 (H,W,C) array
    using the packed kernel stack; returns the float64 (out_h, out_w, out_ch)
    result.

    Tap loop outside, channel contraction inside, as in the reference core; no
    im2col matrix is ever materialized.  Per kernel tap, the strided patch is
    seen as (out_h, out_w, group, in_ch_per_group) and meets the tap's (group,
    in_ch_per_group, out_ch_per_group) slice of `pw.taps`:

    * one input channel per group (channel-wise layers): each output takes one
      product per tap, so the tap is a broadcast multiply-add into an
      accumulator kept in the output's own order;
    * otherwise: one batched GEMM over the groups.
    """
    out_h, out_w = _valid_out_shape(spec, *xp.shape[:2])
    kh, kw = spec.kernel
    d, s = spec.dilation, spec.stride
    G, ipg, opg = spec.groups, spec.in_per_group, spec.out_per_group
    patches = [(pw.taps[ky, kx],
                xp[ky * d: ky * d + (out_h - 1) * s + 1: s,
                   kx * d: kx * d + (out_w - 1) * s + 1: s].reshape(out_h, out_w, G, ipg))
               for ky in range(kh) for kx in range(kw)]
    if ipg == 1:
        acc = np.zeros((out_h, out_w, G, opg))
        for tap, patch in patches:
            # (oh, ow, G, 1) * (G, opg) -> (oh, ow, G, opg)
            acc += patch * tap[:, 0]
    else:
        acc = np.zeros((G, out_h * out_w, opg))
        for tap, patch in patches:
            # (G, oh*ow, ipg) @ (G, ipg, opg) -> (G, oh*ow, opg)
            acc += np.matmul(patch.reshape(-1, G, ipg).transpose(1, 0, 2), tap)
        acc = acc.transpose(1, 0, 2)
    out = acc.reshape(out_h, out_w, spec.out_ch)
    add_mults(out.size * ipg * kh * kw)
    add_adds(out.size * ipg * kh * kw)
    return out


def conv2d_packed(x: Tensor, pw: PackedWeights, b, spec: ConvSpec) -> Tensor:
    """Optimized convolution: interleaved input, packed weights, interleaved
    output. Numerically matches conv2d_ref within 1e-5 max-abs."""
    pw, b = _check_conv("conv2d_packed", x, pw, b, spec, Layout.CHANNEL_INTERLEAVED)
    return _store(_conv_interleaved_core(_padded(x, spec), pw, spec), b, x.layout)


# ---------------------------------------------------------------------------
# Comb dilated convolution
# ---------------------------------------------------------------------------

def comb_dilated_conv(x: Tensor, w, b, spec: ConvSpec) -> Tensor:
    """Dilated convolution via comb decomposition.

    The input is padded once by ``spec.pad()``, as for any conv; field (i, j)
    of the padded map holds the pixels with row % d == i and col % d == j.
    Output field (i, j) is the *dense* (dilation-1, unpadded) convolution of
    padded field (i, j) with the unmodified kernel.  Executed MACs equal the
    dilated convolution's theoretical count — no zero-stuffing work, for any
    d and any map size.  Stride must be 1.

    Accepts either a planar tensor with a raw weight array (reference dense
    kernel per field) or an interleaved tensor with PackedWeights (optimized
    dense kernel per field).  d=1 degenerates to the plain dense convolution.
    """
    if spec.stride != 1:
        raise UnsupportedConfigError("comb decomposition requires stride 1")
    packed = isinstance(w, PackedWeights)
    layout = Layout.CHANNEL_INTERLEAVED if packed else Layout.CHANNEL_PLANAR
    w, b = _check_conv("comb_dilated_conv", x, w, b, spec, layout)
    core = _conv_interleaved_core if packed else _conv_planar_core

    d = spec.dilation
    out = np.empty(layout.order(spec.out_ch, *conv_out_shape(spec, x.height, x.width)))
    xp = _padded(x, spec)
    dense = replace(spec, dilation=1)
    for i in range(d):
        for j in range(d):
            field = layout.order(slice(None), slice(i, None, d), slice(j, None, d))
            out[field] = core(xp[field], w, dense)
    return _store(out, b, layout)


def zero_stuff_kernel(w: np.ndarray, d: int) -> np.ndarray:
    """Expand a kernel to its dilation-d footprint by inserting zeros.
    Running the result at dilation 1 reproduces the dilated convolution at
    ((d*(k-1)+1)/k)^2 times the arithmetic — the baseline comb avoids."""
    w = np.asarray(w, dtype=np.float32)
    out_ch, ipg, kh, kw = w.shape
    sh, sw = d * (kh - 1) + 1, d * (kw - 1) + 1
    stuffed = np.zeros((out_ch, ipg, sh, sw), dtype=np.float32)
    stuffed[:, :, ::d, ::d] = w
    return stuffed


def zero_stuffed_spec(spec: ConvSpec) -> ConvSpec:
    """Dilation-1 spec matching zero_stuff_kernel(w, spec.dilation)."""
    kh, kw = spec.kernel
    d = spec.dilation
    return ConvSpec(spec.in_ch, spec.out_ch,
                    (d * (kh - 1) + 1, d * (kw - 1) + 1),
                    spec.stride, 1, spec.groups, spec.has_bias)


# ---------------------------------------------------------------------------
# Batch norm, activation, upsampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BnParams:
    gamma: np.ndarray
    beta: np.ndarray
    mean: np.ndarray
    var: np.ndarray
    eps: float = 1e-5

    def __post_init__(self):
        for name in ("gamma", "beta", "mean", "var"):
            arr = np.asarray(getattr(self, name), dtype=np.float32)
            object.__setattr__(self, name, arr)
        n = self.gamma.shape
        if not (self.beta.shape == n and self.mean.shape == n and self.var.shape == n):
            raise ShapeMismatchError("BN parameter arrays differ in length")
        if self.eps <= 0:
            raise ConfigError("BN epsilon must be positive")
        if np.any(self.var < 0):
            raise ConfigError("BN running variance must be non-negative")

    def scale_shift(self) -> tuple:
        """Per-channel (s, t) with bn(x) = x*s + t."""
        s = self.gamma / np.sqrt(self.var + np.float32(self.eps))
        t = self.beta - self.mean * s
        return s.astype(np.float32), t.astype(np.float32)


def fold_batchnorm(w: np.ndarray, b, bn: BnParams) -> tuple:
    """Fold inference-time BN into the preceding conv:
    w'_o = w_o * gamma_o/sqrt(var_o+eps); b'_o = (b_o-mean_o)*gamma_o/sqrt(var_o+eps)+beta_o."""
    w = np.asarray(w, dtype=np.float32)
    if bn.gamma.shape[0] != w.shape[0]:
        raise ShapeMismatchError(
            f"BN length {bn.gamma.shape[0]} != out_ch {w.shape[0]}")
    s, t = bn.scale_shift()
    wf = (w * s[:, None, None, None]).astype(np.float32)
    b = np.zeros(w.shape[0], np.float32) if b is None else np.asarray(b, np.float32)
    bf = (b * s + t).astype(np.float32)
    return wf, bf


def batchnorm_inference(x: Tensor, bn: BnParams) -> Tensor:
    """Apply BN in inference form (x*s + t per channel), computed in 64-bit
    from the float32 (s, t) that fold_batchnorm uses and rounded once."""
    s, t = (a.astype(np.float64) for a in bn.scale_shift())
    shape = x.layout.order(-1, 1, 1)
    out = x.view() * s.reshape(shape) + t.reshape(shape)
    add_mults(out.size)
    add_adds(out.size)
    return Tensor.from_view(out, x.layout)


def relu(x: Tensor) -> Tensor:
    add_adds(x.data.size)  # one compare/select per element
    return Tensor(x.dims, x.layout, np.maximum(x.data, np.float32(0.0)))


def upsample_nearest_2x(x: Tensor) -> Tensor:
    """2x nearest-neighbor spatial replication; channel count preserved."""
    _, h_axis, w_axis = x.layout.chw_axes
    out = x.view().repeat(2, axis=h_axis).repeat(2, axis=w_axis)
    return Tensor.from_view(out, x.layout)
