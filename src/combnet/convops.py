"""Convolution kernels and related primitives.

Two convolution paths over the same math (cross-correlation, no kernel flip):

* :func:`conv2d_ref` — direct tap-loop convolution on channel-planar data.
  Serves as the oracle for everything else.
* :func:`conv2d_packed` — the optimized path: channel-interleaved input and
  the packed kernel stack's float64 tap operand (``PackedWeights.taps``),
  in one of three formulations chosen from the spec:

  - several input channels per group (or one, outside the stem's case
    below): per kernel tap, one batched GEMM over all groups;
  - depthwise (one input and one output channel per group: the decoder and
    primary head): per tap, a multiply by the tap's weights tiled along an
    output row, into one reused product buffer, in bands of output rows;
  - one input channel, several outputs per group and a 3x3 kernel over more
    than one pixel (the tier-1 stem): the kernel taps stacked as the
    contraction axis of one GEMM per group, the only im2col matrix the
    engine builds.

Dilated convolutions on the optimized path additionally get
:func:`comb_dilated_conv`, which pads the interleaved input once and
convolves the d*d strided pixel fields of the padded map densely with the
packed stack — the dilated result at dense-convolution cost (no
zero-stuffing work).  The optimized core takes its padded map as a field
view whose field axes are batch axes: unit for :func:`conv2d_packed`, one
class of equal-sized fields per call for the comb.  The reference core
takes a plain padded map, kernel taps `dilation` apart.

All kernels accumulate in 64-bit and store 32-bit; the optimized ones can
fold a following residual add and ReLU into that one store.  An optional
instrumented counter records the multiplies/adds the kernels actually
execute so that analytic MAC/FLOP accounting can be cross-checked exactly.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass

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


def _valid_out_shape(spec: ConvSpec, h: int, w: int, d: int) -> tuple:
    """Output (h, w) of the unpadded convolution of an h x w map with kernel
    taps d apart: floor((in - d*(k-1) - 1)/stride) + 1 per axis."""
    kh, kw = spec.kernel
    s = spec.stride
    return (h - d * (kh - 1) - 1) // s + 1, (w - d * (kw - 1) - 1) // s + 1


def conv_out_shape(spec: ConvSpec, in_h: int, in_w: int) -> tuple:
    """Output (h, w): out = floor((in + 2p - d*(k-1) - 1)/stride) + 1."""
    ph, pw = spec.pad()
    oh, ow = _valid_out_shape(spec, in_h + 2 * ph, in_w + 2 * pw, spec.dilation)
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

def _check_conv(name: str, x: Tensor, w, b, spec: ConvSpec, layout: Layout,
                residual=None):
    """Validate a conv call; return (weights, float32 bias or None).
    Planar input takes a raw (out_ch, in_ch/groups, kh, kw) array,
    interleaved input takes PackedWeights. A residual must be a tensor of
    the output's dims in the input's layout."""
    if x.layout != layout:
        raise LayoutMismatchError(f"{name} expects a channel-{layout.value} tensor")
    if x.channels != spec.in_ch:
        raise ShapeMismatchError(f"input has {x.channels} channels, spec wants {spec.in_ch}")
    if layout == Layout.CHANNEL_INTERLEAVED:
        if not isinstance(w, PackedWeights):
            raise ConfigError(f"{name} on interleaved input takes PackedWeights, "
                              f"got {type(w).__name__}")
        taps = (*spec.kernel, spec.groups, spec.in_per_group, spec.out_per_group)
        if w.taps.shape != taps:
            raise ConfigError(f"packed taps {w.taps.shape} inconsistent with spec taps {taps}")
    else:
        if isinstance(w, PackedWeights):
            raise ConfigError(f"{name} on planar input takes a weight array, "
                              f"got PackedWeights")
        w = np.asarray(w, dtype=np.float32)
        if tuple(w.shape) != spec.weight_shape():
            raise ShapeMismatchError(
                f"weight shape {w.shape} != expected {spec.weight_shape()}")
    if b is not None:
        b = np.asarray(b, dtype=np.float32)
        if b.shape != (spec.out_ch,):
            raise ShapeMismatchError(f"bias shape {b.shape} != ({spec.out_ch},)")
    if residual is not None:
        out_dims = (spec.out_ch, *conv_out_shape(spec, x.height, x.width))
        if residual.layout != layout or residual.dims != out_dims:
            raise ShapeMismatchError(
                f"residual {residual.dims} {residual.layout.value} != "
                f"output {out_dims} {layout.value}")
    return w, b


def _padded(x: Tensor, spec: ConvSpec, d: int = 1) -> np.ndarray:
    """The input in float64 and its own layout, zero-padded by spec.pad() and
    then at the bottom and right up to a multiple of d. An input that needs
    no padding is only cast."""
    ph, pw = spec.pad()
    c, h, w = x.dims
    hp, wp = -(-(h + 2 * ph) // d) * d, -(-(w + 2 * pw) // d) * d
    if (hp, wp) == (h, w):
        return x.view().astype(np.float64)
    xp = np.zeros(x.layout.order(c, hp, wp))
    xp[x.layout.order(slice(None), slice(ph, ph + h), slice(pw, pw + w))] = x.view()
    return xp


def _add_bias(out: np.ndarray, b, layout: Layout) -> np.ndarray:
    """Add the bias to a float64 conv result in place."""
    if b is not None:
        out += b.astype(np.float64).reshape(layout.order(-1, 1, 1))
        add_adds(out.size)
    return out


def _store(out: np.ndarray, b, relu: bool, residual) -> Tensor:
    """The optimized convolutions' epilogue on a float64 (H, W, C) result,
    one float32 array worked in place: round(acc + bias) to float32, add the
    residual tensor in float32, then the ReLU. These are the float32
    operations, in the order, of a separate conv, residual add and
    :func:`relu`, so results and counts match that sequence exactly."""
    r = _add_bias(out, b, Layout.CHANNEL_INTERLEAVED).astype(np.float32)
    if residual is not None:
        r += residual.view()
        add_adds(r.size)
    if relu:
        np.maximum(r, np.float32(0.0), out=r)
        add_adds(r.size)
    return Tensor.from_view(r, Layout.CHANNEL_INTERLEAVED)


def _tap(k: int, step: int, s: int, n: int) -> slice:
    """Rows (or columns) that kernel tap k reads for n outputs, with taps
    `step` rows apart and output stride s."""
    return slice(k * step, k * step + (n - 1) * s + 1, s)


# ---------------------------------------------------------------------------
# Reference (planar) convolution
# ---------------------------------------------------------------------------

def _conv_planar_core(xp: np.ndarray, w: np.ndarray, spec: ConvSpec) -> np.ndarray:
    """Direct VALID convolution of an already padded float64 (C, H, W) map,
    kernel taps spec.dilation apart; returns the float64 (out_ch, out_h,
    out_w) result. Tap loop outside, channel contraction inside."""
    _, h, w_ = xp.shape
    d = spec.dilation
    out_h, out_w = _valid_out_shape(spec, h, w_, d)
    out = np.zeros((spec.out_ch, out_h, out_w))
    kh, kw = spec.kernel
    s = spec.stride
    ipg, opg = spec.in_per_group, spec.out_per_group
    for g in range(spec.groups):
        xg = xp[g * ipg:(g + 1) * ipg]
        wg = w[g * opg:(g + 1) * opg].astype(np.float64)
        og = out[g * opg:(g + 1) * opg]
        for ky in range(kh):
            for kx in range(kw):
                patch = xg[:, _tap(ky, d, s, out_h), _tap(kx, d, s, out_w)]
                # (opg, ipg) . (ipg, oh, ow) -> (opg, oh, ow)
                og += np.tensordot(wg[:, :, ky, kx], patch, axes=([1], [0]))
    add_mults(out.size * ipg * kh * kw)
    add_adds(out.size * ipg * kh * kw)
    return out


def conv2d_ref(x: Tensor, w: np.ndarray, b, spec: ConvSpec, rounded: bool = True):
    """Reference convolution on a channel-planar tensor (the oracle path).
    With ``rounded=False`` it returns the float64 (C, H, W) result, bias
    included, instead of a float32 tensor, so that a following
    :func:`batchnorm_inference` rounds conv-then-BN once."""
    w, b = _check_conv("conv2d_ref", x, w, b, spec, Layout.CHANNEL_PLANAR)
    out = _add_bias(_conv_planar_core(_padded(x, spec), w, spec), b, x.layout)
    return Tensor.from_view(out, x.layout) if rounded else out


# ---------------------------------------------------------------------------
# Optimized (interleaved, packed) convolution
# ---------------------------------------------------------------------------

# Output rows per depthwise band: the band's accumulator and product buffer
# stay in a core's L2 across the taps (128-256 KB measured best from 32x32 to
# 96x96 maps of 16 channels).
_BAND_BYTES = 128 << 10


def _conv_interleaved_core(xf: np.ndarray, pw: PackedWeights, spec: ConvSpec,
                           step: int) -> np.ndarray:
    """Direct VALID convolution of every field of an already padded float64
    (H, Bi, W, Bj, C) field view using the packed kernel stack, kernel taps
    `step` field rows and columns apart; returns the float64
    (out_h, Bi, out_w, Bj, out_ch) result.

    Per kernel tap, the strided window is seen as (pixels, group,
    in_ch_per_group), fields included in the pixels, and meets the tap's
    (group, in_ch_per_group, out_ch_per_group) slice of `pw.taps`.  Each
    output adds up its taps in kernel order, from the first tap's product,
    in float64.  The spec picks one of three formulations:

    * several input channels per group, or one input channel into several
      outputs with more than 9 taps or a single output pixel: per tap, one
      batched GEMM over the groups, added into the accumulator;
    * one input and one output channel per group (depthwise): per tap, the
      window times the tap's weights tiled along an output row, so each
      multiply runs a whole row, not one group's weights; band by band of
      output rows, the first tap multiplies into the accumulator and every
      later one into one reused product buffer that is then added;
    * one input channel, several outputs per group, a 3x3 kernel over more
      than one pixel (the one-channel stem): the taps' windows are stacked
      as the contraction axis of one (pixels, group, 9) matrix, the only
      im2col matrix built (295 KB for the 128x128 stem, less than its own
      512 KB float64 result), and one GEMM per group contracts it with the
      taps.  A float32 product is exact in float64, so the sum is the
      tap-by-tap one where the BLAS adds each dot product in tap order, as
      OpenBLAS does for this case (tested).
    """
    h, bi, w, bj, _ = xf.shape
    out_h, out_w = _valid_out_shape(spec, h, w, step)
    kh, kw = spec.kernel
    s = spec.stride
    G, ipg, opg = spec.groups, spec.in_per_group, spec.out_per_group
    pixels = (out_h, bi, out_w, bj)
    # with one input channel, each tap's contraction is one exact product
    per_tap = ipg > 1 or (opg > 1 and (kh * kw > 9 or out_h * bi * out_w * bj == 1))
    # (pixels, C) per tap, in kernel order
    windows = [xf[_tap(ky, step, s, out_h), :, _tap(kx, step, s, out_w)]
               for ky in range(kh) for kx in range(kw)]
    taps = pw.taps.reshape(kh * kw, G, ipg, opg)
    if per_tap:
        def gemm(win, tap):
            # (G, pixels, ipg) @ (G, ipg, opg) -> (G, pixels, opg)
            return np.matmul(win.reshape(-1, G, ipg).transpose(1, 0, 2), tap)
        # the first tap's product is the accumulator; each later one is
        # freed before the next is made
        acc = gemm(windows[0], taps[0])
        for win, tap in zip(windows[1:], taps[1:]):
            acc += gemm(win, tap)
        acc = acc.transpose(1, 0, 2)
    elif opg == 1:
        # (taps, out_w, Bj, G): each tap's weights along one output row
        rows = np.tile(taps[:, None, None, :, 0, 0], (1, out_w, bj, 1))
        acc = np.empty((*pixels, G))
        band = max(1, _BAND_BYTES // acc[0].nbytes)
        tmp = np.empty_like(acc[:band])
        for r in range(0, out_h, band):
            a = acc[r:r + band]
            t = tmp[:len(a)]
            np.multiply(windows[0][r:r + band], rows[0], out=a)
            for win, row in zip(windows[1:], rows[1:]):
                np.multiply(win[r:r + band], row, out=t)
                a += t
    else:
        # (G, pixels, kh*kw) @ (G, kh*kw, opg) -> (G, pixels, opg)
        stack = np.stack(windows, axis=-1).reshape(-1, G, kh * kw)
        acc = np.matmul(stack.transpose(1, 0, 2), taps[:, :, 0].transpose(1, 0, 2))
        acc = acc.transpose(1, 0, 2)
    out = acc.reshape(*pixels, spec.out_ch)
    add_mults(out.size * ipg * kh * kw)
    add_adds(out.size * ipg * kh * kw)
    return out


def conv2d_packed(x: Tensor, pw: PackedWeights, b, spec: ConvSpec, *,
                  relu: bool = False, residual: Tensor | None = None) -> Tensor:
    """Optimized convolution: interleaved input, packed weights, interleaved
    output. Numerically matches conv2d_ref within 1e-5 max-abs. `residual`
    (added to the float32 result) and `relu` (applied last) fuse a following
    residual add and ReLU into the store."""
    pw, b = _check_conv("conv2d_packed", x, pw, b, spec, Layout.CHANNEL_INTERLEAVED,
                        residual)
    out_h, out_w = conv_out_shape(spec, x.height, x.width)
    # unit field axes: the whole padded map is the one field
    out = _conv_interleaved_core(_padded(x, spec)[:, None, :, None], pw, spec,
                                 spec.dilation)
    return _store(out.reshape(out_h, out_w, spec.out_ch), b, relu, residual)


# ---------------------------------------------------------------------------
# Comb dilated convolution
# ---------------------------------------------------------------------------

def _size_classes(n: int, d: int) -> list:
    """(fields, length) classes of the d fields of an n-long axis: fields
    below n % d are n // d + 1 long, the rest n // d."""
    r = n % d
    return [(slice(0, r), n // d + 1)] * (r > 0) + [(slice(r, d), n // d)]


def comb_dilated_conv(x: Tensor, pw: PackedWeights, b, spec: ConvSpec, *,
                      relu: bool = False, residual: Tensor | None = None) -> Tensor:
    """Dilated convolution via comb decomposition on the optimized path:
    interleaved input, packed weights, interleaved output; stride must be 1.

    Field (i, j) of the padded map holds the pixels with row % d == i and
    col % d == j, and output field (i, j) is the dense (dilation-1, unpadded)
    convolution of input field (i, j) with the unmodified kernel.  The input
    is padded once, up to a multiple of d per side, and reshaped to the
    (H/d, d, W/d, d, C) field view, which holds field (i, j) at
    ``[:, i, :, j]``, so the fields are batch axes of the dense core.  Fields
    come in at most four size classes (rows ``Hp//d`` or ``Hp//d + 1`` of the
    padded Hp x Wp map, likewise columns); the core runs once per class, on
    its fields cropped to their real size, into an output field view that
    reshapes to the output map.  That is one call when d divides both padded
    sides, and no output outside the map is computed: executed MACs equal the
    theoretical count for any d and map size.

    d=1 is the plain convolution.  `relu` and `residual` fuse the epilogue
    as in :func:`conv2d_packed`.
    """
    if spec.stride != 1:
        raise UnsupportedConfigError("comb decomposition requires stride 1")
    pw, b = _check_conv("comb_dilated_conv", x, pw, b, spec, Layout.CHANNEL_INTERLEAVED,
                        residual)
    d = spec.dilation
    kh, kw = spec.kernel
    out_h, out_w = conv_out_shape(spec, x.height, x.width)
    hf, wf = -(-out_h // d), -(-out_w // d)
    xp = _padded(x, spec, d)
    xf = xp.reshape(xp.shape[0] // d, d, xp.shape[1] // d, d, spec.in_ch)
    out = np.empty((hf, d, wf, d, spec.out_ch))
    # at stride 1 the padded side is the output side plus d*(k-1)
    for fi, rows in _size_classes(out_h + d * (kh - 1), d):
        for fj, cols in _size_classes(out_w + d * (kw - 1), d):
            if rows >= kh and cols >= kw:
                out[:rows - kh + 1, fi, :cols - kw + 1, fj] = _conv_interleaved_core(
                    xf[:rows, fi, :cols, fj], pw, spec, 1)
    out = out.reshape(hf * d, wf * d, spec.out_ch)
    return _store(out[:out_h, :out_w], b, relu, residual)


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


def batchnorm_inference(x: np.ndarray, bn: BnParams) -> Tensor:
    """Apply BN in inference form (x*s + t per channel) to the unrounded
    float64 (C, H, W) result of ``conv2d_ref(..., rounded=False)``, in 64-bit
    from the float32 (s, t) that fold_batchnorm uses, rounding once to a
    channel-planar float32 tensor, as the folded conv rounds."""
    s, t = (a.astype(np.float64)[:, None, None] for a in bn.scale_shift())
    out = x * s + t
    add_mults(out.size)
    add_adds(out.size)
    return Tensor.from_view(out, Layout.CHANNEL_PLANAR)


def relu(x: Tensor) -> Tensor:
    add_adds(x.data.size)  # one compare/select per element
    return Tensor(x.dims, x.layout, np.maximum(x.data, np.float32(0.0)))


def upsample_nearest_2x(x: Tensor) -> Tensor:
    """2x nearest-neighbor spatial replication; channel count preserved."""
    _, h_axis, w_axis = x.layout.chw_axes
    out = x.view().repeat(2, axis=h_axis).repeat(2, axis=w_axis)
    return Tensor.from_view(out, x.layout)
