"""Convolution kernels and related primitives.

Two convolution paths over the same math (cross-correlation, no kernel flip):

* :func:`conv2d_ref` — direct tap-loop convolution on channel-planar data.
  Serves as the oracle for everything else.
* :func:`conv2d_packed` — the optimized path: channel-interleaved input and
  the kernel stack packed by :func:`tensor.pack_kernels` into its float64
  (kh, kw, group, in_ch_per_group, out_ch_per_group) tap operand, in one of
  three formulations chosen from the spec:

  - several input channels per group (or one, outside the stem's case
    below): per kernel tap, one batched GEMM over all groups;
  - depthwise (one input and one output channel per group: the decoder and
    primary head): per tap, a multiply by the tap's weights tiled along an
    output row, added into the accumulator in bands of output rows;
  - one input channel, several outputs per group and a 3x3 kernel over more
    than one pixel (the tier-1 stem): the kernel taps stacked as the
    contraction axis of one GEMM per group, the only im2col matrix the
    engine builds.

Every stride-1 conv on the optimized path runs as the comb: the input is
padded once and each kernel tap reads one strided window, taps d apart (d
the dilation), that holds all d*d pixel fields of the padded map, so each
field is convolved densely with the packed stack — the dilated result at
dense-convolution cost (no zero-stuffing work).  :func:`comb_dilated_conv`
is the same body limited to stride 1.  The reference pads into a plain
map and, per kernel tap (taps `dilation` apart), contracts every group in
one batched matmul.

The two paths share only validation (:func:`_check_conv`) and the spec's
geometry (:meth:`ConvSpec.pad`, :func:`conv_out_shape`, :func:`_tap`); each
owns its zero padding, its 64-bit accumulation, its bias add and its 32-bit
store, so the oracle runs no step of the code it checks.  The optimized
store can fold a following residual add and ReLU.  Inside a
:class:`counting` block, every kernel adds the multiplies and adds it
executes to the block's tally with one :func:`count_ops` call, so that
analytic MAC/FLOP accounting can be cross-checked exactly.
"""

from __future__ import annotations

from contextvars import ContextVar
from typing import NamedTuple

import numpy as np

from .errors import (ConfigError, LayoutMismatchError, ShapeMismatchError,
                     UnsupportedConfigError)
from .tensor import Layout, Tensor

__all__ = [
    "ConvSpec", "conv2d_ref", "conv2d_packed",
    "comb_dilated_conv", "fold_batchnorm",
    "batchnorm_inference", "relu", "upsample_nearest_2x", "mac_count",
    "conv_out_shape", "zero_stuff_kernel", "zero_stuffed_spec", "counting",
    "count_ops",
]


class _ConvSpec(NamedTuple):
    in_ch: int
    out_ch: int
    kernel: tuple  # (kh, kw)
    stride: int = 1
    dilation: int = 1
    groups: int = 1
    has_bias: bool = False


class ConvSpec(_ConvSpec):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        kh, kw = self.kernel
        if min(self.in_ch, self.out_ch, kh, kw) < 1:
            raise ConfigError(f"non-positive dims in {self}")
        if self.stride < 1 or self.dilation < 1 or self.groups < 1:
            raise ConfigError(f"stride/dilation/groups must be >= 1 in {self}")
        if self.in_ch % self.groups or self.out_ch % self.groups:
            raise ConfigError(
                f"groups={self.groups} must divide in_ch={self.in_ch} "
                f"and out_ch={self.out_ch}")
        return self

    _make = classmethod(lambda cls, values: cls(*values))  # _replace builds through it

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


def conv_out_shape(spec: ConvSpec, in_h: int, in_w: int) -> tuple:
    """Output (h, w): out = floor((in + 2p - d*(k-1) - 1)/stride) + 1."""
    (kh, kw), (ph, pw) = spec.kernel, spec.pad()
    d, s = spec.dilation, spec.stride
    oh = (in_h + 2 * ph - d * (kh - 1) - 1) // s + 1
    ow = (in_w + 2 * pw - d * (kw - 1) - 1) // s + 1
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

# Context-local, so a counting() block sees only the kernels its own thread
# (or task) runs, even when threads share a graph.
_active_counter: ContextVar = ContextVar("combnet_active_counter", default=None)


class counting:
    """Tally of the scalar multiplies/adds the kernels execute in its block.

    with counting() as ops:
        conv2d_ref(...)
    ops.mults  # multiplies executed

    Blocks nest: on exit, an inner block's tally is added to the enclosing
    block's, so the outer count covers every kernel run inside it.
    """

    def __enter__(self) -> counting:
        self.mults = self.adds = 0
        self._token = _active_counter.set(self)
        return self

    def __exit__(self, *exc):
        _active_counter.reset(self._token)
        count_ops(self.mults, self.adds)
        return False

    @property
    def flops(self) -> int:
        return self.mults + self.adds


def count_ops(mults: int = 0, adds: int = 0):
    """Add to the tally of the innermost enclosing counting() block, if any."""
    ops = _active_counter.get()
    if ops is not None:
        ops.mults += int(mults)
        ops.adds += int(adds)


# ---------------------------------------------------------------------------
# Shared entry check and geometry
# ---------------------------------------------------------------------------

def _check_conv(name: str, x: Tensor, w, b, spec: ConvSpec, layout: Layout):
    """Validate a conv call; return (weights, float32 bias or None).
    Planar input takes a raw (out_ch, in_ch/groups, kh, kw) array,
    interleaved input the float64 taps of :func:`tensor.pack_kernels`."""
    if x.layout != layout:
        raise LayoutMismatchError(f"{name} expects a channel-{layout.value} tensor")
    if x.channels != spec.in_ch:
        raise ShapeMismatchError(f"input has {x.channels} channels, spec wants {spec.in_ch}")
    if layout == Layout.CHANNEL_INTERLEAVED:
        taps = (*spec.kernel, spec.groups, spec.in_per_group, spec.out_per_group)
        if np.shape(w) != taps:
            raise ConfigError(f"{name} takes packed taps of shape {taps}, "
                              f"got shape {np.shape(w)}")
        w = np.asarray(w, dtype=np.float64)
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


def _tap(k: int, step: int, s: int, n: int) -> slice:
    """Rows (or columns) that kernel tap k reads for n outputs, with taps
    `step` rows apart and output stride s."""
    return slice(k * step, k * step + (n - 1) * s + 1, s)


# ---------------------------------------------------------------------------
# Reference (planar) convolution
# ---------------------------------------------------------------------------

def conv2d_ref(x: Tensor, w: np.ndarray, b, spec: ConvSpec, rounded: bool = True):
    """Reference convolution on a channel-planar tensor (the oracle path).

    The input is zero-padded into a float64 (C, H, W) map seen as (group,
    in_ch_per_group, H, W), the weights become one float64 (kh, kw, group,
    out_ch_per_group, in_ch_per_group) array, and per kernel tap, in kernel
    order with taps `dilation` apart, one matmul batched over the groups
    adds (opg, ipg) @ (ipg, pixels) into a float64 accumulator (with one
    input channel per group, the product (opg, 1) * (1, pixels)); then the
    float64 bias add.  With ``rounded=False`` it returns the float64 (C, H,
    W) result, bias included, instead of a float32 tensor, so that a
    following :func:`batchnorm_inference` rounds conv-then-BN once."""
    w, b = _check_conv("conv2d_ref", x, w, b, spec, Layout.CHANNEL_PLANAR)
    c, h, wd = x.dims
    out_h, out_w = conv_out_shape(spec, h, wd)
    ph, pw = spec.pad()
    xp = np.zeros((c, h + 2 * ph, wd + 2 * pw))
    xp[:, ph:ph + h, pw:pw + wd] = x.array
    kh, kw = spec.kernel
    d, s = spec.dilation, spec.stride
    G, ipg, opg = spec.groups, spec.in_per_group, spec.out_per_group
    xg = xp.reshape(G, ipg, *xp.shape[1:])
    wg = np.ascontiguousarray(w.reshape(G, opg, ipg, kh, kw).transpose(3, 4, 0, 1, 2),
                              dtype=np.float64)
    acc = np.zeros((G, opg, out_h * out_w))
    for ky in range(kh):
        for kx in range(kw):
            window = xg[:, :, _tap(ky, d, s, out_h), _tap(kx, d, s, out_w)]
            if ipg == 1:  # the K = 1 contraction is one exact product per output
                acc += wg[ky, kx] * window.reshape(G, 1, -1)
            else:  # (G, opg, ipg) @ (G, ipg, pixels) -> (G, opg, pixels)
                acc += wg[ky, kx] @ window.reshape(G, ipg, -1)
    out = acc.reshape(spec.out_ch, out_h, out_w)
    if b is not None:
        out += b.astype(np.float64)[:, None, None]
    count_ops(out.size * ipg * kh * kw, out.size * (ipg * kh * kw + (b is not None)))
    return Tensor(x.layout, out) if rounded else out


# ---------------------------------------------------------------------------
# Optimized (interleaved, packed) convolution
# ---------------------------------------------------------------------------

# Output rows per depthwise band: the band's accumulator and each tap's product
# stay in a core's L2 across the taps (128-256 KB measured best from 32x32 to
# 96x96 maps of 16 channels).
_BAND_BYTES = 128 << 10


def _conv_interleaved_core(xp: np.ndarray, taps: np.ndarray, spec: ConvSpec,
                           out_h: int, out_w: int) -> np.ndarray:
    """Direct convolution of an already padded float64 (H, W, C) map using
    the packed taps, with taps `dilation` apart at the spec's stride;
    returns the float64 (out_h, out_w, out_ch) result.

    Per kernel tap, the strided window is seen as (pixels, group,
    in_ch_per_group) and meets the tap's (group, in_ch_per_group,
    out_ch_per_group) slice of `taps`.  Each output adds up its taps in
    kernel order, from the first tap's product, in float64.  The spec picks one of three formulations:

    * several input channels per group, or one input channel into several
      outputs with more than 9 taps or a single output pixel: per tap, one
      batched GEMM over the groups, added into the accumulator;
    * one input and one output channel per group (depthwise): per tap, the
      window times the tap's weights tiled along an output row, so each
      multiply runs a whole row, not one group's weights; band by band of
      output rows, the first tap multiplies into the accumulator and every
      later one's product is added to it;
    * one input channel, several outputs per group, a 3x3 kernel over more
      than one pixel (the one-channel stem): the taps' windows are stacked
      as the contraction axis of one (pixels, group, 9) matrix, the only
      im2col matrix built (295 KB for the 128x128 stem, less than its own
      512 KB float64 result), and one GEMM per group contracts it with the
      taps.  A float32 product is exact in float64, so the sum is the
      tap-by-tap one where the BLAS adds each dot product in tap order, as
      OpenBLAS does for this case (tested).
    """
    kh, kw = spec.kernel
    d, s = spec.dilation, spec.stride
    G, ipg, opg = spec.groups, spec.in_per_group, spec.out_per_group
    # with one input channel, each tap's contraction is one exact product
    per_tap = ipg > 1 or (opg > 1 and (kh * kw > 9 or out_h * out_w == 1))
    # (out_h, out_w, C) per tap, in kernel order
    windows = [xp[_tap(ky, d, s, out_h), _tap(kx, d, s, out_w)]
               for ky in range(kh) for kx in range(kw)]
    taps = taps.reshape(kh * kw, G, ipg, opg)
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
        # (taps, out_w, G): each tap's weights along one output row
        rows = np.tile(taps[:, None, :, 0, 0], (1, out_w, 1))
        acc = np.empty((out_h, out_w, G))
        band = max(1, _BAND_BYTES // acc[0].nbytes)
        for r in range(0, out_h, band):
            a = acc[r:r + band]
            np.multiply(windows[0][r:r + band], rows[0], out=a)
            for win, row in zip(windows[1:], rows[1:]):
                a += win[r:r + band] * row
    else:
        # (G, pixels, kh*kw) @ (G, kh*kw, opg) -> (G, pixels, opg)
        stack = np.stack(windows, axis=-1).reshape(-1, G, kh * kw)
        acc = np.matmul(stack.transpose(1, 0, 2), taps[:, :, 0].transpose(1, 0, 2))
        acc = acc.transpose(1, 0, 2)
    out = acc.reshape(out_h, out_w, spec.out_ch)
    count_ops(out.size * ipg * kh * kw, out.size * ipg * kh * kw)
    return out


def _store(out: np.ndarray, b, relu: bool, residual) -> Tensor:
    """The optimized convolutions' epilogue on a float64 (H, W, C) result,
    one float32 array worked in place: round(acc + bias) to float32, add the
    residual tensor in float32, then the ReLU. These are the float32
    operations, in the order, of a separate conv, residual add and
    :func:`relu`, so results and counts match that sequence exactly."""
    if b is not None:
        out += b.astype(np.float64)
    r = out.astype(np.float32)
    if residual is not None:
        r += residual.array
    if relu:
        np.maximum(r, np.float32(0.0), out=r)
    count_ops(adds=r.size * ((b is not None) + (residual is not None) + relu))
    return Tensor(Layout.CHANNEL_INTERLEAVED, r)


def _conv_fields(name: str, x: Tensor, taps: np.ndarray, b, spec: ConvSpec,
                 relu: bool, residual) -> Tensor:
    """The optimized convolution behind both public entries; errors name
    the entry `name`.  A residual must be a tensor of the output's dims in
    the input's layout.

    The input is zero-padded once by spec.pad() into a float64 (H, W, C)
    array, and the core runs once on it.  At stride 1 this is the comb:
    kernel tap (ky, kx) reads the one strided window
    xp[ky*d : ky*d + out_h, kx*d : kx*d + out_w] (d the dilation), which
    holds every field at once, so output field (i, j) (the pixels with
    row % d == i and col % d == j) is the dense convolution of the padded
    input's field xp[i::d, j::d] with the unmodified kernel, whatever the
    map size, and no output falls outside the map.  The bias is added in
    the store.  Executed MACs equal :func:`mac_count` for any d.
    """
    taps, b = _check_conv(name, x, taps, b, spec, Layout.CHANNEL_INTERLEAVED)
    out_h, out_w = conv_out_shape(spec, x.height, x.width)
    if residual is not None and (residual.layout != x.layout
                                 or residual.dims != (spec.out_ch, out_h, out_w)):
        raise ShapeMismatchError(
            f"residual {residual.dims} {residual.layout.value} != "
            f"output {(spec.out_ch, out_h, out_w)} {x.layout.value}")
    ph, pw = spec.pad()
    xp = np.zeros((x.height + 2 * ph, x.width + 2 * pw, spec.in_ch))
    xp[ph:ph + x.height, pw:pw + x.width] = x.array
    out = _conv_interleaved_core(xp, taps, spec, out_h, out_w)
    return _store(out, b, relu, residual)


def conv2d_packed(x: Tensor, taps: np.ndarray, b, spec: ConvSpec, *,
                  relu: bool = False, residual: Tensor | None = None) -> Tensor:
    """Optimized convolution: interleaved input, packed weights, interleaved
    output. Numerically matches conv2d_ref within 1e-5 max-abs. `residual`
    (added to the float32 result) and `relu` (applied last) fuse a following
    residual add and ReLU into the store."""
    return _conv_fields("conv2d_packed", x, taps, b, spec, relu, residual)


def comb_dilated_conv(x: Tensor, taps: np.ndarray, b, spec: ConvSpec, *,
                      relu: bool = False, residual: Tensor | None = None) -> Tensor:
    """Dilated convolution via comb decomposition: :func:`conv2d_packed`,
    which runs every stride-1 conv as the comb, limited to stride 1."""
    if spec.stride != 1:
        raise UnsupportedConfigError("comb decomposition requires stride 1")
    return _conv_fields("comb_dilated_conv", x, taps, b, spec, relu, residual)


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

def fold_batchnorm(w: np.ndarray, b, bn: tuple) -> tuple:
    """Fold inference-time BN, given as its float32 per-channel (s, t) with
    bn(x) = x*s + t, into the preceding conv: w'_o = w_o*s_o, b'_o = b_o*s_o + t_o."""
    w = np.asarray(w, dtype=np.float32)
    s, t = bn
    if s.shape[0] != w.shape[0]:
        raise ShapeMismatchError(f"BN length {s.shape[0]} != out_ch {w.shape[0]}")
    wf = (w * s[:, None, None, None]).astype(np.float32)
    b = np.zeros(w.shape[0], np.float32) if b is None else np.asarray(b, np.float32)
    bf = (b * s + t).astype(np.float32)
    return wf, bf


def batchnorm_inference(x: np.ndarray, bn: tuple) -> Tensor:
    """Apply BN in inference form (x*s + t per channel) to the unrounded
    float64 (C, H, W) result of ``conv2d_ref(..., rounded=False)``, in 64-bit
    from the float32 (s, t) that fold_batchnorm takes, rounding once to a
    channel-planar float32 tensor, as the folded conv rounds."""
    s, t = (a.astype(np.float64)[:, None, None] for a in bn)
    out = x * s + t
    count_ops(out.size, out.size)
    return Tensor(Layout.CHANNEL_PLANAR, out)


def relu(x: Tensor) -> Tensor:
    count_ops(adds=x.array.size)  # one compare/select per element
    return Tensor(x.layout, np.maximum(x.array, np.float32(0.0)))


def upsample_nearest_2x(x: Tensor) -> Tensor:
    """2x nearest-neighbor spatial replication; channel count preserved."""
    _, h_axis, w_axis = x.layout.chw_axes
    out = x.array.repeat(2, axis=h_axis).repeat(2, axis=w_axis)
    return Tensor(x.layout, out)
