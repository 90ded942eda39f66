"""Dense rank-3 tensors with two memory layouts, plus the kernel-stack
packing used by the optimized convolution backend.

Layouts (row-major over the listed axis order):

* channel-planar:      (C, H, W)   flat index ((c*H) + y)*W + x
* channel-interleaved: (H, W, C)   flat index ((y*W) + x)*C + c

Both formulas are what ``numpy.reshape`` gives for the respective axis order,
so layout transforms are plain transposes. This module is the only place that
knows the two axis orders and the packing order; other modules go through
:class:`Layout`, :class:`Tensor` and :class:`PackedWeights`.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from enum import Enum

import numpy as np

from .errors import ConfigError, LayoutMismatchError, ShapeMismatchError


class Layout(Enum):
    """A storage axis order. `storage_axes` lists the (C, H, W) axes in
    storage order, so a CHW array transposed by it is the stored array;
    `chw_axes` lists the storage axes that hold C, H and W, so a stored array
    transposed by it is the CHW array."""

    CHANNEL_PLANAR = ("planar", (0, 1, 2), (0, 1, 2))            # (C, H, W)
    CHANNEL_INTERLEAVED = ("interleaved", (1, 2, 0), (2, 0, 1))  # (H, W, C)

    def __new__(cls, value: str, storage_axes: tuple, chw_axes: tuple):
        member = object.__new__(cls)
        member._value_ = value
        member.storage_axes = storage_axes
        member.chw_axes = chw_axes
        return member

    def order(self, c, h, w) -> tuple:
        """Per-axis items given in (C, H, W) order, put in storage order."""
        chw = (c, h, w)
        return tuple([chw[a] for a in self.storage_axes])


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=np.float32)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Tensor:
    """Immutable dense tensor. ``data`` is flat float32, row-major within the
    declared layout; values are safely shareable across threads.  Tensors
    compare by value (dims, layout, data) and are unhashable."""

    dims: tuple  # (C, H, W), independent of layout
    layout: Layout
    data: np.ndarray

    def __post_init__(self):
        if len(self.dims) != 3:
            raise ShapeMismatchError(f"rank must be 3, got dims={self.dims}")
        if any(d < 1 for d in self.dims):
            raise ShapeMismatchError(f"all dims must be >= 1, got {self.dims}")
        n = math.prod(self.dims)
        if self.data.ndim != 1 or self.data.size != n:
            raise ShapeMismatchError(
                f"data length {self.data.size} != product of dims {self.dims}"
            )
        object.__setattr__(self, "data", _freeze(self.data))

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return (self.dims == other.dims and self.layout == other.layout
                and np.array_equal(self.data, other.data))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_array(arr: np.ndarray, layout: Layout = Layout.CHANNEL_PLANAR) -> "Tensor":
        """Build from a (C,H,W) array, storing in `layout`."""
        arr = np.asarray(arr, dtype=np.float32)
        if arr.ndim != 3:
            raise ShapeMismatchError(f"expected rank 3, got {arr.ndim}")
        dims = tuple(int(d) for d in arr.shape)
        return Tensor(dims, layout, arr.transpose(layout.storage_axes).flatten())

    @staticmethod
    def from_view(v: np.ndarray, layout: Layout) -> "Tensor":
        """Inverse of :meth:`view`: the tensor stored as `v`, rounded to float32."""
        dims = tuple([v.shape[a] for a in layout.chw_axes])
        return Tensor(dims, layout, v.astype(np.float32).reshape(-1))

    # -- shape helpers -----------------------------------------------------

    @property
    def channels(self) -> int:
        return self.dims[0]

    @property
    def height(self) -> int:
        return self.dims[1]

    @property
    def width(self) -> int:
        return self.dims[2]

    def view(self) -> np.ndarray:
        """Zero-copy view in the native layout order (CHW or HWC)."""
        return self.data.reshape(self.layout.order(*self.dims))

    def to_array(self) -> np.ndarray:
        """(C,H,W) array regardless of layout (copies if needed)."""
        return np.ascontiguousarray(self.view().transpose(self.layout.chw_axes))

    def at(self, c: int, y: int, x: int) -> float:
        """Read one element via the explicit flat-index formula."""
        C, H, W = self.dims
        if not (0 <= c < C and 0 <= y < H and 0 <= x < W):
            raise ShapeMismatchError(f"index ({c},{y},{x}) out of bounds for {self.dims}")
        if self.layout == Layout.CHANNEL_PLANAR:
            idx = (c * H + y) * W + x
        else:
            idx = (y * W + x) * C + c
        return float(self.data[idx])


def to_interleaved(t: Tensor) -> Tensor:
    """Planar -> interleaved; element (c,y,x) preserved, layout flag flipped."""
    if t.layout != Layout.CHANNEL_PLANAR:
        raise LayoutMismatchError("to_interleaved expects a channel-planar tensor")
    return Tensor.from_array(t.view(), Layout.CHANNEL_INTERLEAVED)


def to_planar(t: Tensor) -> Tensor:
    """Interleaved -> planar; exact inverse of :func:`to_interleaved`."""
    if t.layout != Layout.CHANNEL_INTERLEAVED:
        raise LayoutMismatchError("to_planar expects a channel-interleaved tensor")
    return Tensor.from_array(t.to_array())


# ---------------------------------------------------------------------------
# Kernel packing
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PackedWeights:
    """Kernel stack reordered for export and for the interleaved convolution.

    Packing order of `data` (outer to inner): group, lane-block of output
    channels, kernel row, kernel column, input channel within group, lane.
    The last block of a group is ragged when out_ch/groups is not a lane
    multiple.  `taps` is the same stack as the optimized core's float64
    per-tap operand, (kh, kw, group, in_ch_per_group, out_ch_per_group), derived
    once from the unpacked stack: `unpacked` when the caller has it (as
    :func:`pack_kernels` does), else unpacked from `data`.  Packed stacks
    compare by value (dims, groups, lane width, data) and are unhashable.
    """

    out_ch: int
    in_ch_per_group: int
    kh: int
    kw: int
    groups: int
    lane_width: int
    data: np.ndarray = field(repr=False)
    unpacked: InitVar[np.ndarray | None] = None
    taps: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, unpacked):
        object.__setattr__(self, "data", _freeze(self.data))
        if self.groups < 1 or self.out_ch % self.groups:
            raise ConfigError(f"groups={self.groups} does not divide out_ch={self.out_ch}")
        if self.data.size != self.out_ch * self.in_ch_per_group * self.kh * self.kw:
            raise ShapeMismatchError(f"packed data length {self.data.size} does not "
                                     f"match its kernel stack dims")
        w = (unpack_kernels(self) if unpacked is None else unpacked).reshape(
            self.groups, -1, self.in_ch_per_group, self.kh, self.kw)
        taps = np.ascontiguousarray(w.transpose(3, 4, 0, 2, 1), dtype=np.float64)
        taps.flags.writeable = False
        object.__setattr__(self, "taps", taps)

    def __eq__(self, other):
        if not isinstance(other, PackedWeights):
            return NotImplemented
        return (self._dims() == other._dims()
                and np.array_equal(self.data, other.data))

    def _dims(self) -> tuple:
        return (self.out_ch, self.in_ch_per_group, self.kh, self.kw,
                self.groups, self.lane_width)


def _packing_permutation(out_ch, ipg, kh, kw, groups, lane_width):
    """Flat source indices of w[(oc, ci, ky, kx)] in packed order: the index
    grid (group, oc, ci, ky, kx) with oc padded to whole lane blocks by -1,
    transposed to (group, block, ky, kx, ci, lane), with the pad dropped."""
    opg = out_ch // groups
    blocks = -(-opg // lane_width)
    idx = np.full((groups, blocks * lane_width, ipg, kh, kw), -1)
    idx[:, :opg] = np.arange(out_ch * ipg * kh * kw).reshape(groups, opg, ipg, kh, kw)
    idx = idx.reshape(groups, blocks, lane_width, ipg, kh, kw).transpose(0, 1, 4, 5, 3, 2)
    idx = idx.reshape(-1)
    return idx[idx >= 0]


def pack_kernels(w: np.ndarray, groups: int, lane_width: int) -> PackedWeights:
    """Reorder a (out_ch, in_ch_per_group, kh, kw) weight array for the
    optimized backend. Pure permutation: no values created or destroyed."""
    w = np.asarray(w, dtype=np.float32)
    if w.ndim != 4:
        raise ShapeMismatchError(f"weights must be rank 4, got {w.ndim}")
    out_ch, ipg, kh, kw = w.shape
    if groups < 1 or out_ch % groups != 0:
        raise ConfigError(f"groups={groups} does not divide out_ch={out_ch}")
    if lane_width < 1:
        raise ConfigError(f"lane_width must be positive, got {lane_width}")
    perm = _packing_permutation(out_ch, ipg, kh, kw, groups, lane_width)
    return PackedWeights(out_ch, ipg, kh, kw, groups, lane_width, w.reshape(-1)[perm], w)


def unpack_kernels(pw: PackedWeights) -> np.ndarray:
    """Invert :func:`pack_kernels`, returning (out_ch, in_ch_per_group, kh, kw)."""
    perm = _packing_permutation(pw.out_ch, pw.in_ch_per_group, pw.kh, pw.kw,
                                pw.groups, pw.lane_width)
    flat = np.empty(pw.data.size, dtype=np.float32)
    flat[perm] = pw.data
    return flat.reshape(pw.out_ch, pw.in_ch_per_group, pw.kh, pw.kw)
