"""Dense rank-3 tensors with two memory layouts, plus the kernel-stack
packing used by the optimized convolution backend.

Layouts (row-major over the listed axis order):

* channel-planar:      (C, H, W)   flat index ((c*H) + y)*W + x
* channel-interleaved: (H, W, C)   flat index ((y*W) + x)*C + c

Both formulas are what ``numpy.reshape`` gives for the respective axis order,
so layout transforms are plain transposes: :func:`to_interleaved` converts a
planar tensor, and :meth:`Tensor.to_array` reads either layout back as a
(C, H, W) array. This module is the only place that knows the two axis
orders and the tap operand a kernel stack is packed into; other modules go
through :class:`Layout`, :class:`Tensor` and :class:`PackedWeights`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
        """Inverse of :meth:`view`: the tensor stored as `v`, rounded to float32.
        A contiguous float32 `v` is taken over, not copied, and made read-only."""
        dims = tuple([v.shape[a] for a in layout.chw_axes])
        return Tensor(dims, layout, np.asarray(v, dtype=np.float32).reshape(-1))

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


# ---------------------------------------------------------------------------
# Kernel packing
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PackedWeights:
    """Kernel stack packed for the interleaved convolution: `taps` is the
    stack as the optimized core's float64 per-tap operand, (kh, kw, group,
    in_ch_per_group, out_ch_per_group), contiguous and read-only.
    :func:`pack_kernels` builds one from a weight array.  Packed stacks
    compare by taps and are unhashable."""

    taps: np.ndarray = field(repr=False)

    def __post_init__(self):
        taps = np.ascontiguousarray(self.taps, dtype=np.float64)
        if taps.ndim != 5:
            raise ShapeMismatchError(f"taps must be rank 5, got shape {taps.shape}")
        taps.flags.writeable = False
        object.__setattr__(self, "taps", taps)

    def __eq__(self, other):
        if not isinstance(other, PackedWeights):
            return NotImplemented
        return np.array_equal(self.taps, other.taps)


def pack_kernels(w: np.ndarray, groups: int) -> PackedWeights:
    """Pack a (out_ch, in_ch_per_group, kh, kw) weight array for the
    optimized backend: one transpose to the tap operand, no values created or
    destroyed."""
    w = np.asarray(w, dtype=np.float32)
    if w.ndim != 4:
        raise ShapeMismatchError(f"weights must be rank 4, got {w.ndim}")
    out_ch, ipg, kh, kw = w.shape
    if groups < 1 or out_ch % groups != 0:
        raise ConfigError(f"groups={groups} does not divide out_ch={out_ch}")
    return PackedWeights(
        w.reshape(groups, out_ch // groups, ipg, kh, kw).transpose(3, 4, 0, 2, 1))
