"""Dense rank-3 tensors with two memory layouts, plus the kernel-stack
packing used by the optimized convolution backend.

Layouts (row-major over the listed axis order):

* channel-planar:      (C, H, W)   flat index ((c*H) + y)*W + x
* channel-interleaved: (H, W, C)   flat index ((y*W) + x)*C + c

A tensor stores its values as one array in its layout's axis order;
``Tensor.data`` is that array's flat row-major view, so both formulas index
it.  Layout transforms are plain transposes: :func:`to_interleaved` converts
a planar tensor, and :meth:`Tensor.to_array` reads either layout back as a
(C, H, W) array. This module defines the two axis orders (:class:`Layout`)
and the tap operand of :func:`pack_kernels`; each convolution backend's
kernels are written for their one layout and index its arrays directly.
"""

from __future__ import annotations

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


@dataclass(frozen=True, eq=False)
class Tensor:
    """Immutable dense tensor: ``array`` holds the float32 values in the
    layout's axis order, C-contiguous and read-only, so values are safely
    shareable across threads.  An array of that form is taken over, not
    copied; any other is copied into that form.  Tensors compare by value
    (layout and array) and are unhashable."""

    dims: tuple = field(init=False)  # (C, H, W), independent of layout
    layout: Layout
    array: np.ndarray

    def __post_init__(self):
        shape = np.shape(self.array)
        if len(shape) != 3 or min(shape) < 1:
            raise ShapeMismatchError(f"expected rank 3 with all dims >= 1, got shape {shape}")
        arr = np.ascontiguousarray(self.array, dtype=np.float32)
        arr.flags.writeable = False
        object.__setattr__(self, "array", arr)
        object.__setattr__(self, "dims", tuple([shape[a] for a in self.layout.chw_axes]))

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return self.layout == other.layout and np.array_equal(self.array, other.array)

    @staticmethod
    def from_array(arr: np.ndarray, layout: Layout = Layout.CHANNEL_PLANAR) -> "Tensor":
        """Build from a (C,H,W) array, storing a copy in `layout`."""
        arr = np.asarray(arr, dtype=np.float32)
        if arr.ndim != 3:
            raise ShapeMismatchError(f"expected rank 3, got {arr.ndim}")
        # copied: the planar transpose is a view of the caller's array
        return Tensor(layout, arr.transpose(layout.storage_axes).copy())

    @property
    def data(self) -> np.ndarray:
        """The stored array's flat row-major view."""
        return self.array.reshape(-1)

    @property
    def channels(self) -> int:
        return self.dims[0]

    @property
    def height(self) -> int:
        return self.dims[1]

    @property
    def width(self) -> int:
        return self.dims[2]

    def to_array(self) -> np.ndarray:
        """(C,H,W) array regardless of layout (copies if needed)."""
        return np.ascontiguousarray(self.array.transpose(self.layout.chw_axes))


def to_interleaved(t: Tensor) -> Tensor:
    """Planar -> interleaved; element (c,y,x) preserved, layout flag flipped."""
    if t.layout != Layout.CHANNEL_PLANAR:
        raise LayoutMismatchError("to_interleaved expects a channel-planar tensor")
    return Tensor.from_array(t.array, Layout.CHANNEL_INTERLEAVED)


# ---------------------------------------------------------------------------
# Kernel packing
# ---------------------------------------------------------------------------

def pack_kernels(w: np.ndarray, groups: int) -> np.ndarray:
    """Pack a (out_ch, in_ch_per_group, kh, kw) weight array for the
    optimized backend: one transpose to the tap operand, the float64 (kh, kw,
    group, in_ch_per_group, out_ch_per_group) array, contiguous and
    read-only. No values are created or destroyed."""
    w = np.asarray(w, dtype=np.float32)
    if w.ndim != 4:
        raise ShapeMismatchError(f"weights must be rank 4, got {w.ndim}")
    out_ch, ipg, kh, kw = w.shape
    if groups < 1 or out_ch % groups != 0:
        raise ConfigError(f"groups={groups} does not divide out_ch={out_ch}")
    taps = np.ascontiguousarray(
        w.reshape(groups, out_ch // groups, ipg, kh, kw).transpose(3, 4, 0, 2, 1),
        dtype=np.float64)
    taps.flags.writeable = False
    return taps
