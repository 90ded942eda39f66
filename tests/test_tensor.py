import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combnet.errors import ConfigError, LayoutMismatchError, ShapeMismatchError
from combnet.tensor import (Layout, PackedWeights, Tensor, pack_kernels,
                            to_interleaved, to_planar, unpack_kernels)


def test_interleave_2x1x2_example():
    t = Tensor((2, 1, 2), Layout.CHANNEL_PLANAR, np.array([1, 2, 3, 4], np.float32))
    ti = to_interleaved(t)
    assert ti.layout == Layout.CHANNEL_INTERLEAVED
    assert ti.dims == t.dims
    assert ti.data.tolist() == [1, 3, 2, 4]


def test_planar_2x1x2_example():
    ti = Tensor((2, 1, 2), Layout.CHANNEL_INTERLEAVED, np.array([1, 3, 2, 4], np.float32))
    assert to_planar(ti).data.tolist() == [1, 2, 3, 4]


def test_single_channel_only_flips_flag():
    data = np.arange(12, dtype=np.float32)
    t = Tensor((1, 3, 4), Layout.CHANNEL_PLANAR, data.copy())
    ti = to_interleaved(t)
    assert np.array_equal(ti.data, data)
    assert ti.layout == Layout.CHANNEL_INTERLEAVED
    assert np.array_equal(to_planar(ti).data, data)


def test_layout_mismatch_raises():
    t = Tensor((1, 2, 2), Layout.CHANNEL_PLANAR, np.zeros(4, np.float32))
    with pytest.raises(LayoutMismatchError):
        to_planar(t)
    with pytest.raises(LayoutMismatchError):
        to_interleaved(to_interleaved(t))


def test_data_length_invariant():
    with pytest.raises(ShapeMismatchError):
        Tensor((2, 2, 2), Layout.CHANNEL_PLANAR, np.zeros(7, np.float32))


@settings(max_examples=60)
@given(c=st.integers(1, 5), h=st.integers(1, 6), w=st.integers(1, 6),
       seed=st.integers(0, 2**31 - 1))
def test_roundtrip_identity(c, h, w, seed):
    rng = np.random.default_rng(seed)
    t = Tensor.from_array(rng.standard_normal((c, h, w)).astype(np.float32))
    back = to_planar(to_interleaved(t))
    assert np.array_equal(back.data, t.data)
    assert back.layout == t.layout


def test_rank4_rejected():
    with pytest.raises(ShapeMismatchError):
        Tensor.from_array(np.zeros((2, 3, 4, 5), np.float32))
    with pytest.raises(ShapeMismatchError):
        Tensor((2, 3, 4, 5), Layout.CHANNEL_PLANAR, np.zeros(120, np.float32))


def test_index_formula_matches_transform():
    # reading (c,y,x) through either layout's flat formula gives the same value
    rng = np.random.default_rng(7)
    c, h, w = 6, 9, 11
    t = Tensor.from_array(rng.standard_normal((c, h, w)).astype(np.float32))
    ti = to_interleaved(t)
    for _ in range(1000):
        ci = int(rng.integers(0, c))
        y = int(rng.integers(0, h))
        x = int(rng.integers(0, w))
        assert t.at(ci, y, x) == ti.at(ci, y, x)


def test_tensor_data_is_immutable():
    t = Tensor.from_array(np.zeros((1, 2, 2), np.float32))
    with pytest.raises(ValueError):
        t.data[0] = 1.0


# ---------------------------------------------------------------------------
# kernel packing
# ---------------------------------------------------------------------------

def test_pack_6x1x1x2_example():
    # 3 filters per group at 2 lanes: a full block, then a ragged one, per group
    w = np.arange(12, dtype=np.float32).reshape(6, 1, 1, 2)  # w[oc, 0, 0, kx] = 2*oc + kx
    pw = pack_kernels(w, groups=2, lane_width=2)
    assert pw.data.tolist() == [0, 2, 1, 3, 4, 5, 6, 8, 7, 9, 10, 11]


def test_pack_channelwise_is_permutation():
    rng = np.random.default_rng(1)
    w = rng.standard_normal((8, 1, 3, 3)).astype(np.float32)
    pw = pack_kernels(w, groups=8, lane_width=4)
    assert np.array_equal(np.sort(pw.data), np.sort(w.reshape(-1)))


def _loop_packed_order(w, groups, lane):
    """Reference: the packing order (group, lane block, ky, kx, ci, lane)
    spelled out as nested loops."""
    out_ch, ipg, kh, kw = w.shape
    opg = out_ch // groups
    return np.array([w[g * opg + start + o, ci, ky, kx]
                     for g in range(groups) for start in range(0, opg, lane)
                     for ky in range(kh) for kx in range(kw) for ci in range(ipg)
                     for o in range(min(lane, opg - start))], np.float32)


@settings(max_examples=40)
@given(groups=st.sampled_from([1, 2, 4]), mult=st.integers(1, 3),
       ipg=st.integers(1, 4), k=st.sampled_from([1, 3]),
       lane=st.integers(1, 5), seed=st.integers(0, 2**31 - 1))
def test_pack_unpack_roundtrip(groups, mult, ipg, k, lane, seed):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((groups * mult, ipg, k, k)).astype(np.float32)
    pw = pack_kernels(w, groups, lane)
    assert np.array_equal(pw.data, _loop_packed_order(w, groups, lane))
    assert np.array_equal(unpack_kernels(pw), w)
    # the tap operand is w as (ky, kx, group, ci, oc within group), in float64
    taps = w.reshape(groups, mult, ipg, k, k).transpose(3, 4, 0, 2, 1)
    assert pw.taps.dtype == np.float64 and np.array_equal(pw.taps, taps)
    # multiset of values preserved for every (groups, lane_width)
    assert np.array_equal(np.sort(pw.data), np.sort(w.reshape(-1)))


def test_packed_weights_reject_inconsistent_dims():
    with pytest.raises(ShapeMismatchError):
        PackedWeights(4, 2, 3, 3, 1, 4, np.zeros(71, np.float32))
    with pytest.raises(ConfigError):
        PackedWeights(6, 1, 1, 1, 4, 4, np.zeros(6, np.float32))


def test_pack_rejects_bad_groups():
    with pytest.raises(ConfigError):
        pack_kernels(np.zeros((6, 1, 3, 3), np.float32), groups=4, lane_width=4)
