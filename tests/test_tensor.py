import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from combnet.errors import ConfigError, LayoutMismatchError, ShapeMismatchError
from combnet.tensor import Layout, PackedWeights, Tensor, pack_kernels, to_interleaved


def test_interleave_2x1x2_example():
    t = Tensor((2, 1, 2), Layout.CHANNEL_PLANAR, np.array([1, 2, 3, 4], np.float32))
    ti = to_interleaved(t)
    assert ti.layout == Layout.CHANNEL_INTERLEAVED
    assert ti.dims == t.dims
    assert ti.data.tolist() == [1, 3, 2, 4]


def test_planar_2x1x2_example():
    ti = Tensor((2, 1, 2), Layout.CHANNEL_INTERLEAVED, np.array([1, 3, 2, 4], np.float32))
    assert ti.to_array().reshape(-1).tolist() == [1, 2, 3, 4]


def test_single_channel_only_flips_flag():
    data = np.arange(12, dtype=np.float32)
    t = Tensor((1, 3, 4), Layout.CHANNEL_PLANAR, data.copy())
    ti = to_interleaved(t)
    assert np.array_equal(ti.data, data)
    assert ti.layout == Layout.CHANNEL_INTERLEAVED
    assert np.array_equal(ti.to_array().reshape(-1), data)


def test_layout_mismatch_raises():
    t = Tensor((1, 2, 2), Layout.CHANNEL_PLANAR, np.zeros(4, np.float32))
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
    assert Tensor.from_array(to_interleaved(t).to_array()) == t


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


def test_tensor_compares_by_value():
    arr = np.arange(12, dtype=np.float32).reshape(1, 3, 4)
    a, b = Tensor.from_array(arr), Tensor.from_array(arr.copy())
    assert a == b and not a != b
    assert a != Tensor.from_array(arr + 1)
    # one channel: same dims and data, different layout
    ai = to_interleaved(a)
    assert np.array_equal(ai.data, a.data) and a != ai
    with pytest.raises(TypeError):
        hash(a)


# ---------------------------------------------------------------------------
# kernel packing
# ---------------------------------------------------------------------------

@settings(max_examples=40)
@given(groups=st.sampled_from([1, 2, 4]), mult=st.integers(1, 3),
       ipg=st.integers(1, 4), k=st.sampled_from([1, 3]),
       seed=st.integers(0, 2**31 - 1))
def test_pack_unpack_roundtrip(groups, mult, ipg, k, seed):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((groups * mult, ipg, k, k)).astype(np.float32)
    pw = pack_kernels(w, groups)
    # the tap operand is w as (ky, kx, group, ci, oc within group), in float64
    taps = w.reshape(groups, mult, ipg, k, k).transpose(3, 4, 0, 2, 1)
    assert pw.taps.dtype == np.float64 and np.array_equal(pw.taps, taps)
    assert pw.taps.flags.c_contiguous and not pw.taps.flags.writeable


def test_packed_weights_compare_by_value():
    w = np.random.default_rng(2).standard_normal((8, 1, 3, 3)).astype(np.float32)
    pw = pack_kernels(w, 8)
    assert pw == pack_kernels(w.copy(), 8)
    assert pw != pack_kernels(w + 1, 8)
    # the same values in the same order under another grouping is another stack
    other = pack_kernels(w, 1)
    assert np.array_equal(other.taps.reshape(-1), pw.taps.reshape(-1)) and pw != other
    with pytest.raises(TypeError):
        hash(pw)


def test_packed_weights_reject_inconsistent_dims():
    pw = pack_kernels(np.zeros((12, 2, 3, 3), np.float32), 2)
    with pytest.raises(ShapeMismatchError):
        PackedWeights(pw.taps[0])


def test_pack_rejects_bad_groups():
    with pytest.raises(ConfigError):
        pack_kernels(np.zeros((6, 1, 3, 3), np.float32), groups=4)
