import struct
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from combnet.config import NetConfig
from combnet.errors import WeightFormatError
from combnet.forward import Backend, Mode, forward
from combnet.graph import build_graph, count_layers
from combnet.tensor import Tensor
from combnet.weights import (WeightStore, deserialize_weights, init_weights,
                             load_weights, save_weights, serialize_weights,
                             validate_weights)


@pytest.fixture(scope="module")
def g():
    return build_graph(NetConfig(input_h=96, input_w=96))


def test_init_same_seed_bit_identical(g):
    a = serialize_weights(init_weights(g, 5))
    b = serialize_weights(init_weights(g, 5))
    assert a == b


def test_init_different_seed_differs(g):
    assert serialize_weights(init_weights(g, 5)) != serialize_weights(init_weights(g, 6))


def test_every_layer_present_with_expected_size(g):
    ws = init_weights(g, 1)
    assert validate_weights(g, ws) == []
    # total stored floats equals the parameter count over the full graph
    total = count_layers(g, Mode.ALL_HEADS)[1].params
    assert sum(arr.size for arr in ws.entries.values()) == total


def test_save_load_roundtrip_bit_exact(tmp_path, g):
    ws = init_weights(g, 9)
    path = tmp_path / "w.cnwb"
    save_weights(ws, path)
    back = load_weights(path)
    assert list(back.entries) == list(ws.entries)
    for name, arr in ws.entries.items():
        assert np.array_equal(back.entries[name], arr)
    # serialized bytes are stable through a load/save cycle
    assert serialize_weights(back) == serialize_weights(ws)


def test_random_store_roundtrip():
    rng = np.random.default_rng(3)
    ws = WeightStore({f"layer{i}.w": rng.standard_normal((i + 1, 3)).astype(np.float32)
                      for i in range(5)})
    assert serialize_weights(deserialize_weights(serialize_weights(ws))) == \
        serialize_weights(ws)


def test_corrupted_checksum_detected(g):
    blob = bytearray(serialize_weights(init_weights(g, 2)))
    blob[100] ^= 0xFF
    with pytest.raises(WeightFormatError) as exc:
        deserialize_weights(bytes(blob))
    assert exc.value.code == "checksum"


def test_distinct_error_codes(g):
    blob = serialize_weights(init_weights(g, 2))

    bad_magic = b"XXXX" + blob[4:]
    with pytest.raises(WeightFormatError) as exc:
        deserialize_weights(bad_magic)
    assert exc.value.code == "magic"

    bad_version = blob[:4] + struct.pack("<I", 9) + blob[8:-4]
    bad_version += struct.pack("<I", zlib.crc32(bad_version))
    with pytest.raises(WeightFormatError) as exc:
        deserialize_weights(bad_version)
    assert exc.value.code == "version"

    truncated = blob[:40]
    with pytest.raises(WeightFormatError):
        deserialize_weights(truncated)


def one_entry_file(name: bytes, dims, data: bytes) -> bytes:
    """A .cnwb blob holding one entry with the given header and data bytes,
    with a valid CRC."""
    body = b"CNWB" + struct.pack("<IIH", 1, 1, len(name)) + name
    body += struct.pack(f"<BB{len(dims)}I", 0, len(dims), *dims) + data
    return body + struct.pack("<I", zlib.crc32(body))


@settings(max_examples=300, deadline=None)
@given(name=st.binary(max_size=8),
       dims=st.integers(0, 255).flatmap(
           lambda n: st.lists(st.integers(0, 2**32 - 1), min_size=n, max_size=n)),
       data=st.binary(max_size=64))
@example(name=b"w", dims=[2**31, 2**31, 4], data=bytes(16))
def test_any_entry_header_loads_or_is_a_format_error(name, dims, data):
    # element counts must not wrap: (2^31, 2^31, 4) is 2^64 elements, not 0
    try:
        deserialize_weights(one_entry_file(name, dims, data))
    except WeightFormatError:
        pass


def test_reference_file_fits_embedded_budget(tmp_path):
    from combnet.config import REFERENCE_CONFIG
    g = build_graph(REFERENCE_CONFIG)
    size = save_weights(init_weights(g, 0), tmp_path / "ref.cnwb")
    assert size <= 300 * 1024


def test_zero_weights_give_zero_logits(g):
    ws = init_weights(g, 0)
    for name, arr in ws.entries.items():
        ws.set(name, np.zeros_like(arr))
    img = Tensor.from_array(np.zeros((1, 96, 96), np.float32))
    out = forward(g, ws, img, Backend.REFERENCE, Mode.ALL_HEADS)
    assert np.all(out.primary_heatmaps == 0)
    assert np.all(out.visibility_logits == 0)
    assert np.all(out.orientation_logits == 0)
    assert np.all(out.segmentation_logits == 0)


def test_extra_entries_tolerated_missing_rejected(g):
    ws = init_weights(g, 4)
    ws.set("unused.extra", np.zeros(3, np.float32))
    assert validate_weights(g, ws) == []
    del ws.entries["t1.conv.w"]
    problems = validate_weights(g, ws)
    assert any("t1.conv.w" in p for p in problems)
