"""Weight storage, deterministic initialization, and the binary file format.

File layout (little-endian):

    magic "CNWB" | u32 version=1 | u32 layer_count
    per layer: u16 name_len | name (UTF-8) | u8 dtype (0 = float32)
               | u8 ndim | ndim x u32 dims | raw float32 data
    trailing u32 CRC32 over all preceding bytes

The in-memory store additionally carries the seed and config hash it was
initialized from; those are provenance metadata and are not part of the wire
format.
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np

from .convops import BnParams
from .errors import ShapeMismatchError, WeightFormatError
from .graph import GraphSpec, Node

MAGIC = b"CNWB"
VERSION = 1
DTYPE_F32 = 0


class WeightStore:
    """Ordered map of layer-entry name -> float32 array. Treat as immutable
    once a forward pass may be running; tests that craft weights mutate it
    before use."""

    def __init__(self, entries=None, seed=None, config_hash=None):
        self.entries: dict[str, np.ndarray] = {}
        if entries:
            for name, arr in entries.items():
                self.set(name, arr)
        self.seed = seed
        self.config_hash = config_hash

    def set(self, name: str, arr):
        self.entries[name] = np.ascontiguousarray(arr, dtype=np.float32)

    def get(self, name: str) -> np.ndarray:
        if name not in self.entries:
            raise ShapeMismatchError(f"missing weight entry {name!r}")
        return self.entries[name]

    def bn(self, prefix: str, eps: float) -> BnParams:
        return BnParams(self.get(prefix + ".bn.g"), self.get(prefix + ".bn.b"),
                        self.get(prefix + ".bn.m"), self.get(prefix + ".bn.v"), eps)

    def __contains__(self, name):
        return name in self.entries

    def __len__(self):
        return len(self.entries)


def _expected_entries(node: Node):
    """Yield (entry_name, shape) for one graph node."""
    if node.kind == "conv":
        s = node.conv
        yield node.name + ".w", s.weight_shape()
        if s.has_bias:
            yield node.name + ".b", (s.out_ch,)
        if node.bn:
            for suffix in (".bn.g", ".bn.b", ".bn.m", ".bn.v"):
                yield node.name + suffix, (s.out_ch,)
    elif node.kind == "linear":
        yield node.name + ".w", (node.lin_out, node.lin_in)
        yield node.name + ".b", (node.lin_out,)


def validate_weights(g: GraphSpec, ws: WeightStore) -> list:
    """Every graph layer must have exactly one entry of the right shape.
    Extra store entries (e.g. training heads under an inference graph) are
    tolerated. Returns a list of problems; empty means valid."""
    problems = []
    for node in g.nodes:
        for name, shape in _expected_entries(node):
            if name not in ws:
                problems.append(f"missing entry {name}")
            elif tuple(ws.entries[name].shape) != tuple(shape):
                problems.append(
                    f"entry {name} has shape {ws.entries[name].shape}, expected {shape}")
    return problems


def init_weights(g: GraphSpec, seed: int) -> WeightStore:
    """Deterministic initialization: conv/linear weights uniform in
    +-sqrt(6/(fan_in+fan_out)) (fans per group for grouped convs), biases
    zero, BN identity. Identical seed -> bit-identical store."""
    rng = np.random.default_rng(seed)
    ws = WeightStore(seed=seed, config_hash=g.config.config_hash())
    for node in g.nodes:
        if node.kind == "conv":
            s = node.conv
            kh, kw = s.kernel
            fan_in = s.in_per_group * kh * kw
            fan_out = s.out_per_group * kh * kw
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            ws.set(node.name + ".w",
                   rng.uniform(-limit, limit, s.weight_shape()).astype(np.float32))
            if s.has_bias:
                ws.set(node.name + ".b", np.zeros(s.out_ch, np.float32))
            if node.bn:
                ws.set(node.name + ".bn.g", np.ones(s.out_ch, np.float32))
                ws.set(node.name + ".bn.b", np.zeros(s.out_ch, np.float32))
                ws.set(node.name + ".bn.m", np.zeros(s.out_ch, np.float32))
                ws.set(node.name + ".bn.v", np.ones(s.out_ch, np.float32))
        elif node.kind == "linear":
            limit = np.sqrt(6.0 / (node.lin_in + node.lin_out))
            ws.set(node.name + ".w",
                   rng.uniform(-limit, limit, (node.lin_out, node.lin_in)).astype(np.float32))
            ws.set(node.name + ".b", np.zeros(node.lin_out, np.float32))
    return ws


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def serialize_weights(ws: WeightStore) -> bytes:
    out = bytearray()
    out += MAGIC
    out += struct.pack("<I", VERSION)
    out += struct.pack("<I", len(ws.entries))
    for name, arr in ws.entries.items():
        enc = name.encode("utf-8")
        if len(enc) > 0xFFFF:
            raise WeightFormatError("shape", f"entry name too long: {name!r}")
        out += struct.pack("<H", len(enc))
        out += enc
        out += struct.pack("<BB", DTYPE_F32, arr.ndim)
        out += struct.pack(f"<{arr.ndim}I", *arr.shape)
        out += arr.astype("<f4").tobytes()
    out += struct.pack("<I", zlib.crc32(bytes(out)))
    return bytes(out)


def save_weights(ws: WeightStore, path) -> int:
    """Write the store; returns the file size in bytes."""
    blob = serialize_weights(ws)
    with open(path, "wb") as fh:
        fh.write(blob)
    return len(blob)


def deserialize_weights(blob: bytes) -> WeightStore:
    if len(blob) < 16:
        raise WeightFormatError("truncated", f"file too short ({len(blob)} bytes)")
    if blob[:4] != MAGIC:
        raise WeightFormatError("magic", f"bad magic {blob[:4]!r}")
    stored_crc = struct.unpack("<I", blob[-4:])[0]
    if zlib.crc32(blob[:-4]) != stored_crc:
        raise WeightFormatError("checksum", "CRC32 mismatch")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != VERSION:
        raise WeightFormatError("version", f"unsupported version {version}")
    (count,) = struct.unpack_from("<I", blob, 8)
    pos = 12
    end = len(blob) - 4
    ws = WeightStore()
    for _ in range(count):
        try:
            (name_len,) = struct.unpack_from("<H", blob, pos)
            pos += 2
            name = blob[pos:pos + name_len].decode("utf-8")
            pos += name_len
            dtype, ndim = struct.unpack_from("<BB", blob, pos)
            pos += 2
            dims = struct.unpack_from(f"<{ndim}I", blob, pos)
            pos += 4 * ndim
        except (struct.error, UnicodeDecodeError) as exc:
            raise WeightFormatError("truncated", f"corrupt entry header: {exc}") from exc
        if dtype != DTYPE_F32:
            raise WeightFormatError("shape", f"entry {name!r}: unknown dtype {dtype}")
        nbytes = 4 * math.prod(dims)
        if pos + nbytes > end:
            raise WeightFormatError(
                "shape", f"entry {name!r}: data exceeds file ({dims})")
        try:
            arr = np.frombuffer(blob[pos:pos + nbytes], dtype="<f4").reshape(dims)
        except ValueError as exc:  # more dims than numpy supports
            raise WeightFormatError("shape", f"entry {name!r}: {exc}") from exc
        pos += nbytes
        ws.set(name, arr)
    if pos != end:
        raise WeightFormatError("shape", f"{end - pos} trailing bytes after last entry")
    return ws


def load_weights(path) -> WeightStore:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise WeightFormatError("truncated", f"cannot read {path}: {exc}") from exc
    return deserialize_weights(blob)
