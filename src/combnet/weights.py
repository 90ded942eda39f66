"""Weight storage, deterministic initialization, and the binary file format.

File layout (little-endian):

    magic "CNWB" | u32 version=1 | u32 layer_count
    per layer: u16 name_len | name (UTF-8) | u8 dtype (0 = float32)
               | u8 ndim | ndim x u32 dims | raw float32 data
    trailing u32 CRC32 over all preceding bytes

Entry names and shapes come from :func:`graph.param_entries`. A store needs
only the entries of the nodes a pass runs, so a file holding just the
inference subgraph's entries serves inference-heads passes.
"""

from __future__ import annotations

import math
import struct
import zlib

import numpy as np

from .errors import ShapeMismatchError, WeightFormatError
from .graph import BN_ENTRIES, BN_EPS, GraphSpec, Mode, Node, param_entries

MAGIC = b"CNWB"
VERSION = 1
DTYPE_F32 = 0


class WeightStore:
    """Ordered map of layer-entry name -> float32 array. Treat as immutable
    once a forward pass may be running; tests that craft weights mutate it
    before use."""

    def __init__(self, entries=None):
        self.entries: dict[str, np.ndarray] = {}
        if entries:
            for name, arr in entries.items():
                self.set(name, arr)

    def set(self, name: str, arr):
        self.entries[name] = np.ascontiguousarray(arr, dtype=np.float32)

    def get(self, name: str) -> np.ndarray:
        if name not in self.entries:
            raise ShapeMismatchError(f"missing weight entry {name!r}")
        return self.entries[name]

    def node_params(self, node: Node) -> tuple:
        """(weights, bias or None, BN (s, t) or None) of a conv or linear node."""
        got = {name[len(node.name):]: self.get(name) for name, _ in param_entries(node)}
        bn = bn_scale_shift(*(got[k] for k in BN_ENTRIES)) if node.bn else None
        return got[".w"], got.get(".b"), bn

    def bn_scale_shifts(self, nodes) -> dict:
        """{name: BN (s, t)} of the BN nodes among `nodes`, from one
        :func:`bn_scale_shift` call over their BN arrays joined. The math is
        elementwise, so each pair equals the node's own call."""
        nodes = [n for n in nodes if n.bn]
        if not nodes:
            return {}
        s, t = bn_scale_shift(*(np.concatenate([self.get(n.name + k) for n in nodes])
                                for k in BN_ENTRIES))
        cuts = np.cumsum([n.conv.out_ch for n in nodes[:-1]])
        return {n.name: st for n, st in zip(nodes, zip(np.split(s, cuts), np.split(t, cuts)))}

    def __contains__(self, name):
        return name in self.entries


def bn_scale_shift(gamma, beta, mean, var) -> tuple:
    """The float32 per-channel (s, t) with bn(x) = x*s + t of inference-time
    batch norm: s = gamma/sqrt(var + BN_EPS), t = beta - mean*s. The variance
    is not checked here; :func:`validate_weights` checks a store's."""
    gamma, beta, mean, var = (np.asarray(a, dtype=np.float32)
                              for a in (gamma, beta, mean, var))
    s = gamma / np.sqrt(var + np.float32(BN_EPS))
    return s, beta - mean * s


def validate_weights(g: GraphSpec, ws: WeightStore, mode: Mode = Mode.ALL_HEADS) -> list:
    """Every layer a pass in `mode` runs must have exactly one entry of the
    right shape, and a BN running variance must hold no negative or NaN
    value. Extra store entries (e.g. training heads under an inference pass)
    are tolerated. Returns a list of problems; empty means valid."""
    problems = []
    for node in g.nodes_for(mode):
        for name, shape in param_entries(node):
            if name not in ws:
                problems.append(f"missing entry {name}")
            elif tuple(ws.entries[name].shape) != tuple(shape):
                problems.append(
                    f"entry {name} has shape {ws.entries[name].shape}, expected {shape}")
            elif name.endswith(".bn.v") and not ws.entries[name].min() >= 0:  # or NaN
                problems.append(f"entry {name} holds a negative or NaN variance")
    return problems


def init_weights(g: GraphSpec, seed: int) -> WeightStore:
    """Deterministic initialization: conv/linear weights uniform in
    +-sqrt(6/(fan_in+fan_out)) (fans per group for grouped convs), biases
    zero, BN identity. Identical seed -> bit-identical store."""
    rng = np.random.default_rng(seed)
    ws = WeightStore()
    for node in g.nodes:
        for name, shape in param_entries(node):
            if name.endswith(".w"):
                limit = np.sqrt(6.0 / _fan_sum(node))
                ws.set(name, rng.uniform(-limit, limit, shape).astype(np.float32))
            else:
                ws.set(name, np.full(shape, 1.0 if name.endswith((".bn.g", ".bn.v"))
                                     else 0.0, np.float32))
    return ws


def _fan_sum(node: Node) -> int:
    """fan_in + fan_out of a conv (per group) or linear node."""
    if node.kind == "linear":
        return node.lin_in + node.lin_out
    s = node.conv
    return (s.in_per_group + s.out_per_group) * s.kernel[0] * s.kernel[1]


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
        if name in ws:  # the header's layer count would disagree with the store
            raise WeightFormatError("shape", f"duplicate entry name {name!r}")
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
