"""16-bit binary PGM (P5) reading.

Samples are big-endian per the Netpbm convention ("most significant byte
first"); files with maxval up to 65535 are accepted and returned as uint16.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError


def read_pgm16(path) -> np.ndarray:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise InputError(f"cannot read {path}: {exc}") from exc
    return parse_pgm16(blob, str(path))


def _next_token(blob: bytes, pos: int):
    n = len(blob)
    while pos < n:
        c = blob[pos:pos + 1]
        if c == b"#":  # comment to end of line
            while pos < n and blob[pos:pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < n and not blob[pos:pos + 1].isspace():
        pos += 1
    return blob[start:pos], pos


def parse_pgm16(blob: bytes, name: str = "<bytes>") -> np.ndarray:
    if blob[:2] != b"P5":
        raise InputError(f"{name}: not a binary PGM (P5) file")
    pos = 2
    fields = []
    for _ in range(3):
        tok, pos = _next_token(blob, pos)
        # no pixel data can satisfy a 19-digit dimension, and int() refuses
        # thousands of digits
        if not tok.isdigit() or len(tok) > 18:
            raise InputError(f"{name}: malformed PGM header")
        fields.append(int(tok))
    width, height, maxval = fields
    if not 0 < maxval < 65536:
        raise InputError(f"{name}: maxval {maxval} out of range")
    pos += 1  # single whitespace after maxval
    bpp = 2 if maxval > 255 else 1
    need = width * height * bpp
    data = blob[pos:pos + need]
    if len(data) != need:
        raise InputError(f"{name}: truncated pixel data "
                         f"({len(data)} of {need} bytes)")
    dtype = ">u2" if bpp == 2 else "u1"
    img = np.frombuffer(data, dtype=dtype).reshape(height, width)
    return img.astype(np.uint16)
