"""Network configuration: what a deployment sets (the input resolution and
the depth sensor's calibration) in a flat key/value text format, plus the
shipped reference configuration.

Config files hold one `key = value` pair per line; `#` starts a comment.
Values parse as int, float, or a comma-separated list of those.
Unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, fields, replace

from . import graph, postprocess
from .errors import ConfigError


MAX_INPUT_SIDE = 1024  # input_h, input_w: a 1024x1024 infer peaks at about 330 MB


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    try:
        return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:  # an int beyond float range
        return False


@dataclass(frozen=True)
class NetConfig:
    input_h: int = 128
    input_w: int = 128
    z_min_mm: float = postprocess.DEFAULT_Z_RANGE[0]
    z_max_mm: float = postprocess.DEFAULT_Z_RANGE[1]
    amplitude_coeffs: tuple = postprocess.DEFAULT_AMPLITUDE_COEFFS
    # fixed by the network: read-only class attributes, not fields or keys
    keypoints = graph.KEYPOINTS
    aux_keypoints = graph.AUX_KEYPOINTS
    hands = graph.HANDS
    fingertip_indices = graph.FINGERTIP_INDICES
    orientation_eps = graph.ORIENTATION_EPS
    conf_threshold = postprocess.CONF_THRESHOLD
    kp_vis_threshold = postprocess.KP_VIS_THRESHOLD
    hand_vis_threshold = postprocess.HAND_VIS_THRESHOLD
    depth_window = postprocess.DEPTH_WINDOW

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if f.type == "int" and not (_is_int(v) and v >= 1):
                raise ConfigError(f"{f.name} must be an integer >= 1, got {v!r}")
            if f.type == "float" and not _is_real(v):
                raise ConfigError(f"{f.name} must be a finite number, got {v!r}")
            if f.type == "tuple" and not (isinstance(v, tuple) and v
                                          and all(_is_real(e) for e in v)):
                raise ConfigError(f"{f.name} must be a list of numbers, got {v!r}")
            # stored as floats, so equal configs print and hash alike (100 == 100.0)
            if f.type == "float":
                object.__setattr__(self, f.name, float(v))
        object.__setattr__(self, "amplitude_coeffs",
                           tuple(float(e) for e in self.amplitude_coeffs))
        if not 0 <= self.z_min_mm < self.z_max_mm:
            raise ConfigError("depth range needs 0 <= z_min_mm < z_max_mm")
        h, w = self.input_h, self.input_w
        if h % 8 or w % 8 or max(h, w) > MAX_INPUT_SIDE:
            raise ConfigError(f"input resolution {h}x{w} must be divisible by 8 "
                              f"and at most {MAX_INPUT_SIDE} per side")
        if len(self.amplitude_coeffs) != 4:
            raise ConfigError("amplitude_coeffs must have 4 entries")

    def canonical_text(self) -> str:
        lines = []
        for f in sorted(fields(self), key=lambda f: f.name):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                v = ", ".join(str(e) for e in v)
            lines.append(f"{f.name} = {v}")
        return "\n".join(lines) + "\n"

    def config_hash(self) -> int:
        return zlib.crc32(self.canonical_text().encode("utf-8"))


REFERENCE_CONFIG = NetConfig()

_FIELD_TYPES = {f.name: f.type for f in fields(NetConfig)}


def _parse_scalar(tok: str):
    tok = tok.strip()
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        return float(tok)
    except ValueError as exc:
        raise ConfigError(f"cannot parse value {tok!r}") from exc


def parse_config(text: str) -> NetConfig:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        parsed = tuple(_parse_scalar(t) for t in val.split(","))
        values[key] = parsed if "," in val or _FIELD_TYPES[key] == "tuple" else parsed[0]
    return replace(REFERENCE_CONFIG, **values)


def load_config(path) -> NetConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)
