"""Network configuration: a flat key/value text format plus the shipped
reference configuration.

Config files hold one `key = value` pair per line; `#` starts a comment.
Values parse as int, float, or a comma-separated list of those.
Unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, fields, replace

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
    # resolution / architecture
    input_h: int = 128
    input_w: int = 128
    keypoints: int = 16
    aux_keypoints: int = 18
    hands: int = 2
    # loss configuration
    fingertip_indices: tuple = (2, 4, 10, 12)  # thumb/index tips, both hands
    orientation_eps: float = 0.1
    # post-processing
    conf_threshold: float = 0.05
    kp_vis_threshold: float = 0.5
    hand_vis_threshold: float = 0.5
    depth_window: int = 5
    z_min_mm: float = 100.0
    z_max_mm: float = 1000.0
    amplitude_coeffs: tuple = (0.25, 0.25, 0.25, 0.25)

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
        if not all(_is_int(i) for i in self.fingertip_indices):
            raise ConfigError("fingertip_indices must be integers")
        if not 0 <= self.z_min_mm < self.z_max_mm:
            raise ConfigError("depth range needs 0 <= z_min_mm < z_max_mm")
        h, w = self.input_h, self.input_w
        if h % 8 or w % 8 or max(h, w) > MAX_INPUT_SIDE:
            raise ConfigError(f"input resolution {h}x{w} must be divisible by 8 "
                              f"and at most {MAX_INPUT_SIDE} per side")
        if self.keypoints % self.hands:
            raise ConfigError(f"hands={self.hands} must divide keypoints={self.keypoints}")
        if self.depth_window % 2 == 0 or self.depth_window < 1:
            raise ConfigError("depth_window must be odd and positive")
        if len(self.amplitude_coeffs) != 4:
            raise ConfigError("amplitude_coeffs must have 4 entries")
        if not 0.0 <= self.orientation_eps < 1.0:
            raise ConfigError("orientation_eps must be in [0, 1)")
        for name in ("conf_threshold", "kp_vis_threshold", "hand_vis_threshold"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ConfigError(f"{name} must lie in (0, 1)")
        if any(i < 0 or i >= self.keypoints for i in self.fingertip_indices):
            raise ConfigError("fingertip indices out of keypoint range")

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
        if "," in val:
            values[key] = tuple(_parse_scalar(t) for t in val.split(","))
        else:
            parsed = _parse_scalar(val)
            if _FIELD_TYPES[key] == "tuple":
                parsed = (parsed,)
            values[key] = parsed
    return replace(REFERENCE_CONFIG, **values)


def load_config(path) -> NetConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)
