"""Network configuration: a flat key/value text format plus the shipped
reference configuration.

Config files hold one `key = value` pair per line; `#` starts a comment.
Values parse as int, float, bool, or a comma-separated list of those.
Unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, fields, replace

from .errors import ConfigError


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


@dataclass(frozen=True)
class NetConfig:
    # resolution / architecture
    input_h: int = 128
    input_w: int = 128
    tier1_channels: int = 16
    tier2_channels: int = 32
    tier3_channels: int = 64
    tier2_groups: int = 4
    tier3_groups: int = 8
    tier2_bottleneck: int = 16   # width of the 1x1 reduce inside a Tier-2 unit
    tier3_bottleneck: int = 32   # width of the 3x3 inside a ladder block
    ladder_dilations: tuple = (1, 2, 3, 4)
    decoder_channels: int = 16   # primary heatmap count; decoder is channel-wise
    keypoints: int = 16
    aux_keypoints: int = 18
    orientation_classes: int = 8
    pose_classes: int = 9
    seg_classes: int = 3
    hands: int = 2
    training_heads: bool = True
    bn_eps: float = 1e-5
    # embedded-backend tuning
    lane_width: int = 4  # 128-bit vectors of 32-bit reals
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
            if f.type == "bool" and not isinstance(v, bool):
                raise ConfigError(f"{f.name} must be true or false, got {v!r}")
            if f.type == "tuple" and not (isinstance(v, tuple) and v
                                          and all(_is_real(e) for e in v)):
                raise ConfigError(f"{f.name} must be a list of numbers, got {v!r}")
        if not all(_is_int(d) and d >= 1 for d in self.ladder_dilations):
            raise ConfigError("ladder_dilations must be integers >= 1")
        if not all(_is_int(i) for i in self.fingertip_indices):
            raise ConfigError("fingertip_indices must be integers")
        if self.bn_eps <= 0:
            raise ConfigError("bn_eps must be positive")
        if not 0 <= self.z_min_mm < self.z_max_mm:
            raise ConfigError("depth range needs 0 <= z_min_mm < z_max_mm")
        if self.input_h % 8 or self.input_w % 8:
            raise ConfigError(
                f"input resolution {self.input_h}x{self.input_w} must be divisible by 8")
        if self.tier2_channels % self.tier2_groups:
            raise ConfigError("tier2 groups must divide tier2 channels")
        if self.tier3_channels % self.tier3_groups:
            raise ConfigError("tier3 groups must divide tier3 channels")
        if self.tier3_bottleneck % self.tier3_groups:
            raise ConfigError("tier3 groups must divide the ladder bottleneck width")
        if self.tier2_channels % 2:
            raise ConfigError("tier2 channels must be even (two concatenated units)")
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
    low = tok.lower()
    if low in ("true", "false"):
        return low == "true"
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
            if _FIELD_TYPES[key] in ("tuple", tuple):
                parsed = (parsed,)
            values[key] = parsed
    return replace(REFERENCE_CONFIG, **values)


def load_config(path) -> NetConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)
