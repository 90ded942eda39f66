"""Declarative construction of the hand-pose network graph, plus
configuration validation and parameter/FLOP accounting.

A pass covers the deployed inference subgraph or every node including the
training-only heads (:class:`Mode`); :meth:`GraphSpec.nodes_for` alone says
which nodes that is. :func:`param_entries` alone lists a node's stored
weight entries (names and shapes).

Encoder: three tiers (16/32/64 channels). Tier-1 is a single 3x3 stride-2
Conv-BN-ReLU. Tier-2 is two 131 bottleneck units (1x1 reduce, 3x3 grouped
stride on the first unit, 1x1 expand) whose outputs are concatenated —
the unit input itself is never concatenated. Tier-3 is an entry conv plus
two dilated-ladder units: four residual bottleneck blocks each, dilation
rates 1,2,3,4, grouped 3x3.

Decoder: a grouped 1x1 projection to the heatmap channel count, then two
(nearest-2x upsample + channel-wise 3x3) stages ending at half resolution.

Heads: primary heatmaps, keypoint/hand visibility (GAP + linear), and —
training only — auxiliary keypoint decoder (ungrouped), hand orientation,
discrete pose, segmentation over a small spatial path, and deep-supervision
heatmap heads at 1/8, 1/4, 1/2 resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .config import NetConfig
from .convops import ConvSpec, conv_out_shape
from .errors import ConfigError

__all__ = [
    "Mode", "Node", "GraphSpec", "build_graph", "param_entries",
    "validate_config", "count_layers", "node_param_count",
    "node_flop_count", "ValidationReport", "CountRow",
]


class Mode(Enum):
    """Which heads a pass covers: the deployed inference subgraph only, or
    every node including the training-only auxiliary heads."""
    INFERENCE_HEADS = "inference-heads"
    ALL_HEADS = "all-heads"


@dataclass(frozen=True)
class Node:
    """One executable graph node. `kind` is one of input, conv, upsample2x,
    add, concat, gap, linear. Conv nodes may fuse BN and a ReLU."""
    name: str
    kind: str
    inputs: tuple = ()
    conv: ConvSpec | None = None
    bn: bool = False
    act: str = "none"          # none | relu
    lin_in: int = 0
    lin_out: int = 0
    out_shape: tuple = ()      # (C,H,W) for maps, (C,) for vectors


@dataclass(frozen=True)
class GraphSpec:
    config: NetConfig
    nodes: tuple
    heads: dict
    inference_names: frozenset

    def node(self, name: str) -> Node:
        return self._node_map[name]

    def nodes_for(self, mode: Mode) -> tuple:
        """The nodes a pass in `mode` covers, in graph order."""
        if mode == Mode.ALL_HEADS:
            return self.nodes
        return tuple(n for n in self.nodes if n.name in self.inference_names)

    def __post_init__(self):
        object.__setattr__(self, "_node_map", {n.name: n for n in self.nodes})


class _Builder:
    def __init__(self):
        self.nodes = []
        self.shapes = {}

    def add(self, node: Node):
        if node.name in self.shapes:
            raise ConfigError(f"duplicate node name {node.name}")
        self.nodes.append(node)
        self.shapes[node.name] = node.out_shape
        return node.name

    def input(self, name, shape):
        return self.add(Node(name, "input", (), out_shape=shape))

    def conv(self, name, src, spec: ConvSpec, bn=True, act="relu"):
        c, h, w = self.shapes[src]
        if c != spec.in_ch:
            raise ConfigError(f"{name}: input {src} has {c} channels, spec wants {spec.in_ch}")
        oh, ow = conv_out_shape(spec, h, w)
        return self.add(Node(name, "conv", (src,), conv=spec, bn=bn, act=act,
                             out_shape=(spec.out_ch, oh, ow)))

    def upsample(self, name, src):
        c, h, w = self.shapes[src]
        return self.add(Node(name, "upsample2x", (src,), out_shape=(c, 2 * h, 2 * w)))

    def addition(self, name, a, b, act="none"):
        if self.shapes[a] != self.shapes[b]:
            raise ConfigError(f"{name}: mismatched addend shapes "
                              f"{self.shapes[a]} vs {self.shapes[b]}")
        return self.add(Node(name, "add", (a, b), act=act, out_shape=self.shapes[a]))

    def concat(self, name, srcs):
        hs = {self.shapes[s][1:] for s in srcs}
        if len(hs) != 1:
            raise ConfigError(f"{name}: spatial dims differ among {srcs}")
        c = sum(self.shapes[s][0] for s in srcs)
        return self.add(Node(name, "concat", tuple(srcs),
                             out_shape=(c,) + next(iter(hs))))

    def gap(self, name, src):
        c = self.shapes[src][0]
        return self.add(Node(name, "gap", (src,), out_shape=(c,)))

    def linear(self, name, src, out_dim):
        (c,) = self.shapes[src]
        return self.add(Node(name, "linear", (src,), lin_in=c, lin_out=out_dim,
                             out_shape=(out_dim,)))


def build_graph(cfg: NetConfig) -> GraphSpec:
    """Construct the full network graph for a configuration.

    Inference nodes are emitted before training-only nodes, so a seeded
    weight init produces identical weights for the shared layers whether or
    not training heads are built.
    """
    if cfg.decoder_channels != cfg.keypoints:
        raise ConfigError("channel-wise primary head requires decoder_channels == keypoints")
    b = _Builder()
    c1, c2, c3 = cfg.tier1_channels, cfg.tier2_channels, cfg.tier3_channels
    g2, g3 = cfg.tier2_groups, cfg.tier3_groups
    dc = cfg.decoder_channels
    K, A = cfg.keypoints, cfg.aux_keypoints

    b.input("input", (1, cfg.input_h, cfg.input_w))

    # --- Tier 1: single conv layer -------------------------------------
    b.conv("t1.conv", "input", ConvSpec(1, c1, (3, 3), stride=2))

    # --- Tier 2: two 131 units, outputs concatenated --------------------
    u_out = c2 // 2
    b2 = cfg.tier2_bottleneck

    def bottleneck131(prefix, src, in_ch, stride):
        b.conv(f"{prefix}.reduce", src, ConvSpec(in_ch, b2, (1, 1)))
        b.conv(f"{prefix}.conv", f"{prefix}.reduce",
               ConvSpec(b2, c2, (3, 3), stride=stride, groups=g2))
        b.conv(f"{prefix}.expand", f"{prefix}.conv", ConvSpec(c2, u_out, (1, 1)))

    bottleneck131("t2.u1", "t1.conv", c1, 2)
    bottleneck131("t2.u2", "t2.u1.expand", u_out, 1)
    b.concat("t2.cat", ("t2.u1.expand", "t2.u2.expand"))

    # --- Tier 3: entry conv + two dilated ladder units -------------------
    b.conv("t3.entry", "t2.cat", ConvSpec(c2, c3, (3, 3), stride=2, groups=g3))
    b3 = cfg.tier3_bottleneck
    src = "t3.entry"
    for u in (1, 2):
        for k, dil in enumerate(cfg.ladder_dilations, start=1):
            p = f"t3.u{u}.b{k}"
            b.conv(f"{p}.reduce", src, ConvSpec(c3, b3, (1, 1)))
            b.conv(f"{p}.conv", f"{p}.reduce",
                   ConvSpec(b3, b3, (3, 3), dilation=dil, groups=g3))
            b.conv(f"{p}.expand", f"{p}.conv",
                   ConvSpec(b3, c3, (1, 1), groups=g3), act="none")
            b.addition(f"{p}.add", f"{p}.expand", src, act="relu")
            src = f"{p}.add"
    t3_out = src

    # --- Decoder: grouped projection + two channel-wise stages -----------
    b.conv("dec.proj", t3_out, ConvSpec(c3, dc, (1, 1), groups=dc))
    b.upsample("dec.up1", "dec.proj")
    b.conv("dec.s1", "dec.up1", ConvSpec(dc, dc, (3, 3), groups=dc))
    b.upsample("dec.up2", "dec.s1")
    b.conv("dec.s2", "dec.up2", ConvSpec(dc, dc, (3, 3), groups=dc))

    # --- Inference heads -------------------------------------------------
    b.conv("head.kp", "dec.s2", ConvSpec(dc, K, (3, 3), groups=K, has_bias=True),
           bn=False, act="none")
    b.gap("head.gap", t3_out)
    b.linear("head.vis", "head.gap", K + cfg.hands)

    heads = {"primary": "head.kp", "visibility": "head.vis"}
    inference_names = frozenset(n.name for n in b.nodes)

    if cfg.training_heads:
        # deep-supervision heatmap heads at 1/8, 1/4, 1/2 resolution
        b.conv("ds8.head", "dec.proj", ConvSpec(dc, K, (1, 1), has_bias=True),
               bn=False, act="none")
        b.conv("ds4.head", "dec.s1", ConvSpec(dc, K, (1, 1), has_bias=True),
               bn=False, act="none")
        b.conv("ds2.head", "dec.s2", ConvSpec(dc, K, (1, 1), has_bias=True),
               bn=False, act="none")
        # ungrouped auxiliary keypoint decoder
        b.conv("aux.proj", t3_out, ConvSpec(c3, dc, (1, 1)))
        b.upsample("aux.up1", "aux.proj")
        b.conv("aux.s1", "aux.up1", ConvSpec(dc, dc, (3, 3)))
        b.upsample("aux.up2", "aux.s1")
        b.conv("aux.s2", "aux.up2", ConvSpec(dc, dc, (3, 3)))
        b.conv("aux.head", "aux.s2", ConvSpec(dc, A, (3, 3), has_bias=True),
               bn=False, act="none")
        # per-hand classification heads off the pooled encoder features
        b.linear("head.cho", "head.gap", cfg.hands * cfg.orientation_classes)
        b.linear("head.dhp", "head.gap", cfg.hands * cfg.pose_classes)
        # simplified spatial path + segmentation head
        b.conv("sp.c1", "input", ConvSpec(1, 8, (3, 3), stride=2))
        b.conv("sp.c2", "sp.c1", ConvSpec(8, 16, (3, 3), stride=2))
        b.conv("sp.c3", "sp.c2", ConvSpec(16, 32, (3, 3), stride=2))
        b.concat("seg.cat", ("sp.c3", "dec.proj"))
        b.conv("seg.fuse", "seg.cat", ConvSpec(32 + dc, dc, (1, 1)))
        b.upsample("seg.up1", "seg.fuse")
        b.upsample("seg.up2", "seg.up1")
        b.conv("seg.head", "seg.up2", ConvSpec(dc, cfg.seg_classes, (3, 3), has_bias=True),
               bn=False, act="none")
        heads.update({
            "aux": "aux.head",
            "orientation": "head.cho",
            "pose": "head.dhp",
            "segmentation": "seg.head",
            "ds": ("ds8.head", "ds4.head", "ds2.head"),
        })

    return GraphSpec(cfg, tuple(b.nodes), heads, inference_names)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@dataclass
class ValidationReport:
    warnings: list = field(default_factory=list)
    errors: list = field(default_factory=list)


def validate_config(g: GraphSpec) -> ValidationReport:
    """Report lane-alignment warnings and architecture-invariant violations.
    Never raises; the caller decides what is fatal.

    Alignment applies to the deployed (inference) convolutions: a conv whose
    filters-per-group count is not a lane multiple under-fills the vector
    registers.  Channel-wise convs (one filter per group) are exempt — they
    can never satisfy the rule and the decoder ships that way regardless.
    """
    lane = g.config.lane_width
    rep = ValidationReport()
    for node in g.nodes_for(Mode.INFERENCE_HEADS):
        if node.kind != "conv":
            continue
        spec = node.conv
        fpg = spec.out_ch // spec.groups
        if fpg == 1:
            continue
        if fpg % lane:
            rep.warnings.append(
                f"{node.name}: {fpg} filters/group is not a multiple of {lane} lanes")

    cfg = g.config
    for tier, expected in ((1, 16), (2, 32), (3, 64)):
        channels = getattr(cfg, f"tier{tier}_channels")
        if channels != expected:
            rep.errors.append(
                f"tier-{tier} emits {channels} channels, expected {expected}")
    if cfg.tier2_groups != 4:
        rep.errors.append(f"tier-2 grouping factor is {cfg.tier2_groups}, expected 4")
    if cfg.tier3_groups != 8:
        rep.errors.append(f"tier-3 grouping factor is {cfg.tier3_groups}, expected 8")
    if tuple(cfg.ladder_dilations) != (1, 2, 3, 4):
        rep.errors.append(
            f"ladder dilations {tuple(cfg.ladder_dilations)} != (1, 2, 3, 4)")
    return rep


# ---------------------------------------------------------------------------
# Accounting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CountRow:
    name: str
    params: int
    macs: int
    flops: int


def param_entries(node: Node):
    """Yield (entry_name, shape) for each stored weight entry of one node, in
    store order: conv weights, bias, then the four BN arrays (gamma, beta,
    mean, variance); linear weights and bias."""
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


def node_param_count(node: Node) -> int:
    """Stored parameters: conv weights (+bias) + 4 BN arrays, linear w+b."""
    return sum(math.prod(shape) for _, shape in param_entries(node))


def node_flop_count(node: Node, in_shape: tuple) -> tuple:
    """(macs, flops) of one node under the reference-backend accounting:
    conv 2*MACs (+bias add, +2/elem BN, +1/elem ReLU), residual add 1/elem,
    GAP one add per pooled element plus one divide per channel, linear
    2*in*out + bias. `in_shape` is the out_shape of the node's first input
    (() for an input node)."""
    if node.kind == "conv":
        s = node.conv
        c, h, w = node.out_shape
        elems = c * h * w
        macs = elems * s.in_per_group * s.kernel[0] * s.kernel[1]
        flops = 2 * macs
        if s.has_bias:
            flops += elems
        if node.bn:
            flops += 2 * elems
        if node.act == "relu":
            flops += elems
        return macs, flops
    if node.kind == "add":
        elems = math.prod(node.out_shape)
        return 0, elems + (elems if node.act == "relu" else 0)
    if node.kind == "gap":
        c, h, w = in_shape
        return 0, c * h * w + c
    if node.kind == "linear":
        m = node.lin_in * node.lin_out
        return m, 2 * m + node.lin_out
    return 0, 0


def count_layers(g: GraphSpec, mode: Mode) -> tuple:
    """Parameters, MACs and FLOPs (2*MACs + bias/BN/activation adds) of a pass
    in `mode`. Returns (rows, total): one row per layer that stores or
    computes anything, the layers with parameters first in graph order, then
    the rest (residual adds, pooling); `total` is the row named "total" that
    sums them. FLOPs match the instrumented reference-backend counter exactly."""
    rows = []
    for node in g.nodes_for(mode):
        in_shape = g.node(node.inputs[0]).out_shape if node.inputs else ()
        rows.append(CountRow(node.name, node_param_count(node),
                             *node_flop_count(node, in_shape)))
    rows = ([r for r in rows if r.params]
            + [r for r in rows if not r.params and (r.macs or r.flops)])
    total = CountRow("total", sum(r.params for r in rows),
                     sum(r.macs for r in rows), sum(r.flops for r in rows))
    return rows, total
