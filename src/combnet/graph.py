"""Declarative construction of the hand-pose network graph, plus
parameter/FLOP accounting.

A pass covers the deployed inference subgraph or every node including the
training-only heads (:class:`Mode`); :meth:`GraphSpec.nodes_for` alone says
which nodes that is. :func:`param_entries` alone lists a node's stored
weight entries (names and shapes).

Encoder: three tiers of 16, 32 and 64 channels.
Tier-1 is a single 3x3 stride-2 Conv-BN-ReLU. Tier-2 is two 131 bottleneck
units (1x1 reduce, 3x3 grouped stride on the first unit, 1x1 expand) whose
outputs are concatenated — the unit input itself is never concatenated.
Tier-3 is an entry conv plus two dilated-ladder units: four residual
bottleneck blocks each, dilation rates 1,2,3,4, grouped 3x3.

Decoder: a grouped 1x1 projection to the heatmap channel count, then two
(nearest-2x upsample + channel-wise 3x3) stages ending at half resolution.

Heads: primary heatmaps, keypoint/hand visibility (GAP + linear), and —
training only — auxiliary keypoint decoder (ungrouped), hand orientation
(8 classes per hand), discrete pose (9 per hand), segmentation (3 classes)
over a small spatial path, and deep-supervision heatmap heads at 1/8, 1/4,
1/2 resolution. The deployed network fixes the tier widths, the tier-2 and
tier-3 bottleneck widths and grouping factors, the ladder dilations, these
label spaces, the loss's fingertips and label softening and the batch-norm
epsilon, so they are the module constants below, not config keys. Every
deployed conv then has one filter per group or a multiple of four, so it
fills whole 4-lane vectors of 32-bit reals.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import TYPE_CHECKING, NamedTuple

from .convops import ConvSpec, conv_out_shape
from .errors import ConfigError

if TYPE_CHECKING:
    from .config import NetConfig

__all__ = [
    "Mode", "Node", "GraphSpec", "build_graph", "param_entries",
    "count_layers", "node_param_count", "node_flop_count", "CountRow",
]

TIER1_CHANNELS = 16
TIER2_CHANNELS = 32
TIER2_BOTTLENECK = 16   # width of the 1x1 reduce inside a tier-2 unit
TIER3_CHANNELS = 64
TIER3_BOTTLENECK = 32   # width of the 3x3 inside a ladder block
TIER2_GROUPS = 4
TIER3_GROUPS = 8
LADDER_DILATIONS = (1, 2, 3, 4)
KEYPOINTS = 16          # 8 per hand, in the order configs/reference.cfg lists
AUX_KEYPOINTS = 18
HANDS = 2
FINGERTIP_INDICES = (2, 4, 10, 12)  # thumb and index tips, doubled in the loss
ORIENTATION_EPS = 0.1   # label softening of the orientation loss
ORIENTATION_CLASSES = 8
POSE_CLASSES = 9
SEG_CLASSES = 3
BN_EPS = 1e-5
BN_ENTRIES = (".bn.g", ".bn.b", ".bn.m", ".bn.v")  # gamma, beta, mean, variance


class Mode(Enum):
    """Which heads a pass covers: the deployed inference subgraph only, or
    every node including the training-only auxiliary heads."""
    INFERENCE_HEADS = "inference-heads"
    ALL_HEADS = "all-heads"


class Node(NamedTuple):
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


class _GraphSpec(NamedTuple):
    config: NetConfig
    nodes: tuple
    heads: dict
    inference_names: frozenset


class GraphSpec(_GraphSpec):
    """The network's nodes in graph order, with a map by name."""

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._node_map = {n.name: n for n in self.nodes}
        return self

    _make = classmethod(lambda cls, values: cls(*values))  # _replace builds through it

    def node(self, name: str) -> Node:
        return self._node_map[name]

    def nodes_for(self, mode: Mode) -> tuple:
        """The nodes a pass in `mode` covers, in graph order."""
        if mode == Mode.ALL_HEADS:
            return self.nodes
        return tuple(n for n in self.nodes if n.name in self.inference_names)


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
    """Construct the full network graph for a configuration: the deployed
    inference subgraph first, then the training-only heads.

    The decoder is channel-wise with one channel per primary heatmap, so its
    width is the keypoint count. Only the resolution comes from `cfg`.
    """
    b = _Builder()
    c1, c2, c3 = TIER1_CHANNELS, TIER2_CHANNELS, TIER3_CHANNELS
    g2, g3 = TIER2_GROUPS, TIER3_GROUPS
    b2, b3 = TIER2_BOTTLENECK, TIER3_BOTTLENECK
    K, A = KEYPOINTS, AUX_KEYPOINTS
    dc = K

    b.input("input", (1, cfg.input_h, cfg.input_w))

    # --- Tier 1: single conv layer -------------------------------------
    b.conv("t1.conv", "input", ConvSpec(1, c1, (3, 3), stride=2))

    # --- Tier 2: two 131 units, outputs concatenated --------------------
    u_out = c2 // 2

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
    src = "t3.entry"
    for u in (1, 2):
        for k, dil in enumerate(LADDER_DILATIONS, start=1):
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
    b.linear("head.vis", "head.gap", K + HANDS)

    inference_names = frozenset(n.name for n in b.nodes)

    # --- Training-only heads ---------------------------------------------
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
    b.linear("head.cho", "head.gap", HANDS * ORIENTATION_CLASSES)
    b.linear("head.dhp", "head.gap", HANDS * POSE_CLASSES)
    # simplified spatial path + segmentation head
    b.conv("sp.c1", "input", ConvSpec(1, 8, (3, 3), stride=2))
    b.conv("sp.c2", "sp.c1", ConvSpec(8, 16, (3, 3), stride=2))
    b.conv("sp.c3", "sp.c2", ConvSpec(16, 32, (3, 3), stride=2))
    b.concat("seg.cat", ("sp.c3", "dec.proj"))
    b.conv("seg.fuse", "seg.cat", ConvSpec(32 + dc, dc, (1, 1)))
    b.upsample("seg.up1", "seg.fuse")
    b.upsample("seg.up2", "seg.up1")
    b.conv("seg.head", "seg.up2", ConvSpec(dc, SEG_CLASSES, (3, 3), has_bias=True),
           bn=False, act="none")
    heads = {"primary": "head.kp", "visibility": "head.vis", "aux": "aux.head",
             "orientation": "head.cho", "pose": "head.dhp", "segmentation": "seg.head",
             "ds": ("ds8.head", "ds4.head", "ds2.head")}
    return GraphSpec(cfg, tuple(b.nodes), heads, inference_names)


# ---------------------------------------------------------------------------
# Accounting
# ---------------------------------------------------------------------------

class CountRow(NamedTuple):
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
            for suffix in BN_ENTRIES:
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
