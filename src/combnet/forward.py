"""Graph execution on either backend.

Reference backend: channel-planar tensors, direct reference convolution,
explicit inference-form batch norm on the convolution's unrounded float64
result (so conv-then-BN rounds to float32 once, as the folded conv does), and
ReLU and residual adds as separate passes. Optimized backend:
channel-interleaved tensors end to end, run from a :class:`Plan` that
:func:`prepare_optimized` builds and validates once: BN folded into the conv
weights, packed kernel stacks, the comb decomposition for every dilated
layer, and each residual add and ReLU fused into the store of the conv that
feeds it. The two backends agree within 1e-4 max-abs end to
end.

A pass runs the nodes its :class:`Mode` covers (``GraphSpec.nodes_for``) and
needs weight entries and plan entries for those nodes only. ``Mode`` is
defined in :mod:`combnet.graph` and re-exported here.
"""

from __future__ import annotations

from enum import Enum
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from . import keep_freed_memory
from .convops import (batchnorm_inference, comb_dilated_conv, conv2d_packed,
                      conv2d_ref, count_ops, fold_batchnorm, relu, upsample_nearest_2x)
from .errors import ConfigError, ShapeMismatchError
from .graph import HANDS, GraphSpec, Mode
from .tensor import Layout, Tensor, pack_kernels, to_interleaved
from .weights import WeightStore, validate_weights


class Backend(Enum):
    REFERENCE = "reference"
    OPTIMIZED = "optimized"


class HeadsOutput(NamedTuple):
    """Raw (pre-softmax/sigmoid) head outputs as channel-planar arrays.
    Training-only fields are None under INFERENCE_HEADS."""
    primary_heatmaps: np.ndarray            # (K, H/2, W/2)
    visibility_logits: np.ndarray           # (K + hands,)
    aux_heatmaps: np.ndarray | None = None  # (A, H/2, W/2)
    orientation_logits: np.ndarray | None = None  # (hands, classes)
    pose_logits: np.ndarray | None = None         # (hands, classes)
    segmentation_logits: np.ndarray | None = None  # (3, H/2, W/2)
    deep_supervision: tuple | None = None   # 3 maps at 1/8, 1/4, 1/2


class ConvStep(NamedTuple):
    """One optimized conv and its fused epilogue."""
    weights: np.ndarray       # packed taps, float64, read-only
    bias: np.ndarray | None   # folded, float32, read-only
    relu: bool                # applied last, after the residual add
    residual: str | None      # the other addend of the add folded into this conv
    out: str                  # the node the result stands for: the conv or that add


class Plan(NamedTuple):
    """Everything an optimized pass in one mode reads: per conv its
    :class:`ConvStep`, per linear node its read-only float32 (w, b). Built
    and validated once by :func:`prepare_optimized`; immutable, so threads
    may share it. An ALL_HEADS plan serves both modes."""
    convs: MappingProxyType
    linears: MappingProxyType


def _readonly(a):
    """A read-only float32 copy of a store array (None stays None)."""
    if a is None:
        return None
    a = np.array(a, dtype=np.float32)
    a.flags.writeable = False
    return a


def _check_store(g: GraphSpec, ws: WeightStore, mode: Mode):
    problems = validate_weights(g, ws, mode)
    if problems:
        raise ShapeMismatchError("weight store invalid: " + "; ".join(problems[:5]))


def prepare_optimized(g: GraphSpec, ws: WeightStore, mode: Mode = Mode.ALL_HEADS) -> Plan:
    """Validate the weight store for `mode`, then fold BN into and pack the
    kernel stack of every conv a forward pass in `mode` runs. Each residual
    add, with its ReLU, folds into the conv named as its first input, which
    (as :func:`graph.build_graph` builds it) has no activation and no other
    reader. A missing or wrong-shaped entry is a ShapeMismatchError."""
    _check_store(g, ws, mode)
    nodes = g.nodes_for(mode)
    adds = {n.inputs[0]: n for n in nodes if n.kind == "add"}
    bns = ws.bn_scale_shifts(n for n in nodes if n.kind == "conv")
    convs, linears = {}, {}
    for node in nodes:
        if node.kind == "conv":
            w = ws.get(node.name + ".w")
            bias = ws.get(node.name + ".b") if node.conv.has_bias else None
            if node.bn:
                w, bias = fold_batchnorm(w, bias, bns[node.name])
                bias.flags.writeable = False    # a fresh array: no copy needed
            else:
                bias = _readonly(bias)
            end = adds.get(node.name, node)
            convs[node.name] = ConvStep(
                pack_kernels(w, node.conv.groups), bias,
                end.act == "relu", end.inputs[1] if end is not node else None, end.name)
        elif node.kind == "linear":
            w, b, _ = ws.node_params(node)
            linears[node.name] = (_readonly(w), _readonly(b))
    return Plan(MappingProxyType(convs), MappingProxyType(linears))


def _concat(tensors, layout: Layout) -> Tensor:
    return Tensor(layout, np.concatenate([t.array for t in tensors],
                                         axis=layout.chw_axes[0]))


def _gap(t: Tensor) -> np.ndarray:
    pooled = t.array.astype(np.float64).mean(axis=t.layout.chw_axes[1:])
    count_ops(t.channels, t.channels * t.height * t.width)
    return pooled.astype(np.float32)


def _linear(vec: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    count_ops(w.size, w.size + b.size)
    return (w.astype(np.float64) @ vec.astype(np.float64)
            + b.astype(np.float64)).astype(np.float32)


def forward(g: GraphSpec, ws: WeightStore, image: Tensor,
            backend: Backend = Backend.REFERENCE,
            mode: Mode = Mode.INFERENCE_HEADS,
            prepared: Plan | None = None) -> HeadsOutput:
    """Run the network. `image` is a (1, H, W) channel-planar tensor matching
    the configured resolution. The optimized backend runs from `prepared`, a
    plan for a mode that covers `mode`, and then reads nothing from `ws`;
    without a plan it builds one."""
    keep_freed_memory()  # once per process: later passes reuse freed temporaries
    cfg = g.config
    if image.dims != (1, cfg.input_h, cfg.input_w):
        raise ShapeMismatchError(
            f"image dims {image.dims} != (1, {cfg.input_h}, {cfg.input_w})")
    if image.layout != Layout.CHANNEL_PLANAR:
        raise ShapeMismatchError("forward expects a channel-planar image")

    optimized = backend == Backend.OPTIMIZED
    nodes = g.nodes_for(mode)
    if optimized:
        plan = prepare_optimized(g, ws, mode) if prepared is None else prepared
        missing = [n for n in nodes if n.kind in ("conv", "linear")
                   and n.name not in plan.convs and n.name not in plan.linears]
        if missing:
            raise ConfigError(f"prepared plan lacks {missing[0].kind} {missing[0].name!r} "
                              f"that a {mode.value} forward runs")
    else:
        _check_store(g, ws, mode)
    layout = Layout.CHANNEL_INTERLEAVED if optimized else Layout.CHANNEL_PLANAR

    values = {}
    for node in nodes:
        if node.kind == "input":
            values[node.name] = to_interleaved(image) if optimized else image
        elif node.kind == "conv" and optimized:
            step = plan.convs[node.name]
            conv = comb_dilated_conv if node.conv.dilation > 1 else conv2d_packed
            values[step.out] = conv(
                values[node.inputs[0]], step.weights, step.bias, node.conv,
                relu=step.relu, residual=values[step.residual] if step.residual else None)
        elif node.kind == "conv":
            w, bias, bn = ws.node_params(node)
            t = conv2d_ref(values[node.inputs[0]], w, bias, node.conv, rounded=bn is None)
            if bn is not None:
                t = batchnorm_inference(t, bn)  # conv-then-BN rounds once
            values[node.name] = relu(t) if node.act == "relu" else t
        elif node.kind == "add":
            if optimized:
                continue    # computed by the conv that feeds it
            a, bb = (values[i] for i in node.inputs)
            t = Tensor(a.layout, a.array + bb.array)
            count_ops(adds=a.array.size)
            values[node.name] = relu(t) if node.act == "relu" else t
        elif node.kind == "upsample2x":
            values[node.name] = upsample_nearest_2x(values[node.inputs[0]])
        elif node.kind == "concat":
            values[node.name] = _concat([values[i] for i in node.inputs], layout)
        elif node.kind == "gap":
            values[node.name] = _gap(values[node.inputs[0]])
        elif node.kind == "linear":
            w, b = plan.linears[node.name] if optimized else ws.node_params(node)[:2]
            values[node.name] = _linear(values[node.inputs[0]], w, b)
        else:
            raise ShapeMismatchError(f"unknown node kind {node.kind}")

    def planar(name):
        t = values[name]
        return t.to_array() if isinstance(t, Tensor) else t

    out = {
        "primary_heatmaps": planar(g.heads["primary"]),
        "visibility_logits": planar(g.heads["visibility"]),
    }
    if mode == Mode.ALL_HEADS:
        out["aux_heatmaps"] = planar(g.heads["aux"])
        out["orientation_logits"] = planar(g.heads["orientation"]).reshape(HANDS, -1)
        out["pose_logits"] = planar(g.heads["pose"]).reshape(HANDS, -1)
        out["segmentation_logits"] = planar(g.heads["segmentation"])
        out["deep_supervision"] = tuple(planar(n) for n in g.heads["ds"])
    return HeadsOutput(**out)
