"""Graph execution on either backend.

Reference backend: channel-planar tensors, direct reference convolution,
explicit inference-form batch norm. Optimized backend: channel-interleaved
tensors end to end, BN folded into the conv weights, packed kernel stacks,
and the comb decomposition for every dilated layer. The two backends agree
within 1e-4 max-abs end to end.

A pass runs the nodes its :class:`Mode` covers (``GraphSpec.nodes_for``) and
needs weight entries and plan entries for those nodes only. ``Mode`` is
defined in :mod:`combnet.graph` and re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .convops import (add_adds, add_mults, batchnorm_inference, comb_dilated_conv,
                      conv2d_packed, conv2d_ref, fold_batchnorm, relu,
                      upsample_nearest_2x)
from .errors import ConfigError, ShapeMismatchError
from .graph import GraphSpec, Mode
from .tensor import Layout, Tensor, pack_kernels, to_interleaved
from .weights import WeightStore, validate_weights


class Backend(Enum):
    REFERENCE = "reference"
    OPTIMIZED = "optimized"


@dataclass(frozen=True)
class HeadsOutput:
    """Raw (pre-softmax/sigmoid) head outputs as channel-planar arrays.
    Training-only fields are None under INFERENCE_HEADS."""
    primary_heatmaps: np.ndarray            # (K, H/2, W/2)
    visibility_logits: np.ndarray           # (K + hands,)
    aux_heatmaps: np.ndarray | None = None  # (A, H/2, W/2)
    orientation_logits: np.ndarray | None = None  # (hands, classes)
    pose_logits: np.ndarray | None = None         # (hands, classes)
    segmentation_logits: np.ndarray | None = None  # (3, H/2, W/2)
    deep_supervision: tuple | None = None   # 3 maps at 1/8, 1/4, 1/2


def prepare_optimized(g: GraphSpec, ws: WeightStore, mode: Mode = Mode.ALL_HEADS):
    """Fold BN and pack the kernel stack of every conv a forward pass in `mode`
    runs, at the config's lane width, for the optimized backend.
    Returns {conv_name: (PackedWeights, folded_bias)} — reusable across calls
    in that mode (an ALL_HEADS plan serves both modes)."""
    prep = {}
    for node in g.nodes_for(mode):
        if node.kind != "conv":
            continue
        w, bias, bn = ws.node_params(node, g.config.bn_eps)
        if bn is not None:
            w, bias = fold_batchnorm(w, bias, bn)
        prep[node.name] = (pack_kernels(w, node.conv.groups, g.config.lane_width), bias)
    return prep


def _concat(tensors, layout: Layout) -> Tensor:
    data = np.concatenate([t.view() for t in tensors], axis=layout.chw_axes[0])
    return Tensor.from_view(data, layout)


def _gap(t: Tensor) -> np.ndarray:
    pooled = t.view().astype(np.float64).mean(axis=t.layout.chw_axes[1:])
    add_adds(t.channels * t.height * t.width)
    add_mults(t.channels)
    return pooled.astype(np.float32)


def _linear(vec: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    add_mults(w.size)
    add_adds(w.size + b.size)
    return (w.astype(np.float64) @ vec.astype(np.float64)
            + b.astype(np.float64)).astype(np.float32)


def forward(g: GraphSpec, ws: WeightStore, image: Tensor,
            backend: Backend = Backend.REFERENCE,
            mode: Mode = Mode.INFERENCE_HEADS,
            prepared=None) -> HeadsOutput:
    """Run the network. `image` is a (1, H, W) channel-planar tensor matching
    the configured resolution."""
    cfg = g.config
    if image.dims != (1, cfg.input_h, cfg.input_w):
        raise ShapeMismatchError(
            f"image dims {image.dims} != (1, {cfg.input_h}, {cfg.input_w})")
    if image.layout != Layout.CHANNEL_PLANAR:
        raise ShapeMismatchError("forward expects a channel-planar image")
    problems = validate_weights(g, ws, mode)
    if problems:
        raise ShapeMismatchError("weight store invalid: " + "; ".join(problems[:5]))

    optimized = backend == Backend.OPTIMIZED
    nodes = g.nodes_for(mode)
    if optimized:
        if prepared is None:
            prepared = prepare_optimized(g, ws, mode)
        missing = [n.name for n in nodes if n.kind == "conv" and n.name not in prepared]
        if missing:
            raise ConfigError(f"prepared plan lacks conv {missing[0]!r} that a "
                              f"{mode.value} forward runs")
    layout = Layout.CHANNEL_INTERLEAVED if optimized else Layout.CHANNEL_PLANAR

    values = {}
    for node in nodes:
        if node.kind == "input":
            values[node.name] = to_interleaved(image) if optimized else image
        elif node.kind == "conv":
            x = values[node.inputs[0]]
            s = node.conv
            if optimized:
                pw, bias = prepared[node.name]
                if s.dilation > 1:
                    t = comb_dilated_conv(x, pw, bias, s)
                else:
                    t = conv2d_packed(x, pw, bias, s)
            else:
                w, bias, bn = ws.node_params(node, cfg.bn_eps)
                t = conv2d_ref(x, w, bias, s)
                if bn is not None:
                    t = batchnorm_inference(t, bn)
            if node.act == "relu":
                t = relu(t)
            values[node.name] = t
        elif node.kind == "upsample2x":
            values[node.name] = upsample_nearest_2x(values[node.inputs[0]])
        elif node.kind == "add":
            a, bb = (values[i] for i in node.inputs)
            t = Tensor(a.dims, a.layout, a.data + bb.data)
            add_adds(a.data.size)
            if node.act == "relu":
                t = relu(t)
            values[node.name] = t
        elif node.kind == "concat":
            values[node.name] = _concat([values[i] for i in node.inputs], layout)
        elif node.kind == "gap":
            values[node.name] = _gap(values[node.inputs[0]])
        elif node.kind == "linear":
            w, b, _ = ws.node_params(node, cfg.bn_eps)
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
    if mode == Mode.ALL_HEADS and "aux" in g.heads:
        hands = cfg.hands
        out["aux_heatmaps"] = planar(g.heads["aux"])
        out["orientation_logits"] = planar(g.heads["orientation"]).reshape(
            hands, cfg.orientation_classes)
        out["pose_logits"] = planar(g.heads["pose"]).reshape(hands, cfg.pose_classes)
        out["segmentation_logits"] = planar(g.heads["segmentation"])
        out["deep_supervision"] = tuple(planar(n) for n in g.heads["ds"])
    return HeadsOutput(**out)
