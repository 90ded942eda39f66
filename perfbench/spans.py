"""Outside-in layer tracing for the traced run.

The public functions of combnet's modules are wrapped where their callers
look them up: the module attributes of ``combnet.cli``, ``combnet.forward``,
``combnet.verify`` and ``combnet.losses``. Each call records a span (name,
start, end, parent, op id) in memory; conv kernels also record their
analytic MACs and the multiplies counted with ``convops.counting``. The
wrappers exist only between ``install`` and ``uninstall``.
"""

from __future__ import annotations

import os
import time

# home module -> public functions whose calls become spans
TARGETS = {
    "cli": ("cmd_infer",),
    "forward": ("forward", "prepare_optimized"),
    "convops": ("conv2d_packed", "comb_dilated_conv", "conv2d_ref",
                "batchnorm_inference", "relu", "upsample_nearest_2x"),
    "tensor": ("to_interleaved",),
    "weights": ("load_weights",),
    "pgm": ("read_pgm16",),
    "graph": ("build_graph",),
    "postprocess": ("amplitude_from_phases", "normalize_input", "decode_heatmaps",
                    "gate_visibility", "lift_to_2_5d", "result_document"),
    "losses": ("frame_loss_bundle", "total_loss"),
    "verify": ("conv_oracle_suite", "bn_fold_suite", "backend_e2e_suite",
               "loss_gradient_suite"),
}
CALLER_MODULES = ("cli", "forward", "verify", "losses")
CONV_KERNELS = ("conv2d_packed", "comb_dilated_conv", "conv2d_ref")


class Tracer:
    """Spans of one traced run, kept in memory until written out."""

    def __init__(self, m):
        self.m = m
        self.spans = []     # [name, start, end, parent, op, macs, mults]
        self.stack = []     # [span index, time covered by child spans]
        self.op = None
        self.stats = {}     # name -> [calls, busy_s, self_s, macs, mults]
        self.ops = 0
        self.bytes_read = 0     # by pgm.read_pgm16
        self._installed = []

    # -- spans --------------------------------------------------------------

    def _begin(self, name: str) -> list:
        parent = self.stack[-1][0] if self.stack else None
        frame = [len(self.spans), 0.0]
        self.spans.append([name, time.perf_counter(), None, parent, self.op, 0, 0])
        self.stack.append(frame)
        return frame

    def _end(self, frame: list, macs: int = 0, mults: int = 0, tag: str | None = None):
        end = time.perf_counter()
        self.stack.pop()
        span = self.spans[frame[0]]
        span[2], span[5], span[6] = end, macs, mults
        busy = end - span[1]
        if self.stack:
            self.stack[-1][1] += busy
        for key in (span[0], f"{span[0]}.{tag}") if tag else (span[0],):
            st = self.stats.setdefault(key, [0, 0.0, 0.0, 0, 0])
            st[0] += 1
            st[1] += busy
            st[2] += busy - frame[1]
            st[3] += macs
            st[4] += mults

    def run_op(self, op_id: int, fn, *args):
        """Run one benchmark op as a root span."""
        self.op = op_id
        frame = self._begin("perfbench.op")
        try:
            return fn(*args)
        finally:
            self._end(frame)
            self.ops += 1
            self.op = None

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, home: str, fn):
        name = f"{home}.{fn.__name__}"
        if fn.__name__ in CONV_KERNELS:
            convops = self.m.convops
            tagged = fn.__name__ == "comb_dilated_conv"

            def traced(*args, **kwargs):
                x = args[0] if args else kwargs["x"]
                spec = args[3] if len(args) > 3 else kwargs["spec"]
                try:
                    macs = convops.mac_count(spec, x.height, x.width)
                except Exception:  # invalid call: let the kernel raise its own error
                    macs = 0
                frame = self._begin(name)
                with convops.counting() as ops:
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        self._end(frame, macs, ops.mults,
                                  f"d{spec.dilation}" if tagged else None)
        elif name == "pgm.read_pgm16":
            def traced(path, *args, **kwargs):
                frame = self._begin(name)
                try:
                    return fn(path, *args, **kwargs)
                finally:
                    self._end(frame)
                    if os.path.exists(path):
                        self.bytes_read += os.path.getsize(path)
        else:
            def traced(*args, **kwargs):
                frame = self._begin(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._end(frame)
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        wrappers = {}
        for home, names in TARGETS.items():
            module = getattr(self.m, home)
            for fname in names:
                fn = getattr(module, fname)
                wrappers[id(fn)] = self._wrap(home, fn)
        for caller in CALLER_MODULES:
            module = getattr(self.m, caller)
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._installed.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._installed):
            setattr(module, attr, value)
        self._installed.clear()

    # -- per-layer metrics --------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-op means of every recorded stat, as {name: (value, unit)}."""
        n = max(self.ops, 1)
        out = {}
        for key, (calls, busy, self_s, macs, mults) in self.stats.items():
            out[f"{key}.calls"] = (calls / n, "count")
            out[f"{key}.busy_ms"] = (busy * 1e3 / n, "ms")
            out[f"{key}.self_ms"] = (self_s * 1e3 / n, "ms")
            if mults or macs:
                out[f"{key}.macs"] = (macs / n, "MAC")
                out[f"{key}.gmac_per_s"] = (macs / busy / 1e9 if busy else 0.0, "GMAC/s")
                out[f"{key}.useful_mac_ratio"] = (macs / mults if mults else 0.0, "ratio")
        conv = [self.stats[f"convops.{k}"] for k in CONV_KERNELS
                if f"convops.{k}" in self.stats]
        macs, mults = sum(s[3] for s in conv), sum(s[4] for s in conv)
        out["convops.useful_mac_ratio"] = (macs / mults if mults else 0.0, "ratio")
        out["pgm.read_pgm16.bytes"] = (self.bytes_read / n, "bytes")
        return out
