"""Micro-benchmark harness: full-forward timings per backend, the optimized
plan's preparation, plus one layer of the built graph per class the
optimized engine targets (grouped tier-2 conv, channel-wise decoder conv,
one-channel tier-1 stem, dilated tier-3 conv via comb vs the naive
zero-stuffed baseline), each read from the graph with its input size.

MAC figures come from the analytic counter, never re-estimated from timings;
the headline number per case is the median over iterations after warm-up.
"""

from __future__ import annotations

import io
import json
import os
import platform
import time
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import THREAD_VARS, malloc_policy
from .config import NetConfig
from .convops import (comb_dilated_conv, conv2d_packed, conv2d_ref, counting,
                      mac_count, zero_stuff_kernel, zero_stuffed_spec)
from .errors import ConfigError
from .forward import Backend, Mode, forward, prepare_optimized
from .graph import build_graph, count_layers
from .tensor import Tensor, pack_kernels, to_interleaved
from .weights import init_weights


@dataclass
class BenchRow:
    case: str
    backend: str
    iterations: int
    min_ms: float
    median_ms: float
    mean_ms: float
    macs: int
    mults_counted: int

    @property
    def macs_per_s(self) -> float:
        return self.macs / (self.median_ms / 1e3) if self.median_ms > 0 else 0.0


@dataclass
class BenchReport:
    rows: list
    timestamp: str
    config_hash: int
    seed: int
    iterations: int
    warmup: int
    environment: dict    # header name -> value, in header order
    src_lines: int
    git_commit: str | None

    _COLS = ("case", "backend", "iterations", "min_ms", "median_ms", "mean_ms",
             "macs", "mults_counted", "macs_per_s")

    def _cells(self, row: BenchRow) -> list:
        return [row.case, row.backend, str(row.iterations),
                f"{row.min_ms:.4f}", f"{row.median_ms:.4f}", f"{row.mean_ms:.4f}",
                str(row.macs), str(row.mults_counted), f"{row.macs_per_s:.4e}"]

    def to_text(self) -> str:
        out = io.StringIO()
        out.write(f"# combnet bench  {self.timestamp}\n")
        out.write(f"# config_hash={self.config_hash:08x} seed={self.seed} "
                  f"iters={self.iterations} warmup={self.warmup}\n")
        out.write("# " + " ".join(f"{k}={v}" for k, v in self.environment.items()) + "\n")
        table = [list(self._COLS)] + [self._cells(r) for r in self.rows]
        widths = [max(len(row[i]) for row in table) for i in range(len(self._COLS))]
        for row in table:
            out.write("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n")
        return out.getvalue()

    def to_csv(self) -> str:
        lines = [",".join(self._COLS)]
        lines += [",".join(self._cells(r)) for r in self.rows]
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        doc = {"timestamp": self.timestamp, "config_hash": f"{self.config_hash:08x}",
               "seed": self.seed, "iterations": self.iterations, "warmup": self.warmup,
               "environment": self.environment, "src_lines": self.src_lines,
               "git_commit": self.git_commit,
               "cases": [asdict(r) for r in self.rows]}
        return json.dumps(doc, indent=2) + "\n"


def _time_case(fn, iters: int, warmup: int) -> tuple:
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(iters):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
    arr = np.asarray(times)
    return float(arr.min()), float(np.median(arr)), float(arr.mean())


def _blas_build() -> str:
    """Name and version of the BLAS numpy was built against, or 'unknown'."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']}/{blas['version']}"
    except (KeyError, TypeError):
        return "unknown"


PACKAGE = Path(__file__).resolve().parent


def _src_lines() -> int:
    """Newline count of the package's Python sources (as `wc -l` counts)."""
    return sum(p.read_bytes().count(b"\n") for p in PACKAGE.glob("*.py"))


def _git_commit(start: Path = PACKAGE) -> str | None:
    """The commit checked out in the git repository holding `start`, read
    from its `.git` without running git; None outside a repository."""
    try:
        for d in (start, *start.parents):
            git = d / ".git"
            if git.is_file():  # a worktree or submodule: "gitdir: PATH"
                git = d / git.read_text().split(":", 1)[1].strip()
            if git.is_dir():
                break
        else:
            return None
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head  # detached HEAD
        ref = head[len("ref: "):]
        roots = [git]
        if (git / "commondir").is_file():  # a worktree: branches live in the main .git
            roots.append(git / (git / "commondir").read_text().strip())
        for root in roots:
            if (root / ref).is_file():
                return (root / ref).read_text().strip()
            packed = root / "packed-refs"
            if packed.is_file():
                for line in packed.read_text().splitlines():
                    if line.endswith(" " + ref):
                        return line.split()[0]
    except (OSError, UnicodeDecodeError, IndexError):  # IndexError: a bad `.git` file
        pass
    return None


def run_benchmarks(cfg: NetConfig, seed: int = 0, iters: int = 10, warmup: int = 3,
                   backends=("reference", "optimized")) -> BenchReport:
    if iters < 1:
        raise ConfigError(f"iters must be at least 1, got {iters}")
    g = build_graph(cfg)
    ws = init_weights(g, seed)
    rng = np.random.default_rng(seed)
    img = Tensor.from_array(rng.uniform(0, 1, (1, cfg.input_h, cfg.input_w))
                            .astype(np.float32))
    prep = prepare_optimized(g, ws, Mode.INFERENCE_HEADS)
    total_macs = count_layers(g, Mode.INFERENCE_HEADS)[1].macs
    rows = []

    def add_case(case, backend, fn, macs):
        with counting() as ops:
            fn()
        mn, md, mean = _time_case(fn, iters, warmup)
        rows.append(BenchRow(case, backend, iters, mn, md, mean, macs, ops.mults))

    if "reference" in backends:
        add_case("full-forward", "reference",
                 lambda: forward(g, ws, img, Backend.REFERENCE, Mode.INFERENCE_HEADS),
                 total_macs)
    if "optimized" in backends:
        add_case("full-forward", "optimized",
                 lambda: forward(g, ws, img, Backend.OPTIMIZED, Mode.INFERENCE_HEADS,
                                 prepared=prep),
                 total_macs)
        add_case("prepare-optimized", "optimized",
                 lambda: prepare_optimized(g, ws, Mode.INFERENCE_HEADS), 0)

    def layer(label, name, hw=None):
        """Graph node `name`'s spec with a random input at its first input's
        (h, w), or at `hw`, and random weights, in the case `{label}-{h}x{w}`."""
        node = g.node(name)
        h, w = hw or g.node(node.inputs[0]).out_shape[1:]
        spec = node.conv
        x = Tensor.from_array(rng.standard_normal((spec.in_ch, h, w)).astype(np.float32))
        k = rng.standard_normal(spec.weight_shape()).astype(np.float32)
        return f"{label}-{h}x{w}", spec, x, k

    def add_conv_cases(label, name):
        """Time one conv layer on each requested backend."""
        case, spec, x, k = layer(label, name)
        xi, pk = to_interleaved(x), pack_kernels(k, spec.groups)
        macs = mac_count(spec, x.height, x.width)
        if "reference" in backends:
            add_case(case, "reference", lambda: conv2d_ref(x, k, None, spec), macs)
        if "optimized" in backends:
            add_case(case, "optimized", lambda: conv2d_packed(xi, pk, None, spec), macs)

    def add_dilated_cases(label, name, hw):
        """Time a dilated layer as the comb and as the zero-stuffed kernel."""
        case, spec, x, k = layer(label, name, hw)
        xi, pk = to_interleaved(x), pack_kernels(k, spec.groups)
        stuffed, sspec = zero_stuff_kernel(k, spec.dilation), zero_stuffed_spec(spec)
        add_case(case + "-comb", "optimized",
                 lambda: comb_dilated_conv(xi, pk, None, spec), mac_count(spec, *hw))
        add_case(case + "-zerostuffed", "reference",
                 lambda: conv2d_ref(x, stuffed, None, sspec), mac_count(sspec, *hw))

    # tier-2 grouped conv and the channel-wise conv of the decoder's last
    # stage, both at tier-1 resolution, and the one-input-channel stem
    add_conv_cases("grouped-3x3-g4", "t2.u1.conv")
    add_conv_cases("channelwise-3x3", "dec.s2")
    add_conv_cases("stem-3x3-s2", "t1.conv")
    # dilated ladder blocks 2-4 (d = 2, 3, 4): comb vs the naive zero-stuffed
    # baseline, at the canonical 12x12 and at the graph's own tier-3 size
    for hw in sorted({(12, 12), g.node("t3.entry").out_shape[1:]}):
        for d in (2, 3, 4):
            add_dilated_cases(f"dilated-3x3-g8-d{d}", f"t3.u1.b{d}.conv", hw)

    env = {"python": platform.python_version(), "numpy": np.__version__,
           "blas": _blas_build(), "machine": platform.machine(), "malloc": malloc_policy(),
           **{v: os.environ.get(v, "unset") for v in THREAD_VARS}}
    return BenchReport(rows, datetime.now(timezone.utc).isoformat(),
                       cfg.config_hash(), seed, iters, warmup, env, _src_lines(),
                       _git_commit())
