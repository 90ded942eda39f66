"""Micro-benchmark harness: full-forward timings per backend, the optimized
plan's preparation, plus the layer classes the optimized engine targets
(grouped tier-2 conv, channel-wise decoder conv, one-channel tier-1 stem,
dilated tier-3 conv via comb vs the naive zero-stuffed baseline).

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
from .convops import (ConvSpec, comb_dilated_conv, conv2d_packed,
                      conv2d_ref, counting, mac_count, zero_stuff_kernel,
                      zero_stuffed_spec)
from .errors import ConfigError
from .forward import Backend, Mode, forward, prepare_optimized
from .graph import (KEYPOINTS, TIER1_CHANNELS, TIER2_BOTTLENECK, TIER2_CHANNELS,
                    TIER2_GROUPS, TIER3_BOTTLENECK, TIER3_GROUPS, build_graph,
                    count_layers)
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

    def add_conv_cases(case, spec, hw):
        """Time one conv layer class on each requested backend."""
        x = rng.standard_normal((spec.in_ch, hw, hw)).astype(np.float32)
        w = rng.standard_normal(spec.weight_shape()).astype(np.float32)
        t = Tensor.from_array(x)
        ti, pw = to_interleaved(t), pack_kernels(w, spec.groups)
        macs = mac_count(spec, hw, hw)
        if "reference" in backends:
            add_case(case, "reference", lambda: conv2d_ref(t, w, None, spec), macs)
        if "optimized" in backends:
            add_case(case, "optimized", lambda: conv2d_packed(ti, pw, None, spec), macs)

    # tier-2 style grouped conv, and the channel-wise (one filter per group)
    # conv the decoder and primary head run, both at tier-1 resolution
    h2 = cfg.input_h // 2
    spec_g = ConvSpec(TIER2_BOTTLENECK, TIER2_CHANNELS, (3, 3), stride=2,
                      groups=TIER2_GROUPS)
    add_conv_cases(f"grouped-3x3-g{spec_g.groups}-{h2}x{h2}", spec_g, h2)
    dc = KEYPOINTS
    add_conv_cases(f"channelwise-3x3-{h2}x{h2}", ConvSpec(dc, dc, (3, 3), groups=dc), h2)
    # the one-input-channel tier-1 stem at input resolution
    h = cfg.input_h
    add_conv_cases(f"stem-3x3-s2-{h}x{h}", ConvSpec(1, TIER1_CHANNELS, (3, 3), stride=2), h)

    # dilated conv: comb vs naive zero-stuffed baseline (canonical 12x12 case
    # plus the graph's own tier-3 resolution when different)
    sizes = {12, cfg.input_h // 8}
    for hw in sorted(sizes):
        for d in (2, 3, 4):
            spec_d = ConvSpec(TIER3_BOTTLENECK, TIER3_BOTTLENECK, (3, 3),
                              dilation=d, groups=TIER3_GROUPS)
            xd = rng.standard_normal((spec_d.in_ch, hw, hw)).astype(np.float32)
            wd = rng.standard_normal(spec_d.weight_shape()).astype(np.float32)
            td = Tensor.from_array(xd)
            tdi = to_interleaved(td)
            pwd = pack_kernels(wd, spec_d.groups)
            stuffed = zero_stuff_kernel(wd, d)
            sspec = zero_stuffed_spec(spec_d)
            case = f"dilated-3x3-g{spec_d.groups}-d{d}-{hw}x{hw}"
            add_case(case + "-comb", "optimized",
                     lambda tdi=tdi, pwd=pwd, spec_d=spec_d:
                     comb_dilated_conv(tdi, pwd, None, spec_d),
                     mac_count(spec_d, hw, hw))
            add_case(case + "-zerostuffed", "reference",
                     lambda td=td, stuffed=stuffed, sspec=sspec:
                     conv2d_ref(td, stuffed, None, sspec),
                     mac_count(sspec, hw, hw))

    env = {"python": platform.python_version(), "numpy": np.__version__,
           "blas": _blas_build(), "machine": platform.machine(), "malloc": malloc_policy(),
           **{v: os.environ.get(v, "unset") for v in THREAD_VARS}}
    return BenchReport(rows, datetime.now(timezone.utc).isoformat(),
                       cfg.config_hash(), seed, iters, warmup, env, _src_lines(),
                       _git_commit())
