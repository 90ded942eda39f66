"""Command-line interface: count | verify | bench | infer | stream.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 config error.
COMBNET_SEED in the environment overrides --seed for every command.
"""

from __future__ import annotations

import os

from . import THREAD_VARS, keep_freed_memory

# Pin kernel execution to one thread for reproducible benchmark timings,
# unless the caller set a count. Must happen before numpy loads its BLAS.
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse
import functools
import json
import shlex
import sys

import numpy as np

from .config import NetConfig, REFERENCE_CONFIG, load_config
from .errors import ConfigError, InputError
from .forward import Backend, Mode, forward, prepare_optimized
from .graph import build_graph, count_layers
from .pgm import read_pgm16
from .postprocess import (PhaseFrame, amplitude_from_phases, decode_heatmaps,
                          gate_visibility, lift_to_2_5d, normalize_input,
                          result_document)
from .weights import load_weights

PARAM_TARGET = 41_000        # Table-2-class parameter budget (0.041M)
FLOP_TARGET = 35_000_000     # 0.035 GFLOPs


def _resolve_seed(args) -> int:
    env = os.environ.get("COMBNET_SEED")
    seed = args.seed
    if env is not None:
        try:
            seed = int(env)
        except ValueError as exc:
            raise ConfigError(f"COMBNET_SEED={env!r} is not an integer") from exc
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    return seed


def _load_cfg(args) -> NetConfig:
    return load_config(args.config) if args.config else REFERENCE_CONFIG


def _write_text(path, text: str, mode: str = "w"):
    """Write an output file; a path that cannot be written is an input error."""
    try:
        with open(path, mode, encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_stdout(text: str):
    """Write and flush command output; a stdout that cannot take it (a full
    device, a reader that closed the pipe) is an input error."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        # the unwritten rest goes nowhere; shutdown's flush would fail on it again
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
        raise InputError(f"cannot write stdout: {exc.strerror or exc}") from exc


def cmd_count(args) -> int:
    cfg = _load_cfg(args)
    g = build_graph(cfg)
    rows, total = count_layers(g, Mode.INFERENCE_HEADS)
    _, full = count_layers(g, Mode.ALL_HEADS)

    def line(label, r):
        return f"{label:<18}{r.params:>10}{r.macs:>14}{r.flops:>14}"

    lines = [f"# combnet count  config_hash={cfg.config_hash():08x} "
             f"input={cfg.input_h}x{cfg.input_w}",
             f"{'layer':<18}{'params':>10}{'MACs':>14}{'FLOPs':>14}"]
    lines += [line(r.name, r) for r in rows]
    lines += ["-" * 56, line("total (inference)", total), line("total (training)", full)]
    lines.append(f"params vs {PARAM_TARGET / 1e6:.3f}M target: "
                 f"{(total.params / PARAM_TARGET - 1) * 100:+.1f}%")
    lines.append(f"FLOPs  vs {FLOP_TARGET / 1e9:.3f}G target: "
                 f"{(total.flops / FLOP_TARGET - 1) * 100:+.1f}%")
    if args.csv:
        csv_lines = ["layer,params,macs,flops"]
        csv_lines += [f"{r.name},{r.params},{r.macs},{r.flops}" for r in rows + [total]]
        _write_text(args.csv, "\n".join(csv_lines) + "\n")
    _write_stdout("\n".join(lines) + "\n")
    return 0


def cmd_verify(args) -> int:
    from .verify import report_text, run_all  # loads losses; count and infer need neither
    seed = _resolve_seed(args)
    results = run_all(seed, conv_cases=args.cases, e2e_pairs=args.pairs)
    _write_stdout(report_text(results, seed))
    return 0 if all(r.passed for r in results) else 1


def cmd_bench(args) -> int:
    from .bench import run_benchmarks
    cfg = _load_cfg(args)
    seed = _resolve_seed(args)
    backends = ("reference", "optimized") if args.backend == "both" else (args.backend,)
    paths = [p for p in (args.csv, args.json) if p]
    created = [p for p in paths if not os.path.lexists(p)]
    try:
        for path in paths:  # fails before the run if unwritable; keeps a file's bytes
            _write_text(path, "", mode="a")
        report = run_benchmarks(cfg, seed=seed, iters=args.iters, backends=backends)
    except BaseException:
        for path in filter(os.path.isfile, created):  # a failed run leaves no new file
            os.remove(path)
        raise
    if args.csv:
        _write_text(args.csv, report.to_csv())
    if args.json:
        _write_text(args.json, report.to_json())
    _write_stdout(report.to_text())
    return 0


def _read_frame(args, cfg: NetConfig) -> tuple:
    """One frame's amplitude and depth images, read before any output."""
    if args.amplitude:
        amplitude = read_pgm16(args.amplitude).astype(np.float32)
    else:
        paths = args.phases.split(",")
        if len(paths) != 4:
            raise InputError(f"--phases needs 4 comma-separated files, got {len(paths)}")
        frame = PhaseFrame(tuple(read_pgm16(p) for p in paths),
                           cfg.z_min_mm, cfg.z_max_mm)
        amplitude = amplitude_from_phases(frame, cfg.amplitude_coeffs)
    return amplitude, read_pgm16(args.depth).astype(np.float64)


def _infer_document(g, ws, backend: Backend, amplitude, depth, plan=None) -> dict:
    """The result document of one frame: normalize -> forward -> decode ->
    visibility gate -> 2.5D lift."""
    cfg = g.config
    image, tf = normalize_input(amplitude, (cfg.input_h, cfg.input_w))
    # overflow from extreme weights is reported by the finite check below
    with np.errstate(over="ignore", invalid="ignore"):
        heads = forward(g, ws, image, backend, Mode.INFERENCE_HEADS, prepared=plan)
    for name, arr in (("heatmaps", heads.primary_heatmaps),
                      ("visibility logits", heads.visibility_logits)):
        if not np.all(np.isfinite(arr)):
            raise InputError(f"network {name} hold non-finite values; check the weights")
    # the operating point (thresholds, depth window) is the functions' defaults
    kps = decode_heatmaps(heads.primary_heatmaps, input_hw=(cfg.input_h, cfg.input_w))
    hands, early_out = gate_visibility(kps, heads.visibility_logits)
    if not early_out:
        hands = lift_to_2_5d(hands, depth, z_range=(cfg.z_min_mm, cfg.z_max_mm),
                             transform=tf)
    return result_document(hands, early_out)


def cmd_infer(args) -> int:
    cfg = _load_cfg(args)
    # read every input up front: no partial output on missing files
    amplitude, depth = _read_frame(args, cfg)
    ws = load_weights(args.weights)
    doc = _infer_document(build_graph(cfg), ws, Backend(args.backend), amplitude, depth)
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if args.out:
        _write_text(args.out, text)
    else:
        _write_stdout(text)
    return 0


def _add_frame_args(p: argparse.ArgumentParser):
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--amplitude", help="amplitude image (16-bit PGM)")
    src.add_argument("--phases", help="4 comma-separated phase images (16-bit PGM)")
    p.add_argument("--depth", required=True, help="depth image in mm (16-bit PGM)")


class _FrameParser(argparse.ArgumentParser):
    """Parses one `stream` input line; a bad line is an input error."""

    def error(self, message):
        raise InputError(message)


@functools.cache
def _frame_parser() -> _FrameParser:
    p = _FrameParser(prog="frame", add_help=False)
    _add_frame_args(p)
    return p


def cmd_stream(args) -> int:
    cfg = _load_cfg(args)
    ws = load_weights(args.weights)
    g = build_graph(cfg)
    backend = Backend(args.backend)
    # weights validated, BN folded and taps packed once for every frame
    plan = (prepare_optimized(g, ws, Mode.INFERENCE_HEADS)
            if backend == Backend.OPTIMIZED else None)
    if hasattr(sys.stdin, "reconfigure"):  # a path may be any bytes, as in argv
        sys.stdin.reconfigure(errors="surrogateescape")
    for number, line in enumerate(sys.stdin, 1):
        if not line.strip():
            continue
        try:
            try:
                frame = _frame_parser().parse_args(shlex.split(line))
            except ValueError as exc:  # shlex: an unclosed quote or escape
                raise InputError(str(exc)) from exc
            doc = _infer_document(g, ws, backend, *_read_frame(frame, cfg), plan=plan)
        except InputError as exc:
            raise InputError(f"frame {number}: {exc}") from exc
        _write_stdout(json.dumps(doc, sort_keys=True, allow_nan=False) + "\n")
    return 0


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):  # --help: an unwritable stdout is an input error
        if file is None:
            return _write_stdout(self.format_help())
        return super().print_help(file)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    `main` call; parsing does not change it."""
    p = _Parser(prog="combnet", description="Compact 2.5D hand-pose network toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("count", help="per-layer parameter/FLOP accounting")
    pc.add_argument("--config")
    pc.add_argument("--csv")

    pv = sub.add_parser("verify", help="run oracle-equivalence and gradient suites")
    pv.add_argument("--seed", type=int, default=2024)
    pv.add_argument("--cases", type=int, default=100)
    pv.add_argument("--pairs", type=int, default=20)

    pb = sub.add_parser("bench", help="micro-benchmark the kernels")
    pb.add_argument("--config")
    pb.add_argument("--backend", choices=["reference", "optimized", "both"],
                    default="both")
    pb.add_argument("--iters", type=int, default=10)
    pb.add_argument("--seed", type=int, default=0)
    pb.add_argument("--csv")
    pb.add_argument("--json", help="write the report as one JSON document")

    pi = sub.add_parser("infer", help="single-frame inference to JSON")
    pi.add_argument("--config")
    pi.add_argument("--weights", required=True)
    _add_frame_args(pi)
    pi.add_argument("--backend", choices=["reference", "optimized"],
                    default="optimized")
    pi.add_argument("--out", help="output JSON path (default: stdout)")

    ps = sub.add_parser("stream", help="inference on one frame per stdin line, "
                                       "to one JSON line each")
    ps.add_argument("--config")
    ps.add_argument("--weights", required=True)
    ps.add_argument("--backend", choices=["reference", "optimized"],
                    default="optimized")
    return p


def main(argv=None) -> int:
    keep_freed_memory()  # before any command: verify and bench run convs outside forward
    # looked up per call, not stored in the shared parser, so that a
    # command replaced on this module (as a tracer does) is the one that runs
    commands = {"count": cmd_count, "verify": cmd_verify, "bench": cmd_bench,
                "infer": cmd_infer, "stream": cmd_stream}
    try:
        args = build_parser().parse_args(argv)  # --help writes here
        return commands[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
