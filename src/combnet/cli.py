"""Command-line interface: count | verify | bench | infer.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 config error.
COMBNET_SEED in the environment overrides --seed for every command.
"""

from __future__ import annotations

import os

from . import THREAD_VARS

# Pin kernel execution to one thread for reproducible benchmark timings,
# unless the caller set a count. Must happen before numpy loads its BLAS.
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse
import json
import sys

import numpy as np

from .bench import run_benchmarks
from .config import NetConfig, REFERENCE_CONFIG, load_config
from .errors import CombnetError, ConfigError, InputError
from .forward import Backend, Mode, forward
from .graph import build_graph, count_layers, validate_config
from .pgm import read_pgm16
from .postprocess import (PhaseFrame, amplitude_from_phases, decode_heatmaps,
                          gate_visibility, lift_to_2_5d, normalize_input,
                          result_document)
from .verify import report_text, run_all
from .weights import load_weights

PARAM_TARGET = 41_000        # Table-2-class parameter budget (0.041M)
FLOP_TARGET = 35_000_000     # 0.035 GFLOPs


def _resolve_seed(args) -> int:
    env = os.environ.get("COMBNET_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"COMBNET_SEED={env!r} is not an integer") from exc
    return args.seed


def _load_cfg(args) -> NetConfig:
    return load_config(args.config) if args.config else REFERENCE_CONFIG


def cmd_count(args) -> int:
    cfg = _load_cfg(args)
    g = build_graph(cfg)
    rep = validate_config(g)
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
    lines += [f"warning: {m}" for m in rep.warnings]
    lines += [f"invariant violation: {m}" for m in rep.errors]
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if args.csv:
        csv_lines = ["layer,params,macs,flops"]
        csv_lines += [f"{r.name},{r.params},{r.macs},{r.flops}" for r in rows + [total]]
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write("\n".join(csv_lines) + "\n")
    return 0


def cmd_verify(args) -> int:
    seed = _resolve_seed(args)
    results = run_all(seed, conv_cases=args.cases, e2e_pairs=args.pairs)
    sys.stdout.write(report_text(results, seed))
    return 0 if all(r.passed for r in results) else 1


def cmd_bench(args) -> int:
    cfg = _load_cfg(args)
    seed = _resolve_seed(args)
    backends = ("reference", "optimized") if args.backend == "both" else (args.backend,)
    report = run_benchmarks(cfg, seed=seed, iters=args.iters, backends=backends)
    print(report.to_text(), end="")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(report.to_csv())
    return 0


def cmd_infer(args) -> int:
    cfg = _load_cfg(args)
    # read every input up front: no partial output on missing files
    if args.amplitude:
        amplitude = read_pgm16(args.amplitude).astype(np.float32)
    else:
        paths = args.phases.split(",")
        if len(paths) != 4:
            raise InputError(f"--phases needs 4 comma-separated files, got {len(paths)}")
        frame = PhaseFrame(tuple(read_pgm16(p) for p in paths),
                           cfg.z_min_mm, cfg.z_max_mm)
        amplitude = amplitude_from_phases(frame, cfg.amplitude_coeffs)
    depth = read_pgm16(args.depth).astype(np.float64)
    ws = load_weights(args.weights)

    g = build_graph(cfg)
    image, tf = normalize_input(amplitude, (cfg.input_h, cfg.input_w))
    backend = Backend(args.backend)
    heads = forward(g, ws, image, backend, Mode.INFERENCE_HEADS)
    for name, arr in (("heatmaps", heads.primary_heatmaps),
                      ("visibility logits", heads.visibility_logits)):
        if not np.all(np.isfinite(arr)):
            raise InputError(f"network {name} hold non-finite values; check the weights")
    kps = decode_heatmaps(heads.primary_heatmaps, cfg.conf_threshold,
                          (cfg.input_h, cfg.input_w))
    hands, early_out = gate_visibility(kps, heads.visibility_logits,
                                       cfg.kp_vis_threshold,
                                       cfg.hand_vis_threshold, cfg.hands)
    if not early_out:
        hands = lift_to_2_5d(hands, depth, cfg.depth_window,
                             (cfg.z_min_mm, cfg.z_max_mm), tf)
    doc = result_document(hands, early_out)
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="combnet",
                                description="Compact 2.5D hand-pose network toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("count", help="per-layer parameter/FLOP accounting")
    pc.add_argument("--config")
    pc.add_argument("--csv")
    pc.set_defaults(fn=cmd_count)

    pv = sub.add_parser("verify", help="run oracle-equivalence and gradient suites")
    pv.add_argument("--seed", type=int, default=2024)
    pv.add_argument("--cases", type=int, default=100)
    pv.add_argument("--pairs", type=int, default=20)
    pv.set_defaults(fn=cmd_verify)

    pb = sub.add_parser("bench", help="micro-benchmark the kernels")
    pb.add_argument("--config")
    pb.add_argument("--backend", choices=["reference", "optimized", "both"],
                    default="both")
    pb.add_argument("--iters", type=int, default=10)
    pb.add_argument("--seed", type=int, default=0)
    pb.add_argument("--csv")
    pb.set_defaults(fn=cmd_bench)

    pi = sub.add_parser("infer", help="single-frame inference to JSON")
    pi.add_argument("--config")
    pi.add_argument("--weights", required=True)
    src = pi.add_mutually_exclusive_group(required=True)
    src.add_argument("--amplitude", help="amplitude image (16-bit PGM)")
    src.add_argument("--phases", help="4 comma-separated phase images (16-bit PGM)")
    pi.add_argument("--depth", required=True, help="depth image in mm (16-bit PGM)")
    pi.add_argument("--backend", choices=["reference", "optimized"],
                    default="optimized")
    pi.add_argument("--out", help="output JSON path (default: stdout)")
    pi.set_defaults(fn=cmd_infer)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except CombnetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
