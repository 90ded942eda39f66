import ctypes
import io
import json
import math
import os
import resource
import re
import shlex
import struct
import subprocess
import sys
import zlib
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import combnet
from combnet import bench, cli, verify
from combnet.bench import run_benchmarks
from combnet.config import MAX_INPUT_SIDE, REFERENCE_CONFIG, NetConfig
from combnet.errors import ShapeMismatchError
from combnet.forward import Backend, forward, prepare_optimized
from combnet.graph import Mode, build_graph, count_layers, param_entries
from combnet.tensor import Tensor
from combnet.weights import WeightStore, init_weights, save_weights

REPO = Path(__file__).resolve().parent.parent


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("COMBNET_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "combnet.cli", *args],
                          capture_output=True, text=True, env=env, cwd=REPO)


@pytest.fixture(scope="module")
def small_cfg(tmp_path_factory):
    p = tmp_path_factory.mktemp("cfg") / "small.cfg"
    p.write_text("input_h = 96\ninput_w = 96\n")
    return str(p)


def write_pgm16(path, img):
    h, w = img.shape
    path.write_bytes(f"P5\n{w} {h}\n65535\n".encode("ascii") + img.astype(">u2").tobytes())


@pytest.fixture(scope="module")
def infer_inputs(tmp_path_factory, small_cfg):
    d = tmp_path_factory.mktemp("infer")
    g = build_graph(NetConfig(input_h=96, input_w=96))
    ws = init_weights(g, 7)
    save_weights(ws, d / "w.cnwb")
    rng = np.random.default_rng(3)
    write_pgm16(d / "amp.pgm", rng.integers(0, 65536, (96, 96)).astype(np.uint16))
    for i in range(4):
        write_pgm16(d / f"p{i}.pgm", rng.integers(0, 65536, (96, 96)).astype(np.uint16))
    write_pgm16(d / "depth.pgm", rng.integers(80, 1200, (96, 96)).astype(np.uint16))
    return d


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------

def test_count_reference_budget():
    r = run_cli("count")
    assert r.returncode == 0
    assert "total (inference)" in r.stdout
    # headline deltas against the parameter/FLOP budget stay inside +-25%
    for line in r.stdout.splitlines():
        if line.startswith("params vs") or line.startswith("FLOPs  vs"):
            pct = float(line.split(":")[1].strip().rstrip("%"))
            assert abs(pct) <= 25.0


def test_main_runs_twice_in_one_process(capsys):
    # the parser is built once per process; a second call parses alike
    from combnet import cli
    assert cli.build_parser() is cli.build_parser()
    outs = []
    for _ in range(2):
        assert cli.main(["count"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] and "total (inference)" in outs[0]
    with pytest.raises(SystemExit) as exc:
        cli.main(["count", "--no-such-flag"])
    assert exc.value.code == 2


def test_main_runs_the_command_the_module_names_now(monkeypatch):
    # a command wrapped after the parser was built (as a tracer does) runs
    from combnet import cli
    cli.build_parser()
    monkeypatch.setattr(cli, "cmd_count", lambda args: 7)
    assert cli.main(["count"]) == 7


def test_cli_import_leaves_bench_verify_and_losses_unloaded():
    # count and infer run none of them; bench and verify import them on use.
    # Building a dataclass costs about 0.5-1.5 ms of every start-up, so the
    # dataclasses the loaded modules define are listed: a new one shows here.
    r = subprocess.run(
        [sys.executable, "-c", "import sys, dataclasses, combnet.cli; print(sorted(m for m in "
         "('combnet.bench', 'combnet.verify', 'combnet.losses') if m in sys.modules)); "
         "mods = [m for n, m in sys.modules.items() if n.startswith('combnet')]; "
         "print(sorted(v.__qualname__ for m in mods for v in vars(m).values() "
         "if isinstance(v, type) and dataclasses.is_dataclass(v) "
         "and v.__module__ == m.__name__))"],
        capture_output=True, text=True, cwd=REPO)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "[]\n['NetConfig', 'Tensor']\n"


def test_count_rows_sum_to_totals(tmp_path):
    csv = tmp_path / "count.csv"
    r = run_cli("count", "--csv", str(csv))
    assert r.returncode == 0
    rows = [ln.split(",") for ln in csv.read_text().splitlines()[1:]]
    total = rows[-1]
    assert total[0] == "total"
    for col in (1, 2, 3):
        assert sum(int(row[col]) for row in rows[:-1]) == int(total[col])


def test_count_row_order_and_csv_match_stdout(tmp_path):
    csv = tmp_path / "count.csv"
    r = run_cli("count", "--csv", str(csv))
    assert r.returncode == 0
    body = r.stdout.splitlines()[2:]
    table = [ln.split() for ln in body[:body.index("-" * 56)]]
    # layers with parameters in graph order, then the residual adds and the pooling
    g = build_graph(NetConfig())
    with_params = [n.name for n in g.nodes
                   if n.name in g.inference_names and n.kind in ("conv", "linear")]
    assert len(with_params) == 37
    adds = [f"t3.u{u}.b{k}.add" for u in (1, 2) for k in (1, 2, 3, 4)]
    assert [row[0] for row in table] == with_params + adds + ["head.gap"]
    csv_rows = [ln.split(",") for ln in csv.read_text().splitlines()[1:-1]]
    assert csv_rows == table


def test_count_invalid_config_exit_3(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("input_h = 100\n")
    r = run_cli("count", "--config", str(bad))
    assert r.returncode == 3
    assert "config error" in r.stderr


@pytest.mark.parametrize("line", ["tier2_groups = 0", "tier3_groups = 0",
                                  "lane_width = 0", "input_h = -8", "input_h = 128.0",
                                  "training_heads = false", "decoder_channels = 16",
                                  "tier1_channels = 16", "tier2_channels = 32",
                                  "orientation_classes = 8", "pose_classes = 9",
                                  "seg_classes = 3", "bn_eps = 1e-05",
                                  "tier3_channels = 64", "ladder_dilations = 1, 2, 3, 4",
                                  "hands = 3", "tier2_bottleneck = 16",
                                  "tier3_bottleneck = 32", "lane_width = 4",
                                  "keypoints = 16", "aux_keypoints = 18", "hands = 2",
                                  "fingertip_indices = 2, 4, 10, 12",
                                  "orientation_eps = 0.1", "conf_threshold = 0.05",
                                  "kp_vis_threshold = 0.5", "hand_vis_threshold = 0.5",
                                  "depth_window = 5"])
def test_count_out_of_range_config_exit_3(tmp_path, line):
    bad = tmp_path / "bad.cfg"
    bad.write_text(line + "\n")
    r = run_cli("count", "--config", str(bad))
    assert r.returncode == 3
    assert len(r.stderr.splitlines()) == 1
    assert r.stderr.startswith("config error: ")
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("command", ["count", "bench", "stream"])
def test_resolution_above_the_maximum_exit_3(command, infer_inputs, tmp_path,
                                             monkeypatch, capsys):
    # a 1048576-pixel side would ask for terabytes: refused before any work
    cfg = tmp_path / "huge.cfg"
    cfg.write_text("input_h = 1048576\ninput_w = 1048576\n")
    weights = ["--weights", str(infer_inputs / "w.cnwb")] if command == "stream" else []
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    assert cli.main([command, "--config", str(cfg), *weights]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("config error: input resolution 1048576x1048576 must be ")


def test_count_at_the_maximum_resolution_keeps_its_columns(tmp_path, capsys):
    cfg = tmp_path / "max.cfg"
    cfg.write_text(f"input_h = {MAX_INPUT_SIDE}\ninput_w = {MAX_INPUT_SIDE}\n")
    assert cli.main(["count", "--config", str(cfg)]) == 0
    lines = capsys.readouterr().out.splitlines()
    dash = lines.index("-" * 56)
    rows = lines[2:dash] + lines[dash + 1:dash + 3]
    assert rows[-1].startswith("total (training)")
    for row in rows:
        # label, then params, MACs and FLOPs right-aligned in 10, 14 and 14
        assert len(row) == 56, row
        for field in (row[18:28], row[28:42], row[42:56]):
            assert field[0] == " " and field.strip().isdigit(), row


def test_count_non_utf8_config_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"input_h = 96\n\xff\xfe\n")
    assert cli.main(["count", "--config", str(bad)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"config error: cannot read config {bad}: ")


def assert_unwritable_output_exit_2(r, path):
    assert r.returncode == 2
    assert r.stdout == ""
    assert "Traceback" not in r.stderr
    assert len(r.stderr.splitlines()) == 1
    assert r.stderr.startswith(f"input error: cannot write {path}: ")


def test_count_unwritable_csv_exit_2(tmp_path):
    csv = tmp_path / "missing" / "count.csv"
    assert_unwritable_output_exit_2(run_cli("count", "--csv", str(csv)), csv)


def test_count_doubled_resolution_heavier(tmp_path):
    big = tmp_path / "big.cfg"
    big.write_text("input_h = 256\ninput_w = 256\n")
    base = run_cli("count").stdout
    grown = run_cli("count", "--config", str(big)).stdout

    def total_params_and_macs(text):
        for line in text.splitlines():
            if line.startswith("total (inference)"):
                return [int(v) for v in line.split()[2:4]]
    (base_params, base_macs), (params, macs) = map(total_params_and_macs, (base, grown))
    assert macs > base_macs
    assert params == base_params


# ---------------------------------------------------------------------------
# stdout that cannot be written
# ---------------------------------------------------------------------------

def run_cli_to_stdout(stdout, *args, stdin="", unbuffered=False):
    """Run the CLI with its stdout on `stdout` (a file or a descriptor),
    block buffered as it is by default, or unbuffered."""
    env = dict(os.environ)
    env.pop("COMBNET_SEED", None)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "combnet.cli", *args], stdout=stdout,
                          stderr=subprocess.PIPE, input=stdin, text=True, env=env,
                          cwd=REPO, timeout=300)


def assert_stdout_error_exit_2(r):
    assert r.returncode == 2
    # neither a traceback nor the interpreter's shutdown report of a failed flush
    assert "Traceback" not in r.stderr and "Exception ignored" not in r.stderr
    assert len(r.stderr.splitlines()) == 1, r.stderr
    assert r.stderr.startswith("input error: cannot write stdout: ")


def _stdout_commands(small_cfg, d):
    weights = ["--config", small_cfg, "--weights", str(d / "w.cnwb")]
    frame = ["--amplitude", str(d / "amp.pgm"), "--depth", str(d / "depth.pgm")]
    return {"count": (["count"], ""),
            "verify": (["verify", "--cases", "1", "--pairs", "1"], ""),
            "infer": (["infer", *weights, *frame], ""),
            "stream": (["stream", *weights], shlex.join(frame) + "\n")}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("command", ["count", "verify", "infer", "stream"])
def test_full_stdout_exit_2(command, small_cfg, infer_inputs):
    args, stdin = _stdout_commands(small_cfg, infer_inputs)[command]
    with open("/dev/full", "w") as full:
        assert_stdout_error_exit_2(run_cli_to_stdout(full, *args, stdin=stdin))


HELP_ARGS = pytest.mark.parametrize("args", [["--help"], ["count", "--help"]],
                                    ids=["help", "count-help"])


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@HELP_ARGS
def test_help_to_full_stdout_exit_2(args, unbuffered):
    # argparse prints the help and exits before `main`'s handlers run; with an
    # unbuffered stdout it would also drop the failed write without a word
    with open("/dev/full", "w") as full:
        assert_stdout_error_exit_2(run_cli_to_stdout(full, *args, unbuffered=unbuffered))


@HELP_ARGS
def test_help_to_writable_stdout_exit_0(args):
    r = run_cli_to_stdout(subprocess.PIPE, *args)
    assert (r.returncode, r.stderr) == (0, "")
    assert r.stdout.startswith("usage: combnet " + " ".join(args[:-1]))
    if args == ["--help"]:
        assert r.stdout == cli.build_parser().format_help()


@pytest.mark.parametrize("command", ["count", "stream"])
def test_stdout_closed_by_its_reader_exit_2(command, small_cfg, infer_inputs, tmp_path):
    args, stdin = _stdout_commands(small_cfg, infer_inputs)[command]
    if command == "count":
        big = tmp_path / "max.cfg"
        big.write_text(f"input_h = {MAX_INPUT_SIDE}\ninput_w = {MAX_INPUT_SIDE}\n")
        args = [*args, "--config", str(big)]
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the command writes
    try:
        assert_stdout_error_exit_2(run_cli_to_stdout(write_end, *args, stdin=stdin))
    finally:
        os.close(write_end)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_passes_and_is_deterministic():
    a = run_cli("verify", "--seed", "5", "--cases", "25", "--pairs", "3")
    b = run_cli("verify", "--seed", "5", "--cases", "25", "--pairs", "3")
    assert a.returncode == 0
    assert a.stdout == b.stdout  # identical report bytes
    assert "11/11 suites passed" in a.stdout


def test_verify_env_seed_overrides_flag():
    a = run_cli("verify", "--seed", "5", "--cases", "10", "--pairs", "2",
                env_extra={"COMBNET_SEED": "99"})
    assert "seed=99" in a.stdout


@pytest.mark.parametrize("command", ["verify", "bench"])
@pytest.mark.parametrize("source", ["flag", "env"])
def test_negative_seed_exit_3(command, source, monkeypatch, capsys):
    # numpy's generators take no negative seed; it is a config error, not a traceback
    if source == "env":
        monkeypatch.setenv("COMBNET_SEED", "-5")
        argv = [command]
    else:
        monkeypatch.delenv("COMBNET_SEED", raising=False)
        argv = [command, "--seed", "-5"]
    assert cli.main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "config error: seed must be non-negative, got -5\n"


def test_verify_detects_injected_fault(monkeypatch):
    # perturbing the packed weights by 1e-2 must fail both equivalence suites
    pack = verify.pack_kernels

    def perturbed(w, groups):
        taps = pack(w, groups).copy()
        taps[0, 0, 0, 0, 0] += 1e-2
        return taps

    monkeypatch.setattr(verify, "pack_kernels", perturbed)
    results = verify.conv_oracle_suite(5, cases=10)
    packed = next(r for r in results if "packed" in r.name)
    assert not packed.passed
    # the comb runs on the same packed stack, so it sees the fault too
    comb = next(r for r in results if r.name == "conv comb vs reference")
    assert comb.cases > 0 and not comb.passed


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def test_bench_report_consistency(small_cfg, tmp_path):
    csv = tmp_path / "bench.csv"
    r = run_cli("bench", "--config", small_cfg, "--iters", "1", "--csv", str(csv),
                env_extra={"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "2",
                           "MKL_NUM_THREADS": "3"})
    assert r.returncode == 0
    # the header reports the thread variables in effect, not a fixed count
    env_line = r.stdout.splitlines()[2]
    assert env_line.endswith("OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=2 MKL_NUM_THREADS=3")
    assert "threads=1" not in r.stdout
    csv_rows = [ln.split(",") for ln in csv.read_text().splitlines()]
    header, rows = csv_rows[0], csv_rows[1:]
    assert rows, "bench produced no cases"
    # CSV and human-readable outputs carry identical numeric values
    for row in rows:
        for cell in row[2:]:
            assert cell in r.stdout
    # the full-forward MACs column equals the accounting module's MAC total
    g = build_graph(NetConfig(input_h=96, input_w=96))
    macs = count_layers(g, Mode.INFERENCE_HEADS)[1].macs
    ff = next(row for row in rows if row[0] == "full-forward")
    assert int(ff[header.index("macs")]) == macs
    # channel-wise decoder conv and the one-channel stem on both backends,
    # counted at their MACs
    i_mults, i_macs = header.index("mults_counted"), header.index("macs")
    for case in ("channelwise-3x3-48x48", "stem-3x3-s2-96x96"):
        layer = [row for row in rows if row[0] == case]
        assert sorted(row[1] for row in layer) == ["optimized", "reference"], case
        for row in layer:
            assert int(row[i_mults]) == int(row[i_macs]) > 0
    # d=3 is the comb with four field size classes; counted at its MACs too
    d3 = [row for row in rows if row[0].startswith("dilated-3x3-g8-d3-")]
    assert sorted(row[0] for row in d3) == [
        f"dilated-3x3-g8-d3-12x12-{kind}" for kind in ("comb", "zerostuffed")]
    for row in d3:
        assert int(row[i_mults]) == int(row[i_macs]) > 0
    prep = [row for row in rows if row[0] == "prepare-optimized"]
    assert [(row[1], row[i_macs]) for row in prep] == [("optimized", "0")]
    # the BLAS build numpy runs on is recorded next to numpy's version
    assert re.search(r" numpy=\S+ blas=\S+ ", env_line)


def test_bench_comb_beats_zero_stuffed_multiplies():
    report = run_benchmarks(NetConfig(input_h=96, input_w=96), iters=1, warmup=0,
                            backends=("optimized",))
    comb = next(r for r in report.rows if r.case == "dilated-3x3-g8-d2-12x12-comb")
    stuffed = next(r for r in report.rows
                   if r.case == "dilated-3x3-g8-d2-12x12-zerostuffed")
    assert comb.mults_counted == 165_888
    assert stuffed.mults_counted == 460_800
    assert comb.mults_counted < stuffed.mults_counted
    assert report.environment["malloc"] == combnet.malloc_policy()


def test_bench_times_the_graph_layers_at_their_input_sizes(tmp_path, capsys):
    # a non-square config: each layer case runs the graph node's own input
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("input_h = 128\ninput_w = 96\n")
    out = tmp_path / "bench.json"
    assert cli.main(["bench", "--config", str(cfg), "--backend", "optimized",
                     "--iters", "1", "--json", str(out)]) == 0
    capsys.readouterr()
    macs = {c["case"]: c["macs"] for c in json.loads(out.read_text())["cases"]}
    rows = {r.name: r.macs for r in count_layers(
        build_graph(NetConfig(input_h=128, input_w=96)), Mode.INFERENCE_HEADS)[0]}
    for case, node in (("grouped-3x3-g4-64x48", "t2.u1.conv"),
                       ("channelwise-3x3-64x48", "dec.s2"),
                       ("stem-3x3-s2-128x96", "t1.conv"),
                       ("dilated-3x3-g8-d3-16x12-comb", "t3.u1.b3.conv")):
        assert macs[case] == rows[node], case
    assert "dilated-3x3-g8-d3-12x12-comb" in macs


@pytest.mark.parametrize("args", [("bench", "--iters", "0"),
                                  ("verify", "--cases", "0"),
                                  ("verify", "--pairs", "0")])
def test_count_argument_below_one_exit_3(args):
    r = run_cli(*args)
    assert r.returncode == 3
    assert r.stdout == ""
    assert len(r.stderr.splitlines()) == 1
    assert r.stderr.startswith("config error: ")


@pytest.mark.parametrize("flag", ["--json", "--csv"])
def test_failed_bench_keeps_an_existing_output_file(flag, tmp_path, capsys):
    out = tmp_path / "out"
    out.write_bytes(b"earlier run\n")
    assert cli.main(["bench", "--iters", "0", flag, str(out)]) == 3
    assert capsys.readouterr().err == "config error: iters must be at least 1, got 0\n"
    assert out.read_bytes() == b"earlier run\n"


@pytest.mark.parametrize("flag", ["--json", "--csv"])
def test_failed_bench_leaves_no_new_output_file(flag, tmp_path, capsys):
    out = tmp_path / "new"
    assert cli.main(["bench", "--iters", "0", flag, str(out)]) == 3
    assert capsys.readouterr().err == "config error: iters must be at least 1, got 0\n"
    assert not out.exists()
    # nor does a run that stops at the other output's unwritable path
    other = "--csv" if flag == "--json" else "--json"
    assert cli.main(["bench", flag, str(out), other, str(tmp_path / "missing" / "x")]) == 2
    assert capsys.readouterr().err.startswith("input error: cannot write ")
    assert not out.exists()


def test_bench_unwritable_csv_exit_2(small_cfg, tmp_path):
    csv = tmp_path / "missing" / "bench.csv"
    r = run_cli("bench", "--config", small_cfg, "--backend", "reference", "--iters", "1",
                "--csv", str(csv))
    assert_unwritable_output_exit_2(r, csv)


def test_bench_unwritable_csv_fails_before_the_run(small_cfg, tmp_path, monkeypatch,
                                                    capsys):
    def not_called(*args, **kwargs):
        raise AssertionError("the benchmark ran before the CSV path was checked")

    monkeypatch.setattr(bench, "run_benchmarks", not_called)  # cmd_bench imports it on use
    csv = tmp_path / "missing" / "bench.csv"
    assert cli.main(["bench", "--config", small_cfg, "--csv", str(csv)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"input error: cannot write {csv}: ")


def test_bench_json_matches_the_table(small_cfg, tmp_path):
    out, csv = tmp_path / "bench.json", tmp_path / "bench.csv"
    r = run_cli("bench", "--config", small_cfg, "--backend", "optimized", "--iters", "2",
                "--json", str(out), "--csv", str(csv))
    assert r.returncode == 0, r.stderr
    doc = json.loads(out.read_text())
    header = r.stdout.splitlines()[:3]
    assert header[1] == (f"# config_hash={doc['config_hash']} seed={doc['seed']} "
                         f"iters={doc['iterations']} warmup={doc['warmup']}")
    assert header[2] == "# " + " ".join(f"{k}={v}" for k, v in doc["environment"].items())
    # the allocator policy in effect in the CLI process is in both headers
    assert re.fullmatch(r"keep-freed:\S+|environment:\S+|default",
                        doc["environment"]["malloc"])
    assert re.search(r" malloc=\S+ OMP_NUM_THREADS=", header[2])
    # every case, with the CSV's columns (all but the derived macs_per_s)
    cols, *rows = [ln.split(",") for ln in csv.read_text().splitlines()]
    assert len(doc["cases"]) == len(rows)
    for case, row in zip(doc["cases"], rows):
        assert [f"{case[k]:.4f}" if isinstance(case[k], float) else str(case[k])
                for k in cols[:-1]] == row[:-1]
    assert doc["src_lines"] == sum(p.read_bytes().count(b"\n")
                                   for p in (REPO / "src" / "combnet").glob("*.py"))
    assert doc["git_commit"] == bench._git_commit()


def test_bench_git_commit_is_read_from_the_git_directory(tmp_path):
    sha = "0123456789abcdef0123456789abcdef01234567"
    pkg = tmp_path / "repo" / "src" / "pkg"
    pkg.mkdir(parents=True)
    assert bench._git_commit(pkg) is None
    git = tmp_path / "repo" / ".git"
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    (git / "packed-refs").write_text(f"# pack-refs with: peeled\n{sha} refs/heads/main\n")
    assert bench._git_commit(pkg) == sha
    (git / "refs" / "heads" / "main").write_text(sha[::-1] + "\n")  # a loose ref wins
    assert bench._git_commit(pkg) == sha[::-1]
    (git / "HEAD").write_text(sha + "\n")  # detached
    assert bench._git_commit(pkg) == sha
    # a worktree's `.git` file names its git directory, whose branch refs
    # live in the main one
    wt, wt_git = tmp_path / "wt", git / "worktrees" / "wt"
    (wt / "pkg").mkdir(parents=True)
    wt_git.mkdir(parents=True)
    (wt / ".git").write_text(f"gitdir: {wt_git}\n")
    (wt_git / "HEAD").write_text("ref: refs/heads/main\n")
    (wt_git / "commondir").write_text("../..\n")
    assert bench._git_commit(wt / "pkg") == sha[::-1]


def test_bench_unwritable_json_fails_before_the_run(small_cfg, tmp_path, monkeypatch,
                                                     capsys):
    def not_called(*args, **kwargs):
        raise AssertionError("the benchmark ran before the JSON path was checked")

    monkeypatch.setattr(bench, "run_benchmarks", not_called)
    out = tmp_path / "missing" / "bench.json"
    assert cli.main(["bench", "--config", small_cfg, "--json", str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"input error: cannot write {out}: ")


def test_bench_unknown_backend_rejected(small_cfg):
    r = run_cli("bench", "--config", small_cfg, "--backend", "magic")
    assert r.returncode == 2  # argparse usage error


# ---------------------------------------------------------------------------
# infer
# ---------------------------------------------------------------------------

def test_infer_deterministic_json(small_cfg, infer_inputs):
    args = ("infer", "--config", small_cfg,
            "--weights", str(infer_inputs / "w.cnwb"),
            "--amplitude", str(infer_inputs / "amp.pgm"),
            "--depth", str(infer_inputs / "depth.pgm"))
    a, b = run_cli(*args), run_cli(*args)
    assert a.returncode == 0
    assert a.stdout == b.stdout
    doc = json.loads(a.stdout)
    assert set(doc) == {"hands", "early_out"}
    assert len(doc["hands"]) == 2
    assert len(doc["hands"][0]["keypoints"]) == 8


def test_infer_duplicate_entry_name_exit_2(small_cfg, infer_inputs, tmp_path):
    # a second `t1.conv.w` entry, with the layer count raised to match
    blob = (infer_inputs / "w.cnwb").read_bytes()
    (count,) = struct.unpack_from("<I", blob, 8)
    w = np.zeros((16, 1, 3, 3), "<f4")
    entry = struct.pack("<H", 9) + b"t1.conv.w" + struct.pack("<BB4I", 0, 4, *w.shape)
    body = blob[:8] + struct.pack("<I", count + 1) + blob[12:-4] + entry + w.tobytes()
    bad = tmp_path / "dup.cnwb"
    bad.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    r = run_cli("infer", "--config", small_cfg, "--weights", str(bad),
                "--amplitude", str(infer_inputs / "amp.pgm"),
                "--depth", str(infer_inputs / "depth.pgm"))
    assert r.returncode == 2
    assert r.stdout == ""
    assert len(r.stderr.splitlines()) == 1
    assert r.stderr.startswith("input error: duplicate entry name 't1.conv.w'")


def test_infer_from_phases(small_cfg, infer_inputs):
    phases = ",".join(str(infer_inputs / f"p{i}.pgm") for i in range(4))
    r = run_cli("infer", "--config", small_cfg,
                "--weights", str(infer_inputs / "w.cnwb"),
                "--phases", phases,
                "--depth", str(infer_inputs / "depth.pgm"))
    assert r.returncode == 0
    json.loads(r.stdout)


def _frame_lines(d):
    phases = ",".join(shlex.quote(str(d / f"p{i}.pgm")) for i in range(4))
    return [f"--phases {phases} --depth {shlex.quote(str(d / 'depth.pgm'))}",
            f"--amplitude '{d / 'amp.pgm'}' --depth {d / 'depth.pgm'}"]


@pytest.mark.parametrize("backend", ["optimized", "reference"])
def test_stream_writes_each_frames_infer_document_as_one_line(
        backend, small_cfg, infer_inputs, tmp_path, monkeypatch, capsys):
    lines = _frame_lines(infer_inputs)
    monkeypatch.setattr(sys, "stdin", io.StringIO(f"{lines[0]}\n\n  \n{lines[1]}\n"))
    assert cli.main(["stream", "--config", small_cfg, "--backend", backend,
                     "--weights", str(infer_inputs / "w.cnwb")]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    streamed = out.splitlines()
    assert len(streamed) == 2  # blank lines are skipped
    for line, doc in zip(lines, streamed):
        out_path = tmp_path / "one.json"
        assert cli.main(["infer", "--config", small_cfg, "--backend", backend,
                         "--weights", str(infer_inputs / "w.cnwb"), "--out", str(out_path),
                         *shlex.split(line)]) == 0
        expected = json.loads(out_path.read_text())
        assert doc == json.dumps(expected, sort_keys=True)


@pytest.mark.parametrize("bad, message", [
    ("--depth {d}/depth.pgm", "one of the arguments --amplitude --phases is required"),
    ("--amplitude {d}/amp.pgm --depth {d}/depth.pgm --bogus", "unrecognized arguments"),
    ("--amplitude '{d}/amp.pgm --depth {d}/depth.pgm", "No closing quotation"),
    ("--phases {d}/p0.pgm,{d}/p1.pgm --depth {d}/depth.pgm", "--phases needs 4"),
    ("--amplitude {d}/missing.pgm --depth {d}/depth.pgm", ""),
    ("--amplitude {d}/amp\x00.pgm --depth {d}/depth.pgm", "embedded null byte")],
    ids=["no-image", "unknown-flag", "open-quote", "three-phases", "missing-file",
         "nul-in-path"])
def test_stream_bad_frame_line_exit_2(bad, message, small_cfg, infer_inputs,
                                      monkeypatch, capsys):
    good = _frame_lines(infer_inputs)[1]
    stdin = f"{good}\n{bad.format(d=infer_inputs)}\n{good}\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    assert cli.main(["stream", "--config", small_cfg,
                     "--weights", str(infer_inputs / "w.cnwb")]) == 2
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 1  # the frame before the bad line
    assert len(err.splitlines()) == 1
    assert err.startswith("input error: frame 2: ")
    assert message in err


def test_stream_reads_paths_that_are_not_utf8(small_cfg, infer_inputs, tmp_path,
                                              monkeypatch, capsys):
    name = b"amp-\xff.pgm"
    try:
        (tmp_path / os.fsdecode(name)).write_bytes((infer_inputs / "amp.pgm").read_bytes())
    except (OSError, UnicodeError):
        pytest.skip("the file system takes no such name")
    line = (b"--amplitude " + os.fsencode(tmp_path) + b"/" + name
            + b" --depth " + os.fsencode(infer_inputs / "depth.pgm") + b"\n")
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(line), "utf-8"))
    assert cli.main(["stream", "--config", small_cfg,
                     "--weights", str(infer_inputs / "w.cnwb")]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1


@pytest.fixture(scope="module")
def stream32(tmp_path_factory):
    """A directory holding a 32x32 config `c.cfg`, seeded weights `w.cnwb`
    and 32x32 images `amp`, `depth` and `p0`-`p3` (`.pgm`)."""
    d = tmp_path_factory.mktemp("stream32")
    (d / "c.cfg").write_text("input_h = 32\ninput_w = 32\n")
    save_weights(init_weights(build_graph(NetConfig(input_h=32, input_w=32)), 5),
                 d / "w.cnwb")
    rng = np.random.default_rng(9)
    for name in ("amp", "depth", "p0", "p1", "p2", "p3"):
        write_pgm16(d / f"{name}.pgm", rng.integers(80, 65536, (32, 32)).astype(np.uint16))
    return d


@st.composite
def stream_inputs(draw, d):
    """stdin bytes for `stream`: lines built from the frame flags, the
    fixture's paths, commas, quotes and arbitrary bytes, or raw bytes."""
    paths = [os.fsencode(d / f"{n}.pgm") for n in ("amp", "depth", "p0", "p1", "p2", "p3")]
    phases = b",".join(paths[2:])
    path = st.one_of(
        st.sampled_from([*paths, phases, b",".join(paths[2:5])]),
        st.builds(lambda p, junk, at: p[:at] + junk + p[at:],
                  st.sampled_from([*paths, phases]), st.binary(min_size=1, max_size=4),
                  st.integers(0, 80)))
    token = st.one_of(
        st.sampled_from([b"--amplitude", b"--phases", b"--depth", b"--amp", b"--d",
                         b"--bogus", b"-", b"--", b"'", b'"', b"\\", b","]),
        path, st.binary(max_size=8))
    # the flag skeleton of a frame, each path intact or with bytes inserted
    frame = st.builds(lambda flag, image, depth: flag + b" " + image + b" --depth " + depth,
                      st.sampled_from([b"--amplitude", b"--phases"]), path, path)
    good = st.sampled_from([b"--amplitude " + paths[0] + b" --depth " + paths[1],
                            b"--phases " + phases + b" --depth " + paths[1]])
    line = st.one_of(good, frame, st.lists(token, max_size=6).map(b" ".join),
                     st.binary(max_size=40))
    return b"\n".join(draw(st.lists(line, min_size=1, max_size=4))) + b"\n"


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_stream_fuzzed_stdin_exits_cleanly(stream32, data):
    # any stdin ends in exit 0 with one JSON line per frame, or in exit 2
    # after one JSON line per frame before the bad one and one error line
    stdin = data.draw(stream_inputs(stream32))
    # frames as `stream` reads them: non-blank lines of the decoded text
    lines = list(io.TextIOWrapper(io.BytesIO(stdin), "utf-8", errors="surrogateescape"))
    frames = [n for n, line in enumerate(lines, 1) if line.strip()]
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, redirect_stdout(out), redirect_stderr(err):
        mp.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(stdin), "utf-8"))
        rc = cli.main(["stream", "--config", str(stream32 / "c.cfg"),
                       "--weights", str(stream32 / "w.cnwb")])
    assert rc in (0, 2)
    written = out.getvalue().split("\n")
    assert written.pop() == ""
    for doc in written:
        json.loads(doc)
    if rc == 0:
        assert err.getvalue() == ""
        assert len(written) == len(frames)
    else:
        message = err.getvalue()
        bad = re.match(r"input error: frame (\d+): ", message)
        assert bad and message.count("\n") == 1 and message.endswith("\n"), message
        assert len(written) == sum(n < int(bad.group(1)) for n in frames)


def test_stream_invalid_weights_exit_2_before_any_frame(small_cfg, infer_inputs,
                                                        tmp_path, monkeypatch, capsys):
    bad = tmp_path / "bad.cnwb"
    bad.write_bytes((infer_inputs / "w.cnwb").read_bytes()[:-1])
    monkeypatch.setattr(sys, "stdin", io.StringIO(_frame_lines(infer_inputs)[0] + "\n"))
    assert cli.main(["stream", "--config", small_cfg, "--weights", str(bad)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("input error: ")
    assert len(err.splitlines()) == 1


def test_infer_crafted_early_out(small_cfg, infer_inputs, tmp_path):
    # large negative hand-visibility biases force both hands absent
    g = build_graph(NetConfig(input_h=96, input_w=96))
    ws = init_weights(g, 7)
    bias = ws.get("head.vis.b").copy()
    bias[16:] = -1000.0
    ws.set("head.vis.b", bias)
    wpath = tmp_path / "earlyout.cnwb"
    save_weights(ws, wpath)
    r = run_cli("infer", "--config", small_cfg, "--weights", str(wpath),
                "--amplitude", str(infer_inputs / "amp.pgm"),
                "--depth", str(infer_inputs / "depth.pgm"))
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["early_out"] is True
    assert all(not h["present"] for h in doc["hands"])


@pytest.mark.parametrize("entry", ["head.kp.b", "head.vis.b", "*.w"])
def test_infer_non_finite_output_exit_2(small_cfg, infer_inputs, tmp_path, entry):
    # a NaN bias makes that head non-finite, and so does every kernel scaled
    # by 1e6 (float32 overflows part-way): neither NaN in the JSON, a silent
    # early-out nor a numpy warning, but one input-error line and no output
    g = build_graph(NetConfig(input_h=96, input_w=96))
    ws = init_weights(g, 7)
    if entry == "*.w":
        for name in [n for n in ws.entries if n.endswith(".w")]:
            ws.set(name, ws.get(name) * 1e6)
    else:
        bias = ws.get(entry).copy()
        bias[0] = np.nan
        ws.set(entry, bias)
    wpath = tmp_path / "nan.cnwb"
    save_weights(ws, wpath)
    args = ("infer", "--config", small_cfg, "--weights", str(wpath),
            "--amplitude", str(infer_inputs / "amp.pgm"),
            "--depth", str(infer_inputs / "depth.pgm"))
    out = tmp_path / "result.json"
    for r in (run_cli(*args, "--backend", "reference"), run_cli(*args),
              run_cli(*args, "--out", str(out))):
        assert r.returncode == 2
        assert r.stdout == ""
        assert len(r.stderr.splitlines()) == 1
        assert r.stderr.startswith("input error: ")
    assert not out.exists()


def test_infer_wrong_shaped_entry_is_an_input_error(small_cfg, infer_inputs, tmp_path):
    g = build_graph(NetConfig(input_h=96, input_w=96))
    ws = init_weights(g, 7)
    ws.set("t1.conv.w", np.zeros((3, 3), np.float32))
    save_weights(ws, tmp_path / "bad.cnwb")
    r = run_cli("infer", "--config", small_cfg, "--weights", str(tmp_path / "bad.cnwb"),
                "--amplitude", str(infer_inputs / "amp.pgm"),
                "--depth", str(infer_inputs / "depth.pgm"))
    assert r.returncode == 2
    assert r.stdout == ""
    assert len(r.stderr.splitlines()) == 1
    assert r.stderr.startswith("input error: weight store invalid")


@pytest.mark.parametrize("scale", [-1.0, np.nan], ids=["negative", "nan"])
@pytest.mark.parametrize("backend", ["reference", "optimized"])
def test_infer_bad_bn_variance_is_an_input_error(small_cfg, infer_inputs, tmp_path,
                                                 backend, scale):
    # the fault is in the weight file: not a config error (negative) nor a
    # non-finite heatmap (NaN)
    g = build_graph(NetConfig(input_h=96, input_w=96))
    ws = init_weights(g, 7)
    ws.set("t1.conv.bn.v", ws.get("t1.conv.bn.v") * np.float32(scale))
    save_weights(ws, tmp_path / "bad.cnwb")
    r = run_cli("infer", "--config", small_cfg, "--weights", str(tmp_path / "bad.cnwb"),
                "--amplitude", str(infer_inputs / "amp.pgm"),
                "--depth", str(infer_inputs / "depth.pgm"), "--backend", backend)
    assert r.returncode == 2
    assert r.stdout == ""
    assert len(r.stderr.splitlines()) == 1
    assert r.stderr.startswith("input error: weight store invalid")


def _inference_only(g, ws):
    """The store's entries that the inference subgraph reads."""
    keep = {name for node in g.nodes_for(Mode.INFERENCE_HEADS)
            for name, _ in param_entries(node)}
    return WeightStore({n: a for n, a in ws.entries.items() if n in keep})


def test_infer_accepts_inference_only_weights(small_cfg, infer_inputs, tmp_path):
    # the deployable file holds only the entries of the inference subgraph
    g = build_graph(NetConfig(input_h=96, input_w=96))
    ws = init_weights(g, 7)
    slim = _inference_only(g, ws)
    assert "ds8.head.w" in ws and "ds8.head.w" not in slim

    def infer(wpath):
        return run_cli("infer", "--config", small_cfg, "--weights", str(wpath),
                       "--amplitude", str(infer_inputs / "amp.pgm"),
                       "--depth", str(infer_inputs / "depth.pgm"))
    save_weights(slim, tmp_path / "slim.cnwb")
    r = infer(tmp_path / "slim.cnwb")
    assert r.returncode == 0, r.stderr
    assert r.stdout == infer(infer_inputs / "w.cnwb").stdout
    # an all-heads pass still needs the training heads' entries
    img = Tensor.from_array(np.zeros((1, 96, 96), np.float32))
    with pytest.raises(ShapeMismatchError, match="ds8.head.w"):
        forward(g, slim, img, Backend.REFERENCE, Mode.ALL_HEADS)
    # while an inference pass still needs every inference entry
    del slim.entries["head.kp.w"]
    save_weights(slim, tmp_path / "short.cnwb")
    r = infer(tmp_path / "short.cnwb")
    assert r.returncode == 2
    assert r.stdout == ""
    assert "head.kp.w" in r.stderr


@pytest.mark.parametrize("dims", [(0, 96), (96, 0)], ids=["no-rows", "no-cols"])
def test_infer_empty_phase_images_exit_2(small_cfg, infer_inputs, tmp_path, capsys, dims):
    for i in range(4):
        write_pgm16(tmp_path / f"p{i}.pgm", np.zeros(dims, np.uint16))
    out = tmp_path / "result.json"
    rc = cli.main(["infer", "--config", small_cfg,
                   "--weights", str(infer_inputs / "w.cnwb"),
                   "--phases", ",".join(str(tmp_path / f"p{i}.pgm") for i in range(4)),
                   "--depth", str(infer_inputs / "depth.pgm"), "--out", str(out)])
    assert rc == 2
    stdout, stderr = capsys.readouterr()
    assert stdout == ""
    assert len(stderr.splitlines()) == 1
    assert stderr.startswith("input error: phase images are empty")
    assert not out.exists()


def test_infer_missing_depth_no_partial_output(small_cfg, infer_inputs, tmp_path):
    out = tmp_path / "result.json"
    r = run_cli("infer", "--config", small_cfg,
                "--weights", str(infer_inputs / "w.cnwb"),
                "--amplitude", str(infer_inputs / "amp.pgm"),
                "--depth", str(infer_inputs / "missing.pgm"),
                "--out", str(out))
    assert r.returncode == 2
    assert not out.exists()


def test_infer_out_is_a_directory_exit_2(small_cfg, infer_inputs, tmp_path):
    r = run_cli("infer", "--config", small_cfg,
                "--weights", str(infer_inputs / "w.cnwb"),
                "--amplitude", str(infer_inputs / "amp.pgm"),
                "--depth", str(infer_inputs / "depth.pgm"),
                "--out", str(tmp_path))
    assert_unwritable_output_exit_2(r, tmp_path)


def test_infer_corrupt_weights_exit_2(small_cfg, infer_inputs, tmp_path):
    blob = bytearray((infer_inputs / "w.cnwb").read_bytes())
    blob[50] ^= 0xFF
    bad = tmp_path / "bad.cnwb"
    bad.write_bytes(bytes(blob))
    r = run_cli("infer", "--config", small_cfg, "--weights", str(bad),
                "--amplitude", str(infer_inputs / "amp.pgm"),
                "--depth", str(infer_inputs / "depth.pgm"))
    assert r.returncode == 2
    assert "input error" in r.stderr


def test_infer_overflowing_entry_dims_exit_2(small_cfg, infer_inputs, tmp_path):
    # (2^31, 2^31, 4) elements wrap to 0 in 64-bit arithmetic
    body = b"CNWB" + struct.pack("<IIH", 1, 1, 1) + b"w"
    body += struct.pack("<BB3I", 0, 3, 2**31, 2**31, 4) + bytes(16)
    bad = tmp_path / "overflow.cnwb"
    bad.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    r = run_cli("infer", "--config", small_cfg, "--weights", str(bad),
                "--amplitude", str(infer_inputs / "amp.pgm"),
                "--depth", str(infer_inputs / "depth.pgm"))
    assert r.returncode == 2
    assert len(r.stderr.splitlines()) == 1
    assert r.stderr.startswith("input error: ")


def test_infer_backends_agree(small_cfg, infer_inputs):
    base = ("infer", "--config", small_cfg,
            "--weights", str(infer_inputs / "w.cnwb"),
            "--amplitude", str(infer_inputs / "amp.pgm"),
            "--depth", str(infer_inputs / "depth.pgm"))
    ref = run_cli(*base, "--backend", "reference")
    opt = run_cli(*base, "--backend", "optimized")
    a, b = json.loads(ref.stdout), json.loads(opt.stdout)
    for ha, hb in zip(a["hands"], b["hands"]):
        assert ha["present"] == hb["present"]
        for ka, kb in zip(ha["keypoints"], hb["keypoints"]):
            assert (ka["u"], ka["v"]) == (kb["u"], kb["v"])


@st.composite
def pgm_blobs(draw):
    """Bounded PGM-like bytes: arbitrary bytes with or without the P5 magic,
    or a P5 header with small (possibly zero) dims, a maxval on either side
    of 255 or out of range, and pixel data a little short, exact or long."""
    if draw(st.booleans()):
        return draw(st.sampled_from([b"", b"P5", b"P5\n"])) + draw(st.binary(max_size=64))
    w, h = draw(st.integers(0, 32)), draw(st.integers(0, 32))
    maxval = draw(st.sampled_from([0, 1, 255, 256, 65535, 65536]))
    sep = draw(st.sampled_from([b" ", b"\n", b"\t\r\n", b"\n# comment\n"]))
    end = draw(st.sampled_from([b"\n", b" ", b""]))
    head = b"P5" + sep + sep.join(str(v).encode() for v in (w, h, maxval)) + end
    need = w * h * (2 if maxval > 255 else 1)
    pixels = draw(st.binary(min_size=max(0, need - 2), max_size=need + 2))
    return head + pixels


@settings(max_examples=60, deadline=None)
@given(blob=pgm_blobs(), role=st.sampled_from(["amplitude", "depth"]))
@example(blob=b"P5 " + b"9" * 5000 + b" 1 255\n", role="amplitude")
def test_infer_fuzzed_pgm_exits_cleanly(small_cfg, infer_inputs, blob, role):
    # any PGM bytes, as either input image, end in a documented exit code:
    # JSON on stdout and nothing on stderr, or one stderr line and no stdout
    fuzzed = infer_inputs / "fuzzed.pgm"
    fuzzed.write_bytes(blob)
    images = {"amplitude": infer_inputs / "amp.pgm", "depth": infer_inputs / "depth.pgm",
              role: fuzzed}
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(["infer", "--config", small_cfg,
                       "--weights", str(infer_inputs / "w.cnwb"),
                       "--amplitude", str(images["amplitude"]),
                       "--depth", str(images["depth"])])
    assert rc in (0, 2, 3)
    if rc == 0:
        json.loads(out.getvalue())
        assert err.getvalue() == ""
    else:
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1


@pytest.fixture(scope="module")
def slim_cnwb(infer_inputs):
    """The path of a valid inference-only weight file."""
    g = build_graph(NetConfig(input_h=96, input_w=96))
    path = infer_inputs / "slim.cnwb"
    save_weights(_inference_only(g, init_weights(g, 7)), path)
    return path


def _cnwb_entries(blob):
    """Per entry of a valid weight file, the offsets of its name length,
    name, ndim and data, its name length and its dims."""
    entries, pos = [], 12
    for _ in range(struct.unpack_from("<I", blob, 8)[0]):
        (name_len,) = struct.unpack_from("<H", blob, pos)
        ndim = blob[pos + 3 + name_len]
        dims = struct.unpack_from(f"<{ndim}I", blob, pos + 4 + name_len)
        data = pos + 4 + name_len + 4 * ndim
        entries.append((pos, pos + 2, name_len, pos + 3 + name_len, dims, data))
        pos = data + 4 * math.prod(dims)
    return entries


_MUTATIONS = ["flip", "truncate", "name", "name_len", "ndim", "dim", "scale"]
_SCALES = [0.0, -1.0, 1e3, 1e6, 1e30, np.inf, np.nan]


def _mutate_cnwb(blob, ops, fix_crc):
    """Apply (kind, where, value) edits to a valid weight file's body, then
    end it with the body's CRC (`fix_crc`) or the original one."""
    entries, b = _cnwb_entries(blob), bytearray(blob[:-4])
    for kind, where, value in ops:
        if not b:
            break
        hdr, name, name_len, ndim_at, dims, data = entries[where % len(entries)]
        if kind == "flip":
            b[where % len(b)] ^= 1 + value % 255
        elif kind == "truncate":
            del b[where % len(b):]
        elif data + 4 * math.prod(dims) > len(b):
            continue  # the entry was truncated away
        elif kind == "name":
            b[name + value % name_len] = (value >> 8) & 0xFF
        elif kind == "name_len":
            struct.pack_into("<H", b, hdr, value % 64)
        elif kind == "ndim":
            b[ndim_at] = value % 8
        elif kind == "dim":
            d = dims[value % len(dims)]
            new = [0, 1, d - 1, d + 1, 2 * d, 2**31, 2**32 - 1][(value >> 8) % 7]
            struct.pack_into("<I", b, ndim_at + 1 + 4 * (value % len(dims)), new)
        else:
            n = math.prod(dims)
            with np.errstate(over="ignore", invalid="ignore"):
                scaled = np.frombuffer(b, "<f4", n, data) * np.float32(_SCALES[value % 7])
            b[data:data + 4 * n] = scaled.astype("<f4").tobytes()
    crc = struct.pack("<I", zlib.crc32(bytes(b))) if fix_crc else blob[-4:]
    return bytes(b) + crc


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(st.tuples(st.sampled_from(_MUTATIONS), st.integers(0, 2**20),
                              st.integers(0, 2**16)), min_size=1, max_size=3),
       fix_crc=st.integers(0, 4).map(bool))
@example(ops=[("scale", 0, 3)], fix_crc=True)
@example(ops=[("name", 0, ord("x") << 8)], fix_crc=True)
def test_infer_fuzzed_weights_exit_cleanly(small_cfg, infer_inputs, slim_cnwb, ops, fix_crc):
    # any edit of a valid weight file ends in a documented exit code: JSON
    # on stdout and nothing on stderr, or one stderr line and no stdout
    fuzzed = infer_inputs / "fuzzed.cnwb"
    fuzzed.write_bytes(_mutate_cnwb(slim_cnwb.read_bytes(), ops, fix_crc))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(["infer", "--config", small_cfg, "--weights", str(fuzzed),
                       "--amplitude", str(infer_inputs / "amp.pgm"),
                       "--depth", str(infer_inputs / "depth.pgm")])
    assert rc in (0, 2, 3)
    if rc == 0:
        json.loads(out.getvalue())
        assert err.getvalue() == ""
    else:
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1


_CONFIG_KEYS = [f.name for f in fields(NetConfig)]
_CONFIG_VALUES = st.one_of(
    st.integers(0, 20).map(str),
    st.sampled_from([8, 16, 32, 64, 96, 128, 160, -8]).map(str),
    st.floats(0, 1).map(repr),
    st.floats(-1e3, 1e3).map(repr),
    st.lists(st.integers(-2, 20), min_size=1, max_size=5).map(
        lambda vs: ", ".join(map(str, vs))),
    st.sampled_from(["", "x", "1e400", "-1e400", "nan", "inf", "1_6", "0x10", "1,",
                     ", 1", "true", "(1, 2)", "9" * 40, "1e-320",
                     "1e30, 1e30, 1e30, 1e30"]))


def _near_default(key):
    """Values a config might really hold for `key`: its default, half or
    twice it, a fraction for reals, a list of the default's length."""
    v = getattr(REFERENCE_CONFIG, key)
    if isinstance(v, tuple):
        return st.lists(st.integers(0, 20), min_size=len(v), max_size=len(v)).map(
            lambda vs: ", ".join(map(str, vs)))
    if isinstance(v, float):
        return st.one_of(st.just(repr(v)), st.floats(0.01, 0.99).map(repr))
    return st.sampled_from(sorted({v, max(1, v // 2), 2 * v})).map(str)


@st.composite
def config_texts(draw):
    """Bounded config text: up to four lines, mostly `key = value` over
    NetConfig's keys with values near the defaults, some with junk keys,
    malformed or commented out, or with small numbers, lists, non-finite or
    junk values."""
    lines = []
    for _ in range(draw(st.integers(0, 4))):
        junk = draw(st.integers(0, 9)) == 0
        key = (draw(st.text("abcdefghijklmnopqrstuvwxyz_ =#", max_size=10)) if junk
               else draw(st.sampled_from(_CONFIG_KEYS)))
        plausible = not junk and draw(st.integers(0, 2)) > 0
        value = draw(_near_default(key) if plausible else _CONFIG_VALUES)
        form = draw(st.sampled_from(["{k} = {v}"] * 6 + [
            "{k}={v}", "{k} = {v}  # note", "# {k} = {v}", "{k} {v}", "{v}"]))
        lines.append(form.format(k=key, v=value))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))


@settings(max_examples=60, deadline=None)
@given(text=config_texts())
@example(text="input_h = 8\ninput_w = 8\n")
@example(text="amplitude_coeffs = 1e300, 1e300, 1e300, 1e300\n")
@example(text="input_h = 1048576\ninput_w = 1048576\n")
def test_infer_fuzzed_config_exits_cleanly(infer_inputs, text):
    # any config text ends in a documented exit code: JSON on stdout and
    # nothing on stderr, or one stderr line and no stdout
    cfg = infer_inputs / "fuzzed.cfg"
    cfg.write_text(text, encoding="utf-8")
    phases = ",".join(str(infer_inputs / f"p{i}.pgm") for i in range(4))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(["infer", "--config", str(cfg),
                       "--weights", str(infer_inputs / "w.cnwb"),
                       "--phases", phases, "--depth", str(infer_inputs / "depth.pgm")])
    assert rc in (0, 2, 3)
    if rc == 0:
        json.loads(out.getvalue())
        assert err.getvalue() == ""
    else:
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1


# ---------------------------------------------------------------------------
# allocator policy
# ---------------------------------------------------------------------------

def _on_glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


needs_glibc = pytest.mark.skipif(not _on_glibc(), reason="a glibc malloc policy")


@pytest.fixture
def fresh_policy(monkeypatch):
    """The policy not yet applied in this process, which started with no
    malloc setting; the earlier state comes back after the test."""
    monkeypatch.setattr(combnet, "_kept_freed", None)
    monkeypatch.setattr(combnet, "_start_environment", lambda: {})


def spy_mallopt(monkeypatch, mallopt):
    """Route the policy's `ctypes.CDLL(None).mallopt` through `mallopt`;
    returns the list of (param, value, returned) of its calls."""
    calls = []

    class Libc:
        @staticmethod
        def mallopt(param, value):
            calls.append((param, value, mallopt(param, value)))
            return calls[-1][-1]

    monkeypatch.setattr(ctypes, "CDLL", lambda name: Libc)
    return calls


def _infer_args(small_cfg, infer_inputs, out):
    return ["infer", "--config", small_cfg, "--weights", str(infer_inputs / "w.cnwb"),
            "--phases", ",".join(str(infer_inputs / f"p{i}.pgm") for i in range(4)),
            "--depth", str(infer_inputs / "depth.pgm"), "--out", str(out)]


@needs_glibc
def test_infer_frames_in_one_process_take_no_page_faults(small_cfg, infer_inputs,
                                                         tmp_path, fresh_policy):
    # glibc's default returns each frame's freed 128 KB+ temporaries to the
    # kernel, and the next frame faults them in again
    args = _infer_args(small_cfg, infer_inputs, tmp_path / "r.json")
    for _ in range(10):
        assert cli.main(args) == 0
    frames = 50
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(frames):
        cli.main(args)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults / frames < 10


@needs_glibc
def test_stream_frames_take_no_page_faults(small_cfg, infer_inputs, fresh_policy,
                                           monkeypatch, capsys):
    warmup, frames, faults = 10, 50, []

    def stdin():
        line = _frame_lines(infer_inputs)[0] + "\n"
        for i in range(warmup + frames):
            if i == warmup:
                faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
            yield line
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)

    monkeypatch.setattr(sys, "stdin", stdin())
    assert cli.main(["stream", "--config", small_cfg,
                     "--weights", str(infer_inputs / "w.cnwb")]) == 0
    assert len(capsys.readouterr().out.splitlines()) == warmup + frames
    assert (faults[1] - faults[0]) / frames < 10


def _forwards_96(backend, mode):
    """A function that runs n library forwards at 96x96 (with a plan on the
    optimized backend), keeping none of their outputs."""
    g = build_graph(NetConfig(input_h=96, input_w=96))
    ws = init_weights(g, 0)
    plan = prepare_optimized(g, ws, mode) if backend == Backend.OPTIMIZED else None
    image = Tensor.from_array(np.random.default_rng(0).random((1, 96, 96), dtype=np.float32))

    def run(n):
        for _ in range(n):
            forward(g, ws, image, backend, mode, prepared=plan)
    return run


@needs_glibc
def test_library_forwards_take_no_page_faults(fresh_policy):
    # a training loop's forwards, in a process that never runs `cli.main`; an
    # earlier test's `main` may have set the policy, so start from glibc's
    # 128 KiB thresholds
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    for param, _ in combnet.MALLOC_POLICY.values():
        assert mallopt(param, 128 << 10) == 1
    run, frames = _forwards_96(Backend.OPTIMIZED, Mode.ALL_HEADS), 50
    run(10)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run(frames)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    assert faults / frames < 10
    assert combnet.malloc_policy().startswith("keep-freed:")


def test_forward_keeps_a_malloc_policy_chosen_by_the_environment(fresh_policy,
                                                                monkeypatch):
    calls = spy_mallopt(monkeypatch, lambda param, value: 1)
    monkeypatch.setattr(combnet, "_start_environment",
                        lambda: {"MALLOC_TRIM_THRESHOLD_": "131072"})
    _forwards_96(Backend.OPTIMIZED, Mode.INFERENCE_HEADS)(1)
    assert calls == []
    assert combnet.malloc_policy() == "environment:MALLOC_TRIM_THRESHOLD_"


@needs_glibc
def test_reference_forward_applies_the_malloc_policy(fresh_policy, monkeypatch):
    calls = spy_mallopt(monkeypatch, ctypes.CDLL(None).mallopt)
    _forwards_96(Backend.REFERENCE, Mode.INFERENCE_HEADS)(2)
    # one accepted call per parameter, and none on the second forward
    assert calls == [(-3, 32 << 20, 1), (-1, 64 << 20, 1)]
    assert combnet.malloc_policy() == (
        "keep-freed:mmap_threshold=32MiB,trim_threshold=64MiB")


@pytest.mark.parametrize("var, value", [
    ("MALLOC_TRIM_THRESHOLD_", "131072"),
    ("MALLOC_MMAP_MAX_", "0"),
    ("GLIBC_TUNABLES", "glibc.malloc.mmap_threshold=131072"),
    ("GLIBC_TUNABLES", "glibc.rtld.nns=4:glibc.malloc.top_pad=0")])
def test_malloc_policy_chosen_by_the_environment_is_kept(var, value, fresh_policy,
                                                        monkeypatch, capsys):
    calls = spy_mallopt(monkeypatch, lambda param, value: 1)
    monkeypatch.setattr(combnet, "_start_environment", lambda: {var: value})
    assert cli.main(["count"]) == 0
    assert calls == []
    name = value.split(":")[-1].split("=")[0] if var == "GLIBC_TUNABLES" else var
    assert combnet.malloc_policy() == f"environment:{name}"


@pytest.mark.parametrize("var, value", [
    ("MALLOC_PERTURB_", "85"), ("MALLOC_CHECK_", "3"),
    ("GLIBC_TUNABLES", "glibc.malloc.perturb=85")])
def test_malloc_settings_that_set_no_threshold_leave_the_policy_on(
        var, value, fresh_policy, monkeypatch, capsys):
    calls = spy_mallopt(monkeypatch, lambda param, value: 1)
    monkeypatch.setattr(combnet, "_start_environment", lambda: {var: value})
    monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
    assert cli.main(["count"]) == 0
    assert [c[:2] for c in calls] == list(combnet.MALLOC_POLICY.values())
    assert combnet.malloc_policy() == "keep-freed:mmap_threshold=32MiB,trim_threshold=64MiB"


@pytest.mark.skipif(not Path("/proc/self/environ").is_file(), reason="Linux only")
def test_malloc_policy_reads_the_environment_the_process_started_with(monkeypatch):
    # glibc read its settings at start-up; a variable set later is not one
    monkeypatch.setenv("MALLOC_TOP_PAD_", "0")
    monkeypatch.delenv("PATH", raising=False)
    start = combnet._start_environment()
    assert "MALLOC_TOP_PAD_" not in start
    assert "PATH" in start


def test_malloc_policy_off_glibc_does_nothing(fresh_policy, monkeypatch, capsys):
    def not_glibc(name):
        raise ValueError(f"unrecognized configuration name {name!r}")

    calls = spy_mallopt(monkeypatch, lambda param, value: 1)
    monkeypatch.setattr(os, "confstr", not_glibc)
    assert cli.main(["count"]) == 0
    assert calls == []
    assert combnet.malloc_policy() == "default"


@pytest.mark.parametrize("accepted, policy", [
    (0, "default"), (1, "keep-freed:mmap_threshold=32MiB")])
def test_malloc_policy_stops_at_the_first_refused_parameter(accepted, policy,
                                                           fresh_policy, monkeypatch):
    calls = spy_mallopt(monkeypatch, lambda param, value: int(len(calls) < accepted))
    monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
    combnet.keep_freed_memory()
    assert len(calls) == accepted + 1
    assert combnet.malloc_policy() == policy


@needs_glibc
def test_malloc_policy_applied_once_per_process(fresh_policy, monkeypatch, capsys):
    calls = spy_mallopt(monkeypatch, ctypes.CDLL(None).mallopt)
    for _ in range(2):
        assert cli.main(["count"]) == 0
    # one accepted call per parameter, and none on the second `main`
    assert calls == [(-3, 32 << 20, 1), (-1, 64 << 20, 1)]
    assert combnet.malloc_policy() == (
        "keep-freed:mmap_threshold=32MiB,trim_threshold=64MiB")
