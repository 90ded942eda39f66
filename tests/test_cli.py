import io
import json
import math
import os
import re
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

from combnet import bench, cli
from combnet.bench import run_benchmarks
from combnet.config import REFERENCE_CONFIG, NetConfig
from combnet.errors import ShapeMismatchError
from combnet.forward import Backend, forward
from combnet.graph import Mode, build_graph, count_layers, param_entries
from combnet.tensor import Tensor
from combnet.verify import conv_oracle_suite
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
    # count and infer run none of them; bench and verify import them on use
    r = subprocess.run(
        [sys.executable, "-c", "import sys, combnet.cli; print(sorted(m for m in "
         "('combnet.bench', 'combnet.verify', 'combnet.losses') if m in sys.modules))"],
        capture_output=True, text=True, cwd=REPO)
    assert r.returncode == 0, r.stderr
    assert r.stdout == "[]\n"


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
                                  "hands = 3"])
def test_count_out_of_range_config_exit_3(tmp_path, line):
    bad = tmp_path / "bad.cfg"
    bad.write_text(line + "\n")
    r = run_cli("count", "--config", str(bad))
    assert r.returncode == 3
    assert len(r.stderr.splitlines()) == 1
    assert r.stderr.startswith("config error: ")
    assert "Traceback" not in r.stderr


def assert_unwritable_output_exit_2(r, path):
    assert r.returncode == 2
    assert r.stdout == ""
    assert "Traceback" not in r.stderr
    assert len(r.stderr.splitlines()) == 1
    assert r.stderr.startswith(f"input error: cannot write {path}: ")


def test_count_unwritable_csv_exit_2(tmp_path):
    csv = tmp_path / "missing" / "count.csv"
    assert_unwritable_output_exit_2(run_cli("count", "--csv", str(csv)), csv)


def test_count_doubled_tier3_heavier(tmp_path):
    big = tmp_path / "big.cfg"
    big.write_text("tier3_bottleneck = 64\n")
    base = run_cli("count").stdout
    grown = run_cli("count", "--config", str(big)).stdout

    def total_params(text):
        for line in text.splitlines():
            if line.startswith("total (inference)"):
                return int(line.split()[2])
    assert total_params(grown) > total_params(base)


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


def test_verify_detects_injected_fault():
    # perturbing the packed weights by 1e-2 must fail both equivalence suites
    from combnet.tensor import PackedWeights

    def perturb(pw):
        taps = pw.taps.copy()
        taps[0, 0, 0, 0, 0] += 1e-2
        return PackedWeights(taps)

    results = conv_oracle_suite(5, cases=10, perturb_packed=perturb)
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


@pytest.mark.parametrize("args", [("bench", "--iters", "0"),
                                  ("verify", "--cases", "0"),
                                  ("verify", "--pairs", "0")])
def test_count_argument_below_one_exit_3(args):
    r = run_cli(*args)
    assert r.returncode == 3
    assert r.stdout == ""
    assert len(r.stderr.splitlines()) == 1
    assert r.stderr.startswith("config error: ")


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


def test_infer_from_phases(small_cfg, infer_inputs):
    phases = ",".join(str(infer_inputs / f"p{i}.pgm") for i in range(4))
    r = run_cli("infer", "--config", small_cfg,
                "--weights", str(infer_inputs / "w.cnwb"),
                "--phases", phases,
                "--depth", str(infer_inputs / "depth.pgm"))
    assert r.returncode == 0
    json.loads(r.stdout)


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
