import json
import os
import re
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

from combnet.bench import run_benchmarks
from combnet.config import NetConfig
from combnet.errors import ShapeMismatchError
from combnet.forward import Backend, forward
from combnet.graph import Mode, build_graph, count_layers, param_entries
from combnet.pgm import write_pgm16
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
                                  "lane_width = 0", "input_h = -8", "input_h = 128.0"])
def test_count_out_of_range_config_exit_3(tmp_path, line):
    bad = tmp_path / "bad.cfg"
    bad.write_text(line + "\n")
    r = run_cli("count", "--config", str(bad))
    assert r.returncode == 3
    assert len(r.stderr.splitlines()) == 1
    assert r.stderr.startswith("config error: ")
    assert "Traceback" not in r.stderr


def test_count_doubled_tier3_heavier(tmp_path):
    big = tmp_path / "big.cfg"
    big.write_text("tier3_channels = 128\ntier3_bottleneck = 64\n")
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
    # perturbing the packed weights by 1e-2 must fail the equivalence suite
    from combnet.tensor import PackedWeights

    def perturb(pw):
        data = pw.data.copy()
        data[0] += 1e-2
        return PackedWeights(pw.out_ch, pw.in_ch_per_group, pw.kh, pw.kw,
                             pw.groups, pw.lane_width, data)

    results = conv_oracle_suite(5, cases=10, perturb_packed=perturb)
    packed = next(r for r in results if "packed" in r.name)
    assert not packed.passed


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
    # channel-wise decoder conv on both backends, counted at its MACs
    cw = [row for row in rows if row[0] == "channelwise-3x3-48x48"]
    assert sorted(row[1] for row in cw) == ["optimized", "reference"]
    i_mults, i_macs = header.index("mults_counted"), header.index("macs")
    for row in cw:
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


@pytest.mark.parametrize("entry", ["head.kp.b", "head.vis.b"])
def test_infer_non_finite_output_exit_2(small_cfg, infer_inputs, tmp_path, entry):
    # a NaN bias makes that head non-finite: neither NaN in the JSON nor a
    # silent early-out, but one input-error line and no output
    g = build_graph(NetConfig(input_h=96, input_w=96))
    ws = init_weights(g, 7)
    bias = ws.get(entry).copy()
    bias[0] = np.nan
    ws.set(entry, bias)
    wpath = tmp_path / "nan.cnwb"
    save_weights(ws, wpath)
    args = ("infer", "--config", small_cfg, "--weights", str(wpath),
            "--amplitude", str(infer_inputs / "amp.pgm"),
            "--depth", str(infer_inputs / "depth.pgm"))
    out = tmp_path / "result.json"
    for r in (run_cli(*args), run_cli(*args, "--out", str(out))):
        assert r.returncode == 2
        assert r.stdout == ""
        assert len(r.stderr.splitlines()) == 1
        assert r.stderr.startswith("input error: ")
    assert not out.exists()


def test_infer_accepts_inference_only_weights(small_cfg, infer_inputs, tmp_path):
    # the deployable file holds only the entries of the inference subgraph
    g = build_graph(NetConfig(input_h=96, input_w=96))
    ws = init_weights(g, 7)
    keep = {name for node in g.nodes_for(Mode.INFERENCE_HEADS)
            for name, _ in param_entries(node)}
    slim = WeightStore({n: a for n, a in ws.entries.items() if n in keep})
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
