"""The benchmark's own tests. Run from the repository root with

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))

TINY = {
    "infer-stream": lambda: workloads.InferStream(frames=2),
    "train-eval": lambda: workloads.TrainEval(frames=2),
    "verify-suite": lambda: workloads.VerifySuite(cases=2, pairs=1),
}
# per workload, layers that must show up in its traced run
EXPECTED_LAYERS = {
    "infer-stream": ("cli.cmd_infer.self_ms", "forward.prepare_optimized.busy_ms",
                     "weights.load_weights.busy_ms", "pgm.read_pgm16.bytes",
                     "convops.conv2d_packed.macs", "convops.comb_dilated_conv.d3.busy_ms",
                     "postprocess.lift_to_2_5d.busy_ms"),
    "train-eval": ("losses.frame_loss_bundle.busy_ms", "convops.comb_dilated_conv.d4.busy_ms",
                   "convops.conv2d_packed.gmac_per_s", "forward.forward.self_ms"),
    "verify-suite": ("convops.conv2d_ref.calls", "convops.batchnorm_inference.busy_ms",
                     "verify.conv_oracle_suite.busy_ms", "verify.bn_fold_suite.busy_ms",
                     "verify.backend_e2e_suite.busy_ms", "verify.loss_gradient_suite.busy_ms"),
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_prints_every_metric_with_its_unit(name, trace, tmp_path):
    result = run.run(TINY[name](), 3, 0.2, bool(trace), tmp_path)
    metrics = run.reported(result, bool(trace))
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(metrics) == [item["name"] for item in listed]
    for item in listed:
        got = metrics[item["name"]]
        assert got["unit"] == item["unit"], item["name"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    if trace:
        assert metrics["convops.useful_mac_ratio"]["value"] == 1.0
        assert metrics["convops.comb_dilated_conv.useful_mac_ratio"]["value"] == 1.0
        for layer in EXPECTED_LAYERS[name]:
            assert metrics[layer]["value"] > 0, layer
    else:
        assert all(v["value"] > 0 for v in metrics.values())


def test_command_line_prints_result_as_last_line():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train-eval",
                           "--seed", "5", "--seconds", "1", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    assert set(last["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train-eval",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_corrupt_weight_file_fails_ops_without_crashing(tmp_path):
    wl = workloads.InferStream(frames=2)
    run.set_up(wl, 4, tmp_path)
    weights = Path(wl.frames[0]["weights"])
    blob = bytearray(weights.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    weights.write_bytes(bytes(blob))
    res = run.measure(wl, 0.3)
    assert res["attempted"] >= 1 and res["failed"] == res["attempted"]
    assert "infer exit code 2" in res["errors"][0]


def test_perturbed_golden_fails_only_its_ops(tmp_path):
    wl = workloads.TrainEval(frames=2)
    run.set_up(wl, 4, tmp_path)
    wl.golden[0] *= 1.001
    res = run.measure(wl, 0.5)
    assert res["attempted"] >= 2
    assert res["failed"] == (res["attempted"] + 1) // 2     # ops 0, 2, 4, ...


def test_infer_check_catches_a_moved_keypoint(tmp_path):
    wl = workloads.InferStream(frames=1)
    run.set_up(wl, 6, tmp_path)
    golden = wl.golden[0]
    moved = json.loads(json.dumps(golden))
    kp = next(k for h in moved["hands"] for k in h["keypoints"])
    kp["u"] += 2.0
    assert workloads.compare_infer(golden, golden) is None
    assert "u:" in workloads.compare_infer(moved, golden)


def test_inputs_are_a_function_of_the_seed(tmp_path):
    def files(seed, where):
        gen.write_infer_inputs(seed, 1, where)
        gen.write_train_inputs(seed, 1, where)
        return {p.name: p.read_bytes() for p in sorted(where.iterdir())}

    a, b, c = files(9, tmp_path / "a"), files(9, tmp_path / "b"), files(10, tmp_path / "c")
    assert a.keys() == b.keys() == c.keys()
    for name in a:
        if name.endswith(".json"):    # annotations name their own directory
            a[name], b[name] = (dict(json.loads(x), segmentation=None)
                                for x in (a[name], b[name]))
        assert a[name] == b[name], name
    assert a["f0_p0.pgm"] != c["f0_p0.pgm"]
    assert gen.verify_seeds(9, 4) == gen.verify_seeds(9, 4) != gen.verify_seeds(10, 4)
