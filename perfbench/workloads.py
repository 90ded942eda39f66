"""The three closed-loop workloads: one caller, next op after the previous
one completes.

Each workload writes its inputs once in ``generate`` (from the seed, through
``gen``). ``setup`` is the program's own set-up: it loads the inputs, weights
and graph, and may run several times, each timed. ``make_golden`` runs once,
untimed, after the first set-up and computes the golden answers on the
reference backend. ``op`` runs one op (the only timed call in the loop) and
``check`` compares its output with the golden answer, returning None or a
one-line reason for the failure. Every call into combnet goes through a
module attribute looked up at call time, so the traced run sees it.
"""

from __future__ import annotations

import json
import math

import numpy as np

import gen

END_TO_END_TOL = 1e-4    # the backends' end-to-end agreement bound
# The backends agree to float32 rounding, a few 1e-7 of a map's magnitude. A
# keypoint whose reference heatmap has its top two cells closer than this
# share of the magnitude, or whose confidence sits within 1e-4 of the
# threshold, may decode to either cell: as in `verify`'s decode-agreement
# suite, only its confidence is compared.
DECODE_MARGIN = 1e-5


class InferStream:
    name = "infer-stream"
    why = ("the deployed frame-to-JSON path: `combnet infer` on four phase PGMs "
           "and a depth PGM, optimized backend, 128x128, with the per-frame "
           "weight load and plan preparation")

    def __init__(self, frames: int = 8):
        self.n_frames = frames

    def config_hash(self, m) -> int:
        return m.config.REFERENCE_CONFIG.config_hash()

    def generate(self, seed: int, workdir) -> None:
        self.frames = gen.write_infer_inputs(seed, self.n_frames, workdir / "infer")
        self.out = workdir / "infer" / "out.json"

    def setup(self, m) -> None:
        self.m = m
        self.cfg = m.config.REFERENCE_CONFIG
        self.g = m.graph.build_graph(self.cfg)
        self.ws = m.weights.load_weights(self.frames[0]["weights"])

    def make_golden(self) -> None:
        self.golden, self.ambiguous = [], []
        for f in self.frames:
            doc, ambiguous = self._reference(f)
            self.golden.append(doc)
            self.ambiguous.append(ambiguous)

    def _reference(self, f):
        """The golden answer: the inference pipeline composed from the library
        stages on the reference backend, independent of `cmd_infer`."""
        m, cfg, g, ws = self.m, self.cfg, self.g, self.ws
        pp = m.postprocess
        frame = pp.PhaseFrame(tuple(m.pgm.read_pgm16(p) for p in f["phases"]),
                              cfg.z_min_mm, cfg.z_max_mm)
        amplitude = pp.amplitude_from_phases(frame, cfg.amplitude_coeffs)
        depth = m.pgm.read_pgm16(f["depth"]).astype(np.float64)
        hw = (cfg.input_h, cfg.input_w)
        image, tf = pp.normalize_input(amplitude, hw)
        heads = m.forward.forward(g, ws, image, m.forward.Backend.REFERENCE,
                                  m.forward.Mode.INFERENCE_HEADS)
        kps = pp.decode_heatmaps(heads.primary_heatmaps, cfg.conf_threshold, hw)
        hands, early_out = pp.gate_visibility(kps, heads.visibility_logits,
                                              cfg.kp_vis_threshold,
                                              cfg.hand_vis_threshold, cfg.hands)
        if not early_out:
            hands = pp.lift_to_2_5d(hands, depth, cfg.depth_window,
                                    (cfg.z_min_mm, cfg.z_max_mm), tf)
        doc = json.loads(json.dumps(pp.result_document(hands, early_out)))
        maps = heads.primary_heatmaps.reshape(len(kps), -1).astype(np.float64)
        top2 = np.sort(maps, axis=1)[:, -2:]
        scale = np.abs(maps).max(axis=1)
        ambiguous = {k for k, kp in enumerate(kps)
                     if top2[k, 1] - top2[k, 0] < DECODE_MARGIN * scale[k]
                     or abs(kp.confidence - cfg.conf_threshold) < END_TO_END_TOL}
        return doc, ambiguous

    def op(self, i: int):
        f = self.frames[i % self.n_frames]
        return self.m.cli.main(["infer", "--weights", f["weights"],
                                "--phases", ",".join(f["phases"]),
                                "--depth", f["depth"], "--out", str(self.out)])

    def check(self, i: int, rc) -> str | None:
        try:
            if rc != 0:
                return f"infer exit code {rc}"
            doc = json.loads(self.out.read_text(encoding="utf-8"))
        finally:
            self.out.unlink(missing_ok=True)    # the next op writes its own
        j = i % self.n_frames
        return compare_infer(doc, self.golden[j], self.ambiguous[j])

    def record(self) -> dict:
        kps = sum(len(h["keypoints"]) for h in self.golden[0]["hands"])
        return {"frames": self.n_frames, **document_shares(self.golden),
                "ambiguous_keypoint_share":
                    sum(map(len, self.ambiguous)) / (kps * self.n_frames)}


def document_shares(docs: list) -> dict:
    """Input properties the inference path depends on, over result documents."""
    hands = [h for d in docs for h in d["hands"]]
    kps = [k for h in hands for k in h["keypoints"]]
    visible = [k for k in kps if k["visible"]]
    return {
        "early_out_share": sum(d["early_out"] for d in docs) / len(docs),
        "hands_present_share": sum(h["present"] for h in hands) / len(hands),
        "keypoints_visible_share": len(visible) / len(kps),
        "depth_valid_share": (sum(k["depth_valid"] for k in visible) / len(visible)
                              if visible else 0.0),
    }


def compare_infer(doc: dict, golden: dict, ambiguous=frozenset()) -> str | None:
    """None when `doc` matches `golden`; keypoints are numbered across hands."""
    if doc["early_out"] != golden["early_out"]:
        return "early_out differs"
    if len(doc["hands"]) != len(golden["hands"]):
        return "hand count differs"
    for h, (a, b) in enumerate(zip(doc["hands"], golden["hands"])):
        if a["present"] != b["present"] or len(a["keypoints"]) != len(b["keypoints"]):
            return f"hand {h} differs"
        for k, (x, y) in enumerate(zip(a["keypoints"], b["keypoints"])):
            if abs(x["confidence"] - y["confidence"]) > END_TO_END_TOL:
                return f"hand {h} keypoint {k} confidence off by more than 1e-4"
            if h * len(a["keypoints"]) + k in ambiguous:
                continue
            for key in ("u", "v", "visible", "depth_valid"):
                if x[key] != y[key]:
                    return f"hand {h} keypoint {k} {key}: {x[key]} != {y[key]}"
            if (x["z"] is None) != (y["z"] is None) or (
                    x["z"] is not None and abs(x["z"] - y["z"]) > END_TO_END_TOL):
                return f"hand {h} keypoint {k} z: {x['z']} != {y['z']}"
    return None


class TrainEval:
    name = "train-eval"
    why = ("the loss path: 96x96 all-heads forward on the optimized backend with "
           "a plan built once, then frame_loss_bundle and total_loss")

    def __init__(self, frames: int = 8):
        self.n_frames = frames

    def config_hash(self, m) -> int:
        return self.cfg.config_hash()

    def generate(self, seed: int, workdir) -> None:
        self.spec = gen.write_train_inputs(seed, self.n_frames, workdir / "train")

    def setup(self, m) -> None:
        self.m = m
        spec = self.spec
        self.cfg = cfg = m.config.load_config(spec["config"])
        self.g = m.graph.build_graph(cfg)
        self.ws = m.weights.load_weights(spec["weights"])
        self.plan = m.forward.prepare_optimized(self.g, self.ws)
        self.frames = []
        for fr in spec["frames"]:
            image, _ = m.postprocess.normalize_input(m.pgm.read_pgm16(fr["image"]))
            targets = m.losses.load_frame_targets(
                fr["annotation"], keypoints=cfg.keypoints,
                aux_keypoints=cfg.aux_keypoints, hands=cfg.hands,
                fingertip_indices=cfg.fingertip_indices)
            seg = m.pgm.read_pgm16(targets.segmentation_path).astype(np.int64)
            self.frames.append((image, targets, seg))

    def make_golden(self) -> None:
        self.golden = [self._total_loss(fr, self.m.forward.Backend.REFERENCE, None)
                       for fr in self.frames]

    def _total_loss(self, frame, backend, plan) -> float:
        m, cfg = self.m, self.cfg
        image, targets, seg = frame
        heads = m.forward.forward(self.g, self.ws, image, backend,
                                  m.forward.Mode.ALL_HEADS, prepared=plan)
        bundle = m.losses.frame_loss_bundle(heads, targets, seg,
                                            orientation_eps=cfg.orientation_eps,
                                            input_hw=(cfg.input_h, cfg.input_w))
        return m.losses.total_loss(bundle)

    def op(self, i: int):
        return self._total_loss(self.frames[i % self.n_frames],
                                self.m.forward.Backend.OPTIMIZED, self.plan)

    def check(self, i: int, loss) -> str | None:
        want = self.golden[i % self.n_frames]
        if not math.isfinite(loss) or abs(loss - want) > END_TO_END_TOL * abs(want):
            return f"total_loss {loss!r} != golden {want!r} (rel 1e-4)"
        return None

    def record(self) -> dict:
        targets = [t for _, t, _ in self.frames]
        present = [bool(p) for t in targets for p in t.hands_present]
        kps = [p for t in targets for p in t.keypoints]
        return {"frames": self.n_frames,
                "hands_present_share": sum(present) / len(present),
                "keypoints_visible_share": sum(p is not None for p in kps) / len(kps),
                "depth_valid_share": None}


# The suites of one op, in `verify.run_all`'s order; all must pass.
VERIFY_SUITES = (
    "conv packed vs reference", "conv comb vs reference", "batch-norm folding",
    "backend end-to-end", "decode agreement (margin)", "grad keypoint_ce",
    "grad visibility_bce", "grad orientation_ce_soft", "grad handpose_ce",
    "grad seg_ce", "grad deep_supervision",
)


class VerifySuite:
    """`combnet verify`'s four suites, called through `combnet.verify` with
    `run_all`'s seed offsets but at small sizes. The command line fixes the
    gradient suite at 10 instances (about 4 s), so a run would hold too few
    ops to be steady. The random conv and batch-norm cases differ in cost by
    up to 3x between seeds, so they are kept few; the end-to-end pairs and
    the gradient instances cost the same on every seed."""

    name = "verify-suite"
    why = ("the oracle path: verify's suites at small sizes, reference conv and "
           "batch-norm cases, both backends end to end at 96x96 and the "
           "finite-difference gradient checks")

    def __init__(self, cases: int = 4, pairs: int = 2, instances: int = 1):
        self.cases, self.pairs, self.instances = cases, pairs, instances

    def config_hash(self, m) -> int:
        # the end-to-end suite's configuration
        return m.config.NetConfig(input_h=96, input_w=96).config_hash()

    def generate(self, seed: int, workdir) -> None:
        self.seeds = gen.verify_seeds(seed, 16)

    def setup(self, m) -> None:
        self.m = m

    def make_golden(self) -> None:
        """Each suite checks itself against the reference kernels."""

    def op(self, i: int):
        v, seed = self.m.verify, self.seeds[i % len(self.seeds)]
        results = v.conv_oracle_suite(seed, self.cases)
        results.append(v.bn_fold_suite(seed + 1, self.cases))
        results += v.backend_e2e_suite(seed + 2, self.pairs)
        results += v.loss_gradient_suite(seed + 3, self.instances)
        return results

    def check(self, i: int, results) -> str | None:
        names = tuple(r.name for r in results)
        if names != VERIFY_SUITES:
            return f"verify ran suites {names}, expected {VERIFY_SUITES}"
        for r in results:
            if not r.passed:
                return f"verify suite failed: {r.line()}"
        return None

    def record(self) -> dict:
        return {"verify_seeds": len(self.seeds), "cases": self.cases,
                "pairs": self.pairs, "gradient_instances": self.instances,
                "hands_present_share": None, "keypoints_visible_share": None,
                "depth_valid_share": None}


WORKLOADS = {w.name: w for w in (InferStream, TrainEval, VerifySuite)}
