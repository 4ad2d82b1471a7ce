"""The four benchmark workloads: set-up, one unit of timed work, checks.

Every workload keeps the acceptance shapes (feature_dim 32, hidden
128,128, dropout 0.5 before the last two weight layers, batch 32, 40 or
128 Monte Carlo samples) but trains for a few epochs instead of 600, so a
run fits in seconds.  All inputs derive from the workload seed.

A unit of work is deterministic given the set-up and its index, so the
same unit run twice must give the same outputs.  The output checks do not
depend on which random stream the program draws its masks from.
"""

from __future__ import annotations

import array
import contextlib
import hashlib
import io
import math
import os
import shutil
import traceback
import zlib
from collections import Counter
from dataclasses import dataclass

import numpy as np

import bayesreloc
from bayesreloc import calibration, cli, detector, harness, mc_posterior, regressor, scenes
from bayesreloc.seeding import derive_seed

HIDDEN = (128, 128)
DROPOUT_P = 0.5
LEARNING_RATE = 1e-3
BATCH_SIZE = 32
BETA = 50.0
DETECT_SAMPLES = 40
EVAL_SAMPLES = 128
SWEEP_COUNTS = (1, 5, 40, 128)
# The cli workload runs at small sample counts so that reading and writing
# the report files is a large share of its time.
CLI_SAMPLES = 4
CLI_SWEEP_COUNTS = "1,4"
UNIT_TOL = 1e-9
MATCH_TOL = 1e-9


@dataclass(frozen=True)
class Sizes:
    n_train: int = 2000
    n_calib: int = 200
    n_test: int = 400
    setup_epochs: int = 3
    job_epochs: int = 5
    offline_calib: int = 100
    offline_eval: int = 40
    detect_scenes: int = 4
    detect_queries: int = 8
    detect_calib: int = 50
    cli_other_test: int = 100
    check_queries: int = 3


FULL = Sizes()
# Tiny sizes for the benchmark's own smoke check.
SMOKE = Sizes(
    n_train=64,
    n_calib=16,
    n_test=12,
    setup_epochs=2,
    job_epochs=2,
    offline_calib=12,
    offline_eval=6,
    detect_queries=3,
    detect_calib=8,
    cli_other_test=6,
    check_queries=2,
)


# Returned by Ops.call in place of the result of a call that raised.
FAILED = object()


class Ops:
    """Counts the public calls a workload makes and the ones that fail.

    A failed call is counted with its exception class and the workload goes
    on.  A call that answers several queries at once carries their number as
    its weight, so every query inside a failed batch call counts as failed.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.by_class: Counter = Counter()
        self.first_traceback: dict[str, str] = {}

    def call(self, fn, *args, weight: int = 1, **kwargs):
        self.attempted += weight
        try:
            return fn(*args, **kwargs)
        except Exception as e:  # the workload keeps running; the failure is recorded
            self.fail(type(e).__name__, weight, traceback.format_exc())
            return FAILED

    def skip(self, weight: int) -> None:
        """Count calls that cannot run because a call they need failed."""
        self.attempted += weight
        self.fail("DependencyFailed", weight)

    def fail(self, kind: str, weight: int = 1, detail: str = "") -> None:
        self.failed += weight
        self.by_class[kind] += weight
        self.first_traceback.setdefault(kind, detail)


class Checks:
    """Output checks; each failed check keeps its first message."""

    def __init__(self):
        self.failures: dict[str, str] = {}
        self.count = 0

    def require(self, ok: bool, name: str, message: str = "") -> None:
        self.count += 1
        if not ok and name not in self.failures:
            self.failures[name] = message

    def pose(self, values, name: str) -> bool:
        """``values`` is a position and a quaternion, as _pose_values gives
        them; returns whether the pose passed."""
        norm = math.sqrt(sum(v * v for v in values[3:]))
        finite = all(math.isfinite(v) for v in values)
        unit = abs(norm - 1.0) <= UNIT_TOL
        self.require(finite, f"{name}.finite", repr(list(values)))
        self.require(unit, f"{name}.unit_quaternion", repr(norm))
        return finite and unit

    def traces(self, trans: float, rot: float, name: str) -> None:
        ok = math.isfinite(trans) and math.isfinite(rot) and trans >= 0.0 and rot >= 0.0
        self.require(ok, f"{name}.traces_nonnegative", f"{trans!r} {rot!r}")

    def percentiles(self, values, name: str) -> None:
        ok = all(0.0 <= v <= 1.0 for v in values)
        self.require(ok, f"{name}.percentiles_in_unit_interval", repr(list(values)))

    def losses(self, losses, name: str) -> None:
        finite = len(losses) > 0 and all(math.isfinite(v) for v in losses)
        self.require(finite, f"{name}.loss_finite", repr(losses))
        self.require(finite and losses[-1] < losses[0], f"{name}.loss_falls", repr(losses))


def _seeds(seed: int, tag: str, count: int) -> list[int]:
    """Independent 31-bit seeds for one workload, from the workload seed."""
    ss = np.random.SeedSequence([seed, zlib.crc32(tag.encode())])
    return [int(v) >> 1 for v in ss.generate_state(count, np.uint32)]


def _pose_network(feature_dim: int, seed: int):
    widths = [feature_dim, *HIDDEN, regressor.POSE_WIDTH]
    n = len(widths) - 1
    specs = [
        regressor.LayerSpec(
            widths[i],
            widths[i + 1],
            has_dropout=i >= n - 2,
            activation="identity" if i == n - 1 else "relu",
        )
        for i in range(n)
    ]
    return regressor.build_network(specs, DROPOUT_P, seed)


def _train(dataset, net_seed: int, epochs: int):
    net = _pose_network(dataset.spec.feature_dim, net_seed)
    config = regressor.TrainConfig(
        learning_rate=LEARNING_RATE,
        batch_size=BATCH_SIZE,
        epochs=epochs,
        loss=bayesreloc.LossConfig(beta=BETA),
        seed=net_seed,
    )
    return regressor.train(net, [(ex.features, ex.pose) for ex in dataset.train], config)


def _calibrate(net, examples, scene_id: str, samples: int, seed: int):
    """Fit a scene's calibration the way the CLI does: per-query seeds
    derive from (seed, query index)."""
    traces = []
    for qi, ex in enumerate(examples):
        _, est = mc_posterior.localize(net, ex.features, samples, derive_seed(seed, qi))
        traces.append((est.trans_trace, est.rot_trace))
    return calibration.calibrate(traces, scene_id)


# Query index, pose (7), two traces, three percentiles.
_ANSWER_WIDTH = 13


def _median(values):
    return float(np.median(values)) if len(values) else math.nan


class Workload:
    """One named workload.

    ``setup`` builds what the timed units need; ``unit`` runs one unit of
    work and keeps its outputs; ``finish`` checks the outputs and returns
    quality figures for the report.  ``work_per_unit`` is the amount of
    work one unit requests, counted from the workload's spec, not from the
    program.  ``aliases`` gives the report name, scale and unit under which
    an end-to-end metric is known on this workload (query_p50_ms, say).

    ``setup`` is deterministic given the seed, so running it again rebuilds
    the same state; what the units produce is kept from ``__init__`` on.
    """

    name = ""
    work_unit = ""
    aliases: dict[str, tuple[str, float, str]] = {}
    nominal_unit_s = 1.0

    def __init__(self, seed: int, sizes: Sizes, workdir: str):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.final_loss = math.nan
        os.makedirs(workdir, exist_ok=True)

    def setup(self) -> None:
        raise NotImplementedError

    def unit(self, k: int, ops: Ops, tracer) -> None:
        raise NotImplementedError

    def work_per_unit(self) -> float:
        raise NotImplementedError

    def finish(self, checks: Checks) -> dict[str, tuple[float, str]]:
        raise NotImplementedError

    def cleanup(self) -> None:
        """Remove the files the workload wrote."""
        shutil.rmtree(self.workdir, ignore_errors=True)


class TrainWorkload(Workload):
    name = "train"
    work_unit = "training examples"
    aliases = {"work_per_s": ("train_examples_per_s", 1.0, "1/s")}
    nominal_unit_s = 0.75

    def __init__(self, *args):
        super().__init__(*args)
        self.jobs = []

    def setup(self):
        s = self.sizes
        g, self.net_seed = _seeds(self.seed, self.name, 2)
        spec = scenes.SceneSpec(scene_id=f"train-{g}", generator_seed=g)
        self.dataset = scenes.generate_scene(spec, s.n_train, s.n_calib, s.n_test)

    def unit(self, k, ops, tracer):
        path = os.path.join(self.workdir, "train.net")
        result = ops.call(_train, self.dataset, self.net_seed, self.sizes.job_epochs)
        if result is FAILED:
            ops.skip(2)
            return
        # Only the losses and the round-trip verdict are kept, so that the
        # process's peak memory does not grow with the number of jobs run.
        same = None
        if ops.call(regressor.save_checkpoint, path, result.net) is FAILED:
            ops.skip(1)
        else:
            loaded = ops.call(regressor.load_checkpoint, path)
            if loaded is not FAILED:
                same = all(
                    np.array_equal(a.weights, b.weights) and np.array_equal(a.bias, b.bias)
                    for a, b in zip(result.net.layers, loaded.layers)
                )
        self.jobs.append((result.epoch_losses, same))

    def work_per_unit(self):
        return self.sizes.job_epochs * self.sizes.n_train

    def finish(self, checks):
        first = None
        for losses, same in self.jobs:
            checks.losses(losses, "train")
            if same is not None:
                checks.require(same, "train.checkpoint_round_trip")
            if first is None:
                first = losses
            checks.require(losses == first, "train.jobs_reproducible")
        if first is not None:
            self.final_loss = first[-1]
        return {}


class QueryWorkload(Workload):
    name = "query"
    work_unit = "queries"
    aliases = {
        "latency_p50_ms": ("query_p50_ms", 1.0, "ms"),
        "latency_p90_ms": ("query_p90_ms", 1.0, "ms"),
    }
    nominal_unit_s = 0.0036

    def __init__(self, *args):
        super().__init__(*args)
        # One row of _ANSWER_WIDTH floats per answer, so that memory does not
        # grow with Python objects per query.
        self.answers = array.array("d")

    def setup(self):
        s = self.sizes
        g, net_seed, cal_seed, self.query_seed = _seeds(self.seed, self.name, 4)
        spec = scenes.SceneSpec(scene_id=f"query-{g}", generator_seed=g)
        self.dataset = scenes.generate_scene(spec, s.n_train, s.n_calib, s.n_test)
        trained = _train(self.dataset, net_seed, s.setup_epochs)
        self.final_loss = trained.epoch_losses[-1]
        self.setup_losses = trained.epoch_losses
        self.net = trained.net
        cal = _calibrate(self.net, self.dataset.calib, spec.scene_id, DETECT_SAMPLES, cal_seed)
        self.calibration = cal

    def unit(self, k, ops, tracer):
        ex = self.dataset.test[k % len(self.dataset.test)]
        out = ops.call(mc_posterior.localize, self.net, ex.features, DETECT_SAMPLES, self.query_seed + k)
        if out is FAILED:
            ops.skip(1)
            return
        pose, est = out
        score = ops.call(calibration.z_score, self.calibration, est)
        z = (math.nan,) * 3 if score is FAILED else (score.trans_pct, score.rot_pct, score.combined)
        self.answers.extend((k, *_pose_values(pose), est.trans_trace, est.rot_trace, *z))

    def work_per_unit(self):
        return 1.0

    def finish(self, checks):
        checks.losses(self.setup_losses, "query.setup")
        test = self.dataset.test
        trans_err, rot_err = [], []
        rows = np.frombuffer(self.answers, dtype=float).reshape(-1, _ANSWER_WIDTH)
        for row in rows.tolist():
            k, pose, (trans, rot), z = int(row[0]), row[1:8], row[8:10], row[10:]
            valid = checks.pose(pose, "query.pose")
            checks.traces(trans, rot, "query")
            if not math.isnan(z[0]):
                checks.percentiles(z, "query")
            if valid and k < len(test):
                truth = test[k].pose
                p, q = bayesreloc.Vec3(*pose[:3]), bayesreloc.UnitQuaternion(*pose[3:])
                trans_err.append(bayesreloc.translation_error(p, truth.position))
                rot_err.append(bayesreloc.rotation_error_deg(q, truth.orientation))
        return {
            "query_median_trans_error_m": (_median(trans_err), "m"),
            "query_median_rot_error_deg": (_median(rot_err), "deg"),
        }


class OfflineWorkload(Workload):
    name = "offline"
    work_unit = "stochastic passes"
    aliases = {"work_per_s": ("offline_passes_per_s", 1.0, "1/s")}
    nominal_unit_s = 1.9

    def __init__(self, *args):
        super().__init__(*args)
        self.cycles = []

    def setup(self):
        s = self.sizes
        seeds = _seeds(self.seed, self.name, 5 + 3 * s.detect_scenes)
        self.cal_seed, self.eval_seed, self.sweep_seed, self.detect_seed, _ = seeds[:5]
        scene_seeds = seeds[5:]
        models, self.test_sets, self.setup_losses = [], {}, []
        for i in range(s.detect_scenes):
            g, net_seed, cal_seed = scene_seeds[3 * i : 3 * i + 3]
            spec = scenes.SceneSpec(scene_id=f"scene-{i}-{g}", generator_seed=g)
            if i == 0:
                # The main scene: its calibration is the first timed stage.
                ds = scenes.generate_scene(spec, s.n_train, s.offline_calib, s.offline_eval)
            else:
                ds = scenes.generate_scene(spec, s.n_train, s.detect_calib, s.detect_queries)
            trained = _train(ds, net_seed, s.setup_epochs)
            self.setup_losses.append(trained.epoch_losses)
            if i == 0:
                self.main, self.main_net = ds, trained.net
                self.final_loss = trained.epoch_losses[-1]
            else:
                cal = _calibrate(trained.net, ds.calib, spec.scene_id, DETECT_SAMPLES, cal_seed)
                models.append(detector.SceneModel(spec.scene_id, trained.net, cal))
            self.test_sets[spec.scene_id] = [ex.features for ex in ds.test[: s.detect_queries]]
        self.other_models = models

    def _stage_calibrate(self, ops):
        traces = []
        for qi, ex in enumerate(self.main.calib):
            out = ops.call(
                mc_posterior.localize,
                self.main_net,
                ex.features,
                DETECT_SAMPLES,
                derive_seed(self.cal_seed, qi),
            )
            if out is not FAILED:
                traces.append((out[1].trans_trace, out[1].rot_trace))
        return ops.call(calibration.calibrate, traces, self.main.spec.scene_id)

    def unit(self, k, ops, tracer):
        n_eval = len(self.main.test)
        n_detect = sum(len(v) for v in self.test_sets.values())
        cal = self._stage_calibrate(ops)
        if cal is FAILED:
            # Every later stage needs the main model's calibration.
            ops.skip(n_eval + n_eval * (len(SWEEP_COUNTS) + 1) + n_detect)
            return
        model = detector.SceneModel(self.main.spec.scene_id, self.main_net, cal)
        report = ops.call(harness.run_eval, model, self.main, EVAL_SAMPLES, self.eval_seed, weight=n_eval)
        sweep = ops.call(
            harness.run_sweep,
            model,
            self.main,
            SWEEP_COUNTS,
            1,
            self.sweep_seed,
            weight=n_eval * (len(SWEEP_COUNTS) + 1),
        )
        models = [model] + self.other_models
        matrix = ops.call(
            detector.confusion, models, self.test_sets, DETECT_SAMPLES, self.detect_seed, weight=n_detect
        )
        self.cycles.append((cal, report, sweep, matrix))

    def work_per_unit(self):
        s = self.sizes
        n_eval = s.offline_eval
        calib = s.offline_calib * DETECT_SAMPLES
        evaluation = n_eval * EVAL_SAMPLES
        sweep = n_eval * sum(SWEEP_COUNTS)
        detect = s.detect_scenes * s.detect_queries * s.detect_scenes * DETECT_SAMPLES
        return float(calib + evaluation + sweep + detect)

    def _check_direct(self, checks, cal, report, matrix):
        """Batch results must equal direct localize calls with the per-query
        seeds the program documents."""
        net = self.main_net
        for qi in range(min(self.sizes.check_queries, len(self.main.test))):
            ex = self.main.test[qi]
            pose, est = mc_posterior.localize(net, ex.features, EVAL_SAMPLES, derive_seed(self.eval_seed, qi))
            rec = report.records[qi]
            got = [*_pose_values(rec.est_pose), rec.trans_trace, rec.rot_trace]
            want = [*_pose_values(pose), est.trans_trace, est.rot_trace]
            close = all(abs(a - b) <= MATCH_TOL * max(1.0, abs(b)) for a, b in zip(got, want))
            checks.require(close, "offline.run_eval_matches_localize", f"query {qi}: {got} vs {want}")

        models = [detector.SceneModel(self.main.spec.scene_id, net, cal)] + self.other_models
        sid = self.main.spec.scene_id
        tag = zlib.crc32(sid.encode("utf-8"))
        row = np.zeros(len(models), dtype=int)
        for qi, x in enumerate(self.test_sets[sid]):
            master = derive_seed(self.detect_seed, tag, qi)
            combined = []
            for m in models:
                seed = derive_seed(master, zlib.crc32(m.scene_id.encode("utf-8")))
                _, est = mc_posterior.localize(m.network, x, DETECT_SAMPLES, seed)
                combined.append(calibration.z_score(m.calibration, est).combined)
            row[int(np.argmin(combined))] += 1
            if qi < self.sizes.check_queries:
                result = detector.detect(models, x, DETECT_SAMPLES, master)
                got = [score.combined for _, score in result.scores]
                close = all(abs(a - b) <= MATCH_TOL for a, b in zip(got, combined))
                checks.require(close, "offline.detect_matches_localize", f"{got} vs {combined}")
        checks.require(
            row.tolist() == matrix.counts[0].tolist(),
            "offline.confusion_matches_localize",
            f"{matrix.counts[0].tolist()} vs {row.tolist()}",
        )

    def finish(self, checks):
        for losses in self.setup_losses:
            checks.losses(losses, "offline.setup")
        n_detect = sum(len(v) for v in self.test_sets.values())
        first = None
        for cal, report, sweep, matrix in self.cycles:
            if report is not FAILED:
                for rec in report.records:
                    checks.pose(_pose_values(rec.est_pose), "offline.run_eval")
                    checks.traces(rec.trans_trace, rec.rot_trace, "offline.run_eval")
                    checks.percentiles((rec.z_trans, rec.z_rot, rec.z_combined), "offline.run_eval")
                summary = (report.summary.median_trans_error, report.summary.median_rot_error_deg)
                first = first or summary
                checks.require(summary == first, "offline.cycles_reproducible", f"{summary} vs {first}")
            if sweep is not FAILED:
                counts = [row.num_samples for row in sweep.rows]
                checks.require(counts == [0, *SWEEP_COUNTS], "offline.sweep_counts", repr(counts))
                values = [v for row in sweep.rows for v in (row.mean_median_trans, row.mean_median_rot)]
                ok = all(math.isfinite(v) and v >= 0.0 for v in values)
                checks.require(ok, "offline.sweep_finite", repr(values))
            if matrix is not FAILED:
                checks.require(matrix.total == n_detect, "offline.confusion_total", f"{matrix.total} vs {n_detect}")
        complete = [c for c in self.cycles if all(part is not FAILED for part in c)]
        metrics = {}
        if complete:
            cal, report, _, matrix = complete[0]
            self._check_direct(checks, cal, report, matrix)
            metrics["median_trans_error_m"] = (report.summary.median_trans_error, "m")
            metrics["median_rot_error_deg"] = (report.summary.median_rot_error_deg, "deg")
            metrics["detect_accuracy"] = (matrix.accuracy, "ratio")
        return metrics


def _pose_values(pose):
    p, q = pose.position, pose.orientation
    return [p.x, p.y, p.z, q.w, q.x, q.y, q.z]


class CliWorkload(Workload):
    name = "cli"
    work_unit = "commands"
    aliases = {"latency_p50_ms": ("cli_pipeline_s", 1e-3, "s")}
    nominal_unit_s = 1.8
    COMMANDS = ("gen", "calibrate", "eval", "sweep", "hist", "detect")

    def __init__(self, *args):
        super().__init__(*args)
        self.runs = []

    def setup(self):
        s = self.sizes
        seeds = _seeds(self.seed, self.name, 9)
        g_a, g_b, net_a, net_b, cal_b = seeds[:5]
        self.run_seeds = seeds[5:]
        self.paths = {
            name: os.path.join(self.workdir, name)
            for name in ("a.data", "a.net", "a.cal", "a.eval", "a.sweep.tsv", "a.hist.tsv",
                         "b.data", "b.net", "b.cal", "confusion.txt")
        }
        self.scene_a = f"cli-a-{g_a}"
        self.scene_b = f"cli-b-{g_b}"
        self.gen_seed = g_a
        # Scene A is regenerated by the timed `gen`; its checkpoint is
        # trained here on the identical scene.
        spec_a = scenes.SceneSpec(scene_id=self.scene_a, generator_seed=g_a)
        ds_a = scenes.generate_scene(spec_a, s.n_train, s.n_calib, s.n_test)
        trained = _train(ds_a, net_a, s.setup_epochs)
        self.final_loss = trained.epoch_losses[-1]
        self.setup_losses = [trained.epoch_losses]
        regressor.save_checkpoint(self.paths["a.net"], trained.net)

        spec_b = scenes.SceneSpec(scene_id=self.scene_b, generator_seed=g_b)
        ds_b = scenes.generate_scene(spec_b, s.n_train, s.detect_calib, s.cli_other_test)
        trained_b = _train(ds_b, net_b, s.setup_epochs)
        self.setup_losses.append(trained_b.epoch_losses)
        cal = _calibrate(trained_b.net, ds_b.calib, self.scene_b, CLI_SAMPLES, cal_b)
        regressor.save_checkpoint(self.paths["b.net"], trained_b.net)
        calibration.save_calibration(self.paths["b.cal"], cal)
        scenes.save_dataset(self.paths["b.data"], ds_b)
        self.expected_queries = s.n_test + s.cli_other_test

    def _argv(self):
        s, p = self.sizes, self.paths
        seed_cal, seed_eval, seed_sweep, seed_detect = (str(v) for v in self.run_seeds)
        samples = ["--samples", str(CLI_SAMPLES)]
        return [
            ("gen", ["gen", "--scene-id", self.scene_a, "--seed", str(self.gen_seed),
                     "--train", str(s.n_train), "--calib", str(s.n_calib), "--test", str(s.n_test),
                     "--out", p["a.data"]]),
            ("calibrate", ["calibrate", "--net", p["a.net"], "--data", p["a.data"], *samples,
                           "--seed", seed_cal, "--out", p["a.cal"]]),
            ("eval", ["eval", "--net", p["a.net"], "--cal", p["a.cal"], "--data", p["a.data"],
                      *samples, "--seed", seed_eval, "--out", p["a.eval"]]),
            ("sweep", ["sweep", "--net", p["a.net"], "--data", p["a.data"], "--counts",
                       CLI_SWEEP_COUNTS, "--reps", "1", "--seed", seed_sweep, "--out", p["a.sweep.tsv"]]),
            ("hist", ["hist", "--table", p["a.eval"] + ".queries.tsv", "--out", p["a.hist.tsv"]]),
            ("detect", ["detect", "--scene", self.scene_a, p["a.net"], p["a.cal"], p["a.data"],
                        "--scene", self.scene_b, p["b.net"], p["b.cal"], p["b.data"],
                        *samples, "--seed", seed_detect, "--out", p["confusion.txt"]]),
        ]

    def unit(self, k, ops, tracer):
        codes = {}
        for command, argv in self._argv():
            sink = io.StringIO()
            with tracer.span(f"cli.{command}"), contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = ops.call(cli.cli, argv)
            if code is not FAILED and code != 0:
                ops.fail(f"exit{code}", 1, sink.getvalue())
            codes[command] = code
        table = self.paths["a.eval"] + ".queries.tsv"
        digest = None
        if os.path.exists(table):
            with open(table, "rb") as f:
                digest = hashlib.sha256(f.read()).hexdigest()
        self.runs.append((codes, digest))

    def work_per_unit(self):
        return float(len(self.COMMANDS))

    def finish(self, checks):
        for losses in self.setup_losses:
            checks.losses(losses, "cli.setup")
        digests = set()
        for codes, digest in self.runs:
            checks.require(all(c == 0 for c in codes.values()), "cli.exit_zero", repr(codes))
            digests.add(digest)
        checks.require(len(digests) == 1 and None not in digests, "cli.eval_table_identical", repr(digests))

        table = self.paths["a.eval"] + ".queries.tsv"
        if os.path.exists(table):
            for rec in harness.read_query_table(table):
                checks.pose(_pose_values(rec.est_pose), "cli.eval_table")
                checks.traces(rec.trans_trace, rec.rot_trace, "cli.eval_table")
                checks.percentiles((rec.z_trans, rec.z_rot, rec.z_combined), "cli.eval_table")
        total = _confusion_total(self.paths["confusion.txt"])
        checks.require(total == self.expected_queries, "cli.confusion_total", f"{total} vs {self.expected_queries}")
        return {}


def _confusion_total(path: str) -> int | None:
    """Sum of the counts in a confusion file written by `detect`."""
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as f:
        lines = [line.rstrip("\n") for line in f]
    rows = [line.split("\t")[1:] for line in lines[2:] if "\t" in line]
    return sum(int(v) for row in rows for v in row)


WORKLOADS = {w.name: w for w in (TrainWorkload, QueryWorkload, OfflineWorkload, CliWorkload)}
