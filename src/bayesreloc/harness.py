"""Experiment runners: per-scene calibration and evaluation, sample-count
sweeps, cumulative error histograms, wall-clock timing, and report formats."""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._files import table_rows, write_json
from .calibration import CalibrationModel, calibrate, z_score
from .detector import SceneModel
from .errors import ParseError, ShapeMismatch
from .geometry import (
    Pose,
    UnitQuaternion,
    Vec3,
    normalize,
    rotation_error_deg,
    translation_error,
)
from .mc_posterior import DEFAULT_NUM_SAMPLES, MAX_NUM_SAMPLES, localize
from .regressor import NetworkParams, forward
from .scenes import SceneDataset, nearest_neighbour_pose
from .seeding import derive_seed
from .stats import median_low, pearson, spearman

EVAL_TABLE_FORMAT = "bayesreloc-eval-v1"
SUMMARY_FORMAT = "bayesreloc-report-v2"
SWEEP_FORMAT = "bayesreloc-sweep-v1"
HIST_FORMAT = "bayesreloc-hist-v1"

_TABLE_COLUMNS = (
    "query_id",
    "true_px", "true_py", "true_pz", "true_qw", "true_qx", "true_qy", "true_qz",
    "est_px", "est_py", "est_pz", "est_qw", "est_qx", "est_qy", "est_qz",
    "trans_error_m", "rot_error_deg",
    "trans_trace", "rot_trace",
    "z_trans", "z_rot", "z_combined",
    "nn_feature_distance",
)


@dataclass(frozen=True)
class QueryRecord:
    query_id: str
    true_pose: Pose
    est_pose: Pose
    trans_error: float
    rot_error_deg: float
    trans_trace: float
    rot_trace: float
    z_trans: float
    z_rot: float
    z_combined: float
    nn_feature_distance: float


@dataclass(frozen=True)
class EvalSummary:
    median_trans_error: float
    median_rot_error_deg: float
    correlations: dict[str, float | None]
    num_samples: int
    seed: int
    query_count: int
    median_convention: str = "lower"


@dataclass(frozen=True)
class EvalReport:
    records: list[QueryRecord]
    summary: EvalSummary


@dataclass(frozen=True)
class SweepRow:
    """Error statistics at one sample count; count 0 is the maskless pass."""

    num_samples: int
    mean_median_trans: float
    std_median_trans: float
    mean_median_rot: float
    std_median_rot: float
    repetitions: int


@dataclass(frozen=True)
class SweepReport:
    rows: list[SweepRow]
    seed: int
    # Repetitions re-randomize the Monte Carlo mask seeds only; the scene
    # and the network stay fixed.
    note: str = "repetitions re-randomize mask seeds only"


@dataclass(frozen=True)
class HistogramRow:
    threshold: float
    frac_trans: float
    frac_rot: float


@dataclass(frozen=True)
class HistogramReport:
    rows: list[HistogramRow]
    query_count: int


@dataclass(frozen=True)
class TimingReport:
    num_samples: int
    query_count: int
    mean_s: float
    p50_s: float
    p99_s: float


def _network_of(model: SceneModel | NetworkParams) -> NetworkParams:
    return model.network if isinstance(model, SceneModel) else model


def _check_feature_dim(net: NetworkParams, dataset: SceneDataset) -> None:
    if dataset.spec.feature_dim != net.input_width:
        raise ShapeMismatch(
            f"dataset feature_dim {dataset.spec.feature_dim} does not match "
            f"network input width {net.input_width}"
        )


def run_calibration(
    net: NetworkParams,
    dataset: SceneDataset,
    num_samples: int = DEFAULT_NUM_SAMPLES,
    seed: int = 0,
) -> CalibrationModel:
    """Fit the scene's calibration from Monte Carlo traces over its calib split.

    Query qi draws its masks from ``derive_seed(seed, qi)``.  Each query's
    predicted (mean) position goes with its traces, so the model carries
    the pose trend that :func:`detection_score` uses.
    """
    _check_feature_dim(net, dataset)
    traces, positions = [], []
    for qi, ex in enumerate(dataset.calib):
        _, est = localize(net, ex.features, num_samples, derive_seed(seed, qi))
        traces.append((est.trans_trace, est.rot_trace))
        positions.append(est.trans_mean)
    return calibrate(traces, dataset.spec.scene_id, positions)


def run_eval(
    model: SceneModel,
    dataset: SceneDataset,
    num_samples: int = DEFAULT_NUM_SAMPLES,
    seed: int = 0,
) -> EvalReport:
    """Localize and score every test query against its ground truth.

    Per-query Monte Carlo seeds derive from (seed, query index), so the
    report is a pure function of the arguments.  The summary holds lower
    medians and both Spearman and Pearson correlations between
    uncertainty and error, between the two uncertainty channels, and
    between the combined score and the distance to the nearest training
    example in raw feature space (the same space the nearest-neighbour
    baseline searches).
    """
    net = model.network
    if len(dataset.test) == 0 or len(dataset.train) == 0:
        raise ValueError("dataset needs non-empty train and test splits")
    _check_feature_dim(net, dataset)

    train_emb = np.stack([ex.features for ex in dataset.train])
    records = []
    for qi, ex in enumerate(dataset.test):
        pose, est = localize(net, ex.features, num_samples, derive_seed(seed, qi))
        score = z_score(model.calibration, est)
        _, nn_dist = nearest_neighbour_pose(dataset.train, ex.features, train_emb)
        records.append(
            QueryRecord(
                query_id=ex.query_id,
                true_pose=ex.pose,
                est_pose=pose,
                trans_error=translation_error(pose.position, ex.pose.position),
                rot_error_deg=rotation_error_deg(pose.orientation, ex.pose.orientation),
                trans_trace=est.trans_trace,
                rot_trace=est.rot_trace,
                z_trans=score.trans_pct,
                z_rot=score.rot_pct,
                z_combined=score.combined,
                nn_feature_distance=nn_dist,
            )
        )

    trans_err = [r.trans_error for r in records]
    rot_err = [r.rot_error_deg for r in records]
    trans_trace = [r.trans_trace for r in records]
    rot_trace = [r.rot_trace for r in records]
    combined = [r.z_combined for r in records]
    nn_dist = [r.nn_feature_distance for r in records]
    correlations = {
        "spearman_trans_trace_vs_trans_error": spearman(trans_trace, trans_err),
        "pearson_trans_trace_vs_trans_error": pearson(trans_trace, trans_err),
        "spearman_rot_trace_vs_rot_error": spearman(rot_trace, rot_err),
        "pearson_rot_trace_vs_rot_error": pearson(rot_trace, rot_err),
        "spearman_trans_trace_vs_rot_trace": spearman(trans_trace, rot_trace),
        "pearson_trans_trace_vs_rot_trace": pearson(trans_trace, rot_trace),
        "spearman_z_combined_vs_nn_distance": spearman(combined, nn_dist),
        "pearson_z_combined_vs_nn_distance": pearson(combined, nn_dist),
    }
    summary = EvalSummary(
        median_trans_error=median_low(trans_err),
        median_rot_error_deg=median_low(rot_err),
        correlations=correlations,
        num_samples=num_samples,
        seed=seed,
        query_count=len(records),
    )
    return EvalReport(records, summary)


def _maskless_pose(net: NetworkParams, features) -> Pose:
    out = forward(net, features, None)
    return Pose(Vec3.from_array(out[:3]), normalize(out[3:]))


def _split_medians(
    net: NetworkParams, dataset: SceneDataset, num_samples: int, seed: int
) -> tuple[float, float]:
    """Lower-median errors over the test split at one sample count."""
    trans_err = []
    rot_err = []
    for qi, ex in enumerate(dataset.test):
        if num_samples == 0:
            pose = _maskless_pose(net, ex.features)
        else:
            pose, _ = localize(net, ex.features, num_samples, derive_seed(seed, qi))
        trans_err.append(translation_error(pose.position, ex.pose.position))
        rot_err.append(rotation_error_deg(pose.orientation, ex.pose.orientation))
    return median_low(trans_err), median_low(rot_err)


def run_sweep(
    model: SceneModel | NetworkParams,
    dataset: SceneDataset,
    sample_counts: Sequence[int],
    repetitions: int = 1,
    seed: int = 0,
) -> SweepReport:
    """Median error versus Monte Carlo sample count.

    The deterministic maskless pass is always included as count 0.  Each
    repetition re-derives mask seeds from (seed, count, repetition); rows
    come out sorted by count with mean and population-std of the per-
    repetition medians.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    counts = sorted(set(int(c) for c in sample_counts) | {0})
    # sample_posterior would reject a count too large only after the smaller ones ran
    if counts[0] < 0 or counts[-1] > MAX_NUM_SAMPLES:
        raise ValueError(
            f"sample counts must lie in [0, {MAX_NUM_SAMPLES}], got {list(sample_counts)}"
        )
    net = _network_of(model)

    rows = []
    for count in counts:
        medians = []
        if count == 0:
            medians.append(_split_medians(net, dataset, 0, 0))
        else:
            for rep in range(repetitions):
                medians.append(
                    _split_medians(net, dataset, count, derive_seed(seed, count, rep))
                )
        trans = np.array([m[0] for m in medians])
        rot = np.array([m[1] for m in medians])
        rows.append(
            SweepRow(
                num_samples=count,
                mean_median_trans=float(trans.mean()),
                std_median_trans=float(trans.std()),
                mean_median_rot=float(rot.mean()),
                std_median_rot=float(rot.std()),
                repetitions=len(medians),
            )
        )
    return SweepReport(rows=rows, seed=seed)


def run_histogram(
    report: EvalReport | Sequence[QueryRecord], thresholds: Sequence[float]
) -> HistogramReport:
    """Cumulative fraction of queries with error at or below each threshold.

    Translation thresholds are meters, rotation thresholds degrees; one
    row per threshold, which must come sorted ascending.  Accepts a full
    eval report or just its query records (e.g. re-read from a table).
    """
    records = report.records if isinstance(report, EvalReport) else list(report)
    t = [float(v) for v in thresholds]
    if not t:
        raise ValueError("need at least one threshold")
    if np.isnan(t).any():
        raise ValueError(f"thresholds must be numbers, got {t}")
    if any(b < a for a, b in zip(t, t[1:])):
        raise ValueError(f"thresholds must be sorted ascending, got {t}")
    n = len(records)
    if n == 0:
        raise ValueError("no query records to histogram")
    rows = []
    for thr in t:
        ft = sum(1 for r in records if r.trans_error <= thr) / n
        fr = sum(1 for r in records if r.rot_error_deg <= thr) / n
        rows.append(HistogramRow(thr, ft, fr))
    return HistogramReport(rows, n)


def run_timing(
    model: SceneModel | NetworkParams,
    dataset: SceneDataset,
    num_samples: int = DEFAULT_NUM_SAMPLES,
    seed: int = 0,
    min_queries: int = 100,
) -> TimingReport:
    """Wall-clock statistics for localize(), cycling the test split until
    at least ``min_queries`` measurements exist."""
    net = _network_of(model)
    if len(dataset.test) == 0:
        raise ValueError("dataset needs a non-empty test split")
    if min_queries < 1:
        raise ValueError(f"min_queries must be >= 1, got {min_queries}")
    durations = []
    qi = 0
    while len(durations) < min_queries:
        ex = dataset.test[qi % len(dataset.test)]
        t0 = time.perf_counter()
        localize(net, ex.features, num_samples, derive_seed(seed, qi))
        durations.append(time.perf_counter() - t0)
        qi += 1
    d = np.array(durations)
    return TimingReport(
        num_samples=num_samples,
        query_count=len(durations),
        mean_s=float(d.mean()),
        p50_s=float(np.percentile(d, 50)),
        p99_s=float(np.percentile(d, 99)),
    )


def _fmt(v: float) -> str:
    return repr(float(v))


def write_query_table(path: str | os.PathLike, report: EvalReport) -> None:
    """Tab-separated per-query records; bitwise reproducible for equal runs."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"# {EVAL_TABLE_FORMAT}\n")
        f.write("\t".join(_TABLE_COLUMNS) + "\n")
        for r in report.records:
            tp, tq = r.true_pose.position, r.true_pose.orientation
            ep, eq = r.est_pose.position, r.est_pose.orientation
            fields = [r.query_id]
            fields += [_fmt(v) for v in (tp.x, tp.y, tp.z, tq.w, tq.x, tq.y, tq.z)]
            fields += [_fmt(v) for v in (ep.x, ep.y, ep.z, eq.w, eq.x, eq.y, eq.z)]
            fields += [
                _fmt(r.trans_error),
                _fmt(r.rot_error_deg),
                _fmt(r.trans_trace),
                _fmt(r.rot_trace),
                _fmt(r.z_trans),
                _fmt(r.z_rot),
                _fmt(r.z_combined),
                _fmt(r.nn_feature_distance),
            ]
            f.write("\t".join(fields) + "\n")


def read_query_table(path: str | os.PathLike) -> list[QueryRecord]:
    """Raises ParseError, with the line, for bad header lines, a row without
    one field per column, a value that is not a finite number, a non-unit
    quaternion, a negative error, trace or distance, or a percentile
    outside [0, 1]."""
    with open(path, "r", encoding="utf-8") as f:
        lines = f.readlines()
    if not lines or lines[0].strip() != f"# {EVAL_TABLE_FORMAT}":
        raise ParseError(f"expected header tag {EVAL_TABLE_FORMAT!r}", line=1)
    if len(lines) < 2 or tuple(lines[1].rstrip("\n").split("\t")) != _TABLE_COLUMNS:
        raise ParseError("missing or altered column header", line=2)
    records = []
    for lineno, query_id, v in table_rows(lines[2:], 3, len(_TABLE_COLUMNS), "\t"):
        if min(v[14:18] + v[21:]) < 0.0:
            raise ParseError("negative error, trace or distance", line=lineno)
        if not all(0.0 <= z <= 1.0 for z in v[18:21]):
            raise ParseError("percentile outside [0, 1]", line=lineno)
        try:
            true_pose = Pose(Vec3(*v[0:3]), UnitQuaternion.from_array(v[3:7]))
            est_pose = Pose(Vec3(*v[7:10]), UnitQuaternion.from_array(v[10:14]))
        except ValueError as e:
            raise ParseError(str(e), line=lineno) from e
        records.append(QueryRecord(query_id, true_pose, est_pose, *v[14:]))
    return records


def write_summary(path: str | os.PathLike, report: EvalReport) -> None:
    s = report.summary
    write_json(path, {
        "format": SUMMARY_FORMAT,
        "median_trans_error_m": s.median_trans_error,
        "median_rot_error_deg": s.median_rot_error_deg,
        "median_convention": s.median_convention,
        "correlations": s.correlations,
        "num_samples": s.num_samples,
        "seed": s.seed,
        "query_count": s.query_count,
    })


def write_sweep(path: str | os.PathLike, sweep: SweepReport) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"# {SWEEP_FORMAT} seed={sweep.seed}\n")
        f.write(f"# {sweep.note}\n")
        f.write(
            "num_samples\tmean_median_trans_m\tstd_median_trans_m"
            "\tmean_median_rot_deg\tstd_median_rot_deg\trepetitions\n"
        )
        for row in sweep.rows:
            f.write(
                "\t".join(
                    [
                        str(row.num_samples),
                        _fmt(row.mean_median_trans),
                        _fmt(row.std_median_trans),
                        _fmt(row.mean_median_rot),
                        _fmt(row.std_median_rot),
                        str(row.repetitions),
                    ]
                )
                + "\n"
            )


def write_histogram(path: str | os.PathLike, hist: HistogramReport) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"# {HIST_FORMAT} query_count={hist.query_count}\n")
        f.write("threshold\tfrac_trans_le\tfrac_rot_le\n")
        for row in hist.rows:
            f.write("\t".join([_fmt(row.threshold), _fmt(row.frac_trans), _fmt(row.frac_rot)]) + "\n")
