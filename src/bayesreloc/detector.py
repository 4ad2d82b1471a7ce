"""Scene recognition by lowest calibrated uncertainty.

Given one trained network plus calibration per candidate scene, a query is
run through every model and assigned to the scene whose percentile score
is lowest: the model that finds the input least surprising.

The percentile is :func:`~bayesreloc.calibration.detection_score`: each
model's trace is compared with the trace its own scene shows at the pose
the model predicts.  A scene-level percentile mostly measures where that
predicted pose lies (sparsely surveyed places have large traces), and a
network maps a foreign input close to its final-layer bias, where traces
are small, so foreign inputs would look confident.  Calibrations fitted
without positions have no pose trend, and their detection score is the
scene-level :func:`~bayesreloc.calibration.z_score`.

:func:`detect` is the one-query case of :func:`confusion`: both run every
model's queries through one batched Monte Carlo stream per model.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .calibration import CalibrationModel, ZScore, detection_score
from .mc_posterior import DEFAULT_NUM_SAMPLES, _localize_stream
from .regressor import NetworkParams, _check_input
from .seeding import derive_seed

CONFUSION_FORMAT = "bayesreloc-confusion-v1"


@dataclass(frozen=True)
class SceneModel:
    """A scene's network and its matching calibration."""

    scene_id: str
    network: NetworkParams
    calibration: CalibrationModel

    def __post_init__(self):
        if self.calibration.source_scene != self.scene_id:
            raise ValueError(
                f"calibration was fitted on {self.calibration.source_scene!r}, "
                f"but this model is for {self.scene_id!r}"
            )


@dataclass(frozen=True)
class DetectionResult:
    """Chosen scene plus every candidate's score.

    ``tie`` is set when another scene matched the winning score exactly;
    the winner is then the earliest such scene in the model list.
    """

    scene_id: str
    scores: list[tuple[str, ZScore]]
    tie: bool


def _scene_tag(scene_id: str) -> int:
    # Stable integer for seed derivation; independent of list order.
    return zlib.crc32(scene_id.encode("utf-8"))


def detect(
    models: Sequence[SceneModel],
    x,
    num_samples: int = DEFAULT_NUM_SAMPLES,
    master_seed: int = 0,
) -> DetectionResult:
    """Score a query under every scene model and pick the one with the
    lowest combined percentile.

    Each model's Monte Carlo seed derives from (master_seed, scene_id), so
    reordering the model list permutes scores without changing them.
    """
    return next(_detections(models, [x], [master_seed], num_samples))


def _detections(models: Sequence[SceneModel], X, masters, num_samples: int) -> Iterator[DetectionResult]:
    """Yield :func:`detect` of each query of ``X`` at its master seed.

    Each model localizes every query as one stream, and the streams are
    read query by query, model by model, so an error surfaces where a
    loop of :func:`detect` calls would raise it.  The lowest combined
    percentile wins, and the earliest model on a tie.
    """
    _check_models(models)
    streams = [
        _localize_stream(m.network, X, [derive_seed(s, _scene_tag(m.scene_id)) for s in masters], num_samples)
        for m in models
    ]
    for _ in masters:
        scores = [(m.scene_id, detection_score(m.calibration, next(st)[1])) for m, st in zip(models, streams)]
        values = [s.combined for _, s in scores]
        best = min(range(len(values)), key=lambda i: values[i])
        tie = any(i != best and values[i] == values[best] for i in range(len(values)))
        yield DetectionResult(scene_id=scores[best][0], scores=scores, tie=tie)


def _check_models(models: Sequence[SceneModel]) -> None:
    if len(models) < 2:
        raise ValueError(f"need at least 2 scene models, got {len(models)}")
    ids = [m.scene_id for m in models]
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate scene ids in model list: {ids}")


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts with true scenes as rows and predicted scenes as columns."""

    scene_ids: list[str]
    counts: np.ndarray

    def __post_init__(self):
        s = len(self.scene_ids)
        if self.counts.shape != (s, s):
            raise ValueError(f"counts shape {self.counts.shape} does not match {s} scenes")
        if (self.counts < 0).any():
            raise ValueError("counts must not be negative")
        if not self.counts.any():
            raise ValueError("counts must hold at least one query")

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def accuracy(self) -> float:
        return float(np.trace(self.counts) / self.counts.sum())


def confusion(
    models: Sequence[SceneModel],
    test_sets: Mapping[str, Sequence],
    num_samples: int = DEFAULT_NUM_SAMPLES,
    seed: int = 0,
) -> ConfusionMatrix:
    """Classify every query of every scene; rows index the true scene.

    ``test_sets`` maps scene_id to that scene's query feature vectors.
    Every scene appearing there must have a model, and there must be at
    least one query.  Each query's result is the one :func:`detect` gives
    with master seed (seed, scene_id, query index).
    """
    ids = [m.scene_id for m in models]
    index = {sid: i for i, sid in enumerate(ids)}
    for sid in test_sets:
        if sid not in index:
            raise ValueError(f"no model for scene {sid!r}")
    queries = [
        (index[sid], derive_seed(seed, _scene_tag(sid), qi), x)
        for sid, xs in test_sets.items()
        for qi, x in enumerate(xs)
    ]
    if not queries:
        raise ValueError("no queries to classify")

    counts = np.zeros((len(ids), len(ids)), dtype=int)
    if len(models) == 1:
        # A lone candidate matches every query; there is nothing to score
        # against, but a query its network cannot read is still refused.
        for *_, x in queries:
            _check_input(models[0].network, x)
        counts[0, 0] = len(queries)
    else:
        truth, masters, X = zip(*queries)
        for t, result in zip(truth, _detections(models, X, masters, num_samples)):
            counts[t, index[result.scene_id]] += 1
    return ConfusionMatrix(ids, counts)


def format_confusion(matrix: ConfusionMatrix) -> str:
    """Delimited text: header row/column of scene ids plus an accuracy line."""
    lines = [f"# {CONFUSION_FORMAT}"]
    lines.append("\t".join(["true\\pred"] + matrix.scene_ids))
    for sid, row in zip(matrix.scene_ids, matrix.counts):
        lines.append("\t".join([sid] + [str(int(v)) for v in row]))
    lines.append(f"accuracy {matrix.accuracy!r}")
    return "\n".join(lines) + "\n"
