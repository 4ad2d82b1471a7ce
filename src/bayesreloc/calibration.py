"""Gamma-based normalization of uncertainty traces into percentile scores.

A scene's population of covariance traces is strongly right-skewed and
strictly positive, so each channel (translation, rotation) gets its own
two-parameter gamma fit.  A new trace is then scored by its CDF percentile
within that population; percentiles from the two channels average into a
single comparable confidence score per scene.

Two scores come out of one calibration:

- :func:`z_score` is scene-level: the percentile within the whole
  population.  It mixes the two sources of uncertainty the model has, an
  input that is unlike the training data in pose (a sparsely surveyed
  part of the scene) and one that is unlike it in appearance.  The eval
  reports use it, because its rise with distance to the training data is
  what they measure.
- :func:`detection_score` is conditioned on the predicted pose.  Given the
  calibration queries' predicted positions, :func:`calibrate` fits per
  channel a trend ``log trace ~ c0 + c . position`` and a gamma to the
  traces divided by that trend.  A query is then scored by its trace
  relative to what its own scene shows at the same predicted position, so
  only the appearance part is left.  Scene recognition needs exactly that
  part: a network maps a foreign input close to its final-layer bias,
  where its own scene's traces are small, so a scene-level percentile
  makes foreign inputs look confident.

Without positions the trend is zero and the residual gamma is the scene
gamma, so the two scores are equal bit for bit.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import (
    InsufficientPopulation,
    InsufficientVariance,
    NoConvergence,
    NonPositiveValue,
    ParseError,
)
from .geometry import Vec3
from .special import digamma, reg_lower_gamma, trigamma

if TYPE_CHECKING:
    from .mc_posterior import UncertaintyEstimate

MIN_POPULATION = 8
CALIBRATION_FORMAT = "bayesreloc-cal-v2"
# Older files carry no pose trend and load with a zero one.
_READABLE_FORMATS = ("bayesreloc-cal-v1", CALIBRATION_FORMAT)
# (intercept, x, y, z) coefficients of log trace in the predicted position.
_ZERO_TREND = (0.0, 0.0, 0.0, 0.0)
# The trend's log scale is clipped to +-this, so a prediction far outside
# the calibrated region saturates the score instead of overflowing.
_MAX_LOG_SCALE = 300.0

# Newton iteration on the shape parameter stops when the step shrinks
# below this fraction of the current value.
_SHAPE_REL_TOL = 1e-10
_MAX_NEWTON_ITER = 100
# Log-moment gaps below this mean the population is numerically constant.
_MIN_LOG_MOMENT_GAP = 1e-12


@dataclass(frozen=True)
class GammaModel:
    """A fitted gamma distribution (shape k, scale theta).

    ``log_likelihood`` and ``iterations`` record how the fit went; they do
    not affect scoring.
    """

    shape: float
    scale: float
    log_likelihood: float = math.nan
    iterations: int = 0

    def __post_init__(self):
        ok = math.isfinite(self.shape) and math.isfinite(self.scale)
        if not (ok and self.shape > 0.0 and self.scale > 0.0):
            raise ValueError(
                f"gamma parameters must be positive and finite, got shape={self.shape!r} scale={self.scale!r}"
            )

    def mean(self) -> float:
        return self.shape * self.scale


@dataclass(frozen=True)
class CalibrationModel:
    """Per-scene gamma fits for the two uncertainty channels.

    ``trans``/``rot`` fit the whole trace population (scene-level scores).
    ``*_trend`` are (intercept, x, y, z) coefficients of log trace in the
    predicted position, and ``*_residual`` fit trace / exp(trend) (scores
    conditioned on the predicted pose).  A residual left unset is the
    scene gamma, which is exact for the default zero trend.
    """

    trans: GammaModel
    rot: GammaModel
    source_scene: str
    population_size: int
    trans_ks: float = math.nan
    rot_ks: float = math.nan
    trans_trend: tuple[float, float, float, float] = _ZERO_TREND
    rot_trend: tuple[float, float, float, float] = _ZERO_TREND
    trans_residual: GammaModel | None = None
    rot_residual: GammaModel | None = None

    def __post_init__(self):
        if self.population_size < MIN_POPULATION:
            raise ValueError(
                f"population_size {self.population_size} below minimum {MIN_POPULATION}"
            )
        for trend in (self.trans_trend, self.rot_trend):
            if len(trend) != 4 or not all(math.isfinite(c) for c in trend):
                raise ValueError(f"a trend needs 4 finite coefficients, got {trend!r}")
        if self.trans_residual is None:
            object.__setattr__(self, "trans_residual", self.trans)
        if self.rot_residual is None:
            object.__setattr__(self, "rot_residual", self.rot)


@dataclass(frozen=True)
class ZScore:
    """CDF percentiles of an uncertainty estimate within a scene population.

    Each field lies in [0, 1]; lower means more confident.  ``combined``
    is the plain average of the two channels.
    """

    trans_pct: float
    rot_pct: float
    combined: float


def fit_gamma(values: Sequence[float]) -> GammaModel:
    """Maximum-likelihood gamma fit.

    Solves ln(k) - psi(k) = ln(mean) - mean(ln v) for the shape by Newton
    iteration from the closed-form starting point
    k0 = (3 - s + sqrt((s - 3)^2 + 24 s)) / (12 s); the scale is mean / k.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"values must be a flat sequence, got shape {v.shape}")
    if v.size < MIN_POPULATION:
        raise InsufficientPopulation(f"need at least {MIN_POPULATION} values, got {v.size}")
    if not np.all(np.isfinite(v)) or np.any(v <= 0.0):
        raise NonPositiveValue("gamma fitting requires strictly positive, finite values")

    mean = float(v.mean())
    mean_log = float(np.log(v).mean())
    s = math.log(mean) - mean_log
    if s < _MIN_LOG_MOMENT_GAP:
        raise InsufficientVariance(
            f"log-moment gap {s!r} is too small; the population is nearly constant"
        )

    k = (3.0 - s + math.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s)
    iterations = 0
    converged = False
    for iterations in range(1, _MAX_NEWTON_ITER + 1):
        step = (math.log(k) - digamma(k) - s) / (1.0 / k - trigamma(k))
        k_next = k - step
        if k_next <= 0.0:
            k_next = k / 2.0
        converged = abs(k_next - k) < _SHAPE_REL_TOL * k
        k = k_next
        if converged:
            break
    if not converged:
        raise NoConvergence(f"gamma shape solve did not converge within {_MAX_NEWTON_ITER} steps")

    theta = mean / k
    ll = float(
        (k - 1.0) * v.size * mean_log
        - v.sum() / theta
        - v.size * (math.lgamma(k) + k * math.log(theta))
    )
    return GammaModel(shape=k, scale=theta, log_likelihood=ll, iterations=iterations)


def gamma_cdf(model: GammaModel, x: float) -> float:
    """P(X <= x) under the fitted gamma; 0 for non-positive x."""
    if x <= 0.0:
        return 0.0
    return reg_lower_gamma(model.shape, x / model.scale)


def ks_statistic(model: GammaModel, values: Sequence[float]) -> float:
    """One-sample Kolmogorov-Smirnov distance between data and the fit."""
    v = np.sort(np.asarray(values, dtype=float))
    n = v.size
    if n == 0:
        raise ValueError("cannot compute a KS statistic on an empty sample")
    cdf = np.array([gamma_cdf(model, float(x)) for x in v])
    steps = np.arange(n, dtype=float)
    upper = float(np.max((steps + 1.0) / n - cdf))
    lower = float(np.max(cdf - steps / n))
    return max(upper, lower)


def _trend_scale(trend: Sequence[float], position: np.ndarray) -> float:
    """exp(c0 + c . position): the trace a scene typically shows there."""
    log_scale = trend[0] + float(np.dot(trend[1:], position))
    return math.exp(min(max(log_scale, -_MAX_LOG_SCALE), _MAX_LOG_SCALE))


def _fit_trend(traces: np.ndarray, positions: np.ndarray) -> tuple[tuple, GammaModel]:
    """Least-squares log-linear trend plus a gamma fit to the residuals."""
    design = np.column_stack([np.ones(len(positions)), positions])
    coef, *_ = np.linalg.lstsq(design, np.log(traces), rcond=None)
    trend = tuple(float(c) for c in coef)
    residuals = [t / _trend_scale(trend, p) for t, p in zip(traces, positions)]
    return trend, fit_gamma(residuals)


def _position(p) -> np.ndarray:
    return p.as_array() if isinstance(p, Vec3) else np.asarray(p, dtype=float)


def _as_positions(positions, count: int) -> np.ndarray:
    arr = np.asarray([_position(p) for p in positions], dtype=float)
    if arr.shape != (count, 3):
        raise ValueError(f"positions must be {count} (x, y, z) rows, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("positions must be finite")
    return arr


def calibrate(
    scene_traces: Sequence[tuple[float, float]],
    scene_id: str,
    positions: Sequence | None = None,
) -> CalibrationModel:
    """Fit independent gamma models to a scene's two trace channels.

    ``scene_traces`` holds (trans_trace, rot_trace) pairs from one scene.
    A KS distance per channel is recorded as a goodness-of-fit diagnostic.
    ``positions`` optionally gives each query's predicted (Monte Carlo
    mean) position, as ``Vec3`` or (x, y, z); with them each channel also
    gets a pose trend and a residual gamma for :func:`detection_score`.
    """
    arr = np.asarray(scene_traces, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(
            f"scene_traces must be (trans_trace, rot_trace) pairs, got shape {arr.shape}"
        )
    if arr.shape[0] < MIN_POPULATION:
        raise InsufficientPopulation(
            f"need at least {MIN_POPULATION} trace pairs, got {arr.shape[0]}"
        )
    trans = fit_gamma(arr[:, 0])
    rot = fit_gamma(arr[:, 1])
    conditioned = {}
    if positions is not None:
        pos = _as_positions(positions, arr.shape[0])
        trans_trend, trans_residual = _fit_trend(arr[:, 0], pos)
        rot_trend, rot_residual = _fit_trend(arr[:, 1], pos)
        conditioned = dict(
            trans_trend=trans_trend,
            rot_trend=rot_trend,
            trans_residual=trans_residual,
            rot_residual=rot_residual,
        )
    return CalibrationModel(
        trans=trans,
        rot=rot,
        source_scene=scene_id,
        population_size=int(arr.shape[0]),
        trans_ks=ks_statistic(trans, arr[:, 0]),
        rot_ks=ks_statistic(rot, arr[:, 1]),
        **conditioned,
    )


def z_score(model: CalibrationModel, estimate: "UncertaintyEstimate") -> ZScore:
    """Percentile of each trace within the calibration population."""
    t = gamma_cdf(model.trans, estimate.trans_trace)
    r = gamma_cdf(model.rot, estimate.rot_trace)
    return ZScore(trans_pct=t, rot_pct=r, combined=0.5 * (t + r))


def detection_score(model: CalibrationModel, estimate: "UncertaintyEstimate") -> ZScore:
    """Percentile of each trace relative to the scene's trace at the same
    predicted position (the estimate's mean position).

    Equals :func:`z_score` exactly when the calibration has no trend.
    """
    p = _position(estimate.trans_mean)
    t = gamma_cdf(model.trans_residual, estimate.trans_trace / _trend_scale(model.trans_trend, p))
    r = gamma_cdf(model.rot_residual, estimate.rot_trace / _trend_scale(model.rot_trend, p))
    return ZScore(trans_pct=t, rot_pct=r, combined=0.5 * (t + r))


def _gamma_to_dict(g: GammaModel) -> dict:
    return {
        "shape": g.shape,
        "scale": g.scale,
        "log_likelihood": g.log_likelihood,
        "iterations": g.iterations,
    }


def _gamma_from_dict(d: dict) -> GammaModel:
    return GammaModel(
        shape=float(d["shape"]),
        scale=float(d["scale"]),
        log_likelihood=float(d.get("log_likelihood", math.nan)),
        iterations=int(d.get("iterations", 0)),
    )


def save_calibration(path: str | os.PathLike, model: CalibrationModel) -> None:
    doc = {
        "format": CALIBRATION_FORMAT,
        "source_scene": model.source_scene,
        "population_size": model.population_size,
        "trans": _gamma_to_dict(model.trans),
        "rot": _gamma_to_dict(model.rot),
        "trans_ks": model.trans_ks,
        "rot_ks": model.rot_ks,
        "trans_trend": list(model.trans_trend),
        "rot_trend": list(model.rot_trend),
        "trans_residual": _gamma_to_dict(model.trans_residual),
        "rot_residual": _gamma_to_dict(model.rot_residual),
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def load_calibration(path: str | os.PathLike) -> CalibrationModel:
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except json.JSONDecodeError as e:
            raise ParseError(f"invalid calibration file: {e.msg}", line=e.lineno) from e
    fmt = doc.get("format") if isinstance(doc, dict) else None
    if fmt not in _READABLE_FORMATS:
        raise ParseError(f"unsupported calibration format {fmt!r}, expected {CALIBRATION_FORMAT!r}")
    try:
        fields = dict(
            trans=_gamma_from_dict(doc["trans"]),
            rot=_gamma_from_dict(doc["rot"]),
            source_scene=str(doc["source_scene"]),
            population_size=int(doc["population_size"]),
            trans_ks=float(doc.get("trans_ks", math.nan)),
            rot_ks=float(doc.get("rot_ks", math.nan)),
        )
        if fmt == CALIBRATION_FORMAT:
            fields.update(
                trans_trend=tuple(float(c) for c in doc["trans_trend"]),
                rot_trend=tuple(float(c) for c in doc["rot_trend"]),
                trans_residual=_gamma_from_dict(doc["trans_residual"]),
                rot_residual=_gamma_from_dict(doc["rot_residual"]),
            )
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"invalid calibration file: {e}") from e
    return CalibrationModel(**fields)
