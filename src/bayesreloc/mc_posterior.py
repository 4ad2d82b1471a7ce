"""Monte Carlo dropout inference: pose sampling and scatter uncertainty.

Repeated stochastic forward passes through a dropout network give a cloud
of pose hypotheses.  The point estimate is the sample mean (componentwise
for position, hemisphere-aligned mean for orientation) and the uncertainty
per channel is the trace of the sample covariance.  Sample sets and their
statistics stay arrays; ``Vec3`` and ``UnitQuaternion`` appear only in
the estimate handed back.

``localize`` runs one query a pass at a time and is the reference.
``localize_batch`` gives the same results, bit for bit, for many queries:
the maskless trunk runs once per query, and blocks of passes share one
mask hash and cross the dropout layers together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import DegenerateQuaternion, ShapeMismatch
from .geometry import NORM_FLOOR, Pose, UnitQuaternion, Vec3, hemisphere_aligned, normalize, quaternion_mean
from .regressor import POSE_WIDTH, NetworkParams, _stochastic_passes, _trunk, draw_mask, forward

# Scatter statistics stop improving noticeably past this many passes.
DEFAULT_NUM_SAMPLES = 40
MAX_NUM_SAMPLES = 128
# Passes localize_batch runs as one block, in whole queries (at least two,
# as MAX_NUM_SAMPLES is half of it).  It bounds the mask block, 2 KB a
# pass for a 128,128 trunk: 1024-row blocks cost 6 MB more peak memory.
_BLOCK_ROWS = 256
# Componentwise spread at or below this is floating-point noise, not
# scatter; the channel then reports exactly zero trace and the common row
# as its mean (averaging bit-identical rows would drift by an ulp).
IDENTICAL_TOL = 1e-12


@dataclass(frozen=True)
class PoseSampleSet:
    """Stochastic pose hypotheses for one query, one row per sample.

    ``positions`` is (N, 3); ``quaternions`` is (N, 4), its rows unit norm
    and hemisphere-aligned to row 0.
    """

    positions: np.ndarray
    quaternions: np.ndarray


@dataclass(frozen=True)
class UncertaintyEstimate:
    """Mean pose and covariance-trace uncertainty of a sample set.

    ``degenerate`` marks sets with no usable scatter (a single sample, or
    all samples identical, as with dropout_p = 0); traces are then zero.
    """

    trans_trace: float
    rot_trace: float
    trans_mean: Vec3
    rot_mean: UnitQuaternion
    degenerate: bool = False


def _unit_rows(raw: np.ndarray) -> np.ndarray:
    """Raw quaternion rows scaled to unit norm, bit for bit as :func:`normalize` scales each."""
    w, x, y, z = raw.T
    with np.errstate(over="ignore"):  # an infinite norm is rejected below
        n = np.sqrt(w * w + x * x + y * y + z * z)
    usable = np.isfinite(n) & (n > NORM_FLOOR)
    if not usable.all():
        first = float(n[np.argmin(usable)])
        raise DegenerateQuaternion(f"quaternion norm {first!r} is unusable (floor {NORM_FLOOR})")
    return raw / n[:, None]


def sample_posterior(
    net: NetworkParams,
    x,
    num_samples: int = DEFAULT_NUM_SAMPLES,
    master_seed: int = 0,
) -> PoseSampleSet:
    """Run ``num_samples`` stochastic passes with fresh masks.

    Sample i uses the mask derived from (master_seed, i), so the set is a
    pure function of its arguments.
    """
    _check_count(num_samples)
    outs = np.empty((num_samples, POSE_WIDTH))
    for i in range(num_samples):
        outs[i] = forward(net, x, draw_mask(net, master_seed, i))
    return _sample_set(outs)


def _check_count(num_samples: int) -> None:
    if not (1 <= num_samples <= MAX_NUM_SAMPLES):
        raise ValueError(f"num_samples must be in [1, {MAX_NUM_SAMPLES}], got {num_samples}")


def _sample_set(outs: np.ndarray) -> PoseSampleSet:
    """The sample set of one query's (N, POSE_WIDTH) pass outputs."""
    quaternions = hemisphere_aligned(_unit_rows(outs[:, 3:]))
    return PoseSampleSet(np.ascontiguousarray(outs[:, :3]), quaternions)


def _canonical_sign(row: np.ndarray) -> UnitQuaternion:
    """The rotation of a unit row, signed so its first nonzero component is positive."""
    lead = row[row != 0.0]
    return UnitQuaternion.from_array(-row if lead.size and lead[0] < 0.0 else row)


def estimate(samples: PoseSampleSet) -> UncertaintyEstimate:
    """Mean pose and per-channel covariance traces.

    Traces use the N-1 denominator.  The rotation channel is the trace of
    the 4x4 covariance of the aligned quaternion components; the returned
    mean orientation is sign-canonicalized, so flipping signs of any input
    samples never changes the estimate.
    """
    positions = samples.positions
    quats = hemisphere_aligned(samples.quaternions)
    pos_identical = bool(np.max(np.abs(positions - positions[0])) <= IDENTICAL_TOL)
    rot_identical = bool(np.max(np.abs(quats - quats[0])) <= IDENTICAL_TOL)

    trans_mean = Vec3.from_array(positions[0] if pos_identical else positions.mean(axis=0))
    rot_row = (normalize(quats[0]) if rot_identical else quaternion_mean(quats)).as_array()
    rot_mean = _canonical_sign(rot_row)

    if len(positions) < 2:
        return UncertaintyEstimate(0.0, 0.0, trans_mean, rot_mean, degenerate=True)
    trans_trace = 0.0 if pos_identical else float(positions.var(axis=0, ddof=1).sum())
    rot_trace = 0.0 if rot_identical else float(quats.var(axis=0, ddof=1).sum())
    degenerate = trans_trace == 0.0 and rot_trace == 0.0
    return UncertaintyEstimate(trans_trace, rot_trace, trans_mean, rot_mean, degenerate=degenerate)


def estimate_determinant(samples: PoseSampleSet) -> tuple[float, float]:
    """Determinants of the two sample covariance matrices.

    Kept alongside the traces for comparison: a cloud stretched along one
    axis keeps a large trace but its determinant collapses toward zero, so
    determinants understate elongated scatter.
    """
    if len(samples.positions) < 2:
        raise ValueError("need at least 2 samples for covariance determinants")
    trans_cov = np.cov(samples.positions, rowvar=False, ddof=1)
    rot_cov = np.cov(hemisphere_aligned(samples.quaternions), rowvar=False, ddof=1)
    return float(np.linalg.det(trans_cov)), float(np.linalg.det(rot_cov))


def localize(
    net: NetworkParams,
    x,
    num_samples: int = DEFAULT_NUM_SAMPLES,
    master_seed: int = 0,
) -> tuple[Pose, UncertaintyEstimate]:
    """Sample, average, and score one query in a single call."""
    return _localized(sample_posterior(net, x, num_samples, master_seed))


def _localized(samples: PoseSampleSet) -> tuple[Pose, UncertaintyEstimate]:
    est = estimate(samples)
    return Pose(est.trans_mean, est.rot_mean), est


def localize_batch(
    net: NetworkParams,
    X: Sequence,
    master_seeds: Sequence[int],
    num_samples: int = DEFAULT_NUM_SAMPLES,
) -> list[tuple[Pose, UncertaintyEstimate]]:
    """``[localize(net, x, num_samples, s) for x, s in zip(X, master_seeds)]``,
    bit for bit; a wrong input width or a degenerate pass raises the same
    error at the same first query.

    The maskless trunk runs once per query, the masks of a block of
    queries are hashed together, and a block's passes cross the dropout
    layers as one stack of rows; see ``_stochastic_passes``.
    """
    return list(_localize_stream(net, X, master_seeds, num_samples))


def _localize_stream(
    net: NetworkParams, X: Sequence, master_seeds: Sequence[int], num_samples: int
) -> Iterator[tuple[Pose, UncertaintyEstimate]]:
    """Yield what :func:`localize_batch` returns, one query at a time.

    Blocks are computed when their first query is asked for, and a query
    that raises does so only when it is reached, so a caller that
    interleaves streams sees errors in the order a loop of ``localize``
    calls would.
    """
    queries = list(zip(X, master_seeds, strict=True))
    if not queries:
        return
    _check_count(num_samples)
    per_block = _BLOCK_ROWS // num_samples
    for start in range(0, len(queries), per_block):
        # A bad input ends its block, and raises once the queries before it are out.
        trunks, error = [], None
        for x, _ in queries[start : start + per_block]:
            try:
                trunks.append(_trunk(net, x))
            except (ShapeMismatch, TypeError, ValueError) as e:
                error = e
                break
        seeds = [seed for _, seed in queries[start : start + len(trunks)]]
        if trunks:
            outs = _stochastic_passes(net, np.array(trunks), seeds, num_samples)
            for q in range(len(trunks)):
                yield _localized(_sample_set(outs[q * num_samples : (q + 1) * num_samples]))
        if error is not None:
            raise error
