"""Monte Carlo dropout inference: pose sampling and scatter uncertainty.

Repeated stochastic forward passes through a dropout network give a cloud
of pose hypotheses.  The point estimate is the sample mean (componentwise
for position, hemisphere-aligned mean for orientation) and the uncertainty
per channel is the trace of the sample covariance.  Sample sets and their
statistics stay arrays; ``Vec3``, ``UnitQuaternion``, ``Pose`` and
``UncertaintyEstimate`` are built only for a query handed back.

``localize`` samples one query a pass at a time: the reference sampler
and the timed online path.  ``localize_batch`` gives the same results,
bit for bit, for many queries: the maskless trunk runs once per query,
and blocks of passes share one mask hash and cross the dropout layers
together.  One statistics kernel reduces a block of queries, aligned by
:func:`~bayesreloc.geometry.hemisphere_aligned`, to means and traces,
and ``estimate`` is its one-query case.  Detection reads such streams.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import DegenerateMean, DegenerateQuaternion, ShapeMismatch
from .geometry import (
    NORM_FLOOR,
    UNIT_TOL,
    Pose,
    UnitQuaternion,
    Vec3,
    hemisphere_aligned,
    normalize_rows,
    quaternion_norms,
)
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

    ``positions`` is (N, 3) and ``quaternions`` (N, 4), for one N >= 1;
    as sampled, the quaternion rows are unit norm and hemisphere-aligned
    to row 0.
    """

    positions: np.ndarray
    quaternions: np.ndarray

    def __post_init__(self):
        shapes = np.shape(self.positions), np.shape(self.quaternions)
        n = shapes[0][:1]
        if shapes != (n + (3,), n + (4,)):
            raise ShapeMismatch(f"a sample set needs (N, 3) positions and (N, 4) quaternions, got {shapes}")
        if n == (0,):
            raise ValueError("a sample set needs at least one sample")


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
    quaternions, error = normalize_rows(outs[:, 3:])
    if error is not None:
        raise error
    return PoseSampleSet(np.ascontiguousarray(outs[:, :3]), hemisphere_aligned(quaternions))


def _check_count(num_samples: int) -> None:
    if not (1 <= num_samples <= MAX_NUM_SAMPLES):
        raise ValueError(f"num_samples must be in [1, {MAX_NUM_SAMPLES}], got {num_samples}")


def _estimates(block: np.ndarray) -> Iterator[UncertaintyEstimate]:
    """The :func:`estimate` of each query of a (Q, N, 7) block of positions
    and unit quaternions, bit for bit.

    The block is reduced when its first query is asked for, and each
    estimate is built when its query is reached, so a query whose rotation
    is unusable raises after the queries before it.  Every reduction keeps
    the order of the one-query numpy calls it replaces: sums and means run
    down the sample axis, the hemisphere dot and the mean's norm are
    stacked matmuls (a gemv and a dot per query), and :func:`normalize` is
    replayed component by component.
    """
    count = block.shape[1]
    rows = np.concatenate((block[..., :3], hemisphere_aligned(block[..., 3:])), axis=2)
    spread = np.abs(rows - rows[:, :1]).max(axis=1)
    pos_identical = spread[:, :3].max(axis=1) <= IDENTICAL_TOL
    rot_identical = spread[:, 3:].max(axis=1) <= IDENTICAL_TOL
    mean = np.add.reduce(rows, axis=1) / count

    # A rotation is the renormalized mean, or an identical set's first row
    # normalized; a norm either would reject raises at its query.
    rot = mean[:, 3:]
    norm = np.sqrt(rot[:, None] @ rot[:, :, None])[:, 0, 0]
    fault = norm <= UNIT_TOL
    if rot_identical.any():
        rot = np.where(rot_identical[:, None], rows[:, 0, 3:], rot)
        norm = np.where(rot_identical, quaternion_norms(rows[:, 0, 3:]), norm)
        fault = np.where(rot_identical, ~(np.isfinite(norm) & (norm > NORM_FLOOR)), fault)
    rot = rot / np.where(fault, 1.0, norm)[:, None]  # a faulty query raises; 1.0 keeps its division quiet
    lead = rot[np.arange(len(rot)), np.argmax(rot != 0.0, axis=1)]
    rot = np.where(lead[:, None] < 0.0, -rot, rot)

    # A single sample is identical to itself, so its zero traces do not
    # depend on the denominator.
    d = rows - mean[:, None]
    var = np.add.reduce(d * d, axis=1) / max(count - 1, 1)
    trans_trace = np.where(pos_identical, 0.0, var[:, :3].sum(axis=1))
    rot_trace = np.where(rot_identical, 0.0, var[:, 3:].sum(axis=1))
    trans_mean = np.where(pos_identical[:, None], rows[:, 0, :3], mean[:, :3])
    degenerate = (trans_trace == 0.0) & (rot_trace == 0.0)
    queries = zip(*(a.tolist() for a in (trans_mean, rot, trans_trace, rot_trace, degenerate, fault)))
    for q, (t_mean, r_mean, t_trace, r_trace, degen, faulty) in enumerate(queries):
        position = Vec3(*t_mean)
        if faulty:
            n = float(norm[q])
            if rot_identical[q]:
                raise DegenerateQuaternion(f"quaternion norm {n!r} is unusable (floor {NORM_FLOOR})")
            raise DegenerateMean(f"aligned quaternion mean has norm {n!r}")
        yield UncertaintyEstimate(t_trace, r_trace, position, UnitQuaternion(*r_mean), degen)


def estimate(samples: PoseSampleSet) -> UncertaintyEstimate:
    """Mean pose and per-channel covariance traces.

    Traces use the N-1 denominator.  The rotation channel is the trace of
    the 4x4 covariance of the aligned quaternion components; the returned
    mean orientation is sign-canonicalized, so flipping signs of any input
    samples never changes the estimate.  This is the one-query case of the
    block statistics that batched localization computes.
    """
    block = np.concatenate((samples.positions, samples.quaternions), axis=1, dtype=float)
    return next(_estimates(block[None]))


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
    est = estimate(sample_posterior(net, x, num_samples, master_seed))
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
    queries are hashed together, a block's passes cross the dropout
    layers as one stack of rows (see ``_stochastic_passes``), and the
    block's statistics are computed as arrays in one call.
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
            outs = outs.reshape(len(trunks), num_samples, POSE_WIDTH)
            # A degenerate pass comes before any bad input after it.
            quats, degenerate = normalize_rows(outs[..., 3:])
            error = degenerate or error
            for est in _estimates(np.concatenate((outs[: len(quats), :, :3], quats), axis=2)):
                yield Pose(est.trans_mean, est.rot_mean), est
        if error is not None:
            raise error
