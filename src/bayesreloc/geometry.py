"""Pose types, quaternion algebra, the training loss, and error metrics.

Quaternions are stored scalar-first (w, x, y, z).  q and -q denote the
same rotation; every consumer in this module is insensitive to that sign
ambiguity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateMean, DegenerateQuaternion

# Constructors accept this much drift from unit norm; below it, callers
# must renormalize explicitly via normalize().
UNIT_TOL = 1e-9
# Raw 4-vectors with norm at or below this floor have no usable direction.
NORM_FLOOR = 1e-12


@dataclass(frozen=True)
class Vec3:
    """A 3D position in meters."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y) and math.isfinite(self.z)):
            raise ValueError(f"non-finite position component in {(self.x, self.y, self.z)!r}")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    @classmethod
    def from_array(cls, values) -> "Vec3":
        x, y, z = (float(v) for v in values)
        return cls(x, y, z)


@dataclass(frozen=True)
class UnitQuaternion:
    """A rotation as a unit quaternion, scalar part first.

    The constructor requires components that are already unit norm to
    within UNIT_TOL; build from raw values with :func:`normalize`.
    """

    w: float
    x: float
    y: float
    z: float

    def __post_init__(self):
        n = math.sqrt(self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z)
        if not (math.isfinite(n) and abs(n - 1.0) <= UNIT_TOL):
            raise ValueError(f"quaternion norm {n!r} is not 1 within {UNIT_TOL}")

    def as_array(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z], dtype=float)

    @classmethod
    def from_array(cls, values) -> "UnitQuaternion":
        w, x, y, z = (float(v) for v in values)
        return cls(w, x, y, z)

    def dot(self, other: "UnitQuaternion") -> float:
        return self.w * other.w + self.x * other.x + self.y * other.y + self.z * other.z

    def negated(self) -> "UnitQuaternion":
        return UnitQuaternion(-self.w, -self.x, -self.y, -self.z)


@dataclass(frozen=True)
class Pose:
    """A 6-DOF camera pose."""

    position: Vec3
    orientation: UnitQuaternion

    def components(self) -> tuple[float, ...]:
        """(tx, ty, tz, qw, qx, qy, qz), the order of the text tables' pose columns."""
        p, q = self.position, self.orientation
        return (p.x, p.y, p.z, q.w, q.x, q.y, q.z)


@dataclass(frozen=True)
class LossConfig:
    """Weight between the position term and the orientation term."""

    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta > 0.0):
            raise ValueError(f"beta must be positive and finite, got {self.beta!r}")


def normalize(q_raw: Sequence[float]) -> UnitQuaternion:
    """Scale a raw 4-vector to unit norm, preserving its direction.

    Raises DegenerateQuaternion when the norm is at or below NORM_FLOOR
    (or not finite).
    """
    w, x, y, z = (float(v) for v in q_raw)
    n = math.sqrt(w * w + x * x + y * y + z * z)
    if not (math.isfinite(n) and n > NORM_FLOOR):
        raise DegenerateQuaternion(f"quaternion norm {n!r} is unusable (floor {NORM_FLOOR})")
    return UnitQuaternion(w / n, x / n, y / n, z / n)


def quaternion_norms(rows: np.ndarray) -> np.ndarray:
    """Norms of (..., 4) rows, each summed left to right as :func:`normalize` sums it."""
    sq = rows * rows
    return np.sqrt(((sq[..., 0] + sq[..., 1]) + sq[..., 2]) + sq[..., 3])


def normalize_rows(raw: np.ndarray) -> tuple[np.ndarray, DegenerateQuaternion | None]:
    """The array twin of :func:`normalize`: raw (K, ..., 4) rows scaled to
    unit norm, bit for bit as :func:`normalize` scales each.

    Returns the scaled rows and None, or, when some row has a norm
    :func:`normalize` rejects, the scaled rows of the leading entries
    before the one holding the first such row (in C order) and the error
    :func:`normalize` raises on that row.
    """
    with np.errstate(over="ignore"):  # an infinite norm is rejected below
        n = quaternion_norms(raw)
    usable = np.isfinite(n) & (n > NORM_FLOOR)
    if usable.all():
        return raw / n[..., None], None
    first = np.unravel_index(np.argmin(usable), usable.shape)
    error = DegenerateQuaternion(f"quaternion norm {float(n[first])!r} is unusable (floor {NORM_FLOOR})")
    k = first[0]
    return raw[:k] / n[:k, ..., None], error


def pose_loss(predicted: Sequence[float], target: Pose, config: LossConfig) -> float:
    """Position error plus beta-weighted orientation error.

    ``predicted`` is a raw 7-vector (px, py, pz, qw, qx, qy, qz) exactly as
    a regression head emits it: the quaternion part stays unnormalized,
    while the target orientation enters at unit norm.  Returns
    ``||p_hat - p|| + beta * ||q_hat - q||``.
    """
    p = np.asarray(predicted, dtype=float)
    if p.shape != (7,):
        raise ValueError(f"predicted pose must have 7 components, got shape {p.shape}")
    q_raw = p[3:]
    n = float(np.linalg.norm(q_raw))
    if not (math.isfinite(n) and n > NORM_FLOOR):
        raise DegenerateQuaternion(f"predicted quaternion norm {n!r} is unusable (floor {NORM_FLOOR})")
    t_err = float(np.linalg.norm(p[:3] - target.position.as_array()))
    q_err = float(np.linalg.norm(q_raw - target.orientation.as_array()))
    return t_err + config.beta * q_err


def translation_error(a: Vec3, b: Vec3) -> float:
    """Euclidean distance in meters."""
    return math.dist((a.x, a.y, a.z), (b.x, b.y, b.z))


def rotation_error_deg(a: UnitQuaternion, b: UnitQuaternion) -> float:
    """Geodesic angle between two rotations, in degrees.

    Computed as 2 * arccos(|a . b|); symmetric, sign-insensitive, and in
    [0, 180].  The dot product is clamped so round-off never escapes the
    arccos domain.
    """
    d = min(1.0, abs(a.dot(b)))
    return math.degrees(2.0 * math.acos(d))


def hemisphere_aligned(rows) -> np.ndarray:
    """A copy of unit quaternion rows, one (N, 4) block or a (Q, N, 4) stack,
    each sign-flipped into its block's row 0 hemisphere (one gemv a block)."""
    rows = np.asarray(rows, dtype=float)
    return np.where(rows @ rows[..., 0, :, None] < 0.0, -rows, rows)


def quaternion_mean(rows) -> UnitQuaternion:
    """Average a cluster of rotations given as an (N, 4) array of unit rows.

    Each row is sign-flipped into the hemisphere of the first one, the
    components are averaged, and the result is renormalized.  For tight
    unimodal clusters this is the chordal L2 mean.  Raises DegenerateMean
    when the aligned rows cancel out (antipodal or widely spread sets).
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[0] == 0 or rows.shape[1] != 4:
        raise ValueError(f"expected a nonempty (N, 4) array of quaternions, got shape {rows.shape}")
    acc = hemisphere_aligned(rows).mean(axis=0)
    n = float(np.linalg.norm(acc))
    if n <= UNIT_TOL:
        raise DegenerateMean(f"aligned quaternion mean has norm {n!r}")
    return UnitQuaternion.from_array(acc / n)
