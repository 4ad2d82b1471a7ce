"""Synthetic pose-labelled scenes and the on-disk dataset format.

A scene is a fixed random nonlinear map from camera pose (plus nuisance
variables) to a feature vector.  Regressing the inverse of that map is
the localization task; different generator seeds give visually unrelated
"buildings" for scene recognition experiments.

Scenes are generated a block of examples at a time: each example draws
from its own stream, and the pose encoding and feature map then run on
the whole block (``FeatureMap.__call__`` and ``encode_pose`` are their
one-row cases).  ``nearest_neighbours`` finds the nearest training row
of many queries by a pruned exact scan; ``nearest_neighbour_pose`` is
its one-query case.
"""

from __future__ import annotations

import itertools
import math
import os
import re
from dataclasses import dataclass, asdict
from typing import Sequence

import numpy as np

from ._files import field, numbers, open_text, read_json, table_rows, write_json, write_table
from .errors import DegenerateQuaternion, InvalidSpec, ParseError, ShapeMismatch
from .geometry import Pose, UnitQuaternion, Vec3, normalize, normalize_rows
from .seeding import derive_rng, derive_rngs

DATA_FORMAT = "bayesreloc-data-v1"
SCENE_FORMAT = "bayesreloc-scene-v1"
MIN_CALIB_EXAMPLES = 8

Range = tuple[float, float]

# Fixed per-split tags for seed derivation, so each split has its own
# reproducible stream regardless of generation order.
_SPLIT_TAGS = {"train": 1, "calib": 2, "test": 3}
_WEIGHTS_TAG = 0
# Nuisance inputs get down-weighted relative to pose inputs so they perturb
# features without drowning out the pose signal; position inputs get boosted
# so feature distance is position-sensitive, not orientation-dominated.
_NUISANCE_WEIGHT = 0.25
_POSITION_GAIN = 4.0
_POSITION_CENTER = 0.5
# Survey coverage is uneven, the way mapping runs cluster near a site's
# entrance: most training captures fall in the first part of the x extent
# and the far end is visited rarely.  Queries still arrive anywhere, so a
# regressor interpolates in the well-covered zone and extrapolates in the
# sparse one.  Only the train split is skewed; calib and test stay uniform.
_TRAIN_DENSE_FRACTION = 0.85
_TRAIN_DENSE_SPAN = 0.5
# Orientation is encoded relative to a reference heading that turns
# steadily along x (by 2 * _ORIENT_TWIST radians across the extent), the
# way a camera's heading reads against whatever structure is locally
# visible.  Recovering absolute orientation therefore needs training
# coverage near the query's x, which ties heading difficulty to the same
# survey sparsity that drives position difficulty.
_ORIENT_TWIST = 1.5
# Examples generated as one block: bounds the block's arrays (the feature
# map's hidden layer is 512 bytes a row at the default widths).
_BLOCK_EXAMPLES = 256
# Queries whose nearest training rows are searched together.  It bounds
# the (queries, rows) arrays of bounds: 64 queries against 2,000 rows
# raised peak memory by about 4 MB, 8 left it flat.
_NN_BLOCK_QUERIES = 8


@dataclass(frozen=True)
class SceneSpec:
    """Everything needed to regenerate a scene bit-for-bit."""

    scene_id: str
    extent: tuple[Range, Range, Range] = ((0.0, 100.0), (0.0, 50.0), (0.0, 2.0))
    feature_dim: int = 32
    nuisance_dim: int = 4
    noise_sigma: float = 0.05
    aliasing_period: float | None = None
    generator_seed: int = 0
    # Full 360 degree yaw folds q and -q style ambiguities into the regression
    # target and a small network just predicts an average quaternion.  A half
    # turn keeps orientation learnable while still spanning a wide arc.
    yaw_range_deg: Range = (-90.0, 90.0)
    pitch_roll_std_deg: float = 3.0

    def __post_init__(self):
        # A '#' would start a comment in the dataset files.
        if not self.scene_id or any(ch.isspace() or ch == "#" for ch in self.scene_id):
            raise InvalidSpec(f"scene_id must be non-empty without whitespace or '#', got {self.scene_id!r}")
        if len(self.extent) != 3:
            raise InvalidSpec(f"extent needs 3 (lo, hi) ranges, got {len(self.extent)}")
        for axis, (lo, hi) in zip("xyz", self.extent):
            if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
                raise InvalidSpec(f"{axis} extent ({lo!r}, {hi!r}) is empty or non-finite")
        if self.feature_dim < 4:
            raise InvalidSpec(f"feature_dim must be >= 4, got {self.feature_dim}")
        if self.nuisance_dim < 0:
            raise InvalidSpec(f"nuisance_dim must be >= 0, got {self.nuisance_dim}")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0.0):
            raise InvalidSpec(f"noise_sigma must be >= 0, got {self.noise_sigma!r}")
        if self.aliasing_period is not None and not 0.0 < self.aliasing_period < math.inf:
            raise InvalidSpec(f"aliasing_period must be positive and finite, got {self.aliasing_period!r}")
        lo, hi = self.yaw_range_deg
        if not (math.isfinite(lo) and math.isfinite(hi) and hi >= lo):
            raise InvalidSpec(f"yaw range ({lo!r}, {hi!r}) is inverted or non-finite")
        if not 0.0 <= self.pitch_roll_std_deg < math.inf:
            raise InvalidSpec(f"pitch_roll_std_deg must be >= 0 and finite, got {self.pitch_roll_std_deg!r}")


@dataclass(frozen=True)
class Example:
    query_id: str
    features: np.ndarray
    pose: Pose


@dataclass(frozen=True)
class SceneDataset:
    spec: SceneSpec
    train: list[Example]
    calib: list[Example]
    test: list[Example]


class FeatureMap:
    """The scene's fixed random two-layer tanh map.

    Input is the 7-component pose encoding (extent-normalized position,
    with x wrapped modulo the aliasing period when one is set, plus the
    unit quaternion) concatenated with the nuisance values.  The map
    works on blocks of rows (``encode_poses`` and ``features``); calling
    it and ``encode_pose`` are the one-row cases.
    """

    def __init__(self, spec: SceneSpec):
        self.spec = spec
        rng = derive_rng(spec.generator_seed, _WEIGHTS_TAG)
        in_dim = 7 + spec.nuisance_dim
        hidden = max(16, 2 * spec.feature_dim)
        self.w1 = rng.normal(size=(hidden, in_dim)) * (2.0 / math.sqrt(in_dim))
        self.w1[:, 7:] *= _NUISANCE_WEIGHT
        self.b1 = rng.uniform(-1.0, 1.0, size=hidden)
        self.w2 = rng.normal(size=(spec.feature_dim, hidden)) / math.sqrt(hidden)
        self.b2 = rng.uniform(-0.1, 0.1, size=spec.feature_dim)

    def encode_poses(self, positions: np.ndarray, quaternions: np.ndarray) -> np.ndarray:
        """(N, 7) encodings of (N, 3) positions and (N, 4) unit quaternions.

        The reference heading's cosine and sine are taken row by row with
        ``math``: numpy's vectorised ones may differ from libm by an ulp.
        """
        lo, hi = np.array(self.spec.extent).T
        t = positions - lo
        if self.spec.aliasing_period is not None:
            t[:, 0] %= self.spec.aliasing_period
        t /= hi - lo
        # Compose the orientation with the local reference heading: a yaw
        # of 2*psi, applied as the unit quaternion (cos psi, 0, 0, sin psi).
        turns = [(math.cos(psi), math.sin(psi)) for psi in (_ORIENT_TWIST * t[:, 0]).tolist()]
        c, s = np.array(turns).reshape(-1, 2).T
        w, x, y, z = quaternions.T
        return np.column_stack(
            (_POSITION_GAIN * (t - _POSITION_CENTER), c * w - s * z, c * x - s * y, s * x + c * y, s * w + c * z)
        )

    def encode_pose(self, pose: Pose) -> np.ndarray:
        return self.encode_poses(pose.position.as_array()[None], pose.orientation.as_array()[None])[0]

    def features(self, encodings: np.ndarray, nuisance: np.ndarray) -> np.ndarray:
        """Noise-free (N, feature_dim) features of (N, 7) pose encodings and
        (N, nuisance_dim) nuisance rows.

        The layers are stacked matmuls on (N, width, 1) columns, one
        matrix-vector product per row, so a row's features do not depend
        on the block it is in.
        """
        u = np.concatenate((encodings, nuisance), axis=1)[:, :, None]
        hidden = np.tanh(self.w1 @ u + self.b1[:, None])
        return (self.w2 @ hidden + self.b2[:, None])[:, :, 0]

    def __call__(self, pose: Pose, nuisance: np.ndarray) -> np.ndarray:
        """Noise-free features for one (pose, nuisance) pair."""
        nuisance = np.asarray(nuisance, dtype=float)
        if nuisance.shape != (self.spec.nuisance_dim,):
            raise ShapeMismatch(
                f"nuisance shape {nuisance.shape} does not match spec ({self.spec.nuisance_dim},)"
            )
        return self.features(self.encode_pose(pose)[None], nuisance[None])[0]


def _euler_quaternions(degrees: np.ndarray) -> np.ndarray:
    """Raw (N, 4) quaternions of intrinsic z-y-x rotations given as (N, 3)
    yaw, pitch, roll rows in degrees, one row at a time with ``math``."""
    rows = []
    for yaw, pitch, roll in degrees.tolist():
        yaw, pitch, roll = math.radians(yaw), math.radians(pitch), math.radians(roll)
        cy, sy = math.cos(yaw / 2.0), math.sin(yaw / 2.0)
        cp, sp = math.cos(pitch / 2.0), math.sin(pitch / 2.0)
        cr, sr = math.cos(roll / 2.0), math.sin(roll / 2.0)
        rows.append(
            (
                cy * cp * cr + sy * sp * sr,
                cy * cp * sr - sy * sp * cr,
                cy * sp * cr + sy * cp * sr,
                sy * cp * cr - cy * sp * sr,
            )
        )
    return np.array(rows).reshape(-1, 4)


def _check_injective(examples: Sequence[Example], limit: int = 1000) -> None:
    """Require distinct poses to map at least 1e-9 apart in feature space."""
    subset = examples[: min(limit, len(examples))]
    feats = np.stack([ex.features for ex in subset])
    pos = np.stack([ex.pose.position.as_array() for ex in subset])
    for i in range(len(subset)):
        d_feat = np.linalg.norm(feats[i + 1 :] - feats[i], axis=1)
        d_pose = np.linalg.norm(pos[i + 1 :] - pos[i], axis=1)
        bad = (d_feat < 1e-9) & (d_pose > 0.0)
        if np.any(bad):
            j = i + 1 + int(np.argmax(bad))
            raise InvalidSpec(
                f"feature map collision between {subset[i].query_id} and {subset[j].query_id}"
            )


def _example_block(
    spec: SceneSpec, fmap: FeatureMap, split: str, start: int, rngs: Sequence[np.random.Generator]
) -> list[Example]:
    """Examples start, start + 1, ... of a split, one per generator."""
    (x0, x1), (y0, y1), (z0, z1) = spec.extent
    yaw_lo, yaw_hi = spec.yaw_range_deg
    survey_bias = split == "train"
    noise = spec.noise_sigma > 0.0
    nuisance_end = 2 + spec.nuisance_dim
    normals = np.empty((len(rngs), nuisance_end + (spec.feature_dim if noise else 0)))
    uniforms = []
    for rng, row in zip(rngs, normals):
        if survey_bias and rng.random() < _TRAIN_DENSE_FRACTION:
            x = rng.uniform(x0, x0 + _TRAIN_DENSE_SPAN * (x1 - x0))
        else:
            x = rng.uniform(x0, x1)
        uniforms.append((x, rng.uniform(y0, y1), rng.uniform(z0, z1), rng.uniform(yaw_lo, yaw_hi)))
        rng.standard_normal(out=row)
    # normal(loc, scale) draws loc + scale * z; with loc 0 that is exact
    # with or without a fused multiply-add, and turns a -0.0 into 0.0.
    normals += 0.0
    drawn = np.array(uniforms).reshape(-1, 4)
    angles = np.column_stack((drawn[:, 3], 0.0 + spec.pitch_roll_std_deg * normals[:, :2]))
    quaternions, error = normalize_rows(_euler_quaternions(angles))
    if error is not None:
        raise error
    features = fmap.features(fmap.encode_poses(drawn[:, :3], quaternions), normals[:, 2:nuisance_end])
    if noise:
        features = features + normals[:, nuisance_end:] * spec.noise_sigma
    return [
        Example(f"{spec.scene_id}-{split}-{start + i:05d}", f, Pose(Vec3(*u[:3]), UnitQuaternion(*q)))
        for i, (f, u, q) in enumerate(zip(features, uniforms, quaternions.tolist()))
    ]


def generate_scene(
    spec: SceneSpec,
    n_train: int = 2000,
    n_calib: int = 200,
    n_test: int = 400,
) -> SceneDataset:
    """Generate a scene's three disjoint splits.

    Calib and test poses are uniform over the extent; train poses follow
    the survey-coverage skew along x.  Yaw is uniform in the configured
    range plus small Gaussian pitch/roll.  Every example is a pure
    function of (generator_seed, split, index): its stream is
    ``derive_rng(generator_seed, split_tag, index)``, and
    :func:`derive_rngs` hashes a split's seeds together.

    An example draws, in this order: for the train split a ``random()``
    that picks the densely surveyed span; ``uniform`` x, y, z and yaw (in
    degrees); then one ``standard_normal`` row of pitch, roll, the
    nuisance values and, when ``noise_sigma > 0``, the feature noise.
    The uniform draws stay scalar calls because numpy computes
    ``lo + range * u`` in C, where it may be fused: rescaling ``random()``
    output in numpy is not bit-safe on every platform.  ``normal(0, s)``
    is ``0 + s * z``, exact fused or not, so the normals are one row.
    Examples are made up to 256 at a time: the draws example by example,
    the quaternions from Euler angles row by row with ``math``, then the
    encoding and the feature map on the whole block.
    """
    if n_train < 1 or n_test < 1:
        raise InvalidSpec(f"split sizes must be >= 1, got train={n_train} test={n_test}")
    if n_calib < MIN_CALIB_EXAMPLES:
        raise InvalidSpec(f"n_calib must be >= {MIN_CALIB_EXAMPLES}, got {n_calib}")

    fmap = FeatureMap(spec)
    splits: dict[str, list[Example]] = {}
    for split, count in (("train", n_train), ("calib", n_calib), ("test", n_test)):
        rngs = derive_rngs([(spec.generator_seed, _SPLIT_TAGS[split])], 0, count)
        splits[split] = []
        for start in range(0, count, _BLOCK_EXAMPLES):
            block = list(itertools.islice(rngs, _BLOCK_EXAMPLES))
            splits[split] += _example_block(spec, fmap, split, start, block)

    if spec.noise_sigma == 0.0 and spec.aliasing_period is None:
        _check_injective(splits["train"])
    return SceneDataset(spec, splits["train"], splits["calib"], splits["test"])


def save_examples(path: str | os.PathLike, examples: Sequence[Example], feature_dim: int) -> None:
    head = [f"{DATA_FORMAT} feature_dim={feature_dim}", "# query_id tx ty tz qw qx qy qz f1..fD"]
    rows = ([ex.query_id, *ex.pose.components(), *ex.features.tolist()] for ex in examples)
    write_table(path, head, rows, " ")


def load_examples(path: str | os.PathLike) -> tuple[int, list[Example]]:
    """Parse one split file; returns (feature_dim, examples).

    ``#`` starts a comment.  Raises ParseError, with the line, for a bad
    header, a row without 8 + D fields or a value that is not a finite
    number; DegenerateQuaternion, with the line, for a zero quaternion.
    """
    with open_text(path) as f:
        lines = f.readlines()
    head = " ".join(lines[0].split("#", 1)[0].split()) if lines else ""
    match = re.fullmatch(f"{DATA_FORMAT} feature_dim=([1-9][0-9]*)", head)
    if match is None:
        raise ParseError(f"expected header '{DATA_FORMAT} feature_dim=<D>', D >= 1", line=1)
    feature_dim = int(match.group(1))
    examples = []
    texts = (raw.split("#", 1)[0] for raw in lines[1:])
    for lineno, query_id, values in table_rows(texts, 2, 8 + feature_dim):
        try:
            orientation = normalize(values[3:7])
        except DegenerateQuaternion as e:
            raise DegenerateQuaternion(f"line {lineno}: {e}") from e
        pose = Pose(Vec3(*values[:3]), orientation)
        examples.append(Example(query_id, np.array(values[7:]), pose))
    return feature_dim, examples


def save_scene_spec(path: str | os.PathLike, spec: SceneSpec) -> None:
    write_json(path, {"format": SCENE_FORMAT, **asdict(spec)})


def load_scene_spec(path: str | os.PathLike) -> SceneSpec:
    """Raises ParseError for invalid JSON, a wrong format tag, or a field
    missing or of the wrong type; InvalidSpec for a value SceneSpec rejects."""
    doc = read_json(path, SCENE_FORMAT)
    extent = numbers(doc, "extent")
    if extent.ndim != 2 or extent.shape[1] != 2:
        raise ParseError("field 'extent' must be a list of (lo, hi) ranges")
    yaw = numbers(doc, "yaw_range_deg", (2,), list(SceneSpec.yaw_range_deg))
    period = doc.get("aliasing_period")
    return SceneSpec(
        scene_id=field(doc, "scene_id", str),
        extent=tuple(map(tuple, extent.tolist())),
        feature_dim=field(doc, "feature_dim", int),
        nuisance_dim=field(doc, "nuisance_dim", int),
        noise_sigma=field(doc, "noise_sigma", float),
        aliasing_period=None if period is None else field(doc, "aliasing_period", float),
        generator_seed=field(doc, "generator_seed", int),
        yaw_range_deg=tuple(yaw.tolist()),
        pitch_roll_std_deg=field(doc, "pitch_roll_std_deg", float, SceneSpec.pitch_roll_std_deg),
    )


def save_dataset(dirpath: str | os.PathLike, dataset: SceneDataset) -> None:
    """Write scene.json plus one file per split into a directory."""
    os.makedirs(dirpath, exist_ok=True)
    save_scene_spec(os.path.join(dirpath, "scene.json"), dataset.spec)
    for split in ("train", "calib", "test"):
        save_examples(
            os.path.join(dirpath, f"{split}.txt"),
            getattr(dataset, split),
            dataset.spec.feature_dim,
        )


def load_dataset(
    dirpath: str | os.PathLike, *, splits: Sequence[str] = ("train", "calib", "test")
) -> SceneDataset:
    """Read a dataset directory written by save_dataset: scene.json and
    the named split files only.  A split not named is not opened and
    comes back as an empty list; a name other than train, calib or test
    raises ValueError.  Each split read must match the scene's feature_dim."""
    unknown = sorted(set(splits).difference(_SPLIT_TAGS))
    if unknown:
        raise ValueError(f"unknown splits {unknown}, expected some of {list(_SPLIT_TAGS)}")
    spec = load_scene_spec(os.path.join(dirpath, "scene.json"))
    loaded = {split: [] for split in _SPLIT_TAGS}
    for split in _SPLIT_TAGS:
        if split not in splits:
            continue
        feature_dim, loaded[split] = load_examples(os.path.join(dirpath, f"{split}.txt"))
        if feature_dim != spec.feature_dim:
            raise ParseError(
                f"{split} split feature_dim {feature_dim} does not match scene {spec.feature_dim}",
                line=1,
            )
    return SceneDataset(spec, loaded["train"], loaded["calib"], loaded["test"])


def nearest_neighbours(train_embeddings, queries) -> tuple[np.ndarray, np.ndarray]:
    """Index of each query row's nearest training row, and the Euclidean
    distance to it, bit for bit as the exhaustive scan
    ``d2 = ((train_embeddings - q) ** 2).sum(axis=1)`` gives
    ``argmin(d2)`` and ``sqrt(d2[i])``: ties go to the lowest index.

    The scan is pruned.  For a block of queries, the BLAS expansion
    ``|e|^2 + |q|^2 - 2 q.e`` is within ``4 (d + 3) 2**-53 (|e| + |q|)^2``
    (twice the rounding bound of the expansion and the scan together) plus
    an underflow allowance of every row's scanned ``d2``.  A row whose
    lower bound exceeds the least upper bound cannot be nearest and is
    dropped; a row whose bounds are not finite always survives.  The
    survivors are rescored with the scan's own expression.
    """
    emb = np.asarray(train_embeddings, dtype=float)
    Q = np.asarray(queries, dtype=float)
    if emb.ndim != 2 or len(emb) == 0:
        raise ValueError(f"need a non-empty (rows, width) matrix of train embeddings, got shape {emb.shape}")
    if Q.ndim != 2 or Q.shape[1] != emb.shape[1]:
        raise ShapeMismatch(f"query shape {Q.shape} does not match train embeddings of width {emb.shape[1]}")
    rel = 4.0 * (emb.shape[1] + 3) * 2.0**-53
    # Underflow adds at most half the least subnormal per product.
    floor = 4.0 * (emb.shape[1] + 3) * 2.0**-1074
    index = np.empty(len(Q), dtype=np.intp)
    dist = np.empty(len(Q))
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        emb_sq = (emb * emb).sum(axis=1)
        emb_norm = np.sqrt(emb_sq)
        for lo in range(0, len(Q), _NN_BLOCK_QUERIES):
            block = Q[lo : lo + _NN_BLOCK_QUERIES]
            q_sq = (block * block).sum(axis=1)[:, None]
            approx = (emb_sq + q_sq) - 2.0 * (block @ emb.T)
            margin = rel * (emb_norm + np.sqrt(q_sq)) ** 2 + floor
            upper = approx + margin
            finite = np.isfinite(upper)
            best = np.min(upper, axis=1, where=finite, initial=np.inf)
            survive = ~finite | (approx - margin <= best[:, None])
            for j, (q, rows) in enumerate(zip(block, survive), lo):
                rows = np.flatnonzero(rows)
                d2 = ((emb[rows] - q) ** 2).sum(axis=1)
                k = int(np.argmin(d2))
                index[j], dist[j] = rows[k], math.sqrt(d2[k])
    return index, dist


def nearest_neighbour_pose(
    train: Sequence[Example],
    query_embedding,
    train_embeddings,
) -> tuple[Pose, float]:
    """Pose of the closest training example in embedding space.

    ``train_embeddings`` holds one row per training example (any embedding:
    raw features or a network's penultimate activations).  Returns the
    matched pose and the Euclidean distance; ties go to the lowest index.
    The one-query case of :func:`nearest_neighbours`.
    """
    if len(train) == 0:
        raise ValueError("train must not be empty")
    emb = np.asarray(train_embeddings, dtype=float)
    q = np.asarray(query_embedding, dtype=float)
    if emb.shape != (len(train), q.size):
        raise ShapeMismatch(
            f"embedding matrix shape {emb.shape} does not match {len(train)} examples of width {q.size}"
        )
    index, dist = nearest_neighbours(emb, q.reshape(1, -1))
    return train[index[0]].pose, float(dist[0])
