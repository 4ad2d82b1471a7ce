"""Synthetic pose-labelled scenes and the on-disk dataset format.

A scene is a fixed random nonlinear map from camera pose (plus nuisance
variables) to a feature vector.  Regressing the inverse of that map is
the localization task; different generator seeds give visually unrelated
"buildings" for scene recognition experiments.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, asdict
from typing import Sequence

import numpy as np

from ._files import field, numbers, open_text, read_json, table_rows, write_json, write_table
from .errors import DegenerateQuaternion, InvalidSpec, ParseError, ShapeMismatch
from .geometry import Pose, Vec3, normalize
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
    unit quaternion) concatenated with the nuisance values.
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

    def encode_pose(self, pose: Pose) -> np.ndarray:
        (x0, x1), (y0, y1), (z0, z1) = self.spec.extent
        xr = pose.position.x - x0
        if self.spec.aliasing_period is not None:
            xr = xr % self.spec.aliasing_period
        q = pose.orientation
        tx = xr / (x1 - x0)
        ty = (pose.position.y - y0) / (y1 - y0)
        tz = (pose.position.z - z0) / (z1 - z0)
        # Compose the orientation with the local reference heading: a yaw
        # of 2*psi, applied as the unit quaternion (cos psi, 0, 0, sin psi).
        psi = _ORIENT_TWIST * tx
        c, s = math.cos(psi), math.sin(psi)
        return np.array(
            [
                _POSITION_GAIN * (tx - _POSITION_CENTER),
                _POSITION_GAIN * (ty - _POSITION_CENTER),
                _POSITION_GAIN * (tz - _POSITION_CENTER),
                c * q.w - s * q.z,
                c * q.x - s * q.y,
                s * q.x + c * q.y,
                s * q.w + c * q.z,
            ]
        )

    def __call__(self, pose: Pose, nuisance: np.ndarray) -> np.ndarray:
        """Noise-free features for one (pose, nuisance) pair."""
        nuisance = np.asarray(nuisance, dtype=float)
        if nuisance.shape != (self.spec.nuisance_dim,):
            raise ShapeMismatch(
                f"nuisance shape {nuisance.shape} does not match spec ({self.spec.nuisance_dim},)"
            )
        u = np.concatenate([self.encode_pose(pose), nuisance])
        return self.w2 @ np.tanh(self.w1 @ u + self.b1) + self.b2


def _quat_from_euler(yaw: float, pitch: float, roll: float):
    """Unit quaternion for intrinsic z-y-x rotation, angles in radians."""
    cy, sy = math.cos(yaw / 2.0), math.sin(yaw / 2.0)
    cp, sp = math.cos(pitch / 2.0), math.sin(pitch / 2.0)
    cr, sr = math.cos(roll / 2.0), math.sin(roll / 2.0)
    return normalize(
        (
            cy * cp * cr + sy * sp * sr,
            cy * cp * sr - sy * sp * cr,
            cy * sp * cr + sy * cp * sr,
            sy * cp * cr - cy * sp * sr,
        )
    )


def _sample_pose(spec: SceneSpec, rng: np.random.Generator, survey_bias: bool = False) -> Pose:
    (x0, x1), (y0, y1), (z0, z1) = spec.extent
    if survey_bias and rng.random() < _TRAIN_DENSE_FRACTION:
        x = rng.uniform(x0, x0 + _TRAIN_DENSE_SPAN * (x1 - x0))
    else:
        x = rng.uniform(x0, x1)
    position = Vec3(
        x,
        rng.uniform(y0, y1),
        rng.uniform(z0, z1),
    )
    yaw = math.radians(rng.uniform(*spec.yaw_range_deg))
    pitch = math.radians(rng.normal(0.0, spec.pitch_roll_std_deg))
    roll = math.radians(rng.normal(0.0, spec.pitch_roll_std_deg))
    return Pose(position, _quat_from_euler(yaw, pitch, roll))


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
    """
    if n_train < 1 or n_test < 1:
        raise InvalidSpec(f"split sizes must be >= 1, got train={n_train} test={n_test}")
    if n_calib < MIN_CALIB_EXAMPLES:
        raise InvalidSpec(f"n_calib must be >= {MIN_CALIB_EXAMPLES}, got {n_calib}")

    fmap = FeatureMap(spec)
    splits: dict[str, list[Example]] = {}
    for split, count in (("train", n_train), ("calib", n_calib), ("test", n_test)):
        tag = _SPLIT_TAGS[split]
        examples = []
        for i, rng in enumerate(derive_rngs([(spec.generator_seed, tag)], 0, count)):
            pose = _sample_pose(spec, rng, survey_bias=(split == "train"))
            nuisance = rng.normal(size=spec.nuisance_dim)
            features = fmap(pose, nuisance)
            if spec.noise_sigma > 0.0:
                features = features + rng.normal(size=spec.feature_dim) * spec.noise_sigma
            examples.append(Example(f"{spec.scene_id}-{split}-{i:05d}", features, pose))
        splits[split] = examples

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


def nearest_neighbour_pose(
    train: Sequence[Example],
    query_embedding,
    train_embeddings,
) -> tuple[Pose, float]:
    """Pose of the closest training example in embedding space.

    ``train_embeddings`` holds one row per training example (any embedding:
    raw features or a network's penultimate activations).  Returns the
    matched pose and the Euclidean distance; ties go to the lowest index.
    """
    if len(train) == 0:
        raise ValueError("train must not be empty")
    emb = np.asarray(train_embeddings, dtype=float)
    q = np.asarray(query_embedding, dtype=float)
    if emb.shape != (len(train), q.size):
        raise ShapeMismatch(
            f"embedding matrix shape {emb.shape} does not match {len(train)} examples of width {q.size}"
        )
    d2 = ((emb - q) ** 2).sum(axis=1)
    i = int(np.argmin(d2))
    return train[i].pose, float(math.sqrt(d2[i]))
