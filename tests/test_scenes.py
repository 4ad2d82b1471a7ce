"""Tests for synthetic scene generation and the dataset file format."""

import hashlib
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayesreloc.errors import DegenerateQuaternion, InvalidSpec, ParseError, ShapeMismatch
from bayesreloc.geometry import Pose, UnitQuaternion, Vec3
from bayesreloc.scenes import (
    Example,
    FeatureMap,
    SceneSpec,
    _check_injective,
    generate_scene,
    load_dataset,
    load_examples,
    load_scene_spec,
    nearest_neighbour_pose,
    nearest_neighbours,
    save_dataset,
    save_examples,
    save_scene_spec,
)

IDENTITY = UnitQuaternion(1.0, 0.0, 0.0, 0.0)


def _small_spec(**overrides):
    base = dict(
        scene_id="unit",
        extent=((0.0, 10.0), (0.0, 5.0), (0.0, 2.0)),
        feature_dim=8,
        nuisance_dim=2,
        noise_sigma=0.02,
        generator_seed=42,
    )
    base.update(overrides)
    return SceneSpec(**base)


class TestSceneSpecValidation:
    def test_accepts_defaults(self):
        spec = SceneSpec(scene_id="ok")
        assert spec.extent == ((0.0, 100.0), (0.0, 50.0), (0.0, 2.0))
        assert spec.feature_dim == 32
        assert spec.nuisance_dim == 4
        assert spec.noise_sigma == 0.05

    def test_rejects_bad_ids(self):
        with pytest.raises(InvalidSpec):
            SceneSpec(scene_id="")
        with pytest.raises(InvalidSpec):
            SceneSpec(scene_id="has space")

    def test_rejects_hash_in_id(self):
        # '#' starts a comment in a dataset file, so such an id would not load back
        with pytest.raises(InvalidSpec, match="'#'"):
            SceneSpec(scene_id="a#b")

    def test_rejects_empty_extent(self):
        with pytest.raises(InvalidSpec):
            _small_spec(extent=((0.0, 0.0), (0.0, 5.0), (0.0, 2.0)))
        with pytest.raises(InvalidSpec):
            _small_spec(extent=((3.0, 1.0), (0.0, 5.0), (0.0, 2.0)))
        with pytest.raises(InvalidSpec):
            _small_spec(extent=((0.0, math.inf), (0.0, 5.0), (0.0, 2.0)))

    def test_feature_dim_floor(self):
        with pytest.raises(InvalidSpec):
            _small_spec(feature_dim=3)
        assert _small_spec(feature_dim=4).feature_dim == 4

    def test_rejects_bad_scalars(self):
        with pytest.raises(InvalidSpec):
            _small_spec(nuisance_dim=-1)
        with pytest.raises(InvalidSpec):
            _small_spec(noise_sigma=-0.1)
        with pytest.raises(InvalidSpec):
            _small_spec(aliasing_period=0.0)
        with pytest.raises(InvalidSpec):
            _small_spec(yaw_range_deg=(30.0, -30.0))
        with pytest.raises(InvalidSpec):
            _small_spec(pitch_roll_std_deg=-1.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("aliasing_period", math.inf),
            ("aliasing_period", math.nan),
            ("pitch_roll_std_deg", math.inf),
            ("pitch_roll_std_deg", math.nan),
            ("yaw_range_deg", (-math.inf, 0.0)),
            ("yaw_range_deg", (0.0, math.inf)),
            ("yaw_range_deg", (-math.inf, math.inf)),
            ("yaw_range_deg", (math.nan, 0.0)),
        ],
    )
    def test_rejects_non_finite_values(self, field, value):
        # Accepted, these would reach scene.json as Infinity, which is not
        # JSON, or fail only inside generate_scene.
        with pytest.raises(InvalidSpec, match=field.split("_")[0]):
            _small_spec(**{field: value})


class TestFeatureMap:
    def test_same_inputs_same_features(self):
        fmap = FeatureMap(_small_spec(noise_sigma=0.0))
        pose = Pose(Vec3(1.0, 2.0, 0.5), IDENTITY)
        nuisance = np.array([0.3, -0.7])
        assert np.array_equal(fmap(pose, nuisance), fmap(pose, nuisance))

    def test_rebuilding_map_is_deterministic(self):
        a = FeatureMap(_small_spec())
        b = FeatureMap(_small_spec())
        assert np.array_equal(a.w1, b.w1)
        assert np.array_equal(a.b1, b.b1)
        assert np.array_equal(a.w2, b.w2)
        assert np.array_equal(a.b2, b.b2)

    def test_generator_seed_changes_map(self):
        a = FeatureMap(_small_spec(generator_seed=1))
        b = FeatureMap(_small_spec(generator_seed=2))
        assert not np.array_equal(a.w1, b.w1)

    def test_position_changes_features(self):
        fmap = FeatureMap(_small_spec())
        n = np.zeros(2)
        fa = fmap(Pose(Vec3(1.0, 1.0, 1.0), IDENTITY), n)
        fb = fmap(Pose(Vec3(9.0, 1.0, 1.0), IDENTITY), n)
        assert np.linalg.norm(fa - fb) > 1e-3

    def test_nuisance_changes_features(self):
        fmap = FeatureMap(_small_spec())
        pose = Pose(Vec3(5.0, 2.0, 1.0), IDENTITY)
        fa = fmap(pose, np.array([0.0, 0.0]))
        fb = fmap(pose, np.array([2.0, -2.0]))
        assert np.linalg.norm(fa - fb) > 1e-6

    def test_aliasing_makes_offset_poses_identical(self):
        spec = _small_spec(aliasing_period=4.0, noise_sigma=0.0)
        fmap = FeatureMap(spec)
        n = np.array([0.1, 0.2])
        fa = fmap(Pose(Vec3(1.5, 2.0, 0.5), IDENTITY), n)
        fb = fmap(Pose(Vec3(5.5, 2.0, 0.5), IDENTITY), n)
        assert np.array_equal(fa, fb)
        fc = fmap(Pose(Vec3(9.5, 2.0, 0.5), IDENTITY), n)
        assert np.array_equal(fa, fc)

    def test_no_aliasing_keeps_offset_poses_distinct(self):
        fmap = FeatureMap(_small_spec(noise_sigma=0.0))
        n = np.zeros(2)
        fa = fmap(Pose(Vec3(1.5, 2.0, 0.5), IDENTITY), n)
        fb = fmap(Pose(Vec3(5.5, 2.0, 0.5), IDENTITY), n)
        assert np.linalg.norm(fa - fb) > 1e-6

    def test_feature_width_matches_spec(self):
        for dim in (4, 8, 32):
            fmap = FeatureMap(_small_spec(feature_dim=dim))
            out = fmap(Pose(Vec3(1.0, 1.0, 1.0), IDENTITY), np.zeros(2))
            assert out.shape == (dim,)

    def test_wrong_nuisance_width(self):
        fmap = FeatureMap(_small_spec(nuisance_dim=2))
        with pytest.raises(ShapeMismatch):
            fmap(Pose(Vec3(1.0, 1.0, 1.0), IDENTITY), np.zeros(3))


class TestGenerateScene:
    def test_split_sizes(self):
        ds = generate_scene(_small_spec(), n_train=40, n_calib=8, n_test=10)
        assert len(ds.train) == 40
        assert len(ds.calib) == 8
        assert len(ds.test) == 10

    def test_default_split_sizes(self):
        ds = generate_scene(_small_spec())
        assert (len(ds.train), len(ds.calib), len(ds.test)) == (2000, 200, 400)

    def test_split_ids_disjoint(self):
        ds = generate_scene(_small_spec(), n_train=30, n_calib=8, n_test=12)
        ids = [ex.query_id for split in (ds.train, ds.calib, ds.test) for ex in split]
        assert len(set(ids)) == len(ids)

    def test_positions_respect_extent(self):
        spec = _small_spec()
        ds = generate_scene(spec, n_train=200, n_calib=8, n_test=50)
        (x0, x1), (y0, y1), (z0, z1) = spec.extent
        for split in (ds.train, ds.calib, ds.test):
            for ex in split:
                p = ex.pose.position
                assert x0 <= p.x <= x1
                assert y0 <= p.y <= y1
                assert z0 <= p.z <= z1

    def test_yaw_respects_configured_range(self):
        spec = _small_spec(yaw_range_deg=(-30.0, 30.0), pitch_roll_std_deg=0.0)
        ds = generate_scene(spec, n_train=100, n_calib=8, n_test=8)
        for ex in ds.train:
            q = ex.pose.orientation
            yaw = math.degrees(2.0 * math.atan2(q.z, q.w))
            assert -30.0 - 1e-9 <= yaw <= 30.0 + 1e-9

    def test_regeneration_is_bit_identical(self):
        a = generate_scene(_small_spec(), n_train=20, n_calib=8, n_test=8)
        b = generate_scene(_small_spec(), n_train=20, n_calib=8, n_test=8)
        for ea, eb in zip(a.train + a.calib + a.test, b.train + b.calib + b.test):
            assert ea.query_id == eb.query_id
            assert np.array_equal(ea.features, eb.features)
            assert ea.pose == eb.pose

    def test_generator_seed_changes_data(self):
        a = generate_scene(_small_spec(generator_seed=1), n_train=10, n_calib=8, n_test=8)
        b = generate_scene(_small_spec(generator_seed=2), n_train=10, n_calib=8, n_test=8)
        assert not np.array_equal(a.train[0].features, b.train[0].features)

    def test_feature_width_invariant(self):
        ds = generate_scene(_small_spec(feature_dim=6), n_train=10, n_calib=8, n_test=8)
        for ex in ds.train:
            assert ex.features.shape == (6,)

    def test_noiseless_map_is_injective_on_sample(self):
        # generation itself runs the injectivity check when noise is off
        generate_scene(_small_spec(noise_sigma=0.0), n_train=300, n_calib=8, n_test=8)

    def test_collision_detector_fires_on_equal_features(self):
        pose_a = Pose(Vec3(1.0, 1.0, 1.0), IDENTITY)
        pose_b = Pose(Vec3(9.0, 4.0, 1.5), IDENTITY)
        feats = np.arange(8.0)
        examples = [Example("a", feats, pose_a), Example("b", feats.copy(), pose_b)]
        with pytest.raises(InvalidSpec):
            _check_injective(examples)

    def test_split_size_floors(self):
        with pytest.raises(InvalidSpec):
            generate_scene(_small_spec(), n_train=0, n_calib=8, n_test=5)
        with pytest.raises(InvalidSpec):
            generate_scene(_small_spec(), n_train=5, n_calib=7, n_test=5)


# SHA-256 of save_dataset's four files, each prefixed by its name and a NUL,
# written by the per-example generator these digests were first taken
# from.  The specs cover the survey-skewed train split across block edges
# (256, 512, 1024 rows), a 40-bit seed, aliasing, the noiseless
# injectivity check, no nuisance inputs, a custom extent with full yaw and
# no pitch/roll, and a fixed yaw.
GOLDEN_DATASETS = [
    (dict(scene_id="g0", generator_seed=0), (40, 8, 12),
     "e42aeb15f91584a2ead5e681072c911f99a835cc73494cd5eaf5f5f5aa5ba1d8"),
    (dict(scene_id="g5", generator_seed=5, feature_dim=8, nuisance_dim=2), (300, 9, 20),
     "40082e351babed91c1e78d58555b598eda99d017cf287abd9c28677f71a1fa8e"),
    (dict(scene_id="gbig", generator_seed=2**40 + 7), (30, 8, 10),
     "584861d5c7cc59b01665f802e1b1d5bbe6ff67faf38a7d0912054434adc0b25b"),
    (dict(scene_id="alias", generator_seed=4, aliasing_period=17.0), (60, 8, 10),
     "d1a1fe5564f8c02d82ed8afd8f5d41c04a36e5ddebb86a5dc47c0d01dd48a2d5"),
    (dict(scene_id="quiet", generator_seed=6, noise_sigma=0.0, feature_dim=6, nuisance_dim=1), (120, 8, 5),
     "5fe06edbc52b2330d558d1d913631767bbbe9f83c3b2d5fd2c9263e774139b11"),
    (dict(scene_id="bare", generator_seed=7, nuisance_dim=0, feature_dim=8), (50, 8, 6),
     "d90f758bc50909cd7c18de33a3655c54c7350e8848111aa89d26c2d334884272"),
    (dict(scene_id="room", generator_seed=8, extent=((-3.0, 4.5), (10.0, 11.0), (-1.0, 0.25)),
          yaw_range_deg=(-180.0, 180.0), pitch_roll_std_deg=0.0, feature_dim=5), (45, 10, 8),
     "a47baf281eb550443bf26b4f2271feaddeacdd9f730e0ea47bff6b8e6d73ce7b"),
    (dict(scene_id="long", generator_seed=9, feature_dim=4, nuisance_dim=1, noise_sigma=0.5), (1100, 8, 2),
     "8998da3f2c12efcf97871ef12052dfbfc2f981e331d2a954d8e2927ffdc397e1"),
    (dict(scene_id="flat", generator_seed=10, yaw_range_deg=(30.0, 30.0), aliasing_period=2.5,
          noise_sigma=0.0, feature_dim=4), (20, 8, 257),
     "f5fffa7421c08d37c1898ee2d769282986afaad7980c2cc9f9794e039ce19715"),
]


def _dataset_digest(path):
    h = hashlib.sha256()
    for name in ("scene.json", "train.txt", "calib.txt", "test.txt"):
        h.update(name.encode() + b"\0" + (path / name).read_bytes())
    return h.hexdigest()


class TestGoldenDatasets:
    @pytest.mark.parametrize(
        "fields, counts, digest", GOLDEN_DATASETS, ids=[f["scene_id"] for f, _, _ in GOLDEN_DATASETS]
    )
    def test_saved_bytes(self, tmp_path, fields, counts, digest):
        save_dataset(tmp_path, generate_scene(SceneSpec(**fields), *counts))
        assert _dataset_digest(tmp_path) == digest


class TestDatasetFiles:
    def test_examples_round_trip_exactly(self, tmp_path):
        ds = generate_scene(_small_spec(), n_train=10, n_calib=8, n_test=8)
        path = tmp_path / "train.txt"
        save_examples(path, ds.train, ds.spec.feature_dim)
        feature_dim, back = load_examples(path)
        assert feature_dim == ds.spec.feature_dim
        assert len(back) == 10
        for orig, loaded in zip(ds.train, back):
            assert loaded.query_id == orig.query_id
            assert np.array_equal(loaded.features, orig.features)
            assert loaded.pose.position == orig.pose.position
            dot = abs(loaded.pose.orientation.dot(orig.pose.orientation))
            assert abs(dot - 1.0) < 1e-15

    def test_three_row_file(self, tmp_path):
        path = tmp_path / "data.txt"
        rows = ["bayesreloc-data-v1 feature_dim=4"]
        for i in range(3):
            rows.append(f"q{i} {float(i)} 0.0 0.0 1.0 0.0 0.0 0.0 0.1 0.2 0.3 0.4")
        path.write_text("\n".join(rows) + "\n")
        feature_dim, examples = load_examples(path)
        assert feature_dim == 4
        assert [ex.query_id for ex in examples] == ["q0", "q1", "q2"]
        assert examples[2].pose.position == Vec3(2.0, 0.0, 0.0)

    def test_quaternion_normalized_on_load(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text(
            "bayesreloc-data-v1 feature_dim=4\n"
            "q0 0.0 0.0 0.0 2.0 0.0 0.0 0.0 0.1 0.2 0.3 0.4\n"
        )
        _, examples = load_examples(path)
        assert examples[0].pose.orientation == UnitQuaternion(1.0, 0.0, 0.0, 0.0)

    def test_zero_quaternion_reports_line(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text(
            "bayesreloc-data-v1 feature_dim=4\n"
            "q0 0.0 0.0 0.0 1.0 0.0 0.0 0.0 0.1 0.2 0.3 0.4\n"
            "q1 0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.1 0.2 0.3 0.4\n"
        )
        with pytest.raises(DegenerateQuaternion) as exc:
            load_examples(path)
        assert "line 3" in str(exc.value)

    def test_non_finite_value_rejected(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text(
            "bayesreloc-data-v1 feature_dim=4\n"
            "q0 0.0 nan 0.0 1.0 0.0 0.0 0.0 0.1 0.2 0.3 0.4\n"
        )
        with pytest.raises(ParseError) as exc:
            load_examples(path)
        assert exc.value.line == 2

    def test_wrong_field_count_reports_line(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text(
            "bayesreloc-data-v1 feature_dim=4\n"
            "q0 0.0 0.0 0.0 1.0 0.0 0.0 0.0 0.1 0.2 0.3 0.4\n"
            "q1 1.0 2.0\n"
        )
        with pytest.raises(ParseError) as exc:
            load_examples(path)
        assert exc.value.line == 3

    def test_bad_float_reports_line(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text(
            "bayesreloc-data-v1 feature_dim=4\n"
            "q0 0.0 zero 0.0 1.0 0.0 0.0 0.0 0.1 0.2 0.3 0.4\n"
        )
        with pytest.raises(ParseError) as exc:
            load_examples(path)
        assert exc.value.line == 2

    def test_header_errors(self, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        with pytest.raises(ParseError) as exc:
            load_examples(empty)
        assert exc.value.line == 1

        wrong = tmp_path / "wrong.txt"
        wrong.write_text("other-format feature_dim=4\n")
        with pytest.raises(ParseError):
            load_examples(wrong)

        bad_dim = tmp_path / "bad_dim.txt"
        bad_dim.write_text("bayesreloc-data-v1 feature_dim=four\n")
        with pytest.raises(ParseError):
            load_examples(bad_dim)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text(
            "bayesreloc-data-v1 feature_dim=4\n"
            "# full comment line\n"
            "\n"
            "q0 0.0 0.0 0.0 1.0 0.0 0.0 0.0 0.1 0.2 0.3 0.4 # trailing\n"
        )
        _, examples = load_examples(path)
        assert len(examples) == 1


class TestSceneSpecFiles:
    def test_round_trip(self, tmp_path):
        spec = _small_spec(aliasing_period=3.5, yaw_range_deg=(-45.0, 45.0))
        path = tmp_path / "scene.json"
        save_scene_spec(path, spec)
        assert load_scene_spec(path) == spec

    def test_round_trip_none_period(self, tmp_path):
        spec = _small_spec()
        path = tmp_path / "scene.json"
        save_scene_spec(path, spec)
        assert load_scene_spec(path).aliasing_period is None

    @pytest.mark.parametrize("field", ["aliasing_period", "pitch_roll_std_deg"])
    @pytest.mark.parametrize("constant", ["Infinity", "-Infinity", "NaN"])
    def test_rejects_non_finite_value(self, tmp_path, field, constant):
        path = tmp_path / "scene.json"
        save_scene_spec(path, _small_spec(aliasing_period=3.5))
        path.write_text(re.sub(f'"{field}": [^,\n]*', f'"{field}": {constant}', path.read_text()))
        with pytest.raises(InvalidSpec, match=field):
            load_scene_spec(path)

    def test_wrong_format_tag(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text('{"format": "something-else"}\n')
        with pytest.raises(ParseError):
            load_scene_spec(path)

    def test_rejects_non_object(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text("[]\n")
        with pytest.raises(ParseError, match="format"):
            load_scene_spec(path)

    @pytest.mark.parametrize("field", ["extent", "scene_id", "generator_seed"])
    def test_rejects_missing_field(self, tmp_path, field):
        path = tmp_path / "scene.json"
        save_scene_spec(path, _small_spec())
        doc = json.loads(path.read_text())
        del doc[field]
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=field):
            load_scene_spec(path)

    def test_rejects_malformed_extent(self, tmp_path):
        path = tmp_path / "scene.json"
        save_scene_spec(path, _small_spec())
        doc = json.loads(path.read_text())
        doc["extent"] = [[0.0, 1.0, 2.0], [0.0, 1.0], [0.0, 1.0]]
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            load_scene_spec(path)
        doc["extent"] = [[0.0, 1.0], [0.0, 1.0]]
        path.write_text(json.dumps(doc))
        with pytest.raises(InvalidSpec):
            load_scene_spec(path)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "scene.json"
        path.write_text('{"format": "bayesreloc-scene-v1",\n  "scene_id": }\n')
        with pytest.raises(ParseError) as exc:
            load_scene_spec(path)
        assert exc.value.line == 2


class TestDatasetDirectory:
    def test_round_trip(self, tmp_path):
        ds = generate_scene(_small_spec(), n_train=12, n_calib=8, n_test=9)
        save_dataset(tmp_path / "scene", ds)
        back = load_dataset(tmp_path / "scene")
        assert back.spec == ds.spec
        assert len(back.train) == 12 and len(back.calib) == 8 and len(back.test) == 9
        for orig, loaded in zip(ds.test, back.test):
            assert np.array_equal(loaded.features, orig.features)
            assert loaded.pose.position == orig.pose.position

    def test_feature_dim_mismatch_between_files(self, tmp_path):
        ds = generate_scene(_small_spec(), n_train=10, n_calib=8, n_test=8)
        save_dataset(tmp_path / "scene", ds)
        spec_path = tmp_path / "scene" / "scene.json"
        text = spec_path.read_text().replace('"feature_dim": 8', '"feature_dim": 16')
        spec_path.write_text(text)
        with pytest.raises(ParseError):
            load_dataset(tmp_path / "scene")

    def test_default_reads_every_split(self, tmp_path):
        ds = generate_scene(_small_spec(), n_train=12, n_calib=8, n_test=9)
        save_dataset(tmp_path / "scene", ds)
        back = load_dataset(tmp_path / "scene")
        for split in ("train", "calib", "test"):
            for orig, loaded in zip(getattr(ds, split), getattr(back, split), strict=True):
                assert loaded.query_id == orig.query_id
                assert np.array_equal(loaded.features, orig.features)

    @pytest.mark.parametrize("splits", [("val",), ("train", "Test"), "test"])
    def test_unknown_split_name_raises(self, tmp_path, splits):
        ds = generate_scene(_small_spec(), n_train=10, n_calib=8, n_test=8)
        save_dataset(tmp_path / "scene", ds)
        with pytest.raises(ValueError, match="unknown splits"):
            load_dataset(tmp_path / "scene", splits=splits)

    @pytest.mark.parametrize("split", ["train", "calib", "test"])
    def test_split_read_checks_feature_dim(self, tmp_path, split):
        ds = generate_scene(_small_spec(), n_train=10, n_calib=8, n_test=8)
        save_dataset(tmp_path / "scene", ds)
        narrow = generate_scene(_small_spec(feature_dim=6), n_train=10, n_calib=8, n_test=8)
        save_examples(tmp_path / "scene" / f"{split}.txt", getattr(narrow, split), 6)
        with pytest.raises(ParseError, match=f"{split} split feature_dim 6 does not match scene 8"):
            load_dataset(tmp_path / "scene", splits=(split,))
        others = tuple(s for s in ("train", "calib", "test") if s != split)
        assert getattr(load_dataset(tmp_path / "scene", splits=others), split) == []

    @pytest.mark.parametrize(
        "splits", [(), ("train",), ("calib",), ("test",), ("train", "test"), ("test", "train", "test")]
    )
    def test_split_not_named_is_not_opened(self, tmp_path, splits):
        ds = generate_scene(_small_spec(), n_train=10, n_calib=8, n_test=9)
        save_dataset(tmp_path / "scene", ds)
        for split in ("train", "calib", "test"):
            if split not in splits:
                (tmp_path / "scene" / f"{split}.txt").unlink()
        back = load_dataset(tmp_path / "scene", splits=splits)
        assert back.spec == ds.spec
        for split in ("train", "calib", "test"):
            expected = [ex.query_id for ex in getattr(ds, split)] if split in splits else []
            assert [ex.query_id for ex in getattr(back, split)] == expected
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "scene")


class TestNearestNeighbourPose:
    def test_exact_match_has_zero_distance(self):
        ds = generate_scene(_small_spec(), n_train=20, n_calib=8, n_test=8)
        embeddings = np.stack([ex.features for ex in ds.train])
        pose, dist = nearest_neighbour_pose(ds.train, ds.train[7].features, embeddings)
        assert dist == 0.0
        assert pose == ds.train[7].pose

    def test_two_point_choice(self):
        a = Example("a", np.array([0.0, 0.0]), Pose(Vec3(1.0, 0.0, 0.0), IDENTITY))
        b = Example("b", np.array([10.0, 0.0]), Pose(Vec3(2.0, 0.0, 0.0), IDENTITY))
        emb = np.array([[0.0, 0.0], [10.0, 0.0]])
        pose, dist = nearest_neighbour_pose([a, b], np.array([1.0, 0.0]), emb)
        assert pose == a.pose
        assert dist == 1.0

    def test_tie_goes_to_lowest_index(self):
        a = Example("a", np.array([0.0]), Pose(Vec3(1.0, 0.0, 0.0), IDENTITY))
        b = Example("b", np.array([2.0]), Pose(Vec3(2.0, 0.0, 0.0), IDENTITY))
        emb = np.array([[0.0], [2.0]])
        pose, dist = nearest_neighbour_pose([a, b], np.array([1.0]), emb)
        assert pose == a.pose
        assert dist == 1.0

    def test_matches_exhaustive_scan_oracle(self):
        rng = np.random.default_rng(1001)
        examples = []
        for i in range(100):
            pos = Vec3(*rng.uniform(0.0, 10.0, size=3))
            examples.append(Example(f"t{i}", rng.normal(size=6), Pose(pos, IDENTITY)))
        embeddings = np.stack([ex.features for ex in examples])
        for _ in range(25):
            query = rng.normal(size=6)
            pose, dist = nearest_neighbour_pose(examples, query, embeddings)

            best_i, best_d = -1, float("inf")
            for i, ex in enumerate(examples):
                d = math.sqrt(sum((float(a) - float(b)) ** 2 for a, b in zip(ex.features, query)))
                if d < best_d:
                    best_i, best_d = i, d
            assert pose == examples[best_i].pose
            assert dist == pytest.approx(best_d, rel=1e-12)

    def test_empty_train_rejected(self):
        with pytest.raises(ValueError):
            nearest_neighbour_pose([], np.array([1.0]), np.zeros((0, 1)))

    def test_embedding_shape_mismatch(self):
        a = Example("a", np.array([0.0, 1.0]), Pose(Vec3(0.0, 0.0, 0.0), IDENTITY))
        with pytest.raises(ShapeMismatch):
            nearest_neighbour_pose([a], np.array([1.0, 2.0]), np.zeros((2, 2)))
        with pytest.raises(ShapeMismatch):
            nearest_neighbour_pose([a], np.array([1.0, 2.0, 3.0]), np.zeros((1, 2)))


def _exhaustive_scan(emb, q):
    d2 = ((emb - q) ** 2).sum(axis=1)
    i = int(np.argmin(d2))
    return i, math.sqrt(d2[i])


# Scales from where squares underflow (to zero, or to a few subnormal
# bits) to where they overflow to inf.
_SCALES = [1e-300, 1e-162, 1e-160, 1e-3, 1.0, 1e3, 1e150, 1e160]


@st.composite
def _nn_problems(draw):
    """Train and query rows built for ties: quarter-grid values (exact
    distances), rows repeated from a small pool, per-row scales that mix
    underflowing and overflowing squares, a common offset under which the
    expansion loses the distances to cancellation, and counts around the
    query block of 8."""
    width = draw(st.integers(1, 5))
    offset = draw(st.sampled_from([0.0, 1e4, 1e8]))
    value = st.one_of(st.integers(-8, 8).map(lambda k: k / 4), st.floats(-2.0, 2.0))
    fresh = st.builds(
        lambda values, scale: [v * scale + offset for v in values],
        st.lists(value, min_size=width, max_size=width),
        st.sampled_from(_SCALES),
    )
    pool = draw(st.lists(fresh, min_size=1, max_size=5))
    row = st.one_of(st.sampled_from(pool), fresh)
    n_train = draw(st.one_of(st.sampled_from([1, 2, 8, 9]), st.integers(1, 60)))
    n_query = draw(st.one_of(st.sampled_from([1, 7, 8, 9, 16, 17]), st.integers(1, 30)))
    emb = np.array(draw(st.lists(row, min_size=n_train, max_size=n_train)))
    queries = np.array(draw(st.lists(row, min_size=n_query, max_size=n_query)))
    return emb, queries


class TestNearestNeighbours:
    @settings(max_examples=200, deadline=None)
    @given(problem=_nn_problems())
    def test_equals_exhaustive_scan(self, problem):
        emb, queries = problem
        index, dist = nearest_neighbours(emb, queries)
        assert index.shape == dist.shape == (len(queries),)
        with np.errstate(over="ignore", under="ignore"):
            want = [_exhaustive_scan(emb, q) for q in queries]
        assert index.tolist() == [i for i, _ in want]
        assert dist.tolist() == [d for _, d in want]

    def test_prunes_to_the_scan_on_scene_features(self):
        ds = generate_scene(_small_spec(), n_train=300, n_calib=8, n_test=41)
        emb = np.stack([ex.features for ex in ds.train])
        queries = np.stack([ex.features for ex in ds.test + ds.train[:5]])
        index, dist = nearest_neighbours(emb, queries)
        for q, i, d in zip(queries, index.tolist(), dist.tolist()):
            assert (i, d) == _exhaustive_scan(emb, q)
        assert index[-5:].tolist() == [0, 1, 2, 3, 4]
        assert dist[-5:].tolist() == [0.0] * 5

    def test_non_finite_rows_survive(self):
        emb = np.array([[0.0, 1.0], [np.inf, 0.0], [np.nan, 0.0], [0.0, 0.5]])
        index, dist = nearest_neighbours(emb, np.array([[0.0, 0.0], [np.inf, 0.0], [np.nan, 0.0]]))
        # argmin takes the first NaN, as the scan does
        assert index.tolist() == [2, 1, 0]
        assert dist[0] != dist[0] and dist[2] != dist[2]

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="non-empty"):
            nearest_neighbours(np.zeros((0, 2)), np.zeros((1, 2)))
        with pytest.raises(ShapeMismatch):
            nearest_neighbours(np.zeros((3, 2)), np.zeros((1, 3)))
        with pytest.raises(ShapeMismatch):
            nearest_neighbours(np.zeros((3, 2)), np.zeros(2))
