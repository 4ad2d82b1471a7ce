"""Tests for synthetic scene generation and the dataset file format."""

import json
import math

import numpy as np
import pytest

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
