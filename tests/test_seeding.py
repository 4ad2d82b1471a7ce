"""Property tests: block stream derivation equals the one-path reference.

``derive_rng`` is the reference; ``derive_rngs``, the mask blocks built on
it and scene generation must reproduce it bit for bit, whatever the path
values, the block boundaries or the word count of an index or a prefix.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bayesreloc.regressor as regressor
import bayesreloc.seeding as seeding
from bayesreloc.geometry import LossConfig, Pose, UnitQuaternion, Vec3, normalize
from bayesreloc.mc_posterior import localize_batch
from bayesreloc.regressor import TrainConfig, draw_mask, draw_masks, pose_network, train
from bayesreloc.scenes import (
    _ORIENT_TWIST,
    _POSITION_CENTER,
    _POSITION_GAIN,
    _SPLIT_TAGS,
    _TRAIN_DENSE_FRACTION,
    _TRAIN_DENSE_SPAN,
    FeatureMap,
    SceneSpec,
    generate_scene,
)
from bayesreloc.seeding import _MAX_ROWS, derive_rng, derive_rngs

# Values where SeedSequence's word split changes, plus values it only sees
# after masking to 64 bits.
EDGES = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1, -1, -(2**32), -(2**63), 2**64, 2**64 + 5, 2**70 + 3]

path_values = st.one_of(st.sampled_from(EDGES), st.integers(-(2**70), 2**70))
starts = st.one_of(
    st.integers(0, 2**20),
    st.integers(2**32 - 70, 2**32 + 5),  # blocks that cross 2**32
    st.integers(2**64 - 70, 2**64 - 1),  # blocks that wrap past 2**64 - 1
    st.integers(-70, -1),
    st.integers(-(2**70), 2**70),
)

SETTINGS = settings(max_examples=150, deadline=None)


def _same_generator(got, want):
    assert got.bit_generator.state == want.bit_generator.state
    np.testing.assert_array_equal(got.random(3), want.random(3))


# Lists of prefixes whose paths take different SeedSequence word counts.
prefix_lists = st.lists(st.lists(path_values, max_size=4), max_size=6)


def _hash_shapes(monkeypatch):
    """The entropy shape of every _pcg64_seeds call made from now on."""
    shapes = []
    real = seeding._pcg64_seeds
    monkeypatch.setattr(seeding, "_pcg64_seeds", lambda e: shapes.append(e.shape) or real(e))
    return shapes


class TestDeriveRngs:
    @SETTINGS
    @given(prefixes=prefix_lists, start=starts, count=st.integers(0, 64))
    def test_equals_derive_rng(self, prefixes, start, count):
        got = list(derive_rngs(prefixes, start, count))
        want = [derive_rng(*p, start + j) for p in prefixes for j in range(count)]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _same_generator(g, w)

    @SETTINGS
    @given(
        seeds=st.lists(path_values, min_size=1, max_size=4),
        start=st.integers(2**32 - 64, 2**32 - 1),
        count=st.integers(1, 64),
    )
    def test_block_across_two_to_the_32(self, seeds, start, count):
        got = derive_rngs([(seed, 2) for seed in seeds], start, count)
        for g, (seed, j) in zip(got, [(seed, j) for seed in seeds for j in range(count)], strict=True):
            _same_generator(g, derive_rng(seed, 2, start + j))

    def test_long_block_hashed_in_pieces(self):
        # Longer than two hashes per word count; (9, 1) and (7, 2) share a
        # word count, so a hash also ends inside the second's rows.
        prefixes = [(9, 1), (2**40, 1), (7, 2)]
        count = 2 * _MAX_ROWS + 5
        got = derive_rngs(prefixes, 17, count)
        for g, (p, j) in zip(got, [(p, j) for p in prefixes for j in range(count)], strict=True):
            _same_generator(g, derive_rng(*p, 17 + j))

    def test_yields_lazily(self):
        block = derive_rngs([(3,)], 0, 10)
        assert iter(block) is block
        _same_generator(next(block), derive_rng(3, 0))

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError, match="count"):
            list(derive_rngs([(3,)], 0, -1))

    def test_rejects_non_integer_path(self):
        with pytest.raises(TypeError):
            list(derive_rngs([(1.5,)], 0, 1))

    def test_one_hash_per_word_count(self, monkeypatch):
        shapes = _hash_shapes(monkeypatch)
        list(derive_rngs([(2**40,), (3,), (2**32 - 1,), (-1,), (7,)], 0, 4))
        assert shapes == [(2, 12), (3, 8)]
        # Paths of three words, two of prefix and one of index or one and
        # two, share one hash.
        shapes.clear()
        list(derive_rngs([(1, 2), (3,)], 2**32 - 2, 4))
        assert sorted(shapes) == [(2, 2), (3, 4), (4, 2)]


class TestDeriveRngGrid:
    """The master-by-index grid batched Monte Carlo sampling draws: one-word
    prefixes, indices from 0."""

    @SETTINGS
    @given(masters=st.lists(path_values, max_size=6), count=st.integers(0, 40))
    def test_equals_derive_rng(self, masters, count):
        got = list(derive_rngs([(m,) for m in masters], 0, count))
        want = [derive_rng(m, i) for m in masters for i in range(count)]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _same_generator(g, w)


class TestHashCallsPerCaller:
    """Each caller's traffic takes the fewest hashes its word counts allow
    with bounded memory: one per run of at most _MAX_ROWS counters of a
    training epoch, whatever the batch size, one per _MAX_ROWS rows of a
    scene split and one per word count of a Monte Carlo block."""

    def _train(self, n, monkeypatch):
        # Wide enough that no pass drops a whole layer.
        net = pose_network(5, (32, 32), 0.5, seed=3)
        pose = Pose(Vec3(1.0, 2.0, 0.5), UnitQuaternion(1.0, 0.0, 0.0, 0.0))
        data = [(x, pose) for x in np.random.default_rng(0).normal(size=(n, 5))]
        shapes = _hash_shapes(monkeypatch)
        train(net, data, TrainConfig(1e-3, 32, 2, LossConfig(beta=50.0), seed=4))
        return shapes

    def test_training_hashes_once_per_epoch_run(self, monkeypatch):
        assert self._train(70, monkeypatch) == [(2, 70)] * 2

    def test_training_epoch_longer_than_max_rows(self, monkeypatch):
        # The runs, not only their hashes, stop at _MAX_ROWS counters: the
        # seeds kept for an unread run's generators are bounded too.
        runs = []
        real = regressor.derive_rngs
        monkeypatch.setattr(regressor, "derive_rngs", lambda p, s, c: runs.append((s, c)) or real(p, s, c))
        n = _MAX_ROWS + 76
        assert self._train(n, monkeypatch) == [(2, _MAX_ROWS), (2, n - _MAX_ROWS)] * 2
        assert runs == [(0, _MAX_ROWS), (_MAX_ROWS, 76), (n, _MAX_ROWS), (n + _MAX_ROWS, 76)]

    def test_scene_hashes_a_split_in_max_rows_pieces(self, monkeypatch):
        spec = SceneSpec(scene_id="calls", feature_dim=4, nuisance_dim=1, generator_seed=5)
        shapes = _hash_shapes(monkeypatch)
        generate_scene(spec, 2000, 8, 1)
        assert shapes == [(3, _MAX_ROWS), (3, 2000 - _MAX_ROWS), (3, 8), (3, 1)]

    def test_monte_carlo_block_hashes_once_per_word_count(self, monkeypatch):
        net = pose_network(5, (32, 32), 0.5, seed=3)
        masters = [0, 2**40, 3, 2**32, 2**32 - 1, 9]
        X = np.random.default_rng(1).normal(size=(len(masters), 5))
        shapes = _hash_shapes(monkeypatch)
        localize_batch(net, X, masters, 40)
        assert shapes == [(2, 160), (3, 80)]


class TestPrecomputedSeedSequence:
    def _seed_seq(self):
        return next(derive_rngs([(11, 2**40)], 5, 1)).bit_generator.seed_seq

    def test_serves_the_pcg64_request(self):
        state = self._seed_seq().generate_state(4, np.uint64)
        assert state.dtype == np.uint64 and state.shape == (4,)
        assert state.flags.c_contiguous
        want = np.random.SeedSequence([11, 2**40, 5]).generate_state(4, np.uint64)
        np.testing.assert_array_equal(state, want)

    @SETTINGS
    @given(
        n_words=st.integers(0, 16),
        dtype=st.sampled_from([np.uint32, np.uint64, np.int64, np.float64, "uint64", "u4"]),
    )
    def test_rejects_any_other_request(self, n_words, dtype):
        if n_words == 4 and np.dtype(dtype) == np.uint64:
            return
        with pytest.raises(ValueError, match="generate_state"):
            self._seed_seq().generate_state(n_words, dtype)


def _net():
    return pose_network(5, (9, 6), 0.5, seed=3)


class TestDrawMasksBlocks:
    @SETTINGS
    @given(
        seed=path_values,
        start=st.one_of(st.integers(0, 2**20), st.integers(2**32 - 40, 2**32 + 5)),
        count=st.integers(0, 40),
        cuts=st.lists(st.integers(0, 40), max_size=4),
    )
    def test_rows_equal_draw_mask_however_split(self, seed, start, count, cuts):
        net = _net()
        bounds = sorted({0, count, *(c for c in cuts if c < count)})
        pieces = [draw_masks(net, seed, start + a, b - a) for a, b in zip(bounds, bounds[1:])]
        block = np.concatenate(pieces) if pieces else draw_masks(net, seed, start, 0)
        np.testing.assert_array_equal(block, draw_masks(net, seed, start, count))
        assert block.shape == (count, 9 + 6)
        for j, row in enumerate(block):
            np.testing.assert_array_equal(row, draw_mask(net, seed, start + j))


def _reference_pose(spec, rng, survey_bias):
    """One example's pose, drawn with the generator's scalar calls."""
    (x0, x1), (y0, y1), (z0, z1) = spec.extent
    if survey_bias and rng.random() < _TRAIN_DENSE_FRACTION:
        x = rng.uniform(x0, x0 + _TRAIN_DENSE_SPAN * (x1 - x0))
    else:
        x = rng.uniform(x0, x1)
    position = Vec3(x, rng.uniform(y0, y1), rng.uniform(z0, z1))
    yaw = math.radians(rng.uniform(*spec.yaw_range_deg))
    pitch = math.radians(rng.normal(0.0, spec.pitch_roll_std_deg))
    roll = math.radians(rng.normal(0.0, spec.pitch_roll_std_deg))
    cy, sy = math.cos(yaw / 2.0), math.sin(yaw / 2.0)
    cp, sp = math.cos(pitch / 2.0), math.sin(pitch / 2.0)
    cr, sr = math.cos(roll / 2.0), math.sin(roll / 2.0)
    quaternion = normalize(
        (
            cy * cp * cr + sy * sp * sr,
            cy * cp * sr - sy * sp * cr,
            cy * sp * cr + sy * cp * sr,
            sy * cp * cr - cy * sp * sr,
        )
    )
    return Pose(position, quaternion)


def _reference_features(fmap, pose, nuisance):
    """The feature map of one pose, with the encoding in scalar arithmetic."""
    (x0, x1), (y0, y1), (z0, z1) = fmap.spec.extent
    xr = pose.position.x - x0
    if fmap.spec.aliasing_period is not None:
        xr = xr % fmap.spec.aliasing_period
    q = pose.orientation
    tx = xr / (x1 - x0)
    ty = (pose.position.y - y0) / (y1 - y0)
    tz = (pose.position.z - z0) / (z1 - z0)
    c, s = math.cos(_ORIENT_TWIST * tx), math.sin(_ORIENT_TWIST * tx)
    encoding = [
        _POSITION_GAIN * (tx - _POSITION_CENTER),
        _POSITION_GAIN * (ty - _POSITION_CENTER),
        _POSITION_GAIN * (tz - _POSITION_CENTER),
        c * q.w - s * q.z,
        c * q.x - s * q.y,
        s * q.x + c * q.y,
        s * q.w + c * q.z,
    ]
    u = np.concatenate([encoding, nuisance])
    return fmap.w2 @ np.tanh(fmap.w1 @ u + fmap.b1) + fmap.b2


def _reference_scene(spec, counts):
    """Every example drawn from its own derive_rng stream, one at a time."""
    fmap = FeatureMap(spec)
    splits = {}
    for split, count in zip(("train", "calib", "test"), counts):
        examples = []
        for i in range(count):
            rng = derive_rng(spec.generator_seed, _SPLIT_TAGS[split], i)
            pose = _reference_pose(spec, rng, survey_bias=(split == "train"))
            features = _reference_features(fmap, pose, rng.normal(size=spec.nuisance_dim))
            if spec.noise_sigma > 0.0:
                features = features + rng.normal(size=spec.feature_dim) * spec.noise_sigma
            examples.append((f"{spec.scene_id}-{split}-{i:05d}", features, pose))
        splits[split] = examples
    return splits


class TestGenerateScene:
    @settings(max_examples=12, deadline=None)
    @given(
        generator_seed=st.one_of(st.just(2**40 + 7), st.integers(2**32, 2**64 + 2**40)),
        nuisance_dim=st.integers(0, 3),
        noise_sigma=st.sampled_from([0.0, 0.02]),
        aliasing_period=st.sampled_from([None, 3.0]),
        yaw_range_deg=st.sampled_from([(-90.0, 90.0), (-180.0, 180.0), (10.0, 10.0)]),
        pitch_roll_std_deg=st.sampled_from([0.0, 3.0]),
        n_train=st.sampled_from([1, 30, 255, 256, 257]),
    )
    def test_equals_reference_loop(
        self, generator_seed, nuisance_dim, noise_sigma, aliasing_period, yaw_range_deg, pitch_roll_std_deg, n_train
    ):
        spec = SceneSpec(
            scene_id="ref",
            extent=((0.0, 10.0), (0.0, 5.0), (0.0, 2.0)),
            feature_dim=8,
            nuisance_dim=nuisance_dim,
            noise_sigma=noise_sigma,
            aliasing_period=aliasing_period,
            generator_seed=generator_seed,
            yaw_range_deg=yaw_range_deg,
            pitch_roll_std_deg=pitch_roll_std_deg,
        )
        counts = (n_train, 8, 12)
        dataset = generate_scene(spec, *counts)
        reference = _reference_scene(spec, counts)
        for split in ("train", "calib", "test"):
            got = getattr(dataset, split)
            assert len(got) == len(reference[split])
            for ex, (query_id, features, pose) in zip(got, reference[split]):
                assert ex.query_id == query_id
                np.testing.assert_array_equal(ex.features, features)
                assert ex.pose == pose
