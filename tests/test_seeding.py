"""Property tests: block stream derivation equals the one-path reference.

``derive_rng`` is the reference; ``derive_rngs``, ``derive_rng_grid``, the
mask blocks built on them and scene generation must reproduce it bit for
bit, whatever the path values, the block boundaries or the word count of
an index or a master seed.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayesreloc.regressor import draw_mask, draw_masks, pose_network
from bayesreloc.scenes import (
    _SPLIT_TAGS,
    FeatureMap,
    SceneSpec,
    _sample_pose,
    generate_scene,
)
from bayesreloc.seeding import _MAX_ROWS, derive_rng, derive_rng_grid, derive_rngs

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


class TestDeriveRngs:
    @SETTINGS
    @given(prefix=st.lists(path_values, max_size=4), start=starts, count=st.integers(0, 64))
    def test_equals_derive_rng(self, prefix, start, count):
        made = 0
        for j, rng in enumerate(derive_rngs(prefix, start, count)):
            _same_generator(rng, derive_rng(*prefix, start + j))
            made += 1
        assert made == count

    @SETTINGS
    @given(seed=path_values, start=st.integers(2**32 - 64, 2**32 - 1), count=st.integers(1, 64))
    def test_block_across_two_to_the_32(self, seed, start, count):
        for j, rng in enumerate(derive_rngs((seed, 2), start, count)):
            _same_generator(rng, derive_rng(seed, 2, start + j))

    def test_long_block_hashed_in_pieces(self):
        # Longer than one hash; check the rows around each piece boundary.
        count = 2 * _MAX_ROWS + 5
        checked = {0, _MAX_ROWS - 1, _MAX_ROWS, _MAX_ROWS + 1, 2 * _MAX_ROWS, count - 1}
        made = 0
        for j, rng in enumerate(derive_rngs((9, 1), 17, count)):
            if j in checked:
                _same_generator(rng, derive_rng(9, 1, 17 + j))
            made += 1
        assert made == count

    def test_yields_lazily(self):
        block = derive_rngs((3,), 0, 10)
        assert iter(block) is block
        _same_generator(next(block), derive_rng(3, 0))

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError, match="count"):
            list(derive_rngs((3,), 0, -1))

    def test_rejects_non_integer_path(self):
        with pytest.raises(TypeError):
            list(derive_rngs((1.5,), 0, 1))


class TestDeriveRngGrid:
    @SETTINGS
    @given(masters=st.lists(path_values, max_size=6), count=st.integers(0, 40))
    def test_equals_derive_rng(self, masters, count):
        got = list(derive_rng_grid(masters, count))
        want = [derive_rng(m, i) for m in masters for i in range(count)]
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _same_generator(g, w)

    def test_one_hash_per_word_count(self, monkeypatch):
        import bayesreloc.seeding as seeding

        shapes = []
        real = seeding._pcg64_seeds
        monkeypatch.setattr(seeding, "_pcg64_seeds", lambda e: shapes.append(e.shape) or real(e))
        list(derive_rng_grid([2**40, 3, 2**32 - 1, -1, 7], 4))
        assert shapes == [(2, 12), (3, 8)]


class TestPrecomputedSeedSequence:
    def _seed_seq(self):
        return next(derive_rngs((11, 2**40), 5, 1)).bit_generator.seed_seq

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


def _reference_scene(spec, counts):
    """Every example drawn from its own derive_rng stream, one at a time."""
    fmap = FeatureMap(spec)
    splits = {}
    for split, count in zip(("train", "calib", "test"), counts):
        examples = []
        for i in range(count):
            rng = derive_rng(spec.generator_seed, _SPLIT_TAGS[split], i)
            pose = _sample_pose(spec, rng, survey_bias=(split == "train"))
            features = fmap(pose, rng.normal(size=spec.nuisance_dim))
            if spec.noise_sigma > 0.0:
                features = features + rng.normal(size=spec.feature_dim) * spec.noise_sigma
            examples.append((f"{spec.scene_id}-{split}-{i:05d}", features, pose))
        splits[split] = examples
    return splits


class TestGenerateScene:
    @settings(max_examples=8, deadline=None)
    @given(generator_seed=st.one_of(st.just(2**40 + 7), st.integers(2**32, 2**64 + 2**40)))
    def test_equals_reference_loop(self, generator_seed):
        spec = SceneSpec(
            scene_id="ref",
            extent=((0.0, 10.0), (0.0, 5.0), (0.0, 2.0)),
            feature_dim=8,
            nuisance_dim=2,
            noise_sigma=0.02,
            generator_seed=generator_seed,
        )
        counts = (30, 8, 12)
        dataset = generate_scene(spec, *counts)
        reference = _reference_scene(spec, counts)
        for split in ("train", "calib", "test"):
            got = getattr(dataset, split)
            assert len(got) == len(reference[split])
            for ex, (query_id, features, pose) in zip(got, reference[split]):
                assert ex.query_id == query_id
                np.testing.assert_array_equal(ex.features, features)
                assert ex.pose == pose
