"""Tests for Monte Carlo dropout sampling and scatter statistics.

The array code is checked bit for bit against the per-sample code it
replaced (one ``normalize`` and one ``UnitQuaternion`` per pass), kept
here as the reference: the block statistics query by query, and
``localize_batch`` against a loop of per-pass sampling and reference
estimates.  Moment tests check ``localize`` and ``localize_batch``
against the mathematics of inverted dropout.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_regressor import _fast_path_nets

from bayesreloc.errors import DegenerateMean, DegenerateQuaternion, ShapeMismatch
from bayesreloc.geometry import UNIT_TOL, Pose, UnitQuaternion, Vec3, hemisphere_aligned, normalize
from bayesreloc.mc_posterior import (
    DEFAULT_NUM_SAMPLES,
    IDENTICAL_TOL,
    MAX_NUM_SAMPLES,
    PoseSampleSet,
    UncertaintyEstimate,
    _BLOCK_ROWS,
    _estimates,
    estimate,
    estimate_determinant,
    localize,
    localize_batch,
    sample_posterior,
)
from bayesreloc.regressor import (
    LayerSpec,
    _mask_block,
    build_network,
    draw_mask,
    feature_embedding,
    forward,
    pose_network,
)
from bayesreloc.seeding import derive_rngs, derive_seed

IDENTITY_ROW = np.array([1.0, 0.0, 0.0, 0.0])
SETTINGS = settings(max_examples=150, deadline=None)


def _net(p=0.5, seed=7, dropout=True):
    specs = [
        LayerSpec(4, 16),
        LayerSpec(16, 16, has_dropout=dropout),
        LayerSpec(16, 7, has_dropout=dropout, activation="identity"),
    ]
    net = build_network(specs, p, seed=seed)
    # An untrained net with zero biases can emit an exactly-zero raw
    # quaternion when a mask drops every active hidden unit.  A nonzero w
    # bias keeps every stochastic pass usable, like a trained net would.
    net.layers[-1].bias[3] = 1.0
    return net


def _cloud(rng, n, base_sigma=0.3, angle_deg=20.0):
    """A plausible sample set: scattered positions, quaternions in a cone."""
    positions = rng.normal(size=(n, 3)) * base_sigma
    quaternions = np.empty((n, 4))
    for i in range(n):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        half = np.radians(rng.uniform(0.0, angle_deg)) / 2.0
        quaternions[i] = [np.cos(half), *(np.sin(half) * axis)]
        if quaternions[i] @ quaternions[0] < 0.0:
            quaternions[i] = -quaternions[i]
    return PoseSampleSet(positions, quaternions)


def _reference_sample_posterior(net, x, num_samples, master_seed):
    """One normalize and one hemisphere check per pass."""
    positions = np.empty((num_samples, 3))
    quaternions = np.empty((num_samples, 4))
    for i in range(num_samples):
        out = forward(net, x, draw_mask(net, master_seed, i))
        positions[i] = out[:3]
        row = normalize(out[3:]).as_array()
        if i > 0 and float(row @ quaternions[0]) < 0.0:
            row = -row
        quaternions[i] = row
    return PoseSampleSet(positions, quaternions)


def _reference_quaternion_mean(rows):
    """Sequential sum of quaternion rows flipped toward the first one."""
    acc = np.zeros(4)
    for v in rows:
        w, x, y, z = (a * b for a, b in zip(v.tolist(), rows[0].tolist()))
        acc += -v if w + x + y + z < 0.0 else v
    acc /= len(rows)
    n = float(np.linalg.norm(acc))
    if n <= UNIT_TOL:
        raise DegenerateMean(f"aligned quaternion mean has norm {n!r}")
    return UnitQuaternion.from_array(acc / n)


def _reference_canonical_sign(q):
    for c in (q.w, q.x, q.y, q.z):
        if c > 0.0:
            return q
        if c < 0.0:
            return q.negated()
    return q


def _reference_estimate(samples):
    """The estimate built one quaternion row at a time."""
    positions = samples.positions
    n = len(positions)
    quats = np.array(samples.quaternions, dtype=float)
    flip = quats @ quats[0] < 0.0
    quats[flip] = -quats[flip]
    pos_identical = bool(np.max(np.abs(positions - positions[0])) <= IDENTICAL_TOL)
    rot_identical = bool(np.max(np.abs(quats - quats[0])) <= IDENTICAL_TOL)
    trans_mean = Vec3.from_array(positions[0] if pos_identical else positions.mean(axis=0))
    if rot_identical:
        rot_mean = _reference_canonical_sign(normalize(quats[0]))
    else:
        rot_mean = _reference_canonical_sign(_reference_quaternion_mean(quats))
    if n < 2:
        return UncertaintyEstimate(0.0, 0.0, trans_mean, rot_mean, degenerate=True)
    trans_trace = 0.0 if pos_identical else float(positions.var(axis=0, ddof=1).sum())
    rot_trace = 0.0 if rot_identical else float(quats.var(axis=0, ddof=1).sum())
    degenerate = trans_trace == 0.0 and rot_trace == 0.0
    return UncertaintyEstimate(trans_trace, rot_trace, trans_mean, rot_mean, degenerate=degenerate)


def _bits(est):
    """Every float of an estimate as hex text, so -0.0 and 0.0 differ."""
    floats = (
        est.trans_trace,
        est.rot_trace,
        *est.trans_mean.as_array(),
        *est.rot_mean.as_array(),
    )
    return tuple(float(v).hex() for v in floats), est.degenerate


@st.composite
def sample_sets(draw, n=None):
    """Clouds of 1 to 128 samples (or n): scattered, with identical
    positions or rotations or both, at several spreads, with or without
    sign flips."""
    if n is None:
        n = draw(st.integers(1, MAX_NUM_SAMPLES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.sampled_from([1e-9, 1e-3, 0.1, 1.0, 10.0]))
    positions = rng.normal(size=3) + spread * rng.normal(size=(n, 3))
    raw = rng.normal(size=4) + spread * rng.normal(size=(n, 4))
    quaternions = raw / np.linalg.norm(raw, axis=1)[:, None]
    if draw(st.booleans()):
        positions[:] = positions[0]
    if draw(st.booleans()):
        quaternions[:] = quaternions[0]
    if draw(st.booleans()):
        flip = rng.random(n) < 0.5
        quaternions[flip] = -quaternions[flip]
    return PoseSampleSet(positions, quaternions)


class TestArrayPathMatchesReference:
    @SETTINGS
    @given(samples=sample_sets())
    def test_estimate_bit_identical(self, samples):
        assert _bits(estimate(samples)) == _bits(_reference_estimate(samples))

    @SETTINGS
    @given(samples=sample_sets(), seed=st.integers(0, 2**32 - 1))
    def test_estimate_invariant_to_sign_flips(self, samples, seed):
        flip = np.random.default_rng(seed).random(len(samples.positions)) < 0.5
        quats = samples.quaternions.copy()
        quats[flip] = -quats[flip]
        flipped = PoseSampleSet(samples.positions, quats)
        assert _bits(estimate(flipped)) == _bits(estimate(samples))

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(sorted(_fast_path_nets())),
        w_bias=st.sampled_from([0.0, 1.0]),
        x_seed=st.integers(0, 2**32 - 1),
        num_samples=st.integers(1, MAX_NUM_SAMPLES),
        master_seed=st.integers(0, 2**63),
    )
    def test_sample_posterior_matches_per_pass_loop(self, name, w_bias, x_seed, num_samples, master_seed):
        # Zero biases let a mask zero the raw quaternion, which both paths
        # must reject alike; a w bias of 1 keeps every pass usable.
        net = _fast_path_nets()[name]
        net.layers[-1].bias[3] = w_bias
        x = np.random.default_rng(x_seed).normal(size=net.input_width)
        try:
            want = _reference_sample_posterior(net, x, num_samples, master_seed)
        except DegenerateQuaternion as e:
            with pytest.raises(DegenerateQuaternion, match=re.escape(str(e))):
                sample_posterior(net, x, num_samples, master_seed)
            return
        got = sample_posterior(net, x, num_samples, master_seed)
        assert got.positions.tobytes() == want.positions.tobytes()
        assert got.quaternions.tobytes() == want.quaternions.tobytes()


def _cancelling_set(n, position=0.0):
    """n samples whose aligned quaternion mean is exactly zero: a zero first
    row (so nothing flips), then opposite pairs, then a zero row if one is
    left over.  One or two rows are all zero, an identical set that
    normalize rejects.  A NaN position is rejected before the rotation."""
    quats = np.zeros((n, 4))
    pairs = (n - 1) // 2
    quats[1 : 1 + pairs] = [0.0, 0.6, 0.0, 0.8]
    quats[1 + pairs : 1 + 2 * pairs] = [0.0, -0.6, 0.0, -0.8]
    return PoseSampleSet(np.full((n, 3), position), quats)


@st.composite
def blocks(draw):
    """1 to 64 sample sets of one size, one of them cancelling or none."""
    n = draw(st.one_of(st.sampled_from([1, 2, 3, 4, 40, MAX_NUM_SAMPLES]), st.integers(1, MAX_NUM_SAMPLES)))
    sets = draw(st.lists(sample_sets(n), min_size=1, max_size=64))
    cancel_at = draw(st.one_of(st.none(), st.integers(0, len(sets) - 1)))
    if cancel_at is not None:
        sets[cancel_at] = _cancelling_set(n, draw(st.sampled_from([0.0, np.nan])))
    return sets


def _zero_set(n):
    """n samples whose quaternion rows are all zero: an identical set that
    normalize rejects."""
    return PoseSampleSet(np.zeros((n, 3)), np.zeros((n, 4)))


def _block_of(sets):
    return np.stack([np.concatenate((s.positions, s.quaternions), axis=1) for s in sets])


def _outcomes(estimates):
    """The bits of each estimate up to the first error, then the error's type and text."""
    out = []
    try:
        for est in estimates:
            out.append(_bits(est))
    except Exception as e:
        out.append((type(e), str(e)))
    return out


class TestBlockStatistics:
    """The block kernel against the per-query reference estimate."""

    @settings(max_examples=100, deadline=None)
    @given(sets=blocks())
    def test_every_query_matches_reference_estimate(self, sets):
        block = _block_of(sets)
        want = _outcomes(_reference_estimate(s) for s in sets)
        assert _outcomes(_estimates(block)) == want
        aligned = hemisphere_aligned(block[..., 3:])
        for s, rows in zip(sets, aligned):
            quats = s.quaternions.copy()
            flip = quats @ quats[0] < 0.0
            quats[flip] = -quats[flip]
            assert rows.tobytes() == quats.tobytes()

    def test_error_comes_after_the_queries_before_it(self):
        rng = np.random.default_rng(5)
        sets = [_cloud(rng, 6), _cloud(rng, 6), _cancelling_set(6), _cloud(rng, 6)]
        stream = _estimates(_block_of(sets))
        assert [_bits(next(stream)) for _ in range(2)] == [_bits(estimate(s)) for s in sets[:2]]
        with pytest.raises(DegenerateMean, match="aligned quaternion mean has norm 0.0"):
            next(stream)

    @pytest.mark.parametrize(
        "second, third, error, text",
        [
            (_cancelling_set, _zero_set, DegenerateMean, "aligned quaternion mean has norm 0.0"),
            (_zero_set, _cancelling_set, DegenerateQuaternion, "quaternion norm 0.0 is unusable"),
        ],
        ids=["mean-then-zero-rows", "zero-rows-then-mean"],
    )
    def test_only_the_first_failing_query_raises(self, second, third, error, text):
        rng = np.random.default_rng(9)
        sets = [_cloud(rng, 6), _cloud(rng, 6), second(6), _cloud(rng, 6), third(6), _cloud(rng, 6)]
        stream = _estimates(_block_of(sets))
        assert [_bits(next(stream)) for _ in range(2)] == [_bits(estimate(s)) for s in sets[:2]]
        with pytest.raises(error, match=text):
            next(stream)
        assert next(stream, None) is None

    @pytest.mark.parametrize("n, error", [(1, DegenerateQuaternion), (2, DegenerateQuaternion), (5, DegenerateMean)])
    def test_cancelling_set(self, n, error):
        with pytest.raises(error):
            estimate(_cancelling_set(n))


class TestPoseSampleSet:
    @pytest.mark.parametrize(
        "positions, quaternions",
        [((5, 3), (4, 4)), ((4, 3), (5, 4)), ((4, 2), (4, 4)), ((4, 3), (4, 3)), ((4, 3, 1), (4, 4)), ((3,), (1, 4))],
    )
    def test_shapes_must_share_one_count(self, positions, quaternions):
        with pytest.raises(ShapeMismatch, match="sample set"):
            PoseSampleSet(np.zeros(positions), np.ones(quaternions))

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError, match="at least one sample"):
            PoseSampleSet(np.zeros((0, 3)), np.zeros((0, 4)))


class TestSamplePosterior:
    def test_repeat_is_bit_identical(self):
        net = _net()
        x = np.arange(4.0) / 3.0
        a = sample_posterior(net, x, 12, master_seed=99)
        b = sample_posterior(net, x, 12, master_seed=99)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.quaternions, b.quaternions)

    def test_master_seed_changes_cloud(self):
        net = _net()
        x = np.arange(4.0) / 3.0
        a = sample_posterior(net, x, 12, master_seed=1)
        b = sample_posterior(net, x, 12, master_seed=2)
        assert not np.array_equal(a.positions, b.positions)

    def test_rows_unit_and_hemisphere_aligned(self):
        net = _net()
        rng = np.random.default_rng(2024)
        for trial in range(10):
            x = rng.normal(size=4)
            s = sample_posterior(net, x, 24, master_seed=trial)
            norms = np.linalg.norm(s.quaternions, axis=1)
            assert np.max(np.abs(norms - 1.0)) < 1e-12
            dots = s.quaternions @ s.quaternions[0]
            assert np.all(dots >= 0.0)

    def test_zero_dropout_rows_match_deterministic_pass(self):
        net = _net(p=0.0)
        x = np.array([0.5, -1.0, 2.0, 0.25])
        out = forward(net, x)
        s = sample_posterior(net, x, 8, master_seed=3)
        expected_q = normalize(out[3:]).as_array()
        for i in range(8):
            assert np.array_equal(s.positions[i], out[:3])
            assert np.array_equal(s.quaternions[i], expected_q)

    def test_single_sample_is_the_first_stochastic_pass(self):
        net = _net()
        x = np.array([1.0, 0.0, -1.0, 0.5])
        s = sample_posterior(net, x, 1, master_seed=11)
        out = forward(net, x, draw_mask(net, 11, 0))
        assert np.array_equal(s.positions[0], out[:3])
        assert np.array_equal(s.quaternions[0], normalize(out[3:]).as_array())

    def test_sample_count_bounds(self):
        net = _net()
        x = np.zeros(4)
        with pytest.raises(ValueError):
            sample_posterior(net, x, 0)
        with pytest.raises(ValueError):
            sample_posterior(net, x, MAX_NUM_SAMPLES + 1)
        assert len(sample_posterior(net, x, MAX_NUM_SAMPLES, 0).positions) == MAX_NUM_SAMPLES

    def test_net_without_dropout_layers_is_degenerate(self):
        net = _net(p=0.5, dropout=False)
        x = np.array([0.3, 0.7, -0.2, 1.1])
        s = sample_posterior(net, x, 6, master_seed=5)
        assert np.all(s.positions == s.positions[0])
        est = estimate(s)
        assert est.trans_trace == 0.0 and est.rot_trace == 0.0
        assert est.degenerate

    def test_zero_quaternion_raises(self):
        net = _net()
        for layer in net.layers:
            layer.weights[:] = 0.0
            layer.bias[:] = 0.0
        with pytest.raises(DegenerateQuaternion):
            sample_posterior(net, np.ones(4), 4, master_seed=0)


class TestEstimate:
    def test_two_point_cloud(self):
        positions = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        quats = np.stack([IDENTITY_ROW, IDENTITY_ROW])
        est = estimate(PoseSampleSet(positions, quats))
        assert est.trans_mean == Vec3(1.0, 0.0, 0.0)
        assert est.trans_trace == 2.0
        assert est.rot_trace == 0.0

    def test_identical_samples_zero_traces(self):
        positions = np.tile([1.5, -2.0, 0.25], (6, 1))
        quats = np.tile(IDENTITY_ROW, (6, 1))
        est = estimate(PoseSampleSet(positions, quats))
        assert est.trans_trace == 0.0
        assert est.rot_trace == 0.0
        assert est.degenerate

    def test_single_sample_degenerate(self):
        s = PoseSampleSet(np.array([[1.0, 2.0, 3.0]]), IDENTITY_ROW[None, :])
        est = estimate(s)
        assert est.trans_trace == 0.0 and est.rot_trace == 0.0
        assert est.degenerate
        assert est.trans_mean == Vec3(1.0, 2.0, 3.0)

    def test_isotropic_gaussian_trace(self):
        rng = np.random.default_rng(515)
        n = 1000
        positions = rng.normal(scale=0.5, size=(n, 3))
        quats = np.tile(IDENTITY_ROW, (n, 1))
        est = estimate(PoseSampleSet(positions, quats))
        assert abs(est.trans_trace - 0.75) < 0.075

    def test_trace_matches_independent_variance_oracles(self):
        rng = np.random.default_rng(808)
        for _ in range(20):
            n = int(rng.integers(2, 60))
            s = _cloud(rng, n)
            est = estimate(s)

            # two-pass: subtract the mean, then average squared residuals
            centered = s.positions - s.positions.mean(axis=0)
            two_pass = float((centered**2).sum() / (n - 1))

            # one-pass: E[x^2] - E[x]^2 with the n/(n-1) correction
            ex2 = (s.positions**2).mean(axis=0)
            ex = s.positions.mean(axis=0)
            one_pass = float(((ex2 - ex**2) * n / (n - 1)).sum())

            assert est.trans_trace == pytest.approx(two_pass, rel=1e-10)
            assert est.trans_trace == pytest.approx(one_pass, rel=1e-10)

    def test_scaling_about_mean_squares_trace(self):
        rng = np.random.default_rng(99)
        s = _cloud(rng, 30)
        base = estimate(s).trans_trace
        for c in (0.5, 2.0, 7.0):
            mean = s.positions.mean(axis=0)
            scaled = PoseSampleSet(mean + c * (s.positions - mean), s.quaternions)
            assert estimate(scaled).trans_trace == pytest.approx(c * c * base, rel=1e-12)

    def test_translation_shifts_mean_not_trace(self):
        rng = np.random.default_rng(123)
        s = _cloud(rng, 25)
        base = estimate(s)
        t = np.array([10.0, -4.0, 2.5])
        moved = estimate(PoseSampleSet(s.positions + t, s.quaternions))
        assert moved.trans_trace == pytest.approx(base.trans_trace, rel=1e-12)
        shifted = base.trans_mean.as_array() + t
        assert np.allclose(moved.trans_mean.as_array(), shifted, rtol=0, atol=1e-12)

    def test_sign_flips_never_change_estimate(self):
        rng = np.random.default_rng(314)
        for _ in range(15):
            n = int(rng.integers(2, 40))
            s = _cloud(rng, n)
            base = estimate(s)
            flip = rng.random(n) < 0.5
            quats = s.quaternions.copy()
            quats[flip] = -quats[flip]
            flipped = estimate(PoseSampleSet(s.positions, quats))
            assert flipped.trans_trace == base.trans_trace
            assert flipped.rot_trace == base.rot_trace
            assert flipped.rot_mean == base.rot_mean

    def test_rot_mean_leads_with_positive_component(self):
        rng = np.random.default_rng(271)
        for _ in range(10):
            s = _cloud(rng, 12)
            q = estimate(s).rot_mean
            lead = next(c for c in (q.w, q.x, q.y, q.z) if c != 0.0)
            assert lead > 0.0

    def test_mean_is_componentwise(self):
        rng = np.random.default_rng(42)
        s = _cloud(rng, 17)
        est = estimate(s)
        expected = s.positions.mean(axis=0)
        assert np.array_equal(est.trans_mean.as_array(), expected)


class TestEstimateDeterminant:
    def test_isotropic_det_near_variance_cubed(self):
        rng = np.random.default_rng(606)
        n = 4000
        sigma = 0.4
        positions = rng.normal(scale=sigma, size=(n, 3))
        quats = np.tile(IDENTITY_ROW, (n, 1))
        s = PoseSampleSet(positions, quats)
        trans_det, _ = estimate_determinant(s)
        per_axis = positions.var(axis=0, ddof=1)
        assert trans_det == pytest.approx(float(np.prod(per_axis)), rel=0.05)
        assert trans_det == pytest.approx(sigma**6, rel=0.15)

    def test_line_cloud_det_collapses_while_trace_survives(self):
        n = 20
        ts = np.linspace(-1.0, 1.0, n)
        positions = np.stack([ts, np.zeros(n), np.zeros(n)], axis=1)
        quats = np.tile(IDENTITY_ROW, (n, 1))
        s = PoseSampleSet(positions, quats)
        trans_det, _ = estimate_determinant(s)
        est = estimate(s)
        assert est.trans_trace > 0.3
        assert abs(trans_det) < est.trans_trace * 1e-3
        assert abs(trans_det) < 1e-15

    def test_matches_cofactor_expansion_oracle(self):
        rng = np.random.default_rng(777)
        for _ in range(10):
            n = int(rng.integers(4, 50))
            s = _cloud(rng, n)
            trans_det, _ = estimate_determinant(s)

            centered = s.positions - s.positions.mean(axis=0)
            m = centered.T @ centered / (n - 1)
            oracle = (
                m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
                - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
                + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
            )
            assert trans_det == pytest.approx(float(oracle), rel=1e-10)

    def test_sign_flips_never_change_determinants(self):
        rng = np.random.default_rng(555)
        s = _cloud(rng, 16)
        base = estimate_determinant(s)
        flip = rng.random(16) < 0.5
        quats = s.quaternions.copy()
        quats[flip] = -quats[flip]
        flipped = estimate_determinant(PoseSampleSet(s.positions, quats))
        assert flipped == base

    def test_single_sample_rejected(self):
        s = PoseSampleSet(np.zeros((1, 3)), IDENTITY_ROW[None, :])
        with pytest.raises(ValueError):
            estimate_determinant(s)


class TestLocalize:
    def test_zero_dropout_equals_deterministic_forward(self):
        net = _net(p=0.0)
        x = np.array([0.2, -0.4, 1.0, 0.8])
        pose, est = localize(net, x, 10, master_seed=4)
        out = forward(net, x)
        assert np.array_equal(pose.position.as_array(), out[:3])
        q = normalize(out[3:])
        assert abs(abs(pose.orientation.dot(q)) - 1.0) < 1e-15
        assert est.trans_trace == 0.0 and est.rot_trace == 0.0
        assert est.degenerate

    def test_is_composition_of_sampling_and_estimation(self):
        net = _net()
        x = np.array([1.0, 0.5, -0.5, 0.0])
        pose, est = localize(net, x, 30, master_seed=21)
        ref = estimate(sample_posterior(net, x, 30, master_seed=21))
        assert est == ref
        assert pose.position == ref.trans_mean
        assert pose.orientation == ref.rot_mean

    def test_default_and_max_sample_counts(self):
        assert DEFAULT_NUM_SAMPLES == 40
        assert MAX_NUM_SAMPLES == 128


def _result_bits(result):
    pose, est = result
    floats = (*pose.position.as_array(), *pose.orientation.as_array())
    return tuple(float(v).hex() for v in floats), _bits(est)


def _localize_loop(net, X, seeds, num_samples):
    return [localize(net, x, num_samples, s) for x, s in zip(X, seeds)]


def _loop(net, X, seeds, num_samples):
    """localize one pass and one estimate at a time, by the reference code."""
    out = []
    for x, s in zip(X, seeds):
        est = _reference_estimate(_reference_sample_posterior(net, x, num_samples, s))
        out.append((Pose(est.trans_mean, est.rot_mean), est))
    return out


def _outcome(fn, *args):
    """Every float of the results as hex text, or the error's type and text."""
    try:
        return [_result_bits(r) for r in fn(*args)]
    except Exception as e:
        return type(e), str(e)


def _batch_nets():
    return {**_fast_path_nets(), "bench": pose_network(32, (128, 128), 0.5, seed=703)}


# Master seeds at SeedSequence's word boundary, and derived ones.
master_seeds = st.one_of(
    st.sampled_from([0, 3, 2**32 - 1, 2**32, 2**63 - 1]),
    st.integers(0, 2**32).map(lambda v: derive_seed(v, 1)),
)


class TestLocalizeBatch:
    """localize_batch must equal a loop of per-pass reference localizations."""

    @settings(deadline=None)
    @given(
        name=st.sampled_from(sorted(_batch_nets())),
        w_bias=st.sampled_from([0.0, 1.0]),
        num_samples=st.sampled_from([1, 2, 4, 40, 128]),
        data=st.data(),
    )
    def test_equals_localize_loop(self, name, w_bias, num_samples, data):
        # Zero biases let a mask zero a small net's raw quaternion, which
        # both must reject at the same query.
        net = _batch_nets()[name]
        net.layers[-1].bias[3] = w_bias
        per_block = _BLOCK_ROWS // num_samples
        count = data.draw(st.sampled_from([1, 2, per_block, per_block + 1, 2 * per_block + 1]), "queries")
        seeds = data.draw(st.lists(master_seeds, min_size=count, max_size=count), "seeds")
        x_seed = data.draw(st.integers(0, 2**32 - 1), "x_seed")
        X = np.random.default_rng(x_seed).normal(size=(count, net.input_width))
        want = _outcome(_loop, net, X, seeds, num_samples)
        assert _outcome(localize_batch, net, X, seeds, num_samples) == want

    @pytest.mark.parametrize("bad", [0, 1, 3, 5, 6])
    def test_wrong_width_raises_at_the_same_query(self, bad):
        net = _net()
        # Query 2's raw quaternions are NaN; at 128 samples a block holds
        # two queries.
        X = [np.ones(4) for _ in range(7)]
        X[2] = np.full(4, np.nan)
        X[bad] = np.ones(5)
        seeds = list(range(7))
        want = _outcome(_loop, net, X, seeds, 128)
        assert want[0] is (ShapeMismatch if bad < 2 else DegenerateQuaternion)
        assert _outcome(localize_batch, net, X, seeds, 128) == want

    def test_degenerate_pass_raises_at_the_same_query(self):
        net = _net()
        net.layers[-1].bias[3] = 0.0
        X = np.ones((5, 4))
        X[3] = 0.0
        want = _outcome(_loop, net, X, range(5), 40)
        assert want[0] is DegenerateQuaternion
        assert _outcome(localize_batch, net, X, range(5), 40) == want

    def test_sample_count_bounds_and_empty_input(self):
        net = _net()
        for bad in (0, MAX_NUM_SAMPLES + 1):
            with pytest.raises(ValueError, match="num_samples"):
                localize_batch(net, [np.ones(4)], [0], bad)
        assert localize_batch(net, [], [], 0) == []
        with pytest.raises(ValueError):
            localize_batch(net, [np.ones(4)], [0, 1])


def _last_layer_net():
    """Dropout on the input of the final identity layer only."""
    specs = [LayerSpec(16, 64), LayerSpec(64, 64), LayerSpec(64, 7, has_dropout=True, activation="identity")]
    net = build_network(specs, 0.5, seed=31)
    net.layers[-1].bias[:] = [0.3, -0.2, 0.1, 1.0, 0.0, 0.0, 0.0]
    return net


@pytest.mark.parametrize("run", [_localize_loop, localize_batch], ids=["localize", "localize_batch"])
class TestDropoutMoments:
    """With dropout only before a linear last layer, y = W (m * a) / (1 - p) + b
    has mean W a + b, the maskless output, and variance
    p / (1 - p) * sum_j W_ij^2 a_j^2 in output i.  Bounds sit 4 standard
    errors from the expected value (central limit theorem)."""

    QUERIES = 200
    SAMPLES = 128

    def _run(self, run):
        net = _last_layer_net()
        x = np.random.default_rng(32).normal(size=16)
        seeds = [derive_seed(33, q) for q in range(self.QUERIES)]
        results = run(net, [x] * self.QUERIES, seeds, self.SAMPLES)
        a = feature_embedding(net, x)
        p = net.dropout_p
        variance = p / (1.0 - p) * (net.layers[-1].weights[:3] ** 2 @ a**2)
        return net, x, results, variance

    def test_mean_position_is_the_maskless_output(self, run):
        net, x, results, variance = self._run(run)
        means = np.array([est.trans_mean.as_array() for _, est in results])
        se = np.sqrt(variance / (self.QUERIES * self.SAMPLES))
        assert np.all(np.abs(means.mean(axis=0) - forward(net, x)[:3]) <= 4.0 * se)

    def test_mean_translation_trace_is_analytic(self, run):
        _, _, results, variance = self._run(run)
        traces = np.array([est.trans_trace for _, est in results])
        se = traces.std(ddof=1) / np.sqrt(self.QUERIES)
        assert abs(traces.mean() - variance.sum()) <= 4.0 * se


@pytest.mark.parametrize("run", [_localize_loop, localize_batch], ids=["localize", "localize_batch"])
def test_bench_placement_trace_reaches_the_last_layer_term(run):
    """Dropout masks m1 before a ReLU hidden layer and m2 before the identity
    head, as pose_network places them (Gal & Ghahramani 2016; Postels et
    al. 2019).  By the law of total variance, Var y = E[Var(y | m1)] +
    Var E[y | m1] >= E[Var(y | m1)], and given m1 the head is the last-layer
    case of TestDropoutMoments: Var(y_i | m1) = p / (1 - p) * sum_j W_ij^2
    h_j(m1)^2, h the hidden activation.  Each translation trace is unbiased
    for sum_i Var y_i, so their mean must reach a Monte Carlo estimate of
    the expectation over m1 less 4 combined standard errors (central limit
    theorem)."""
    queries, samples, draws = 200, 128, 20_000
    net = pose_network(16, (64, 64), 0.5, seed=36)
    net.layers[-1].bias[:] = [0.3, -0.2, 0.1, 1.0, 0.0, 0.0, 0.0]
    x = np.random.default_rng(37).normal(size=16)
    seeds = [derive_seed(38, q) for q in range(queries)]
    traces = np.array([est.trans_trace for _, est in run(net, [x] * queries, seeds, samples)])

    trunk, hidden, head = net.layers
    p = net.dropout_p
    a = np.maximum(trunk.weights @ x + trunk.bias, 0.0)
    keep = np.random.default_rng(39).random((draws, a.size)) >= p
    h = np.maximum((keep * a / (1.0 - p)) @ hidden.weights.T + hidden.bias, 0.0)
    conditional = p / (1.0 - p) * (h**2 @ (head.weights[:3] ** 2).T).sum(axis=1)
    se = np.hypot(traces.std(ddof=1) / np.sqrt(queries), conditional.std(ddof=1) / np.sqrt(draws))
    assert traces.mean() >= conditional.mean() - 4.0 * se


def test_grid_masks_keep_units_binomially():
    # Each unit of each mask row is kept with probability 1 - p, so over R
    # rows a unit's keep fraction has standard error sqrt(p (1 - p) / R).
    net = pose_network(32, (128, 128), 0.5, seed=34)
    masters = [0, 3, 2**32 - 1, 2**32, 2**63 - 1, *(derive_seed(35, q) for q in range(3))]
    rows = len(masters) * MAX_NUM_SAMPLES
    masks = _mask_block(net, derive_rngs([(m,) for m in masters], 0, MAX_NUM_SAMPLES), rows)
    assert masks.shape == (rows, 256) and set(np.unique(masks)) <= {0.0, 1.0}
    p = net.dropout_p
    assert np.all(np.abs(masks.mean(axis=0) - (1.0 - p)) <= 4.0 * np.sqrt(p * (1.0 - p) / rows))
