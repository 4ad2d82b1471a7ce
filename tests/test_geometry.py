"""Tests for pose types, quaternion handling, the loss, and error metrics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayesreloc.errors import DegenerateMean, DegenerateQuaternion
from bayesreloc.geometry import (
    LossConfig,
    Pose,
    UnitQuaternion,
    Vec3,
    hemisphere_aligned,
    normalize,
    normalize_rows,
    pose_loss,
    quaternion_mean,
    rotation_error_deg,
    translation_error,
)

COS45 = math.cos(math.radians(45.0))
SIN45 = math.sin(math.radians(45.0))


def _zrot(angle_deg):
    """Unit quaternion for a rotation about +z."""
    half = math.radians(angle_deg) / 2.0
    return UnitQuaternion(math.cos(half), 0.0, 0.0, math.sin(half))


def _qmul(a, b):
    """Hamilton product of two wxyz quaternion arrays."""
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return np.array(
        [
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ]
    )


def _random_unit_quaternion(rng):
    v = rng.normal(size=4)
    return UnitQuaternion.from_array(v / np.linalg.norm(v))


def _rows(quaternions):
    """UnitQuaternions as the (N, 4) array quaternion_mean takes."""
    return np.stack([q.as_array() for q in quaternions])


def _chordal_cost(candidate, samples):
    """Sum of sign-resolved squared chordal distances to each sample."""
    c = candidate.as_array()
    total = 0.0
    for q in samples:
        v = q.as_array()
        total += min(np.sum((c - v) ** 2), np.sum((c + v) ** 2))
    return total


class TestConstructors:
    def test_vec3_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Vec3(0.0, math.nan, 0.0)
        with pytest.raises(ValueError):
            Vec3(math.inf, 0.0, 0.0)

    def test_unit_quaternion_rejects_drift(self):
        with pytest.raises(ValueError):
            UnitQuaternion(1.0 + 1e-6, 0.0, 0.0, 0.0)
        # within tolerance is fine
        UnitQuaternion(1.0 + 1e-10, 0.0, 0.0, 0.0)

    def test_loss_config_validation(self):
        with pytest.raises(ValueError):
            LossConfig(0.0)
        with pytest.raises(ValueError):
            LossConfig(-3.0)
        with pytest.raises(ValueError):
            LossConfig(math.inf)
        assert LossConfig(250.0).beta == 250.0

    def test_array_round_trip(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            q = _random_unit_quaternion(rng)
            again = UnitQuaternion.from_array(q.as_array())
            assert q == again
            p = Vec3.from_array(rng.uniform(-10, 10, size=3))
            np.testing.assert_array_equal(p.as_array(), Vec3.from_array(p.as_array()).as_array())


class TestNormalize:
    def test_scaled_identity(self):
        q = normalize((2.0, 0.0, 0.0, 0.0))
        assert (q.w, q.x, q.y, q.z) == (1.0, 0.0, 0.0, 0.0)

    def test_axis_aligned_scaling(self):
        q = normalize((0.0, 3.0, 0.0, 0.0))
        assert (q.w, q.x, q.y, q.z) == (0.0, 1.0, 0.0, 0.0)

    def test_all_ones(self):
        q = normalize((1.0, 1.0, 1.0, 1.0))
        assert (q.w, q.x, q.y, q.z) == (0.5, 0.5, 0.5, 0.5)

    def test_scale_invariance(self):
        # normalize(s * q) must match normalize(q) for any positive scale
        rng = np.random.default_rng(11)
        for _ in range(200):
            raw = rng.normal(size=4)
            if np.linalg.norm(raw) < 1e-6:
                continue
            s = float(10.0 ** rng.uniform(-6, 6))
            a = normalize(raw).as_array()
            b = normalize(raw * s).as_array()
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_norm_floor(self):
        with pytest.raises(DegenerateQuaternion):
            normalize((0.0, 0.0, 0.0, 0.0))
        with pytest.raises(DegenerateQuaternion):
            normalize((1e-13, 0.0, 0.0, 0.0))
        with pytest.raises(DegenerateQuaternion):
            normalize((math.nan, 0.0, 0.0, 0.0))
        # just above the floor still works
        q = normalize((1e-11, 0.0, 0.0, 0.0))
        assert q.w == 1.0


class TestNormalizeRows:
    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(*[st.one_of(st.floats(allow_nan=True), st.sampled_from([0.0, -0.0, 1e-13]))] * 4),
            min_size=1,
            max_size=6,
        )
    )
    def test_one_block_matches_normalize(self, rows):
        raw = np.array(rows, dtype=float)
        unit, error = normalize_rows(raw)
        try:
            want = np.stack([normalize(row).as_array() for row in raw])
        except DegenerateQuaternion as e:
            assert type(error) is DegenerateQuaternion and str(error) == str(e)
            return
        assert error is None
        assert unit.tobytes() == want.tobytes()


def _flipped(rows):
    """One block's rows flipped toward row 0, one boolean mask at a time."""
    rows = np.array(rows, dtype=float)
    flip = rows @ rows[0] < 0.0
    rows[flip] = -rows[flip]
    return rows


HALF = [0.5, 0.5, 0.5, 0.5]
# Rows whose dot with HALF is exactly zero: two whose products cancel, and
# rows of -0.0 and of +0.0 (a sum of -0.0 products is -0.0 added in order,
# +0.0 as matmul adds them from +0.0); neither sign flips.  Last, a NaN row,
# whose NaN dot does not flip either.
EDGE_ROWS = [
    [0.5, -0.5, 0.5, -0.5],
    [-0.5, 0.5, -0.5, 0.5],
    [-0.0, -0.0, -0.0, -0.0],
    [0.0, 0.0, 0.0, 0.0],
    [math.nan, 0.5, 0.5, 0.5],
]


@st.composite
def quaternion_stacks(draw):
    """(Q, N, 4) stacks of unit rows, some replaced by edge rows, row 0
    included, and some blocks led by HALF so the zero dots occur."""
    q, n = draw(st.integers(1, 5)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = rng.normal(size=(q, n, 4))
    stack /= np.linalg.norm(stack, axis=2, keepdims=True)
    for b in range(q):
        if draw(st.booleans()):
            stack[b, 0] = HALF
        for i in draw(st.lists(st.integers(0, n - 1), max_size=n)):
            stack[b, i] = draw(st.sampled_from(EDGE_ROWS))
    return stack


class TestHemisphereAligned:
    def test_edge_rows_do_not_flip(self):
        rows = np.array([HALF, *EDGE_ROWS])
        dots = rows @ rows[0]
        assert (dots[1:5] == 0.0).all() and math.isnan(dots[5])
        assert hemisphere_aligned(rows).tobytes() == rows.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(stack=quaternion_stacks())
    def test_stack_matches_one_block_calls(self, stack):
        want = np.stack([_flipped(block) for block in stack])
        assert np.stack([hemisphere_aligned(block) for block in stack]).tobytes() == want.tobytes()
        assert hemisphere_aligned(stack).tobytes() == want.tobytes()
        # as the statistics kernel calls it, on the quaternion columns of pose rows
        poses = np.concatenate((np.zeros(stack.shape[:2] + (3,)), stack), axis=2)
        assert hemisphere_aligned(poses[..., 3:]).tobytes() == want.tobytes()

    def test_returns_a_copy(self):
        rows = np.array([HALF, [-0.5, -0.5, -0.5, -0.5]])
        aligned = hemisphere_aligned(rows)
        assert aligned.tolist() == [HALF, HALF]
        assert rows[1, 0] == -0.5


class TestPoseLoss:
    def _pose(self, px, py, pz, q):
        return Pose(Vec3(px, py, pz), q)

    def test_identity_is_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            q = _random_unit_quaternion(rng)
            pos = rng.uniform(-5, 5, size=3)
            target = self._pose(*pos, q)
            predicted = np.concatenate([pos, q.as_array()])
            beta = float(10.0 ** rng.uniform(-2, 3))
            assert pose_loss(predicted, target, LossConfig(beta)) == 0.0

    def test_pure_translation_offset(self):
        q = UnitQuaternion(1.0, 0.0, 0.0, 0.0)
        target = self._pose(0.0, 0.0, 0.0, q)
        predicted = [1.0, 0.0, 0.0, *q.as_array()]
        assert pose_loss(predicted, target, LossConfig(500.0)) == pytest.approx(1.0, abs=1e-15)

    def test_quaternion_euclidean_distance(self):
        target = self._pose(0.5, -2.0, 1.0, UnitQuaternion(1.0, 0.0, 0.0, 0.0))
        predicted = [0.5, -2.0, 1.0, 0.0, 1.0, 0.0, 0.0]
        # distance between orthogonal unit 4-vectors is sqrt(2), doubled by beta
        assert pose_loss(predicted, target, LossConfig(2.0)) == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)

    def test_nonnegative_and_zero_implies_exact(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            q = _random_unit_quaternion(rng)
            target = self._pose(*rng.uniform(-5, 5, size=3), q)
            predicted = np.concatenate([rng.uniform(-5, 5, size=3), rng.normal(size=4)])
            loss = pose_loss(predicted, target, LossConfig(1.0))
            assert loss >= 0.0
            if loss == 0.0:
                assert translation_error(Vec3.from_array(predicted[:3]), target.position) == 0.0
                assert rotation_error_deg(normalize(predicted[3:]), target.orientation) == 0.0

    def test_raw_prediction_is_not_normalized(self):
        # scaling the predicted quaternion changes the loss, because the
        # regression head's raw output enters the orientation term directly
        q = UnitQuaternion(1.0, 0.0, 0.0, 0.0)
        target = self._pose(0.0, 0.0, 0.0, q)
        small = pose_loss([0, 0, 0, 1.0, 0, 0, 0], target, LossConfig(1.0))
        big = pose_loss([0, 0, 0, 2.0, 0, 0, 0], target, LossConfig(1.0))
        assert small == 0.0
        assert big == pytest.approx(1.0)

    def test_beta_linearity(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            q = _random_unit_quaternion(rng)
            target = self._pose(*rng.uniform(-5, 5, size=3), q)
            predicted = np.concatenate([rng.uniform(-5, 5, size=3), rng.normal(size=4)])
            l1 = pose_loss(predicted, target, LossConfig(1.0))
            l2 = pose_loss(predicted, target, LossConfig(2.0))
            t_err = np.linalg.norm(predicted[:3] - target.position.as_array())
            # doubling beta doubles exactly the orientation share
            assert l2 - l1 == pytest.approx(l1 - t_err, rel=1e-12, abs=1e-12)

    def test_degenerate_prediction(self):
        target = self._pose(0.0, 0.0, 0.0, UnitQuaternion(1.0, 0.0, 0.0, 0.0))
        with pytest.raises(DegenerateQuaternion):
            pose_loss([0, 0, 0, 0, 0, 0, 0], target, LossConfig(1.0))

    def test_shape_check(self):
        target = self._pose(0.0, 0.0, 0.0, UnitQuaternion(1.0, 0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            pose_loss([0, 0, 0, 1, 0, 0], target, LossConfig(1.0))


class TestTranslationError:
    def test_triangle(self):
        assert translation_error(Vec3(0, 0, 0), Vec3(3, 4, 0)) == 5.0

    def test_coincident(self):
        v = Vec3(1.5, -2.5, 0.25)
        assert translation_error(v, v) == 0.0

    def test_unit_diagonal(self):
        assert translation_error(Vec3(1, 1, 1), Vec3(2, 2, 2)) == pytest.approx(math.sqrt(3.0), rel=1e-15)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a = Vec3.from_array(rng.uniform(-100, 100, size=3))
            b = Vec3.from_array(rng.uniform(-100, 100, size=3))
            assert translation_error(a, b) == translation_error(b, a)


class TestRotationError:
    def test_identical(self):
        # exactly representable components give exact zero; renormalized
        # random ones can have a self-dot one ulp under 1
        for q in (
            UnitQuaternion(1.0, 0.0, 0.0, 0.0),
            UnitQuaternion(0.0, 1.0, 0.0, 0.0),
            UnitQuaternion(0.5, 0.5, 0.5, 0.5),
        ):
            assert rotation_error_deg(q, q) == 0.0
        rng = np.random.default_rng(2)
        for _ in range(50):
            q = _random_unit_quaternion(rng)
            assert rotation_error_deg(q, q) <= 1e-5

    def test_sign_flip_is_zero(self):
        assert rotation_error_deg(
            UnitQuaternion(0.5, 0.5, 0.5, 0.5),
            UnitQuaternion(-0.5, -0.5, -0.5, -0.5),
        ) == 0.0
        rng = np.random.default_rng(4)
        for _ in range(50):
            q = _random_unit_quaternion(rng)
            assert rotation_error_deg(q, q.negated()) <= 1e-5

    def test_half_angle_doubling(self):
        a = UnitQuaternion(1.0, 0.0, 0.0, 0.0)
        b = UnitQuaternion(COS45, 0.0, 0.0, SIN45)
        assert rotation_error_deg(a, b) == pytest.approx(90.0, abs=1e-12)

    def test_symmetry_and_sign_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            a = _random_unit_quaternion(rng)
            b = _random_unit_quaternion(rng)
            e = rotation_error_deg(a, b)
            assert 0.0 <= e <= 180.0
            assert rotation_error_deg(b, a) == e
            assert rotation_error_deg(a.negated(), b) == e
            assert rotation_error_deg(a, b.negated()) == e

    def test_clamp_survives_round_off(self):
        # dots that land a hair above 1 must not escape the arccos domain
        q = normalize((0.6, 0.48, 0.48, 0.4136))
        assert rotation_error_deg(q, q) == 0.0


class TestQuaternionMean:
    def test_constant_set(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            q = _random_unit_quaternion(rng)
            m = quaternion_mean(_rows([q, q, q]))
            np.testing.assert_allclose(m.as_array(), q.as_array(), atol=1e-15)

    def test_sign_pair_collapses(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            q = _random_unit_quaternion(rng)
            m = quaternion_mean(_rows([q, q.negated()]))
            np.testing.assert_allclose(m.as_array(), q.as_array(), atol=1e-15)

    def test_two_rotation_blend(self):
        # mean of the identity and a 90 degree z-rotation is the 45 degree
        # z-rotation; value cross-checked by the grid-search oracle below
        m = quaternion_mean(_rows([_zrot(0.0), _zrot(90.0)]))
        np.testing.assert_allclose(
            m.as_array(),
            [0.9238795325112867, 0.0, 0.0, 0.3826834323650898],
            atol=1e-12,
        )
        samples = [_zrot(0.0), _zrot(90.0)]
        angles = np.arange(0.0, 360.0, 0.01)
        costs = [_chordal_cost(_zrot(a), samples) for a in angles]
        best = angles[int(np.argmin(costs))]
        assert abs(best - 45.0) < 0.02

    def test_unit_norm_output(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            qs = [_random_unit_quaternion(rng) for _ in range(rng.integers(1, 8))]
            try:
                m = quaternion_mean(_rows(qs))
            except DegenerateMean:
                continue
            assert abs(np.linalg.norm(m.as_array()) - 1.0) <= 1e-12

    def test_sign_stability(self):
        # flipping the stored sign of any sample must not move the mean,
        # up to the output's own sign
        rng = np.random.default_rng(12)
        for _ in range(50):
            base = _random_unit_quaternion(rng)
            qs = []
            for _ in range(6):
                tweak = rng.normal(scale=0.05, size=4)
                qs.append(normalize(base.as_array() + tweak))
            m0 = quaternion_mean(_rows(qs)).as_array()
            flip_at = int(rng.integers(0, len(qs)))
            flipped = list(qs)
            flipped[flip_at] = flipped[flip_at].negated()
            m1 = quaternion_mean(_rows(flipped)).as_array()
            err = min(np.abs(m0 - m1).max(), np.abs(m0 + m1).max())
            assert err <= 1e-12

    def test_tight_cluster_matches_grid_search(self):
        # for clusters inside a 10 degree cone the componentwise mean has to
        # land within half a degree of the brute-force chordal minimizer
        rng = np.random.default_rng(13)
        for _ in range(10):
            base = _random_unit_quaternion(rng)
            samples = []
            for _ in range(15):
                axis = rng.normal(size=3)
                axis /= np.linalg.norm(axis)
                half = math.radians(rng.uniform(0.0, 10.0)) / 2.0
                perturb = np.array([math.cos(half), *(math.sin(half) * axis)])
                samples.append(UnitQuaternion.from_array(_qmul(perturb, base.as_array())))
            mean = quaternion_mean(_rows(samples))
            # local 3-axis grid of rotation offsets around the reported mean
            steps = np.radians(np.arange(-1.0, 1.0001, 0.125))
            best_cost = _chordal_cost(mean, samples)
            best_q = mean
            for dx in steps:
                for dy in steps:
                    for dz in steps:
                        v = np.array([dx, dy, dz])
                        ang = np.linalg.norm(v)
                        if ang == 0.0:
                            continue
                        axis = v / ang
                        perturb = np.array([math.cos(ang / 2), *(math.sin(ang / 2) * axis)])
                        cand = UnitQuaternion.from_array(_qmul(perturb, mean.as_array()))
                        c = _chordal_cost(cand, samples)
                        if c < best_cost:
                            best_cost = c
                            best_q = cand
            assert rotation_error_deg(mean, best_q) < 0.5

    def test_empty_set(self):
        with pytest.raises(ValueError):
            quaternion_mean([])
        with pytest.raises(ValueError):
            quaternion_mean(np.zeros((0, 4)))

    def test_rows_must_be_quaternions(self):
        for bad in (np.ones(4), np.ones((3, 3)), np.ones((2, 4, 1))):
            with pytest.raises(ValueError):
                quaternion_mean(bad)

    def test_wide_scatter_never_degenerates(self):
        # after aligning to the first sample every term has a nonnegative
        # dot with it, so the mean keeps norm >= 1/N; the degeneracy guard
        # is purely defensive and wide scatters must still average cleanly
        rng = np.random.default_rng(14)
        for _ in range(100):
            qs = [_random_unit_quaternion(rng) for _ in range(int(rng.integers(2, 12)))]
            m = quaternion_mean(_rows(qs))
            assert abs(np.linalg.norm(m.as_array()) - 1.0) <= 1e-12
