"""Tests for Monte Carlo dropout sampling and scatter statistics."""

import numpy as np
import pytest

from bayesreloc.errors import DegenerateQuaternion, ParseError
from bayesreloc.geometry import UnitQuaternion, Vec3, normalize
from bayesreloc.mc_posterior import (
    DEFAULT_NUM_SAMPLES,
    MAX_NUM_SAMPLES,
    PoseSampleSet,
    estimate,
    estimate_determinant,
    localize,
    read_sample_dump,
    sample_posterior,
    write_sample_dump,
)
from bayesreloc.regressor import LayerSpec, build_network, draw_mask, forward

IDENTITY_ROW = np.array([1.0, 0.0, 0.0, 0.0])


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
    return PoseSampleSet(positions, quaternions, n, master_seed=0)


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
        assert sample_posterior(net, x, MAX_NUM_SAMPLES, 0).sample_count == MAX_NUM_SAMPLES

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
        est = estimate(PoseSampleSet(positions, quats, 2, 0))
        assert est.trans_mean == Vec3(1.0, 0.0, 0.0)
        assert est.trans_trace == 2.0
        assert est.rot_trace == 0.0

    def test_identical_samples_zero_traces(self):
        positions = np.tile([1.5, -2.0, 0.25], (6, 1))
        quats = np.tile(IDENTITY_ROW, (6, 1))
        est = estimate(PoseSampleSet(positions, quats, 6, 0))
        assert est.trans_trace == 0.0
        assert est.rot_trace == 0.0
        assert est.degenerate

    def test_single_sample_degenerate(self):
        s = PoseSampleSet(np.array([[1.0, 2.0, 3.0]]), IDENTITY_ROW[None, :], 1, 0)
        est = estimate(s)
        assert est.trans_trace == 0.0 and est.rot_trace == 0.0
        assert est.degenerate
        assert est.trans_mean == Vec3(1.0, 2.0, 3.0)

    def test_isotropic_gaussian_trace(self):
        rng = np.random.default_rng(515)
        n = 1000
        positions = rng.normal(scale=0.5, size=(n, 3))
        quats = np.tile(IDENTITY_ROW, (n, 1))
        est = estimate(PoseSampleSet(positions, quats, n, 0))
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
            scaled = PoseSampleSet(mean + c * (s.positions - mean), s.quaternions, 30, 0)
            assert estimate(scaled).trans_trace == pytest.approx(c * c * base, rel=1e-12)

    def test_translation_shifts_mean_not_trace(self):
        rng = np.random.default_rng(123)
        s = _cloud(rng, 25)
        base = estimate(s)
        t = np.array([10.0, -4.0, 2.5])
        moved = estimate(PoseSampleSet(s.positions + t, s.quaternions, 25, 0))
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
            flipped = estimate(PoseSampleSet(s.positions, quats, n, 0))
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
        s = PoseSampleSet(positions, quats, n, 0)
        trans_det, _ = estimate_determinant(s)
        per_axis = positions.var(axis=0, ddof=1)
        assert trans_det == pytest.approx(float(np.prod(per_axis)), rel=0.05)
        assert trans_det == pytest.approx(sigma**6, rel=0.15)

    def test_line_cloud_det_collapses_while_trace_survives(self):
        n = 20
        ts = np.linspace(-1.0, 1.0, n)
        positions = np.stack([ts, np.zeros(n), np.zeros(n)], axis=1)
        quats = np.tile(IDENTITY_ROW, (n, 1))
        s = PoseSampleSet(positions, quats, n, 0)
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
        flipped = estimate_determinant(PoseSampleSet(s.positions, quats, 16, 0))
        assert flipped == base

    def test_single_sample_rejected(self):
        s = PoseSampleSet(np.zeros((1, 3)), IDENTITY_ROW[None, :], 1, 0)
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


class TestSampleDump:
    def test_round_trip_is_exact(self, tmp_path):
        net = _net()
        s = sample_posterior(net, np.array([0.1, 0.2, 0.3, 0.4]), 9, master_seed=77)
        path = tmp_path / "dump.txt"
        write_sample_dump(path, s, "query-7")
        query_id, back = read_sample_dump(path)
        assert query_id == "query-7"
        assert back.sample_count == 9
        assert back.master_seed == 77
        assert np.array_equal(back.positions, s.positions)
        assert np.array_equal(back.quaternions, s.quaternions)

    def test_comments_and_blank_lines_tolerated(self, tmp_path):
        net = _net()
        s = sample_posterior(net, np.array([0.6, -0.3, 0.9, 0.2]), 3, master_seed=1)
        path = tmp_path / "dump.txt"
        write_sample_dump(path, s, "q")
        lines = path.read_text().splitlines()
        lines.insert(2, "")
        lines.insert(3, "# a stray comment")
        path.write_text("\n".join(lines) + "\n")
        _, back = read_sample_dump(path)
        assert np.array_equal(back.positions, s.positions)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(ParseError) as exc:
            read_sample_dump(path)
        assert exc.value.line == 1

    def test_wrong_header_tag(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# some-other-format query_id=q num_samples=1 master_seed=0\n0 0 0 0 1 0 0 0\n")
        with pytest.raises(ParseError) as exc:
            read_sample_dump(path)
        assert exc.value.line == 1

    def test_header_field_without_value(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# bayesreloc-samples-v1 query_id=q num_samples=1 master_seed=0 junk\n0 0 0 0 1 0 0 0\n")
        with pytest.raises(ParseError) as exc:
            read_sample_dump(path)
        assert exc.value.line == 1

    def test_bad_field_count_reports_line(self, tmp_path):
        net = _net()
        s = sample_posterior(net, np.array([0.6, -0.3, 0.9, 0.2]), 4, master_seed=1)
        path = tmp_path / "dump.txt"
        write_sample_dump(path, s, "q")
        lines = path.read_text().splitlines()
        lines[4] = "2 1.0 2.0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as exc:
            read_sample_dump(path)
        assert exc.value.line == 5

    def test_bad_float_reports_line(self, tmp_path):
        net = _net()
        s = sample_posterior(net, np.array([0.6, -0.3, 0.9, 0.2]), 4, master_seed=1)
        path = tmp_path / "dump.txt"
        write_sample_dump(path, s, "q")
        lines = path.read_text().splitlines()
        parts = lines[3].split()
        parts[1] = "not-a-number"
        lines[3] = " ".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as exc:
            read_sample_dump(path)
        assert exc.value.line == 4

    def test_index_out_of_range(self, tmp_path):
        net = _net()
        s = sample_posterior(net, np.array([0.6, -0.3, 0.9, 0.2]), 2, master_seed=1)
        path = tmp_path / "dump.txt"
        write_sample_dump(path, s, "q")
        lines = path.read_text().splitlines()
        lines[3] = "9" + lines[3][1:]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError):
            read_sample_dump(path)

    def test_missing_rows(self, tmp_path):
        net = _net()
        s = sample_posterior(net, np.array([0.6, -0.3, 0.9, 0.2]), 5, master_seed=1)
        path = tmp_path / "dump.txt"
        write_sample_dump(path, s, "q")
        lines = path.read_text().splitlines()
        del lines[4]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError):
            read_sample_dump(path)

    def test_duplicate_index_reports_line(self, tmp_path):
        # index 0 twice and index 1 missing: the row count still matches the
        # header, so only tracking distinct indices catches it
        net = _net()
        s = sample_posterior(net, np.array([0.6, -0.3, 0.9, 0.2]), 3, master_seed=1)
        path = tmp_path / "dump.txt"
        write_sample_dump(path, s, "q")
        lines = path.read_text().splitlines()
        row_zero = next(i for i, line in enumerate(lines) if line.startswith("0 "))
        row_one = next(i for i, line in enumerate(lines) if line.startswith("1 "))
        lines[row_one] = lines[row_zero]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as exc:
            read_sample_dump(path)
        assert exc.value.line == row_one + 1
        assert "twice" in str(exc.value)

    def test_query_id_rejects_whitespace(self, tmp_path):
        net = _net()
        s = sample_posterior(net, np.array([0.6, -0.3, 0.9, 0.2]), 2, master_seed=1)
        with pytest.raises(ValueError):
            write_sample_dump(tmp_path / "x.txt", s, "bad id")
