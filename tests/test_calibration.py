"""Tests for gamma fitting, percentile scoring, and calibration files."""

import json
import math

import numpy as np
import pytest

from bayesreloc.calibration import (
    MIN_POPULATION,
    CalibrationModel,
    GammaModel,
    ZScore,
    calibrate,
    detection_score,
    fit_gamma,
    gamma_cdf,
    ks_statistic,
    load_calibration,
    save_calibration,
    z_score,
)
from bayesreloc.errors import (
    InsufficientPopulation,
    InsufficientVariance,
    NonPositiveValue,
    ParseError,
)
from bayesreloc.geometry import Vec3
from bayesreloc.mc_posterior import UncertaintyEstimate


def _estimate(trans_trace, rot_trace, position=(0.0, 0.0, 0.0)):
    return UncertaintyEstimate(
        trans_trace=trans_trace,
        rot_trace=rot_trace,
        trans_mean=Vec3(*position),
        rot_mean=np.array([1.0, 0.0, 0.0, 0.0]),
    )


class TestGammaModel:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            GammaModel(0.0, 1.0)
        with pytest.raises(ValueError):
            GammaModel(2.0, -1.0)
        with pytest.raises(ValueError):
            GammaModel(math.nan, 1.0)
        m = GammaModel(2.0, 1.5)
        assert m.mean() == 3.0


class TestFitGamma:
    def test_recovers_known_gamma(self):
        rng = np.random.default_rng(1234)
        draws = rng.gamma(shape=2.0, scale=1.5, size=100_000)
        fit = fit_gamma(draws)
        assert 1.96 <= fit.shape <= 2.04
        assert 1.47 <= fit.scale <= 1.53
        assert fit.iterations >= 1
        assert math.isfinite(fit.log_likelihood)

    def test_recovers_exponential(self):
        # exponential with mean 2 is gamma with shape 1, scale 2
        rng = np.random.default_rng(4321)
        draws = rng.exponential(scale=2.0, size=100_000)
        fit = fit_gamma(draws)
        assert 0.98 <= fit.shape <= 1.02
        assert fit.shape * fit.scale == pytest.approx(2.0, rel=0.02)

    def test_recovery_across_shapes(self):
        rng = np.random.default_rng(99)
        for k in (0.5, 1.0, 3.0, 8.0):
            for theta in (0.2, 1.0, 30.0):
                draws = rng.gamma(shape=k, scale=theta, size=50_000)
                fit = fit_gamma(draws)
                assert fit.shape == pytest.approx(k, rel=0.05)
                assert fit.scale == pytest.approx(theta, rel=0.05)

    def test_fit_maximizes_likelihood_locally(self):
        # nudging either parameter off the MLE must not raise the likelihood
        rng = np.random.default_rng(7)
        v = rng.gamma(shape=2.5, scale=0.8, size=5_000)
        fit = fit_gamma(v)

        def ll(k, theta):
            return float(
                (k - 1.0) * np.log(v).sum()
                - v.sum() / theta
                - v.size * (math.lgamma(k) + k * math.log(theta))
            )

        best = ll(fit.shape, fit.scale)
        for dk in (-1e-3, 1e-3):
            for dt in (-1e-3, 1e-3):
                assert ll(fit.shape * (1 + dk), fit.scale * (1 + dt)) <= best + 1e-9

    def test_population_floor(self):
        with pytest.raises(InsufficientPopulation):
            fit_gamma([1.0] * (MIN_POPULATION - 1))

    def test_rejects_non_positive(self):
        with pytest.raises(NonPositiveValue):
            fit_gamma([1.0, 2.0, 3.0, 0.0, 1.0, 2.0, 3.0, 1.5])
        with pytest.raises(NonPositiveValue):
            fit_gamma([1.0, 2.0, 3.0, -4.0, 1.0, 2.0, 3.0, 1.5])
        with pytest.raises(NonPositiveValue):
            fit_gamma([1.0, 2.0, 3.0, math.inf, 1.0, 2.0, 3.0, 1.5])

    def test_constant_population(self):
        with pytest.raises(InsufficientVariance):
            fit_gamma([2.5] * 20)

    def test_iterations_are_few(self):
        # Newton from the closed-form start should converge fast
        rng = np.random.default_rng(11)
        draws = rng.gamma(shape=4.0, scale=2.0, size=10_000)
        fit = fit_gamma(draws)
        assert fit.iterations <= 10


class TestGammaCdf:
    def test_exponential_closed_form(self):
        m = GammaModel(1.0, 2.0)
        assert gamma_cdf(m, 2.0) == pytest.approx(1.0 - math.exp(-1.0), abs=1e-10)

    def test_integer_shape_closed_form(self):
        m = GammaModel(2.0, 1.0)
        assert gamma_cdf(m, 2.0) == pytest.approx(1.0 - 3.0 * math.exp(-2.0), abs=1e-10)

    def test_zero_and_negative(self):
        m = GammaModel(3.0, 0.5)
        assert gamma_cdf(m, 0.0) == 0.0
        assert gamma_cdf(m, -1.0) == 0.0

    def test_monotone(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            m = GammaModel(float(10.0 ** rng.uniform(-0.5, 1.0)), float(10.0 ** rng.uniform(-1, 1)))
            xs = np.sort(rng.uniform(0.0, 10.0 * m.mean(), size=40))
            vals = [gamma_cdf(m, float(x)) for x in xs]
            assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_scale_invariance(self):
        # CDF depends on x only through x / scale
        m1 = GammaModel(2.5, 1.0)
        m2 = GammaModel(2.5, 7.0)
        for x in (0.3, 1.0, 2.0, 5.0):
            assert gamma_cdf(m1, x) == pytest.approx(gamma_cdf(m2, 7.0 * x), rel=1e-12)


class TestKsStatistic:
    def test_perfect_fit_is_small(self):
        rng = np.random.default_rng(41)
        draws = rng.gamma(shape=2.0, scale=3.0, size=10_000)
        fit = fit_gamma(draws)
        assert ks_statistic(fit, draws) < 0.02

    def test_fit_then_fresh_sample(self):
        rng = np.random.default_rng(42)
        population = rng.gamma(shape=3.0, scale=0.5, size=10_000)
        fit = fit_gamma(population)
        fresh = rng.gamma(shape=fit.shape, scale=fit.scale, size=10_000)
        refit = fit_gamma(fresh)
        assert ks_statistic(refit, population) < 0.02

    def test_bad_fit_is_large(self):
        rng = np.random.default_rng(43)
        draws = rng.gamma(shape=2.0, scale=3.0, size=2_000)
        wrong = GammaModel(20.0, 3.0)
        assert ks_statistic(wrong, draws) > 0.5

    def test_empty(self):
        with pytest.raises(ValueError):
            ks_statistic(GammaModel(1.0, 1.0), [])


class TestCalibrate:
    def test_two_channel_recovery(self):
        rng = np.random.default_rng(51)
        trans = rng.gamma(shape=2.0, scale=1.5, size=100_000)
        rot = rng.gamma(shape=1.0, scale=2.0, size=100_000)
        model = calibrate(np.column_stack([trans, rot]), "roundabout")
        assert 1.96 <= model.trans.shape <= 2.04
        assert 1.47 <= model.trans.scale <= 1.53
        assert 0.98 <= model.rot.shape <= 1.02
        assert model.source_scene == "roundabout"
        assert model.population_size == 100_000
        assert model.trans_ks < 0.02
        assert model.rot_ks < 0.02

    def test_population_floor(self):
        pairs = [(1.0 + i, 2.0 + i) for i in range(MIN_POPULATION - 1)]
        with pytest.raises(InsufficientPopulation):
            calibrate(pairs, "tiny")

    def test_zero_trace_rejected(self):
        pairs = [(1.0 + i, 2.0 + i) for i in range(MIN_POPULATION)]
        pairs[3] = (0.0, pairs[3][1])
        with pytest.raises(NonPositiveValue):
            calibrate(pairs, "degenerate")

    def test_shape_check(self):
        with pytest.raises(ValueError):
            calibrate(np.ones((10, 3)), "wide")


class TestZScore:
    def _model(self):
        rng = np.random.default_rng(61)
        trans = rng.gamma(shape=2.0, scale=10.0, size=50_000)
        rot = rng.gamma(shape=3.0, scale=0.01, size=50_000)
        return calibrate(np.column_stack([trans, rot]), "s")

    def test_zero_traces_score_zero(self):
        z = z_score(self._model(), _estimate(0.0, 0.0))
        assert z == ZScore(0.0, 0.0, 0.0)

    def test_median_round_trip(self):
        # traces at the fitted medians must score 0.5 on both channels;
        # find each median by bisecting the CDF
        model = self._model()
        medians = []
        for chan in (model.trans, model.rot):
            lo, hi = 0.0, 100.0 * chan.mean()
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if gamma_cdf(chan, mid) < 0.5:
                    lo = mid
                else:
                    hi = mid
            medians.append(0.5 * (lo + hi))
        z = z_score(model, _estimate(*medians))
        assert z.trans_pct == pytest.approx(0.5, abs=1e-9)
        assert z.rot_pct == pytest.approx(0.5, abs=1e-9)
        assert z.combined == pytest.approx(0.5, abs=1e-9)

    def test_huge_trace_saturates(self):
        model = self._model()
        z = z_score(model, _estimate(1e9, 1e9))
        assert z.trans_pct == pytest.approx(1.0, abs=1e-12)
        assert z.rot_pct == pytest.approx(1.0, abs=1e-12)
        assert z.combined == pytest.approx(1.0, abs=1e-12)

    def test_combined_is_mean_and_bounded(self):
        model = self._model()
        rng = np.random.default_rng(62)
        for _ in range(200):
            t = float(rng.uniform(0.0, 100.0))
            r = float(rng.uniform(0.0, 0.2))
            z = z_score(model, _estimate(t, r))
            assert z.combined == 0.5 * (z.trans_pct + z.rot_pct)
            assert 0.0 <= z.trans_pct <= 1.0
            assert 0.0 <= z.rot_pct <= 1.0
            assert 0.0 <= z.combined <= 1.0

    def test_scale_consistency(self):
        # scaling every trace by c and the query by c leaves percentiles
        # unchanged, because the gamma family is closed under scaling
        rng = np.random.default_rng(63)
        trans = rng.gamma(shape=2.0, scale=5.0, size=20_000)
        rot = rng.gamma(shape=1.5, scale=0.05, size=20_000)
        base = calibrate(np.column_stack([trans, rot]), "s")
        c = 37.0
        scaled = calibrate(np.column_stack([trans * c, rot * c]), "s")
        for t, r in [(3.0, 0.02), (11.0, 0.08), (40.0, 0.3)]:
            z0 = z_score(base, _estimate(t, r))
            z1 = z_score(scaled, _estimate(t * c, r * c))
            assert z1.trans_pct == pytest.approx(z0.trans_pct, abs=1e-6)
            assert z1.rot_pct == pytest.approx(z0.rot_pct, abs=1e-6)
            assert z1.combined == pytest.approx(z0.combined, abs=1e-6)


class TestDetectionScore:
    """Scores conditioned on the predicted position."""

    SLOPES = (0.04, 0.02)

    def _population(self, n=2000, seed=64):
        # Traces grow with x, as they do along an unevenly surveyed scene.
        rng = np.random.default_rng(seed)
        positions = rng.uniform([0.0, 0.0, 0.0], [100.0, 50.0, 5.0], size=(n, 3))
        trans = rng.gamma(shape=3.0, scale=1.0, size=n) * np.exp(self.SLOPES[0] * positions[:, 0])
        rot = rng.gamma(shape=2.0, scale=0.01, size=n) * np.exp(self.SLOPES[1] * positions[:, 0])
        return np.column_stack([trans, rot]), positions

    def test_without_positions_equals_z_score(self):
        traces, _ = self._population()
        model = calibrate(traces, "s")
        assert model.trans_trend == (0.0, 0.0, 0.0, 0.0)
        assert model.trans_residual == model.trans
        assert model.rot_residual == model.rot
        rng = np.random.default_rng(65)
        for _ in range(100):
            est = _estimate(
                float(rng.uniform(0.0, 200.0)),
                float(rng.uniform(0.0, 1.0)),
                tuple(rng.normal(size=3) * 50.0),
            )
            assert detection_score(model, est) == z_score(model, est)

    def test_recovers_trend(self):
        traces, positions = self._population()
        model = calibrate(traces, "s", positions)
        for trend, slope in ((model.trans_trend, self.SLOPES[0]), (model.rot_trend, self.SLOPES[1])):
            assert trend[1] == pytest.approx(slope, abs=0.003)
            assert trend[2] == pytest.approx(0.0, abs=0.005)
            assert trend[3] == pytest.approx(0.0, abs=0.05)
        # The residual gamma has the population's shape once the trend is out.
        assert model.trans_residual.shape == pytest.approx(3.0, rel=0.1)
        assert model.rot_residual.shape == pytest.approx(2.0, rel=0.1)

    def test_typical_trace_at_its_position_scores_half(self):
        traces, positions = self._population()
        model = calibrate(traces, "s", positions)
        x = 95.0
        # Gamma medians of the residual populations, scaled to x = 95.
        est = _estimate(
            2.6741 * math.exp(self.SLOPES[0] * x),
            1.6783 * 0.01 * math.exp(self.SLOPES[1] * x),
            (x, 25.0, 2.5),
        )
        conditioned = detection_score(model, est)
        scene_level = z_score(model, est)
        assert conditioned.trans_pct == pytest.approx(0.5, abs=0.05)
        assert conditioned.rot_pct == pytest.approx(0.5, abs=0.05)
        assert scene_level.trans_pct > 0.9
        assert scene_level.rot_pct > 0.8

    def test_bounded_and_zero_traces_score_zero(self):
        traces, positions = self._population()
        model = calibrate(traces, "s", positions)
        assert detection_score(model, _estimate(0.0, 0.0, (50.0, 5.0, 1.0))) == ZScore(0.0, 0.0, 0.0)
        rng = np.random.default_rng(66)
        for _ in range(200):
            est = _estimate(
                float(rng.uniform(0.0, 500.0)),
                float(rng.uniform(0.0, 1.0)),
                tuple(rng.uniform(-1e4, 1e4, size=3)),
            )
            z = detection_score(model, est)
            assert 0.0 <= z.trans_pct <= 1.0
            assert 0.0 <= z.rot_pct <= 1.0
            assert z.combined == 0.5 * (z.trans_pct + z.rot_pct)

    def test_accepts_vec3_positions(self):
        traces, positions = self._population(n=50)
        from_rows = calibrate(traces, "s", positions)
        from_vecs = calibrate(traces, "s", [Vec3(*p) for p in positions])
        assert from_vecs == from_rows

    def test_position_count_must_match(self):
        traces, positions = self._population(n=50)
        with pytest.raises(ValueError):
            calibrate(traces, "s", positions[:-1])
        with pytest.raises(ValueError):
            calibrate(traces, "s", positions[:, :2])


class TestCalibrationFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(71)
        model = calibrate(
            np.column_stack([
                rng.gamma(2.0, 1.5, size=500),
                rng.gamma(1.2, 0.01, size=500),
            ]),
            "shopfront",
        )
        path = tmp_path / "cal.json"
        save_calibration(path, model)
        again = load_calibration(path)
        assert again == model

    def test_round_trip_with_trend(self, tmp_path):
        rng = np.random.default_rng(73)
        positions = rng.uniform(0.0, 100.0, size=(300, 3))
        model = calibrate(
            np.column_stack([
                rng.gamma(2.0, 1.5, size=300) * np.exp(0.03 * positions[:, 0]),
                rng.gamma(1.2, 0.01, size=300),
            ]),
            "shopfront",
            positions,
        )
        assert model.trans_trend != (0.0, 0.0, 0.0, 0.0)
        path = tmp_path / "cal.json"
        save_calibration(path, model)
        assert json.loads(path.read_text())["format"] == "bayesreloc-cal-v2"
        again = load_calibration(path)
        assert again == model
        assert all(type(c) is float for c in again.trans_trend + again.rot_trend)

    def test_reads_v1_file_with_zero_trend(self, tmp_path):
        path = tmp_path / "cal.json"
        path.write_text(json.dumps({
            "format": "bayesreloc-cal-v1",
            "source_scene": "old",
            "population_size": 200,
            "trans": {"shape": 2.5, "scale": 3.0, "log_likelihood": -400.0, "iterations": 4},
            "rot": {"shape": 1.5, "scale": 0.02, "log_likelihood": 300.0, "iterations": 3},
            "trans_ks": 0.04,
            "rot_ks": 0.05,
        }))
        model = load_calibration(path)
        assert model.trans == GammaModel(2.5, 3.0, -400.0, 4)
        assert model.trans_trend == model.rot_trend == (0.0, 0.0, 0.0, 0.0)
        assert model.trans_residual == model.trans
        assert model.rot_residual == model.rot
        est = _estimate(7.0, 0.03, (40.0, 10.0, 1.0))
        assert detection_score(model, est) == z_score(model, est)

    def test_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "cal.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ParseError):
            load_calibration(path)

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "cal.json"
        path.write_text("not json {")
        with pytest.raises(ParseError):
            load_calibration(path)

    def test_rejects_non_object(self, tmp_path):
        path = tmp_path / "cal.json"
        path.write_text("[]\n")
        with pytest.raises(ParseError, match="format"):
            load_calibration(path)

    @pytest.mark.parametrize("field", ["trans", "source_scene", "rot_trend"])
    def test_rejects_missing_field(self, tmp_path, field):
        rng = np.random.default_rng(74)
        model = calibrate(rng.gamma(2.0, 1.5, size=(60, 2)), "shopfront")
        path = tmp_path / "cal.json"
        save_calibration(path, model)
        doc = json.loads(path.read_text())
        del doc[field]
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=field):
            load_calibration(path)

    def test_rejects_wrongly_typed_field(self, tmp_path):
        rng = np.random.default_rng(75)
        model = calibrate(rng.gamma(2.0, 1.5, size=(60, 2)), "shopfront")
        path = tmp_path / "cal.json"
        save_calibration(path, model)
        doc = json.loads(path.read_text())
        doc["rot"] = [1.0, 2.0]
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            load_calibration(path)

    def test_population_floor_enforced_on_load(self, tmp_path):
        rng = np.random.default_rng(72)
        model = calibrate(
            np.column_stack([
                rng.gamma(2.0, 1.5, size=500),
                rng.gamma(1.2, 0.01, size=500),
            ]),
            "shopfront",
        )
        path = tmp_path / "cal.json"
        save_calibration(path, model)
        text = path.read_text().replace('"population_size": 500', '"population_size": 3')
        path.write_text(text)
        with pytest.raises(ValueError):
            load_calibration(path)
