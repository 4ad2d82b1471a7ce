"""Tests for the evaluation harness: runners, statistics, report files."""

import dataclasses
import json

import numpy as np
import pytest
import scipy.stats

from bayesreloc import harness
from bayesreloc.calibration import MIN_POPULATION, calibrate
from bayesreloc.detector import SceneModel
from bayesreloc.errors import InsufficientPopulation, InsufficientVariance, ParseError, ShapeMismatch
from bayesreloc.geometry import (
    Pose,
    UnitQuaternion,
    Vec3,
    normalize,
    rotation_error_deg,
    translation_error,
)
from bayesreloc.harness import (
    QueryRecord,
    read_query_table,
    run_calibration,
    run_eval,
    run_histogram,
    run_sweep,
    run_timing,
    write_histogram,
    write_query_table,
    write_summary,
    write_sweep,
)
from bayesreloc.mc_posterior import MAX_NUM_SAMPLES, localize
from bayesreloc.regressor import forward, pose_network
from bayesreloc.scenes import SceneSpec, generate_scene, nearest_neighbour_pose
from bayesreloc.seeding import derive_seed
from bayesreloc.stats import median_low, pearson, rankdata, spearman


@pytest.fixture(scope="module")
def dataset():
    spec = SceneSpec(
        scene_id="bench",
        extent=((0.0, 10.0), (0.0, 5.0), (0.0, 2.0)),
        feature_dim=8,
        nuisance_dim=2,
        noise_sigma=0.02,
        generator_seed=42,
    )
    return generate_scene(spec, 30, 10, 12)


@pytest.fixture(scope="module")
def model(dataset):
    # An untrained network is fine here; the harness never looks at accuracy.
    net = pose_network(8, (16, 16), 0.5, seed=3)
    net.layers[-1].bias[3] = 1.0
    return SceneModel(dataset.spec.scene_id, net, run_calibration(net, dataset, 8, 77))


@pytest.fixture(scope="module")
def report(model, dataset):
    return run_eval(model, dataset, num_samples=6, seed=11)


def _record(qid, terr, rerr):
    pose = Pose(Vec3(0.0, 0.0, 0.0), UnitQuaternion.from_array([1.0, 0.0, 0.0, 0.0]))
    return QueryRecord(
        query_id=qid,
        true_pose=pose,
        est_pose=pose,
        trans_error=terr,
        rot_error_deg=rerr,
        trans_trace=0.1,
        rot_trace=0.2,
        z_trans=0.5,
        z_rot=0.5,
        z_combined=0.5,
        nn_feature_distance=1.0,
    )


class TestStats:
    def test_median_low_odd_matches_numpy(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            v = rng.normal(size=int(rng.integers(1, 30)) * 2 + 1)
            assert median_low(v.tolist()) == float(np.median(v))

    def test_median_low_even_is_lower_middle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            v = rng.normal(size=int(rng.integers(1, 30)) * 2)
            s = np.sort(v)
            assert median_low(v.tolist()) == s[len(s) // 2 - 1]

    def test_median_low_is_a_realized_value(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            v = rng.normal(size=int(rng.integers(1, 40)))
            assert median_low(v.tolist()) in v

    def test_median_low_empty_raises(self):
        with pytest.raises(ValueError):
            median_low([])

    def test_rankdata_matches_scipy_with_ties(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            n = int(rng.integers(2, 60))
            v = rng.integers(0, 5, size=n).astype(float)
            got = rankdata(v)
            want = scipy.stats.rankdata(v, method="average")
            assert np.array_equal(got, want), (v, got, want)

    def test_pearson_matches_scipy(self):
        rng = np.random.default_rng(14)
        for _ in range(25):
            n = int(rng.integers(3, 60))
            x = rng.normal(size=n)
            y = 0.4 * x + rng.normal(size=n)
            want = scipy.stats.pearsonr(x, y)[0]
            assert abs(pearson(x, y) - want) < 1e-12

    def test_spearman_matches_scipy(self):
        rng = np.random.default_rng(15)
        for _ in range(25):
            n = int(rng.integers(3, 60))
            x = rng.normal(size=n)
            y = x ** 3 + rng.normal(size=n)
            want = scipy.stats.spearmanr(x, y).statistic
            assert abs(spearman(x, y) - want) < 1e-12

    def test_spearman_matches_scipy_with_heavy_ties(self):
        rng = np.random.default_rng(16)
        for _ in range(25):
            n = int(rng.integers(4, 60))
            x = rng.integers(0, 3, size=n).astype(float)
            y = rng.integers(0, 3, size=n).astype(float)
            got = spearman(x, y)
            want = scipy.stats.spearmanr(x, y).statistic
            if got is None:
                # Constant draws happen with only three levels; scipy
                # reports nan for those.
                assert np.isnan(want)
            else:
                assert abs(got - want) < 1e-12

    def test_constant_inputs_give_none(self):
        assert pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) is None
        assert pearson([1.0, 2.0, 3.0], [5.0, 5.0, 5.0]) is None
        assert spearman([2.0, 2.0], [0.0, 1.0]) is None

    def test_short_inputs_give_none(self):
        assert pearson([1.0], [2.0]) is None
        assert spearman([], []) is None

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError):
            pearson([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            spearman([1.0, 2.0, 3.0], [1.0, 2.0])


class TestRunEval:
    def test_summary_medians_match_records(self, report):
        terr = [r.trans_error for r in report.records]
        rerr = [r.rot_error_deg for r in report.records]
        assert report.summary.median_trans_error == median_low(terr)
        assert report.summary.median_rot_error_deg == median_low(rerr)

    def test_correlations_recompute_from_records(self, report):
        terr = [r.trans_error for r in report.records]
        tt = [r.trans_trace for r in report.records]
        rt = [r.rot_trace for r in report.records]
        c = report.summary.correlations
        assert c["spearman_trans_trace_vs_trans_error"] == spearman(tt, terr)
        assert c["spearman_trans_trace_vs_rot_trace"] == spearman(tt, rt)
        assert c["pearson_trans_trace_vs_trans_error"] == pearson(tt, terr)

    def test_records_match_localize(self, report, model, dataset):
        # the report fixture is run_eval(model, dataset, num_samples=6, seed=11)
        for qi, (rec, ex) in enumerate(zip(report.records, dataset.test)):
            pose, est = localize(model.network, ex.features, 6, derive_seed(11, qi))
            assert (rec.est_pose, rec.trans_trace, rec.rot_trace) == (pose, est.trans_trace, est.rot_trace)

    def test_repeat_run_identical(self, model, dataset):
        a = run_eval(model, dataset, num_samples=4, seed=9)
        b = run_eval(model, dataset, num_samples=4, seed=9)
        for ra, rb in zip(a.records, b.records):
            assert ra == rb

    def test_seed_changes_traces(self, model, dataset):
        a = run_eval(model, dataset, num_samples=4, seed=1)
        b = run_eval(model, dataset, num_samples=4, seed=2)
        assert any(
            ra.trans_trace != rb.trans_trace for ra, rb in zip(a.records, b.records)
        )

    def test_counts_and_settings_recorded(self, report, dataset):
        assert report.summary.query_count == len(dataset.test)
        assert len(report.records) == len(dataset.test)
        assert report.summary.num_samples == 6
        assert report.summary.seed == 11

    def test_mismatched_feature_width_raises(self, model, dataset):
        wide = dataclasses.replace(dataset.spec, feature_dim=9)
        bad = dataclasses.replace(dataset, spec=wide)
        with pytest.raises(ShapeMismatch):
            run_eval(model, bad, num_samples=4, seed=0)
        with pytest.raises(ShapeMismatch, match="feature_dim 9 does not match"):
            run_calibration(model.network, bad, 8, 77)

    def test_empty_test_split_raises(self, model, dataset):
        bad = dataclasses.replace(dataset, test=[])
        with pytest.raises(ValueError):
            run_eval(model, bad, num_samples=4, seed=0)

    def test_nn_distance_zero_for_training_feature_copy(self, model, dataset):
        probe = dataclasses.replace(dataset.test[0], features=dataset.train[3].features.copy())
        ds = dataclasses.replace(dataset, test=[probe])
        rec = run_eval(model, ds, num_samples=4, seed=0).records[0]
        assert rec.nn_feature_distance == 0.0

    def test_nn_distance_matches_one_query_search(self, report, dataset):
        train_emb = np.stack([ex.features for ex in dataset.train])
        for rec, ex in zip(report.records, dataset.test, strict=True):
            _, dist = nearest_neighbour_pose(dataset.train, ex.features, train_emb)
            assert rec.nn_feature_distance == dist


class TestRunCalibration:
    def test_matches_inline_loop(self, model, dataset):
        # the model fixture was calibrated by run_calibration(net, dataset, 8, 77)
        traces, positions = [], []
        for qi, ex in enumerate(dataset.calib):
            _, est = localize(model.network, ex.features, 8, derive_seed(77, qi))
            traces.append((est.trans_trace, est.rot_trace))
            positions.append(est.trans_mean)
        assert model.calibration == calibrate(traces, dataset.spec.scene_id, positions)

    @pytest.mark.parametrize("dropout, samples", [(0.0, 8), (0.5, 1)])
    def test_query_without_scatter_raises(self, dataset, dropout, samples):
        # No dropout, or a single pass, leaves every trace at zero.
        net = pose_network(8, (16, 16), dropout, seed=3)
        net.layers[-1].bias[3] = 1.0
        with pytest.raises(InsufficientVariance, match=f"bench-calib-00000 .* over {samples} samples"):
            run_calibration(net, dataset, samples, 77)

    def test_small_calib_split_raises(self, model, dataset):
        small = dataclasses.replace(dataset, calib=dataset.calib[: MIN_POPULATION - 1])
        with pytest.raises(InsufficientPopulation):
            run_calibration(model.network, small, 8, 77)


class TestRunSweep:
    def test_count_above_maximum_rejected_before_any_pass(self, model, dataset, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "localize", lambda *args: calls.append(args))
        monkeypatch.setattr(harness, "localize_batch", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="sample counts"):
            run_sweep(model, dataset, [1, MAX_NUM_SAMPLES + 1], repetitions=1, seed=6)
        assert calls == []

    def test_empty_test_split_rejected_before_any_pass(self, model, dataset, monkeypatch):
        calls = []
        for name in ("localize", "localize_batch", "_maskless_pose"):
            monkeypatch.setattr(harness, name, lambda *args: calls.append(args))
        bad = dataclasses.replace(dataset, test=[])
        with pytest.raises(ValueError, match="^dataset needs a non-empty test split$"):
            run_sweep(model, bad, [1, 4], repetitions=1, seed=6)
        assert calls == []

    def test_medians_match_localize_loop(self, model, dataset):
        sweep = run_sweep(model, dataset, [3, 40], repetitions=2, seed=6)
        for row in sweep.rows[1:]:
            medians = []
            for rep in range(2):
                seed = derive_seed(6, row.num_samples, rep)
                trans_err, rot_err = [], []
                for qi, ex in enumerate(dataset.test):
                    pose, _ = localize(model.network, ex.features, row.num_samples, derive_seed(seed, qi))
                    trans_err.append(translation_error(pose.position, ex.pose.position))
                    rot_err.append(rotation_error_deg(pose.orientation, ex.pose.orientation))
                medians.append((median_low(trans_err), median_low(rot_err)))
            trans, rot = np.array(medians).T
            assert (row.mean_median_trans, row.std_median_trans) == (trans.mean(), trans.std())
            assert (row.mean_median_rot, row.std_median_rot) == (rot.mean(), rot.std())

    def test_maskless_row_always_included(self, model, dataset):
        sweep = run_sweep(model, dataset, [1, 4], repetitions=2, seed=6)
        counts = [r.num_samples for r in sweep.rows]
        assert counts == [0, 1, 4]
        assert sweep.rows[0].repetitions == 1
        assert sweep.rows[0].std_median_trans == 0.0
        assert sweep.rows[0].std_median_rot == 0.0

    def test_counts_sorted_and_deduplicated(self, model, dataset):
        sweep = run_sweep(model, dataset, [4, 1, 4, 2], repetitions=1, seed=6)
        assert [r.num_samples for r in sweep.rows] == [0, 1, 2, 4]

    def test_single_repetition_has_zero_std(self, model, dataset):
        sweep = run_sweep(model, dataset, [3], repetitions=1, seed=6)
        for row in sweep.rows:
            assert row.std_median_trans == 0.0
            assert row.std_median_rot == 0.0

    def test_maskless_row_matches_direct_forward(self, model, dataset):
        sweep = run_sweep(model, dataset, [1], repetitions=1, seed=6)
        terr = []
        rerr = []
        for ex in dataset.test:
            out = forward(model.network, ex.features, None)
            pose = Pose(Vec3.from_array(out[:3]), normalize(out[3:]))
            terr.append(translation_error(pose.position, ex.pose.position))
            rerr.append(rotation_error_deg(pose.orientation, ex.pose.orientation))
        assert sweep.rows[0].mean_median_trans == median_low(terr)
        assert sweep.rows[0].mean_median_rot == median_low(rerr)

    def test_accepts_model_or_bare_network(self, model, dataset):
        a = run_sweep(model, dataset, [2], repetitions=2, seed=4)
        b = run_sweep(model.network, dataset, [2], repetitions=2, seed=4)
        assert a.rows == b.rows

    def test_repeat_is_identical(self, model, dataset):
        a = run_sweep(model, dataset, [1, 3], repetitions=2, seed=8)
        b = run_sweep(model, dataset, [1, 3], repetitions=2, seed=8)
        assert a == b

    def test_rejects_bad_arguments(self, model, dataset):
        with pytest.raises(ValueError):
            run_sweep(model, dataset, [1], repetitions=0)
        with pytest.raises(ValueError):
            run_sweep(model, dataset, [-1], repetitions=1)


class TestRunHistogram:
    def test_known_small_case(self):
        records = [_record("q0", 0.1, 4.0), _record("q1", 0.5, 1.0), _record("q2", 2.0, 0.2)]
        hist = run_histogram(records, [0.5, 1.0, 2.0])
        assert hist.query_count == 3
        assert [r.frac_trans for r in hist.rows] == [2 / 3, 2 / 3, 1.0]
        assert [r.frac_rot for r in hist.rows] == [1 / 3, 2 / 3, 2 / 3]

    def test_fractions_nondecreasing(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            n = int(rng.integers(1, 40))
            records = [
                _record(f"q{i}", float(rng.gamma(2.0)), float(rng.gamma(2.0) * 5))
                for i in range(n)
            ]
            thresholds = np.sort(rng.uniform(0.0, 20.0, size=5)).tolist()
            hist = run_histogram(records, thresholds)
            ft = [r.frac_trans for r in hist.rows]
            fr = [r.frac_rot for r in hist.rows]
            assert all(b >= a for a, b in zip(ft, ft[1:]))
            assert all(b >= a for a, b in zip(fr, fr[1:]))
            assert all(0.0 <= v <= 1.0 for v in ft + fr)

    def test_reaches_one_past_max_error(self):
        records = [_record(f"q{i}", 0.5 * i, 2.0 * i) for i in range(5)]
        hist = run_histogram(records, [2.0, 8.0])
        assert hist.rows[-1].frac_trans == 1.0
        assert hist.rows[-1].frac_rot == 1.0

    def test_accepts_report_or_records(self, report):
        a = run_histogram(report, [0.5, 1.0, 5.0])
        b = run_histogram(report.records, [0.5, 1.0, 5.0])
        assert a == b

    def test_rejects_bad_inputs(self, report):
        with pytest.raises(ValueError):
            run_histogram(report, [])
        with pytest.raises(ValueError):
            run_histogram(report, [2.0, 1.0])
        with pytest.raises(ValueError):
            run_histogram([], [1.0])

    @pytest.mark.parametrize("thresholds", [[float("nan")], [float("nan"), 1.0], [1.0, float("nan")]])
    def test_rejects_nan_thresholds(self, report, thresholds):
        with pytest.raises(ValueError, match="numbers"):
            run_histogram(report, thresholds)


class TestRunTiming:
    def test_cycles_split_to_min_queries(self, model, dataset):
        rep = run_timing(model, dataset, num_samples=2, seed=0, min_queries=30)
        assert rep.query_count == 30
        assert rep.num_samples == 2
        assert rep.mean_s > 0.0

    def test_percentiles_ordered(self, model, dataset):
        rep = run_timing(model, dataset, num_samples=3, seed=0, min_queries=25)
        assert rep.p50_s <= rep.p99_s

    def test_more_samples_take_longer(self, model, dataset):
        fast = run_timing(model, dataset, num_samples=8, seed=0, min_queries=30)
        slow = run_timing(model, dataset, num_samples=64, seed=0, min_queries=30)
        assert slow.mean_s > fast.mean_s

    def test_empty_test_split_raises(self, model, dataset):
        bad = dataclasses.replace(dataset, test=[])
        with pytest.raises(ValueError):
            run_timing(model, bad, num_samples=2, seed=0)

    def test_min_queries_below_one_raises(self, model, dataset):
        with pytest.raises(ValueError, match="min_queries"):
            run_timing(model, dataset, num_samples=2, seed=0, min_queries=0)


class TestQueryTableFiles:
    def test_round_trip_is_exact(self, report, tmp_path):
        path = tmp_path / "q.tsv"
        write_query_table(path, report)
        back = read_query_table(path)
        assert len(back) == len(report.records)
        for orig, rec in zip(report.records, back):
            assert rec.query_id == orig.query_id
            assert rec.trans_error == orig.trans_error
            assert rec.rot_error_deg == orig.rot_error_deg
            assert rec.trans_trace == orig.trans_trace
            assert rec.rot_trace == orig.rot_trace
            assert rec.z_combined == orig.z_combined
            assert rec.nn_feature_distance == orig.nn_feature_distance
            assert rec.est_pose.position.x == orig.est_pose.position.x
            assert rec.true_pose.orientation.w == orig.true_pose.orientation.w

    def test_rewrite_is_byte_identical(self, report, tmp_path):
        a = tmp_path / "a.tsv"
        b = tmp_path / "b.tsv"
        write_query_table(a, report)
        write_query_table(b, report)
        assert a.read_bytes() == b.read_bytes()

    def test_fresh_run_same_seed_is_byte_identical(self, model, dataset, tmp_path):
        a = tmp_path / "a.tsv"
        b = tmp_path / "b.tsv"
        write_query_table(a, run_eval(model, dataset, num_samples=5, seed=21))
        write_query_table(b, run_eval(model, dataset, num_samples=5, seed=21))
        assert a.read_bytes() == b.read_bytes()

    def test_wrong_header_tag_reports_line_one(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("# some-other-format\n")
        with pytest.raises(ParseError) as e:
            read_query_table(path)
        assert e.value.line == 1

    def test_missing_column_header_reports_line_two(self, report, tmp_path):
        path = tmp_path / "q.tsv"
        write_query_table(path, report)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text(lines[0] + "not\tthe\theader\n" + "".join(lines[2:]))
        with pytest.raises(ParseError) as e:
            read_query_table(path)
        assert e.value.line == 2

    def test_reordered_column_header_reports_line_two(self, report, tmp_path):
        # the rows are read by position, so a header naming other columns is refused
        path = tmp_path / "q.tsv"
        write_query_table(path, report)
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = lines[1].replace("trans_error_m\trot_error_deg", "rot_error_deg\ttrans_error_m")
        path.write_text("".join(lines))
        with pytest.raises(ParseError) as e:
            read_query_table(path)
        assert e.value.line == 2

    def test_wrong_column_count_reports_line(self, report, tmp_path):
        path = tmp_path / "q.tsv"
        write_query_table(path, report)
        lines = path.read_text().splitlines(keepends=True)
        lines[4] = "q\t1.0\t2.0\n"
        path.write_text("".join(lines))
        with pytest.raises(ParseError) as e:
            read_query_table(path)
        assert e.value.line == 5

    def test_bad_float_reports_line(self, report, tmp_path):
        path = tmp_path / "q.tsv"
        write_query_table(path, report)
        lines = path.read_text().splitlines(keepends=True)
        parts = lines[3].split("\t")
        parts[5] = "not-a-number"
        lines[3] = "\t".join(parts)
        path.write_text("".join(lines))
        with pytest.raises(ParseError) as e:
            read_query_table(path)
        assert e.value.line == 4

    @pytest.mark.parametrize(
        "column, value, message",
        [(1, "nan", "non-finite value"), (4, "2.0", "quaternion norm")],
        ids=["nan_position", "non_unit_quaternion"],
    )
    def test_bad_pose_reports_line(self, report, tmp_path, column, value, message):
        # Row 2 of the table is line 4 of the file.
        path = tmp_path / "q.tsv"
        write_query_table(path, report)
        lines = path.read_text().splitlines(keepends=True)
        parts = lines[3].split("\t")
        parts[column] = value
        lines[3] = "\t".join(parts)
        path.write_text("".join(lines))
        with pytest.raises(ParseError, match=message) as e:
            read_query_table(path)
        assert e.value.line == 4

    @pytest.mark.parametrize(
        "column, value, message",
        [
            ("trans_error_m", "nan", "non-finite"),
            ("rot_error_deg", "-5.0", "negative"),
            ("trans_trace", "inf", "non-finite"),
            ("rot_trace", "-0.1", "negative"),
            ("nn_feature_distance", "-1.0", "negative"),
            ("z_trans", "7.0", "percentile"),
            ("z_combined", "-0.5", "percentile"),
        ],
        ids=["nan_error", "negative_error", "inf_trace", "negative_trace",
             "negative_distance", "percentile_above_one", "percentile_below_zero"],
    )
    def test_garbage_value_reports_line(self, report, tmp_path, column, value, message):
        # Each value is well-formed text but no eval could have written it.
        path = tmp_path / "q.tsv"
        write_query_table(path, report)
        lines = path.read_text().splitlines(keepends=True)
        parts = lines[3].rstrip("\n").split("\t")
        parts[lines[1].rstrip("\n").split("\t").index(column)] = value
        lines[3] = "\t".join(parts) + "\n"
        path.write_text("".join(lines))
        with pytest.raises(ParseError, match=message) as e:
            read_query_table(path)
        assert e.value.line == 4

    def test_blank_lines_are_skipped(self, report, tmp_path):
        path = tmp_path / "q.tsv"
        write_query_table(path, report)
        lines = path.read_text().splitlines(keepends=True)
        lines.insert(3, "\n")
        path.write_text("".join(lines) + "\n")
        assert len(read_query_table(path)) == len(report.records)


class TestReportFiles:
    def test_summary_json_fields(self, report, tmp_path):
        path = tmp_path / "s.json"
        write_summary(path, report)
        doc = json.loads(path.read_text())
        assert doc["format"] == "bayesreloc-report-v2"
        assert doc["median_trans_error_m"] == report.summary.median_trans_error
        assert doc["median_rot_error_deg"] == report.summary.median_rot_error_deg
        assert doc["median_convention"] == "lower"
        assert doc["query_count"] == report.summary.query_count
        assert set(doc["correlations"]) == set(report.summary.correlations)

    def test_sweep_file_floats_round_trip(self, model, dataset, tmp_path):
        sweep = run_sweep(model, dataset, [1, 3], repetitions=2, seed=5)
        path = tmp_path / "sweep.tsv"
        write_sweep(path, sweep)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# bayesreloc-sweep-v1 seed=5")
        body = lines[3:]
        assert len(body) == len(sweep.rows)
        for text, row in zip(body, sweep.rows):
            parts = text.split("\t")
            assert int(parts[0]) == row.num_samples
            assert float(parts[1]) == row.mean_median_trans
            assert float(parts[3]) == row.mean_median_rot
            assert int(parts[5]) == row.repetitions

    def test_histogram_file_format(self, report, tmp_path):
        hist = run_histogram(report, [0.5, 2.0])
        path = tmp_path / "h.tsv"
        write_histogram(path, hist)
        lines = path.read_text().splitlines()
        assert lines[0] == f"# bayesreloc-hist-v1 query_count={hist.query_count}"
        assert lines[1] == "threshold\tfrac_trans_le\tfrac_rot_le"
        for text, row in zip(lines[2:], hist.rows):
            parts = text.split("\t")
            assert float(parts[0]) == row.threshold
            assert float(parts[1]) == row.frac_trans
            assert float(parts[2]) == row.frac_rot
