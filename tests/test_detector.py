"""Tests for lowest-uncertainty scene recognition."""

import re

import numpy as np
import pytest

from bayesreloc.calibration import (
    CalibrationModel,
    GammaModel,
    detection_score,
    z_score,
)
from bayesreloc.detector import (
    ConfusionMatrix,
    SceneModel,
    _scene_tag,
    confusion,
    detect,
    format_confusion,
)
from bayesreloc.errors import ShapeMismatch
from bayesreloc.geometry import LossConfig
from bayesreloc.mc_posterior import localize
from bayesreloc.harness import run_calibration
from bayesreloc.regressor import TrainConfig, pose_network, train
from bayesreloc.scenes import SceneSpec, generate_scene
from bayesreloc.seeding import derive_seed


def _calibration(scene_id, trans=(2.0, 1.0), rot=(2.0, 0.5)):
    return CalibrationModel(
        trans=GammaModel(*trans),
        rot=GammaModel(*rot),
        source_scene=scene_id,
        population_size=16,
    )


def _toy_net(seed=3, p=0.5, input_width=6):
    net = pose_network(input_width, (12, 12), p, seed=seed)
    net.layers[-1].bias[3] = 1.0
    return net


def _toy_model(scene_id, seed=3, p=0.5):
    return SceneModel(scene_id, _toy_net(seed=seed, p=p), _calibration(scene_id))


class TestSceneModel:
    def test_accepts_matching_calibration(self):
        model = _toy_model("roof")
        assert model.scene_id == "roof"

    def test_rejects_mismatched_calibration(self):
        with pytest.raises(ValueError):
            SceneModel("roof", _toy_net(), _calibration("lobby"))


def _reference_detect(models, x, num_samples, master_seed):
    """detect() as one localize call per model: (scores, winner, tie), where
    the winner is the first model with the lowest combined percentile."""
    ids = [m.scene_id for m in models]
    if len(models) < 2:
        raise ValueError(f"need at least 2 scene models, got {len(models)}")
    if len(set(ids)) != len(ids):
        raise ValueError(f"duplicate scene ids in model list: {ids}")
    scores = []
    for m in models:
        _, est = localize(m.network, x, num_samples, derive_seed(master_seed, _scene_tag(m.scene_id)))
        scores.append((m.scene_id, detection_score(m.calibration, est)))
    values = [score.combined for _, score in scores]
    best = int(np.argmin(values))
    return scores, ids[best], values.count(values[best]) > 1


def _reference_confusion(models, test_sets, num_samples, seed):
    """The one-detection-per-query loop confusion() must reproduce."""
    ids = [m.scene_id for m in models]
    index = {sid: i for i, sid in enumerate(ids)}
    for sid in test_sets:
        if sid not in index:
            raise ValueError(f"no model for scene {sid!r}")
    if not any(len(queries) for queries in test_sets.values()):
        raise ValueError("no queries to classify")
    counts = np.zeros((len(ids), len(ids)), dtype=int)
    for sid, queries in test_sets.items():
        for qi, x in enumerate(queries):
            if len(models) == 1:
                counts[0, 0] += 1
                continue
            _, winner, _ = _reference_detect(models, x, num_samples, derive_seed(seed, _scene_tag(sid), qi))
            counts[index[sid], index[winner]] += 1
    return counts


def _outcome(fn, *args):
    """What fn returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except Exception as e:
        return type(e), str(e)


def _detect_outcome(*args):
    result = detect(*args)
    return result.scores, result.scene_id, result.tie


def _confusion_outcome(fn, *args):
    counts = _outcome(fn, *args)
    if isinstance(counts, tuple):
        return counts
    return np.asarray(getattr(counts, "counts", counts)).tolist()


class TestDetect:
    def test_needs_two_models(self):
        with pytest.raises(ValueError):
            detect([_toy_model("a")], np.zeros(6))

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError):
            detect([_toy_model("a", seed=1), _toy_model("a", seed=2)], np.zeros(6))

    def test_scores_every_candidate(self):
        models = [_toy_model("a", seed=1), _toy_model("b", seed=2), _toy_model("c", seed=3)]
        x = np.array([0.4, -0.2, 0.9, 0.1, -0.5, 0.3])
        result = detect(models, x, num_samples=12, master_seed=5)
        assert [sid for sid, _ in result.scores] == ["a", "b", "c"]
        assert result.scene_id in {"a", "b", "c"}
        for _, score in result.scores:
            assert 0.0 <= score.trans_pct <= 1.0
            assert 0.0 <= score.rot_pct <= 1.0

    def test_repeat_is_identical(self):
        models = [_toy_model("a", seed=1), _toy_model("b", seed=2)]
        x = np.array([0.4, -0.2, 0.9, 0.1, -0.5, 0.3])
        r1 = detect(models, x, num_samples=10, master_seed=7)
        r2 = detect(models, x, num_samples=10, master_seed=7)
        assert r1 == r2

    def test_permutation_equivariance(self):
        models = [_toy_model("a", seed=1), _toy_model("b", seed=2), _toy_model("c", seed=3)]
        x = np.array([0.4, -0.2, 0.9, 0.1, -0.5, 0.3])
        fwd = detect(models, x, num_samples=12, master_seed=5)
        rev = detect(list(reversed(models)), x, num_samples=12, master_seed=5)
        assert dict(fwd.scores) == dict(rev.scores)
        assert fwd.scene_id == rev.scene_id

    def test_identical_deterministic_copies_tie(self):
        # p=0 nets score identically under any per-scene seed, so two
        # copies of one model must flag a tie and pick the earlier id.
        net = _toy_net(seed=9, p=0.0)
        models = [
            SceneModel("first", net, _calibration("first")),
            SceneModel("second", net, _calibration("second")),
        ]
        x = np.array([0.4, -0.2, 0.9, 0.1, -0.5, 0.3])
        result = detect(models, x, num_samples=8, master_seed=11)
        assert result.tie
        assert result.scene_id == "first"

    def test_winner_minimizes_chosen_channel(self):
        models = [_toy_model("a", seed=1), _toy_model("b", seed=2), _toy_model("c", seed=3)]
        x = np.array([1.0, 0.3, -0.8, 0.2, 0.6, -0.4])
        result = detect(models, x, num_samples=12, master_seed=2)
        values = [score.combined for _, score in result.scores]
        assert result.scene_id == result.scores[int(np.argmin(values))][0]

    def _candidate_estimates(self, models, x, num_samples, master_seed):
        return [
            localize(m.network, x, num_samples, derive_seed(master_seed, _scene_tag(m.scene_id)))[1]
            for m in models
        ]

    def test_without_trend_scores_are_z_scores(self):
        models = [_toy_model("a", seed=1), _toy_model("b", seed=2), _toy_model("c", seed=3)]
        x = np.array([0.4, -0.2, 0.9, 0.1, -0.5, 0.3])
        result = detect(models, x, num_samples=12, master_seed=5)
        ests = self._candidate_estimates(models, x, 12, 5)
        assert [s for _, s in result.scores] == [
            z_score(m.calibration, e) for m, e in zip(models, ests)
        ]

    def test_scores_against_the_trend_at_the_predicted_position(self):
        trended = {
            sid: CalibrationModel(
                trans=GammaModel(2.0, 1.0),
                rot=GammaModel(2.0, 0.5),
                source_scene=sid,
                population_size=16,
                trans_trend=(0.5, 0.3, -0.2, 0.1),
                rot_trend=(-0.4, 0.1, 0.2, -0.3),
                trans_residual=GammaModel(3.0, 0.4),
                rot_residual=GammaModel(1.5, 0.2),
            )
            for sid in ("a", "b")
        }
        models = [
            SceneModel(sid, _toy_net(seed=seed), trended[sid]) for sid, seed in (("a", 1), ("b", 2))
        ]
        x = np.array([0.4, -0.2, 0.9, 0.1, -0.5, 0.3])
        result = detect(models, x, num_samples=12, master_seed=5)
        ests = self._candidate_estimates(models, x, 12, 5)
        want = [detection_score(m.calibration, e) for m, e in zip(models, ests)]
        assert [s for _, s in result.scores] == want
        assert want != [z_score(m.calibration, e) for m, e in zip(models, ests)]

    def test_argmin_invariant_under_monotone_transforms(self):
        models = [_toy_model("a", seed=1), _toy_model("b", seed=2), _toy_model("c", seed=3)]
        x = np.array([0.2, 0.8, -0.1, -0.7, 0.5, 0.9])
        result = detect(models, x, num_samples=12, master_seed=4)
        values = np.array([score.combined for _, score in result.scores])
        base = int(np.argmin(values))
        for transform in (np.sqrt, lambda v: 10.0 * v, lambda v: v + 3.0, lambda v: v**3):
            assert int(np.argmin(transform(values))) == base
        assert result.scene_id == result.scores[base][0]

    @pytest.mark.parametrize("num_samples", [1, 40, 128])
    def test_equals_localize_loop(self, num_samples):
        models = [_toy_model("a", seed=1), _toy_model("b", seed=2), _toy_model("c", seed=4)]
        twins = [SceneModel(sid, _toy_net(p=0.0), _calibration(sid)) for sid in ("a", "b")]
        wide = models[:2] + [SceneModel("c", _toy_net(input_width=7), _calibration("c"))]
        narrow = [SceneModel("a", _toy_net(input_width=5), _calibration("a"))] + wide[1:]
        cases = [(models, x) for x in np.random.default_rng(79).normal(size=(6, 6))] + [
            (twins, np.ones(6)),
            (models[:2] + [_toy_model("a", seed=5)], np.zeros(6)),
            (models, np.full(6, np.nan)),
            (models, np.ones(5)),
            # The last model fails on this input; the first two fail on the
            # next, each with its own message.
            (wide, np.zeros(6)),
            (narrow, np.ones(7)),
        ]
        outcomes = []
        for master_seed, (candidates, x) in enumerate(cases):
            want = _outcome(_reference_detect, candidates, x, num_samples, master_seed)
            assert _outcome(_detect_outcome, candidates, x, num_samples, master_seed) == want
            outcomes.append(want)
        assert outcomes[6][1:] == ("a", True)
        names = [kind.__name__ for kind, _ in outcomes[7:]]
        assert names == ["ValueError", "DegenerateQuaternion"] + ["ShapeMismatch"] * 3
        assert outcomes[-2][1] == "input shape (6,) does not match network input (7,)"
        assert outcomes[-1][1] == "input shape (7,) does not match network input (5,)"


class TestConfusionMatrix:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ConfusionMatrix(["a", "b"], np.zeros((3, 3), dtype=int))

    def test_rejects_all_zero_counts(self):
        # Its accuracy would be 0 / 0.
        with pytest.raises(ValueError, match="at least one query"):
            ConfusionMatrix(["a", "b"], np.zeros((2, 2), dtype=int))

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError, match="negative"):
            ConfusionMatrix(["a", "b"], np.array([[-1, 2], [0, 3]]))

    def test_accuracy_is_trace_over_total(self):
        m = ConfusionMatrix(["a", "b"], np.array([[8, 2], [1, 9]]))
        assert m.total == 20
        assert m.accuracy == pytest.approx(17 / 20)

    def test_single_scene_accuracy_is_one(self):
        model = _toy_model("only")
        queries = [np.full(6, 0.1 * i) for i in range(5)]
        m = confusion([model], {"only": queries}, num_samples=6, seed=0)
        assert m.counts[0, 0] == 5
        assert m.accuracy == 1.0

    @pytest.mark.parametrize("bad, error", [(np.zeros(3), ShapeMismatch), ("garbage", ValueError), ({}, TypeError)])
    def test_single_scene_checks_its_queries(self, bad, error):
        # A lone model has nothing to score against, but it refuses a query
        # its network cannot read as a pair of models would.
        model = _toy_model("only")
        queries = {"only": [np.zeros(6), bad]}
        with pytest.raises(error) as pair:
            confusion([model, _toy_model("other", seed=2)], queries, num_samples=6, seed=0)
        with pytest.raises(error, match=f"^{re.escape(str(pair.value))}$"):
            confusion([model], queries, num_samples=6, seed=0)

    def test_row_sums_conserve_queries(self):
        models = [_toy_model("a", seed=1), _toy_model("b", seed=2)]
        rng = np.random.default_rng(77)
        test_sets = {
            "a": [rng.normal(size=6) for _ in range(7)],
            "b": [rng.normal(size=6) for _ in range(4)],
        }
        m = confusion(models, test_sets, num_samples=6, seed=1)
        assert m.counts[0].sum() == 7
        assert m.counts[1].sum() == 4
        assert np.all(m.counts >= 0)

    @pytest.mark.parametrize("count", [1, 2])
    @pytest.mark.parametrize("empty_lists", [False, True])
    def test_no_queries(self, monkeypatch, count, empty_lists):
        models = [_toy_model("a", seed=1), _toy_model("b", seed=2)][:count]
        test_sets = {m.scene_id: [] for m in models} if empty_lists else {}

        def refuse(*args):
            raise AssertionError("a model ran")

        monkeypatch.setattr("bayesreloc.detector._localize_stream", refuse)
        with pytest.raises(ValueError, match="^no queries to classify$"):
            confusion(models, test_sets, num_samples=6, seed=0)

    def test_unknown_scene_in_test_sets(self):
        models = [_toy_model("a", seed=1), _toy_model("b", seed=2)]
        with pytest.raises(ValueError):
            confusion(models, {"c": [np.zeros(6)]})

    def test_format_round_trips_counts(self):
        m = ConfusionMatrix(["north", "south"], np.array([[3, 1], [0, 4]]))
        text = format_confusion(m)
        lines = text.strip().split("\n")
        assert lines[0] == "# bayesreloc-confusion-v1"
        assert lines[1].split("\t") == ["true\\pred", "north", "south"]
        assert lines[2].split("\t") == ["north", "3", "1"]
        assert lines[3].split("\t") == ["south", "0", "4"]
        assert lines[4].startswith("accuracy ")
        assert float(lines[4].split()[1]) == m.accuracy


class TestConfusionEqualsDetectLoop:
    def _models(self):
        return [_toy_model("a", seed=1), _toy_model("b", seed=2), _toy_model("c", seed=4)]

    def _test_sets(self):
        rng = np.random.default_rng(78)
        return {sid: [rng.normal(size=6) for _ in range(n)] for sid, n in (("a", 9), ("b", 0), ("c", 4))}

    def _check(self, models, test_sets, num_samples=40, seed=3):
        want = _confusion_outcome(_reference_confusion, models, test_sets, num_samples, seed)
        assert _confusion_outcome(confusion, models, test_sets, num_samples, seed) == want
        return want

    @pytest.mark.parametrize("num_samples", [1, 40, 128])
    def test_counts(self, num_samples):
        counts = self._check(self._models(), self._test_sets(), num_samples)
        assert sum(map(sum, counts)) == 13

    def test_ties_go_to_the_first_model(self):
        twins = [SceneModel(sid, _toy_net(p=0.0), _calibration(sid)) for sid in ("a", "b")]
        assert self._check(twins, {"a": [np.ones(6)], "b": [np.zeros(6)]}) == [[1, 0], [1, 0]]

    def test_errors(self):
        models, test_sets = self._models(), self._test_sets()
        duplicate = models[:2] + [_toy_model("a", seed=5)]
        assert self._check(duplicate, test_sets)[0] is ValueError
        assert self._check(models, {"d": [np.zeros(6)]})[0] is ValueError
        assert self._check(models, {"a": [], "c": []}) == (ValueError, "no queries to classify")
        test_sets["c"][2] = np.full(6, np.nan)
        assert self._check(models, test_sets)[0].__name__ == "DegenerateQuaternion"
        test_sets["a"][5] = np.ones(5)
        assert self._check(models, test_sets)[0].__name__ == "ShapeMismatch"
        wide = models[:2] + [SceneModel("c", _toy_net(input_width=7), _calibration("c"))]
        assert self._check(wide, self._test_sets())[0].__name__ == "ShapeMismatch"
        # The first query fails on the last model, a later one on the first.
        test_sets = self._test_sets()
        test_sets["a"][4] = np.ones(7)
        assert self._check(wide, test_sets)[1] == "input shape (6,) does not match network input (7,)"
        # This query fails on the last two models, each with its own message;
        # the earlier model's is raised.
        mixed = [
            SceneModel(sid, _toy_net(input_width=w), _calibration(sid))
            for sid, w in (("a", 7), ("b", 5), ("c", 6))
        ]
        want = "input shape (7,) does not match network input (5,)"
        assert self._check(mixed, {"c": [np.ones(7)]})[1] == want


@pytest.fixture(scope="module")
def models_and_tests():
    models = []
    test_sets = {}
    for scene_id, gen_seed, net_seed in (("alpha", 101, 21), ("beta", 202, 22)):
        spec = SceneSpec(
            scene_id=scene_id,
            extent=((0.0, 20.0), (0.0, 10.0), (0.0, 2.0)),
            feature_dim=8,
            nuisance_dim=2,
            generator_seed=gen_seed,
        )
        ds = generate_scene(spec, n_train=400, n_calib=60, n_test=25)
        result = train(
            pose_network(8, (48, 48), 0.5, seed=net_seed),
            [(ex.features, ex.pose) for ex in ds.train],
            TrainConfig(learning_rate=1e-3, batch_size=32, epochs=250,
                        loss=LossConfig(10.0), seed=net_seed),
        )
        cal = run_calibration(result.net, ds, 16, 301)
        models.append(SceneModel(scene_id, result.net, cal))
        test_sets[scene_id] = [ex.features for ex in ds.test]
    return models, test_sets

class TestTwoSceneRecognition:
    """End-to-end: two tiny scenes, real training, accuracy above chance."""

    def test_accuracy_above_chance(self, models_and_tests):
        models, test_sets = models_and_tests
        m = confusion(models, test_sets, num_samples=16, seed=5)
        assert m.total == 50
        assert m.accuracy > 0.5

    def test_confusion_equals_detect_loop(self, models_and_tests):
        models, test_sets = models_and_tests
        want = _reference_confusion(models, test_sets, 40, 6)
        assert confusion(models, test_sets, 40, 6).counts.tolist() == want.tolist()

    def test_confusion_deterministic(self, models_and_tests):
        models, test_sets = models_and_tests
        a = confusion(models, test_sets, num_samples=8, seed=9)
        b = confusion(models, test_sets, num_samples=8, seed=9)
        assert np.array_equal(a.counts, b.counts)
