"""Tests for the MLP pose regressor: building, masking, gradients, training."""

import io
import json
import math

import numpy as np
import pytest

from bayesreloc.errors import (
    DegenerateQuaternion,
    InvalidArchitecture,
    NonFiniteLoss,
    ParseError,
    ShapeMismatch,
)
from bayesreloc.geometry import LossConfig, Pose, UnitQuaternion, Vec3, normalize, pose_loss
from bayesreloc.regressor import (
    CHECKPOINT_FORMAT,
    LayerSpec,
    TrainConfig,
    _stochastic_passes,
    _trunk,
    _write_json,
    build_network,
    draw_mask,
    draw_masks,
    feature_embedding,
    forward,
    load_checkpoint,
    loss_gradient,
    pose_network,
    save_checkpoint,
    train,
)
from bayesreloc.seeding import derive_rng


def _random_pose(rng):
    q = rng.normal(size=4)
    return Pose(
        Vec3.from_array(rng.uniform(-5, 5, size=3)),
        normalize(q / np.linalg.norm(q)),
    )


def _random_batch(rng, width, n):
    return [(rng.normal(size=width), _random_pose(rng)) for _ in range(n)]


def _total_loss(net, batch, masks, config):
    """Objective recomputed through the public forward passes only.

    This is the independent route the gradient is checked against; it must
    not share code with loss_gradient.
    """
    total = 0.0
    for i, (features, pose) in enumerate(batch):
        mask = None if masks is None else masks[i]
        total += pose_loss(forward(net, features, mask), pose, config)
    return total / len(batch)


def _fd_check(net, batch, masks, config, h=1e-5, rel=1e-4, floor=1e-7):
    """Compare analytic gradients against central finite differences."""
    grads = loss_gradient(net, batch, masks, config)
    worst = 0.0

    def check(array, grad, setter):
        nonlocal worst
        flat = array.ravel()
        gflat = grad.ravel()
        for j in range(flat.size):
            keep = flat[j]
            flat[j] = keep + h
            up = _total_loss(net, batch, masks, config)
            flat[j] = keep - h
            down = _total_loss(net, batch, masks, config)
            flat[j] = keep
            fd = (up - down) / (2.0 * h)
            err = abs(gflat[j] - fd)
            assert err <= floor + rel * abs(fd), (
                f"gradient mismatch: analytic {gflat[j]!r} vs fd {fd!r}"
            )
            worst = max(worst, err - rel * abs(fd))

    for layer, (d_w, d_b) in zip(net.layers, grads.layers):
        check(layer.weights, d_w, None)
        check(layer.bias, d_b, None)
    return worst


def _fast_path_nets():
    """Nets the array fast paths are checked on, keyed by what they cover."""
    return {
        # two dropout layers (the key name keeps the test ids stable)
        "aux_dropout": build_network(
            [
                LayerSpec(6, 12, activation="identity"),
                LayerSpec(12, 10, has_dropout=True),
                LayerSpec(10, 7, has_dropout=True, activation="identity"),
            ],
            0.25,
            seed=700,
        ),
        "no_dropout": build_network(
            [LayerSpec(6, 16), LayerSpec(16, 7, activation="identity")], 0.5, seed=701
        ),
        "p_zero": build_network(
            [LayerSpec(6, 16), LayerSpec(16, 7, has_dropout=True, activation="identity")],
            0.0,
            seed=702,
        ),
    }


def _reference_train(net, dataset, config):
    """The per-example training loop train() must reproduce bit for bit.

    One draw_mask row per example stacked into each batch's mask block,
    one loss_gradient per batch of Pose objects, then SGD with momentum
    on every parameter array.
    """
    params = net.copy()
    arrays = [(layer.weights, layer.bias) for layer in params.layers]
    velocity = [(np.zeros_like(w), np.zeros_like(b)) for w, b in arrays]
    counter = 0
    epoch_losses = []
    for epoch in range(config.epochs):
        order = derive_rng(config.seed, 0, epoch).permutation(len(dataset))
        loss_sum = 0.0
        for start in range(0, len(dataset), config.batch_size):
            batch = [dataset[i] for i in order[start : start + config.batch_size]]
            masks = np.stack([draw_mask(params, config.seed, counter + j) for j in range(len(batch))])
            counter += len(batch)
            grads = loss_gradient(params, batch, masks, config.loss)
            loss_sum += grads.mean_loss * len(batch)
            for (w, b), (v_w, v_b), (d_w, d_b) in zip(arrays, velocity, grads.layers):
                v_w[...] = config.momentum * v_w - config.learning_rate * d_w
                v_b[...] = config.momentum * v_b - config.learning_rate * d_b
                w += v_w
                b += v_b
        epoch_losses.append(loss_sum / len(dataset))
    return params, epoch_losses


def _reference_masked_pass(net, a, mask):
    """forward's layer loop with the dropout multiply written out as
    (a * m) * (1 / (1 - p)) on an unscaled 0/1 mask row."""
    scale = 1.0 / (1.0 - net.dropout_p)
    lo = 0
    for layer in net.layers:
        if layer.spec.has_dropout:
            a = (a * mask[lo : lo + layer.spec.input_width]) * scale
            lo += layer.spec.input_width
        z = a @ layer.weights.T + layer.bias
        a = np.maximum(z, 0.0) if layer.spec.activation == "relu" else z
    return a


def _same_bits(got, want):
    got, want = np.ascontiguousarray(got), np.ascontiguousarray(want)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestBuildNetwork:
    def test_parameter_count(self):
        net = build_network(
            [LayerSpec(16, 32), LayerSpec(32, 7, has_dropout=True, activation="identity")],
            0.5,
            seed=1,
        )
        assert len(net.layers) == 2
        count = sum(l.weights.size + l.bias.size for l in net.layers)
        assert count == 32 * 16 + 32 + 7 * 32 + 7

    def test_deterministic(self):
        specs = [LayerSpec(16, 32), LayerSpec(32, 7, has_dropout=True, activation="identity")]
        a = build_network(specs, 0.5, seed=1)
        b = build_network(specs, 0.5, seed=1)
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.weights, lb.weights)
            np.testing.assert_array_equal(la.bias, lb.bias)
        c = build_network(specs, 0.5, seed=2)
        assert not np.array_equal(a.layers[0].weights, c.layers[0].weights)

    def test_final_width_enforced(self):
        with pytest.raises(InvalidArchitecture):
            build_network([LayerSpec(16, 6, activation="identity")], 0.5, seed=1)

    def test_final_activation_enforced(self):
        with pytest.raises(InvalidArchitecture):
            build_network([LayerSpec(16, 7, activation="relu")], 0.5, seed=1)

    def test_chain_mismatch(self):
        with pytest.raises(InvalidArchitecture):
            build_network(
                [LayerSpec(16, 32), LayerSpec(33, 7, activation="identity")], 0.5, seed=1
            )

    def test_dropout_only_near_output(self):
        specs = [
            LayerSpec(16, 32, has_dropout=True),
            LayerSpec(32, 32),
            LayerSpec(32, 7, activation="identity"),
        ]
        with pytest.raises(InvalidArchitecture):
            build_network(specs, 0.5, seed=1)
        # on the last two layers it is allowed
        build_network(
            [
                LayerSpec(16, 32),
                LayerSpec(32, 32, has_dropout=True),
                LayerSpec(32, 7, has_dropout=True, activation="identity"),
            ],
            0.5,
            seed=1,
        )

    def test_dropout_p_range(self):
        specs = [LayerSpec(8, 7, activation="identity")]
        with pytest.raises(ValueError):
            build_network(specs, 1.0, seed=1)
        with pytest.raises(ValueError):
            build_network(specs, -0.1, seed=1)

    def test_glorot_bounds_and_zero_bias(self):
        net = build_network(
            [LayerSpec(16, 32), LayerSpec(32, 7, activation="identity")], 0.5, seed=3
        )
        for layer in net.layers:
            limit = math.sqrt(6.0 / (layer.spec.input_width + layer.spec.output_width))
            assert np.abs(layer.weights).max() <= limit
            assert np.all(layer.bias == 0.0)


class TestPoseNetwork:
    @pytest.mark.parametrize(
        "hidden, specs",
        [
            ((), [LayerSpec(6, 7, has_dropout=True, activation="identity")]),
            (
                (16,),
                [
                    LayerSpec(6, 16, has_dropout=True),
                    LayerSpec(16, 7, has_dropout=True, activation="identity"),
                ],
            ),
            (
                (16, 16),
                [
                    LayerSpec(6, 16),
                    LayerSpec(16, 16, has_dropout=True),
                    LayerSpec(16, 7, has_dropout=True, activation="identity"),
                ],
            ),
        ],
    )
    def test_equals_hand_built_specs(self, hidden, specs):
        net = pose_network(6, hidden, 0.4, seed=17)
        ref = build_network(specs, 0.4, seed=17)
        assert [layer.spec for layer in net.layers] == specs
        assert (net.dropout_p, net.seed) == (ref.dropout_p, ref.seed)
        for a, b in zip(net.layers, ref.layers):
            np.testing.assert_array_equal(a.weights, b.weights)
            np.testing.assert_array_equal(a.bias, b.bias)


class TestDrawMask:
    def _net(self):
        return pose_network(8, (64, 64), 0.5, seed=1)

    def test_reproducible_and_order_free(self):
        net = self._net()
        a = draw_mask(net, 99, 3)
        b = draw_mask(net, 99, 7)
        a_again = draw_mask(net, 99, 3)
        np.testing.assert_array_equal(a, a_again)
        assert not np.array_equal(a, b)

    def test_binary_entries_and_shapes(self):
        net = self._net()
        # one row: the two dropout layers' 64 inputs each, end to end
        mask = draw_mask(net, 5, 0)
        assert mask.shape == (64 + 64,)
        assert set(np.unique(mask)).issubset({0.0, 1.0})

    def test_drop_rate_matches_p(self):
        # keep fraction over many draws approximates 1 - p within 3 SE
        net = self._net()
        draws = 2000
        units = 128 * draws
        kept = 0
        for i in range(draws):
            mask = draw_mask(net, 42, i)
            kept += int(mask.sum())
        se = math.sqrt(0.5 * 0.5 / units)
        assert abs(kept / units - 0.5) <= 3.0 * se

    def test_p_zero_keeps_everything(self):
        net = build_network(
            [LayerSpec(8, 16), LayerSpec(16, 7, has_dropout=True, activation="identity")],
            0.0,
            seed=1,
        )
        for i in range(20):
            mask = draw_mask(net, 7, i)
            assert mask.shape == (16,)
            assert np.all(mask == 1.0)

    def test_no_dropout_layers(self):
        net = build_network(
            [LayerSpec(8, 16), LayerSpec(16, 7, activation="identity")], 0.5, seed=1
        )
        mask = draw_mask(net, 1, 0)
        assert mask.shape == (0,)


class TestDrawMasks:
    @pytest.mark.parametrize("name", ["aux_dropout", "no_dropout", "p_zero"])
    def test_rows_match_draw_mask(self, name):
        net = _fast_path_nets()[name]
        block = draw_masks(net, 31, 5, 9)
        assert block.shape == (9, draw_mask(net, 31, 0).size)
        for j, row in enumerate(block):
            np.testing.assert_array_equal(row, draw_mask(net, 31, 5 + j))

    def test_rows_do_not_depend_on_block(self):
        net = _fast_path_nets()["aux_dropout"]
        np.testing.assert_array_equal(draw_masks(net, 8, 0, 6)[3:], draw_masks(net, 8, 3, 3))


class TestForward:
    def test_identity_layer_passthrough(self):
        net = build_network([LayerSpec(7, 7, activation="identity")], 0.0, seed=1)
        net.layers[0].weights = np.eye(7)
        net.layers[0].bias = np.zeros(7)
        x = np.array([0.3, -1.2, 4.0, 0.5, 0.5, 0.5, 0.5])
        np.testing.assert_array_equal(forward(net, x), x)

    def test_all_ones_mask_p_zero_is_noop(self):
        net = build_network(
            [LayerSpec(5, 12), LayerSpec(12, 7, has_dropout=True, activation="identity")],
            0.0,
            seed=2,
        )
        rng = np.random.default_rng(0)
        x = rng.normal(size=5)
        mask = np.ones(12)
        np.testing.assert_array_equal(forward(net, x, mask), forward(net, x))

    def test_hand_computed_fixture(self):
        # 3 -> 2 rectifier -> 7 identity with hand-set weights; expected
        # values worked out on paper for input (1, 0, 0)
        net = build_network(
            [LayerSpec(3, 2), LayerSpec(2, 7, activation="identity")], 0.0, seed=1
        )
        net.layers[0].weights = np.array([[1.0, -2.0, 0.0], [-0.5, 3.0, 1.0]])
        net.layers[0].bias = np.array([0.5, -1.0])
        w2 = np.zeros((7, 2))
        w2[0, 0] = 2.0
        w2[1, 1] = 4.0
        w2[2, 0] = -1.0
        w2[3, 0] = 1.0
        net.layers[1].weights = w2
        net.layers[1].bias = np.array([0.0, 1.0, 0.0, 0.0, 0.25, 0.0, 0.0])
        # hidden pre-activations: (1*1 + 0.5, -0.5*1 - 1) = (1.5, -1.5)
        # after rectifier: (1.5, 0); head: rows pick 2*1.5, 4*0+1, -1.5, 1.5
        expected = np.array([3.0, 1.0, -1.5, 1.5, 0.25, 0.0, 0.0])
        np.testing.assert_allclose(forward(net, np.array([1.0, 0.0, 0.0])), expected, atol=1e-15)

    def test_masked_pass_scales_kept_units(self):
        # single linear layer with dropout: masked pass equals the affine
        # map of the masked, rescaled input
        net = pose_network(7, (), 0.5, seed=3)
        rng = np.random.default_rng(1)
        x = rng.normal(size=7)
        mask = draw_mask(net, 11, 0)
        manual = net.layers[0].weights @ (x * mask * 2.0) + net.layers[0].bias
        np.testing.assert_allclose(forward(net, x, mask), manual, atol=1e-15)

    def test_input_shape_mismatch(self):
        net = build_network([LayerSpec(5, 7, activation="identity")], 0.0, seed=1)
        with pytest.raises(ShapeMismatch):
            forward(net, np.zeros(6))

    def test_mask_shape_mismatch(self):
        net = build_network(
            [LayerSpec(5, 12), LayerSpec(12, 7, has_dropout=True, activation="identity")],
            0.5,
            seed=1,
        )
        with pytest.raises(ShapeMismatch):
            forward(net, np.zeros(5), np.ones(11))
        with pytest.raises(ShapeMismatch):
            forward(net, np.zeros(5), np.ones(24))
        with pytest.raises(ShapeMismatch):
            forward(net, np.zeros(5), np.ones((1, 12)))

    def test_homogeneity_through_linear_layers(self):
        # with zero biases and identity activations, a fixed mask commutes
        # with input scaling
        net = build_network(
            [
                LayerSpec(6, 10, activation="identity"),
                LayerSpec(10, 7, has_dropout=True, activation="identity"),
            ],
            0.5,
            seed=4,
        )
        for layer in net.layers:
            layer.bias = np.zeros_like(layer.bias)
        rng = np.random.default_rng(2)
        x = rng.normal(size=6)
        mask = draw_mask(net, 21, 0)
        for c in (0.5, 2.0, -3.0):
            np.testing.assert_allclose(
                forward(net, c * x, mask), c * forward(net, x, mask), atol=1e-12
            )

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("p", [0.0, 0.3, 0.5])
    @pytest.mark.parametrize("hidden", [None, math.inf, -math.inf, math.nan])
    def test_prescaled_masks_match_unscaled_multiply(self, p, hidden):
        # Both layers take dropout and the hidden one is identity, so the
        # first dropout layer sees the input rows' -0.0, +-inf and NaN as
        # they are, and the second sees a hidden unit's non-finite bias.
        net = build_network(
            [
                LayerSpec(6, 9, has_dropout=True, activation="identity"),
                LayerSpec(9, 7, has_dropout=True, activation="identity"),
            ],
            p,
            seed=8,
        )
        if hidden is not None:
            net.layers[0].bias[4] = hidden
        X = np.random.default_rng(6).normal(size=(5, 6))
        X[1, ::2] = -0.0
        X[2, 1] = math.inf
        X[3, 3] = -math.inf
        X[4, 5] = math.nan
        masters, count = [3, 2**40, 7, 11, 0], 6
        for q, x in enumerate(X):
            for i in range(count):
                mask = draw_mask(net, masters[q], i)
                _same_bits(forward(net, x, mask), _reference_masked_pass(net, x, mask))
        trunks = np.stack([_trunk(net, x) for x in X])
        want = [
            _reference_masked_pass(net, x, draw_mask(net, m, i))
            for x, m in zip(X, masters)
            for i in range(count)
        ]
        _same_bits(_stochastic_passes(net, trunks, masters, count), np.stack(want))

    def test_expectation_consistency(self):
        # inverted scaling makes the masked estimator unbiased on a linear
        # layer: the mean over many masks matches the maskless pass
        net = pose_network(7, (), 0.5, seed=5)
        rng = np.random.default_rng(3)
        x = rng.normal(size=7)
        n = 10_000
        outs = np.stack([forward(net, x, draw_mask(net, 77, i)) for i in range(n)])
        target = forward(net, x)
        se = outs.std(axis=0, ddof=1) / math.sqrt(n)
        assert np.all(np.abs(outs.mean(axis=0) - target) <= 3.0 * se + 1e-12)


class TestFeatureEmbedding:
    def test_width_and_determinism(self):
        net = build_network(
            [LayerSpec(9, 24), LayerSpec(24, 7, has_dropout=True, activation="identity")],
            0.5,
            seed=6,
        )
        rng = np.random.default_rng(4)
        x = rng.normal(size=9)
        e1 = feature_embedding(net, x)
        e2 = feature_embedding(net, x)
        assert e1.shape == (24,)
        np.testing.assert_array_equal(e1, e2)
        assert float(np.linalg.norm(e1 - e2)) == 0.0

    def test_matches_manual_prefix(self):
        net = build_network(
            [LayerSpec(4, 6), LayerSpec(6, 7, activation="identity")], 0.0, seed=7
        )
        x = np.array([0.1, -0.2, 0.5, 2.0])
        manual = np.maximum(net.layers[0].weights @ x + net.layers[0].bias, 0.0)
        np.testing.assert_array_equal(feature_embedding(net, x), manual)


class TestLossGradient:
    def test_zero_at_exact_prediction(self):
        # identity network reproducing the target exactly sits at the loss
        # minimum; both norm terms are at their kink and the subgradient is 0
        net = build_network([LayerSpec(7, 7, activation="identity")], 0.0, seed=1)
        net.layers[0].weights = np.eye(7)
        net.layers[0].bias = np.zeros(7)
        pose = Pose(Vec3(1.0, 2.0, 3.0), UnitQuaternion(1.0, 0.0, 0.0, 0.0))
        features = np.array([1.0, 2.0, 3.0, 1.0, 0.0, 0.0, 0.0])
        grads = loss_gradient(net, [(features, pose)], None, LossConfig(32.0))
        assert grads.mean_loss == 0.0
        for d_w, d_b in grads.layers:
            assert np.all(d_w == 0.0)
            assert np.all(d_b == 0.0)

    def test_finite_difference_oracle(self):
        # five random small architectures, no masks
        rng = np.random.default_rng(17)
        cases = [
            [LayerSpec(3, 7, activation="identity")],
            [LayerSpec(4, 8), LayerSpec(8, 7, activation="identity")],
            [LayerSpec(5, 9), LayerSpec(9, 7, has_dropout=True, activation="identity")],
            [
                LayerSpec(4, 10),
                LayerSpec(10, 12, has_dropout=True),
                LayerSpec(12, 7, has_dropout=True, activation="identity"),
            ],
            [LayerSpec(6, 16), LayerSpec(16, 7, activation="identity")],
        ]
        for i, specs in enumerate(cases):
            net = build_network(specs, 0.4, seed=100 + i)
            batch = _random_batch(rng, specs[0].input_width, 4)
            _fd_check(net, batch, None, LossConfig(2.5))

    def test_finite_difference_with_masks(self):
        rng = np.random.default_rng(18)
        net = pose_network(4, (10, 8), 0.5, seed=200)
        batch = _random_batch(rng, 4, 3)
        masks = np.stack([draw_mask(net, 55, i) for i in range(3)])
        _fd_check(net, batch, masks, LossConfig(1.5))

    def test_beta_linearity(self):
        # the orientation share of the gradient scales linearly in beta, so
        # consecutive unit increments of beta add the same orientation-only
        # gradient
        rng = np.random.default_rng(20)
        specs = [LayerSpec(5, 9), LayerSpec(9, 7, activation="identity")]
        net = build_network(specs, 0.0, seed=400)
        batch = _random_batch(rng, 5, 4)
        g1 = loss_gradient(net, batch, None, LossConfig(1.0))
        g2 = loss_gradient(net, batch, None, LossConfig(2.0))
        g3 = loss_gradient(net, batch, None, LossConfig(3.0))
        for (w21, b21), (w32, b32) in zip(
            [(w2 - w1, b2 - b1) for (w1, b1), (w2, b2) in zip(g1.layers, g2.layers)],
            [(w3 - w2, b3 - b2) for (w2, b2), (w3, b3) in zip(g2.layers, g3.layers)],
        ):
            np.testing.assert_allclose(w21, w32, atol=1e-12)
            np.testing.assert_allclose(b21, b32, atol=1e-12)

    def test_orientation_only_gradient(self):
        # when the predicted position is exactly right, grad(beta=2) minus
        # grad(beta=1) reproduces grad(beta=1) in full
        net = build_network([LayerSpec(7, 7, activation="identity")], 0.0, seed=1)
        net.layers[0].weights = np.eye(7)
        net.layers[0].bias = np.zeros(7)
        pose = Pose(Vec3(1.0, -2.0, 0.5), UnitQuaternion(1.0, 0.0, 0.0, 0.0))
        features = np.array([1.0, -2.0, 0.5, 0.2, 0.9, 0.1, -0.3])
        g1 = loss_gradient(net, [(features, pose)], None, LossConfig(1.0))
        g2 = loss_gradient(net, [(features, pose)], None, LossConfig(2.0))
        for (w1, b1), (w2, b2) in zip(g1.layers, g2.layers):
            np.testing.assert_allclose(w2 - w1, w1, atol=1e-12)
            np.testing.assert_allclose(b2 - b1, b1, atol=1e-12)

    def test_degenerate_quaternion_raises(self):
        net = build_network([LayerSpec(3, 7, activation="identity")], 0.0, seed=1)
        net.layers[0].weights = np.zeros((7, 3))
        rng = np.random.default_rng(21)
        batch = _random_batch(rng, 3, 2)
        with pytest.raises(DegenerateQuaternion):
            loss_gradient(net, batch, None, LossConfig(1.0))

    def test_empty_batch(self):
        net = build_network([LayerSpec(3, 7, activation="identity")], 0.0, seed=1)
        with pytest.raises(ValueError):
            loss_gradient(net, [], None, LossConfig(1.0))

    def test_mask_count_mismatch(self):
        net = build_network(
            [LayerSpec(3, 8), LayerSpec(8, 7, has_dropout=True, activation="identity")],
            0.5,
            seed=1,
        )
        rng = np.random.default_rng(22)
        batch = _random_batch(rng, 3, 2)
        with pytest.raises(ShapeMismatch):
            loss_gradient(net, batch, draw_mask(net, 1, 0)[None], LossConfig(1.0))
        with pytest.raises(ShapeMismatch):
            loss_gradient(net, batch, np.ones((2, 7)), LossConfig(1.0))


class TestTrain:
    def _specs(self):
        return [LayerSpec(6, 16), LayerSpec(16, 7, has_dropout=True, activation="identity")]

    def test_zero_learning_rate_is_identity(self):
        rng = np.random.default_rng(30)
        net = build_network(self._specs(), 0.5, seed=500)
        data = _random_batch(rng, 6, 40)
        result = train(net, data, TrainConfig(0.0, 8, 3, LossConfig(1.0), seed=1))
        for before, after in zip(net.layers, result.net.layers):
            np.testing.assert_array_equal(before.weights, after.weights)
            np.testing.assert_array_equal(before.bias, after.bias)

    def test_input_network_untouched(self):
        rng = np.random.default_rng(31)
        net = build_network(self._specs(), 0.5, seed=501)
        snapshot = [layer.weights.copy() for layer in net.layers]
        data = _random_batch(rng, 6, 40)
        train(net, data, TrainConfig(1e-3, 8, 2, LossConfig(1.0), seed=1))
        for layer, kept in zip(net.layers, snapshot):
            np.testing.assert_array_equal(layer.weights, kept)

    def test_deterministic(self):
        rng = np.random.default_rng(32)
        net = build_network(self._specs(), 0.5, seed=502)
        data = _random_batch(rng, 6, 60)
        cfg = TrainConfig(1e-3, 16, 4, LossConfig(2.0), seed=9)
        r1 = train(net, data, cfg)
        r2 = train(net, data, cfg)
        assert r1.epoch_losses == r2.epoch_losses
        for l1, l2 in zip(r1.net.layers, r2.net.layers):
            np.testing.assert_array_equal(l1.weights, l2.weights)
        r3 = train(net, data, TrainConfig(1e-3, 16, 4, LossConfig(2.0), seed=10))
        assert r3.epoch_losses != r1.epoch_losses

    @pytest.mark.parametrize("name", ["aux_dropout", "no_dropout", "p_zero"])
    def test_matches_reference_loop(self, name):
        net = _fast_path_nets()[name]
        data = _random_batch(np.random.default_rng(36), 6, 45)
        cfg = TrainConfig(1e-3, 8, 3, LossConfig(2.0), seed=12)
        result = train(net, data, cfg)
        ref_net, ref_losses = _reference_train(net, data, cfg)
        assert result.epoch_losses == ref_losses
        for got, want in zip(result.net.layers, ref_net.layers):
            np.testing.assert_array_equal(got.weights, want.weights)
            np.testing.assert_array_equal(got.bias, want.bias)

    @pytest.mark.parametrize("batch_size", [32, 100])
    @pytest.mark.parametrize("name", ["aux_dropout", "no_dropout", "p_zero"])
    def test_matches_reference_loop_across_mask_runs(self, name, batch_size):
        # Each epoch's 1,100 counters span two mask runs (1,024 + 76) and
        # end in a partial batch; at batch 100 a batch also straddles the
        # runs.  A degenerate pass aborts both loops alike: at batch 100,
        # aux_dropout meets one, and both must raise it.
        net = _fast_path_nets()[name]
        data = _random_batch(np.random.default_rng(37), 6, 1100)
        cfg = TrainConfig(1e-3, batch_size, 2, LossConfig(2.0), seed=13)
        try:
            result = train(net, data, cfg)
        except DegenerateQuaternion:
            with pytest.raises(DegenerateQuaternion):
                _reference_train(net, data, cfg)
            return
        ref_net, ref_losses = _reference_train(net, data, cfg)
        assert result.epoch_losses == ref_losses
        for got, want in zip(result.net.layers, ref_net.layers):
            np.testing.assert_array_equal(got.weights, want.weights)
            np.testing.assert_array_equal(got.bias, want.bias)

    def test_linear_fixture_converges(self):
        # one identity layer fitting an exactly-linear map with dropout off:
        # least squares says loss 0 is attainable, so 200 epochs of SGD must
        # cut the epoch-mean loss below 1% of the first epoch's
        rng = np.random.default_rng(33)
        a_map = rng.normal(scale=0.3, size=(3, 6))
        quat = UnitQuaternion(1.0, 0.0, 0.0, 0.0)
        data = []
        for _ in range(120):
            f = rng.normal(size=6)
            data.append((f, Pose(Vec3.from_array(a_map @ f), quat)))
        net = build_network([LayerSpec(6, 7, activation="identity")], 0.0, seed=503)
        result = train(net, data, TrainConfig(1e-2, 120, 200, LossConfig(1.0), seed=2))
        assert len(result.epoch_losses) == 200
        assert result.epoch_losses[-1] < 0.01 * result.epoch_losses[0]

    def test_divergence_raises(self):
        rng = np.random.default_rng(34)
        net = build_network(self._specs(), 0.5, seed=504)
        data = _random_batch(rng, 6, 40)
        with pytest.raises(NonFiniteLoss):
            train(net, data, TrainConfig(1e3, 8, 50, LossConfig(100.0), seed=3))

    def test_empty_dataset(self):
        net = build_network(self._specs(), 0.5, seed=505)
        with pytest.raises(ValueError):
            train(net, [], TrainConfig(1e-3, 8, 1, LossConfig(1.0), seed=1))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(-1e-3, 8, 1, LossConfig(1.0), seed=1)
        with pytest.raises(ValueError):
            TrainConfig(1e-3, 0, 1, LossConfig(1.0), seed=1)
        with pytest.raises(ValueError):
            TrainConfig(1e-3, 8, 0, LossConfig(1.0), seed=1)
        with pytest.raises(ValueError):
            TrainConfig(1e-3, 8, 1, LossConfig(1.0), seed=1, momentum=1.0)


class TestCheckpoint:
    def test_file_is_json_dumps_of_the_document(self, tmp_path):
        net = pose_network(4, (5,), 0.5, seed=1)
        path = tmp_path / "net.json"
        save_checkpoint(path, net)
        doc = {
            "format": CHECKPOINT_FORMAT,
            "dropout_p": 0.5,
            "seed": 1,
            "layers": [
                {
                    "input_width": layer.spec.input_width,
                    "output_width": layer.spec.output_width,
                    "has_dropout": layer.spec.has_dropout,
                    "activation": layer.spec.activation,
                    "weights": layer.weights.tolist(),
                    "bias": layer.bias.tolist(),
                }
                for layer in net.layers
            ],
        }
        with open(path, encoding="utf-8", newline="") as f:
            assert f.read() == json.dumps(doc) + "\n"

    @pytest.mark.parametrize(
        "value", [[1.0, [2.0], {"a": [1]}], [], [[], [1.5]], {"k": [{"a": 1}, 2.5]}]
    )
    def test_write_json_writes_json_dumps(self, value):
        f = io.StringIO()
        _write_json(f, value)
        assert f.getvalue() == json.dumps(value)

    def test_round_trip(self, tmp_path):
        net = pose_network(9, (20, 14), 0.5, seed=600)
        path = tmp_path / "net.json"
        save_checkpoint(path, net)
        again = load_checkpoint(path)
        assert again.dropout_p == net.dropout_p
        assert again.seed == net.seed
        assert len(again.layers) == len(net.layers)
        for la, lb in zip(net.layers, again.layers):
            assert la.spec == lb.spec
            np.testing.assert_array_equal(la.weights, lb.weights)
            np.testing.assert_array_equal(la.bias, lb.bias)
        # the restored network must behave identically
        rng = np.random.default_rng(5)
        x = rng.normal(size=9)
        mask = draw_mask(net, 12, 0)
        np.testing.assert_array_equal(forward(net, x, mask), forward(again, x, mask))

    def test_wrong_format_tag(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text('{"format": "bayesreloc-net-v99", "layers": []}')
        with pytest.raises(ParseError):
            load_checkpoint(path)
        path.write_text("[]")
        with pytest.raises(ParseError):
            load_checkpoint(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text("{oops")
        with pytest.raises(ParseError) as info:
            load_checkpoint(path)
        assert "line" in str(info.value)

    def test_shape_corruption_detected(self, tmp_path):
        net = build_network([LayerSpec(3, 7, activation="identity")], 0.0, seed=601)
        path = tmp_path / "net.json"
        save_checkpoint(path, net)
        text = path.read_text().replace('"input_width": 3', '"input_width": 4')
        path.write_text(text)
        with pytest.raises(ParseError):
            load_checkpoint(path)


    def _saved_doc(self, tmp_path):
        net = build_network(
            [LayerSpec(4, 6), LayerSpec(6, 7, has_dropout=True, activation="identity")],
            0.5,
            seed=603,
        )
        path = tmp_path / "net.json"
        save_checkpoint(path, net)
        return path, json.loads(path.read_text())

    def _rejects(self, path, doc):
        path.write_text(json.dumps(doc) + "\n")
        with pytest.raises(ParseError):
            load_checkpoint(path)

    def test_dropout_rate_out_of_range(self, tmp_path):
        path, doc = self._saved_doc(tmp_path)
        doc["dropout_p"] = 1.5
        self._rejects(path, doc)

    def test_non_finite_weights(self, tmp_path):
        path, doc = self._saved_doc(tmp_path)
        doc["layers"][0]["weights"][1][2] = float("nan")
        self._rejects(path, doc)

    def test_widths_that_do_not_chain(self, tmp_path):
        # every layer's own shapes agree; only the chain 4x6 -> 5x7 breaks
        path, doc = self._saved_doc(tmp_path)
        last = doc["layers"][1]
        last["input_width"] = 5
        last["weights"] = [row[:5] for row in last["weights"]]
        self._rejects(path, doc)

    def test_reads_older_file_with_null_aux(self, tmp_path):
        # files written before the auxiliary head was removed end in "aux": null
        path, doc = self._saved_doc(tmp_path)
        older = tmp_path / "older.json"
        older.write_text(json.dumps({**doc, "aux": None}) + "\n")
        again, net = load_checkpoint(older), load_checkpoint(path)
        assert (again.dropout_p, again.seed) == (net.dropout_p, net.seed)
        for la, lb in zip(net.layers, again.layers):
            assert la.spec == lb.spec
            np.testing.assert_array_equal(la.weights, lb.weights)
            np.testing.assert_array_equal(la.bias, lb.bias)

    def test_rejects_aux_head(self, tmp_path):
        path, doc = self._saved_doc(tmp_path)
        doc["aux"] = {"after_layer": 0, "has_dropout": True, "weights": [[0.0] * 6] * 7, "bias": [0.0] * 7}
        path.write_text(json.dumps(doc) + "\n")
        with pytest.raises(ParseError, match="aux"):
            load_checkpoint(path)

    def test_bytes_match_json_dump(self, tmp_path):
        # the piecewise writer must give the bytes json.dump writes
        path, doc = self._saved_doc(tmp_path)
        buf = io.StringIO()
        json.dump(doc, buf)
        assert path.read_text() == buf.getvalue() + "\n"

