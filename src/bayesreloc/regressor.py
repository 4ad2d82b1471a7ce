"""Feed-forward pose regressor with Bernoulli dropout, trained by SGD.

The network maps a feature vector to a raw 7-vector (position plus an
unnormalized quaternion).  Dropout uses the inverted convention: a unit is
dropped with probability p, and surviving activations are scaled by
1 / (1 - p), so the maskless forward pass needs no weight rescaling.
Masks are pure functions of (master_seed, sample_index); training and
Monte Carlo sampling are therefore exactly reproducible.
A mask is one float row per pass: the keep/drop vectors of the dropout
layers end to end, in layer order.  ``draw_mask`` is the reference
derivation of one row, drawn once per pass by one-query Monte Carlo
sampling; ``draw_masks`` hashes the seeds of a run of passes together
and gives the same rows as one block.  Training draws an epoch's rows
in runs of at most 1,024 counters, read across batch boundaries, and
batched Monte Carlo sampling draws the rows of a block of queries the
same way; that block's pass outputs come back as one query-major array,
which ``mc_posterior`` reduces to every query's statistics in one call.
One layer loop serves every pass; it takes masks pre-scaled by
1 / (1 - p), so a dropout layer costs one multiply.  ``train`` stacks
the dataset into arrays once.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass
from typing import Literal, Sequence

import numpy as np

from ._files import field, numbers, read_json
from .errors import (
    DegenerateQuaternion,
    InvalidArchitecture,
    NonFiniteLoss,
    ParseError,
    ShapeMismatch,
)
from .geometry import NORM_FLOOR, LossConfig, Pose
from .seeding import _MAX_ROWS, derive_rng, derive_rngs

POSE_WIDTH = 7
CHECKPOINT_FORMAT = "bayesreloc-net-v1"

Activation = Literal["relu", "identity"]

# A training example: (feature vector, ground-truth pose).
TrainExample = tuple[np.ndarray, Pose]


@dataclass(frozen=True)
class LayerSpec:
    """Width, activation, and dropout placement of one weight layer."""

    input_width: int
    output_width: int
    has_dropout: bool = False
    activation: Activation = "relu"

    def __post_init__(self):
        if self.input_width < 1 or self.output_width < 1:
            raise ValueError(f"layer widths must be >= 1, got {self.input_width}x{self.output_width}")
        if self.activation not in ("relu", "identity"):
            raise ValueError(f"unknown activation {self.activation!r}")


@dataclass
class Layer:
    """One weight layer: weights are (output_width, input_width)."""

    spec: LayerSpec
    weights: np.ndarray
    bias: np.ndarray


@dataclass
class NetworkParams:
    """All learnable state plus the dropout rate and the build seed."""

    layers: list[Layer]
    dropout_p: float
    seed: int

    @property
    def input_width(self) -> int:
        return self.layers[0].spec.input_width

    def copy(self) -> "NetworkParams":
        layers = [Layer(l.spec, l.weights.copy(), l.bias.copy()) for l in self.layers]
        return NetworkParams(layers, self.dropout_p, self.seed)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float
    batch_size: int
    epochs: int
    loss: LossConfig
    seed: int
    momentum: float = 0.9

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0.0):
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate!r}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum!r}")


@dataclass
class NetworkGradients:
    """Per-parameter gradients, congruent to NetworkParams, plus the loss."""

    layers: list[tuple[np.ndarray, np.ndarray]]
    mean_loss: float


@dataclass
class TrainResult:
    net: NetworkParams
    epoch_losses: list[float]


def _check_architecture(specs: Sequence[LayerSpec], dropout_p: float) -> None:
    """Raise unless the layers and dropout rate form a valid network."""
    if len(specs) == 0:
        raise InvalidArchitecture("need at least one layer")
    for prev, nxt in zip(specs, specs[1:]):
        if prev.output_width != nxt.input_width:
            raise InvalidArchitecture(
                f"layer widths do not chain: {prev.output_width} -> {nxt.input_width}"
            )
    last = specs[-1]
    if last.output_width != POSE_WIDTH or last.activation != "identity":
        raise InvalidArchitecture(
            f"final layer must be identity with width {POSE_WIDTH}, "
            f"got {last.activation!r} with width {last.output_width}"
        )
    for i, spec in enumerate(specs):
        if spec.has_dropout and i < len(specs) - 2:
            raise InvalidArchitecture(
                f"dropout is only placed before the final two weight layers; layer {i} has it"
            )
    if not (0.0 <= dropout_p < 1.0):
        raise ValueError(f"dropout_p must be in [0, 1), got {dropout_p!r}")


def build_network(specs: Sequence[LayerSpec], dropout_p: float, seed: int) -> NetworkParams:
    """Initialize a network with uniform Glorot weights and zero biases.

    Weight entries are drawn from U(-a, a) with a = sqrt(6 / (fan_in +
    fan_out)).  The final layer must be identity with width POSE_WIDTH.
    """
    _check_architecture(specs, dropout_p)

    rng = derive_rng(seed)
    layers = []
    for spec in specs:
        limit = math.sqrt(6.0 / (spec.input_width + spec.output_width))
        weights = rng.uniform(-limit, limit, size=(spec.output_width, spec.input_width))
        layers.append(Layer(spec, weights, np.zeros(spec.output_width)))
    return NetworkParams(layers, float(dropout_p), int(seed))


def pose_network(
    input_width: int, hidden: Sequence[int], dropout_p: float, seed: int
) -> NetworkParams:
    """Build the relocalizer's architecture with :func:`build_network`.

    ReLU hidden layers of the given widths feed an identity head of width
    POSE_WIDTH; dropout acts on the inputs of the last two weight layers
    only.  ``hidden=()`` gives a single dropout-then-identity layer.
    """
    widths = [input_width, *hidden, POSE_WIDTH]
    n = len(widths) - 1
    specs = [
        LayerSpec(
            widths[i],
            widths[i + 1],
            has_dropout=i >= n - 2,
            activation="identity" if i == n - 1 else "relu",
        )
        for i in range(n)
    ]
    return build_network(specs, dropout_p, seed)


def _mask_widths(net: NetworkParams) -> list[int]:
    """Mask vector lengths of one pass, one per dropout layer in order."""
    return [layer.spec.input_width for layer in net.layers if layer.spec.has_dropout]


def _split_masks(net: NetworkParams, block: np.ndarray) -> list[np.ndarray]:
    """Views of a mask row or block, one per entry of _mask_widths."""
    vectors, lo = [], 0
    for width in _mask_widths(net):
        vectors.append(block[..., lo : lo + width])
        lo += width
    return vectors


def _keep_scale(net: NetworkParams) -> float:
    """The inverted-dropout factor 1 / (1 - p) of a kept unit."""
    return 1.0 / (1.0 - net.dropout_p)


def _mask_block(net: NetworkParams, rngs, count: int, keep: float = 1.0) -> np.ndarray:
    """Rows from the next ``count`` generators of ``rngs``, one row each
    (the rest stay unread): 0 drops a unit, ``keep`` keeps it."""
    block = np.empty((count, sum(_mask_widths(net))))
    for row, rng in zip(block, rngs):
        rng.random(out=row)
    np.greater_equal(block, net.dropout_p, out=block)
    block *= keep
    return block


def draw_masks(net: NetworkParams, master_seed: int, start: int, count: int) -> np.ndarray:
    """Keep/drop patterns of passes start, ..., start + count - 1 as one block.

    Row j holds :func:`draw_mask` (master_seed, start + j)'s vectors end
    to end, dropout layers in order; 0 drops the unit, 1 keeps it.  The
    block's streams come from :func:`derive_rngs`, which hashes their
    seeds together; training draws an epoch's rows the same way, in runs
    of at most ``_MAX_ROWS`` (1,024) counters.
    """
    return _mask_block(net, derive_rngs([(master_seed,)], start, count), count)


def draw_mask(net: NetworkParams, master_seed: int, sample_index: int) -> np.ndarray:
    """Draw the keep/drop row of one stochastic pass, laid out as a
    :func:`draw_masks` row.

    A pure function of (master_seed, sample_index): the same pair always
    yields the same mask regardless of how calls are ordered or batched.
    This is the reference derivation, one ``derive_rng`` stream per pass.
    One-query sampling (``localize``) draws each pass through it, because
    a block hash costs several single draws up front; batched sampling
    draws the same rows a block of queries at a time.
    """
    row = derive_rng(master_seed, sample_index).random(sum(_mask_widths(net)))
    return (row >= net.dropout_p).astype(float)


def _check_input(net: NetworkParams, x) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.shape != (net.input_width,):
        raise ShapeMismatch(f"input shape {arr.shape} does not match network input ({net.input_width},)")
    return arr


def _check_masks(net: NetworkParams, masks, lead: tuple[int, ...] = ()) -> np.ndarray:
    """A mask row (or block of ``lead`` rows) as an array, checked against the network."""
    arr = np.asarray(masks, dtype=float)
    want = (*lead, sum(_mask_widths(net)))
    if arr.shape != want:
        raise ShapeMismatch(f"mask shape {arr.shape} does not fit dropout inputs {want}")
    return arr


def _propagate(net: NetworkParams, a: np.ndarray, layers: Sequence[Layer], masks, trace=None) -> np.ndarray:
    """The layer loop behind every pass, on one input row or a batch of rows.

    ``masks`` (or None) holds one vector or block per dropout layer among
    ``layers``, pre-scaled: 0 drops a unit and 1 / (1 - p) keeps it.  As
    every unscaled entry is exactly 0 or 1, ``a * m`` rounds as
    ``(a * m01) * (1 / (1 - p))`` does.  ``trace`` collects (input,
    pre-activation, activation).
    """
    mi = 0
    for layer in layers:
        if layer.spec.has_dropout and masks is not None:
            a = a * masks[mi]
            mi += 1
        z = a @ layer.weights.T + layer.bias
        a_out = np.maximum(z, 0.0) if layer.spec.activation == "relu" else z
        if trace is not None:
            trace.append((a, z, a_out))
        a = a_out
    return a


def forward(net: NetworkParams, x, mask: np.ndarray | None = None) -> np.ndarray:
    """One forward pass; a maskless pass is the deterministic baseline.

    ``mask`` is None or one row laid out as :func:`draw_mask` returns it.
    """
    a = _check_input(net, x)
    masks = None if mask is None else _split_masks(net, _check_masks(net, mask) * _keep_scale(net))
    return _propagate(net, a, net.layers, masks)


def _first_dropout(net: NetworkParams) -> int:
    return next((i for i, layer in enumerate(net.layers) if layer.spec.has_dropout), len(net.layers))


def _trunk(net: NetworkParams, x) -> np.ndarray:
    """The maskless activation entering the first dropout layer (the
    output, if there is none): every stochastic pass of ``x`` shares it."""
    return _propagate(net, _check_input(net, x), net.layers[: _first_dropout(net)], None)


def _stochastic_passes(
    net: NetworkParams, trunks: np.ndarray, master_seeds: Sequence[int], count: int
) -> np.ndarray:
    """Outputs of passes 0, ..., count - 1 of each query, query-major, as
    (len(trunks) * count, POSE_WIDTH) rows.

    Query q enters as its :func:`_trunk` row and pass i takes the mask
    :func:`draw_mask` (master_seeds[q], i), whose seeds are hashed
    together by :func:`derive_rngs`.  Each row equals its
    :func:`forward` pass bit for bit: the passes cross the dropout layers
    as a (queries, count, 1, width) stack, for which matmul makes the
    one-row pass's gemv call per pass, where a 2-D block would take gemm.
    """
    a = trunks[:, None, None, :]
    head = net.layers[_first_dropout(net) :]
    if head:
        rngs = derive_rngs([(m,) for m in master_seeds], 0, count)
        masks = _mask_block(net, rngs, len(trunks) * count, _keep_scale(net))
        a = _propagate(net, a, head, _split_masks(net, masks.reshape(len(trunks), count, 1, -1)))
    return np.broadcast_to(a, (len(trunks), count, 1, POSE_WIDTH)).reshape(-1, POSE_WIDTH)


def feature_embedding(net: NetworkParams, x) -> np.ndarray:
    """Activation entering the final layer, computed without masks."""
    return _propagate(net, _check_input(net, x), net.layers[:-1], None)


def _head_gradient(out: np.ndarray, pos: np.ndarray, quat: np.ndarray, beta: float):
    """Row-wise gradient of ||p_hat - p|| + beta * ||q_hat - q|| and the losses.

    Rows sitting exactly at a norm kink get the zero subgradient.
    """
    if np.any(np.linalg.norm(out[:, 3:], axis=1) <= NORM_FLOOR):
        raise DegenerateQuaternion("a predicted raw quaternion collapsed to (near) zero norm")
    d_pos = out[:, :3] - pos
    n_pos = np.linalg.norm(d_pos, axis=1)
    d_quat = out[:, 3:] - quat
    n_quat = np.linalg.norm(d_quat, axis=1)
    grad = np.zeros_like(out)
    rows = n_pos > 0.0
    grad[rows, :3] = d_pos[rows] / n_pos[rows, None]
    rows = n_quat > 0.0
    grad[rows, 3:] = beta * d_quat[rows] / n_quat[rows, None]
    return grad, n_pos + beta * n_quat


def _gradient(net: NetworkParams, x, pos, quat, masks: np.ndarray | None, beta: float) -> NetworkGradients:
    """Gradient of the mean pose loss over the rows of x, pos and quat.

    ``masks`` is None or a block laid out as :func:`draw_masks` returns it,
    one row per example, pre-scaled as :func:`_propagate` takes it.
    """
    n = len(x)
    vectors = None if masks is None else _split_masks(net, masks)

    trace: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    out = _propagate(net, x, net.layers, vectors, trace)
    grad_out, losses = _head_gradient(out, pos, quat, beta)
    grad_out = grad_out / n
    mean_loss = float(losses.mean())

    # Backward.
    grads: list[tuple[np.ndarray, np.ndarray] | None] = [None] * len(net.layers)
    d_act = grad_out
    mi = len(vectors) - 1 if vectors is not None else -1
    for i in reversed(range(len(net.layers))):
        layer = net.layers[i]
        a_in, z, _ = trace[i]
        d_z = d_act * (z > 0.0) if layer.spec.activation == "relu" else d_act
        grads[i] = (d_z.T @ a_in, d_z.sum(axis=0))
        if i == 0:
            break
        d_prev = d_z @ layer.weights
        if layer.spec.has_dropout and vectors is not None:
            d_prev = d_prev * vectors[mi]
            mi -= 1
        d_act = d_prev

    return NetworkGradients(layers=grads, mean_loss=mean_loss)


def _stack_examples(net: NetworkParams, examples: Sequence[TrainExample]):
    """Features, positions and quaternions as arrays, filled row by row
    (np.stack would make a temporary view per example, raising peak memory)."""
    x = np.empty((len(examples), net.input_width))
    poses = np.empty((len(examples), POSE_WIDTH))
    for i, (features, pose) in enumerate(examples):
        x[i] = _check_input(net, features)
        poses[i] = pose.components()
    return x, poses[:, :3], poses[:, 3:]


def loss_gradient(
    net: NetworkParams,
    batch: Sequence[TrainExample],
    masks: np.ndarray | None,
    config: LossConfig,
) -> NetworkGradients:
    """Exact analytic gradient of the mean pose loss over a batch.

    ``masks`` is None or a ``(len(batch), width)`` block laid out as
    :func:`draw_masks` returns it; dropout masks enter as constants.
    """
    if len(batch) == 0:
        raise ValueError("batch must not be empty")
    x, pos, quat = _stack_examples(net, batch)
    if masks is not None:
        masks = _check_masks(net, masks, (len(batch),)) * _keep_scale(net)
    return _gradient(net, x, pos, quat, masks, config.beta)


def _param_arrays(net: NetworkParams) -> list[np.ndarray]:
    return [a for layer in net.layers for a in (layer.weights, layer.bias)]


def _run_rngs(master_seed: int, start: int, count: int):
    """``derive_rng(master_seed, start + j)`` for j < count, hashed in
    runs of at most ``_MAX_ROWS`` counters, so its memory is bounded."""
    for lo in range(0, count, _MAX_ROWS):
        yield from derive_rngs([(master_seed,)], start + lo, min(_MAX_ROWS, count - lo))


def train(net: NetworkParams, dataset: Sequence[TrainExample], config: TrainConfig) -> TrainResult:
    """SGD with momentum; returns updated parameters and per-epoch mean loss.

    The input network is left untouched.  Example order reshuffles every
    epoch from the config seed, and each example's dropout mask comes from
    (seed, global example counter), so a rerun reproduces the exact same
    parameter trajectory.  Epoch e's masks are the :func:`draw_masks`
    rows of counters e * n, ..., e * n + n - 1, read across batches.
    """
    if len(dataset) == 0:
        raise ValueError("dataset must not be empty")
    x, pos, quat = _stack_examples(net, dataset)
    params = net.copy()
    arrays = _param_arrays(params)
    velocity = [np.zeros_like(a) for a in arrays]
    has_dropout = len(_mask_widths(params)) > 0
    keep = _keep_scale(params)
    n = len(dataset)
    epoch_losses = []
    for epoch in range(config.epochs):
        order = derive_rng(config.seed, 0, epoch).permutation(n)
        rngs = _run_rngs(config.seed, epoch * n, n)
        loss_sum = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            masks = _mask_block(params, rngs, len(idx), keep) if has_dropout else None
            grads = _gradient(params, x[idx], pos[idx], quat[idx], masks, config.loss.beta)
            if not math.isfinite(grads.mean_loss):
                raise NonFiniteLoss(f"loss became {grads.mean_loss!r} at epoch {epoch}")
            loss_sum += grads.mean_loss * len(idx)

            # In place, with the roundings of vel = momentum * vel - lr * step.
            steps = [g for pair in grads.layers for g in pair]
            for param, vel, step in zip(arrays, velocity, steps):
                vel *= config.momentum
                step *= config.learning_rate
                vel -= step
                param += vel
        epoch_losses.append(loss_sum / n)
    return TrainResult(net=params, epoch_losses=epoch_losses)


def _layer_to_dict(layer: Layer) -> dict:
    return {**asdict(layer.spec), "weights": layer.weights.tolist(), "bias": layer.bias.tolist()}


def _layer_from_dict(d: dict) -> Layer:
    spec = LayerSpec(
        input_width=field(d, "input_width", int),
        output_width=field(d, "output_width", int),
        has_dropout=field(d, "has_dropout", bool),
        activation=field(d, "activation", str),
    )
    weights = numbers(d, "weights", (spec.output_width, spec.input_width))
    return Layer(spec, weights, numbers(d, "bias", (spec.output_width,)))


def _write_json(f, obj) -> None:
    """Write the text of ``json.dumps(obj)`` piece by piece.

    A list whose first element is a list or dict goes one element at a
    time (the text is json.dumps' either way): json.dumps on a whole
    checkpoint holds every number's text at once (~3 MB for a 128x128
    trunk), and json.dump runs the pure-Python encoder at half the speed.
    """
    if isinstance(obj, dict):
        f.write("{")
        for i, (key, value) in enumerate(obj.items()):
            f.write(f"{', ' if i else ''}{json.dumps(key)}: ")
            _write_json(f, value)
        f.write("}")
    elif isinstance(obj, list) and obj and isinstance(obj[0], (list, dict)):
        f.write("[")
        for i, value in enumerate(obj):
            f.write(", " if i else "")
            _write_json(f, value)
        f.write("]")
    else:
        f.write(json.dumps(obj))


def save_checkpoint(path: str | os.PathLike, net: NetworkParams) -> None:
    doc = {
        "format": CHECKPOINT_FORMAT,
        "dropout_p": net.dropout_p,
        "seed": net.seed,
        "layers": [_layer_to_dict(layer) for layer in net.layers],
    }
    with open(path, "w", encoding="utf-8") as f:
        _write_json(f, doc)
        f.write("\n")


def load_checkpoint(path: str | os.PathLike) -> NetworkParams:
    """Raises ParseError for invalid JSON, a wrong format tag, an auxiliary
    head, a field missing or of the wrong type, non-finite or misshapen
    parameters, or layers and a dropout rate that form no valid network."""
    doc = read_json(path, CHECKPOINT_FORMAT)
    # Earlier files end in "aux": null, which loads; an auxiliary head does not.
    if doc.get("aux") is not None:
        raise ParseError('unsupported checkpoint field "aux": auxiliary heads are not supported')
    try:
        layers = [_layer_from_dict(d) for d in field(doc, "layers", list)]
        net = NetworkParams(layers, field(doc, "dropout_p", float), field(doc, "seed", int))
        _check_architecture([layer.spec for layer in layers], net.dropout_p)
    except (InvalidArchitecture, ValueError) as e:
        raise ParseError(f"invalid checkpoint: {e}") from e
    return net
