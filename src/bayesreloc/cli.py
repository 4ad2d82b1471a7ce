"""Command-line pipeline: generate scenes, train, calibrate, evaluate, detect.

Exit codes: 0 success, 1 usage error, 2 data error (unreadable or
mismatched files), 3 numerical failure (divergence, degenerate values,
non-convergent fits).  Diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import sys

from .calibration import load_calibration, save_calibration
from .detector import SceneModel, confusion, format_confusion
from .errors import (
    DegenerateMean,
    DegenerateQuaternion,
    InsufficientPopulation,
    InsufficientVariance,
    InvalidArchitecture,
    InvalidSpec,
    NoConvergence,
    NonFiniteLoss,
    NonPositiveValue,
    ParseError,
    ShapeMismatch,
)
from .geometry import LossConfig
from .harness import (
    _histogram_thresholds,
    _sweep_counts,
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
from .mc_posterior import MAX_NUM_SAMPLES
from .regressor import TrainConfig, load_checkpoint, pose_network, save_checkpoint, train
from .scenes import MIN_CALIB_EXAMPLES, SceneSpec, generate_scene, load_dataset, load_scene_spec, save_dataset

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

_DATA_ERRORS = (
    ParseError,
    ShapeMismatch,
    InvalidSpec,
    InvalidArchitecture,
    InsufficientPopulation,
    NonPositiveValue,
    OSError,
    ValueError,
)
_NUMERIC_ERRORS = (
    NonFiniteLoss,
    NoConvergence,
    DegenerateQuaternion,
    DegenerateMean,
    InsufficientVariance,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v.strip()]
    except ValueError as e:
        raise _UsageError(f"{flag} expects comma-separated integers: {e}") from e


def _float_list(text: str, flag: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError as e:
        raise _UsageError(f"{flag} expects comma-separated numbers: {e}") from e


def _bounded_int(lo: int, hi: int | None = None):
    """An argparse type: an integer no less than lo (and no more than hi)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
        if value < lo or (hi is not None and value > hi):
            bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    return parse


def _fraction(text: str) -> float:
    """An argparse type: a number in [0, 1)."""
    value = float(text)
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1), got {value!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="root seed (default 0)")
    # Monte Carlo commands only: the others would accept and ignore it.
    sampled = _Parser(add_help=False, parents=[common])
    sampled.add_argument(
        "--samples",
        type=_bounded_int(1, MAX_NUM_SAMPLES),
        default=40,
        help=f"Monte Carlo samples per query, 1 to {MAX_NUM_SAMPLES} (default 40)",
    )

    parser = _Parser(prog="bayesreloc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # gen's own --seed defaults to None, so a --seed given with --spec can be told apart.
    p = sub.add_parser("gen", help="generate a synthetic scene dataset")
    p.add_argument("--scene-id", help="scene identifier (defaults from --spec)")
    p.add_argument("--spec", help="scene spec JSON to regenerate from")
    p.add_argument("--seed", type=int, default=None, help="generator seed (default 0)")
    p.add_argument("--train", type=_bounded_int(1), default=2000)
    p.add_argument("--calib", type=_bounded_int(MIN_CALIB_EXAMPLES), default=200)
    p.add_argument("--test", type=_bounded_int(1), default=400)
    p.add_argument("--aliasing-period", type=float, default=None)
    p.add_argument("--out", required=True, help="output dataset directory")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("train", parents=[common], help="train a pose regressor")
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--hidden", default="128,128", help="hidden widths, comma-separated")
    p.add_argument("--dropout", type=_fraction, default=0.5)
    p.add_argument("--epochs", type=_bounded_int(1), default=600)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--batch", type=_bounded_int(1), default=32)
    p.add_argument("--beta", type=float, default=50.0)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--out", required=True, help="checkpoint file")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("calibrate", parents=[sampled], help="fit per-scene gamma calibration")
    p.add_argument("--net", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="calibration file")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("eval", parents=[sampled], help="evaluate on the test split")
    p.add_argument("--net", required=True)
    p.add_argument("--cal", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True, help="output prefix (.summary.json, .queries.tsv)")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", parents=[common], help="median error vs sample count")
    p.add_argument("--net", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--counts", default="1,5,40,128")
    p.add_argument("--reps", type=_bounded_int(1), default=8)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    # hist draws nothing at random, so it takes no --seed either.
    p = sub.add_parser("hist", help="cumulative error histogram from an eval table")
    p.add_argument("--table", required=True, help="per-query table from eval")
    p.add_argument("--thresholds", default="0.5,1,2,5,10")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_hist)

    p = sub.add_parser("detect", parents=[sampled], help="scene recognition confusion matrix")
    p.add_argument(
        "--scene",
        nargs=4,
        metavar=("ID", "NET", "CAL", "DATA"),
        action="append",
        required=True,
        help="one candidate scene (repeat for each)",
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("time", parents=[sampled], help="wall-clock statistics per query")
    p.add_argument("--net", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--min-queries", type=_bounded_int(1), default=100)
    p.add_argument("--out", default=None, help="optional output file")
    p.set_defaults(func=_cmd_time)

    return parser


def _cmd_gen(args) -> int:
    if args.spec:
        for flag, value in (("--seed", args.seed), ("--aliasing-period", args.aliasing_period)):
            if value is not None:
                raise _UsageError(f"{flag} cannot be given with --spec, which fixes it")
        spec = load_scene_spec(args.spec)
        if args.scene_id and args.scene_id != spec.scene_id:
            raise _UsageError(f"--scene-id {args.scene_id!r} conflicts with spec {spec.scene_id!r}")
    else:
        if not args.scene_id:
            raise _UsageError("gen needs --scene-id (or --spec)")
        try:
            spec = SceneSpec(
                scene_id=args.scene_id,
                generator_seed=0 if args.seed is None else args.seed,
                aliasing_period=args.aliasing_period,
            )
        except InvalidSpec as e:
            raise _UsageError(f"--scene-id or --aliasing-period: {e}") from e
    dataset = generate_scene(spec, args.train, args.calib, args.test)
    save_dataset(args.out, dataset)
    print(
        f"wrote scene {spec.scene_id!r} to {args.out} "
        f"(train={args.train} calib={args.calib} test={args.test})"
    )
    return EXIT_OK


def _cmd_train(args) -> int:
    hidden = _int_list(args.hidden, "--hidden")
    if not hidden or min(hidden) < 1:
        raise _UsageError(f"--hidden needs one or more positive widths, got {args.hidden!r}")
    try:
        config = TrainConfig(
            learning_rate=args.lr,
            batch_size=args.batch,
            epochs=args.epochs,
            loss=LossConfig(beta=args.beta),
            seed=args.seed,
            momentum=args.momentum,
        )
    except ValueError as e:
        raise _UsageError(f"--lr, --momentum or --beta: {e}") from e
    dataset = load_dataset(args.data, splits=("train",))
    net = pose_network(dataset.spec.feature_dim, hidden, args.dropout, args.seed)
    examples = [(ex.features, ex.pose) for ex in dataset.train]
    result = train(net, examples, config)
    save_checkpoint(args.out, result.net)
    print(
        f"trained {len(hidden) + 1} layers for {args.epochs} epochs; "
        f"loss {result.epoch_losses[0]:.4f} -> {result.epoch_losses[-1]:.4f}; wrote {args.out}"
    )
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    net = load_checkpoint(args.net)
    dataset = load_dataset(args.data, splits=("calib",))
    model = run_calibration(net, dataset, args.samples, args.seed)
    save_calibration(args.out, model)
    print(
        f"calibrated {model.source_scene!r} on {model.population_size} queries: "
        f"trans k={model.trans.shape:.4g} theta={model.trans.scale:.4g} (ks={model.trans_ks:.3f}), "
        f"rot k={model.rot.shape:.4g} theta={model.rot.scale:.4g} (ks={model.rot_ks:.3f})"
    )
    return EXIT_OK


def _load_scene_model(net_path: str, cal_path: str, scene_id: str) -> SceneModel:
    return SceneModel(
        scene_id=scene_id,
        network=load_checkpoint(net_path),
        calibration=load_calibration(cal_path),
    )


def _cmd_eval(args) -> int:
    # The nearest-neighbour distances need the train split.
    dataset = load_dataset(args.data, splits=("train", "test"))
    model = _load_scene_model(args.net, args.cal, dataset.spec.scene_id)
    report = run_eval(model, dataset, args.samples, args.seed)
    write_summary(args.out + ".summary.json", report)
    write_query_table(args.out + ".queries.tsv", report)
    s = report.summary
    print(
        f"evaluated {s.query_count} queries at {s.num_samples} samples: "
        f"median {s.median_trans_error:.3f} m / {s.median_rot_error_deg:.3f} deg"
    )
    return EXIT_OK


def _cmd_sweep(args) -> int:
    counts = _int_list(args.counts, "--counts")
    if not counts:
        raise _UsageError("--counts needs at least one sample count")
    try:
        swept = _sweep_counts(counts)
    except ValueError as e:
        raise _UsageError(f"--counts: {e}") from e
    net = load_checkpoint(args.net)
    dataset = load_dataset(args.data, splits=("test",))
    sweep = run_sweep(net, dataset, counts, args.reps, args.seed)
    write_sweep(args.out, sweep)
    print(f"swept counts {swept} with {args.reps} repetitions; wrote {args.out}")
    return EXIT_OK


def _cmd_hist(args) -> int:
    thresholds = _float_list(args.thresholds, "--thresholds")
    try:
        _histogram_thresholds(thresholds)
    except ValueError as e:
        raise _UsageError(f"--thresholds: {e}") from e
    records = read_query_table(args.table)
    hist = run_histogram(records, thresholds)
    write_histogram(args.out, hist)
    print(f"histogram over {hist.query_count} queries at {len(thresholds)} thresholds; wrote {args.out}")
    return EXIT_OK


def _cmd_detect(args) -> int:
    models = []
    test_sets = {}
    for scene_id, net_path, cal_path, data_dir in args.scene:
        models.append(_load_scene_model(net_path, cal_path, scene_id))
        dataset = load_dataset(data_dir, splits=("test",))
        if dataset.spec.scene_id != scene_id:
            raise ParseError(
                f"dataset at {data_dir} is for scene {dataset.spec.scene_id!r}, not {scene_id!r}"
            )
        test_sets[scene_id] = [ex.features for ex in dataset.test]
    matrix = confusion(models, test_sets, args.samples, args.seed)
    text = format_confusion(matrix)
    with open(args.out, "w", encoding="utf-8") as f:
        f.write(text)
    sys.stdout.write(text)
    return EXIT_OK


def _cmd_time(args) -> int:
    net = load_checkpoint(args.net)
    dataset = load_dataset(args.data, splits=("test",))
    report = run_timing(net, dataset, args.samples, args.seed, args.min_queries)
    line = (
        f"{report.query_count} queries at {report.num_samples} samples: "
        f"mean {report.mean_s * 1e3:.3f} ms, p50 {report.p50_s * 1e3:.3f} ms, "
        f"p99 {report.p99_s * 1e3:.3f} ms"
    )
    print(line)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(line + "\n")
    return EXIT_OK


def cli(argv: list[str] | None = None) -> int:
    """Run one command; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except _NUMERIC_ERRORS as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except _DATA_ERRORS as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
