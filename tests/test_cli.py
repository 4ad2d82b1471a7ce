"""End-to-end tests for the command-line pipeline and its exit codes."""

import json
import subprocess
import sys

import pytest

from bayesreloc.cli import EXIT_DATA, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, cli
from bayesreloc.scenes import SceneSpec, generate_scene, load_dataset, save_dataset, save_scene_spec


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One generated scene with a trained checkpoint and calibration file.

    Small counts and a narrow network keep this cheap; every CLI test that
    only needs existing artifacts shares these paths.
    """
    root = tmp_path_factory.mktemp("cli")
    paths = {
        "root": root,
        "data": root / "scene_a",
        "net": root / "a.net",
        "cal": root / "a.cal",
    }
    assert cli([
        "gen", "--scene-id", "alpha", "--seed", "3",
        "--train", "150", "--calib", "12", "--test", "10",
        "--out", str(paths["data"]),
    ]) == EXIT_OK
    # Width 24 keeps the chance of a dropout mask zeroing a whole layer
    # (which rightly aborts training) negligible; width 10 would hit it.
    assert cli([
        "train", "--data", str(paths["data"]), "--hidden", "24,24",
        "--epochs", "150", "--seed", "3", "--out", str(paths["net"]),
    ]) == EXIT_OK
    assert cli([
        "calibrate", "--net", str(paths["net"]), "--data", str(paths["data"]),
        "--samples", "8", "--seed", "4", "--out", str(paths["cal"]),
    ]) == EXIT_OK
    return paths


class TestSmokePipeline:
    def test_artifacts_exist(self, pipeline):
        assert (pipeline["data"] / "spec.json").exists() or any(pipeline["data"].iterdir())
        assert pipeline["net"].exists()
        assert pipeline["cal"].exists()

    def test_calibration_carries_pose_trend(self, pipeline):
        doc = json.loads(pipeline["cal"].read_text())
        assert doc["format"] == "bayesreloc-cal-v2"
        assert len(doc["trans_trend"]) == len(doc["rot_trend"]) == 4
        assert any(c != 0.0 for c in doc["trans_trend"][1:])
        assert doc["trans_residual"]["shape"] > 0.0

    def test_eval_writes_summary_and_table(self, pipeline):
        out = pipeline["root"] / "eval_a"
        code = cli([
            "eval", "--net", str(pipeline["net"]), "--cal", str(pipeline["cal"]),
            "--data", str(pipeline["data"]), "--samples", "5", "--seed", "9",
            "--out", str(out),
        ])
        assert code == EXIT_OK
        summary = json.loads((pipeline["root"] / "eval_a.summary.json").read_text())
        assert summary["format"] == "bayesreloc-report-v2"
        assert summary["query_count"] == 10
        table = (pipeline["root"] / "eval_a.queries.tsv").read_text()
        assert table.startswith("# bayesreloc-eval-v1\n")

    def test_eval_tables_byte_identical_across_runs(self, pipeline):
        args = [
            "eval", "--net", str(pipeline["net"]), "--cal", str(pipeline["cal"]),
            "--data", str(pipeline["data"]), "--samples", "5", "--seed", "14",
        ]
        assert cli(args + ["--out", str(pipeline["root"] / "rep1")]) == EXIT_OK
        assert cli(args + ["--out", str(pipeline["root"] / "rep2")]) == EXIT_OK
        for suffix in (".queries.tsv", ".summary.json"):
            first = (pipeline["root"] / f"rep1{suffix}").read_bytes()
            assert first == (pipeline["root"] / f"rep2{suffix}").read_bytes()

    def test_sweep(self, pipeline):
        out = pipeline["root"] / "sweep.tsv"
        code = cli([
            "sweep", "--net", str(pipeline["net"]), "--data", str(pipeline["data"]),
            "--counts", "1,3", "--reps", "2", "--seed", "5", "--out", str(out),
        ])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# bayesreloc-sweep-v1")
        assert len(lines) == 3 + 3  # header block plus counts 0, 1, 3

    def test_hist_from_eval_table(self, pipeline):
        out = pipeline["root"] / "eval_h"
        assert cli([
            "eval", "--net", str(pipeline["net"]), "--cal", str(pipeline["cal"]),
            "--data", str(pipeline["data"]), "--samples", "4", "--out", str(out),
        ]) == EXIT_OK
        hist = pipeline["root"] / "hist.tsv"
        code = cli([
            "hist", "--table", str(pipeline["root"] / "eval_h.queries.tsv"),
            "--thresholds", "0.5,1,2,5,10", "--out", str(hist),
        ])
        assert code == EXIT_OK
        assert hist.read_text().startswith("# bayesreloc-hist-v1")

    def test_time(self, pipeline):
        out = pipeline["root"] / "time.txt"
        code = cli([
            "time", "--net", str(pipeline["net"]), "--data", str(pipeline["data"]),
            "--samples", "4", "--min-queries", "12", "--out", str(out),
        ])
        assert code == EXIT_OK
        assert "p99" in out.read_text()

    def test_gen_from_spec_file(self, pipeline):
        spec = SceneSpec(scene_id="beta", generator_seed=8, feature_dim=8)
        spec_path = pipeline["root"] / "beta.json"
        save_scene_spec(spec_path, spec)
        out = pipeline["root"] / "scene_beta"
        code = cli([
            "gen", "--spec", str(spec_path), "--train", "20", "--calib", "8",
            "--test", "5", "--out", str(out),
        ])
        assert code == EXIT_OK
        assert load_dataset(out).spec == spec

    def test_gen_seed_defaults_to_zero(self, pipeline, tmp_path):
        assert load_dataset(pipeline["data"]).spec == SceneSpec("alpha", generator_seed=3)
        out = tmp_path / "d"
        argv = ["--scene-id", "g", "--train", "4", "--calib", "8", "--test", "2", "--out", str(out)]
        assert cli(["gen", *argv]) == EXIT_OK
        assert load_dataset(out).spec == SceneSpec("g", generator_seed=0)

    def test_detect_two_scenes(self, pipeline):
        root = pipeline["root"]
        data_b = root / "scene_b"
        net_b = root / "b.net"
        cal_b = root / "b.cal"
        assert cli([
            "gen", "--scene-id", "bravo", "--seed", "11",
            "--train", "150", "--calib", "12", "--test", "10", "--out", str(data_b),
        ]) == EXIT_OK
        assert cli([
            "train", "--data", str(data_b), "--hidden", "24,24",
            "--epochs", "150", "--seed", "12", "--out", str(net_b),
        ]) == EXIT_OK
        assert cli([
            "calibrate", "--net", str(net_b), "--data", str(data_b),
            "--samples", "8", "--seed", "13", "--out", str(cal_b),
        ]) == EXIT_OK
        out = root / "confusion.txt"
        code = cli([
            "detect",
            "--scene", "alpha", str(pipeline["net"]), str(pipeline["cal"]), str(pipeline["data"]),
            "--scene", "bravo", str(net_b), str(cal_b), str(data_b),
            "--samples", "6", "--seed", "2", "--out", str(out),
        ])
        assert code == EXIT_OK
        text = out.read_text()
        assert "alpha" in text and "bravo" in text

    def test_console_script_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bayesreloc.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "gen" in proc.stdout and "detect" in proc.stdout


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert cli(["frobnicate"]) == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err

    def test_gen_needs_scene_id_or_spec(self, tmp_path, capsys):
        assert cli(["gen", "--out", str(tmp_path / "d")]) == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err

    def test_gen_scene_id_conflicts_with_spec(self, pipeline, capsys):
        spec_path = pipeline["root"] / "gamma.json"
        save_scene_spec(spec_path, SceneSpec(scene_id="gamma", feature_dim=8))
        code = cli([
            "gen", "--spec", str(spec_path), "--scene-id", "delta",
            "--out", str(pipeline["root"] / "nope"),
        ])
        assert code == EXIT_USAGE
        assert "conflicts" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--seed", "0"), ("--aliasing-period", "3.0")])
    def test_gen_spec_fixes_flag(self, tmp_path, capsys, flag, value):
        # the spec file fixes both; a flag that would be ignored is refused
        spec_path = tmp_path / "scene.json"
        save_scene_spec(spec_path, SceneSpec(scene_id="gamma", feature_dim=8))
        code = cli(["gen", "--spec", str(spec_path), flag, value, "--out", str(tmp_path / "d")])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "usage error" in err and flag in err and "--spec" in err
        assert not (tmp_path / "d").exists()

    def test_missing_required_flag(self, capsys):
        assert cli(["train", "--data", "somewhere"]) == EXIT_USAGE
        capsys.readouterr()

    def test_hidden_must_parse_as_integers(self, pipeline, capsys):
        code = cli([
            "train", "--data", str(pipeline["data"]), "--hidden", "12,potato",
            "--out", str(pipeline["root"] / "x.net"),
        ])
        assert code == EXIT_USAGE
        assert "comma-separated" in capsys.readouterr().err

    def test_aux_after_is_not_an_option(self, pipeline, capsys):
        code = cli([
            "train", "--data", str(pipeline["data"]), "--aux-after", "0",
            "--out", str(pipeline["root"] / "x.net"),
        ])
        assert code == EXIT_USAGE
        assert "--aux-after" in capsys.readouterr().err

    def test_empty_hidden_list(self, pipeline, capsys):
        code = cli([
            "train", "--data", str(pipeline["data"]), "--hidden", ",",
            "--out", str(pipeline["root"] / "x.net"),
        ])
        assert code == EXIT_USAGE
        capsys.readouterr()

    def test_unsorted_thresholds(self, pipeline, capsys):
        code = cli([
            "hist", "--table", str(pipeline["root"] / "eval_a.queries.tsv"),
            "--thresholds", "5,1", "--out", str(pipeline["root"] / "h2.tsv"),
        ])
        assert code == EXIT_USAGE
        assert "sorted" in capsys.readouterr().err


    def test_empty_thresholds(self, tmp_path, capsys):
        # Flags are checked before the table is read.
        code = cli([
            "hist", "--table", str(tmp_path / "absent.tsv"),
            "--thresholds", ",", "--out", str(tmp_path / "h.tsv"),
        ])
        assert code == EXIT_USAGE
        assert "--thresholds" in capsys.readouterr().err

    @pytest.mark.parametrize("thresholds", ["nan,1", "1,nan", "nan"])
    def test_nan_thresholds(self, tmp_path, capsys, thresholds):
        code = cli([
            "hist", "--table", str(tmp_path / "absent.tsv"),
            "--thresholds", thresholds, "--out", str(tmp_path / "h.tsv"),
        ])
        assert code == EXIT_USAGE
        assert "--thresholds" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--train", "--calib", "--aliasing-period", "--scene-id"])
    def test_bad_gen_flag(self, tmp_path, capsys, flag):
        # a bad value, and what the message says besides the flag
        value, reason = {
            "--train": ("0", ">= 1"),
            "--calib": ("3", ">= 8"),
            "--aliasing-period": ("-1", "aliasing_period must be positive"),
            "--scene-id": ("a b", "scene_id must be non-empty without whitespace"),
        }[flag]
        flags = {"--scene-id": "g", "--train": "40", "--calib": "10", "--test": "12", flag: value}
        argv = [v for pair in flags.items() for v in pair]
        assert cli(["gen", *argv, "--out", str(tmp_path / "d")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "usage error" in err and flag in err and reason in err
        assert not list(tmp_path.iterdir())

    def test_gen_rejects_hash_in_scene_id(self, tmp_path, capsys):
        # '#' starts a comment in the dataset files, so train could not read them back
        argv = ["--scene-id", "a#b", "--train", "40", "--calib", "10", "--test", "12"]
        assert cli(["gen", *argv, "--out", str(tmp_path / "d")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "usage error" in err and "--scene-id" in err and "'#'" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "flag", ["--epochs", "--batch", "--lr", "--dropout", "--momentum", "--beta", "--hidden"]
    )
    def test_bad_train_flag(self, tmp_path, capsys, flag):
        value, reason = {
            "--epochs": ("0", ">= 1"),
            "--batch": ("0", ">= 1"),
            "--lr": ("nan", "learning_rate must be >= 0"),
            "--dropout": ("1.5", "[0, 1)"),
            "--momentum": ("1", "momentum must be in [0, 1)"),
            "--beta": ("0", "beta must be positive"),
            "--hidden": ("0", "positive widths"),
        }[flag]
        # Flags are checked before the dataset is read; reading this one
        # would be a data error.
        code = cli([
            "train", "--data", str(tmp_path / "absent"), flag, value,
            "--out", str(tmp_path / "x.net"),
        ])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "usage error" in err and flag in err and reason in err

    @pytest.mark.parametrize("samples", ["0", "129"])
    @pytest.mark.parametrize("command", ["calibrate", "eval", "detect", "time"])
    def test_samples_out_of_range(self, pipeline, tmp_path, capsys, command, samples):
        net, cal, data = str(pipeline["net"]), str(pipeline["cal"]), str(pipeline["data"])
        out = str(tmp_path / "out")
        args = {
            "calibrate": ["--net", net, "--data", data, "--out", out],
            "eval": ["--net", net, "--cal", cal, "--data", data, "--out", out],
            "detect": ["--scene", "alpha", net, cal, data, "--scene", "beta", net, cal, data,
                       "--out", out],
            "time": ["--net", net, "--data", data, "--out", out],
        }[command]
        assert cli([command, *args, "--samples", samples]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "usage error" in err and "--samples" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["gen", "train", "sweep", "hist"])
    def test_samples_only_on_sampling_commands(self, pipeline, tmp_path, capsys, command):
        # a flag the command would ignore is a usage error, not a no-op
        net, data = str(pipeline["net"]), str(pipeline["data"])
        out = str(tmp_path / "out")
        args = {
            "gen": ["--scene-id", "g", "--train", "4", "--calib", "8", "--test", "2", "--out", out],
            "train": ["--data", data, "--hidden", "4", "--epochs", "1", "--out", out],
            "sweep": ["--net", net, "--data", data, "--counts", "1", "--reps", "1", "--out", out],
            "hist": ["--table", str(tmp_path / "missing.tsv"), "--out", out],
        }[command]
        assert cli([command, *args, "--samples", "8"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "usage error" in err and "--samples" in err
        assert not list(tmp_path.iterdir())

    def test_sweep_needs_a_repetition(self, pipeline, tmp_path, capsys):
        code = cli([
            "sweep", "--net", str(pipeline["net"]), "--data", str(pipeline["data"]),
            "--reps", "0", "--out", str(tmp_path / "s.tsv"),
        ])
        assert code == EXIT_USAGE
        assert "--reps" in capsys.readouterr().err

    def test_sweep_counts_out_of_range(self, pipeline, tmp_path, capsys):
        code = cli([
            "sweep", "--net", str(pipeline["net"]), "--data", str(pipeline["data"]),
            "--counts", "1,200", "--out", str(tmp_path / "s.tsv"),
        ])
        assert code == EXIT_USAGE
        assert "--counts" in capsys.readouterr().err

    def test_time_needs_at_least_one_query(self, pipeline, capsys):
        code = cli([
            "time", "--net", str(pipeline["net"]), "--data", str(pipeline["data"]),
            "--samples", "2", "--min-queries", "0",
        ])
        assert code == EXIT_USAGE
        assert "--min-queries" in capsys.readouterr().err


class TestDataErrors:
    def test_missing_dataset_directory(self, tmp_path, capsys):
        code = cli([
            "train", "--data", str(tmp_path / "does_not_exist"),
            "--out", str(tmp_path / "x.net"),
        ])
        assert code == EXIT_DATA
        assert "data error" in capsys.readouterr().err

    def test_feature_width_mismatch(self, pipeline, tmp_path, capsys):
        # A checkpoint trained on 32-wide features cannot calibrate a
        # dataset whose features are 8 wide.
        narrow = generate_scene(
            SceneSpec(scene_id="narrow", feature_dim=8, generator_seed=6), 20, 8, 5
        )
        narrow_dir = tmp_path / "narrow"
        save_dataset(narrow_dir, narrow)
        code = cli([
            "calibrate", "--net", str(pipeline["net"]), "--data", str(narrow_dir),
            "--samples", "8", "--out", str(tmp_path / "x.cal"),
        ])
        assert code == EXIT_DATA
        assert "feature_dim" in capsys.readouterr().err

    def test_hist_on_corrupt_table(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("this is not an eval table\n")
        code = cli(["hist", "--table", str(bad), "--out", str(tmp_path / "h.tsv")])
        assert code == EXIT_DATA
        assert "line 1" in capsys.readouterr().err

    @pytest.mark.parametrize("drop", [None, "trans"])
    def test_eval_on_malformed_calibration(self, pipeline, tmp_path, capsys, drop):
        bad = tmp_path / "bad.cal"
        if drop is None:
            bad.write_text("[]\n")
        else:
            doc = json.loads(pipeline["cal"].read_text())
            del doc[drop]
            bad.write_text(json.dumps(doc))
        code = cli([
            "eval", "--net", str(pipeline["net"]), "--cal", str(bad),
            "--data", str(pipeline["data"]), "--samples", "2", "--out", str(tmp_path / "e"),
        ])
        assert code == EXIT_DATA
        assert "data error" in capsys.readouterr().err

    def test_gen_from_spec_missing_extent(self, tmp_path, capsys):
        spec_path = tmp_path / "scene.json"
        save_scene_spec(spec_path, SceneSpec(scene_id="gamma", feature_dim=8))
        doc = json.loads(spec_path.read_text())
        del doc["extent"]
        spec_path.write_text(json.dumps(doc))
        code = cli(["gen", "--spec", str(spec_path), "--out", str(tmp_path / "d")])
        assert code == EXIT_DATA
        assert "extent" in capsys.readouterr().err

    def test_hist_names_the_line_of_a_bad_pose(self, pipeline, tmp_path, capsys):
        assert cli([
            "eval", "--net", str(pipeline["net"]), "--cal", str(pipeline["cal"]),
            "--data", str(pipeline["data"]), "--samples", "2", "--out", str(tmp_path / "e"),
        ]) == EXIT_OK
        table = tmp_path / "e.queries.tsv"
        lines = table.read_text().splitlines(keepends=True)
        parts = lines[3].split("\t")
        parts[1] = "nan"
        lines[3] = "\t".join(parts)
        table.write_text("".join(lines))
        code = cli(["hist", "--table", str(table), "--out", str(tmp_path / "h.tsv")])
        assert code == EXIT_DATA
        assert "line 4" in capsys.readouterr().err

    def test_detect_dataset_scene_mismatch(self, pipeline, capsys):
        code = cli([
            "detect",
            "--scene", "alpha", str(pipeline["net"]), str(pipeline["cal"]), str(pipeline["data"]),
            "--scene", "wrong", str(pipeline["net"]), str(pipeline["cal"]), str(pipeline["data"]),
            "--samples", "4", "--out", str(pipeline["root"] / "c2.txt"),
        ])
        assert code == EXIT_DATA
        capsys.readouterr()


class TestNumericErrors:
    def test_divergent_training_exits_three(self, pipeline, capsys):
        code = cli([
            "train", "--data", str(pipeline["data"]), "--hidden", "10",
            "--epochs", "5", "--lr", "1e3",
            "--out", str(pipeline["root"] / "diverged.net"),
        ])
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert "numerical failure" in err
