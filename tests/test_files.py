"""Corrupted files never load: every reader raises ParseError.

Each case takes a writer's own output and applies one corruption from a
fixed list.  Text tables and JSON syntax errors must name the line;
nothing may surface as a bare KeyError, TypeError or IndexError.  The
text-table writers are also pinned to their exact bytes.
"""

import json
import re

import numpy as np
import pytest

from bayesreloc.calibration import calibrate, load_calibration, save_calibration
from bayesreloc.detector import ConfusionMatrix, format_confusion
from bayesreloc.errors import ParseError
from bayesreloc.geometry import Pose, UnitQuaternion, Vec3
from bayesreloc.harness import (
    EVAL_TABLE_FORMAT,
    EvalReport,
    EvalSummary,
    HistogramReport,
    HistogramRow,
    QueryRecord,
    SweepReport,
    SweepRow,
    read_query_table,
    write_histogram,
    write_query_table,
    write_sweep,
)
from bayesreloc.regressor import load_checkpoint, pose_network, save_checkpoint
from bayesreloc.scenes import (
    DATA_FORMAT,
    Example,
    SceneSpec,
    generate_scene,
    load_examples,
    load_scene_spec,
    save_examples,
    save_scene_spec,
)


def _write_dataset(path):
    ds = generate_scene(SceneSpec("files", feature_dim=4, nuisance_dim=1, generator_seed=5), 4, 8, 2)
    save_examples(path, ds.train, 4)


def _write_query_table(path):
    q = UnitQuaternion(1.0, 0.0, 0.0, 0.0)
    records = [
        QueryRecord(f"q-{i}", Pose(Vec3(i, 0.5, 1.0), q), Pose(Vec3(i + 0.25, 0.5, 1.0), q),
                    0.25, 1.5, 0.02, 0.003, 0.4, 0.6, 0.5, 2.0)
        for i in range(3)
    ]
    write_query_table(path, EvalReport(records, EvalSummary(0.25, 1.5, {}, 8, 0, 3)))


def _write_calibration(path):
    rng = np.random.default_rng(90)
    model = calibrate(rng.gamma(2.0, 1.5, size=(60, 2)), "files", rng.uniform(0.0, 10.0, size=(60, 3)))
    save_calibration(path, model)


# name: (writer, reader, format tag for text tables, or for JSON: a required
# field, the path of a number, and a field with a wrongly typed value)
FORMATS = {
    "dataset": (_write_dataset, load_examples, DATA_FORMAT),
    "query_table": (_write_query_table, read_query_table, EVAL_TABLE_FORMAT),
    "scene_spec": (
        lambda p: save_scene_spec(p, SceneSpec("files", feature_dim=4)),
        load_scene_spec,
        ("feature_dim", ["extent", 0, 1], ("feature_dim", "4")),
    ),
    "calibration": (
        _write_calibration,
        load_calibration,
        ("trans_trend", ["trans_trend", 1], ("population_size", 60.0)),
    ),
    "checkpoint": (
        lambda p: save_checkpoint(p, pose_network(4, (5,), 0.5, seed=1)),
        load_checkpoint,
        ("layers", ["layers", 0, "weights", 0, 0], ("seed", "1")),
    ),
}
TEXT_CORRUPTIONS = ["drop_tag", "empty", "truncate_line", "drop_column", "nan", "inf", "x", "0xff"]
JSON_CORRUPTIONS = [
    "drop_tag", "non_object", "empty", "truncate_line", "drop_field", "nan", "inf", "huge_int", "x", "0xff",
    "wrong_type",
]
CASES = [(f, c) for f, spec in FORMATS.items()
         for c in (TEXT_CORRUPTIONS if isinstance(spec[2], str) else JSON_CORRUPTIONS)]
# Line 3 holds the first row of both text tables.
ROW = 3
# Written with surrogateescape, this character becomes the byte 0xff,
# which no UTF-8 text holds.
BYTE_FF = "\udcff"


def _set(doc, path, value):
    *parents, last = path
    for key in parents:
        doc = doc[key]
    doc[last] = value


def _corrupt_text(text, tag, corruption):
    lines = text.splitlines(keepends=True)
    row = lines[ROW - 1].rstrip("\n")
    sep = "\t" if "\t" in row else " "
    fields = row.split(sep)
    if corruption == "drop_tag":
        lines[0] = lines[0].replace(tag, "")
    elif corruption == "empty":
        return "", 1
    elif corruption == "truncate_line":
        lines[ROW - 1] = row[: len(row) // 2] + "\n"
    elif corruption == "drop_column":
        lines[ROW - 1] = sep.join(fields[:2] + fields[3:]) + "\n"
    else:
        fields[2] = BYTE_FF if corruption == "0xff" else corruption
        lines[ROW - 1] = sep.join(fields) + "\n"
    return "".join(lines), 1 if corruption == "drop_tag" else ROW


def _corrupt_json(text, spec, corruption):
    """The corrupted text, and the line of its syntax error (None if it has none)."""
    required, number, (typed_key, typed_value) = spec
    if corruption == "empty":
        return "", 1
    if corruption == "non_object":
        return "[]\n", None
    if corruption == "truncate_line":
        cut = text[: len(text) // 2]
        return cut, cut.count("\n") + 1
    if corruption in ("x", "0xff"):
        first = re.search(r"\d+\.\d+", text)
        bad = BYTE_FF if corruption == "0xff" else "x"
        return text[: first.start()] + bad + text[first.end():], text.count("\n", 0, first.start()) + 1
    doc = json.loads(text)
    if corruption == "drop_tag":
        del doc["format"]
    elif corruption == "drop_field":
        del doc[required]
    elif corruption == "wrong_type":
        doc[typed_key] = typed_value
    else:
        _set(doc, number, 10**400 if corruption == "huge_int" else float(corruption))
    return json.dumps(doc, indent=2), None


@pytest.mark.parametrize("fmt, corruption", CASES, ids=[f"{f}-{c}" for f, c in CASES])
def test_corrupted_file_is_rejected(tmp_path, fmt, corruption):
    write, read, spec = FORMATS[fmt]
    path = tmp_path / "file"
    write(path)
    read(path)  # the writer's own output loads
    corrupt = _corrupt_text if isinstance(spec, str) else _corrupt_json
    text, line = corrupt(path.read_text(), spec, corruption)
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    with pytest.raises(ParseError) as e:
        read(path)
    assert e.value.line == line
    if corruption == "0xff":
        assert "not UTF-8: byte 0xff" in str(e.value)
    if corruption == "drop_field":
        assert repr(spec[0]) in str(e.value)
    if corruption == "wrong_type":
        assert repr(spec[2][0]) in str(e.value)


@pytest.mark.parametrize(
    "fmt, path, value",
    [
        ("checkpoint", ["layers", 0, "has_dropout"], "false"),
        ("checkpoint", ["seed"], 1.9),
        ("calibration", ["population_size"], 9.9),
        ("scene_spec", ["feature_dim"], 32.7),
        ("scene_spec", ["generator_seed"], True),
        ("scene_spec", ["noise_sigma"], 10**400),
    ],
    ids=["has_dropout_string", "seed_float", "population_float", "feature_dim_float", "seed_bool", "huge_int"],
)
def test_mistyped_value_names_its_field(tmp_path, fmt, path, value):
    # Each of these once loaded, coerced: bool("false") is True, int(1.9) is 1.
    write, read, _ = FORMATS[fmt]
    file = tmp_path / "file"
    write(file)
    doc = json.loads(file.read_text())
    _set(doc, path, value)
    file.write_text(json.dumps(doc))
    with pytest.raises(ParseError, match=repr(path[-1])):
        read(file)


# Golden bytes of each text-table writer on hand-built inputs: a float that
# needs 17 digits, a negative zero, an int held in a float field (written
# as a float) and the int columns of the sweep (written as ints).
SEVENTEEN = 0.1 + 0.2
Q_ID = UnitQuaternion(1.0, 0.0, 0.0, 0.0)
Q_X = UnitQuaternion(0.0, -1.0, 0.0, 0.0)


def test_dataset_bytes(tmp_path):
    examples = [
        Example("g-0", np.array([SEVENTEEN, -0.0]), Pose(Vec3(2, -0.0, 2.5), Q_ID)),
        Example("g-1", np.array([1e-300, 12345678.9]), Pose(Vec3(SEVENTEEN, 100.0, 1e22), Q_X)),
    ]
    save_examples(tmp_path / "d.txt", examples, 2)
    assert (tmp_path / "d.txt").read_bytes() == (
        b"bayesreloc-data-v1 feature_dim=2\n"
        b"# query_id tx ty tz qw qx qy qz f1..fD\n"
        b"g-0 2.0 -0.0 2.5 1.0 0.0 0.0 0.0 0.30000000000000004 -0.0\n"
        b"g-1 0.30000000000000004 100.0 1e+22 0.0 -1.0 0.0 0.0 1e-300 12345678.9\n"
    )


def test_query_table_bytes(tmp_path):
    records = [
        QueryRecord("q-0", Pose(Vec3(2, 0.5, -0.0), Q_ID), Pose(Vec3(SEVENTEEN, 0.5, 1.0), Q_X),
                    0.25, 1.5, 0.02, 0.003, 0.4, 0.6, 0.5, 2),
    ]
    write_query_table(tmp_path / "q.tsv", EvalReport(records, EvalSummary(0.25, 1.5, {}, 8, 0, 1)))
    assert (tmp_path / "q.tsv").read_bytes() == (
        b"# bayesreloc-eval-v1\n"
        b"query_id\ttrue_px\ttrue_py\ttrue_pz\ttrue_qw\ttrue_qx\ttrue_qy\ttrue_qz"
        b"\test_px\test_py\test_pz\test_qw\test_qx\test_qy\test_qz"
        b"\ttrans_error_m\trot_error_deg\ttrans_trace\trot_trace"
        b"\tz_trans\tz_rot\tz_combined\tnn_feature_distance\n"
        b"q-0\t2.0\t0.5\t-0.0\t1.0\t0.0\t0.0\t0.0"
        b"\t0.30000000000000004\t0.5\t1.0\t0.0\t-1.0\t0.0\t0.0"
        b"\t0.25\t1.5\t0.02\t0.003\t0.4\t0.6\t0.5\t2.0\n"
    )


def test_sweep_bytes(tmp_path):
    rows = [SweepRow(0, 1.5, 0.0, 2, -0.0, 1), SweepRow(40, SEVENTEEN, 1e-05, 3.25, 0.125, 8)]
    write_sweep(tmp_path / "s.tsv", SweepReport(rows, seed=7))
    assert (tmp_path / "s.tsv").read_bytes() == (
        b"# bayesreloc-sweep-v1 seed=7\n"
        b"# repetitions re-randomize mask seeds only\n"
        b"num_samples\tmean_median_trans_m\tstd_median_trans_m"
        b"\tmean_median_rot_deg\tstd_median_rot_deg\trepetitions\n"
        b"0\t1.5\t0.0\t2.0\t-0.0\t1\n"
        b"40\t0.30000000000000004\t1e-05\t3.25\t0.125\t8\n"
    )


def test_histogram_bytes(tmp_path):
    rows = [HistogramRow(-0.0, 0.0, 1 / 3), HistogramRow(5, SEVENTEEN, 1.0)]
    write_histogram(tmp_path / "h.tsv", HistogramReport(rows, query_count=3))
    assert (tmp_path / "h.tsv").read_bytes() == (
        b"# bayesreloc-hist-v1 query_count=3\n"
        b"threshold\tfrac_trans_le\tfrac_rot_le\n"
        b"-0.0\t0.0\t0.3333333333333333\n"
        b"5.0\t0.30000000000000004\t1.0\n"
    )


def test_confusion_text():
    matrix = ConfusionMatrix(["a", "b"], np.array([[2, 0], [1, 1]]))
    assert format_confusion(matrix) == (
        "# bayesreloc-confusion-v1\n"
        "true\\pred\ta\tb\n"
        "a\t2\t0\n"
        "b\t1\t1\n"
        "accuracy 0.75\n"
    )
