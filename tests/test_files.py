"""Corrupted files never load: every reader raises ParseError.

Each case takes a writer's own output and applies one corruption from a
fixed list.  Text tables and JSON syntax errors must name the line;
nothing may surface as a bare KeyError, TypeError or IndexError.
"""

import json
import re

import numpy as np
import pytest

from bayesreloc.calibration import calibrate, load_calibration, save_calibration
from bayesreloc.errors import ParseError
from bayesreloc.geometry import Pose, UnitQuaternion, Vec3
from bayesreloc.harness import (
    EVAL_TABLE_FORMAT,
    EvalReport,
    EvalSummary,
    QueryRecord,
    read_query_table,
    write_query_table,
)
from bayesreloc.regressor import load_checkpoint, pose_network, save_checkpoint
from bayesreloc.scenes import (
    DATA_FORMAT,
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
