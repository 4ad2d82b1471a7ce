"""Smoke check of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/smoke.py

Checks that every workload runs in both modes and prints, as its last line,
the result object BENCHMARK.json describes; that ``--workload all`` runs;
that the tracer reports a function the package no longer has as absent
instead of failing; and that the benchmark refuses to run, printing no
result, in a directory holding only BENCHMARK.json and the benchmark.
Not named test_*.py, so the package's own test suite does not collect it.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train", "query", "offline", "cli")


def _run(args: list[str], cwd: str = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, os.path.join(os.path.relpath(HERE, ROOT), "run.py"), *args]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, check=False, timeout=600)


def _check_result(line: str, names: set[str], where: str) -> None:
    result = json.loads(line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True, f"{where}: output checks failed"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, where
    assert result["failed"] == 0, f"{where}: {result['failed']} operations failed"
    assert set(result["metrics"]) == names, f"{where}: {set(result['metrics']) ^ names}"
    for name, m in result["metrics"].items():
        assert set(m) == {"value", "unit"}, f"{where}: {name}"
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), f"{where}: {name}"


def check_workloads(spec: dict) -> None:
    names = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    for workload in WORKLOADS:
        for trace in (0, 1):
            where = f"{workload} trace {trace}"
            proc = _run(["--workload", workload, "--seed", "3", "--seconds", "1",
                         "--trace", str(trace), "--smoke"])
            assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
            _check_result(proc.stdout.splitlines()[-1], names[trace], where)
            if trace == 0:
                for name in names[0]:
                    value = json.loads(proc.stdout.splitlines()[-1])["metrics"][name]["value"]
                    assert value > 0, f"{where}: {name} is {value}"
        print(f"ok {workload}")


def check_all() -> None:
    proc = _run(["--workload", "all", "--seed", "4", "--seconds", "1", "--smoke"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    for name in ("train_examples_per_s", "query_p50_ms", "offline_passes_per_s", "cli_pipeline_s",
                 "detect_accuracy", "error_rate"):
        assert any(line.split("] ", 1)[-1].startswith(name + " ") for line in proc.stdout.splitlines()), name
    print("ok all")


def check_absent_name() -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import bayesreloc
    from bayesreloc import mc_posterior, regressor
    from tracing import Tracer

    saved = regressor.draw_mask
    del regressor.draw_mask, mc_posterior.draw_mask, bayesreloc.draw_mask
    try:
        tracer = Tracer()
        tracer.install(bayesreloc)
        tracer.uninstall()
    finally:
        regressor.draw_mask = mc_posterior.draw_mask = bayesreloc.draw_mask = saved
    assert tracer.absent() == ["regressor.draw_mask"], tracer.absent()
    assert tracer.metrics(0.0)["regressor.draw_mask.calls"]["value"] == 0.0
    print("ok absent name")


def check_refuses_without_program() -> None:
    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(["--workload", "query", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
        assert proc.returncode != 0 and proc.stdout == "", (proc.returncode, proc.stdout)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok refuses without the program")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    check_absent_name()
    check_refuses_without_program()
    check_workloads(spec)
    check_all()
    return 0


if __name__ == "__main__":
    sys.exit(main())
