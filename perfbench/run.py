"""Benchmark for bayesreloc: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload query --seed 1 --seconds 10 --trace 0

``--workload`` is one of train, query, offline, cli, or ``all`` (each in
its own process, one after another).  ``--trace 0`` measures the
end-to-end metrics with tracing off; ``--trace 1`` runs a fixed number of
units in blocks, each block once untraced and once traced, and reports the
per-layer metrics and the tracing overhead.  ``--smoke`` runs at tiny
sizes, to test the benchmark itself.  The last line of standard output is
one JSON object; the full record, with the environment, goes to
``.bench_out/`` in the checkout.

BLAS is pinned to one thread before numpy loads; timings are refused if
the thread count reads otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOAD_NAMES = ("train", "query", "offline", "cli")
# Set-up runs SETUP_REPEATS times, each followed by an equal share of the
# timed units, and setup_s is the median: the shared machine drifts between
# speeds over seconds, and repeats spread over the run see more than one.
SETUP_REPEATS = 4
# The traced run alternates untraced and traced blocks of units, each about
# TRACE_BLOCK_S long, so that drift in machine speed cancels in the overhead.
TRACE_BLOCK_S = 0.25

# The median unit time is printed on the report lines but is not an
# end-to-end metric: the shared machine alternates between two speeds about
# 1.6x apart, and the median of a run flips between them, while the 90th
# percentile and the mean move much less.
END_TO_END = (
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("train_final_loss", "loss"),
)


class BenchError(Exception):
    """The benchmark cannot run here; nothing is reported."""


def _import_package():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    try:
        import bayesreloc
    except ImportError as e:
        raise BenchError(f"cannot import bayesreloc from {src}: {e}") from e
    where = os.path.dirname(os.path.abspath(bayesreloc.__file__))
    if os.path.commonpath([where, src]) != src:
        raise BenchError(f"bayesreloc was imported from {where}, not from {src}")
    return bayesreloc


def _blas_threads():
    """Thread count OpenBLAS reports, or None where it cannot be asked."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.dirname(np.__file__) + ".libs/*openblas*")
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn()), f"{os.path.basename(path)}:{symbol}"
    return None, "no OpenBLAS thread query found; pinned by environment only"


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    threads, source = _blas_threads()
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads": threads,
        "blas_threads_source": source,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


class _NoTracer:
    """Stands in for the tracer when tracing is off."""

    request = -1

    def span(self, name):
        return contextlib.nullcontext()


def _run_units(workload, ops, tracer, start=0, count=None, seconds=None):
    """Run units from index ``start`` until ``count`` are done or
    ``seconds`` have passed; return the time of each."""
    latencies = []
    clock = time.perf_counter
    deadline = clock() + (seconds or 0.0)
    k = start
    while True:
        tracer.request = k
        t0 = clock()
        workload.unit(k, ops, tracer)
        t1 = clock()
        latencies.append(t1 - t0)
        k += 1
        if (count is not None and k - start >= count) or (count is None and t1 >= deadline):
            return latencies


def _finite(value):
    return float(value) if value is not None and math.isfinite(value) else None


def run_workload(name: str, seed: int, seconds: int, trace: int, smoke: bool) -> dict:
    bayesreloc = _import_package()
    env = environment()
    if env["blas_threads"] not in (None, 1):
        raise BenchError(f"BLAS runs {env['blas_threads']} threads; timings need exactly 1")

    import numpy as np
    from tracing import Tracer
    from workloads import FULL, SMOKE, WORKLOADS, Checks, Ops

    workload = WORKLOADS[name](seed, SMOKE if smoke else FULL, os.path.join(OUT_DIR, f"work-{name}"))
    ops, checks = Ops(), Checks()
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "smoke": smoke, "work_unit": workload.work_unit, "environment": env}
    try:
        if trace == 0:
            setup_times, latencies = [], []
            for _ in range(SETUP_REPEATS):
                gc.collect()
                t0 = time.perf_counter()
                workload.setup()
                setup_times.append(time.perf_counter() - t0)
                gc.collect()
                latencies += _run_units(workload, ops, _NoTracer(), len(latencies),
                                        seconds=seconds / SETUP_REPEATS)
            own = workload.finish(checks)
            lat_ms = np.array(latencies) * 1e3
            values = {
                "setup_s": statistics.median(setup_times),
                "work_per_s": len(latencies) * workload.work_per_unit() / sum(latencies),
                "latency_p50_ms": float(np.percentile(lat_ms, 50)),
                "latency_p90_ms": float(np.percentile(lat_ms, 90)),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "train_final_loss": workload.final_loss,
            }
            metrics = {k: {"value": _finite(values[k]), "unit": u} for k, u in END_TO_END}
            own["latency_p50_ms"] = (values["latency_p50_ms"], "ms")
            for metric, (alias, scale, unit) in workload.aliases.items():
                own[alias] = (values[metric] * scale, unit)
            record.update(units=len(latencies), setup_times_s=setup_times)
        else:
            tracer = Tracer()
            tracer.install(bayesreloc)
            try:
                workload.setup()
            finally:
                tracer.uninstall()
            # A fixed number of units, so that calls and flops repeat exactly.
            # Each block of units runs once untraced and once traced, the
            # order flipping from block to block; the two sides' sums give
            # the overhead.  The traced side fills about half of --seconds.
            block = max(1, round(TRACE_BLOCK_S / workload.nominal_unit_s))
            blocks = max(2, round(seconds / 2 / (block * workload.nominal_unit_s)))
            plain, traced = [], []
            gc.collect()
            for b in range(blocks):
                for with_trace in ((False, True) if b % 2 == 0 else (True, False)):
                    if not with_trace:
                        plain += _run_units(workload, ops, _NoTracer(), b * block, block)
                        continue
                    tracer.install(bayesreloc)
                    try:
                        traced += _run_units(workload, ops, tracer, b * block, block)
                    finally:
                        tracer.uninstall()
            count = blocks * block
            overhead = sum(traced) / sum(plain) - 1.0
            own = workload.finish(checks)
            metrics = tracer.metrics(overhead)
            os.makedirs(OUT_DIR, exist_ok=True)
            tracer.write_spans(os.path.join(OUT_DIR, f"{name}.spans.npz"))
            record.update(units=count, untraced_s=sum(plain), traced_s=sum(traced),
                          absent=tracer.absent(), spans=len(tracer.spans))
    finally:
        workload.cleanup()

    record.update(
        own_metrics={k: {"value": _finite(v), "unit": u} for k, (v, u) in own.items()},
        error_rate={"failed": ops.failed, "attempted": ops.attempted,
                    "ratio": ops.failed / ops.attempted if ops.attempted else None},
        failures_by_class=dict(ops.by_class),
        first_tracebacks=ops.first_traceback,
        checks_run=checks.count,
        check_failures=checks.failures,
        metrics=metrics,
    )
    return record


def _print_report(record: dict) -> None:
    env = record["environment"]
    print(f"# workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{record['units']} units; work_per_s counts {record['work_unit']}")
    print(f"# python {env['python']} numpy {env['numpy']} blas {env['blas']['name']} "
          f"{env['blas']['version']} threads {env['blas_threads']} nproc {env['nproc']} "
          f"cpu {env['cpu_model']!r}")
    for name, m in record["own_metrics"].items():
        print(f"{name} {m['value']} {m['unit']}")
    err = record["error_rate"]
    print(f"error_rate {err['ratio']} ratio ({err['failed']} failed of {err['attempted']} attempted)")
    for kind, n in record["failures_by_class"].items():
        print(f"# failed {kind}: {n}")
    for name in record.get("absent", []):
        print(f"# absent {name}: reported with 0 calls")
    for name, message in record["check_failures"].items():
        print(f"# CHECK FAILED {name}: {message[:300]}")
    print(f"# {record['checks_run']} checks, {len(record['check_failures'])} failed")
    for name, m in record["metrics"].items():
        print(f"{name} {m['value']} {m['unit']}")


def _run_all(args) -> int:
    """Run every workload in its own process and merge the results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            argv.append("--smoke")
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = m
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for testing the benchmark")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    # Must happen before numpy is imported anywhere in this process.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if args.workload == "all":
        return _run_all(args)
    try:
        record = run_workload(args.workload, args.seed, args.seconds, args.trace, args.smoke)
    except BenchError as e:
        print(f"benchmark cannot run: {e}", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{args.workload}.trace{args.trace}.json"), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    _print_report(record)
    result = {
        "correct": not record["check_failures"],
        "attempted": record["error_rate"]["attempted"],
        "failed": record["error_rate"]["failed"],
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
