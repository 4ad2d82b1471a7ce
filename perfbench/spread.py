"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workloads train,query --seeds 1-10 --seconds 10
    python3 perfbench/spread.py --seeds 1-10 --seconds 10 --baseline perfbench/baseline.json

Runs ``run.py`` once per workload and seed, one run at a time, and prints
for each metric the median and the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the median,
next to a third of the metric's bound from BENCHMARK.json.  With
``--baseline`` it also writes the medians, quartiles, every run's values
and one traced run per workload to that file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default="train,query,offline,cli")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--baseline", default=None, help="write medians and runs to this file")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    seeds = _seed_list(args.seeds)
    baseline = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            result = _run(workload, seed, seconds, 0)
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
            runs.append({k: m["value"] for k, m in result["metrics"].items()})
        entry = {"runs": runs, "metrics": {}}
        for name, bound in bounds.items():
            s = summarize([r[name] for r in runs])
            entry["metrics"][name] = s
            flag = "" if s["spread"] < bound / 3 else "  <-- above bound/3"
            worst = max(worst, s["spread"] / bound)
            print(f"{workload:8s} {name:18s} median {s['median']:14.6g}  spread {s['spread']:.4f}"
                  f"  bound/3 {bound / 3:.4f}{flag}")
        if args.baseline:
            entry["trace"] = {k: m["value"] for k, m in _run(workload, seeds[0], seconds, 1)["metrics"].items()}
        baseline["workloads"][workload] = entry
    print(f"largest spread as a share of its bound: {worst:.3f}")
    if args.baseline:
        with open(os.path.join(ROOT, ".bench_out", f"{workload}.trace0.json"), encoding="utf-8") as f:
            baseline["environment"] = json.load(f)["environment"]
        with open(args.baseline, "w", encoding="utf-8") as f:
            json.dump(baseline, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
