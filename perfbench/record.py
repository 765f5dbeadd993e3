"""Run the benchmark over several seeds and summarise, optionally into a baseline file.

    python3 perfbench/record.py --runs 10
    python3 perfbench/record.py --runs 10 --out perfbench/baseline.json

For each workload it runs ``run.py`` once per seed (1..runs), each in its
own process, and prints per end-to-end metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the quartile spread as a share
of the median next to the metric's bound.  With ``--out`` it also makes one
traced run per workload and writes everything, with the machine and
version record, to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NOTES = {
    "tier1_pytest": "not an end-to-end metric: the test suite is not a fixed input, so a change "
    "that edits tests would be measured on other work than its parent",
    "ops_ok_ratio": "complement of the failed-operation ratio, which is 0 on most workloads; "
    "failed counts both wrong answers and failures the program reports itself",
    "known_failures": "certify: verify exits 3 at sqrt2/2 and (1+sqrt3)/4 "
    "(discrepancy/deviation_maxima_stable, which ends that suite early); cli_readme: "
    "`distances --horizon 21` exits 3",
}


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return {
        "median": mid,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / mid if mid else 0.0,
        "values": values,
    }


def environment() -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": commit,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", help="write the baseline record here")
    args = parser.parse_args()
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    seeds = list(range(1, args.runs + 1))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {
        "environment": environment(),
        "notes": NOTES,
        "run_seconds": bench["run_seconds"],
        "seeds": seeds,
        "workloads": {},
    }
    for name in (w["name"] for w in bench["workloads"]):
        results = []
        for seed in seeds:
            result, lines = run(name, seed, bench["run_seconds"], 0)
            results.append(result)
            print(f"{name} seed {seed}: " + ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()))
        entry = {
            "why": next(w["why"] for w in bench["workloads"] if w["name"] == name),
            "samples": next(line for line in lines if line.startswith("samples:")),
            "failures": [line for line in lines if line.startswith(("FAILED", "WRONG"))],
            "correct": all(r["correct"] for r in results),
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "end_to_end": {},
        }
        for metric in bounds:
            s = spread([r["metrics"][metric]["value"] for r in results])
            s["bound"] = bounds[metric]
            entry["end_to_end"][metric] = s
            flag = "" if s["spread"] < bounds[metric] / 3 else "  <-- above bound/3"
            print(
                f"  {name:10s} {metric:14s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                f"spread {s['spread']:.4f} (bound {bounds[metric]}){flag}"
            )
        if args.out:
            traced, lines = run(name, seeds[0], bench["run_seconds"], 1)
            entry["per_layer_seed"] = seeds[0]
            entry["per_layer_samples"] = next(line for line in lines if line.startswith("trace:"))
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        record["workloads"][name] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")


if __name__ == "__main__":
    main()
