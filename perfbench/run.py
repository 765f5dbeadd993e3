"""Benchmark harness for sturmgas: four workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

The package is imported from ``src/`` of the checkout this file sits in; no
installed copy is used, and the harness exits with code 2 when ``src/`` is
missing.  Each workload is a closed loop with one client.  A run repeats
passes over the workload's fixed list of operations while the next pass is
expected to fit in ``--seconds`` (at least two passes).  Each output is
checked right after its operation, outside the timed region, and dropped.
The run prints one ``name value unit`` line per metric and, as its last
line, a JSON object ``{correct, attempted, failed, metrics}``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` runs pairs of one untraced and one traced pass (at least
three pairs), and reports the per-layer metrics plus the tracing overhead;
the spans are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import workloads
from tracing import Recorder
from workloads import Failed, WrongAnswer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: fresh processes timed per run for setup_s, and for the cli import time
SETUP_RUNS = 21
IMPORT_RUNS = 3
MIN_PASSES = 2
MIN_TRACE_PAIRS = 3

# The package never calls BLAS, but importing numpy starts one OpenBLAS
# thread per core.  On a small machine their start-up competes with the one
# client and made start-up times swing by a fifth from run to run.
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env(root: Path) -> dict:
    """Environment of a child process: the checkout's package, bytecode cache on.

    Installed packages have their bytecode compiled, so a cold start that
    recompiled every module would measure the compiler, and would depend on
    whether the caller happened to set PYTHONDONTWRITEBYTECODE.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env.update(SINGLE_THREAD_ENV)
    env["PYTHONPATH"] = str(root / "src")
    return env


def child_output(argv: list[str]) -> str:
    """Run a fresh Python process to its end and return its stdout."""
    try:
        proc = subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env=child_env(ROOT), capture_output=True, text=True, timeout=120
        )
    except subprocess.TimeoutExpired:
        fail(f"child process {argv} outlived 120 s")
    if proc.returncode != 0:
        fail(f"child process {argv} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def use_checkout_package() -> None:
    """Import sturmgas from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "sturmgas" / "__init__.py").is_file():
        fail(f"no package source at {src / 'sturmgas'}; run from a full checkout")
    sys.path.insert(0, str(src))
    import sturmgas

    if not Path(sturmgas.__file__).resolve().is_relative_to(src.resolve()):
        fail(f"imported sturmgas from {sturmgas.__file__}, not from {src}")


def load_contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    return {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


@dataclass
class Pass:
    wall_s: float = 0.0
    ok_latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)
    reported: list[str] = field(default_factory=list)


def check(op, out) -> Exception | None:
    """Run the operation's check; return what it raised, without its frames."""
    try:
        op.check(out)
    except Exception as exc:
        return exc.with_traceback(None)
    return None


def run_pass(workload, rec=None) -> Pass:
    """Issue every operation once; check each output right after it, untimed.

    ``wall_s`` is the sum of the operations' latencies.  An output is dropped
    once checked, so the process's peak memory is set by one operation at a
    time.  With a recorder the wrappers are installed only while an
    operation runs, so the checks' own library calls stay out of the trace.
    """
    result = Pass()
    for op in workload.ops:
        uninstall = None
        if rec is not None:
            rec.op = op.name
            uninstall = rec.install()
        t0 = time.perf_counter()
        try:
            out, error = op.run(rec), None
        except Exception as exc:  # the program failed loudly; counted, run continues
            out, error = None, exc
        latency = time.perf_counter() - t0
        if uninstall is not None:
            uninstall()
        result.wall_s += latency
        result.attempted += 1
        if error is None:
            error = check(op, out)
            del out  # before the next operation, so that outputs do not pile up
            if error is None:
                result.ok_latencies.append(latency)
                continue
            if not isinstance(error, Failed):  # WrongAnswer, or output too malformed to check
                result.failed += 1
                kind = "" if isinstance(error, WrongAnswer) else f"{type(error).__name__}: "
                result.wrong.append(f"{op.name}: {kind}{error}")
                continue
        result.failed += 1
        result.reported.append(f"{op.name}: {type(error).__name__}: {error}")
    return result


def repeat(step, budget_s: float, min_steps: int) -> None:
    """Call ``step()`` while the next call is expected to fit in the budget."""
    durations = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        step()
        durations.append(time.perf_counter() - t0)
        if len(durations) >= min_steps and time.perf_counter() - start + median(durations) > budget_s:
            return


def setup_times(name: str, seed: int) -> list[float]:
    """Set-up time of fresh processes run one after another, each as it measured itself."""
    times = []
    for _ in range(SETUP_RUNS):
        t0 = repr(time.perf_counter())
        times.append(float(child_output([str(HERE / "setup_child.py"), name, str(seed), t0])))
    return times


def end_to_end(passes: list[Pass], setup_s: list[float]):
    ok_passes = [p for p in passes if p.ok_latencies]
    if not ok_passes:
        fail("no operation succeeded; latency is undefined")
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": median(setup_s),
        "wall_s": median(p.wall_s for p in passes),
        "op_p50_ms": 1e3 * median(percentile(p.ok_latencies, 0.5) for p in ok_passes),
        "op_p90_ms": 1e3 * median(percentile(p.ok_latencies, 0.9) for p in ok_passes),
        "peak_rss_mb": peak_kb / 1024,
        "ops_ok_ratio": (attempted - failed) / attempted,
    }
    per_pass = sorted({len(p.ok_latencies) for p in ok_passes})
    print(
        f"samples: {len(passes)} passes of {passes[0].attempted} operations; "
        f"latency over {per_pass} successful operations per pass "
        f"({sum(len(p.ok_latencies) for p in passes)} in all), nearest-rank "
        f"percentiles per pass, median over passes; setup_s median of {len(setup_s)} "
        "fresh processes"
    )
    return metrics


def traced_run(workload, seed: int, seconds: float) -> tuple[list[Pass], dict]:
    """Pairs of one untraced and one traced pass, in alternating order.

    The tracing overhead is the median over pairs of the traced minus the
    untraced ``wall_s``; taking the two passes of a pair back to back keeps
    the host's drift out of the difference.
    """
    rec = Recorder()
    untraced, traced, per_pass = [], [], []
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"trace-{workload.name}-seed{seed}.jsonl"
    with open(trace_path, "w", encoding="utf-8") as fh:

        def traced_pass():
            rec.reset()
            traced.append(run_pass(workload, rec))
            per_pass.append(rec.layer_metrics())
            rec.write_jsonl(fh, len(traced) - 1)

        def pair():
            if len(traced) % 2:
                traced_pass()
                untraced.append(run_pass(workload))
            else:
                untraced.append(run_pass(workload))
                traced_pass()

        repeat(pair, seconds, MIN_TRACE_PAIRS)
    code = "import time; t = time.perf_counter(); import sturmgas.cli; print(time.perf_counter() - t)"
    import_s = [float(child_output(["-c", code])) for _ in range(IMPORT_RUNS)]
    metrics = {key: median(m[key] for m in per_pass) for key in per_pass[0]}
    metrics["cli.import_ms"] = 1e3 * median(import_s)
    metrics["trace.traced_wall_s"] = median(p.wall_s for p in traced)
    metrics["trace.overhead_s"] = median(t.wall_s - u.wall_s for u, t in zip(untraced, traced))
    print(
        f"trace: {len(traced)} pairs of an untraced and a traced pass; trace.overhead_s is the "
        f"median of the {len(traced)} paired differences; per-layer values are medians over "
        f"the {len(traced)} traced passes; spans in {trace_path.relative_to(ROOT)}"
    )
    return untraced + traced, metrics


def run_one(name: str, seed: int, seconds: float, trace: int) -> None:
    contract = load_contract()
    use_checkout_package()
    setup_s = [] if trace else setup_times(name, seed)
    workload = workloads.build(name, seed, ROOT)
    workload.prepare()
    if trace:
        passes, metrics = traced_run(workload, seed, seconds)
    else:
        passes = []
        repeat(lambda: passes.append(run_pass(workload)), seconds, MIN_PASSES)
        metrics = end_to_end(passes, setup_s)
    units = contract[trace]
    if set(metrics) != set(units):
        fail(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    wrong = [w for p in passes for w in p.wrong]
    for label, messages in (("FAILED", [r for p in passes for r in p.reported]), ("WRONG", wrong)):
        for message in sorted(set(messages)):
            print(f"{label} x{messages.count(message)}: {message}")
    for key in units:
        print(f"{name} {key} = {metrics[key]} {units[key]}")
    print(
        json.dumps(
            {
                "correct": not wrong,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
            }
        )
    )


def run_all(seed: int, seconds: float, trace: int) -> None:
    """Every workload in its own fresh process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [
                sys.executable,
                str(HERE / "run.py"),
                "--workload",
                name,
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
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            fail(f"workload {name} exited with {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    os.environ.update(SINGLE_THREAD_ENV)  # before numpy is imported
    if args.workload == "all":
        run_all(args.seed, args.seconds, args.trace)
    else:
        run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()
