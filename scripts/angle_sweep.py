"""Seeded sweep of `sturmgas verify` over random quadratic angles.

Draws angles gamma = (a + b*sqrt(d))/c with d square-free in [2, 59],
b = +-(1..6), c in [1, 200] and a uniform among the integers that put gamma
in [1/2, 1]; a draw is kept only if gamma lies in (1/2, 1 - 10**-4).  Each
angle runs `verify --suite all --format json` in-process through
`sturmgas.cli.main`, and the census counts angles per exit code and, per
check, the angles where it failed and where it was inconclusive (hit a
computation limit).

    PYTHONPATH=src python scripts/angle_sweep.py [--count 120] [--seed 7]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import random
import sys
import time
from collections import Counter

from sturmgas.cli import main

SQUARE_FREE = [d for d in range(2, 60) if all(d % (k * k) for k in range(2, 8))]


def sample_angles(count: int, seed: int) -> list[str]:
    """count angles as 'a,b,c,d' strings, drawn under the plan above."""
    rng = random.Random(seed)
    angles: list[str] = []
    while len(angles) < count:
        d = rng.choice(SQUARE_FREE)
        b = rng.choice((-1, 1)) * rng.randint(1, 6)
        c = rng.randint(1, 200)
        shift = b * math.sqrt(d)
        lo, hi = math.ceil(c / 2 - shift), math.floor(c - shift)
        if lo > hi:
            continue
        a = rng.randint(lo, hi)
        if 0.5 < (a + shift) / c < 1 - 1e-4:
            angles.append(f"{a},{b},{c},{d}")
    return angles


def run_verify(gamma: str) -> tuple[int, list[str], list[str]]:
    """Exit code, failed checks and inconclusive checks, as suite/check, of one verify run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["verify", "--suite", "all", "--gamma", gamma, "--format", "json"])
    try:
        suites = json.loads(out.getvalue())["results"]["suites"]
    except (ValueError, KeyError):
        return code, [], []
    missed = [(f"{s}/{c['name']}", c.get("inconclusive", False))
              for s, checks in suites.items() for c in checks if not c["passed"]]
    return code, [n for n, limit in missed if not limit], [n for n, limit in missed if limit]


def main_sweep(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=120)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    exits: Counter[int] = Counter()
    failures: Counter[str] = Counter()
    limits: Counter[str] = Counter()
    for gamma in sample_angles(args.count, args.seed):
        start = time.perf_counter()
        code, failed, inconclusive = run_verify(gamma)
        exits[code] += 1
        failures.update(failed)
        limits.update(inconclusive)
        marked = failed + [f"{name} (limit)" for name in inconclusive]
        print(f"{gamma:>16}  exit {code}  {time.perf_counter() - start:6.2f} s  {' '.join(marked)}")
    print("exit codes:", ", ".join(f"{k}: {v}" for k, v in sorted(exits.items())))
    print("failed  limit  check")
    for name, _ in (failures + limits).most_common():
        print(f"{failures[name]:6d}  {limits[name]:5d}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main_sweep())
