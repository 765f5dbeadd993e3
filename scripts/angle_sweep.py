"""Seeded sweep of `sturmgas verify` over random quadratic angles.

Draws angles gamma = (a + b*sqrt(d))/c with d square-free in [2, 59],
b = +-(1..6), c in [1, 200] and a uniform among the integers that put gamma
in [1/2, 1]; a draw is kept only if gamma lies in (1/2, 1 - 10**-4).  Each
angle runs `verify --suite all --format json` in-process through
`sturmgas.cli.main`, and the census counts angles per exit code and per
failing check.

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


def run_verify(gamma: str) -> tuple[int, list[str]]:
    """Exit code and the failing checks, as suite/check, of one verify run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["verify", "--suite", "all", "--gamma", gamma, "--format", "json"])
    try:
        suites = json.loads(out.getvalue())["results"]["suites"]
    except (ValueError, KeyError):
        return code, []
    return code, [f"{s}/{c['name']}" for s, checks in suites.items() for c in checks if not c["passed"]]


def main_sweep(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=120)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    exits: Counter[int] = Counter()
    failures: Counter[str] = Counter()
    for gamma in sample_angles(args.count, args.seed):
        start = time.perf_counter()
        code, failed = run_verify(gamma)
        exits[code] += 1
        failures.update(failed)
        print(f"{gamma:>16}  exit {code}  {time.perf_counter() - start:6.2f} s  {' '.join(failed)}")
    print("exit codes:", ", ".join(f"{k}: {v}" for k, v in sorted(exits.items())))
    for name, n in failures.most_common():
        print(f"{n:5d}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main_sweep())
