"""The four benchmark workloads: operations, seeded inputs and correctness gates.

Every workload is a closed loop with one client: the harness issues each
operation only after the previous one returned.  ``build`` does the set-up
(importing the package and building profiles, specs and seeded inputs);
each ``Op`` then has a ``run`` that is timed and a ``check`` that is not.
``Workload.prepare`` builds the checks' reference answers once, after the
set-up and before the first operation, so a check neither repeats that work
per pass nor allocates more than the operation it checks.

A check raises ``WrongAnswer`` when an operation that claimed success gave
a wrong answer, and ``Failed`` when the program itself reported a failure
(a nonzero exit code, a failed ``verify`` check).  Both count as failed
operations and neither is timed as a success; only the first makes the
run incorrect.  The library is called only through signatures the planned
deletions keep: no ``workers=``, no ``qi_compare``/``qi_floor``/``qi_frac``,
no ``ComponentIntervals.word_map``, ``InteractionSpec.to_json``,
``pair_coupling`` or ``verify.SUITES``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable


class WrongAnswer(Exception):
    """An operation returned normally but its output is wrong."""


class Failed(Exception):
    """The program reported a failure: nonzero exit code or a failed check."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise WrongAnswer(message)


@dataclass
class Op:
    name: str
    #: run(recorder or None) -> output; the only timed part
    run: Callable[[Any], Any]
    #: check(output) raises WrongAnswer or Failed
    check: Callable[[Any], None]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    #: builds the reference answers the checks compare against; untimed
    prepare: Callable[[], None] = lambda: None


# (label, --gamma spec): fib, sqrt(2)/2, sqrt(3)-1, (1+sqrt(3))/4
ANGLES = (
    ("fib", "fib"),
    ("sqrt2_2", "0,1,2,2"),
    ("sqrt3_1", "-1,1,1,3"),
    ("1_sqrt3_4", "1,1,4,3"),
)
SUITE_NAMES = {"order", "discrepancy", "characterize", "energy"}


def _capture_cli(argv: list[str], rec) -> tuple[int, str, str]:
    """Call the CLI entry point in-process; return (exit code, stdout, stderr)."""
    import sturmgas.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sturmgas.cli.main(argv)
    text = out.getvalue()
    if rec is not None:
        rec.counts["cli.output_bytes"] += len(text.encode())
    return code, text, err.getvalue()


def certify(seed: int, root: Path) -> Workload:
    """`verify --suite all` in-process over the four-angle panel, order seeded."""
    import sturmgas.cli  # noqa: F401  (set-up includes the import)

    order = list(ANGLES)
    random.Random(seed).shuffle(order)
    first_output: dict[str, str] = {}
    ops = []
    for label, spec in order:
        argv = ["verify", "--suite", "all", f"--gamma={spec}", "--format", "json"]

        def check(out, label=label):
            code, text, _ = out
            report = json.loads(text)["results"]
            expect(code in (0, 3), f"unexpected exit code {code}")
            expect((code == 0) == report["passed"], f"exit code {code} but passed={report['passed']}")
            expect(set(report["suites"]) == SUITE_NAMES, f"suites {sorted(report['suites'])}")
            expect(
                first_output.setdefault(label, text) == text,
                "JSON report differs from the first pass",
            )
            if code != 0:
                failing = [
                    f"{suite}/{c['name']}"
                    for suite, checks in report["suites"].items()
                    for c in checks
                    if not c["passed"]
                ]
                raise Failed(f"verify exit {code}: {', '.join(failing)}")

        ops.append(Op(f"verify:{label}", lambda rec, argv=argv: _capture_cli(argv, rec), check))
    return Workload("certify", ops)


def _seeded_psi(rng: random.Random):
    from sturmgas import QuadIrrational

    return QuadIrrational.from_fraction(Fraction(rng.randrange(0, 997), 997))


def _flip(symbols: str, k: int) -> str:
    return symbols[:k] + ("0" if symbols[k] == "1" else "1") + symbols[k + 1 :]


def ground(seed: int, root: Path) -> Workload:
    """Exhaustive ground-state scans plus point-wise energies on seeded windows."""
    import sturmgas
    import sturmgas.cli  # noqa: F401
    from sturmgas import GOLDEN, RotationParams, Word, parse_qi

    rng = random.Random(seed)
    zero = parse_qi("0,0,1,0")
    angles = {"fib": GOLDEN, "sqrt3_1": parse_qi("-1,1,1,3")}
    profiles = {k: sturmgas.distance_profile(RotationParams(g, zero), 2000) for k, g in angles.items()}
    specs = {k: sturmgas.build_interaction(p) for k, p in profiles.items()}
    fib_sizes = {16: 21, 18: 23, 20: 25}
    legal_sets: dict[tuple[str, int], set[str]] = {}
    clean_energies: dict[int, Any] = {}  # id of a clean window -> its energy
    ops = []

    for label, lengths in (("fib", (16, 18, 20)), ("sqrt3_1", (16, 18))):
        for length in lengths:

            def check(result, label=label, length=length):
                expect(result.min_energy == 0, f"min energy {result.min_energy}")
                expect(result.states_scanned == 1 << length, f"{result.states_scanned} states")
                expect(
                    {w.symbols for w in result.argmin} == legal_sets[label, length],
                    "argmin differs from enumerate_legal(L, L)",
                )
                if label == "fib":
                    expect(len(result.argmin) == fib_sizes[length], f"{len(result.argmin)} ground words")

            ops.append(
                Op(
                    f"ground_state_search:{label}:{length}",
                    lambda rec, length=length, spec=specs[label]: sturmgas.ground_state_search(length, spec),
                    check,
                )
            )

    # Each energy operation covers four seeded 2000-site windows, each with
    # one added and one removed particle in its middle half, so that its
    # cost varies little with the seed.
    windows = []
    for label, gamma in angles.items():
        spec = specs[label]
        run_len = spec.zero_run_len
        for _ in range(3):
            cases = []
            for _ in range(4):
                i0 = rng.randrange(-100_000, 100_000)
                clean = sturmgas.generate(RotationParams(gamma, _seeded_psi(rng)), i0, i0 + 1999)
                middle = range(500, 1500)
                # Far enough apart that neither flip can undo the other's
                # violation, so the defected energy is strictly positive.
                while True:
                    add = rng.choice([k for k in middle if clean.symbols[k] == "0"])
                    remove = rng.choice([k for k in middle if clean.symbols[k] == "1"])
                    if abs(add - remove) >= 50:
                        break
                word = Word(_flip(_flip(clean.symbols, add), remove), i0)
                cases.append((clean, word, {i0 + add, i0 + remove}))
            windows.append((label, cases))

            def check(energies, cases=cases, spec=spec, run_len=run_len):
                for (clean, _, sites), e in zip(cases, energies):
                    expect(clean_energies[id(clean)].total == 0, "clean window has energy")
                    expect(e.total > 0, "defected window at zero energy")
                    expect(e.total == e.pair_part + e.zero_run_part, "total != pair + zero-run parts")
                    expect(
                        all(a in sites or b in sites for a, b, _ in e.violating_pairs),
                        "violating pair away from every defect",
                    )
                    expect(
                        all(any(s <= u < s + run_len for u in sites) for s in e.violating_runs),
                        "vacancy run away from every defect",
                    )

            ops.append(
                Op(
                    f"energy_open:{label}:4x2000",
                    lambda rec, cases=cases, spec=spec: [sturmgas.energy_open(w, spec) for _, w, _ in cases],
                    check,
                )
            )

    def prepare():
        for label, lengths in (("fib", (16, 18, 20)), ("sqrt3_1", (16, 18))):
            for length in lengths:
                legal = sturmgas.enumerate_legal(length, length, profiles[label])
                legal_sets[label, length] = {w.symbols for w in legal}
        for label, cases in windows:
            for clean, _, _ in cases:
                clean_energies[id(clean)] = sturmgas.energy_open(clean, specs[label])

    fib_spec = specs["fib"]
    for period in range(1, 11):
        cells = [
            Word("".join("1" if (content >> k) & 1 else "0" for k in range(period)))
            for content in range(1 << period)
        ]

        def check(densities):
            vacuum = densities[0]
            expect(vacuum.lower_bound == fib_spec.zero_run_penalty, "vacuum density != penalty")
            expect(all(d.lower_bound > 0 for d in densities), "periodic cell at zero density")
            expect(all(d.value_estimate >= d.lower_bound for d in densities), "estimate below bound")

        ops.append(
            Op(
                f"periodic_energy_density:p{period}",
                lambda rec, cells=cells: [sturmgas.periodic_energy_density(c, fib_spec) for c in cells],
                check,
            )
        )
    return Workload("ground", ops, prepare)


def long_words(seed: int, root: Path) -> Workload:
    """Large generation and analysis inputs; no exhaustive lattice-gas scan."""
    import sturmgas
    import sturmgas.cli  # noqa: F401
    from sturmgas import GOLDEN, QuadIrrational, RotationParams, Word, parse_qi

    rng = random.Random(seed)
    one = QuadIrrational.from_int(1)
    fib = RotationParams(GOLDEN, GOLDEN)
    sqrt2 = parse_qi("0,1,2,2")
    s2_start = rng.randrange(-100_000, 100_000)
    s2 = RotationParams(sqrt2, _seeded_psi(rng))
    big = 10**6
    profile = sturmgas.distance_profile(fib, 2000)
    spec = sturmgas.build_interaction(profile)
    base = sturmgas.generate(fib, 1, 100_000)  # windows and factor sets are cut from it
    factors: dict[int, set[str]] = {}
    oracle: dict[str, Any] = {}
    ops = []

    def prepare():
        for n in (20, 30, 50, 60, 200):
            factors[n] = {w.symbols for w in sturmgas.factor_set(Word(base.symbols[:20_000]), n)}
        oracle["fib_word"] = Word(sturmgas.fibonacci_substitution(29).symbols[:big], 1)
        oracle["forbidden"] = sturmgas.distance_profile(fib, 100_000).forbidden
        oracle["sbc_window"] = sturmgas.generate(fib, 0, 7999).symbols  # the window the check scans

    def check_fib(w):
        expect(w.origin == 1 and w.symbols == oracle["fib_word"].symbols, "fib word differs from the substitution")

    ops.append(Op("generate:fib:1e6", lambda rec: sturmgas.generate(fib, 1, big), check_fib))

    probes = [s2_start + rng.randrange(big) for _ in range(50)]

    def check_s2(w):
        expect(len(w) == big and w.origin == s2_start, "window bounds")
        for i in probes:
            expect(w.at(i) == sturmgas.symbol_at(s2, i), f"symbol at {i} differs from symbol_at")
        dev = w.count("1") - (one - sqrt2) * big
        expect(-1 <= dev <= 1, f"letter-count deviation {float(dev)}")

    ops.append(
        Op("generate:sqrt2_2:1e6", lambda rec: sturmgas.generate(s2, s2_start, s2_start + big - 1), check_s2)
    )

    for label, params in (("fib", fib), ("sqrt2_2", s2)):
        inverse = (one - params.gamma).reciprocal()
        ranks = sorted(rng.sample(range(1, 25_000), 200))

        def check(p, inverse=inverse, ranks=ranks):
            p.check_increments()
            for j in ranks:
                expect(p.d[j - 1] == (j * inverse).floor(), f"d_{j} is not floor(j/(1-gamma))")

        ops.append(
            Op(
                f"distance_profile:{label}:1e5",
                lambda rec, params=params: sturmgas.distance_profile(params, 100_000),
                check,
            )
        )

    for _ in range(2):
        start = rng.randrange(0, len(base) - 10_000)
        window = Word(base.symbols[start : start + 10_000], start + 1)
        ops.append(
            Op(
                f"is_balanced:1e4:{start}",
                lambda rec, w=window: sturmgas.is_balanced(w),
                lambda v: expect(v.balanced, "clean window unbalanced"),
            )
        )
        ops.append(
            Op(
                f"is_most_homogeneous:1e4:{start}",
                lambda rec, w=window: sturmgas.is_most_homogeneous(w),
                lambda v: expect(v.homogeneous, "clean window inhomogeneous"),
            )
        )

    def check_complexity(report):
        expect(all(report.p[n] == n + 1 for n in range(1, 41)), f"counts {report.p}")

    ops.append(Op("factor_complexity:40", lambda rec: sturmgas.factor_complexity(fib, 40), check_complexity))

    for n in (50, 200):

        def check(ci, n=n):
            expect(len(ci.intervals) == n + 1, f"{len(ci.intervals)} arcs")
            total = sum((hi - lo for lo, hi in ci.intervals), QuadIrrational.from_int(0))
            expect(total == 1, f"arc lengths sum to {total}")
            expect({w.symbols for w in ci.words} == factors[n], "arc labels differ from factors")

        ops.append(Op(f"component_intervals:{n}", lambda rec, n=n: sturmgas.component_intervals(fib, n), check))

    offset = rng.randrange(0, len(base) - 100)
    factor = Word(base.symbols[offset : offset + 100])

    def check_frequency(xi):
        count = sturmgas.count_occurrences(oracle["fib_word"], factor)
        expect(xi.sign() > 0, "occurring factor at zero frequency")
        expect(abs(count - float(xi) * big) <= 100, f"{count} occurrences vs frequency {float(xi)}")

    ops.append(Op("frequency:100", lambda rec: sturmgas.frequency(fib, factor), check_frequency))

    sbc_word = Word("010")
    segments = []
    for _ in range(40):
        length = rng.randrange(3, 8000)
        segments.append((rng.randrange(0, 8000 - length + 1), length))

    def check_sbc(rep):
        expect(rep.max_dev <= rep.c_w_estimate, "max_dev above the doubled-horizon maximum")
        for s, length in segments:
            seg = Word(oracle["sbc_window"][s : s + length])
            dev = sturmgas.count_occurrences(seg, sbc_word) - rep.frequency * length
            if dev.sign() < 0:
                dev = -dev
            expect(dev <= rep.c_w_estimate, f"segment ({s}, {length}) deviates beyond the maximum")

    ops.append(
        Op(
            "strict_boundary_check:010:4000",
            lambda rec: sturmgas.strict_boundary_check(fib, sbc_word, 4000),
            check_sbc,
        )
    )

    for n in (20, 30, 60):

        def check(out, n=n):
            legal, _ = out
            expect(len(legal) == n + 1, f"{len(legal)} legal words")
            expect({w.symbols for w in legal} == factors[n], "legal set differs from factors")

        ops.append(
            Op(f"enumerate_legal_stable:{n}", lambda rec, n=n: sturmgas.enumerate_legal_stable(n, profile), check)
        )

    def check_legal_200(legal):
        expect(len(legal) == 201, f"{len(legal)} legal words")
        expect({w.symbols for w in legal} == factors[200], "legal set differs from factors")

    ops.append(
        Op("enumerate_legal:200:800", lambda rec: sturmgas.enumerate_legal(200, 800, profile), check_legal_200)
    )

    for lo in (1, 51, 101, 151):
        periods = range(lo, lo + 50)

        def check(multiples, periods=periods):
            reference = oracle["forbidden"]
            for p, i in zip(periods, multiples):
                expect(i * p in reference, f"{i}*{p} is not forbidden")
                expect(all(j * p not in reference for j in range(1, i)), f"smaller multiple of {p}")

        ops.append(
            Op(
                f"periodic_exclusion:{lo}-{lo + 49}",
                lambda rec, periods=periods: [sturmgas.periodic_exclusion(p, profile) for p in periods],
                check,
            )
        )

    start = rng.randrange(0, len(base) - 2000)
    window = Word(base.symbols[start : start + 2000], start + 1)
    ops.append(
        Op(
            "energy_open:2000",
            lambda rec: sturmgas.energy_open(window, spec),
            lambda e: expect(e.total == 0, f"factor window has energy {e.total}"),
        )
    )
    ops.append(
        Op(
            "is_locally_legal:2000",
            lambda rec: sturmgas.is_locally_legal(window, profile),
            lambda v: expect(v.legal, f"factor window illegal: {v.violation}"),
        )
    )
    ops.append(
        Op(
            "check_enclosed_ones:2000",
            lambda rec: sturmgas.check_enclosed_ones(window, profile),
            lambda v: expect(v.holds, f"enclosed-count witnesses {v.witnesses[:3]}"),
        )
    )
    return Workload("long_words", ops, prepare)


# README "Reproducing the headline facts" commands with what their stdout must
# show.  `verify --suite all` is left to the certify workload.
README_COMMANDS = (
    ("generate --gamma fib --psi fib --from 1 --to 13", r"^0100101001001$"),
    ("generate --gamma fib --psi 0,0,1,0 --from 0 --to 1", r"^01$"),
    ("distances --horizon 21", r"^d: 2 5 7 10 13 15 18 20$"),
    ("distances --horizon 25", r"^forbidden: 1 4 9 12 17 22 25$"),
    ("complexity --n-max 12", r"\A" + re.escape("\n".join(f"p_{n} = {n + 1}" for n in range(1, 13))) + r"\n\Z"),
    ("balance --word 0100101001001", r"^balanced$"),
    ("homogeneous --word 0100101001001", r"^homogeneous$"),
    ("intervals --n 2", r"\A01  .*\n00  .*\n10  .*\n\Z"),
    ("frequency --word 1", r"\[3,-1,2,5\]$"),
    ("frequency --word 11", r"^freq\(11\) = 0 "),
    ("discrepancy --word 1 --max-len 1000", r"^max deviation 0\.\d+ at horizon 1000;.*\(stable\)$"),
    ("characterize --n 2", r"^3 legal words at n=2 .*matches factors$"),
    ("exclusion --period 2", r"^2 \* 2 = 4 is a forbidden distance$"),
    ("energy --word 11", r"^energy\(11\) = 1/2$"),
    ("energy --word 000", r"^energy\(000\) = 1/1$"),
    ("energy --word 10101", r"^energy\(10101\) = 1/16$"),
    ("ground-state --length 12", r"^minimum energy 0/1 over 4096 states; 15 ground words$"),
)

def cli_readme(seed: int, root: Path) -> Workload:
    """The README commands through `sturmgas.cli.main`, in-process, order seeded.

    Each call parses, dispatches and renders as a fresh `sturmgas` process
    would; the interpreter start and package import of a cold start are this
    workload's set-up, timed in fresh processes as setup_s.
    """
    import sturmgas.cli  # noqa: F401

    commands = list(README_COMMANDS)
    random.Random(seed).shuffle(commands)
    ops = []
    for command, pattern in commands:

        def check(out, command=command, pattern=pattern):
            code, text, err = out
            if code != 0:
                raise Failed(f"`sturmgas {command}` exit {code}: {err.strip()}")
            expect(re.search(pattern, text, re.MULTILINE) is not None, f"`sturmgas {command}` printed {text!r}")

        ops.append(Op(command, lambda rec, argv=command.split(): _capture_cli(argv, rec), check))
    return Workload("cli_readme", ops)


WORKLOADS = {"certify": certify, "ground": ground, "long_words": long_words, "cli_readme": cli_readme}


def build(name: str, seed: int, root: Path) -> Workload:
    return WORKLOADS[name](seed, root)
