"""Command-line surface: every headline fact reproducible by one subcommand.

Exit codes: 0 success, 1 usage error, 2 computation limit (any of
`errors.LIMIT_ERRORS`), 3 invariant failure.  `verify` exits 3 if any check
failed, else 2 if any check hit a limit, else 0.  JSON reports are
byte-deterministic for a fixed configuration and version.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from fractions import Fraction
from functools import cache
from typing import Optional

from . import __version__
from .errors import LIMIT_ERRORS, InternalConsistencyError, limit_info
from .exact_angle import RotationParams, parse_qi
from .sturmian_gen import ApproxRotation, Word, generate, generate_approx
from .order_analysis import (
    DistanceProfile,
    capped_size,
    distance_profile,
    factor_complexity,
    is_balanced,
    is_most_homogeneous,
    profile_for,
    profile_structure,
)
from .discrepancy import component_intervals, frequency, strict_boundary_check
from .characterization import enumerate_legal_stable, periodic_exclusion
from .lattice_gas import SEARCH_CAP, build_interaction, energy_open, ground_state_search
from .verify import SUITES, run_suites

USAGE_EXIT = 1
LIMIT_EXIT = 2
INVARIANT_EXIT = 3


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # an angle spec such as -1,1,1,3 is a value, not an option
        self._negative_number_matcher = re.compile(r"^-\d")

    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a fraction: {text!r}") from exc


def _decimal(x) -> str:
    return f"{float(x):.12g}"


@cache
def build_parser() -> _Parser:
    parser = _Parser(prog="sturmgas", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--gamma",
        default="fib",
        help="rotation angle: 'fib', 'a,b,c,d', or 'ratio:p/q' (generate only)",
    )
    common.add_argument(
        "--psi", default="0,0,1,0", help="phase: 'fib' or 'a,b,c,d' (default 0)"
    )
    common.add_argument(
        "--format", choices=("json", "csv", "text"), default="text", dest="fmt"
    )
    common.add_argument("--out", help="write the report to this file")

    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name, help_text):
        return sub.add_parser(name, help=help_text, parents=[common])

    p = add_parser("generate", "emit the coded word over an index window")
    p.add_argument("--from", dest="i_from", type=int, required=True)
    p.add_argument("--to", dest="i_to", type=int, required=True)
    p.add_argument(
        "--err-bound",
        type=_fraction,
        default=None,
        help="error bound for ratio:p/q mode (default 1/q^2)",
    )

    p = add_parser("distances", "spacing sequence with allowed/forbidden split")
    p.add_argument("--horizon", type=int, default=200, help="profile horizon")

    p = add_parser("complexity", "distinct factor counts per length")
    p.add_argument("--n-max", type=int, default=12)

    for name, help_text in (
        ("balance", "factor 1-count spread check"),
        ("homogeneous", "particle spacing spread check"),
    ):
        p = add_parser(name, help_text)
        p.add_argument("--word", help="explicit word; otherwise a window is generated")
        p.add_argument("--from", dest="i_from", type=int, default=0)
        p.add_argument("--to", dest="i_to", type=int, default=499)

    p = add_parser("intervals", "arcs in bijection with length-n words")
    p.add_argument("--n", type=int, required=True)

    p = add_parser("frequency", "exact occurrence frequency of a word")
    p.add_argument("--word", required=True)

    p = add_parser("discrepancy", "deviation maxima over segments")
    p.add_argument("--word", required=True)
    p.add_argument("--max-len", type=int, default=1000)
    p.add_argument("--trials", type=int, default=None, help="sampled lengths (default all)")

    p = add_parser("characterize", "certified legal-word enumeration at length n")
    p.add_argument("--n", type=int, required=True)

    p = add_parser("exclusion", "first forbidden multiple of a period")
    p.add_argument("--period", type=int, required=True)

    p = add_parser("energy", "exact energy of a word under the couplings")
    p.add_argument("--word", required=True)
    p.add_argument("--decay", type=_fraction, default=Fraction(1, 2))
    p.add_argument("--penalty", type=_fraction, default=Fraction(1))

    p = add_parser("ground-state", "certified minimum over all configurations")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--decay", type=_fraction, default=Fraction(1, 2))
    p.add_argument("--penalty", type=_fraction, default=Fraction(1))

    p = add_parser("verify", "run an invariant suite")
    p.add_argument(
        "--suite",
        choices=(*SUITES, "all"),
        default="all",
    )
    p.add_argument("--profile", help="JSON distance-profile file overriding the computed one")
    return parser


def _exact_params(args) -> RotationParams:
    if args.gamma.startswith("ratio:"):
        raise ValueError("this command needs an exact angle, not ratio:p/q")
    return RotationParams(parse_qi(args.gamma), parse_qi(args.psi))


def _config(args) -> dict:
    cfg = {}
    for key, value in sorted(vars(args).items()):
        if key == "out":
            continue
        if isinstance(value, Fraction):
            value = f"{value.numerator}/{value.denominator}"
        cfg[key] = value
    return cfg


# --- command implementations: each returns (results, csv_rows, text) ---


def cmd_generate(args):
    if args.gamma.startswith("ratio:"):
        frac = _fraction(args.gamma[len("ratio:") :])
        err = args.err_bound if args.err_bound is not None else Fraction(1, frac.denominator**2)
        approx = ApproxRotation(frac.numerator, frac.denominator, err)
        psi = parse_qi(args.psi).as_fraction()
        word = generate_approx(approx, psi, args.i_from, args.i_to)
        mode = f"certified approximation {approx.value} (err bound {approx.err_bound})"
    else:
        word = generate(_exact_params(args), args.i_from, args.i_to)
        mode = "exact"
    results = {"origin": word.origin, "symbols": word.symbols, "mode": mode}
    return results, [results], word.symbols


def cmd_distances(args):
    profile = distance_profile(_exact_params(args), capped_size(args.horizon, "profile horizon"))
    structure = profile_structure(profile)
    allowed, forbidden = sorted(profile.allowed), sorted(profile.forbidden)
    results = {
        "d": list(profile.d),
        "allowed": allowed,
        "forbidden": forbidden,
        "horizon": profile.horizon,
        "blocks": [list(b) for b in structure.blocks],
    }
    rows = [
        {"rank": j, "d": dv, "kind": structure.classification[dv]}
        for j, dv in enumerate(profile.d, start=1)
    ]
    text = (
        f"d: {' '.join(str(x) for x in profile.d)}\n"
        f"allowed:   {' '.join(str(x) for x in allowed)}\n"
        f"forbidden: {' '.join(str(x) for x in forbidden)}"
    )
    return results, rows, text


def cmd_complexity(args):
    report = factor_complexity(_exact_params(args), args.n_max)
    results = {"p": {str(n): c for n, c in sorted(report.p.items())}, "window": report.window_len}
    rows = [{"n": n, "p_n": c} for n, c in sorted(report.p.items())]
    text = "\n".join(f"p_{n} = {c}" for n, c in sorted(report.p.items()))
    return results, rows, text


def _word_from_args(args) -> Word:
    if args.word is not None:
        return Word(args.word)
    return generate(_exact_params(args), args.i_from, args.i_to)


def cmd_balance(args):
    w = _word_from_args(args)
    verdict = is_balanced(w)
    results = {"balanced": verdict.balanced, "length": len(w)}
    if verdict.witness:
        results["witness"] = [verdict.witness[0].symbols, verdict.witness[1].symbols]
    text = "balanced" if verdict.balanced else f"unbalanced: {results['witness']}"
    return results, [results], text


def cmd_homogeneous(args):
    w = _word_from_args(args)
    verdict = is_most_homogeneous(w)
    results = {"homogeneous": verdict.homogeneous, "length": len(w)}
    if verdict.gap_map:
        results["spacings"] = {str(j): m for j, m in sorted(verdict.gap_map.items())[:12]}
    if verdict.witness:
        j, lo, hi = verdict.witness
        results["witness"] = {"rank": j, "pair_low": list(lo), "pair_high": list(hi)}
    text = "homogeneous" if verdict.homogeneous else f"inhomogeneous: {results['witness']}"
    return results, [results], text


def cmd_intervals(args):
    ci = component_intervals(_exact_params(args), args.n)
    rows = []
    for (lo, hi), w in zip(ci.intervals, ci.words):
        rows.append(
            {
                "word": w.symbols,
                "low": str(lo),
                "high": str(hi),
                "length_decimal": _decimal(hi - lo),
            }
        )
    results = {"n": args.n, "count": len(rows), "intervals": rows}
    text = "\n".join(f"{r['word']}  |C| = {r['length_decimal']}" for r in rows)
    return results, rows, text


def cmd_frequency(args):
    w = Word(args.word)
    xi = frequency(_exact_params(args), w)
    results = {"word": w.symbols, "frequency": str(xi), "frequency_decimal": _decimal(xi)}
    return results, [results], f"freq({w.symbols}) = {_decimal(xi)}  [{xi}]"


def cmd_discrepancy(args):
    rep = strict_boundary_check(
        _exact_params(args), Word(args.word), args.max_len, trials=args.trials
    )
    results = {
        "word": rep.word.symbols,
        "frequency": str(rep.frequency),
        "frequency_decimal": _decimal(rep.frequency),
        "max_dev": _decimal(rep.max_dev),
        "c_w_estimate": _decimal(rep.c_w_estimate),
        "stabilized": rep.stabilized,
        "segments": rep.segments_tested,
    }
    row = {
        "word": rep.word.symbols,
        "frequency_decimal": _decimal(rep.frequency),
        "max_dev": _decimal(rep.max_dev),
        "horizon": args.max_len,
    }
    text = (
        f"max deviation {results['max_dev']} at horizon {args.max_len}; "
        f"doubled horizon gives {results['c_w_estimate']} "
        f"({'stable' if rep.stabilized else 'GREW'})"
    )
    return results, [row], text


def cmd_characterize(args):
    # as for exclusion, the profile only carries the angle: the certificate
    # grows it as it needs, and refuses any n above its cap first
    legal, used = enumerate_legal_stable(args.n, distance_profile(_exact_params(args), 2))
    words = sorted(w.symbols for w in legal)
    results = {
        "n": args.n,
        "M_used": used,
        "legal_words": words,
        "count": len(words),
        "matches_factor_set": True,  # the certificate returns only on equality with the arc labels
    }
    rows = [{"word": w} for w in words]
    text = f"{len(words)} legal words at n={args.n} (enclosing length {used}); matches factors"
    return results, rows, text


def cmd_exclusion(args):
    # the profile only carries the angle: periodic_exclusion walks the multiples past it
    profile = distance_profile(_exact_params(args), 2)
    i = periodic_exclusion(args.period, profile)
    results = {"period": args.period, "multiple": i, "distance": i * args.period}
    text = f"{i} * {args.period} = {i * args.period} is a forbidden distance"
    return results, [results], text


def cmd_energy(args):
    params, w = _exact_params(args), Word(args.word)
    spec = build_interaction(profile_for(params, len(w) - 1), args.decay, args.penalty)
    breakdown = energy_open(w, spec)
    results = {
        "word": args.word,
        "total": f"{breakdown.total.numerator}/{breakdown.total.denominator}",
        "pair_part": f"{breakdown.pair_part.numerator}/{breakdown.pair_part.denominator}",
        "zero_run_part": f"{breakdown.zero_run_part.numerator}/{breakdown.zero_run_part.denominator}",
        "violating_pairs": [list(t) for t in breakdown.violating_pairs],
        "violating_runs": list(breakdown.violating_runs),
    }
    text = f"energy({args.word}) = {results['total']}"
    return results, [results], text


def cmd_ground_state(args):
    # the search refuses a length above its cap: build no profile that long first
    profile = profile_for(_exact_params(args), min(args.length, SEARCH_CAP))
    spec = build_interaction(profile, args.decay, args.penalty)
    result = ground_state_search(args.length, spec)
    words = sorted(w.symbols for w in result.argmin)
    results = {
        "length": args.length,
        "min_energy": f"{result.min_energy.numerator}/{result.min_energy.denominator}",
        "argmin": words,
        "count": len(words),
        "states_scanned": result.states_scanned,
    }
    rows = [{"word": w} for w in words]
    text = (
        f"minimum energy {results['min_energy']} over {result.states_scanned} states; "
        f"{len(words)} ground words"
    )
    return results, rows, text


def cmd_verify(args):
    params = _exact_params(args)
    names = list(SUITES) if args.suite == "all" else [args.suite]
    profile: Optional[DistanceProfile] = None
    if args.profile:
        with open(args.profile, encoding="utf-8") as fh:
            profile = DistanceProfile.from_json(fh.read())
    suites = run_suites(names, params, profile=profile)
    all_passed = all(c.passed for checks in suites.values() for c in checks)
    results = {
        "passed": all_passed,
        "suites": {
            name: [c.to_dict() for c in checks] for name, checks in suites.items()
        },
    }
    rows = [
        {"suite": name, "check": c.name, "passed": c.passed, "details": c.details}
        for name, checks in suites.items()
        for c in checks
    ]
    mark = lambda c: "PASS" if c.passed else "LIMIT" if c.inconclusive else "FAIL"
    lines = [f"{mark(c)}  {name}/{c.name}: {c.details}"
             for name, checks in suites.items() for c in checks]
    lines.append({
        0: "all checks passed",
        LIMIT_EXIT: "no check failed, but computation limits were hit",
        INVARIANT_EXIT: "FAILURES PRESENT",
    }[_verify_exit(results)])
    return results, rows, "\n".join(lines)


def _verify_exit(results: dict) -> int:
    """3 if any check failed, else 2 if any hit a computation limit, else 0."""
    missed = [c for checks in results["suites"].values() for c in checks if not c["passed"]]
    if any(not c.get("inconclusive") for c in missed):
        return INVARIANT_EXIT
    return LIMIT_EXIT if missed else 0


_COMMANDS = {
    "generate": cmd_generate,
    "distances": cmd_distances,
    "complexity": cmd_complexity,
    "balance": cmd_balance,
    "homogeneous": cmd_homogeneous,
    "intervals": cmd_intervals,
    "frequency": cmd_frequency,
    "discrepancy": cmd_discrepancy,
    "characterize": cmd_characterize,
    "exclusion": cmd_exclusion,
    "energy": cmd_energy,
    "ground-state": cmd_ground_state,
    "verify": cmd_verify,
}


def _render(args, results, rows, text) -> str:
    if args.fmt == "json":
        report = {
            "tool_version": __version__,
            "config": _config(args),
            "results": results,
        }
        return json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.fmt == "csv":
        buf = io.StringIO()
        if rows:
            writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        return buf.getvalue()
    return text + "\n"


def _limit_report(exc: Exception) -> str:
    """A computation-limit failure and its partial progress, as JSON."""
    error = {"type": type(exc).__name__, "message": str(exc), "info": limit_info(exc)}
    return json.dumps({"error": error}, sort_keys=True, indent=2) + "\n"


def _emit(args, output: str, code: int) -> int:
    """Write output to --out or stdout and return code; a failed write is exit 1."""
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(output)
        else:
            sys.stdout.write(output)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    return code


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    try:
        results, rows, text = _COMMANDS[args.command](args)
    except InternalConsistencyError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return INVARIANT_EXIT
    except LIMIT_ERRORS as exc:  # ahead of ValueError: InsufficientProfileError is one
        print(f"computation limit: {type(exc).__name__}: {exc}", file=sys.stderr)
        if args.fmt == "json":  # a failed write is reported, but exit stays 2
            _emit(args, _limit_report(exc), LIMIT_EXIT)
        return LIMIT_EXIT
    except (ValueError, argparse.ArgumentTypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    code = _verify_exit(results) if args.command == "verify" else 0
    return _emit(args, _render(args, results, rows, text), code)


if __name__ == "__main__":
    sys.exit(main())
