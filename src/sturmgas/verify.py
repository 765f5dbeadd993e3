"""Invariant suites wired into both the CLI and the acceptance tests.

Each suite runs a list of named checks at the desk-scale module constants
below and reports one result per check; reports are fully deterministic
(fixed sampling plans, exact arithmetic, sorted serialization).  A check
passes, fails, or is inconclusive: it hit a computation limit
(`errors.LIMIT_ERRORS`) before it could decide.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cache
from typing import Optional

from .errors import LIMIT_ERRORS, SturmgasError, limit_info
from .exact_angle import QI_ONE, QI_ZERO, QuadIrrational, RotationParams, recurrence_length, rotate
from .sturmian_gen import Word, generate
from .order_analysis import (
    DistanceProfile,
    capped_size,
    distance_profile,
    factor_complexity,
    factor_set,
    first_distance,
    is_balanced,
    is_most_homogeneous,
    profile_for,
    profile_structure,
)
from .discrepancy import (
    component_intervals,
    count_occurrences,
    frequency,
    strict_boundary_check,
)
from .characterization import (
    check_enclosed_ones,
    check_follower_ones,
    enumerate_legal_stable,
    is_locally_legal,
    periodic_exclusion,
)
from .lattice_gas import (
    _coupling_sum,
    build_interaction,
    energy_open,
    ground_state_search,
    periodic_energy_density,
)

#: desk-scale plan, read by the suites at call time: `verify --suite all`
#: stays well under two minutes
DEFAULT_HORIZON = 200
DEFAULT_WINDOW = 2000
DEFAULT_L_MAX = 16
DEFAULT_N_MAX = 12
#: factor lengths whose frequencies and deviation maxima are checked
WORD_LEN_MAX = 6
#: the shorter of the two deviation horizons (the other is twice it)
DEVIATION_MAX_LEN = 1000
#: largest period whose periodic energy densities are checked
DENSITY_P_MAX = 10
DECAY_BASE = Fraction(1, 2)
PENALTY = Fraction(1)
#: windows in the balance/homogeneity equivalence run, their largest
#: length and the seed of their pseudorandom plan
EQUIV_SAMPLES = 100
EQUIV_MAX_LEN = 500
EQUIV_SEED = 20260808


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    details: str
    #: the partial progress of the limit an inconclusive check hit; None otherwise
    info: Optional[dict] = None

    @property
    def inconclusive(self) -> bool:
        return self.info is not None

    def to_dict(self) -> dict:
        extra = {"inconclusive": True, "info": self.info} if self.inconclusive else {}
        return {"name": self.name, "passed": self.passed, "details": self.details, **extra}


def _check(name: str, fn) -> CheckResult:
    try:
        details = fn()
        return CheckResult(name, True, details or "ok")
    except AssertionError as exc:
        return CheckResult(name, False, str(exc) or "assertion failed")
    except LIMIT_ERRORS as exc:
        return CheckResult(name, False, f"{type(exc).__name__}: {exc}", limit_info(exc))
    except SturmgasError as exc:
        return CheckResult(name, False, f"{type(exc).__name__}: {exc}")


def _default_profile(params: RotationParams) -> DistanceProfile:
    """The suites' profile, past d_4 <= 4 * (d1 + 1) and at least DEFAULT_HORIZON."""
    return profile_for(params, max(DEFAULT_HORIZON, 4 * (first_distance(params.gamma) + 1)))


# ---------------------------------------------------------------------------
# deterministic window/mutation plan shared by fast and full equivalence runs


def equivalence_ensemble(gamma: QuadIrrational, count: int):
    """Yield (window, mutated) pairs under a fixed pseudorandom plan.

    Phases mix rationals with multiples of gamma; every window holds at
    least three 1's, and the flip position is drawn strictly between the
    outermost ones, so the mutated window keeps both and holds at least two.
    """
    rng = random.Random(EQUIV_SEED)
    # every d1 + 1 consecutive sites hold a 1, so this many hold three or more
    min_len = 3 * (first_distance(gamma) + 1)
    for _ in range(count):
        length = max(rng.randrange(24, EQUIV_MAX_LEN + 1), min_len)
        i0 = rng.randrange(-1000, 1000)
        r = Fraction(rng.randrange(0, 997), 997)
        m = rng.randrange(0, 4)
        psi = rotate(QuadIrrational.from_fraction(r), gamma, m)
        params = RotationParams(gamma, psi)
        w = generate(params, i0, i0 + length - 1)
        ones = [k for k, ch in enumerate(w.symbols) if ch == "1"]
        u = rng.randrange(ones[0] + 1, ones[-1])
        flipped = "0" if w.symbols[u] == "1" else "1"
        mutated = Word(w.symbols[:u] + flipped + w.symbols[u + 1 :], w.origin)
        yield w, mutated


def run_equivalence(gamma: QuadIrrational, count: int) -> str:
    """Balance and spacing verdicts must agree on every mutated window.

    Clean windows must pass both checks.  A mutated window is cut to its
    outermost 1's first, where the verdicts are equivalent: a word u that
    starts and ends with 1 and holds at least two 1's is balanced iff it is
    most homogeneous (uncut, `00` against `11` can unbalance a homogeneous
    word).  With p_0 < ... < p_r the 1's of u:

    - Not homogeneous => not balanced.  Take rank-j spacings
      a = p_(i+j) - p_i and b = p_(k+j) - p_k >= a + 2.  The length-(a+1)
      factors at p_i and at p_k + 1 hold j + 1 and at most j - 1 ones.
    - Not balanced => not homogeneous.  Take length-m factors X, Y with k
      and at least k + 2 ones.  In Y, k + 2 consecutive 1's give a
      rank-(k+1) spacing <= m - 1, hence a rank-k spacing <= m - 2.  If X
      has a 1 on each side, the nearest two give a rank-(k+1) spacing
      >= m + 1.  Otherwise X starts or ends u, so k >= 1, and its k ones
      with the nearest 1 on the other side give a rank-k spacing >= m.
    """
    for w, mutated in equivalence_ensemble(gamma, count):
        bal = is_balanced(w)
        hom = is_most_homogeneous(w)
        assert bal.balanced and hom.homogeneous, (
            f"clean window failed: balanced={bal.balanced} "
            f"homogeneous={hom.homogeneous} window={w.symbols[:60]}..."
        )
        first, last = mutated.symbols.index("1"), mutated.symbols.rindex("1")
        cut = Word(mutated.symbols[first : last + 1], mutated.origin + first)
        mbal = is_balanced(cut)
        mhom = is_most_homogeneous(cut)
        assert mbal.balanced == mhom.homogeneous, (
            f"deciders disagree on mutation: balanced={mbal.balanced} "
            f"homogeneous={mhom.homogeneous} word={cut.symbols}"
        )
    return f"{count} windows + mutations, {2 * count} decided verdicts"


# ---------------------------------------------------------------------------
# suites


def suite_order(params: RotationParams) -> list[CheckResult]:
    g = params.gamma
    profile = _default_profile(params)
    # a rank-j pair at distance d_j + 1 spans d_j + 2 sites
    span = capped_size(recurrence_length(g, profile.d[-1] + 2), "spacing window")
    w = generate(params, 0, DEFAULT_WINDOW - 1)
    checks = []

    def complexity():
        report = factor_complexity(params, DEFAULT_N_MAX)
        bad = {n: p for n, p in report.p.items() if p != n + 1}
        assert not bad, f"factor counts off minimal complexity: {bad}"
        return f"p_n = n+1 for n <= {DEFAULT_N_MAX}, window {report.window_len}"

    checks.append(_check("complexity_minimal", complexity))

    def structure():
        st = profile_structure(profile)
        return f"{len(st.blocks)} blocks over {len(profile.d)} distances"

    checks.append(_check("profile_structure", structure))

    def floor_formula():
        slope = (QI_ONE - g).reciprocal()
        for j, dj in enumerate(profile.d, start=1):
            expect = (j * slope).floor()
            assert dj == expect, f"d_{j} = {dj}, floor formula gives {expect}"
        return f"d_j = floor(j/(1-gamma)) for {len(profile.d)} ranks"

    checks.append(_check("distance_floor_formula", floor_formula))

    def forbidden_words():
        run = profile.d1 + 1
        assert "11" not in w.symbols, "adjacent 1's occurred"
        assert "0" * run not in w.symbols, f"{run} consecutive 0's occurred"
        return f"no '11' or run of {run} '0's in window of {DEFAULT_WINDOW}"

    checks.append(_check("forbidden_words_absent", forbidden_words))

    def gaps():
        ones = w.one_positions()
        seen = {b - a for a, b in zip(ones, ones[1:])}
        assert seen <= {profile.d1, profile.d1 + 1}, f"stray gaps {sorted(seen)}"
        return f"consecutive gaps {sorted(seen)}"

    checks.append(_check("gaps_two_valued", gaps))

    def both_gap_values():
        ones = generate(params, 0, span - 1).one_positions()
        spacings = lambda j: {b - a for a, b in zip(ones, ones[j:])}
        missing = [j for j, dj in enumerate(profile.d, 1) if not {dj, dj + 1} <= spacings(j)]
        assert not missing, f"ranks missing a spacing value: {missing}"
        return f"both spacings seen for every rank, window {span}"

    checks.append(_check("both_spacings_occur", both_gap_values))

    def window_order():
        assert is_balanced(w).balanced, "window unbalanced"
        assert is_most_homogeneous(w).homogeneous, "window inhomogeneous"
        return f"window of {DEFAULT_WINDOW} balanced and homogeneous"

    checks.append(_check("window_balance_homogeneity", window_order))

    def letter_freq():
        for n in (50, 500, DEFAULT_WINDOW):
            word = generate(params, 0, n - 1)
            dev = word.count("1") - (QI_ONE - g) * n
            assert -1 <= dev <= 1, f"letter-count deviation {float(dev):.4f} at {n}"
        return "1-count within 1 of (1-gamma)*N"

    checks.append(_check("letter_frequency", letter_freq))

    checks.append(
        _check(
            "balance_homogeneity_equivalence",
            lambda: run_equivalence(g, EQUIV_SAMPLES),
        )
    )
    return checks


def suite_discrepancy(params: RotationParams) -> list[CheckResult]:
    checks = []
    span = capped_size(recurrence_length(params.gamma, DEFAULT_N_MAX), "factor window")
    # one deviation scan per word, and the length-n factors as sorted arc labels
    report = cache(lambda f: strict_boundary_check(params, Word(f), DEVIATION_MAX_LEN))
    labels = cache(lambda n: sorted(x.symbols for x in component_intervals(params, n).words))

    def bijection():
        window = generate(params, 0, span - 1)
        for n in range(1, DEFAULT_N_MAX + 1):
            factors = sorted(x.symbols for x in factor_set(window, n))
            assert labels(n) == factors, f"arc labels differ from factors at n={n}"
        return f"n+1 arcs labeled by the n+1 factors for n <= {DEFAULT_N_MAX}"

    checks.append(_check("interval_word_bijection", bijection))

    def additivity():
        for n in range(1, WORD_LEN_MAX):
            for f in labels(n):
                w = Word(f)
                lhs = frequency(params, w)
                rhs = frequency(params, Word(f + "0")) + frequency(params, Word(f + "1"))
                assert lhs == rhs, f"extension frequencies differ at {f}"
        return f"freq(w) = freq(w0) + freq(w1) for |w| < {WORD_LEN_MAX}"

    checks.append(_check("frequency_additivity", additivity))

    def total_mass():
        for n in range(1, WORD_LEN_MAX + 1):
            ci = component_intervals(params, n)
            total = sum((hi - lo for lo, hi in ci.intervals), QI_ONE * 0)
            assert total == 1, f"arc lengths sum to {total} at n={n}"
        return f"length-n frequencies sum to 1 for n <= {WORD_LEN_MAX}"

    checks.append(_check("frequencies_sum_to_one", total_mass))

    def stabilization():
        flat = []
        for n in range(1, WORD_LEN_MAX + 1):
            for f in labels(n):
                assert report(f).stabilized, f"deviation max grew for {f}"
                flat.append(f)
        return f"{len(flat)} factor words flat across doubled horizon {DEVIATION_MAX_LEN}"

    checks.append(_check("deviation_maxima_stable", stabilization))

    def letter_bound():
        rep = report("1")
        assert rep.max_dev <= 1, f"deviation {float(rep.max_dev):.4f} above 1"
        return f"max deviation for '1' = {float(rep.max_dev):.6f} <= 1"

    checks.append(_check("letter_deviation_bound", letter_bound))

    def prefix_convergence():
        for f in ("1", "00", "010"):
            rep = report(f)
            for n_len in (64, 256, 1024):
                seg = generate(params, 0, n_len - 1)
                dev = count_occurrences(seg, rep.word) - rep.frequency * n_len
                dev = dev if dev.sign() >= 0 else -dev
                assert dev <= rep.c_w_estimate, f"prefix deviation at {f}, N={n_len}"
        return "prefix counts within the estimated constant"

    checks.append(_check("prefix_count_convergence", prefix_convergence))
    return checks


def suite_characterize(
    params: RotationParams, profile: Optional[DistanceProfile] = None
) -> list[CheckResult]:
    checks = []
    prof = profile if profile is not None else _default_profile(params)

    def enumeration():
        for n in range(1, DEFAULT_N_MAX + 1):
            # raises unless legal words = arc labels; never regrows a given profile
            enumerate_legal_stable(n, prof, params)
        return f"legal-word sets equal factor sets, size n+1, for n <= {DEFAULT_N_MAX}"

    checks.append(_check("legal_enumeration_matches_factors", enumeration))

    def exclusion():
        g = params.gamma
        # the closed form: n is forbidden iff n = 1 or frac(n*gamma) in (1 - gamma, gamma)
        forbidden = lambda n: n == 1 or QI_ONE - g < rotate(QI_ZERO, g, n) < g
        hits = {}
        for p in range(1, DEFAULT_N_MAX + 1):
            i = hits[p] = periodic_exclusion(p, prof)
            first = next((j for j in range(1, i + 1) if forbidden(j * p)), None)
            assert first == i, f"period {p} excluded at multiple {i}, closed form gives {first}"
        return f"forbidden multiple found for every period <= {DEFAULT_N_MAX}: {hits}"

    checks.append(_check("periodic_exclusion", exclusion))

    def periodic_illegal():
        run_len = prof.d1 + 1
        for p in range(1, DEFAULT_N_MAX + 1):
            i = periodic_exclusion(p, prof)
            span = max(2 * i * p, run_len)
            grown = profile_for(params, max(prof.horizon, span))
            for content in range(1 << p):
                cell = format(content, f"0{p}b")[::-1]  # site k is bit k of content
                # a 1 meets its copy at the forbidden distance i*p within 2*i*p
                # sites, so only the empty cell needs the d1 + 1 zero run
                x = cell * (2 * i) if content else "0" * span
                verdict = is_locally_legal(Word(x), grown)
                assert not verdict.legal, f"period-{p} content {cell} passed"
        return f"every periodic content up to period {DEFAULT_N_MAX} rejected"

    checks.append(_check("periodic_words_illegal", periodic_illegal))

    def spacing_structure():
        span = min(2000, prof.horizon + 1)
        grown = distance_profile(params, prof.horizon)
        w = generate(params, 0, span - 1)
        f1 = check_enclosed_ones(w, grown)
        f2 = check_follower_ones(w, grown)
        assert f1.holds, f"enclosed-count witnesses: {f1.witnesses[:3]}"
        assert f2.holds, f"follower witnesses: {f2.witnesses[:3]}"
        return f"no witnesses on window of {span}"

    checks.append(_check("spacing_structure", spacing_structure))
    return checks


def suite_energy(
    params: RotationParams, profile: Optional[DistanceProfile] = None
) -> list[CheckResult]:
    checks = []
    prof = profile if profile is not None else _default_profile(params)
    # built inside the checks, so a profile that cannot carry it is a limit of each
    spec = cache(lambda: build_interaction(prof, DECAY_BASE, PENALTY))

    def summable():
        # one integer numerator over a power of b, as energy_open sums
        total = _coupling_sum(DECAY_BASE, ((j, 1) for j in spec()._forbidden_sorted))
        bound = DECAY_BASE / (1 - DECAY_BASE)
        assert total <= bound, f"coupling sum {total} above geometric bound"
        shown, limit, gap = f"{float(total):.6f}", f"{float(bound):.6f}", bound - total
        # when six decimals hide the gap, it is shown exactly
        tail = f", gap {Decimal(gap.numerator) / gap.denominator:.3e}" if shown == limit else ""
        return f"sum of couplings {shown} <= {limit}{tail}"

    checks.append(_check("couplings_summable", summable))

    def ground_states():
        sizes = {}
        for length in range(2, DEFAULT_L_MAX + 1):
            result = ground_state_search(length, spec())
            sizes[length] = len(result.argmin)
        return f"minimum 0 with legal argmin at every length: sizes {sizes}"

    checks.append(_check("ground_states_zero_and_legal", ground_states))

    def factor_energies():
        w = generate(params, 0, min(prof.horizon, 64))
        assert energy_open(w, spec()).total == 0, "generated window has energy"
        bad = energy_open(Word("11"), spec())
        assert bad.total == spec().coupling(1) > 0, "adjacent pair not penalized"
        return "generated windows at zero energy, defects positive"

    checks.append(_check("factor_energy_zero", factor_energies))

    def periodic_positive():
        worst = None
        for p in range(1, DENSITY_P_MAX + 1):
            for content in range(1 << p):
                cell = format(content, f"0{p}b")[::-1]  # site k is bit k of content
                dens = periodic_energy_density(Word(cell), spec())
                if content == 0:
                    assert dens.lower_bound == PENALTY, (
                        f"vacuum density {dens.lower_bound} != penalty"
                    )
                else:
                    assert dens.lower_bound > 0, f"content {cell} at zero density"
                if worst is None or dens.lower_bound < worst:
                    worst = dens.lower_bound
        # lam**n_p / p falls below a float's range once n_p passes about 1020
        small = float(worst)
        if worst < sys.float_info.min:
            small = Decimal(worst.numerator) / worst.denominator
        return f"all periodic densities positive; smallest {small:.3e}"

    checks.append(_check("periodic_densities_positive", periodic_positive))

    def decay_invariance():
        halved = build_interaction(prof, DECAY_BASE / 2, PENALTY)
        for length in (4, 8, 10):
            a = ground_state_search(length, spec())
            b = ground_state_search(length, halved)
            assert a.argmin == b.argmin, f"argmin changed under halved decay at {length}"
        return "argmin invariant under halving the decay base"

    checks.append(_check("decay_choice_irrelevant", decay_invariance))
    return checks


#: every suite by name, with whether it accepts an overriding distance profile
SUITES = {"order": False, "discrepancy": False, "characterize": True, "energy": True}


def run_suites(
    names: list[str],
    params: RotationParams,
    profile: Optional[DistanceProfile] = None,
) -> dict[str, list[CheckResult]]:
    out: dict[str, list[CheckResult]] = {}
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}")
        # Looked up at call time, so a wrapper bound onto this module
        # (such as a tracing one) is the function that runs.
        suite = globals()[f"suite_{name}"]
        out[name] = suite(params, profile=profile) if SUITES[name] else suite(params)
    return out
