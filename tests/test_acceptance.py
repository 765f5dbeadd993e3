"""Acceptance gate: the package's headline claims at desk scale.

Each criterion prints one PASS/FAIL line (run pytest with -s to watch);
stated runtime budgets are asserted alongside the mathematical content.
"""

import json
import time
from contextlib import contextmanager
from fractions import Fraction

from sturmgas.cli import main
from sturmgas.exact_angle import GOLDEN, RotationParams
from sturmgas.sturmian_gen import Word, fibonacci_substitution, generate
from sturmgas.order_analysis import (
    distance_profile,
    factor_complexity,
    factor_set,
)
from sturmgas.discrepancy import component_intervals, strict_boundary_check
from sturmgas.characterization import (
    check_enclosed_ones,
    check_follower_ones,
    enumerate_legal_stable,
    periodic_exclusion,
)
from sturmgas.lattice_gas import (
    build_interaction,
    ground_state_search,
    periodic_energy_density,
)
from sturmgas.verify import run_equivalence

FIB = RotationParams(GOLDEN, GOLDEN)


@contextmanager
def criterion(number: int, budget_s: float, description: str):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"CRITERION {number}: FAIL - {description}")
        raise
    elapsed = time.monotonic() - start
    print(f"CRITERION {number}: PASS ({elapsed:.2f}s / budget {budget_s:.0f}s) - {description}")
    assert elapsed < budget_s, f"criterion {number} exceeded budget: {elapsed:.2f}s"


def test_criterion_1_distance_profile():
    with criterion(1, 1.0, "distance sequence and forbidden set match the stock values"):
        profile = distance_profile(FIB, 21)
        assert profile.d == (2, 5, 7, 10, 13, 15, 18, 20)
        wide = distance_profile(FIB, 25)
        assert sorted(wide.forbidden) == [1, 4, 9, 12, 17, 22, 25]


def test_criterion_2_generator_oracle_equivalence():
    with criterion(2, 1.0, "rotation coding equals the substitution iterate bit for bit"):
        oracle = fibonacci_substitution(15)
        assert len(oracle) == 1597  # F(17) with F(1) = F(2) = 1
        coded = generate(FIB, 1, len(oracle))
        assert coded.symbols == oracle.symbols
        assert coded.origin == oracle.origin == 1


def test_criterion_3_complexity_and_intervals():
    with criterion(3, 10.0, "minimal complexity and arc/factor bijection for n <= 12"):
        report = factor_complexity(FIB, 12)
        assert all(report.p[n] == n + 1 for n in range(1, 13))
        window = generate(FIB, 0, 4095)
        for n in range(1, 13):
            ci = component_intervals(FIB, n)
            assert len(ci.intervals) == n + 1
            assert {w.symbols for w in ci.words} == {
                w.symbols for w in factor_set(window, n)
            }


def test_criterion_4_equivalence_suite():
    with criterion(4, 30.0, "balance and homogeneity verdicts agree on 10^3 windows + mutations"):
        summary = run_equivalence(GOLDEN, 1000)
        assert "1000 windows" in summary


def test_criterion_5_strict_boundary_condition():
    with criterion(5, 60.0, "deviation maxima flat across horizons 1000/2000 for |w| <= 6"):
        window = generate(FIB, 0, 511)
        words = [
            f for n in range(1, 7) for f in sorted(
                x.symbols for x in factor_set(window, n)
            )
        ]
        assert len(words) == sum(n + 1 for n in range(1, 7))
        for f in words:
            report = strict_boundary_check(FIB, Word(f), 1000)
            assert report.stabilized, f"maximum grew for {f}"
        letter = strict_boundary_check(FIB, Word("1"), 1000)
        assert letter.max_dev <= 1 and letter.c_w_estimate <= 1


def test_criterion_6_characterization():
    with criterion(6, 60.0, "legal enumeration equals factors; periodic exclusion for p <= 12"):
        profile = distance_profile(FIB, 200)
        window = generate(FIB, 0, 4095)
        for n in range(1, 13):
            legal, _ = enumerate_legal_stable(n, profile)
            assert len(legal) == n + 1
            assert {w.symbols for w in legal} == {
                w.symbols for w in factor_set(window, n)
            }
        hits = {p: periodic_exclusion(p, profile) for p in range(1, 13)}
        assert hits[1] == 1 and hits[2] == 2
        assert all(i >= 1 for i in hits.values())


def test_criterion_7_ground_states():
    with criterion(7, 120.0, "exhaustive minima are zero with exactly the legal words, L <= 16"):
        profile = distance_profile(FIB, 200)
        spec = build_interaction(profile, Fraction(1, 2), Fraction(1))
        for length in range(2, 17):
            # the search itself asserts zero minimum and argmin == legal set
            result = ground_state_search(length, spec)
            assert result.min_energy == 0
            assert result.states_scanned == 1 << length


def test_criterion_8_no_periodic_ground_state():
    with criterion(8, 30.0, "every periodic content has positive energy density, p <= 10"):
        profile = distance_profile(FIB, 200)
        spec = build_interaction(profile, Fraction(1, 2), Fraction(1))
        for p in range(1, 11):
            for content in range(1 << p):
                cell = "".join(
                    "1" if (content >> k) & 1 else "0" for k in range(p)
                )
                dens = periodic_energy_density(Word(cell), spec)
                if content == 0:
                    assert dens.lower_bound == 1  # exactly the run penalty
                else:
                    assert dens.lower_bound > 0, (p, cell)


def test_criterion_9_spacing_structure():
    with criterion(9, 10.0, "zero witnesses for both spacing-structure scans on a length-2000 window"):
        profile = distance_profile(FIB, 2000)
        window = generate(FIB, 0, 1999)
        assert check_enclosed_ones(window, profile).holds
        assert check_follower_ones(window, profile).holds


def test_criterion_10_determinism(tmp_path):
    with criterion(10, 250.0, "verify --suite all reports are byte-identical across runs"):
        paths = [tmp_path / "run1.json", tmp_path / "run2.json"]
        for path in paths:
            start = time.monotonic()
            code = main(
                ["verify", "--suite", "all", "--format", "json", "--out", str(path)]
            )
            assert code == 0
            assert time.monotonic() - start < 120  # the desk-scale promise
        first, second = (p.read_bytes() for p in paths)
        assert first == second
        payload = json.loads(first)
        assert payload["results"]["passed"] is True
