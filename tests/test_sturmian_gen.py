"""Rotation coding, the substitution oracle, and certified approximation."""

from fractions import Fraction

import pytest

from sturmgas.errors import HorizonExceededError
from sturmgas.exact_angle import (
    GOLDEN,
    QI_ONE,
    QI_ZERO,
    QuadIrrational,
    RotationParams,
    qi_make,
    rotate,
)
from sturmgas.sturmian_gen import (
    ApproxRotation,
    Word,
    fibonacci_substitution,
    generate,
    generate_approx,
    symbol_at,
)

FIB = RotationParams(GOLDEN, GOLDEN)
PHASE0 = RotationParams(GOLDEN, QI_ZERO)


def test_word_alphabet_checked():
    with pytest.raises(ValueError):
        Word("0102")


def test_word_equality_ignores_origin():
    assert Word("0100", 0) == Word("0100", 7)
    assert len({Word("01", 0), Word("01", 3)}) == 1
    assert Word("01") != Word("10")


def test_word_accessors():
    w = Word("0100", origin=5)
    assert w.at(5) == 0 and w.at(6) == 1
    assert w.one_positions() == [6]
    assert w.bits() == (0, 1, 0, 0)


def test_phase_zero_first_symbols():
    assert symbol_at(PHASE0, 0) == 0
    assert symbol_at(PHASE0, 1) == 1


def test_phase_zero_starts_zero_for_any_angle():
    for gamma in (GOLDEN, qi_make(0, 1, 2, 2), qi_make(2, 1, 5, 3)):
        assert symbol_at(RotationParams(gamma, QI_ZERO), 0) == 0


def test_golden_phase_window():
    assert generate(FIB, 1, 13).symbols == "0100101001001"
    for i in range(1, 14):
        assert symbol_at(FIB, i) == generate(FIB, 1, 13).at(i)


def test_phase_zero_prefix():
    assert generate(PHASE0, 0, 1).symbols == "01"


def test_degenerate_window():
    w = generate(FIB, 5, 5)
    assert len(w) == 1 and int(w.symbols) == symbol_at(FIB, 5)


def test_empty_window_rejected():
    with pytest.raises(ValueError):
        generate(FIB, 5, 4)


def test_negative_window():
    w = generate(FIB, -20, 20)
    assert w.origin == -20
    assert all(w.at(i) == symbol_at(FIB, i) for i in range(-20, 21))


def test_shift_equivariance():
    shifted_phase = RotationParams(GOLDEN, rotate(GOLDEN, GOLDEN, 1))
    for i, j in ((0, 30), (-12, 5)):
        assert generate(FIB, i + 1, j + 1) == generate(shifted_phase, i, j)


def test_substitution_basics():
    assert fibonacci_substitution(1).symbols == "01"
    assert fibonacci_substitution(1).origin == 1
    assert fibonacci_substitution(5).symbols == "0100101001001"
    with pytest.raises(ValueError):
        fibonacci_substitution(0)


def test_substitution_lengths_are_fibonacci():
    fib = [1, 1]
    while len(fib) < 20:
        fib.append(fib[-1] + fib[-2])
    for n in range(1, 16):
        assert len(fibonacci_substitution(n)) == fib[n + 1]  # F(n+2), F(1)=F(2)=1


def test_substitution_matches_rotation_coding():
    for n in range(1, 16):
        oracle = fibonacci_substitution(n)
        assert generate(FIB, 1, len(oracle)) == oracle


def test_letter_frequency_single_deviation():
    for n in (10, 100, 999):
        w = generate(FIB, 0, n - 1)
        dev = w.count("1") - (QI_ONE - GOLDEN) * n
        assert -1 <= dev <= 1


def test_approx_validation():
    with pytest.raises(ValueError):
        ApproxRotation(4, 6, Fraction(1, 100))  # not reduced
    with pytest.raises(ValueError):
        ApproxRotation(1, 3, Fraction(1, 100))  # below 1/2
    with pytest.raises(ValueError):
        ApproxRotation(13, 21, Fraction(0))


def test_approx_agrees_with_exact():
    approx = ApproxRotation.from_convergents(GOLDEN, 21)
    assert (approx.p, approx.q) == (13, 21)
    assert approx.err_bound == Fraction(1, 21 * 34)
    assert generate_approx(approx, Fraction(0), 2, 20) == generate(PHASE0, 2, 20)
    fine = ApproxRotation.from_convergents(GOLDEN, 200)
    assert generate_approx(fine, Fraction(0), 2, 150) == generate(PHASE0, 2, 150)


def test_approx_with_irrational_phase_equivalent():
    # phase 1/7 is exact in both modes
    exact = RotationParams(GOLDEN, QuadIrrational.from_fraction(Fraction(1, 7)))
    fine = ApproxRotation.from_convergents(GOLDEN, 500)
    assert generate_approx(fine, Fraction(1, 7), 0, 200) == generate(exact, 0, 200)


def test_approx_negative_indices():
    exact = RotationParams(GOLDEN, QuadIrrational.from_fraction(Fraction(1, 7)))
    fine = ApproxRotation.from_convergents(GOLDEN, 500)
    assert generate_approx(fine, Fraction(1, 7), -80, -2) == generate(exact, -80, -2)


def test_approx_phase_between_angle_and_approximant_refused():
    # a phase sitting between the true angle and p/q cannot be coded at
    # index 0: which side of the true boundary it falls on is unknowable
    approx = ApproxRotation.from_convergents(GOLDEN, 21)  # 13/21 > golden
    between = Fraction(13, 21) - approx.err_bound / 2
    with pytest.raises(HorizonExceededError) as err:
        generate_approx(approx, between, 0, 0)
    assert err.value.first_bad_index == 0


def test_approx_single_index_zero_is_exact():
    approx = ApproxRotation.from_convergents(GOLDEN, 21)
    assert generate_approx(approx, Fraction(0), 0, 0).symbols == "0"


def test_approx_margin_violation_names_index():
    coarse = ApproxRotation(2, 3, Fraction(1, 10))
    with pytest.raises(HorizonExceededError) as err:
        generate_approx(coarse, Fraction(0), 2, 50)
    assert err.value.first_bad_index >= 2


def test_approx_boundary_return_refused():
    # the rational orbit of phase 0 returns to the boundary at index q
    approx = ApproxRotation.from_convergents(GOLDEN, 21)
    with pytest.raises(HorizonExceededError) as err:
        generate_approx(approx, Fraction(0), 2, 40)
    assert err.value.first_bad_index == 21
