"""Rotation coding, the substitution oracle, and certified approximation."""

import random
from fractions import Fraction
from math import gcd

import pytest

from sturmgas import sturmian_gen
from sturmgas.errors import HorizonExceededError
from sturmgas.exact_angle import (
    GOLDEN,
    QI_ONE,
    QI_ZERO,
    QuadIrrational,
    RotationParams,
    _sign_surd,
    parse_qi,
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

#: the four panel angles, two whose first distance exceeds 200, and one within
#: 2**-64 of 1, where P_t + n + 1 wraps past 2**64 just below gamma
ORACLE_ANGLES = (
    "fib",
    "0,1,2,2",
    "-1,1,1,3",
    "1,1,4,3",
    "998,1,1000,2",
    "89698,1,89998,2",
    "-1311738121,3166815962,3166815962,2",
)


def _reference_generate(params, i_from, i_to):
    """Oracle: the per-symbol exact walk, two surd signs per symbol."""
    g = params.gamma
    d = g.d
    start = rotate(params.psi, g, i_from) if i_from else params.psi
    c = g.c * start.c // gcd(g.c, start.c)
    ga, gb = g.a * (c // g.c), g.b * (c // g.c)
    pa, pb = start.a * (c // start.c), start.b * (c // start.c)
    out = []
    for _ in range(i_to - i_from + 1):
        out.append("0" if _sign_surd(pa - ga, pb - gb, d) < 0 else "1")
        pa += ga
        pb += gb
        if _sign_surd(pa - c, pb, d) >= 0:  # wrapped past 1
            pa -= c
    return Word("".join(out), i_from)


def _oracle_phases(gamma, rng):
    """0, gamma, 1 - gamma, frac(k*gamma) for k in {-7, 2, 123457}, 1/2, two k/997."""
    lattice = [rotate(QI_ZERO, gamma, k) for k in (-7, 2, 123457)]
    rational = [Fraction(1, 2)] + [Fraction(rng.randrange(1, 997), 997) for _ in range(2)]
    return [QI_ZERO, gamma, QI_ONE - gamma, *lattice] + [
        QuadIrrational.from_fraction(r) for r in rational
    ]


def _oracle_windows(params):
    """Short, straddling, negative and far windows, plus both boundary landings
    at the first and at the last index of a window."""
    windows = [(0, 0), (5, 6), (-1, 0), (-40, 40), (-300, -200), (0, 299)]
    windows += [(s, s + 63) for s in (-100_003, 99_991)]
    hits = params.endpoint_hits()
    if hits is not None:
        for i in hits:
            windows += [(i, i), (i, i + 1), (i - 1, i), (i, i + 37), (i - 37, i)]
    return windows


def _assert_matches_reference(params, i_from, i_to):
    got, want = generate(params, i_from, i_to), _reference_generate(params, i_from, i_to)
    assert (got.symbols, got.origin) == (want.symbols, want.origin), (params, i_from, i_to)


@pytest.mark.parametrize("gamma", ORACLE_ANGLES)
def test_generate_matches_reference_walk(gamma):
    g = parse_qi(gamma)
    rng = random.Random(gamma)
    for psi in _oracle_phases(g, rng):
        params = RotationParams(g, psi)
        for i_from, i_to in _oracle_windows(params):
            _assert_matches_reference(params, i_from, i_to)


def test_generate_matches_reference_on_long_window():
    phase = QuadIrrational.from_fraction(Fraction(random.Random(9).randrange(1, 997), 997))
    _assert_matches_reference(RotationParams(parse_qi("0,1,2,2"), phase), -50_000, 49_999)


@pytest.mark.parametrize("gamma", ORACLE_ANGLES)
def test_generate_near_miss_is_decided_exactly(gamma):
    # a rational phase within 10**-16 of the phase whose orbit lands on 0 at
    # index k: index k falls just off 0 and index k + 1 just off gamma, both
    # closer than the fixed-point margin (n + 1) * 2**-64, without landing
    g = parse_qi(gamma)
    k, n = 1234, 4000
    scale = 10**17
    exact = rotate(QI_ZERO, g, -k)
    below = Fraction((exact * scale).floor(), scale)
    margin = QuadIrrational.from_fraction(Fraction(n + 1, 2**64))
    for r in (below, below + Fraction(1, scale)):
        params = RotationParams(g, QuadIrrational.from_fraction(r))
        assert params.endpoint_hits() is None
        for i, boundary in ((k, QI_ZERO), (k + 1, g)):
            off = (rotate(params.psi, g, i) - boundary).frac()
            assert off.sign() > 0 and min(off, QI_ONE - off) < margin
        _assert_matches_reference(params, 0, n - 1)


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


def test_from_convergents_walks_as_far_as_asked():
    # far past the 64 terms of a fixed-length walk (q_64 is about 1.1e13 at fib)
    approx = ApproxRotation.from_convergents(GOLDEN, 10**30)
    assert approx.q >= 10**30 and approx.err_bound < Fraction(1, 10**60)
    # 2/3 has no convergent after 2/3 to bound its error
    with pytest.raises(ValueError, match="no usable convergent"):
        ApproxRotation.from_convergents(qi_make(2, 0, 3, 0), 2)


def test_from_convergents_refuses_an_angle_outside_before_walking(monkeypatch):
    def walk(x):
        raise AssertionError(f"walked the expansion of {x}")

    monkeypatch.setattr(sturmian_gen, "_expansion", walk)
    for gamma in (qi_make(-1, 1, 1, 2), qi_make(1, 1, 2, 2)):  # sqrt(2) - 1 and (1 + sqrt(2))/2
        with pytest.raises(ValueError, match="no usable convergent"):
            ApproxRotation.from_convergents(gamma)


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


def _circle_distance(x, y):
    d = abs(x - y) % 1
    return min(d, 1 - d)


def _reference_generate_approx(approx, psi_num, i_from, i_to):
    """Oracle: the per-index Fraction loop generate_approx used before."""
    psi_num = Fraction(psi_num) % 1
    gam = approx.value
    out = []
    for i in range(i_from, i_to + 1):
        point = (psi_num + i * gam) % 1
        if point == 0 and i == 0:
            out.append("0")
            continue
        margin_zero = _circle_distance(point, Fraction(0))
        margin_gam = _circle_distance(point, gam)
        if margin_zero <= abs(i) * approx.err_bound or margin_gam <= abs(
            i - 1
        ) * approx.err_bound:
            raise HorizonExceededError(
                f"boundary margin insufficient at index {i}; "
                "shrink the window or use a finer approximant",
                first_bad_index=i,
            )
        out.append("0" if point < gam else "1")
    return Word("".join(out), i_from)


def _approx_outcome(fn, *args):
    try:
        w = fn(*args)
    except HorizonExceededError as err:
        return ("refused", str(err), err.first_bad_index)
    return ("word", w.symbols, w.origin)


@pytest.mark.parametrize("gamma", ORACLE_ANGLES)
def test_approx_matches_reference_loop(gamma):
    rng = random.Random(gamma)
    g = parse_qi(gamma)
    approxes = [ApproxRotation.from_convergents(g, q) for q in (2, 50, 2000)]
    approxes.append(ApproxRotation(approxes[-1].p, approxes[-1].q, Fraction(1, 10**3)))
    phases = [Fraction(0), Fraction(1, 2), Fraction(-3, 7), Fraction(22, 7)]
    phases += [Fraction(rng.randrange(0, 997), 997) for _ in range(3)]
    windows = [(0, 0), (1, 1), (-1, 0), (0, 1), (2, 40), (-60, -2), (-25, 25), (300, 420)]
    for approx in approxes:
        for psi in phases + [approx.value, 1 - approx.value]:
            for i_from, i_to in windows:
                args = (approx, psi, i_from, i_to)
                assert _approx_outcome(generate_approx, *args) == _approx_outcome(
                    _reference_generate_approx, *args
                ), args
