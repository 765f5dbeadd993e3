"""Exact-arithmetic core: canonical forms, ordering, floors, rotation."""

import random
from decimal import Decimal, getcontext
from fractions import Fraction

import numpy as np
import pytest

from sturmgas.errors import FieldMismatchError, InvalidRotationError
from sturmgas.exact_angle import (
    GOLDEN,
    QI_ZERO,
    QuadIrrational,
    RotationParams,
    _floor_surd,
    continued_fraction,
    convergents,
    parse_qi,
    qi_make,
    recurrence_length,
    rotate,
)
from sturmgas.sturmian_gen import generate

getcontext().prec = 60


def to_decimal(x: QuadIrrational) -> Decimal:
    return (Decimal(x.a) + Decimal(x.b) * Decimal(x.d).sqrt()) / Decimal(x.c)


def test_make_golden():
    g = qi_make(-1, 1, 2, 5)
    assert (g.a, g.b, g.c, g.d) == (-1, 1, 2, 5)
    assert g == GOLDEN
    # 2/(1+sqrt(5)) rationalizes to the same number
    assert g.reciprocal() == qi_make(1, 1, 2, 5)


def test_make_rational_reduction():
    assert qi_make(3, 0, 6, 0) == qi_make(1, 0, 2, 0)


def test_make_square_factor_extraction():
    x = qi_make(1, 2, 1, 8)
    assert (x.a, x.b, x.c, x.d) == (1, 4, 1, 2)


def test_make_perfect_square_radicand():
    assert qi_make(1, 3, 2, 9) == qi_make(10, 0, 2, 0) == qi_make(5, 0, 1, 0)


def test_make_negative_denominator_normalized():
    x = qi_make(1, 1, -2, 5)
    assert x.c == 2 and x.a == -1 and x.b == -1


def test_make_rejects_zero_denominator():
    with pytest.raises(ValueError):
        qi_make(1, 1, 0, 5)


def test_make_rejects_negative_radicand():
    with pytest.raises(ValueError):
        qi_make(1, 1, 1, -3)


def test_raw_constructor_requires_canonical_fields():
    with pytest.raises(ValueError):
        QuadIrrational(2, 2, 4, 5)
    with pytest.raises(ValueError):
        QuadIrrational(1, 1, 1, 8)
    with pytest.raises(ValueError):
        QuadIrrational(1, 0, 1, 5)


def test_compare_golden_above_half():
    assert (GOLDEN - qi_make(1, 0, 2, 0)).sign() == 1


def test_compare_reflexive():
    x = qi_make(3, -2, 7, 13)
    assert (x - x).sign() == 0


def test_compare_double_golden_minus_one_below_golden():
    # 2g - 1 < g is exactly g < 1
    assert ((2 * GOLDEN - 1) - GOLDEN).sign() == -1
    assert GOLDEN < qi_make(1, 0, 1, 0)


def test_compare_rejects_mixed_surds():
    with pytest.raises(FieldMismatchError):
        (qi_make(0, 1, 1, 2) - qi_make(0, 1, 1, 3)).sign()


def test_floor_examples():
    assert (3 * (2 + GOLDEN)).floor() == 7
    assert GOLDEN.floor() == 0
    assert (2 + GOLDEN).floor() == 2


def test_floor_negative_values():
    assert (-GOLDEN).floor() == -1
    assert qi_make(-7, 3, 2, 5).floor() == -1
    assert qi_make(7, -3, 2, 5).floor() == 0


def test_rotate_examples():
    assert rotate(QI_ZERO, GOLDEN, 1) == GOLDEN
    assert rotate(GOLDEN, GOLDEN, 1) == 2 * GOLDEN - 1
    assert rotate(QI_ZERO, GOLDEN, -1) == 1 - GOLDEN


def _random_qi(rng, bound=10**6, d_choices=(0, 2, 3, 5, 7)):
    d = rng.choice(d_choices)
    b = rng.randint(-bound, bound) if d else 0
    return qi_make(rng.randint(-bound, bound), b, rng.randint(1, bound), d)


def test_roundtrip_stability():
    rng = random.Random(7)
    for _ in range(200):
        x = _random_qi(rng)
        assert (qi_make(x.a, x.b, x.c, x.d) - x).sign() == 0


def test_floor_frac_consistency():
    rng = random.Random(11)
    for _ in range(300):
        x = _random_qi(rng, bound=10**4)
        f = x.frac()
        assert f.sign() >= 0 and (f - 1).sign() < 0
        assert x == x.floor() + f
        # the fixed-point floor generate scales its points by
        rest = x * 2**64 - _floor_surd(x.a, x.b, x.c, x.d, 64)
        assert rest.sign() >= 0 and (rest - 1).sign() < 0


def test_rotation_group_action():
    rng = random.Random(13)
    for _ in range(100):
        theta = _random_qi(rng, bound=500, d_choices=(0, 5)).frac()
        j, k = rng.randint(-20, 20), rng.randint(-20, 20)
        assert rotate(theta, GOLDEN, j + k) == rotate(rotate(theta, GOLDEN, j), GOLDEN, k)


def test_order_transitive_antisymmetric():
    rng = random.Random(17)
    for _ in range(200):
        x, y, z = (_random_qi(rng, bound=1000, d_choices=(0, 5)) for _ in range(3))
        assert (x - y).sign() == -(y - x).sign()
        if x < y and y < z:
            assert x < z


def test_agreement_with_high_precision_evaluation():
    # sanity cross-check against 60-digit decimal evaluation, not the oracle
    rng = random.Random(23)
    for _ in range(10_000):
        x = _random_qi(rng)
        approx = to_decimal(x)
        assert abs(Decimal(float(x)) - approx) <= Decimal("1e-12") * max(
            1, abs(approx)
        )


def test_compare_matches_decimal_on_well_separated_pairs():
    rng = random.Random(29)
    done = 0
    while done < 2000:
        x = _random_qi(rng, d_choices=(0, 5))
        y = _random_qi(rng, d_choices=(0, 5))
        diff = to_decimal(x) - to_decimal(y)
        if abs(diff) < Decimal("1e-12"):
            continue
        assert (x - y).sign() == (1 if diff > 0 else -1)
        done += 1


def test_arithmetic_matches_fractions():
    a = QuadIrrational.from_fraction(Fraction(3, 7))
    b = QuadIrrational.from_fraction(Fraction(-2, 5))
    assert (a + b).as_fraction() == Fraction(3, 7) + Fraction(-2, 5)
    assert (a * b).as_fraction() == Fraction(3, 7) * Fraction(-2, 5)
    assert (a / b).as_fraction() == Fraction(3, 7) / Fraction(-2, 5)


def test_continued_fraction_of_golden_is_all_ones():
    assert continued_fraction(GOLDEN, 10) == [0] + [1] * 9


def test_convergents_are_fibonacci_ratios():
    convs = convergents(GOLDEN, 9)
    assert (13, 21) in convs and (8, 13) in convs


def test_parse_qi():
    assert parse_qi("fib") == GOLDEN
    assert parse_qi("-1,1,2,5") == GOLDEN
    assert parse_qi(str(GOLDEN)) == GOLDEN
    with pytest.raises(ValueError):
        parse_qi("1,2,3")
    with pytest.raises(ValueError):
        parse_qi("a,b,c,d")


def test_rotation_params_validation():
    with pytest.raises(InvalidRotationError):
        RotationParams(qi_make(2, 0, 3, 0), QI_ZERO)
    RotationParams(qi_make(1, 1, 4, 5), QI_ZERO)  # ~0.809, inside (1/2, 1)
    # gamma below 1/2 rejected
    with pytest.raises(ValueError):
        RotationParams(qi_make(-1, 1, 4, 5), QI_ZERO)
    with pytest.raises(FieldMismatchError):
        RotationParams(GOLDEN, qi_make(0, 1, 2, 2))
    with pytest.raises(ValueError):
        RotationParams(GOLDEN, qi_make(3, 0, 2, 0))  # psi outside [0, 1)


def test_endpoint_hits():
    assert RotationParams(GOLDEN, QI_ZERO).endpoint_hits() == (0, 1)
    assert RotationParams(GOLDEN, GOLDEN).endpoint_hits() == (-1, 0)
    generic = RotationParams(GOLDEN, QuadIrrational.from_fraction(Fraction(1, 3)))
    assert generic.endpoint_hits() is None


#: the four panel angles, a third d1 = 3 angle and the two sparse ones
RECURRENCE_ANGLES = (
    "fib", "0,1,2,2", "-1,1,1,3", "1,1,4,3", "3,1,7,2", "998,1,1000,2", "89698,1,89998,2"
)


def _measured_recurrence(bits: np.ndarray, n: int) -> int:
    """Fewest N such that every N-site window of bits holds each length-n factor."""
    codes = sum(bits[k : len(bits) - n + 1 + k].astype(np.int64) << k for k in range(n))
    values = np.unique(codes)
    assert len(values) == n + 1, f"{len(values)} factors of length {n}"
    # a window misses a factor iff it holds no start of it: the longest run
    # of starts without one, from either end of the word, plus n
    return max(
        int(np.diff(np.concatenate(([-1], np.flatnonzero(codes == v), [len(codes)]))).max())
        for v in values
    ) + n - 1


@pytest.mark.parametrize("gamma", RECURRENCE_ANGLES)
def test_recurrence_length_matches_measured_recurrence(gamma):
    g = parse_qi(gamma)
    word = generate(RotationParams(g, QI_ZERO), 0, (1 << 16) - 1).symbols
    bits = np.frombuffer(word.encode(), dtype=np.uint8) - ord("0")
    for n in range(1, 25):
        assert recurrence_length(g, n) == _measured_recurrence(bits, n), n


@pytest.mark.parametrize("gamma", RECURRENCE_ANGLES + ("-1311738121,3166815962,3166815962,2",))
def test_recurrence_length_matches_convergent_formula(gamma):
    # R(n) = n + q_k + q_{k+1} - 1 for convergent denominators q_k <= n < q_{k+1}
    g = parse_qi(gamma)
    qs = [q for _, q in convergents(g, 64)]
    for n in [*range(1, 300), 10**12]:
        k = max(i for i, q in enumerate(qs[:-1]) if q <= n)
        assert recurrence_length(g, n) == n + qs[k] + qs[k + 1] - 1, n


@pytest.mark.parametrize("gamma", RECURRENCE_ANGLES + ("-1311738121,3166815962,3166815962,2",))
def test_convergents_obey_their_own_identities(gamma):
    # independent of the walk that recurrence_length and convergents share:
    # p_k q_(k-1) - p_(k-1) q_k = (-1)^(k-1), and gamma lies strictly between
    # consecutive convergents, compared exactly
    g = parse_qi(gamma)
    convs = convergents(g, 12)
    assert len(convs) == 12
    for k, ((p0, q0), (p1, q1)) in enumerate(zip(convs, convs[1:]), start=1):
        assert p1 * q0 - p0 * q1 == (-1) ** (k - 1), k
        lo, hi = sorted((Fraction(p0, q0), Fraction(p1, q1)))
        assert lo < g < hi, k


def test_walk_ends_on_a_rational():
    x = QuadIrrational.from_fraction(Fraction(13, 21))
    assert continued_fraction(x, 64) == [0, 1, 1, 1, 1, 1, 2]
    assert convergents(x, 64)[-1] == (13, 21)
    assert convergents(GOLDEN, 0) == [] == continued_fraction(GOLDEN, 0)
    # no denominator passes 21: a rational has no recurrence length there
    with pytest.raises(ValueError, match="rational"):
        recurrence_length(x, 100)
