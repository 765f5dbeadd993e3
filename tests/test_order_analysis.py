"""Factor complexity, balance, homogeneity, and the distance profile."""

import itertools
import random
import signal
from fractions import Fraction

import numpy as np
import pytest

from sturmgas.errors import (
    InconclusiveError,
    InsufficientProfileError,
    InternalConsistencyError,
)
from sturmgas.exact_angle import (
    GOLDEN,
    QI_ONE,
    QI_ZERO,
    QuadIrrational,
    RotationParams,
    parse_qi,
    qi_make,
    recurrence_length,
)
from sturmgas.sturmian_gen import Word, generate
from sturmgas import order_analysis
from sturmgas.order_analysis import (
    SIZE_CAP,
    BalanceVerdict,
    DistanceProfile,
    HomogeneityVerdict,
    distance_profile,
    ensure_horizon,
    factor_complexity,
    factor_set,
    first_distance,
    is_balanced,
    is_most_homogeneous,
    profile_for,
    profile_structure,
)
from sturmgas import verify
from test_sturmian_gen import ORACLE_ANGLES

FIB = RotationParams(GOLDEN, GOLDEN)
SQRT2 = RotationParams(qi_make(0, 1, 2, 2), QI_ZERO)  # d1 = 3 example
EX_WORD = Word("0100101001001", 1)


def test_factor_set_examples():
    assert {w.symbols for w in factor_set(EX_WORD, 2)} == {"01", "10", "00"}
    assert {w.symbols for w in factor_set(Word("000"), 1)} == {"0"}
    assert factor_set(EX_WORD, len(EX_WORD)) == {EX_WORD}


def test_factor_set_rejects_oversized_length():
    with pytest.raises(ValueError):
        factor_set(Word("01"), 3)


def test_factor_complexity_minimal():
    report = factor_complexity(FIB, 12)
    assert report.p[1] == 2
    assert report.p[4] == 5
    assert report.p[12] == 13
    assert all(report.p[n] == n + 1 for n in range(1, 13))


def test_factor_complexity_monotone_and_bounded():
    report = factor_complexity(FIB, 10)
    counts = [report.p[n] for n in range(1, 11)]
    assert counts == sorted(counts)
    assert all(c <= 2**n for n, c in enumerate(counts, start=1))


@pytest.mark.parametrize("gamma", ["998,1,1000,2", "89698,1,89998,2"])
def test_factor_complexity_minimal_at_sparse_angles(gamma):
    # d1 = 1707 and 301: a window of a hundred sites is almost all 0's and
    # shows only 3 factors from n = 3 on; the recurrence-length window shows all
    report = factor_complexity(RotationParams(parse_qi(gamma), QI_ZERO), 12)
    assert report.p == {n: n + 1 for n in range(1, 13)}
    assert report.window_len == recurrence_length(parse_qi(gamma), 12)


def test_factor_complexity_refuses_a_window_past_the_cap(monkeypatch):
    # within 2**-64 of 1, R(5) is about 2.8e19 sites: refused, not generated
    near_one = RotationParams(parse_qi("-1311738121,3166815962,3166815962,2"), QI_ZERO)

    def no_window(*args):
        raise AssertionError("a window was generated")

    monkeypatch.setattr(order_analysis, "generate", no_window)
    with pytest.raises(InconclusiveError) as err:
        factor_complexity(near_one, 5)
    needed = recurrence_length(near_one.gamma, 5)
    assert needed > 10**19 and err.value.info == {"needed": needed}
    assert str(err.value).endswith(f"{needed} is above the cap {SIZE_CAP}")


def test_balance_verdicts():
    assert is_balanced(EX_WORD).balanced
    verdict = is_balanced(Word("0011"))
    assert not verdict.balanced
    assert (verdict.witness[0].symbols, verdict.witness[1].symbols) == ("00", "11")
    assert is_balanced(Word("")).balanced
    assert is_balanced(Word("0")).balanced


def _reference_is_balanced(w):
    """The per-length sliding scan that decided balance before the strip test."""
    n = len(w)
    if n <= 1:
        return BalanceVerdict(True)
    prefix = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([int(ch) for ch in w.symbols], out=prefix[1:])
    for m in range(1, n):
        sums = prefix[m:] - prefix[:-m]
        lo = int(np.argmin(sums))
        hi = int(np.argmax(sums))
        if sums[hi] - sums[lo] >= 2:
            return BalanceVerdict(
                False,
                (
                    Word(w.symbols[lo : lo + m], w.origin + lo),
                    Word(w.symbols[hi : hi + m], w.origin + hi),
                ),
            )
    return BalanceVerdict(True)


@pytest.mark.parametrize("n", range(15))
def test_balance_matches_scan_on_every_short_word(n):
    for symbols in itertools.product("01", repeat=n):
        w = Word("".join(symbols), -3)
        assert is_balanced(w) == _reference_is_balanced(w), w.symbols


@pytest.mark.parametrize(
    "gamma", ["fib", "0,1,2,2", "-1,1,1,3", "1,1,4,3", "998,1,1000,2", "89698,1,89998,2"]
)
def test_balance_matches_scan_on_generated_windows(gamma):
    # clean coding windows at rational phases, each with three one-site flips
    g = parse_qi(gamma)
    rng = random.Random(13)
    for length in (2, 5, 31, 200, 777, 2000, 3500):
        psi = QuadIrrational.from_fraction(Fraction(rng.randrange(997), 997))
        i0 = rng.randrange(-5000, 5000)
        w = generate(RotationParams(g, psi), i0, i0 + length - 1)
        assert is_balanced(w) == _reference_is_balanced(w) == BalanceVerdict(True)
        for u in rng.sample(range(length), min(3, length)):
            flipped = "0" if w.symbols[u] == "1" else "1"
            mutated = Word(w.symbols[:u] + flipped + w.symbols[u + 1 :], w.origin)
            assert is_balanced(mutated) == _reference_is_balanced(mutated), (length, u)


def test_balance_matches_scan_on_periodic_words():
    # every period word up to length 7, repeated past 40 sites, plus the
    # powers of the Christoffel words of slope p/q, which are balanced
    words = [
        "".join(u) * (48 // k) for k in range(1, 8) for u in itertools.product("01", repeat=k)
    ]
    for q in range(1, 12):
        for p in range(q + 1):
            words.append("".join(str((k + 1) * p // q - k * p // q) for k in range(q)) * 5)
            assert is_balanced(Word(words[-1])).balanced
    for symbols in words:
        w = Word(symbols, 7)
        assert is_balanced(w) == _reference_is_balanced(w), symbols


def test_balance_scan_cross_checks_the_strip_test(monkeypatch):
    # a balanced word the strip test wrongly rejected would leave the witness
    # scan empty-handed, which is reported rather than returned as balanced
    monkeypatch.setattr(order_analysis, "_fits_strip", lambda bits, prefix: False)
    with pytest.raises(InternalConsistencyError):
        is_balanced(EX_WORD)
    assert is_balanced(Word("0011")) == _reference_is_balanced(Word("0011"))


def test_homogeneity_verdicts():
    verdict = is_most_homogeneous(EX_WORD)
    assert verdict.homogeneous and verdict.gap_map[1] == 2
    bad = is_most_homogeneous(Word("10011"))
    assert not bad.homogeneous
    assert bad.witness[0] == 1  # rank with gaps {1, 3}
    periodic = is_most_homogeneous(Word("101010"))
    assert periodic.homogeneous and periodic.gap_map[1] == 2


def test_fewer_than_two_particles_are_vacuously_homogeneous():
    for symbols in ("", "0", "0001000"):
        assert is_most_homogeneous(Word(symbols)) == HomogeneityVerdict(True, {})


def _reference_is_most_homogeneous(w):
    """The per-rank scan that decided homogeneity before the moment test."""
    ones = np.flatnonzero([ch == "1" for ch in w.symbols])
    gap_map = {}
    for j in range(1, len(ones)):
        diffs = ones[j:] - ones[:-j]
        lo = int(np.argmin(diffs))
        hi = int(np.argmax(diffs))
        if diffs[hi] - diffs[lo] >= 2:
            base = w.origin
            return HomogeneityVerdict(
                False,
                None,
                (
                    j,
                    (base + int(ones[lo]), base + int(ones[lo + j])),
                    (base + int(ones[hi]), base + int(ones[hi + j])),
                ),
            )
        gap_map[j] = int(diffs[lo])
    return HomogeneityVerdict(True, gap_map)


def _assert_homogeneity_matches(w):
    got = is_most_homogeneous(w)
    assert got == _reference_is_most_homogeneous(w), w.symbols
    assert all(type(v) is int for v in (got.gap_map or {}).values())


@pytest.mark.parametrize("n", range(15))
def test_homogeneity_matches_scan_on_every_short_word(n):
    for symbols in itertools.product("01", repeat=n):
        _assert_homogeneity_matches(Word("".join(symbols), -3))


def _oracle_windows(gamma, seed):
    """Clean coding windows at rational phases, each with three one-site flips;
    every window spans at least 3(d1 + 1) sites, so it holds three 1's."""
    g = parse_qi(gamma)
    rng = random.Random(seed)
    floor = 3 * (first_distance(g) + 1)
    for length in (2, 5, 31, 200, 777, 2000, 3500):
        psi = QuadIrrational.from_fraction(Fraction(rng.randrange(997), 997))
        i0 = rng.randrange(-5000, 5000)
        w = generate(RotationParams(g, psi), i0, i0 + max(length, floor) - 1)
        yield w
        for u in rng.sample(range(len(w)), min(3, len(w))):
            flipped = "0" if w.symbols[u] == "1" else "1"
            yield Word(w.symbols[:u] + flipped + w.symbols[u + 1 :], w.origin)


#: ORACLE_ANGLES whose 3(d1 + 1)-site windows SIZE_CAP allows
CAPPED_ORACLE_ANGLES = [
    g for g in ORACLE_ANGLES if 3 * (first_distance(parse_qi(g)) + 1) <= SIZE_CAP
]


@pytest.mark.parametrize("gamma", CAPPED_ORACLE_ANGLES)
def test_homogeneity_matches_scan_on_generated_windows(gamma):
    for w in _oracle_windows(gamma, 17):
        _assert_homogeneity_matches(w)


@pytest.mark.parametrize("gamma", ["fib", "0,1,2,2", "-1,1,1,3", "1,1,4,3"])
def test_homogeneity_matches_scan_on_the_equivalence_ensemble(gamma):
    for w, mutated in verify.equivalence_ensemble(parse_qi(gamma), verify.EQUIV_SAMPLES):
        first, last = mutated.symbols.index("1"), mutated.symbols.rindex("1")
        cut = Word(mutated.symbols[first : last + 1], mutated.origin + first)
        for x in (w, mutated, cut):
            _assert_homogeneity_matches(x)


def _reference_rank_floors(positions):
    """Per rank on Python integers: the smallest spacing, up to the first rank
    whose spacings spread by 2 or more (0 if none)."""
    floors = []
    for j in range(1, len(positions)):
        diffs = [b - a for a, b in zip(positions, positions[j:])]
        if max(diffs) - min(diffs) >= 2:
            return floors, j
        floors.append(min(diffs))
    return floors, 0


@pytest.mark.parametrize(
    "positions",
    [
        # a mechanical sequence of slope 2^33 + 0.618: every rank homogeneous
        [i * (2**33 * 1000 + 618) // 1000 for i in range(10)],
        # rank-1 spacings v, v, v + 1, v + 1 put 2v and 2v + 2 at rank 2
        [0, 2**34, 2**35, 3 * 2**34 + 1, 2**36 + 2],
        # one spacing short by 2 at rank 1
        [0, 2**32, 2**33 - 2, 3 * 2**32],
        # rank-1 spacings v -+ t with t = 2^32: the test sum is 2t^2 = 2^65,
        # which wraps to 0 in 64-bit arithmetic
        [0, 2**32, 2**34],
        # two particles 2^40 apart
        [5, 2**40 + 5],
    ],
)
def test_homogeneity_moments_past_int64(positions):
    # k*(span + 1)^2 >= 2^62, so the sums run on Python integers
    k, span = len(positions), positions[-1] - positions[0]
    assert k * (span + 1) ** 2 >= 1 << 62
    floors, bad = order_analysis._rank_floors(np.array(positions, dtype=np.int64))
    ref_floors, ref_bad = _reference_rank_floors(positions)
    assert bad == ref_bad
    got = floors.tolist()[: bad - 1 if bad else None]
    assert got == ref_floors and all(type(v) is int for v in got)


def test_distance_profile_golden():
    profile = distance_profile(FIB, 21)
    assert profile.d == (2, 5, 7, 10, 13, 15, 18, 20)
    assert sorted(profile.allowed) == [
        2, 3, 5, 6, 7, 8, 10, 11, 13, 14, 15, 16, 18, 19, 20, 21,
    ]
    wide = distance_profile(FIB, 25)
    assert sorted(wide.forbidden) == [1, 4, 9, 12, 17, 22, 25]


def test_distance_profile_floor_formula():
    profile = distance_profile(FIB, 200)
    for j, dj in enumerate(profile.d, start=1):
        assert dj == (j * (2 + GOLDEN)).floor()


def test_distance_profile_increments():
    for params in (FIB, SQRT2):
        profile = distance_profile(params, 120)
        d1 = profile.d[0]
        steps = {b - a for a, b in zip(profile.d, profile.d[1:])}
        assert steps <= {d1, d1 + 1}


def test_distance_profile_requires_minimal_horizon():
    with pytest.raises(ValueError):
        distance_profile(FIB, 1)


def test_profile_json_roundtrip():
    profile = distance_profile(FIB, 30)
    again = DistanceProfile.from_json(profile.to_json())
    assert again == DistanceProfile(profile.d, profile.horizon, profile.forbidden)
    assert again.allowed == profile.allowed
    assert again.params is None


def test_profile_allowed_built_once():
    profile = distance_profile(FIB, 12)
    before = profile.to_json()
    assert profile.allowed is profile.allowed
    assert profile.to_json() == before == (
        '{"d": [2, 5, 7, 10], "allowed": [2, 3, 5, 6, 7, 8, 10, 11], '
        '"forbidden": [1, 4, 9, 12], "horizon": 12}'
    )


@pytest.mark.parametrize("gamma, d1", [("fib", 2), ("998,1,1000,2", 1707)])
def test_profile_for_holds_the_zero_run_rule(gamma, d1):
    # every question's profile reaches d1, whatever span it asks for
    params = RotationParams(parse_qi(gamma), QI_ZERO)
    profile = profile_for(params, 1)
    assert profile.horizon == max(2, d1) and profile.d1 == d1
    assert profile_for(params, 3000).horizon == max(3000, d1)


@pytest.mark.parametrize(
    "text",
    [
        '{"d": [2]}',
        "[1, 2]",
        '{"d": 5, "horizon": 3, "allowed": [], "forbidden": []}',
        '{"d": [2], "horizon": "3", "allowed": [2, 3], "forbidden": [1]}',
        '{"d": [2], "horizon": 3, "allowed": [2, 3.0], "forbidden": [1]}',
        '{"d": [2], "horizon": true, "allowed": [], "forbidden": [1]}',
    ],
)
def test_profile_json_malformed_structure(text):
    with pytest.raises(ValueError):
        DistanceProfile.from_json(text)


def test_profile_forbidden_bits():
    profile = distance_profile(FIB, 25)
    bits = profile.forbidden_bits
    assert {j for j in range(bits.bit_length()) if bits >> j & 1} == profile.forbidden
    assert profile.forbidden_bits is bits  # derived once per profile


def _reference_forbidden_bits(profile):
    """The bit-by-bit build: bit j set iff j in [0, horizon] is forbidden."""
    bits = ("1" if j in profile.forbidden else "0" for j in range(profile.horizon, -1, -1))
    return int("".join(bits), 2)


@pytest.mark.parametrize(
    "profile",
    [
        distance_profile(FIB, 10**4),
        distance_profile(SQRT2, 10**4),
        DistanceProfile((2, 5), 7, frozenset({1, 4, 7})),
        DistanceProfile((), 5, frozenset()),
        # entries outside [0, horizon] carry no bit
        DistanceProfile((3,), 6, frozenset({-2, 0, 1, 2, 6, 9, 2**70})),
    ],
    ids=["fib_1e4", "sqrt2_1e4", "hand_built", "empty", "out_of_range"],
)
def test_profile_forbidden_bits_matches_bitwise_build(profile):
    assert profile.forbidden_bits == _reference_forbidden_bits(profile)


def _reference_distance_profile(params, horizon):
    """The set-difference build of the profile from the phase-0 coding."""
    base = RotationParams(params.gamma, QI_ZERO)
    ones = generate(base, 1, horizon + 2).one_positions()
    d = tuple(p - 1 for p in ones[1:] if p - 1 <= horizon)
    forbidden = frozenset(range(1, horizon + 1)).difference(d, (dj + 1 for dj in d))
    return DistanceProfile(d, horizon, forbidden, params=base)


def _assert_profile_matches(params, horizon):
    got, ref = distance_profile(params, horizon), _reference_distance_profile(params, horizon)
    assert (got, got.params, got.to_json()) == (ref, ref.params, ref.to_json()), horizon
    assert all(type(v) is int for v in got.d)


@pytest.mark.parametrize("gamma", ORACLE_ANGLES)
def test_distance_profile_matches_set_difference_build(gamma):
    # the phase is ignored: the profile reads the phase-0 coding
    params = RotationParams(parse_qi(gamma), QuadIrrational.from_fraction(Fraction(1, 3)))
    for horizon in range(2, 301):
        _assert_profile_matches(params, horizon)
    _assert_profile_matches(params, 10**5)


def test_check_increments_names_the_first_bad_step():
    for d, message in (
        ((2, 4, 8, 10, 15), "spacing step 4 between 4 and 8 is not 2 or 3"),
        ((3, 6, 7), "spacing step 1 between 6 and 7 is not 3 or 4"),
        ((2**70, 2**70 + 9), f"spacing step 9 between {2**70} and {2**70 + 9} is not"),
    ):
        with pytest.raises(InternalConsistencyError, match=message):
            DistanceProfile(d, 10, frozenset()).check_increments()
    DistanceProfile((5,), 10, frozenset()).check_increments()
    DistanceProfile((2, 4, 7, 10), 12, frozenset()).check_increments()


def test_profile_partition_enforced():
    # a stored profile keeps one set, so only a file can break the partition:
    # an overlap, a distance past the horizon, a distance in neither list, and
    # a horizon far beyond the lists, which must fail without building it
    for text in (
        '{"d": [2], "horizon": 4, "allowed": [2, 3], "forbidden": [1, 2, 4]}',
        '{"d": [2], "horizon": 3, "allowed": [2, 3], "forbidden": [1, 7]}',
        '{"d": [2], "horizon": 3, "allowed": [2], "forbidden": [1]}',
        '{"d": [2], "horizon": 1000000000000, "allowed": [2, 3], "forbidden": [1]}',
    ):
        with pytest.raises(ValueError, match="partition"):
            DistanceProfile.from_json(text)


def test_ensure_horizon():
    profile = distance_profile(FIB, 25)
    grown = ensure_horizon(profile, 60)
    assert grown.horizon >= 60 and grown.d[: len(profile.d)] == profile.d
    detached = DistanceProfile.from_json(profile.to_json())
    with pytest.raises(InsufficientProfileError):
        ensure_horizon(detached, 60)


def test_profile_structure_golden():
    structure = profile_structure(distance_profile(FIB, 25))
    assert (5, 7) in structure.blocks
    assert structure.classification[2] == "singleton"
    assert structure.classification[5] == "block"
    assert structure.classification[10] == "singleton"


def test_profile_structure_singletons_when_d1_exceeds_two():
    structure = profile_structure(distance_profile(SQRT2, 60))
    assert all(kind == "singleton" for kind in structure.classification.values())


def test_profile_structure_empty_profile():
    # horizon below the first distance: nothing to classify
    profile = distance_profile(SQRT2, 2)
    assert profile.d == ()
    structure = profile_structure(profile)
    assert structure.blocks == () and structure.classification == {}


@pytest.mark.parametrize("gamma", ["fib", "0,1,2,2", "-1,1,1,3", "1,1,4,3"])
def test_profile_structure_every_small_horizon(gamma):
    # the last d-values' right neighbour lies past the horizon; only
    # classifiable neighbourhoods are checked
    params = RotationParams(parse_qi(gamma), QI_ZERO)
    for horizon in range(2, 61):
        profile = distance_profile(params, horizon)
        structure = profile_structure(profile)
        assert set(structure.classification) == set(profile.d)


@pytest.mark.parametrize(
    "gamma",
    [
        "87,-3,108,59",  # adjacent difference-2 steps in d
        "78,-5,108,7",
        "113,-4,167,34",  # boundary runs in a mutated window
        "56,1,117,7",  # no factor surplus in an unbalanced mutation
        "80,-2,130,55",
        "145,-6,134,55",  # a2 large, gamma near 3/4
        "-11,5,14,13",  # gamma near 1/2
        "33,-2,24,42",
    ],
)
def test_order_suite_at_sweep_angles(gamma):
    # quadratic angles drawn at random: every order check holds at each
    checks = verify.suite_order(RotationParams(parse_qi(gamma), QI_ZERO))
    assert [c.name for c in checks if not c.passed] == []


@pytest.mark.parametrize("gamma", ["fib", "0,1,2,2", "-1,1,1,3", "1,1,4,3"])
def test_order_suite_at_panel_angles(gamma, monkeypatch):
    # the Beatty formula d_j = floor(j/(1-gamma)) and the forbidden words
    # '11' and 0^(d1+1) hold at every admissible angle, not only at fib
    monkeypatch.setattr(verify, "EQUIV_SAMPLES", 10)
    checks = verify.suite_order(RotationParams(parse_qi(gamma), QI_ZERO))
    names = {c.name for c in checks}
    assert {"distance_floor_formula", "forbidden_words_absent"} <= names
    assert [c.name for c in checks if not c.passed] == []


@pytest.mark.parametrize("gamma", ["998,1,1000,2", "89698,1,89998,2"])
def test_equivalence_runs_at_sparse_angles(gamma):
    # windows of at least 3(d1 + 1) sites, d1 = 1707 and 301; each mutation,
    # cut to its outermost 1's, still holds two 1's for the spacing decider
    assert verify.run_equivalence(parse_qi(gamma), 2).startswith("2 windows")


@pytest.mark.parametrize("gamma", ["113,-4,167,34", "56,1,117,7", "80,-2,130,55"])
def test_equivalence_at_sweep_angles(gamma):
    # 113,-4,167,34: uncut, a mutation is unbalanced only through its
    # boundary runs (00 against 11) yet homogeneous.  56,1,117,7 and
    # 80,-2,130,55: the unbalanced mutation 111(01)^k has exactly m + 1
    # factors at its witness length m, so it shows no factor surplus
    summary = verify.run_equivalence(parse_qi(gamma), verify.EQUIV_SAMPLES)
    assert summary.startswith(f"{verify.EQUIV_SAMPLES} windows")


def test_balance_equals_homogeneity_between_ones():
    # the theorem behind run_equivalence, on all 2047 words of length 2..12
    # that start and end with 1
    for n in range(2, 13):
        for middle in itertools.product("01", repeat=n - 2):
            w = Word("1" + "".join(middle) + "1")
            assert is_balanced(w).balanced == is_most_homogeneous(w).homogeneous, w.symbols


@pytest.mark.parametrize("gamma", ["998,1,1000,2", "89698,1,89998,2"])
def test_equivalence_ensemble_yields_at_sparse_angles(gamma):
    # d1 = 1707 and 301: a window of at most 500 sites can hold fewer than
    # three 1's, so without the 3(d1 + 1) floor the plan never yields here
    g = parse_qi(gamma)
    d1 = (QI_ONE - g).reciprocal().floor()

    def stuck(signum, frame):
        raise TimeoutError("equivalence_ensemble did not yield")

    previous = signal.signal(signal.SIGALRM, stuck)
    signal.alarm(20)
    try:
        pairs = list(verify.equivalence_ensemble(g, 3))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert len(pairs) == 3
    for w, mutated in pairs:
        assert len(w) >= 3 * (d1 + 1) and w.count("1") >= 3
        assert is_balanced(w).balanced and is_most_homogeneous(w).homogeneous
        assert sum(a != b for a, b in zip(w.symbols, mutated.symbols)) == 1


def test_profile_structure_flags_corruption():
    profile = distance_profile(FIB, 21)
    corrupt = DistanceProfile((2, 5, 7, 9), 21, profile.forbidden)
    with pytest.raises(InternalConsistencyError):
        profile_structure(corrupt)
    # forbidden neighbourhood rule: make 4 allowed, 5 forbidden
    swapped = DistanceProfile(profile.d, 21, (profile.forbidden - {4}) | {5})
    with pytest.raises(InternalConsistencyError):
        profile_structure(swapped)


def test_gap_values_in_generated_windows():
    profile = distance_profile(FIB, 40)
    w = generate(FIB, 0, 999)
    ones = w.one_positions()
    gaps = {b - a for a, b in zip(ones, ones[1:])}
    assert gaps == {profile.d1, profile.d1 + 1}


def test_profile_structure_flags_forbidden_values_outside_the_horizon():
    # the mask comparison must still see values the bit mask cannot hold
    profile = distance_profile(FIB, 21)
    for extra in (0, -4, 22, 40):
        bad = DistanceProfile(profile.d, 21, profile.forbidden | {extra})
        with pytest.raises(InternalConsistencyError, match=rf"at \[{extra}\]$"):
            profile_structure(bad)
    top = max(profile.forbidden)
    missing = DistanceProfile(profile.d, 21, profile.forbidden - {top})
    with pytest.raises(InternalConsistencyError, match=rf"at \[{top}\]$"):
        profile_structure(missing)
