"""Local legality, legal-word enumeration, periodic exclusion, structure scans."""

import functools
import inspect
import sys
import time

import pytest

from sturmgas import characterization
from sturmgas.discrepancy import component_intervals
from sturmgas.errors import InconclusiveError, InsufficientProfileError, InternalConsistencyError
from sturmgas.exact_angle import GOLDEN, QI_ONE, QI_ZERO, RotationParams, parse_qi, qi_make, rotate
from sturmgas.sturmian_gen import Word, generate
from sturmgas.order_analysis import (
    DistanceProfile, distance_profile, ensure_horizon, factor_set, first_distance,
)
from sturmgas import verify
from sturmgas.characterization import (
    FactVerdict,
    check_enclosed_ones,
    check_follower_ones,
    enumerate_legal,
    enumerate_legal_stable,
    is_locally_legal,
    periodic_exclusion,
)
from test_order_analysis import CAPPED_ORACLE_ANGLES, _oracle_windows

FIB = RotationParams(GOLDEN, GOLDEN)
PROFILE = distance_profile(FIB, 200)
# fib, sqrt(2)/2, sqrt(3)-1, (1+sqrt(3))/4
PANEL_PROFILES = pytest.mark.parametrize(
    "profile",
    [
        distance_profile(RotationParams(gamma, QI_ZERO), 40)
        for gamma in (GOLDEN, qi_make(0, 1, 2, 2), qi_make(-1, 1, 1, 3), qi_make(1, 1, 4, 3))
    ],
    ids=["fib", "sqrt2_2", "sqrt3_1", "1_sqrt3_4"],
)


def _reference_verdict(w, profile):
    """The O(k^2) pair loop: first 1 (by position) with a forbidden partner."""
    run_len = profile.d[0] + 1
    zr_pos = w.symbols.find("0" * run_len)
    ones = [k for k, ch in enumerate(w.symbols) if ch == "1"]
    pair = None
    for a_idx, a in enumerate(ones):
        for b in ones[a_idx + 1 :]:
            if b - a in profile.forbidden:
                pair = (a, b - a)
                break
        if pair is not None:
            break
    if zr_pos == -1 and pair is None:
        return (True, None, None, None)
    if pair is None or (zr_pos != -1 and zr_pos < pair[0]):
        return (False, "zero_run", w.origin + zr_pos, None)
    return (False, "forbidden_pair", w.origin + pair[0], pair[1])


def test_legal_examples():
    assert is_locally_legal(Word("0100101001001", 1), PROFILE).legal
    zero_run = is_locally_legal(Word("000"), PROFILE)
    assert not zero_run.legal
    assert zero_run.violation.kind == "zero_run" and zero_run.violation.position == 0
    pair = is_locally_legal(Word("10001"), PROFILE)
    assert not pair.legal
    assert pair.violation.kind == "forbidden_pair"
    assert pair.violation.distance == 4 and pair.violation.position == 0


@PANEL_PROFILES
def test_legal_matches_pair_loop_reference(profile):
    for length in range(13):
        for x in range(1 << length):
            w = Word(format(x, f"0{length}b") if length else "", origin=7)
            verdict = is_locally_legal(w, profile)
            v = verdict.violation
            got = (verdict.legal, *((v.kind, v.position, v.distance) if v else (None,) * 3))
            assert got == _reference_verdict(w, profile), w.symbols


def test_legal_violation_positions_respect_origin():
    verdict = is_locally_legal(Word("000", origin=17), PROFILE)
    assert verdict.violation.position == 17


def test_legal_needs_covering_horizon():
    with pytest.raises(InsufficientProfileError):
        is_locally_legal(generate(FIB, 0, 500), PROFILE)


SPARSE = RotationParams(parse_qi("998,1,1000,2"), QI_ZERO)  # d1 = 1707


def test_legal_with_empty_profile():
    # horizon 8 < d1: d is empty, every distance up to 8 is forbidden, and no
    # zero run fits in a window the profile covers
    profile = distance_profile(SPARSE, 8)
    assert profile.d == ()
    assert "0" * 9 in generate(SPARSE, 0, 11).symbols
    assert is_locally_legal(Word("0" * 9), profile).legal
    assert is_locally_legal(Word("000010000"), profile).legal
    verdict = is_locally_legal(Word("100000001", 5), profile)
    assert verdict.violation == characterization.Violation("forbidden_pair", 5, 8)


def test_enumerate_with_empty_profile():
    profile = distance_profile(SPARSE, 8)
    for n in (1, 2, 3, 5):
        legal = enumerate_legal(n, 9, profile)
        assert legal == set(component_intervals(SPARSE, n).words)
        assert len(legal) == n + 1


def test_enumerate_small_lengths():
    assert {w.symbols for w in enumerate_legal(1, 8, PROFILE)} == {"0", "1"}
    assert {w.symbols for w in enumerate_legal(2, 40, PROFILE)} == {"00", "01", "10"}


def test_enumerate_monotone_in_enclosing_length():
    for n in (3, 5, 7):
        small = enumerate_legal(n, 2 * n, PROFILE)
        large = enumerate_legal(n, 6 * n, PROFILE)
        assert large <= small


def test_enumerate_budget_guard(monkeypatch):
    monkeypatch.setattr(characterization, "ENUMERATION_BUDGET", 50)
    with pytest.raises(InconclusiveError) as err:
        enumerate_legal(4, 64, PROFILE)
    assert err.value.info["length_reached"] == 64


@PANEL_PROFILES
def test_enumerate_matches_brute_force_filter(profile):
    for n, big_m in ((1, 4), (3, 9), (4, 12), (6, 14)):
        pad = (big_m - n) // 2
        brute = set()
        for x in range(1 << big_m):
            symbols = format(x, f"0{big_m}b")
            if _reference_verdict(Word(symbols), profile)[0]:
                brute.add(symbols[pad : pad + n])
        assert {w.symbols for w in enumerate_legal(n, big_m, profile)} == brute


def test_enumerate_budget_boundary(monkeypatch):
    # 902 nodes is exactly the full search at (4, 64)
    monkeypatch.setattr(characterization, "ENUMERATION_BUDGET", 901)
    with pytest.raises(InconclusiveError) as err:
        enumerate_legal(4, 64, PROFILE)
    assert err.value.info["length_reached"] == 64
    monkeypatch.setattr(characterization, "ENUMERATION_BUDGET", 902)
    assert len(enumerate_legal(4, 64, PROFILE)) == 5


def _reference_enumerate_legal(n, big_m, profile):
    """The search before per-site masks, the in-place 0-branch and the cut."""
    if n < 1 or big_m < n:
        raise ValueError("need 1 <= n <= big_m")
    if profile.horizon < big_m - 1:
        raise InsufficientProfileError(
            f"profile horizon {profile.horizon} < {big_m - 1}"
        )
    # an empty d puts d1 at horizon + 1 >= big_m or beyond: no zero run binds
    d1 = profile.d[0] if profile.d else big_m
    pair_mask = profile.forbidden_bits >> 1
    pad = (big_m - n) // 2
    found: set[Word] = set()
    visited = 0
    # Explicit-stack depth-first search, 0-branch first.  A node is
    # (depth, zero_run, bits): bits reads the word so far as a binary number,
    # site 0 most significant, so its bit i lies i + 1 sites before the next.
    stack = [(0, 0, 0)]
    while stack:
        depth, zero_run, bits = stack.pop()
        visited += 1
        if visited > characterization.ENUMERATION_BUDGET:
            raise InconclusiveError(
                f"search budget {characterization.ENUMERATION_BUDGET} exceeded at length {big_m}",
                partial=set(found),
                length_reached=big_m,
            )
        if depth == big_m:
            found.add(Word(format(bits, f"0{big_m}b")[pad : pad + n]))
            continue
        if not bits & pair_mask:
            stack.append((depth + 1, 0, bits << 1 | 1))
        if zero_run < d1:
            stack.append((depth + 1, zero_run + 1, bits << 1))
    return found


#: gamma = (6 - sqrt(3))/8 < 5/9 (the CLI tests' BUDGET_ANGLE): the rules admit a
#: second rotation, so the legal central words outnumber the factors (ROADMAP item 15)
RIVAL = RotationParams(parse_qi("6,-1,8,3"), QI_ZERO)


def _assert_matches_reference_search(profile, sizes):
    for n, big_m in sizes:
        expected = _reference_enumerate_legal(n, big_m, profile)
        assert enumerate_legal(n, big_m, profile) == expected, (n, big_m)


@PANEL_PROFILES
def test_enumerate_matches_reference_search(profile):
    # the profiles reach 40, so big_m <= 41; n = big_m and odd big_m - n included
    _assert_matches_reference_search(profile, [
        (n, m)
        for n in (1, 2, 3, 4, 6, 9, 13, 20)
        for m in sorted({n, n + 1, n + 2, n + 5, 2 * n + 3, 3 * n, 41})
        if m <= 41
    ])


def test_enumerate_matches_reference_search_with_empty_profile():
    sizes = [(n, m) for m in range(1, 10) for n in range(1, m + 1)]
    _assert_matches_reference_search(distance_profile(SPARSE, 8), sizes)


def test_enumerate_matches_reference_search_below_five_ninths():
    _assert_matches_reference_search(distance_profile(RIVAL, 75), [
        (n, m)
        for n in (1, 2, 3, 5, 8, 12)
        for m in sorted({n, n + 1, n + 3, n + 8, n + 17, n + 32, 76})
        if m <= 76
    ])


def test_enumerate_cut_fits_a_budget_the_reference_outgrows(monkeypatch):
    profile = distance_profile(RIVAL, 139)
    full = _reference_enumerate_legal(12, 140, profile)  # about 1.02M nodes
    assert len(full) == 49
    monkeypatch.setattr(characterization, "ENUMERATION_BUDGET", 10**5)
    with pytest.raises(InconclusiveError):
        _reference_enumerate_legal(12, 140, profile)
    assert enumerate_legal(12, 140, profile) == full
    # a budget that runs out leaves a partial result of genuine central words
    sizes = []
    for budget in (10, 10**3, 10**4, 5 * 10**4):
        monkeypatch.setattr(characterization, "ENUMERATION_BUDGET", budget)
        with pytest.raises(InconclusiveError) as err:
            enumerate_legal(12, 140, profile)
        assert err.value.info["length_reached"] == 140
        assert err.value.info["partial"] <= full
        sizes.append(len(err.value.info["partial"]))
    assert sizes[0] == 0 and 0 < sizes[-1] < len(full)


def test_enumerate_long_enclosure_matches_factors():
    profile = distance_profile(FIB, 800)
    window = generate(FIB, 0, 4095)
    legal = enumerate_legal(200, 800, profile)
    assert len(legal) == 201
    assert {w.symbols for w in legal} == {w.symbols for w in factor_set(window, 200)}


def test_enumerate_deeper_than_recursion_limit():
    # one stack frame per site would overflow the lowered limit
    profile = distance_profile(FIB, 300)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        legal = enumerate_legal(6, 300, profile)
    finally:
        sys.setrecursionlimit(limit)
    window = generate(FIB, 0, 4095)
    assert {w.symbols for w in legal} == {w.symbols for w in factor_set(window, 6)}


def test_stable_enumeration_matches_factors():
    window = generate(FIB, 0, 4095)
    for n in range(1, 13):
        legal, used = enumerate_legal_stable(n, PROFILE)
        assert len(legal) == n + 1
        assert {w.symbols for w in legal} == {
            w.symbols for w in factor_set(window, n)
        }
        assert used >= n


@PANEL_PROFILES
def test_certificate_at_first_enclosing_length(profile):
    # the profiles reach only 40, so n = 48 also regrows them from the rotation
    for n in (*range(1, 13), 24, 48):
        legal, used = enumerate_legal_stable(n, profile)
        assert legal == set(component_intervals(profile.params, n).words)
        assert used in (n, n + 2)
        if used == n + 2:
            assert enumerate_legal(n, n, ensure_horizon(profile, n)) != legal


def test_certificate_rejects_an_illegal_label():
    # forbidding the allowed distance 10 leaves some arc label without a
    # legal extension, which no enclosing length may hide
    detached = DistanceProfile(PROFILE.d, PROFILE.horizon, PROFILE.forbidden | {10})
    with pytest.raises(InternalConsistencyError, match=r"arc label ([01]+) is not legal") as err:
        enumerate_legal_stable(10, detached, FIB)
    assert Word(err.value.args[0].split()[2]) in component_intervals(FIB, 10).words


def test_certificate_cap_reports_next_length(monkeypatch):
    monkeypatch.setattr(characterization, "ENCLOSING_CAP", 8)
    # at fib, n = 8 is certified at M = 10, one step past a cap of 8
    with pytest.raises(InconclusiveError) as err:
        enumerate_legal_stable(8, PROFILE)
    assert err.value.info["length_reached"] == 10
    # a length above the cap stops before labelling any arc
    with pytest.raises(InconclusiveError) as err:
        enumerate_legal_stable(9, PROFILE)
    assert err.value.info["length_reached"] == 9


@pytest.mark.parametrize("gamma", ["fib", "0,1,2,2", "-1,1,1,3", "1,1,4,3", "998,1,1000,2",
                                   "89698,1,89998,2"])
def test_certificate_needs_no_profile_grown_to_d1(gamma):
    # an empty d already means no run of d1 + 1 zeros fits in M <= horizon + 1
    # sites, and every later M regrows the profile to M - 1
    params = RotationParams(parse_qi(gamma), QI_ZERO)
    small, grown = distance_profile(params, 2), distance_profile(params, first_distance(params.gamma))
    for n in range(1, 13):
        assert enumerate_legal_stable(n, small) == enumerate_legal_stable(n, grown), n


def test_certificate_on_detached_profile():
    detached = DistanceProfile.from_json(distance_profile(FIB, 60).to_json())
    with pytest.raises(InsufficientProfileError, match="no rotation"):
        enumerate_legal_stable(4, detached)
    legal, used = enumerate_legal_stable(12, detached, FIB)
    assert used == 14 and legal == set(component_intervals(FIB, 12).words)
    # the rotation labels the arcs but never regrows the given profile
    with pytest.raises(InsufficientProfileError, match="horizon 60 < 61"):
        enumerate_legal_stable(60, detached, FIB)


def test_periodic_exclusion_forced_values():
    assert periodic_exclusion(1, PROFILE) == 1
    assert periodic_exclusion(2, PROFILE) == 2
    # multiples of 5: 5, 10, 15, 20 allowed, 25 forbidden
    assert periodic_exclusion(5, PROFILE) == 5
    assert all(periodic_exclusion(p, PROFILE) >= 1 for p in range(1, 13))


def test_periodic_exclusion_grows_horizon():
    # past the horizon the attached rotation's coding decides: 9 and 25 are
    # forbidden, read off 00 at sites 9, 10 and 25, 26
    small = distance_profile(FIB, 8)
    assert periodic_exclusion(9, small) == 1
    assert periodic_exclusion(5, small) == 5


def test_periodic_exclusion_detached_profile_fails_loudly():
    detached = DistanceProfile.from_json(distance_profile(FIB, 8).to_json())
    with pytest.raises(InsufficientProfileError):
        periodic_exclusion(9, detached)


def test_periodic_exclusion_cap(monkeypatch):
    monkeypatch.setattr("sturmgas.order_analysis.SIZE_CAP", 2)
    # 7 is allowed in the profile, 14 and 21 in the coding; 28 lies past the cap
    with pytest.raises(InconclusiveError) as err:
        periodic_exclusion(7, distance_profile(FIB, 8))
    assert err.value.info == {"period": 7, "horizon_reached": 21}
    # the cap counts multiples past the horizon: from 21 the walk reads 28 and 35
    with pytest.raises(InconclusiveError) as err:
        periodic_exclusion(7, distance_profile(FIB, 21))
    assert err.value.info == {"period": 7, "horizon_reached": 35}


def _reference_periodic_exclusion(p, profile, grow=ensure_horizon, horizon_cap=100_000):
    """The horizon-doubling search: regrow whole profiles until i*p is covered."""
    i = 1
    while True:
        while i * p > profile.horizon:
            if profile.horizon >= horizon_cap:
                raise InconclusiveError("cap", period=p, horizon_reached=profile.horizon)
            profile = grow(profile, min(2 * profile.horizon, horizon_cap))
        if i * p in profile.forbidden:
            return i
        i += 1


# the four panel angles and two sparse ones (d1 = 1707 and 301)
SIX_ANGLES = ("fib", "0,1,2,2", "-1,1,1,3", "1,1,4,3", "998,1,1000,2", "89698,1,89998,2")


@pytest.mark.parametrize("horizon", [8, 60, 200, 2000])
def test_periodic_exclusion_matches_doubling_reference(horizon):
    for gamma in SIX_ANGLES:
        profile = distance_profile(RotationParams(parse_qi(gamma), QI_ZERO), horizon)
        # one cache per angle: profiles hash without their rotation, so equal
        # sets at two angles would share an entry
        grow = functools.cache(ensure_horizon)
        for p in range(1, 201):
            expect = _reference_periodic_exclusion(p, profile, grow)
            assert periodic_exclusion(p, profile) == expect, (gamma, p)


def _closed_form_exclusion(p, gamma):
    """First i with i*p = 1 or frac(i*p*gamma) in (1 - gamma, gamma), the
    multiples walked in exact QuadIrrational steps."""
    step, x, i = rotate(QI_ZERO, gamma, p), QI_ZERO, 0
    while True:
        i, x = i + 1, (x + step).frac()
        if i * p == 1 or QI_ONE - gamma < x < gamma:
            return i


PANEL_ANGLES = (GOLDEN, qi_make(0, 1, 2, 2), qi_make(-1, 1, 1, 3), qi_make(1, 1, 4, 3))


def test_periodic_exclusion_matches_closed_form_to_period_2000():
    # at fib, 323 * 329 = 106267 and 1365 * 1597 lie far past the horizon
    walked = 0.0
    for gamma in PANEL_ANGLES:
        profile = distance_profile(RotationParams(gamma, QI_ZERO), 200)
        for p in range(1, 2001):
            start = time.perf_counter()
            i = periodic_exclusion(p, profile)
            walked += time.perf_counter() - start
            assert i == _closed_form_exclusion(p, gamma), (gamma, p)
    assert walked < 2


def test_periodic_exclusion_reads_only_the_angle():
    # forbidden distances belong to gamma: a profile attached at phase gamma
    # answers as at phase 0 (its own coding would exclude p = 3 at 7, not 3)
    base = distance_profile(FIB, 8)
    shifted = DistanceProfile(base.d, base.horizon, base.forbidden, params=FIB)
    for p in range(1, 60):
        assert periodic_exclusion(p, shifted) == _closed_form_exclusion(p, GOLDEN), p


def test_periodic_repetitions_are_illegal():
    for p in range(1, 9):
        i = periodic_exclusion(p, PROFILE)
        span = max(2 * i * p, PROFILE.d1 + 2)
        for content in range(1 << p):
            cell = "".join("1" if (content >> k) & 1 else "0" for k in range(p))
            x = (cell * (span // p + 1))[:span]
            assert not is_locally_legal(Word(x), PROFILE).legal, (p, cell)


def test_enclosed_ones_on_generated_window():
    w = generate(FIB, 0, 199)
    assert check_enclosed_ones(w, PROFILE).holds


def test_enclosed_ones_adjacent_pair():
    # distance 2 pairs are rank 1: zero enclosed 1's
    verdict = check_enclosed_ones(Word("101"), PROFILE)
    assert verdict.holds


def test_enclosed_ones_guards_illegal_words():
    with pytest.raises(ValueError):
        check_enclosed_ones(Word("10001"), PROFILE)


def _reference_check_enclosed_ones(w, profile):
    """The pair loop that checked the rank rule before the per-rank vector test."""
    verdict = is_locally_legal(w, profile)
    if not verdict.legal:
        raise ValueError(f"word is not locally legal: {verdict.violation}")
    rank = {x: r for r, dv in enumerate(profile.d, start=1) for x in (dv, dv + 1)}
    ones = [k for k, ch in enumerate(w.symbols) if ch == "1"]
    witnesses = []
    for i, a in enumerate(ones):
        for k in range(i + 1, len(ones)):
            dist = ones[k] - a
            if dist > profile.horizon:
                break
            r = rank.get(dist)
            if r is None:
                continue
            enclosed = k - i - 1
            if enclosed != r - 1:
                witnesses.append(((w.origin + a, w.origin + ones[k]), dist, r - 1, enclosed))
    return FactVerdict(not witnesses, tuple(witnesses))


def _rank_swapped(profile):
    """profile with d_2 and d_3 swapped: the same forbidden distances, hence
    the same legal words, but pairs at d_2, d_2 + 1, d_3 and d_3 + 1 take the
    wrong rank, so legal words break the rank rule."""
    d = list(profile.d)
    d[1], d[2] = d[2], d[1]
    return DistanceProfile(tuple(d), profile.horizon, profile.forbidden)


def _assert_enclosed_matches(w, profile):
    outcomes = []
    for check in (check_enclosed_ones, _reference_check_enclosed_ones):
        try:
            outcomes.append(check(w, profile))
        except ValueError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1], w.symbols
    return outcomes[0]


def test_enclosed_ones_witnesses_under_a_rank_swapped_profile():
    swapped = _rank_swapped(PROFILE)
    assert swapped.d[:4] == (2, 7, 5, 10)
    # 1's at 10, 12, 15: the pair at distance 5 encloses one 1, but the
    # swapped profile ranks 5 as d_3, which asks for two
    verdict = _assert_enclosed_matches(Word("101001", 10), swapped)
    assert verdict == FactVerdict(False, (((10, 15), 5, 2, 1),))
    # a longer coding window: many witnesses, in the pair loop's order
    w = generate(FIB, -40, 159)
    verdict = _assert_enclosed_matches(w, swapped)
    assert len(verdict.witnesses) > 50
    assert check_enclosed_ones(w, PROFILE) == FactVerdict(True)
    # a hand-built profile that neither ranks nor forbids 5 to 8: the pair
    # at distance 6 is skipped, as the pair loop skips it
    unranked = DistanceProfile((3,), 8, frozenset({1, 2}))
    assert _assert_enclosed_matches(Word("1001001"), unranked) == FactVerdict(True)


@pytest.mark.parametrize("n", range(15))
def test_enclosed_ones_matches_pair_loop_on_every_short_word(n):
    # d1 = 2 and 3, and a profile under which legal words break the rule
    fib = distance_profile(RotationParams(parse_qi("fib"), QI_ZERO), 40)
    sqrt2 = distance_profile(RotationParams(parse_qi("0,1,2,2"), QI_ZERO), 40)
    profiles = (fib, sqrt2, _rank_swapped(fib))
    for x in range(1 << n):
        w = Word(format(x, f"0{n}b") if n else "", 3)
        for profile in profiles:
            _assert_enclosed_matches(w, profile)


@pytest.mark.parametrize("gamma", CAPPED_ORACLE_ANGLES)
def test_enclosed_ones_matches_pair_loop_on_generated_windows(gamma):
    # windows of up to 500 1's: the pair loop is quadratic in them
    windows = [w for w in _oracle_windows(gamma, 19) if w.count("1") <= 500]
    params = RotationParams(parse_qi(gamma), QI_ZERO)
    profile = distance_profile(params, max(len(w) for w in windows))
    for w in windows:
        _assert_enclosed_matches(w, profile)
        _assert_enclosed_matches(w, _rank_swapped(profile))


@pytest.mark.parametrize("gamma", ["fib", "0,1,2,2", "-1,1,1,3", "1,1,4,3"])
def test_enclosed_ones_matches_pair_loop_on_the_equivalence_ensemble(gamma):
    g = parse_qi(gamma)
    profile = distance_profile(RotationParams(g, QI_ZERO), verify.EQUIV_MAX_LEN)
    for w, mutated in verify.equivalence_ensemble(g, 20):
        for x in (w, mutated):
            _assert_enclosed_matches(x, profile)
            _assert_enclosed_matches(x, _rank_swapped(profile))


def test_follower_ones_on_generated_window():
    w = generate(FIB, 0, 199)
    assert check_follower_ones(w, PROFILE).holds


def test_follower_ones_flip_reported():
    w = generate(FIB, 0, 80)
    ones = [k for k, ch in enumerate(w.symbols) if ch == "1"]
    a = ones[3]
    target = a + 2 if w.symbols[a + 2] == "1" else a + 3
    flipped = Word(w.symbols[:target] + "0" + w.symbols[target + 1 :], w.origin)
    verdict = check_follower_ones(flipped, PROFILE)
    assert not verdict.holds
    assert any(pos == a and rank == 1 for pos, rank, _ in verdict.witnesses)


def test_follower_ones_window_end_skipped():
    # rank whose d_r + 1 would look past the end is skipped, not failed
    assert check_follower_ones(Word("10"), PROFILE).holds


def _reference_follower_ones(w, profile):
    """The loop over every 1 and every rank before the per-rank vector step."""
    witnesses = []
    length = len(w)
    for a in (k for k, ch in enumerate(w.symbols) if ch == "1"):
        for r, dv in enumerate(profile.d, start=1):
            if a + dv + 1 >= length:
                break
            if w.symbols[a + dv] != "1" and w.symbols[a + dv + 1] != "1":
                witnesses.append((w.origin + a, r, dv))
    return FactVerdict(not witnesses, tuple(witnesses))


@pytest.mark.parametrize("n", range(13))
def test_follower_ones_matches_loop_on_every_short_word(n):
    fib = distance_profile(RotationParams(parse_qi("fib"), QI_ZERO), 40)
    sqrt2 = distance_profile(RotationParams(parse_qi("0,1,2,2"), QI_ZERO), 40)
    # the swapped ranks make d non-monotone, where the loop's break decides
    for profile in (fib, sqrt2, _rank_swapped(fib), DistanceProfile((), 8, frozenset())):
        for x in range(1 << n):
            w = Word(format(x, f"0{n}b") if n else "", -2)
            assert check_follower_ones(w, profile) == _reference_follower_ones(w, profile)


@pytest.mark.parametrize("gamma", ["fib", "0,1,2,2", "-1,1,1,3", "1,1,4,3"])
def test_follower_ones_matches_loop_on_generated_windows(gamma):
    # clean coding windows and one-site flips of them, up to 2000 sites
    windows = [w for w in _oracle_windows(gamma, 23) if len(w) <= 2000]
    profile = distance_profile(RotationParams(parse_qi(gamma), QI_ZERO), 2000)
    flagged = 0
    for w in windows:
        for prof in (profile, _rank_swapped(profile)):
            verdict = check_follower_ones(w, prof)
            assert verdict == _reference_follower_ones(w, prof), (gamma, len(w))
            flagged += not verdict.holds
    assert flagged
