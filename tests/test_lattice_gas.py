"""Couplings, exact energies, certified ground states, periodic densities."""

import random
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import sturmgas.lattice_gas
from sturmgas import verify
from sturmgas.errors import InsufficientProfileError, InternalConsistencyError
from sturmgas.exact_angle import GOLDEN, QI_ZERO, RotationParams, parse_qi
from sturmgas.sturmian_gen import Word, generate
from sturmgas.order_analysis import distance_profile, ensure_horizon, first_distance, is_balanced
from sturmgas.characterization import enumerate_legal, is_locally_legal, periodic_exclusion
from sturmgas.lattice_gas import (
    SEARCH_CAP,
    EnergyBreakdown,
    InteractionSpec,
    PeriodicDensity,
    _coupling_sum,
    build_interaction,
    energy_open,
    ground_state_search,
    periodic_energy_density,
)

FIB = RotationParams(GOLDEN, GOLDEN)
PROFILE = distance_profile(FIB, 200)
SPEC = build_interaction(PROFILE, Fraction(1, 2), Fraction(1))

#: the four panel angles: golden, sqrt2/2, sqrt3-1, (1+sqrt3)/4
PANEL = ("fib", "0,1,2,2", "-1,1,1,3", "1,1,4,3")
DECAYS = (Fraction(1, 2), Fraction(1, 4), Fraction(2, 3))


def _panel_params(gamma):
    return FIB if gamma == "fib" else RotationParams(parse_qi(gamma), QI_ZERO)


def _reference_energy_open(w, spec):
    """Brute-force oracle: the O(ones**2) pair loop summing Fraction powers."""
    forbidden = spec.profile.forbidden
    lam = spec.decay_base
    ones = [k for k, ch in enumerate(w.symbols) if ch == "1"]
    pair_part = Fraction(0)
    pairs = []
    for i, a in enumerate(ones):
        for b in ones[i + 1 :]:
            if b - a in forbidden:
                pair_part += lam ** (b - a)
                pairs.append((w.origin + a, w.origin + b, b - a))
    runs = []
    target = "0" * spec.zero_run_len
    pos = w.symbols.find(target)
    while pos != -1:
        runs.append(w.origin + pos)
        pos = w.symbols.find(target, pos + 1)
    zero_run_part = spec.zero_run_penalty * len(runs)
    return EnergyBreakdown(
        pair_part + zero_run_part, pair_part, zero_run_part, tuple(pairs), tuple(runs)
    )


def _reference_scan(length, spec):
    """Brute-force oracle: a blocked numpy bitmask scan of all 2**length states.

    Bit k of x is site k.  x has a positive term iff x & (x >> j) != 0 for a
    forbidden j < length, or the complement of x | x>>1 | ... |
    x>>(zero_run_len-1) is nonzero at some run start inside the window.
    Returns (zero-energy words, states scanned).
    """
    scan_block = 1 << 16
    distances = [j for j in sorted(spec.profile.forbidden) if j < length]
    run_len = spec.zero_run_len
    run_window = (1 << (length - run_len + 1)) - 1 if length >= run_len else 0
    total = 1 << length
    zero = []
    for lo in range(0, total, scan_block):
        x = np.arange(lo, min(lo + scan_block, total), dtype=np.uint32)
        positive = np.zeros(x.shape, dtype=bool)
        for j in distances:
            positive |= (x & (x >> j)) != 0
        if run_window:
            covered = x.copy()
            for s in range(1, run_len):
                covered |= x >> s
            positive |= (~covered & run_window) != 0
        zero.extend(x[~positive].tolist())
    return frozenset(Word(format(x, f"0{length}b")[::-1]) for x in zero), total


def _reference_periodic_density(period_word, spec, tail_tol):
    """Brute-force oracle: one Fraction power and one site scan per distance,
    plus lam**n per 1 at the first forbidden multiple n of p when n > trunc."""
    p = len(period_word)
    lam = spec.decay_base
    tail = lam / (1 - lam)
    trunc = 0
    while tail >= tail_tol:
        tail *= lam
        trunc += 1
    profile = ensure_horizon(spec.profile, max(trunc, spec.profile.horizon))
    bits = period_word.bits()
    ones = [k for k, b in enumerate(bits) if b]
    runs = sum(
        1
        for i in range(p)
        if all(bits[(i + s) % p] == 0 for s in range(spec.zero_run_len))
    )
    pair_sum = Fraction(0)
    power = Fraction(1)
    for j in range(1, trunc + 1):
        power *= lam
        if j in profile.forbidden:
            pair_sum += sum(1 for i in ones if bits[(i + j) % p]) * power
    lower = (pair_sum + spec.zero_run_penalty * runs) / p
    estimate = lower + Fraction(len(ones), p) * tail
    if not any(n in profile.forbidden for n in range(p, trunc + 1, p)):
        # each 1 meets its copy at the first forbidden multiple n of p, past trunc
        n, reach = p, profile
        while n not in reach.forbidden:
            n += p
            if n > reach.horizon:
                reach = ensure_horizon(reach, 2 * n)
        lower += len(ones) * lam**n / p
    return PeriodicDensity(lower, estimate, trunc)


def test_couplings_on_forbidden_distances_only():
    assert SPEC.coupling(1) == Fraction(1, 2)
    assert SPEC.coupling(4) == Fraction(1, 16)
    assert SPEC.coupling(2) == 0
    assert SPEC.coupling(3) == 0
    assert SPEC.coupling(PROFILE.d1) == 0


def test_couplings_summable():
    total = sum(SPEC.coupling(j) for j in sorted(PROFILE.forbidden))
    assert total <= Fraction(1, 2) / (1 - Fraction(1, 2))


def test_coupling_outside_horizon_rejected():
    with pytest.raises(InsufficientProfileError):
        SPEC.coupling(PROFILE.horizon + 1)


def test_interaction_validation():
    with pytest.raises(ValueError):
        build_interaction(PROFILE, Fraction(3, 2), Fraction(1))
    with pytest.raises(ValueError):
        build_interaction(PROFILE, Fraction(1, 2), Fraction(0))


def test_zero_run_length():
    assert SPEC.zero_run_len == PROFILE.d1 + 1 == 3


def test_pair_coupling_map():
    coupling = {j: SPEC.coupling(j) for j in range(1, PROFILE.horizon + 1)}
    assert set(coupling) == set(range(1, PROFILE.horizon + 1))
    assert all(coupling[j] > 0 for j in PROFILE.forbidden)
    assert all(coupling[j] == 0 for j in PROFILE.allowed)


def test_energy_of_legal_word_is_zero():
    breakdown = energy_open(Word("0100101001001", 1), SPEC)
    assert breakdown.total == 0
    assert not breakdown.violating_pairs and not breakdown.violating_runs


def test_energy_adjacent_pair():
    breakdown = energy_open(Word("11"), SPEC)
    assert breakdown.total == Fraction(1, 2)
    assert breakdown.violating_pairs == ((0, 1, 1),)


def test_energy_zero_run():
    breakdown = energy_open(Word("000"), SPEC)
    assert breakdown.total == 1
    assert breakdown.zero_run_part == 1 and breakdown.pair_part == 0
    assert breakdown.violating_runs == (0,)


def test_energy_breakdown_adds_up():
    breakdown = energy_open(Word("1100010"), SPEC)
    assert breakdown.total == breakdown.pair_part + breakdown.zero_run_part
    assert breakdown.total > 0


def test_energy_needs_covering_horizon():
    with pytest.raises(InsufficientProfileError):
        energy_open(generate(FIB, 0, 500), SPEC)


@pytest.mark.parametrize("gamma", PANEL)
def test_energy_open_matches_reference(gamma):
    # every field, violating_pairs order included, over clean, defected and
    # random windows; the oracle's pair loop is quadratic in the particle
    # count, so the 2000-site random window is sparse
    params = _panel_params(gamma)
    profile = distance_profile(params, 2000)
    rng = random.Random(gamma)
    words = [Word("")] + [
        Word(format(x, f"0{n}b"), 3) for n in (1, 2, 3) for x in range(1 << n)
    ]
    for n in (17, 200, 2000):
        clean = generate(params, 41, 40 + n)
        damaged = list(clean.symbols)
        for k in rng.sample(range(n), 3):
            damaged[k] = "1" if damaged[k] == "0" else "0"
        words += [clean, Word("".join(damaged), 41)]
    for n, density in ((17, 0.5), (200, 0.5), (2000, 0.03125)):
        symbols = "".join("1" if rng.random() < density else "0" for _ in range(n))
        words.append(Word(symbols, -n // 2))
    for decay in DECAYS:
        for penalty in (Fraction(1), Fraction(3, 2)):
            spec = build_interaction(profile, decay, penalty)
            for w in words:
                assert energy_open(w, spec) == _reference_energy_open(w, spec), (
                    decay,
                    penalty,
                    w,
                )


def test_energy_open_dense_words_match_reference():
    # dense words put many hits at almost every distance; a clean window with
    # two added particles has one or a few hits per distance
    profile = distance_profile(FIB, 2000)
    clean = generate(FIB, 41, 2040)
    symbols = list(clean.symbols)
    for k in (symbols.index("0", 700), symbols.index("0", 1300)):
        symbols[k] = "1"
    defected = Word("".join(symbols), 41)
    words = [Word("1" * 200), Word("10" * 100, -7), defected]
    pairs = _reference_energy_open(defected, build_interaction(profile)).violating_pairs
    per_distance = Counter(j for _, _, j in pairs)
    assert 1 in per_distance.values() and max(per_distance.values()) > 1
    for decay in DECAYS:
        spec = build_interaction(profile, decay, Fraction(1))
        for w in words:
            assert energy_open(w, spec) == _reference_energy_open(w, spec), (decay, w)


def test_coupling_sum_matches_fraction_powers():
    rng = random.Random(3)
    for lam in (*DECAYS, Fraction(3, 7)):
        for size in (0, 1, 5, 40):
            counts = [(j, rng.randrange(1, 9)) for j in sorted(rng.sample(range(1, 300), size))]
            assert _coupling_sum(lam, counts) == sum(c * lam**j for j, c in counts)


@pytest.mark.parametrize("gamma", (*PANEL, "89698,1,89998,2"))
def test_periodic_density_matches_reference(gamma, monkeypatch):
    # every cell of period <= 8 (6 at the sparse angle, where d1 = 301);
    # the three tolerances take turns by cell
    params = _panel_params(gamma)
    profile = distance_profile(params, max(200, first_distance(params.gamma)))
    tolerances = [Fraction(1, 10**12), Fraction(1, 10**9), Fraction(1, 10**3)]
    turn = 0
    for decay in DECAYS:
        spec = build_interaction(profile, decay, Fraction(3, 2))
        for p in range(1, 9 if gamma in PANEL else 7):
            for content in range(1 << p):
                cell = Word(format(content, f"0{p}b"))
                tol = tolerances[turn % 3]
                turn += 1
                expected = _reference_periodic_density(cell, spec, tol)
                monkeypatch.setattr(sturmgas.lattice_gas, "TAIL_TOL", tol)
                assert periodic_energy_density(cell, spec) == expected, (
                    decay,
                    tol,
                    cell,
                )


def test_periodic_density_rejects_bad_input():
    with pytest.raises(ValueError):
        periodic_energy_density(Word(""), SPEC)


def test_energies_are_exact_fractions():
    for word in ("11", "000", "10101", "0010010"):
        assert isinstance(energy_open(Word(word), SPEC).total, Fraction)


def test_ground_state_tiny_lengths():
    r1 = ground_state_search(1, SPEC)
    assert r1.min_energy == 0
    assert {w.symbols for w in r1.argmin} == {"0", "1"}
    r2 = ground_state_search(2, SPEC)
    assert {w.symbols for w in r2.argmin} == {"00", "01", "10"}


def test_ground_state_matches_legality_filter():
    result = ground_state_search(12, SPEC)
    legal = enumerate_legal(12, 12, PROFILE)
    assert result.argmin == frozenset(legal)
    assert result.states_scanned == 4096


def test_ground_state_contains_generated_factors():
    result = ground_state_search(10, SPEC)
    window = generate(FIB, 0, 499)
    for k in range(0, 400, 37):
        factor = Word(window.symbols[k : k + 10])
        assert factor in result.argmin


def test_ground_state_refuses_oversized_scan():
    with pytest.raises(ValueError, match="refusing"):
        ground_state_search(SEARCH_CAP + 1, SPEC)


@pytest.mark.parametrize("gamma", PANEL)
def test_ground_state_matches_reference_scan(gamma):
    profile = distance_profile(_panel_params(gamma), 200)
    for decay, penalty in ((Fraction(1, 2), Fraction(1)), (Fraction(1, 4), Fraction(3, 2))):
        spec = build_interaction(profile, decay, penalty)
        for length in range(1, 21):
            result = ground_state_search(length, spec)
            words, scanned = _reference_scan(length, spec)
            assert result.min_energy == 0
            assert result.argmin == words, (decay, length)
            assert result.states_scanned == scanned == 1 << length


def test_ground_state_witness_check_fires(monkeypatch):
    # a pruning whose witness carries no positive energy term is refused:
    # a zero coupling on the pair distance, or a zero vacancy-run penalty
    spec = build_interaction(PROFILE)
    object.__setattr__(spec, "zero_run_penalty", Fraction(0))
    with pytest.raises(InternalConsistencyError, match="zero term"):
        ground_state_search(12, spec)
    monkeypatch.setattr(InteractionSpec, "coupling", lambda self, j: Fraction(0))
    with pytest.raises(InternalConsistencyError, match="zero term"):
        ground_state_search(12, SPEC)


def test_ground_state_at_search_cap():
    profile = distance_profile(FIB, SEARCH_CAP)
    result = ground_state_search(SEARCH_CAP, build_interaction(profile))
    assert result.min_energy == 0
    assert result.states_scanned == 1 << SEARCH_CAP
    assert result.argmin == enumerate_legal(SEARCH_CAP, SEARCH_CAP, profile)


def test_periodic_density_vacuum_equals_penalty():
    dens = periodic_energy_density(Word("0"), SPEC)
    assert dens.lower_bound == 1
    assert dens.value_estimate == 1


def test_periodic_density_dense_particles():
    dens = periodic_energy_density(Word("1"), SPEC)
    assert dens.lower_bound >= Fraction(1, 2)  # distance-1 pairs at every site


def test_periodic_density_alternating():
    dens = periodic_energy_density(Word("10"), SPEC)
    assert dens.lower_bound >= Fraction(1, 16) / 2  # distance 4 = 2 periods


def test_periodic_density_positive_for_all_small_periods():
    for p in range(1, 7):
        for content in range(1 << p):
            cell = "".join("1" if (content >> k) & 1 else "0" for k in range(p))
            dens = periodic_energy_density(Word(cell), SPEC)
            assert dens.lower_bound > 0, cell
            assert dens.lower_bound <= dens.value_estimate


def test_periodic_density_estimate_tightens(monkeypatch):
    monkeypatch.setattr(sturmgas.lattice_gas, "TAIL_TOL", Fraction(1, 10**3))
    loose = periodic_energy_density(Word("10"), SPEC)
    monkeypatch.setattr(sturmgas.lattice_gas, "TAIL_TOL", Fraction(1, 10**9))
    tight = periodic_energy_density(Word("10"), SPEC)
    assert loose.lower_bound <= tight.lower_bound
    assert tight.value_estimate - tight.lower_bound < Fraction(1, 10**8)


@pytest.mark.parametrize("p, n_p", ((34, 1020), (89, 6853)))
def test_periodic_density_counts_the_first_forbidden_multiple(p, n_p):
    # the fib coding's own period-p cell has no pair term up to T = 40 and no
    # vacancy run: its k 1's meet their copies first at n_p, far past T
    cell = Word(generate(RotationParams(GOLDEN, QI_ZERO), 0, p - 1).symbols)
    assert p * periodic_exclusion(p, PROFILE) == n_p
    dens = periodic_energy_density(cell, SPEC)
    assert dens.lower_bound == Fraction(cell.symbols.count("1"), p) / 2**n_p > 0
    assert dens.lower_bound <= dens.value_estimate


@pytest.mark.parametrize(
    "gamma",
    [
        "33,-2,24,42",  # n_6 = 108
        "120,-5,147,19",  # n_3 = 240
        "-11,5,14,13",  # n_p >= 252 for every p from 2 to 10
        "145,-6,134,55",  # smallest bound below a float's range
    ],
)
def test_periodic_densities_positive_at_sweep_angles(gamma):
    checks = {c.name: c for c in verify.suite_energy(RotationParams(parse_qi(gamma), QI_ZERO))}
    check = checks["periodic_densities_positive"]
    assert check.passed, check.details
    assert not check.details.endswith(" 0.000e+00"), check.details


@pytest.mark.parametrize("gamma", PANEL)
def test_periodic_minimizers_are_balanced(gamma):
    # evidence, not a proven invariant: at every period p <= 12 each nonzero
    # cell of least lower bound is balanced as a circular word
    spec = build_interaction(distance_profile(_panel_params(gamma), 200))
    for p in range(1, 13):
        cells = [Word(format(content, f"0{p}b")[::-1]) for content in range(1, 1 << p)]
        bounds = [periodic_energy_density(cell, spec).lower_bound for cell in cells]
        least = min(bounds)
        for cell, bound in zip(cells, bounds):
            if bound == least:
                assert is_balanced(Word(cell.symbols * 3)), (p, cell)


def test_decay_halving_preserves_argmin():
    halved = build_interaction(PROFILE, Fraction(1, 4), Fraction(1))
    for length in (6, 9):
        assert (
            ground_state_search(length, SPEC).argmin
            == ground_state_search(length, halved).argmin
        )


def test_zero_energy_iff_legal_exhaustive_to_14():
    for length in range(2, 15):
        result = ground_state_search(length, SPEC)
        for x in range(1 << length):
            word = Word(
                "".join("1" if (x >> k) & 1 else "0" for k in range(length))
            )
            assert (word in result.argmin) == is_locally_legal(word, PROFILE).legal


def test_ground_state_exhaustive_at_20():
    # the search cross-asserts zero minimum and argmin == legal set
    result = ground_state_search(20, SPEC)
    assert result.min_energy == 0
    assert result.states_scanned == 1 << 20


def test_ground_state_at_24():
    result = ground_state_search(24, SPEC)
    assert result.min_energy == 0
    assert result.states_scanned == 1 << 24
    assert len(result.argmin) == 34
    assert result.argmin == enumerate_legal(24, 24, PROFILE)


@pytest.mark.parametrize(
    "gamma, count", [("0,1,2,2", 25), ("-1,1,1,3", 23), ("1,1,4,3", 35)]
)
def test_ground_state_at_20_other_angles(gamma, count):
    profile = distance_profile(RotationParams(parse_qi(gamma), QI_ZERO), 200)
    result = ground_state_search(20, build_interaction(profile))
    assert result.min_energy == 0
    assert len(result.argmin) == count
    assert result.argmin == enumerate_legal(20, 20, profile)


def test_ground_state_cross_check_fires(monkeypatch):
    real = sturmgas.lattice_gas.enumerate_legal

    def drop_one(n, big_m, profile):
        words = real(n, big_m, profile)
        words.discard(min(words, key=lambda w: w.symbols))
        return words

    monkeypatch.setattr(sturmgas.lattice_gas, "enumerate_legal", drop_one)
    with pytest.raises(InternalConsistencyError):
        ground_state_search(12, SPEC)


def test_ground_state_exact_energy_check_fires(monkeypatch):
    monkeypatch.setattr(
        sturmgas.lattice_gas,
        "energy_open",
        lambda w, spec: SimpleNamespace(total=Fraction(int(w.symbols[0]))),
    )
    with pytest.raises(InternalConsistencyError):
        ground_state_search(12, SPEC)


def test_zero_energy_iff_legal_spot_checks_above_20():
    # pruned route: every legal word of length 22 sits at zero energy, and
    # single-bit damage to a sampled few always costs something
    legal = enumerate_legal(22, 22, PROFILE)
    assert all(energy_open(w, SPEC).total == 0 for w in legal)
    for w in sorted(legal, key=lambda x: x.symbols)[::7]:
        for u in (0, 10, 21):
            flipped = "0" if w.symbols[u] == "1" else "1"
            damaged = Word(w.symbols[:u] + flipped + w.symbols[u + 1 :])
            verdict = is_locally_legal(damaged, PROFILE)
            energy = energy_open(damaged, SPEC).total
            assert (energy == 0) == verdict.legal
            assert energy >= 0
