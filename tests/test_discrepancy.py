"""Interval correspondence, exact frequencies, segment-count deviations."""

from collections import Counter

import numpy as np
import pytest

from sturmgas import verify
from sturmgas.exact_angle import GOLDEN, QI_ONE, QI_ZERO, RotationParams, parse_qi, qi_make
from sturmgas.sturmian_gen import Word, generate, symbol_at
from sturmgas.order_analysis import factor_set
from sturmgas.discrepancy import (
    component_intervals,
    count_occurrences,
    DiscrepancyReport,
    frequency,
    strict_boundary_check,
)

FIB = RotationParams(GOLDEN, GOLDEN)
# fib, sqrt(2)/2, sqrt(3)-1, (1+sqrt(3))/4
PANEL = (
    FIB,
    RotationParams(qi_make(0, 1, 2, 2), QI_ZERO),
    RotationParams(qi_make(-1, 1, 1, 3), QI_ZERO),
    RotationParams(qi_make(1, 1, 4, 3), QI_ZERO),
)


def test_intervals_length_one_is_coding_partition():
    ci = component_intervals(FIB, 1)
    assert len(ci.intervals) == 2
    assert ci.length_of(Word("0")) == GOLDEN
    assert ci.length_of(Word("1")) == 1 - GOLDEN


def test_intervals_length_two_excludes_adjacent_particles():
    ci = component_intervals(FIB, 2)
    assert {w.symbols for w in ci.words} == {"00", "01", "10"}
    assert ci.length_of(Word("11")) is None


def test_intervals_match_factor_sets():
    for params in PANEL:
        window = generate(params, 0, 4095)
        for n in range(1, 15):
            ci = component_intervals(params, n)
            assert len(ci.intervals) == n + 1
            assert {w.symbols for w in ci.words} == {
                w.symbols for w in factor_set(window, n)
            }


def _reference_labels(params, ci):
    # code each arc midpoint symbol by symbol through exact rotation
    labels = []
    for lo, hi in ci.intervals:
        mid = RotationParams(params.gamma, ((lo + hi) / 2).frac())
        labels.append("".join(str(symbol_at(mid, k)) for k in range(ci.n)))
    return labels


def test_interval_labels_match_exact_rotation():
    for params in PANEL:
        for n in range(1, 31):
            ci = component_intervals(params, n)
            assert [w.symbols for w in ci.words] == _reference_labels(params, ci)
    # both sparse angles, (3 + sqrt(2))/7 and gamma within 2**-64 of 1
    for spec in ("998,1,1000,2", "89698,1,89998,2", "3,1,7,2",
                 "-1311738121,3166815962,3166815962,2"):
        params = RotationParams(parse_qi(spec), QI_ZERO)
        for n in range(1, 13):
            ci = component_intervals(params, n)
            assert [w.symbols for w in ci.words] == _reference_labels(params, ci)


def test_interval_lengths_sum_to_one():
    for n in (1, 3, 6, 10):
        ci = component_intervals(FIB, n)
        total = sum((hi - lo for lo, hi in ci.intervals), 0 * QI_ONE)
        assert total == 1


def test_frequency_values():
    assert frequency(FIB, Word("1")) == 1 - GOLDEN
    assert frequency(FIB, Word("0")) == GOLDEN
    assert frequency(FIB, Word("11")) == qi_make(0, 0, 1, 0)


def test_frequency_additivity():
    window = generate(FIB, 0, 511)
    for n in range(1, 6):
        for f in (w.symbols for w in factor_set(window, n)):
            assert frequency(FIB, Word(f)) == frequency(FIB, Word(f + "0")) + frequency(
                FIB, Word(f + "1")
            )


def test_count_occurrences():
    x = Word("0100101001001", 1)
    w = Word("010")
    assert count_occurrences(x, w) == 4
    # direct-scan positions, lattice-indexed from origin 1
    positions = [
        i + x.origin
        for i in range(len(x) - len(w) + 1)
        if x.symbols[i : i + 3] == "010"
    ]
    assert positions == [1, 4, 6, 9]
    assert count_occurrences(Word("0000"), Word("00")) == 3
    assert count_occurrences(x, x) == 1
    assert count_occurrences(Word("01"), Word("010")) == 0


def test_boundary_letter_bound():
    report = strict_boundary_check(FIB, Word("1"), 1000)
    assert report.max_dev <= 1
    assert report.stabilized
    assert report.frequency == 1 - GOLDEN


@pytest.mark.parametrize("word", ["1", "01"])
@pytest.mark.parametrize("trials", [0, -1])
def test_boundary_rejects_trials_below_one(word, trials):
    with pytest.raises(ValueError, match="trials"):
        strict_boundary_check(FIB, Word(word), 10, trials=trials)


def test_boundary_absent_word_zero_deviation():
    report = strict_boundary_check(FIB, Word("11"), 500)
    assert report.frequency == 0
    assert report.max_dev == 0 and report.c_w_estimate == 0


def test_boundary_stabilization_for_factors():
    window = generate(FIB, 0, 255)
    for n in (1, 2, 3):
        for f in (w.symbols for w in factor_set(window, n)):
            report = strict_boundary_check(FIB, Word(f), 1000)
            assert report.stabilized, f


def test_boundary_letter_maxima_creep_at_short_horizons():
    # the letter deviation sup approaches 1 from below, so short horizons
    # still see growth; the stabilized flag must report that honestly
    report = strict_boundary_check(FIB, Word("1"), 600)
    assert not report.stabilized
    assert report.max_dev < report.c_w_estimate <= 1

def test_boundary_prefix_counts_within_constant():
    for f in ("1", "00", "010"):
        w = Word(f)
        report = strict_boundary_check(FIB, w, 800)
        xi = report.frequency
        for n_len in (50, 200, 800):
            seg = generate(FIB, 0, n_len - 1)
            dev = count_occurrences(seg, w) - xi * n_len
            dev = dev if dev.sign() >= 0 else -dev
            assert dev <= report.c_w_estimate


def test_boundary_sampled_lengths():
    full = strict_boundary_check(FIB, Word("0"), 400)
    sampled = strict_boundary_check(FIB, Word("0"), 400, trials=40)
    assert sampled.max_dev <= full.max_dev
    assert "sampled" in sampled.segments_tested


def test_boundary_rejects_short_horizon():
    with pytest.raises(ValueError):
        strict_boundary_check(FIB, Word("0100"), 3)


def _reference_boundary_check(params, w, max_len, trials=None):
    # the per-length QuadIrrational scan strict_boundary_check replaced,
    # kept as the oracle its integer surd pairs are checked against
    m = len(w)
    window = 2 * max_len
    x = generate(params, 0, window - 1)
    xi = frequency(params, w)

    slots = window - m + 1
    occ = np.zeros(slots, dtype=np.int64)
    start = x.symbols.find(w.symbols)
    while start != -1:
        occ[start] = 1
        start = x.symbols.find(w.symbols, start + 1)
    prefix = np.zeros(slots + 1, dtype=np.int64)
    np.cumsum(occ, out=prefix[1:])

    lengths = range(m, window + 1)
    if trials is not None and trials < len(lengths):
        idx = np.unique(np.linspace(0, len(lengths) - 1, trials).astype(int))
        lengths = [m + int(i) for i in idx]
        plan = f"{len(lengths)} sampled lengths in [{m}, {window}], all offsets"
    else:
        plan = f"all lengths in [{m}, {window}], all offsets"

    best = best2 = None
    if m > 1:
        best = best2 = xi * (m - 1)
    for L in lengths:
        k = L - m + 1
        counts = prefix[k : slots + 1] - prefix[: slots + 1 - k]
        expected = xi * L
        dev_hi = int(counts.max()) - expected
        dev_lo = expected - int(counts.min())
        dev = dev_hi if dev_hi > dev_lo else dev_lo
        if best2 is None or dev > best2:
            best2 = dev
        if L <= max_len and (best is None or dev > best):
            best = dev
    return DiscrepancyReport(
        word=w,
        frequency=xi,
        max_dev=best,
        c_w_estimate=best2,
        stabilized=best == best2,
        segments_tested=f"window [0, {window}), {plan}, horizons {max_len} and {window}",
    )


@pytest.mark.parametrize("params", PANEL)
def test_boundary_check_matches_reference_scan(params):
    window = generate(params, 0, 4095)
    words = [x.symbols for n in range(1, 7) for x in factor_set(window, n)]
    assert len(words) == 27
    for f in words + ["11"]:
        for max_len in (6, 40, 97):
            for trials in (None, 1, 5):
                got = strict_boundary_check(params, Word(f), max_len, trials)
                want = _reference_boundary_check(params, Word(f), max_len, trials)
                assert got == want, (f, max_len, trials)


def test_boundary_seed_from_segments_shorter_than_word():
    # the first 1 comes after about 850 sites, so a segment of length L
    # holds L - k + 1 copies of 0^k everywhere and the largest deviation is
    # the one of the segment of length k - 1: frequency * (k - 1)
    sparse = RotationParams(qi_make(998, 1, 1000, 2), qi_make(1, 0, 2, 0))
    for f in ("0", "00", "000"):
        report = strict_boundary_check(sparse, Word(f), 12)
        assert report == _reference_boundary_check(sparse, Word(f), 12)
        if len(f) > 1:
            assert report.max_dev == report.frequency * (len(f) - 1)


def test_discrepancy_suite_scans_each_word_once(monkeypatch):
    scanned = Counter()

    def counting(params, w, max_len, trials=None):
        scanned[w.symbols] += 1
        return strict_boundary_check(params, w, max_len, trials)

    monkeypatch.setattr(verify, "strict_boundary_check", counting)
    checks = verify.suite_discrepancy(FIB)
    assert [c.name for c in checks if not c.passed] == []
    # the 27 factors of length 1-6 include '1', '00' and '010'
    assert len(scanned) == 27 and set(scanned.values()) == {1}


def test_discrepancy_suite_reads_exact_factor_sets():
    # at d1 = 1707 a 512-site window misses factors; the suite reads them off
    # one window of recurrence length, which holds all n + 1 of them
    sparse = RotationParams(parse_qi("998,1,1000,2"), QI_ZERO)
    checks = {c.name: c for c in verify.suite_discrepancy(sparse)}
    assert checks["interval_word_bijection"].passed
    assert checks["frequency_additivity"].passed
