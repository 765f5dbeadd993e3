"""Word frequencies as exact arc lengths, and segment-count deviation bounds.

Every length-n word that occurs corresponds to one arc of the circle cut
at the rotation preimages of the two coding boundaries; its frequency is
the exact arc length.  Deviation maxima over segments are computed with
integer prefix counts and kept as integer surd pairs over the frequency's
denominator, so "the bound stopped growing" is an exact statement, not a
float coincidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidRotationError
from .exact_angle import QI_ZERO, QuadIrrational, RotationParams, _sign_surd, qi_make, rotate
from .sturmian_gen import Word, generate


@dataclass(frozen=True)
class ComponentIntervals:
    """The n+1 arcs whose visits spell out the length-n words.

    cuts are the sorted arc endpoints; interval k is [cuts[k], cuts[k+1])
    with the last one wrapping to cuts[0] + 1.  words[k] labels interval k.
    """

    n: int
    cuts: tuple[QuadIrrational, ...]
    intervals: tuple[tuple[QuadIrrational, QuadIrrational], ...]
    words: tuple[Word, ...]

    def length_of(self, w: Word) -> Optional[QuadIrrational]:
        for (lo, hi), label in zip(self.intervals, self.words):
            if label == w:
                return hi - lo
        return None


def component_intervals(params: RotationParams, n: int) -> ComponentIntervals:
    """Cut the circle at the preimages of both coding boundaries.

    The boundaries {0, gamma} pulled back through offsets 0..n-1 give the
    points frac(m * gamma) for m in [-(n-1), 1]; there are n + 1 of them.
    The arc starting at cut m holds no cut inside, and the half-open rule
    codes a landing on 0 as 0 and on gamma as 1, the sides its interior
    lies on; so its label is the phase-0 coding of indices m..m+n-1, and
    all labels are slices of one window of 2n symbols.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    g = params.gamma
    cuts, indices = zip(*sorted((rotate(QI_ZERO, g, m), m) for m in range(-(n - 1), 2)))
    for u, v in zip(cuts, cuts[1:]):
        if u == v:
            raise InvalidRotationError(
                "duplicate cut points; the rotation angle is not irrational"
            )
    pairs = tuple(zip(cuts, cuts[1:] + (cuts[0] + 1,)))
    coding = generate(RotationParams(g, QI_ZERO), -(n - 1), n).symbols
    words = tuple(Word(coding[m + n - 1 : m + 2 * n - 1]) for m in indices)
    if len(set(words)) != n + 1:
        raise InvalidRotationError("arc labels are not pairwise distinct")
    return ComponentIntervals(n, cuts, pairs, words)


def frequency(params: RotationParams, w: Word) -> QuadIrrational:
    """Exact occurrence frequency of w; zero when w never occurs."""
    if len(w) < 1:
        raise ValueError("need a nonempty word")
    length = component_intervals(params, len(w)).length_of(w)
    return length if length is not None else QI_ZERO


def _occurrences(x: Word, w: Word) -> list[int]:
    """Offsets in x where w starts, overlaps included."""
    starts = []
    pos = x.symbols.find(w.symbols)
    while pos != -1:
        starts.append(pos)
        pos = x.symbols.find(w.symbols, pos + 1)
    return starts


def count_occurrences(x: Word, w: Word) -> int:
    """Occurrences of w in x, overlaps included; 0 when w is longer than x."""
    if len(w) == 0:
        raise ValueError("need a nonempty pattern")
    return len(_occurrences(x, w))


@dataclass(frozen=True)
class DiscrepancyReport:
    """Deviation maxima |count - frequency * |A|| over sampled segments A."""

    word: Word
    frequency: QuadIrrational
    #: exact maximal deviation over segments of length <= the requested horizon
    max_dev: QuadIrrational
    #: the same maximum after doubling the length horizon
    c_w_estimate: QuadIrrational
    #: True when doubling the horizon did not grow the maximum
    stabilized: bool
    segments_tested: str


def strict_boundary_check(
    params: RotationParams,
    w: Word,
    max_len: int,
    trials: Optional[int] = None,
) -> DiscrepancyReport:
    """Exact deviation maxima over segments of a window of length 2*max_len.

    Scans every offset at each sampled segment length (all lengths by
    default, or `trials` evenly spaced ones) at two horizons, max_len and
    2*max_len, and reports whether the maximum grew between them; a flat
    maximum is the boundedness evidence this check exists to collect.
    """
    m = len(w)
    if m < 1:
        raise ValueError("need a nonempty word")
    if max_len < m:
        raise ValueError(f"max_len {max_len} below word length {m}")
    if trials is not None and trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    window = 2 * max_len
    x = generate(params, 0, window - 1)
    xi = frequency(params, w)
    a, b, c, d = xi.a, xi.b, xi.c, xi.d

    slots = window - m + 1
    occ = np.zeros(slots, dtype=np.int64)
    occ[_occurrences(x, w)] = 1
    prefix = np.zeros(slots + 1, dtype=np.int64)
    np.cumsum(occ, out=prefix[1:])

    lengths = range(m, window + 1)
    if trials is not None and trials < len(lengths):
        idx = np.unique(np.linspace(0, len(lengths) - 1, trials).astype(int))
        lengths = [m + int(i) for i in idx]
        plan = f"{len(lengths)} sampled lengths in [{m}, {window}], all offsets"
    else:
        plan = f"all lengths in [{m}, {window}], all offsets"

    # A deviation (p + q*sqrt(d))/c is the integer pair (p, q).  Segments
    # shorter than w hold no occurrence, so their deviation peaks at
    # frequency * (m - 1); that is (0, 0) for m = 1, and no deviation is
    # negative.  Lengths ascend, so max_dev is the running maximum at the
    # last length <= max_len.
    best = best2 = (a * (m - 1), b * (m - 1))
    for L in lengths:
        k = L - m + 1
        counts = prefix[k : slots + 1] - prefix[: slots + 1 - k]
        hi = (c * int(counts.max()) - a * L, -b * L)
        lo = (a * L - c * int(counts.min()), b * L)
        dev = hi if _sign_surd(hi[0] - lo[0], hi[1] - lo[1], d) > 0 else lo
        if _sign_surd(dev[0] - best2[0], dev[1] - best2[1], d) > 0:
            best2 = dev
        if L <= max_len:
            best = best2
    max_dev = qi_make(*best, c, d)
    c_w_estimate = qi_make(*best2, c, d)
    return DiscrepancyReport(
        word=w,
        frequency=xi,
        max_dev=max_dev,
        c_w_estimate=c_w_estimate,
        stabilized=max_dev == c_w_estimate,
        segments_tested=f"window [0, {window}), {plan}, horizons {max_len} and {window}",
    )
