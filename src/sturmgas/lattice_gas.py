"""Non-frustrated pair interactions whose zero-energy words are the legal ones.

The coupling is positive exactly on forbidden particle distances plus one
finite-range term penalizing runs of d1+1 vacancies.  Energies are exact
rationals throughout; ground-state comparisons never involve a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InsufficientProfileError, InternalConsistencyError
from .order_analysis import DistanceProfile, ensure_horizon
from .characterization import enumerate_legal
from .sturmian_gen import Word

#: exhaustive scans refuse beyond this length; use the pruned legal-word
#: enumeration in `characterization` for longer windows
EXHAUSTIVE_CAP = 24

#: configurations per vectorized block of the exhaustive scan; bounds its
#: working memory independently of the length
SCAN_BLOCK = 1 << 16


@dataclass(frozen=True)
class InteractionSpec:
    """Couplings lambda**j on forbidden distances j, plus a vacancy-run penalty.

    zero_run_len = d1 + 1 is the penalized run length; every strictly
    shorter run is free.  All couplings are exact rationals, so finite
    energies are exact rationals.
    """

    profile: DistanceProfile
    decay_base: Fraction
    zero_run_penalty: Fraction

    def __post_init__(self):
        if not 0 < self.decay_base < 1:
            raise ValueError(f"decay base must lie in (0, 1), got {self.decay_base}")
        if self.zero_run_penalty <= 0:
            raise ValueError(f"penalty must be positive, got {self.zero_run_penalty}")
        if not self.profile.d:
            raise ValueError("profile lists no allowed distance")

    @property
    def zero_run_len(self) -> int:
        return self.profile.d[0] + 1

    def coupling(self, j: int) -> Fraction:
        """J(j): decay_base**j on forbidden distances, 0 on allowed ones."""
        if not 1 <= j <= self.profile.horizon:
            raise InsufficientProfileError(
                f"distance {j} outside profile horizon {self.profile.horizon}"
            )
        if j in self.profile.forbidden:
            return self.decay_base**j
        return Fraction(0)


def build_interaction(
    profile: DistanceProfile,
    decay_base: Fraction = Fraction(1, 2),
    penalty: Fraction = Fraction(1),
) -> InteractionSpec:
    return InteractionSpec(profile, Fraction(decay_base), Fraction(penalty))


@dataclass(frozen=True)
class EnergyBreakdown:
    total: Fraction
    pair_part: Fraction
    zero_run_part: Fraction
    #: (position, partner position, distance) per forbidden-distance pair
    violating_pairs: tuple[tuple[int, int, int], ...]
    #: start position of each penalized vacancy run
    violating_runs: tuple[int, ...]


def energy_open(w: Word, spec: InteractionSpec) -> EnergyBreakdown:
    """Energy of a free-boundary segment: all in-window terms, no wraparound.

    The window is read once as an integer x (bit k is site k).  For each
    forbidden distance j in `profile.forbidden`, x & (x >> j) has one set
    bit per violating pair, so its popcount is that distance's pair count.
    With decay_base = a/b the pair part is one integer numerator,
    sum of count * a**j * b**(top - j), over b**top.
    """
    n = len(w)
    if n - 1 > spec.profile.horizon:
        raise InsufficientProfileError(
            f"profile horizon {spec.profile.horizon} < window span {n - 1}"
        )
    a, b = spec.decay_base.numerator, spec.decay_base.denominator
    x = int(w.symbols[::-1] or "0", 2)
    distances = [j for j in spec.profile.forbidden if j < n]
    top = max(distances, default=0)
    numerator = 0
    pairs = []
    for j in distances:
        hits = x & (x >> j)
        if hits:
            numerator += hits.bit_count() * a**j * b ** (top - j)
            set_bits = format(hits, "b")[::-1]
            k = set_bits.find("1")
            while k != -1:
                pairs.append((w.origin + k, w.origin + k + j, j))
                k = set_bits.find("1", k + 1)
    pairs.sort()
    pair_part = Fraction(numerator, b**top)
    run_len = spec.zero_run_len
    runs = []
    target = "0" * run_len
    pos = w.symbols.find(target)
    while pos != -1:
        runs.append(w.origin + pos)
        pos = w.symbols.find(target, pos + 1)
    zero_run_part = spec.zero_run_penalty * len(runs)
    return EnergyBreakdown(
        total=pair_part + zero_run_part,
        pair_part=pair_part,
        zero_run_part=zero_run_part,
        violating_pairs=tuple(pairs),
        violating_runs=tuple(runs),
    )


@dataclass(frozen=True)
class GroundStateResult:
    min_energy: Fraction
    argmin: frozenset[Word]
    states_scanned: int


def ground_state_search(length: int, spec: InteractionSpec) -> GroundStateResult:
    """Exhaustive minimum over all 2**length free-boundary configurations.

    Every energy term is nonnegative and every coupling and the penalty is
    strictly positive, so the minimum is exactly zero iff some configuration
    has no positive term, and the argmin is that zero set.  A numpy bitmask
    scan (bit k of x is site k) finds it in blocks of SCAN_BLOCK: x has a
    positive term iff x & (x >> j) != 0 for a forbidden j < length, or the
    complement of x | x>>1 | ... | x>>(zero_run_len-1) is nonzero at some
    run start inside the window.  Two independent certifications follow:
    the zero set must equal the depth-first legal words of
    `enumerate_legal(length, length)` (pattern route), and each minimizer's
    exact `energy_open` total must be 0.
    """
    if not 1 <= length <= EXHAUSTIVE_CAP:
        raise ValueError(
            f"refusing exhaustive scan at length {length} (cap {EXHAUSTIVE_CAP}); "
            "use enumerate_legal for longer windows"
        )
    if spec.profile.horizon < length - 1:
        raise InsufficientProfileError(
            f"profile horizon {spec.profile.horizon} < {length - 1}"
        )
    distances = [j for j in sorted(spec.profile.forbidden) if j < length]
    run_len = spec.zero_run_len
    run_window = (1 << (length - run_len + 1)) - 1 if length >= run_len else 0
    total = 1 << length
    zero: list[int] = []
    for lo in range(0, total, SCAN_BLOCK):
        x = np.arange(lo, min(lo + SCAN_BLOCK, total), dtype=np.uint32)
        positive = np.zeros(x.shape, dtype=bool)
        for j in distances:
            positive |= (x & (x >> j)) != 0
        if run_window:
            covered = x.copy()
            for s in range(1, run_len):
                covered |= x >> s
            positive |= (~covered & run_window) != 0
        zero.extend(x[~positive].tolist())
    if not zero:
        raise InternalConsistencyError(
            f"no zero-energy configuration at length {length}: minimum is positive"
        )
    words = frozenset(Word(format(x, f"0{length}b")[::-1]) for x in zero)
    if words != enumerate_legal(length, length, spec.profile):
        raise InternalConsistencyError(
            "zero-energy configurations differ from locally legal ones"
        )
    nonzero = sorted(w.symbols for w in words if energy_open(w, spec).total != 0)
    if nonzero:
        raise InternalConsistencyError(
            f"bitmask minimizers with nonzero exact energy: {nonzero[:3]}"
        )
    return GroundStateResult(Fraction(0), words, total)


@dataclass(frozen=True)
class PeriodicDensity:
    """Certified bounds on the energy per site of a periodic repetition."""

    lower_bound: Fraction
    value_estimate: Fraction
    #: distance at which the coupling tail was cut
    truncation: int


def periodic_energy_density(
    period_word: Word, spec: InteractionSpec, tail_tol: Fraction = Fraction(1, 10**12)
) -> PeriodicDensity:
    """Energy per site of the bi-infinite repetition of period_word.

    The coupling tail past the truncation distance T is dropped; every term
    is nonnegative, so the truncated sum is a certified lower bound, and
    adding the geometric tail bound per particle gives the estimate.  The
    cell is one integer x (bit k is site k); the pairs at distance j depend
    only on j mod p and number popcount(x & rot_j(x)).  With decay_base =
    a/b the pair sum over forbidden j <= T (read from `profile.forbidden`)
    is one integer numerator over b**T.
    """
    p = len(period_word)
    if p < 1:
        raise ValueError("need a nonempty period word")
    tail_tol = Fraction(tail_tol)
    if tail_tol <= 0:
        raise ValueError("tail tolerance must be positive")
    a, b = spec.decay_base.numerator, spec.decay_base.denominator
    # smallest T with lam**(T+1)/(1-lam) < tail_tol, in integers:
    # a**(T+1) * tol_den < tol_num * b**T * (b-a)
    trunc, lhs, rhs = 0, a * tail_tol.denominator, tail_tol.numerator * (b - a)
    while lhs >= rhs:
        lhs, rhs, trunc = lhs * a, rhs * b, trunc + 1
    profile = ensure_horizon(spec.profile, max(trunc, spec.profile.horizon))
    x = int(period_word.symbols[::-1], 2)
    mask = (1 << p) - 1

    def rot(r: int) -> int:  # bit i of rot(r) is site (i + r) mod p
        r %= p
        return (x >> r | x << (p - r)) & mask

    hits = [(x & rot(r)).bit_count() for r in range(p)]
    covered = 0
    for s in range(spec.zero_run_len):
        covered |= rot(s)
    runs = p - covered.bit_count()
    numerator = 0
    power = 1
    for j in range(1, trunc + 1):
        power *= a
        numerator *= b
        if j in profile.forbidden:
            numerator += hits[j % p] * power
    lower = (Fraction(numerator, b**trunc) + spec.zero_run_penalty * runs) / p
    tail = Fraction(a ** (trunc + 1), b**trunc * (b - a))
    estimate = lower + Fraction(hits[0], p) * tail
    return PeriodicDensity(lower, estimate, trunc)
