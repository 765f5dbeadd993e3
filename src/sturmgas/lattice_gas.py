"""Non-frustrated pair interactions whose zero-energy words are the legal ones.

The coupling is positive exactly on forbidden particle distances plus one
finite-range term penalizing runs of d1+1 vacancies.  Energies are exact
rationals throughout; ground-state comparisons never involve a tolerance.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import InsufficientProfileError, InternalConsistencyError
from .order_analysis import DistanceProfile, ensure_horizon
from .characterization import enumerate_legal, periodic_exclusion
from .sturmian_gen import Word

#: longest `ground_state_search` window: its cross-check enumerate_legal(L, L)
#: keeps about L**2/16 bytes of big-int prefixes on its stack, too many at 10**6
SEARCH_CAP = 1000


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
            raise InsufficientProfileError("profile lists no allowed distance")

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

    @cached_property
    def _forbidden_sorted(self) -> list[int]:
        """profile.forbidden ascending: any window's distances are a prefix."""
        return sorted(self.profile.forbidden)

    @cached_property
    def _density_plans(self) -> dict[tuple[int, int, int], "_DensityPlan"]:
        """periodic_energy_density's per-period work, by TAIL_TOL and period."""
        return {}


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


def _coupling_sum(lam: Fraction, counts) -> Fraction:
    """Sum of c * lam**j over (j, c) in counts, j ascending, as one Fraction.

    lam = a/b: one integer numerator over b**(last j), by an ascending Horner
    pass that raises a and b to each gap between distances, never to a distance.
    """
    a, b = lam.numerator, lam.denominator
    num, a_pow, last = 0, 1, 0
    for j, c in counts:
        step = j - last
        a_pow *= a**step
        num = num * b**step + c * a_pow
        last = j
    return Fraction(num, b**last)


def energy_open(w: Word, spec: InteractionSpec) -> EnergyBreakdown:
    """Energy of a free-boundary segment: all in-window terms, no wraparound.

    The window is read once as an integer x (bit k is site k).  For each
    forbidden distance j below the window length (a prefix of the sorted
    `profile.forbidden` kept on the spec), x & (x >> j) has one set bit per
    violating pair, so its popcount is that distance's pair count.  With
    decay_base = a/b the pair part, sum of count * lam**j, is one integer
    numerator over a power of b, built by one ascending Horner pass over the
    violated distances.  Each distance gives its pairs one lowest set bit
    at a time.  `violating_pairs` is sorted by (position, partner).
    """
    n = len(w)
    if n - 1 > spec.profile.horizon:
        raise InsufficientProfileError(
            f"profile horizon {spec.profile.horizon} < window span {n - 1}"
        )
    forbidden = spec._forbidden_sorted
    distances = forbidden[: bisect_left(forbidden, n)]
    x = int(w.symbols[::-1] or "0", 2)
    counts = []
    pairs = []
    for j in distances:
        hits = x & (x >> j)
        if hits:
            counts.append((j, hits.bit_count()))
            while hits:
                low = hits & -hits
                k = w.origin + low.bit_length() - 1
                pairs.append((k, k + j, j))
                hits ^= low
    pairs.sort()
    pair_part = _coupling_sum(spec.decay_base, counts)
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
    """Certified minimum over all 2**length free-boundary configurations.

    Energy terms are nonnegative, so a prefix with a positive term has
    positive energy in all its completions.  A depth-first search prunes the
    child at site k when a new 1 lies a forbidden distance after a 1 (witness:
    the smallest such j, re-checked as coupling(j) > 0) or a new 0 completes
    a run of zero_run_len vacancies (re-checked as zero_run_penalty > 0).
    That child stands for 2**(length - k - 1) states, a leaf for one, and
    they must sum to 2**length.  The leaves, the zero set, must equal
    `enumerate_legal(length, length)` (run first: its horizon check and node
    budget also bound this search) and have exact `energy_open` total 0.
    """
    if not 1 <= length <= SEARCH_CAP:
        raise ValueError(
            f"refusing ground-state search at length {length} (cap {SEARCH_CAP}); "
            "use enumerate_legal for longer windows"
        )
    legal = enumerate_legal(length, length, spec.profile)
    # bits is the prefix, site 0 most significant: bit j - 1 is j sites before the next
    forbidden = spec._forbidden_sorted
    pair_mask = sum(1 << (j - 1) for j in forbidden[: bisect_left(forbidden, length)])
    run_len = spec.zero_run_len
    pruned = [0] * length  # children pruned at each site
    witnesses = set()  # smallest forbidden distance per pair pruning; 0: a run
    leaves = []
    stack = [(0, 0, 0)]  # (depth, trailing zeros, bits)
    while stack:
        depth, zero_run, bits = stack.pop()
        if depth == length:
            leaves.append(bits)
            continue
        hits = bits & pair_mask
        if hits:
            witnesses.add((hits & -hits).bit_length())
            pruned[depth] += 1
        else:
            stack.append((depth + 1, 0, bits << 1 | 1))
        if zero_run + 1 < run_len:
            stack.append((depth + 1, zero_run + 1, bits << 1))
        else:
            witnesses.add(0)
            pruned[depth] += 1
    for j in witnesses:
        if not (spec.coupling(j) if j else spec.zero_run_penalty) > 0:
            raise InternalConsistencyError(f"pruned on a zero term (witness {j})")
    total = len(leaves) + sum(c << (length - k - 1) for k, c in enumerate(pruned))
    if total != 1 << length:
        raise InternalConsistencyError(f"search covered {total} of 2**{length} states")
    if not leaves:
        raise InternalConsistencyError(f"no zero-energy state at length {length}")
    words = frozenset(Word(format(x, f"0{length}b")) for x in leaves)
    if words != legal:
        raise InternalConsistencyError("zero set differs from the locally legal words")
    nonzero = sorted(w.symbols for w in words if energy_open(w, spec).total != 0)
    if nonzero:
        raise InternalConsistencyError(f"minimizers with nonzero energy: {nonzero[:3]}")
    return GroundStateResult(Fraction(0), words, total)


@dataclass(frozen=True)
class PeriodicDensity:
    """Certified bounds on the energy per site of a periodic repetition."""

    lower_bound: Fraction
    value_estimate: Fraction
    #: distance at which the coupling tail was cut
    truncation: int


#: periodic_energy_density cuts the coupling tail where its bound per particle falls below this
TAIL_TOL = Fraction(1, 10**12)


@dataclass(frozen=True)
class _DensityPlan:
    """What the 2**p cells of period p share, as integers over one denominator.

    A cell with hits[r] = popcount(x & rot_r(x)) pairs per residue r, k 1's
    and `runs` penalized vacancy runs has lower bound
    (sum of hits[r] * weights[r] + runs * run_weight) / denominator and
    estimate that plus k * tail_weight / denominator.
    """

    truncation: int
    denominator: int
    #: (r, weight) for each residue r mod p with a forbidden j <= T, j = r mod p
    weights: tuple[tuple[int, int], ...]
    run_weight: int
    #: per 1: the coupling tail past T, less the n_p term when it is counted
    tail_weight: int


def _density_plan(spec: InteractionSpec, p: int) -> _DensityPlan:
    a, b = spec.decay_base.numerator, spec.decay_base.denominator
    # smallest T with lam**(T+1)/(1-lam) < TAIL_TOL, in integers:
    # a**(T+1) * tol_den < tol_num * b**T * (b-a)
    trunc, lhs, rhs = 0, a * TAIL_TOL.denominator, TAIL_TOL.numerator * (b - a)
    while lhs >= rhs:
        lhs, rhs, trunc = lhs * a, rhs * b, trunc + 1
    profile = ensure_horizon(spec.profile, trunc)
    weights = [0] * p
    for j in range(1, trunc + 1):
        if j in profile.forbidden:
            weights[j % p] += a**j * b ** (trunc - j)
    # every pair term is over b**top; the penalty and the tail's 1/(b-a) are cleared too
    top, n_term = trunc, 0
    if not weights[0]:  # no forbidden multiple of p up to T: count the first, n_p
        top = n_p = p * periodic_exclusion(p, profile)
        weights = [w * b ** (top - trunc) for w in weights]
        weights[0] = n_term = a**n_p
    pen_num, pen_den = spec.zero_run_penalty.numerator, spec.zero_run_penalty.denominator
    return _DensityPlan(
        truncation=trunc,
        denominator=p * pen_den * (b - a) * b**top,
        weights=tuple((r, w * pen_den * (b - a)) for r, w in enumerate(weights) if w),
        run_weight=pen_num * (b - a) * b**top,
        tail_weight=pen_den * (a ** (trunc + 1) * b ** (top - trunc) - (b - a) * n_term),
    )


def periodic_energy_density(period_word: Word, spec: InteractionSpec) -> PeriodicDensity:
    """Energy per site of the bi-infinite repetition of period_word.

    The coupling tail past the truncation distance T is dropped; every term
    is nonnegative, so the truncated sum is a certified lower bound, and
    adding the geometric tail bound per particle gives the estimate.  The
    cell is one integer x (bit k is site k); the pairs at distance j depend
    only on j mod p and number popcount(x & rot_j(x)).  With decay_base =
    a/b, the forbidden j <= T (read from `profile.forbidden`) sum to one
    integer weight per residue mod p, over b**T.  When no multiple of p is
    forbidden up to T, each of the cell's k 1's meets its copy at the first
    forbidden multiple n_p > T, so the lower bound adds k * lam**n_p / p and
    is positive for every nonzero cell; the estimate stays the truncated sum
    plus the tail bound.  T, the weights and the common denominator are
    built once per period and kept on the spec, by (TAIL_TOL, p).
    """
    p = len(period_word)
    if p < 1:
        raise ValueError("need a nonempty period word")
    key = (TAIL_TOL.numerator, TAIL_TOL.denominator, p)  # int keys: a Fraction's hash costs a pow
    plan = spec._density_plans.get(key)
    if plan is None:
        plan = spec._density_plans[key] = _density_plan(spec, p)
    x = int(period_word.symbols[::-1], 2)
    xx = x | x << p  # bits r .. r + p - 1 of xx are rot_r(x): site (i + r) mod p at bit i
    covered = 0
    for s in range(min(spec.zero_run_len, p)):  # rot_s depends on s mod p only
        covered |= xx >> s
    numerator = (p - (covered & (1 << p) - 1).bit_count()) * plan.run_weight
    for r, w in plan.weights:
        numerator += w * (x & xx >> r).bit_count()
    lower = Fraction(numerator, plan.denominator)
    estimate = Fraction(numerator + x.bit_count() * plan.tail_weight, plan.denominator)
    return PeriodicDensity(lower, estimate, plan.truncation)
