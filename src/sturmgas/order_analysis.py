"""Window-level order diagnostics: factor complexity, balance, homogeneity.

All three deciders certify properties of the finite window they are
given.  A window that stands for the infinite sequence is sized in advance
from gamma's continued fraction, and a size above SIZE_CAP fails loudly
instead of returning a silently wrong verdict.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import InconclusiveError, InsufficientProfileError, InternalConsistencyError
from .exact_angle import QI_ONE, QI_ZERO, QuadIrrational, RotationParams, recurrence_length
from .sturmian_gen import Word, generate


def _bits(w: Word) -> np.ndarray:
    return np.frombuffer(w.symbols.encode(), dtype=np.uint8) - ord("0")


# ---------------------------------------------------------------------------
# factor complexity


def factor_set(w: Word, n: int) -> set[Word]:
    """All distinct length-n contiguous subwords of w."""
    if n < 1:
        raise ValueError("factor length must be >= 1")
    if n > len(w):
        raise ValueError(f"factor length {n} exceeds window length {len(w)}")
    s = w.symbols
    return {Word(s[i : i + n], w.origin + i) for i in range(len(s) - n + 1)}


@dataclass(frozen=True)
class ComplexityReport:
    """Distinct-factor counts p[n] measured on one window that holds them all."""

    p: dict[int, int]
    window_len: int


#: the largest window or horizon sized from gamma, and the most multiples walked past one
SIZE_CAP = 1 << 16


def capped_size(size: int, what: str) -> int:
    """size, unless it passes SIZE_CAP: then InconclusiveError carrying it."""
    if size > SIZE_CAP:
        raise InconclusiveError(f"{what} {size} is above the cap {SIZE_CAP}", needed=size)
    return size


def factor_complexity(params: RotationParams, n_max: int) -> ComplexityReport:
    """Count distinct factors per length on one window of recurrence_length(gamma,
    n_max) sites: it holds all n_max + 1 factors of length n_max and, as their
    prefixes, every shorter factor."""
    win = capped_size(recurrence_length(params.gamma, n_max), f"factor window for n <= {n_max}")
    s = generate(params, 0, win - 1).symbols
    counts = {n: len({s[i : i + n] for i in range(win - n + 1)}) for n in range(1, n_max + 1)}
    return ComplexityReport(counts, win)


# ---------------------------------------------------------------------------
# balance


@dataclass(frozen=True)
class BalanceVerdict:
    balanced: bool
    #: two equal-length factors whose 1-counts differ by >= 2, if any
    witness: Optional[tuple[Word, Word]] = None

    def __bool__(self) -> bool:
        return self.balanced


def _hull(xs: list[int], ys: list[int], sign: int) -> list[tuple[int, int]]:
    """Upper (sign 1) or lower (sign -1) hull of points sorted by x, in one
    monotone-chain pass with integer cross products; collinear points drop."""
    hull: list[tuple[int, int]] = []
    for p in zip(xs, ys):
        while len(hull) > 1:
            (ox, oy), (ax, ay) = hull[-2], hull[-1]
            if sign * ((ax - ox) * (p[1] - oy) - (ay - oy) * (p[0] - ox)) < 0:
                break
            hull.pop()
        hull.append(p)
    return hull


def _fits_strip(bits: np.ndarray, prefix: np.ndarray) -> bool:
    """Is max_k(c_k - k*a) - min_k(c_k - k*a) < 1 for some slope a?

    The width is convex and piecewise linear in a, growing without bound,
    so its minimum sits at a breakpoint: an edge slope of the upper hull of
    the points (k, c_k), where the maximizer moves, or of the lower hull,
    where the minimizer moves.  An upper-hull vertex is an end point or a
    1 followed by a 0, a lower-hull vertex an end point or a 0 followed by
    a 1.  The slopes are walked in increasing order with one pointer per
    hull, and the width at a = dy/dx is compared as the integer
    max(y*dx - x*dy) - min(y*dx - x*dy) < dx.
    """
    n = len(bits)
    hulls = []
    for sign, corners in ((1, bits[:-1] > bits[1:]), (-1, bits[:-1] < bits[1:])):
        xs = [0, *(np.flatnonzero(corners) + 1).tolist(), n]
        hulls.append(_hull(xs, prefix[xs].tolist(), sign))
    upper, lower = hulls
    # as the slope grows, the maximizer walks the upper hull leftwards and
    # the minimizer walks the lower hull rightwards; each step takes the
    # smaller pending edge slope (dx, dy) and moves that hull's pointer
    j, i = len(upper) - 1, 0
    while j > 0 or i < len(lower) - 1:
        (ux, uy), (lx, ly) = upper[j], lower[i]
        up = (ux - upper[j - 1][0], uy - upper[j - 1][1]) if j > 0 else None
        down = (lower[i + 1][0] - lx, lower[i + 1][1] - ly) if i < len(lower) - 1 else None
        if down is None or (up is not None and up[1] * down[0] <= down[1] * up[0]):
            (dx, dy), j = up, j - 1
        else:
            (dx, dy), i = down, i + 1
        if (uy - ly) * dx - (ux - lx) * dy < dx:
            return True
    return False


def is_balanced(w: Word) -> BalanceVerdict:
    """Decide whether every two equal-length factors differ by at most one 1.

    A finite word is balanced iff it is a factor of a mechanical word
    (Lothaire, *Algebraic Combinatorics on Words*, ch. 2).  With c_k
    the number of 1's among the first k symbols, that holds iff some slope
    a gives max_k(c_k - k*a) - min_k(c_k - k*a) < 1.  Indeed, a factor at i
    of the mechanical word of slope a and intercept r has
    c_k = floor((i+k)a + r) - floor(ia + r) (or the same with ceilings), so
    c_k - k*a is a constant plus floor(x) - x in (-1, 0] (or ceil(x) - x in
    [0, 1)), and the width is below 1.  Conversely, if every c_k - k*a lies
    in (M - 1, M], every length-m factor count c_(i+m) - c_i lies in the
    open interval (ma - 1, ma + 1), which holds at most two adjacent
    integers.  `_fits_strip` decides whether such a slope exists, exactly.

    An unbalanced word gets a witness from a sliding-window scan per length:
    the lowest- and highest-count factors of the first offending length.
    """
    n = len(w)
    if n <= 1:
        return BalanceVerdict(True)
    bits = _bits(w)
    prefix = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(bits, out=prefix[1:])
    if _fits_strip(bits, prefix):
        return BalanceVerdict(True)
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
    raise InternalConsistencyError("no strip of width < 1 fits, yet every factor length balances")


# ---------------------------------------------------------------------------
# homogeneity


@dataclass(frozen=True)
class HomogeneityVerdict:
    homogeneous: bool
    #: inferred minimal span per rank: rank j -> m_j, gaps seen in {m_j, m_j+1}
    gap_map: Optional[dict[int, int]] = None
    #: offending rank plus the two particle pairs exhibiting spread >= 2
    witness: Optional[tuple[int, tuple[int, int], tuple[int, int]]] = None

    def __bool__(self) -> bool:
        return self.homogeneous


def _rank_floors(ones: np.ndarray) -> tuple[np.ndarray, int]:
    """Floor of the mean rank-j spacing for j = 1..k-1 of the sorted
    positions ones, and the first rank whose spacings leave {floor,
    floor + 1} (0 if none), decided from two moments per rank.

    Integers x all lie in {v, v + 1} iff sum (x - v)(x - v - 1) = 0: each
    term is a product of two consecutive integers, never negative, and zero
    just at x = v and x = v + 1.  Take v = floor(s1/n) for the n spacings
    with s1 = sum x = n*v + r and s2 = sum x^2; the sum is
    s2 - v*(s1 + r) - r, and when it is 0, v is the smallest spacing.  s1
    and s2 come from prefix sums of p_i and p_i^2 and one correlation for
    sum p_i*p_(i+j).  Every intermediate is below 2*k*(span + 1)^2, so the
    sums run in int64 while k*(span + 1)^2 < 2^62, on Python integers past it.
    """
    k = len(ones)
    p = ones - ones[0]
    if k * (int(p[-1]) + 1) ** 2 >= 1 << 62:
        p = p.astype(object)
    # rank j sums p_(i+j) - p_i over i < n = k - j; c[m - 1] sums the first m
    c1, c2 = p.cumsum(), (p * p).cumsum()
    n = np.arange(k - 1, 0, -1)
    s1 = c1[-1] - c1[:-1] - c1[-2::-1]
    s2 = c2[-1] - c2[:-1] + c2[-2::-1] - 2 * np.correlate(p, p, "full")[k:]
    v = s1 // n
    r = s1 - n * v
    bad = (s2 - v * (s1 + r) - r).nonzero()[0]
    return v, int(bad[0]) + 1 if len(bad) else 0


def is_most_homogeneous(w: Word) -> HomogeneityVerdict:
    """Check that rank-j particle spacings take at most two adjacent values.

    For each j, the distances between 1's with j-1 intermediate 1's must
    all lie in {m_j, m_j + 1}; `_rank_floors` decides every rank at once,
    and a refuting rank is rescanned for its two extreme pairs (by lattice
    position).  A window with fewer than two 1's has no spacing, so it is
    homogeneous with an empty gap map.
    """
    ones = _bits(w).nonzero()[0]
    if len(ones) < 2:
        return HomogeneityVerdict(True, {})
    floors, j = _rank_floors(ones)
    if not j:
        return HomogeneityVerdict(True, dict(enumerate(floors.tolist(), start=1)))
    diffs = ones[j:] - ones[:-j]
    pairs = (
        (w.origin + int(ones[x]), w.origin + int(ones[x + j]))
        for x in (np.argmin(diffs), np.argmax(diffs))
    )
    return HomogeneityVerdict(False, None, (j, *pairs))


# ---------------------------------------------------------------------------
# distance profile


def _check_steps(d) -> None:
    """Raise unless every step of the sequence d is d[0] or d[0] + 1."""
    if len(d) < 2:
        return
    d = np.asarray(d)
    # a step minus d[0] must be 0 or 1, the integers whose >> 1 is 0
    bad = ((d[1:] - d[:-1] - d[0]) >> 1).nonzero()[0]
    if len(bad):
        prev, nxt = d[bad[0]], d[bad[0] + 1]
        raise InternalConsistencyError(
            f"spacing step {nxt - prev} between {prev} and {nxt} is not {d[0]} or {d[0] + 1}"
        )


@dataclass(frozen=True)
class DistanceProfile:
    """The increasing spacing sequence d with its forbidden distances.

    Complete for distances <= horizon: allowed is the union of {d_j, d_j+1}
    clipped to [1, horizon], forbidden its complement there.
    """

    d: tuple[int, ...]
    horizon: int
    forbidden: frozenset[int]
    #: rotation that produced the profile; lets horizon-growing operations
    #: recompute it (absent for hand-built or deserialized profiles)
    params: Optional[RotationParams] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")

    @cached_property
    def allowed(self) -> frozenset[int]:
        return frozenset(range(1, self.horizon + 1)) - self.forbidden

    @property
    def d1(self) -> int:
        if not self.d:
            raise InsufficientProfileError("empty profile has no first distance")
        return self.d[0]

    @cached_property
    def forbidden_bits(self) -> int:
        """The forbidden set as one integer: bit j is set iff j is forbidden."""
        mask = np.zeros(self.horizon + 1, dtype=bool)
        mask[[j for j in self.forbidden if 0 <= j <= self.horizon]] = True
        return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")

    def check_increments(self) -> None:
        """Increments of d must be d1 or d1 + 1; anything else is corrupt."""
        _check_steps(self.d)

    def to_json(self) -> str:
        return json.dumps(
            {
                "d": list(self.d),
                "allowed": sorted(self.allowed),
                "forbidden": sorted(self.forbidden),
                "horizon": self.horizon,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "DistanceProfile":
        obj = json.loads(text)
        lists = ("d", "allowed", "forbidden")
        if not (
            isinstance(obj, dict)
            and type(obj.get("horizon")) is int
            and all(isinstance(obj.get(k), list) for k in lists)
            and all(type(x) is int for k in lists for x in obj[k])
        ):
            raise ValueError("malformed profile: need integer horizon, d, allowed, forbidden")
        d, allowed, forbidden = (obj[k] for k in lists)
        # together the two sets list 1..horizon, each once; the length test
        # comes first, so a huge horizon in a small file costs nothing
        listed = sorted([*set(allowed), *set(forbidden)])
        if len(listed) != obj["horizon"] or listed != list(range(1, len(listed) + 1)):
            raise ValueError("allowed and forbidden must partition [1, horizon]")
        return cls(tuple(d), obj["horizon"], frozenset(forbidden))


def ensure_horizon(profile: DistanceProfile, needed: int) -> DistanceProfile:
    """Return a profile covering distances up to needed, regrowing if possible."""
    if profile.horizon >= needed:
        return profile
    if profile.params is None:
        raise InsufficientProfileError(
            f"profile horizon {profile.horizon} < {needed} and no rotation "
            "is attached to regrow it"
        )
    return distance_profile(profile.params, needed)


def distance_profile(params: RotationParams, horizon: int) -> DistanceProfile:
    """Read the spacing sequence off the phase-0 coding of params' angle.

    The phase-0 word starts 0,1 and the j-th subsequent 1 at position p
    contributes d_j = p - 1; the profile depends on the angle only.
    """
    if horizon < 2:
        raise ValueError("horizon must be >= 2")
    base = RotationParams(params.gamma, QI_ZERO)
    # site 0 of the window is position 1, so a 1 at site s is at distance s
    ones = _bits(generate(base, 1, horizon + 1)).nonzero()[0]
    if not len(ones) or ones[0] != 0:
        raise InternalConsistencyError("phase-0 coding must carry a 1 at position 1")
    d = ones[1:]
    if len(d) and d[0] < 2:
        raise InternalConsistencyError(f"first distance {d[0]} < 2")
    # forbidden: the distances in [1, horizon] that are no d_j or d_j + 1
    allowed = np.zeros(horizon + 2, dtype=bool)
    allowed[0] = allowed[d] = allowed[d + 1] = True
    forbidden = frozenset((~allowed[:-1]).nonzero()[0].tolist())
    _check_steps(d)
    return DistanceProfile(tuple(d.tolist()), horizon, forbidden, params=base)


def first_distance(gamma: QuadIrrational) -> int:
    """d1 = floor(1/(1 - gamma)), the smallest distance between two 1's."""
    return (QI_ONE - gamma).reciprocal().floor()


def profile_for(params: RotationParams, span: int) -> DistanceProfile:
    """distance_profile at horizon max(2, span, d1), so that it holds the zero-run
    rule; above SIZE_CAP, refused before it is built."""
    horizon = max(2, span, first_distance(params.gamma))
    return distance_profile(params, capped_size(horizon, "profile horizon"))


# ---------------------------------------------------------------------------
# profile structure


@dataclass(frozen=True)
class ProfileStructure:
    """Block/singleton classification of the d-sequence."""

    #: maximal runs of d-values at consecutive difference exactly 2
    blocks: tuple[tuple[int, ...], ...]
    #: d value -> "singleton" | "block"
    classification: dict[int, str]


def profile_structure(profile: DistanceProfile) -> ProfileStructure:
    """Group d-values into difference-2 blocks and check the profile's shape.

    The increments of d are d1 or d1 + 1 (`check_increments`), so blocks of
    size > 1 occur only when d1 = 2.  `forbidden` must be exactly the
    complement of the union of {d_j, d_j + 1} in [1, horizon], the claim
    `distance_profile` builds it on; a hand-built or loaded profile that
    breaks it raises.
    """
    d, horizon = profile.d, profile.horizon
    profile.check_increments()
    # the complement as a mask, compared bit for bit; the count catches
    # forbidden values outside [0, horizon], which forbidden_bits drops
    dv = np.asarray(d, dtype=np.int64)
    dv = dv[(0 <= dv) & (dv <= horizon)]
    mask = np.ones(horizon + 2, dtype=bool)
    mask[0] = mask[dv] = mask[dv + 1] = False
    bits = int.from_bytes(np.packbits(mask[:-1], bitorder="little").tobytes(), "little")
    if profile.forbidden_bits != bits or bits.bit_count() != len(profile.forbidden):
        expected = frozenset(range(1, horizon + 1)).difference(d, (v + 1 for v in d))
        wrong = sorted(profile.forbidden ^ expected)
        raise InternalConsistencyError(
            f"forbidden differs from the complement of {{d_j, d_j + 1}} at {wrong[:5]}"
        )
    blocks: list[list[int]] = [[d[0]]] if d else []
    for prev, nxt in zip(d, d[1:]):
        if nxt - prev == 2:
            blocks[-1].append(nxt)
        else:
            blocks.append([nxt])
    classification = {
        v: ("singleton" if len(blk) == 1 else "block") for blk in blocks for v in blk
    }
    return ProfileStructure(tuple(tuple(b) for b in blocks), classification)
