"""Local legality under the forbidden-pattern set, and its consequences.

A word is locally legal when it has no run of d1+1 zeros and no pair of
1's at a forbidden distance.  Enumeration with these two rejection rules,
certified at one enclosing length, reproduces exactly the factors of the
rotation coding; periodic contents always trip a forbidden multiple.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import order_analysis
from .discrepancy import component_intervals
from .errors import InconclusiveError, InsufficientProfileError, InternalConsistencyError
from .exact_angle import RotationParams, _floor_surd, _sign_surd
from .order_analysis import DistanceProfile, ensure_horizon
from .sturmian_gen import Word


@dataclass(frozen=True)
class Violation:
    kind: str  # "zero_run" | "forbidden_pair"
    position: int  # lattice index where the offending pattern starts
    distance: Optional[int] = None  # for forbidden_pair


@dataclass(frozen=True)
class LegalityVerdict:
    legal: bool
    violation: Optional[Violation] = None

    def __bool__(self) -> bool:
        return self.legal


def is_locally_legal(w: Word, profile: DistanceProfile) -> LegalityVerdict:
    """Check w against the zero-run bound and the forbidden distances.

    The profile must classify every in-window distance, i.e. its horizon
    must reach |w| - 1.  The reported violation is the position-first one.
    """
    if len(w) - 1 > profile.horizon:
        raise InsufficientProfileError(
            f"profile horizon {profile.horizon} < window span {len(w) - 1}"
        )
    # an empty d puts d1 past the horizon, so no run in the window is too long
    zr_pos = w.symbols.find("0" * (profile.d[0] + 1)) if profile.d else -1
    end = len(w) if zr_pos == -1 else zr_pos
    # bit k of word_bits is site k, so (word_bits >> a) & forbidden_bits holds
    # the forbidden distances from a to later 1's; the lowest is the first pair
    word_bits = int(w.symbols[::-1] or "0", 2)
    for a in (k for k, ch in enumerate(w.symbols[:end]) if ch == "1"):
        hits = (word_bits >> a) & profile.forbidden_bits
        if hits:
            distance = (hits & -hits).bit_length() - 1
            return LegalityVerdict(
                False, Violation("forbidden_pair", w.origin + a, distance)
            )
    if zr_pos == -1:
        return LegalityVerdict(True)
    return LegalityVerdict(False, Violation("zero_run", w.origin + zr_pos))


#: the most search nodes enumerate_legal visits before giving up
ENUMERATION_BUDGET = 10_000_000


def enumerate_legal(n: int, big_m: int, profile: DistanceProfile) -> set[Word]:
    """Length-n words appearing centrally in some legal word of length big_m.

    Depth-first extension, 0-branch first, with rejection at the first
    violation.  Bit k of ``bits`` is site k, and bit s of ``ahead[k]`` is set
    iff k - s is forbidden (the forbidden set mirrored), so a 1 at site k is
    admitted iff ``bits & ahead[k] == 0``; a 0 leaves ``bits`` as it is.  The
    0-child is the next node in preorder, so it is walked in place and only
    1-children wait on the stack.  Once the central word is fixed, a node
    whose central word is already found is cut, when it is made or popped:
    every leaf below it reads that word, so the search stays exact.  Every
    node visited counts against ENUMERATION_BUDGET, a popped node whether or
    not it is cut; once past it the search ends its walk and raises with the
    partial result rather than returning it silently.
    """
    if n < 1 or big_m < n:
        raise ValueError("need 1 <= n <= big_m")
    if profile.horizon < big_m - 1:
        raise InsufficientProfileError(
            f"profile horizon {profile.horizon} < {big_m - 1}"
        )
    # an empty d puts d1 at horizon + 1 >= big_m or beyond: no zero run binds
    d1 = profile.d[0] if profile.d else big_m
    # bit big_m - 1 - j of mirror is set iff j in [1, big_m) is forbidden
    mirror = int(format(profile.forbidden_bits & ((1 << big_m) - 2), f"0{big_m}b")[::-1], 2)
    ahead = [mirror >> (big_m - 1 - k) for k in range(big_m)]
    pad = (big_m - n) // 2
    # the children of a node at depth last fix the central word
    last, central = pad + n - 1, (1 << n) - 1
    found: set[int] = set()  # central words, bit i = site pad + i
    visited, budget = 0, ENUMERATION_BUDGET
    stack = [(0, 0, 0)]  # (depth, zero_run, bits)
    while stack and visited <= budget:
        depth, zero_run, bits = stack.pop()
        start = depth
        if depth <= last or bits >> pad & central not in found:  # else found since pushed
            while depth < big_m:
                if not bits & ahead[depth] and (
                    depth != last or (bits | 1 << depth) >> pad & central not in found
                ):
                    stack.append((depth + 1, 0, bits | 1 << depth))
                if zero_run >= d1 or depth == last and bits >> pad & central in found:
                    break
                depth, zero_run = depth + 1, zero_run + 1
            else:
                found.add(bits >> pad & central)
        visited += depth - start + 1
    words = {Word(format(c, f"0{n}b")[::-1]) for c in found}
    if visited > budget:
        raise InconclusiveError(
            f"search budget {budget} exceeded at length {big_m}",
            partial=words,
            length_reached=big_m,
        )
    return words


#: the largest enclosing length enumerate_legal_stable tries before giving up
ENCLOSING_CAP = 4096


def enumerate_legal_stable(
    n: int, profile: DistanceProfile, rotation: Optional[RotationParams] = None
) -> tuple[set[Word], int]:
    """Certify that the legal central words of length n are the arc labels.

    Returns (legal set, certifying enclosing length M).  The arc labels of
    ``rotation`` (default: the profile's) are the length-n factors; each sits
    centrally in a legal coding window, so they lie in ``enumerate_legal(n, M)``
    for every M, and that set never grows with M: equality at one M holds at
    every larger M.  M runs over n, n + 2, n + 4, n + 8, ... up to
    ENCLOSING_CAP.  An attached profile regrows to M - 1 as M grows; a
    detached one must already reach it.
    """
    rotation = profile.params if rotation is None else rotation
    if rotation is None:
        raise InsufficientProfileError("no rotation is given or attached to label the arcs")
    m, step, labels = n, 2, None
    while m <= ENCLOSING_CAP:
        legal = enumerate_legal(n, m, ensure_horizon(profile, m - 1))
        labels = labels or set(component_intervals(rotation, n).words)
        missing = sorted(w.symbols for w in labels - legal)
        if missing:
            raise InternalConsistencyError(
                f"arc label {missing[0]} is not legal at enclosing length {m}"
            )
        if legal == labels:
            return legal, m
        m, step = n + step, 2 * step
    raise InconclusiveError(
        f"legal words of length {n} not certified below enclosing-length cap {ENCLOSING_CAP}",
        length_reached=m,
    )


def periodic_exclusion(p: int, profile: DistanceProfile) -> int:
    """Smallest i >= 1 with i*p a forbidden distance.

    Multiples within the horizon are read off ``profile.forbidden``; past
    it, n is forbidden iff the phase-0 coding reads 00 at n and n + 1.  With
    X = frac(n*gamma), stepped by frac(p*gamma) per multiple, the half-open
    rule codes n as 0 iff X < gamma and n + 1 as 0 iff X + gamma >= 1 (below
    1, X + gamma >= gamma; past 1, X + gamma - 1 < gamma; X + gamma = 1 would
    make (n + 1)*gamma an integer).  Forbidden distances belong to the angle,
    so only ``profile.params.gamma`` is read, never the phase.  After SIZE_CAP
    multiples past the horizon it raises, claiming nothing about later ones.
    """
    if p < 1:
        raise ValueError("period must be >= 1")
    for n in range(p, profile.horizon + 1, p):
        if n in profile.forbidden:
            return n // p
    if profile.params is None:
        raise InsufficientProfileError(f"no rotation attached past horizon {profile.horizon}")
    g = profile.params.gamma
    ga, gb, c, d = g.a, g.b, g.c, g.d
    # X = (a + b*sqrt(d))/c at n, the first multiple past the horizon; its step (sa, sb)
    n = (profile.horizon // p + 1) * p
    (a, b), (sa, sb) = ((m * ga - _floor_surd(m * ga, m * gb, c, d) * c, m * gb) for m in (n, p))
    for _ in range(order_analysis.SIZE_CAP):
        if _sign_surd(a - ga, b - gb, d) < 0 and _sign_surd(a + ga - c, b + gb, d) >= 0:
            return n // p
        a, b, n = a + sa, b + sb, n + p
        if _sign_surd(a - c, b, d) >= 0:
            a -= c
    raise InconclusiveError(
        f"no forbidden multiple of {p} among {order_analysis.SIZE_CAP} past the horizon",
        period=p, horizon_reached=n - p,
    )


@dataclass(frozen=True)
class FactVerdict:
    holds: bool
    #: one entry per counterexample found; empty when the check holds
    witnesses: tuple[tuple, ...] = ()

    def __bool__(self) -> bool:
        return self.holds


def check_enclosed_ones(w: Word, profile: DistanceProfile) -> FactVerdict:
    """Pairs of 1's at a rank-r allowed distance must enclose exactly r-1 1's.

    Witnesses are (position_pair, distance, expected_enclosed, actual).
    Requires a locally legal word; on an illegal word the question is not
    well-posed and a ValueError is raised.
    """
    verdict = is_locally_legal(w, profile)
    if not verdict.legal:
        raise ValueError(f"word is not locally legal: {verdict.violation}")
    # d values are >= 2 apart, so d_r and d_r + 1 never collide across ranks.
    rank = {x: r for r, dv in enumerate(profile.d, start=1) for x in (dv, dv + 1)}
    # the rank of every in-window distance (the horizon covers them), 0 for none
    near = [x for x in rank if 0 < x < len(w)]
    table = np.zeros(len(w), dtype=np.int64)
    table[near] = [rank[x] for x in near]
    ones = (np.frombuffer(w.symbols.encode(), dtype=np.uint8) == ord("1")).nonzero()[0]
    # the rank-j pairs (i, i + j) enclose j - 1 ones
    found = []
    for j in range(1, len(ones)):
        r = table[ones[j:] - ones[:-j]]
        i = (r != j).nonzero()[0]
        i = i[r[i] != 0]
        if len(i):
            found += zip(i.tolist(), (i + j).tolist(), r[i].tolist())
    at = ones.tolist()
    witnesses = tuple(
        ((w.origin + at[i], w.origin + at[k]), at[k] - at[i], r - 1, k - i - 1)
        for i, k, r in sorted(found)  # by first 1, then second, as a pair loop meets them
    )
    return FactVerdict(not witnesses, witnesses)


def check_follower_ones(w: Word, profile: DistanceProfile) -> FactVerdict:
    """Each 1 must see a 1 at distance d_r or d_r + 1 for every in-window rank.

    Ranks whose d_r + 1 reaches past the window end are skipped, not
    failed.  Witnesses are (position, rank, d_r).  The property always
    holds for legal words, so witnesses point at corrupted input; no
    legality guard is applied, which lets the check localize the damage.
    """
    is_one = np.frombuffer(w.symbols.encode(), dtype=np.uint8) == ord("1")
    either = is_one[:-1] | is_one[1:]  # site s or s + 1 holds a 1
    ones = is_one.nonzero()[0]
    d = np.asarray(profile.d, dtype=np.int64)
    # a 1 at a stops at the first rank whose d_r + 1 reaches the end, so rank r
    # is checked for the 1's before len(w) - 1 - max(d_1, ..., d_r)
    counts = ones.searchsorted(len(w) - 1 - np.maximum.accumulate(d)).tolist()
    found = []
    for r, (dv, k) in enumerate(zip(d.tolist(), counts), start=1):
        if not k:
            break
        a = ones[:k]
        found += ((w.origin + x, r, dv) for x in a[~either[a + dv]].tolist())
    witnesses = tuple(sorted(found))  # by position, then rank, as a loop over the 1's meets them
    return FactVerdict(not witnesses, witnesses)
