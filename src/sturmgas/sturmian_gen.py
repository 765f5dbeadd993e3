"""Generate rotation-coded binary words over arbitrary index windows.

The coding rule is half-open and total: index i gets symbol 0 when
frac(psi + i*gamma) lies in [0, gamma), else 1.  A landing exactly on 0 is
therefore coded 0 and a landing exactly on gamma is coded 1; those are the
only boundary landings possible and they occur at most once each
(see RotationParams.endpoint_hits).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import pairwise
from math import gcd, lcm

import numpy as np

from .errors import HorizonExceededError
from .exact_angle import QuadIrrational, RotationParams, _expansion, _floor_surd, _sign_surd, rotate

#: maps generate's 0/1 bytes to the digits "0"/"1"
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


@dataclass(frozen=True)
class Word:
    """A finite {0,1} word anchored at a lattice index.

    Equality and hashing use the symbols only; the origin is positional
    metadata (two windows reading the same letters are the same word).
    """

    symbols: str
    origin: int = field(default=0, compare=False)

    def __post_init__(self):
        if self.symbols.strip("01") != "":
            raise ValueError("alphabet is exactly {0, 1}")

    def __len__(self) -> int:
        return len(self.symbols)

    def __str__(self) -> str:
        return self.symbols

    def at(self, i: int) -> int:
        """Symbol at lattice index i."""
        return int(self.symbols[i - self.origin])

    def bits(self) -> tuple[int, ...]:
        return tuple(int(ch) for ch in self.symbols)

    def one_positions(self) -> list[int]:
        """Lattice indices carrying symbol 1."""
        ones = np.flatnonzero(np.frombuffer(self.symbols.encode(), dtype=np.uint8) == ord("1"))
        return [self.origin + k for k in ones.tolist()]  # exact for any origin

    def count(self, symbol: str) -> int:
        return self.symbols.count(symbol)


def symbol_at(params: RotationParams, i: int) -> int:
    """Coding symbol at index i: 0 iff frac(psi + i*gamma) in [0, gamma)."""
    point = rotate(params.psi, params.gamma, i)
    return 0 if point < params.gamma else 1


def generate(params: RotationParams, i_from: int, i_to: int) -> Word:
    """Word of symbols for indices i_from..i_to inclusive, origin i_from.

    With x the exact point of index i_from, G = floor(gamma * 2**64) and
    P_t = (floor(x * 2**64) + t*G) mod 2**64, both floors err by less than
    1, so offset t's scaled point is P_t + e_t (mod 2**64), e_t in [0, t + 1).
    With the margin n + 1 of an n-symbol window and no wrap past 2**64 in
    P_t + n + 1, symbol 0 is certain when P_t + n + 1 <= G and symbol 1 when
    P_t > G.  Every other offset (at most two exact boundary landings, and
    points within (n + 1) * 2**-64 of 0 or gamma) is decided exactly: its
    wrap count by an integer floor, its side of gamma by the surd sign.
    """
    if i_from > i_to:
        raise ValueError(f"empty window: {i_from} > {i_to}")
    g, psi = params.gamma, params.psi
    d = g.d
    n = i_to - i_from + 1
    # psi + (i_from + t)*gamma = (a + t*ga + (b + t*gb)*sqrt(d))/c exactly
    c = g.c * psi.c // gcd(g.c, psi.c)
    ga, gb = g.a * (c // g.c), g.b * (c // g.c)
    a, b = psi.a * (c // psi.c) + i_from * ga, psi.b * (c // psi.c) + i_from * gb
    G = np.uint64(_floor_surd(ga, gb, c, d, 64))
    p = np.arange(n, dtype=np.uint64)
    p *= G
    p += np.uint64(_floor_surd(a, b, c, d, 64) % 2**64)
    out = p > G
    p += n + 1
    unsure = p > G
    unsure ^= out
    unsure |= p <= n  # P_t + n + 1 wrapped past 2**64
    for t in unsure.nonzero()[0].tolist():
        at, bt = a + t * ga, b + t * gb
        at -= _floor_surd(at, bt, c, d) * c  # wrap into [0, 1)
        out[t] = _sign_surd(at - ga, bt - gb, d) >= 0
    return Word(out.tobytes().translate(_DIGITS).decode(), i_from)


def fibonacci_substitution(n: int) -> Word:
    """n-th iterate of 0 -> 01, 1 -> 0 applied to "0", anchored at index 1."""
    if n < 1:
        raise ValueError("need n >= 1")
    w = "0"
    for _ in range(n):
        w = "".join("01" if ch == "0" else "0" for ch in w)
    return Word(w, 1)


@dataclass(frozen=True)
class ApproxRotation:
    """A reduced rational stand-in p/q for gamma with a certified error bound.

    err_bound is a strict rational upper bound on |gamma - p/q|; it is what
    makes windows generated through the approximant certifiably correct.
    """

    p: int
    q: int
    err_bound: Fraction

    def __post_init__(self):
        if self.q <= 0 or gcd(self.p, self.q) != 1:
            raise ValueError("p/q must be in lowest terms with q > 0")
        if not Fraction(1, 2) < Fraction(self.p, self.q) < 1:
            raise ValueError("p/q must lie strictly in (1/2, 1)")
        if self.err_bound <= 0:
            raise ValueError("err_bound must be positive")

    @property
    def value(self) -> Fraction:
        return Fraction(self.p, self.q)

    @classmethod
    def from_convergents(cls, gamma: QuadIrrational, min_q: int = 2) -> "ApproxRotation":
        """Best approximant with q >= min_q, err_bound = 1/(q * q_next).  Past
        the first three, every convergent of a gamma in (1/2, 1) lies strictly
        inside, so the lazy walk ends; an angle outside is refused first."""
        if Fraction(1, 2) < gamma < 1:
            for (_, p, q), (_, _, q_next) in pairwise(_expansion(gamma)):
                if q >= min_q and Fraction(1, 2) < Fraction(p, q) < 1:
                    return cls(p, q, Fraction(1, q * q_next))
        raise ValueError(f"no usable convergent with q >= {min_q}")


def generate_approx(
    approx: ApproxRotation, psi_num: Fraction, i_from: int, i_to: int
) -> Word:
    """Window coded through the rational approximant, margin-certified.

    The point's offset from the zero boundary drifts by at most
    |i| * err_bound and its offset from the upper boundary by at most
    |i - 1| * err_bound (the boundary itself shifts with the angle), so
    clearing both strictly pins the true point to the same side of each.
    A landing exactly on 0 at index 0 is the one certifiable boundary hit:
    0 is inside the lower arc for every angle.  Points are integer
    numerators over one common denominator.
    """
    if i_from > i_to:
        raise ValueError(f"empty window: {i_from} > {i_to}")
    psi_num = Fraction(psi_num) % 1
    den = lcm(psi_num.denominator, approx.q)
    gam = approx.p * (den // approx.q)
    x = (psi_num.numerator * (den // psi_num.denominator) + i_from * gam) % den
    # a margin m/den is at most |i| * err_bound iff m * err_den <= |i| * err_num
    err_num = approx.err_bound.numerator * den
    err_den = approx.err_bound.denominator
    out = []
    for i in range(i_from, i_to + 1):
        if x or i:  # a landing on 0 at index 0 needs no margin
            to_zero = min(x, den - x)
            to_gam = min((x - gam) % den, (gam - x) % den)
            if to_zero * err_den <= abs(i) * err_num or to_gam * err_den <= abs(i - 1) * err_num:
                raise HorizonExceededError(
                    f"boundary margin insufficient at index {i}; "
                    "shrink the window or use a finer approximant",
                    first_bad_index=i,
                )
        out.append("0" if x < gam else "1")
        x += gam
        if x >= den:
            x -= den
    return Word("".join(out), i_from)
