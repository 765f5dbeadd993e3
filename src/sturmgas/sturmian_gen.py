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
from math import gcd

from .errors import HorizonExceededError
from .exact_angle import QuadIrrational, RotationParams, _sign_surd, convergents, rotate


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
        return [self.origin + k for k, ch in enumerate(self.symbols) if ch == "1"]

    def count(self, symbol: str) -> int:
        return self.symbols.count(symbol)


def symbol_at(params: RotationParams, i: int) -> int:
    """Coding symbol at index i: 0 iff frac(psi + i*gamma) in [0, gamma)."""
    point = rotate(params.psi, params.gamma, i)
    return 0 if point < params.gamma else 1


def generate(params: RotationParams, i_from: int, i_to: int) -> Word:
    """Word of symbols for indices i_from..i_to inclusive, origin i_from."""
    if i_from > i_to:
        raise ValueError(f"empty window: {i_from} > {i_to}")
    g = params.gamma
    d = g.d
    start = rotate(params.psi, g, i_from) if i_from else params.psi  # psi is in [0, 1)
    # Walk the orbit with raw integer coefficients over one fixed
    # denominator; normalizing a QuadIrrational per step would dominate.
    c = g.c * start.c // gcd(g.c, start.c)
    ga, gb = g.a * (c // g.c), g.b * (c // g.c)
    pa, pb = start.a * (c // start.c), start.b * (c // start.c)
    out = []
    for _ in range(i_to - i_from + 1):
        out.append("0" if _sign_surd(pa - ga, pb - gb, d) < 0 else "1")
        pa += ga
        pb += gb
        if _sign_surd(pa - c, pb, d) >= 0:  # wrapped past 1
            pa -= c
    return Word("".join(out), i_from)


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
        """Best approximant with q >= min_q, err_bound = 1/(q * q_next)."""
        convs = convergents(gamma, 64)
        for (p, q), (_, q_next) in zip(convs, convs[1:]):
            if q >= min_q and Fraction(1, 2) < Fraction(p, q) < 1:
                return cls(p, q, Fraction(1, q * q_next))
        raise ValueError(f"no usable convergent with q >= {min_q}")


def _circle_distance(x: Fraction, y: Fraction) -> Fraction:
    d = abs(x - y) % 1
    return min(d, 1 - d)


def generate_approx(
    approx: ApproxRotation, psi_num: Fraction, i_from: int, i_to: int
) -> Word:
    """Window coded through the rational approximant, margin-certified.

    The point's offset from the zero boundary drifts by at most
    |i| * err_bound and its offset from the upper boundary by at most
    |i - 1| * err_bound (the boundary itself shifts with the angle), so
    clearing both strictly pins the true point to the same side of each.
    A landing exactly on 0 at index 0 is the one certifiable boundary hit:
    0 is inside the lower arc for every angle.
    """
    if i_from > i_to:
        raise ValueError(f"empty window: {i_from} > {i_to}")
    psi_num = Fraction(psi_num) % 1
    gam = approx.value
    out = []
    for i in range(i_from, i_to + 1):
        point = (psi_num + i * gam) % 1
        if point == 0 and i == 0:
            out.append("0")
            continue
        margin_zero = _circle_distance(point, Fraction(0))
        margin_gam = _circle_distance(point, gam)
        if margin_zero <= abs(i) * approx.err_bound or margin_gam <= abs(
            i - 1
        ) * approx.err_bound:
            raise HorizonExceededError(
                f"boundary margin insufficient at index {i}; "
                "shrink the window or use a finer approximant",
                first_bad_index=i,
            )
        out.append("0" if point < gam else "1")
    return Word("".join(out), i_from)
