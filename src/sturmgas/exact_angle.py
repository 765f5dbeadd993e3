"""Exact arithmetic for circle positions of the form (a + b*sqrt(d))/c.

Every coding decision in this package reduces to the sign of such a number,
so comparisons are done with integer case analysis and squaring, never with
floating point.  The circle is normalized to circumference 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, total_ordering
from itertools import islice, pairwise
from math import gcd, isqrt
from typing import Union

from .errors import FieldMismatchError, InvalidRotationError

Scalar = Union[int, Fraction]

#: largest radicand accepted; the square-free split trial-divides up to its
#: square root, so this bounds the work per arithmetic result
MAX_RADICAND = 10**12


@lru_cache(maxsize=64)
def _square_free_split(d: int) -> tuple[int, int]:
    """Return (s, d') with d = s*s*d' and d' square-free."""
    if d > MAX_RADICAND:
        raise ValueError(f"radicand {d} above the supported limit {MAX_RADICAND}")
    s = 1
    p = 2
    while p * p <= d:
        pp = p * p
        while d % pp == 0:
            d //= pp
            s *= p
        p += 1
    return s, d


def _sign_surd(a: int, b: int, d: int) -> int:
    """Exact sign of a + b*sqrt(d) for integers, d >= 0."""
    if b == 0 or d == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return (b > 0) - (b < 0)
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    # Opposite signs: compare a*a against b*b*d, sign decided by which
    # side dominates.  Squaring is safe only after this case split.
    t = a * a - b * b * d
    if a > 0:  # b < 0
        return (t > 0) - (t < 0)
    return (t < 0) - (t > 0)  # a < 0, b > 0


def _floor_surd(a: int, b: int, c: int, d: int, shift: int = 0) -> int:
    """Exact floor of (a + b*sqrt(d))/c * 2**shift, for c > 0 and, if b != 0,
    d not a square: b*sqrt(d)*2**shift then lies strictly inside (f, f + 1) or
    (-f - 1, -f) for f below, and a part inside (0, 1) never moves the floor."""
    if b == 0:
        return (a << shift) // c
    f = isqrt(b * b * d << 2 * shift)
    return ((a << shift) + (f if b > 0 else -f - 1)) // c


@total_ordering
@dataclass(frozen=True)
class QuadIrrational:
    """Canonical (a + b*sqrt(d))/c with c > 0, gcd(a,b,c) = 1, d square-free.

    Construct through :func:`qi_make` (or the classmethods); the raw
    constructor insists on already-canonical fields.
    """

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError(f"denominator must be positive, got {self.c}")
        if self.d < 0:
            raise ValueError(f"negative radicand {self.d} unsupported")
        if self.b == 0 and self.d != 0:
            raise ValueError("rational value must carry d = 0")
        if self.b != 0:
            _, sf = _square_free_split(self.d)
            if sf != self.d or self.d < 2:
                raise ValueError(f"radicand {self.d} not square-free > 1")
        if gcd(gcd(abs(self.a), abs(self.b)), self.c) != 1:
            raise ValueError("fields not reduced; use qi_make")

    # --- constructors ---

    @classmethod
    def from_int(cls, n: int) -> "QuadIrrational":
        return qi_make(n, 0, 1, 0)

    @classmethod
    def from_fraction(cls, fr: Scalar) -> "QuadIrrational":
        fr = Fraction(fr)
        return qi_make(fr.numerator, 0, fr.denominator, 0)

    # --- predicates ---

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def compatible_with(self, other: "QuadIrrational") -> bool:
        return self.b == 0 or other.b == 0 or self.d == other.d

    def _common_d(self, other: "QuadIrrational") -> int:
        if not self.compatible_with(other):
            raise FieldMismatchError(
                f"cannot combine sqrt({self.d}) with sqrt({other.d})"
            )
        return self.d if self.b != 0 else other.d

    # --- arithmetic ---

    def __add__(self, other) -> "QuadIrrational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = self._common_d(other)
        return qi_make(
            self.a * other.c + other.a * self.c,
            self.b * other.c + other.b * self.c,
            self.c * other.c,
            d,
        )

    __radd__ = __add__

    def __sub__(self, other) -> "QuadIrrational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "QuadIrrational":
        return (-self) + other

    def __neg__(self) -> "QuadIrrational":
        return qi_make(-self.a, -self.b, self.c, self.d)

    def __mul__(self, other) -> "QuadIrrational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = self._common_d(other)
        return qi_make(
            self.a * other.a + self.b * other.b * d,
            self.a * other.b + self.b * other.a,
            self.c * other.c,
            d,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "QuadIrrational":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.reciprocal()

    def reciprocal(self) -> "QuadIrrational":
        """1/x, exact; stays in the same field."""
        norm = self.a * self.a - self.b * self.b * self.d
        if norm == 0:
            raise ZeroDivisionError("reciprocal of zero")
        return qi_make(self.c * self.a, -self.c * self.b, norm, self.d)

    # --- ordering ---

    def sign(self) -> int:
        return _sign_surd(self.a, self.b, self.d)

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # Canonical form makes field equality value equality within one
        # field; across fields equal values are both rational.
        return (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)

    def __lt__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).sign() < 0

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d))

    # --- integer part ---

    def floor(self) -> int:
        """Greatest integer <= value."""
        return _floor_surd(self.a, self.b, self.c, self.d)

    def frac(self) -> "QuadIrrational":
        return self - self.floor()

    # --- conversions ---

    def as_fraction(self) -> Fraction:
        if self.b != 0:
            raise ValueError("irrational value has no exact fraction")
        return Fraction(self.a, self.c)

    def __float__(self) -> float:
        return (self.a + self.b * self.d**0.5) / self.c

    def __str__(self) -> str:
        return f"{self.a},{self.b},{self.c},{self.d}"

    def __repr__(self) -> str:
        return f"QuadIrrational({self.a}, {self.b}, {self.c}, {self.d})"


def _coerce(x) -> "QuadIrrational":
    if isinstance(x, QuadIrrational):
        return x
    if isinstance(x, int):
        return QuadIrrational.from_int(x)
    if isinstance(x, Fraction):
        return QuadIrrational.from_fraction(x)
    return NotImplemented


def qi_make(a: int, b: int, c: int, d: int) -> QuadIrrational:
    """Canonicalize (a + b*sqrt(d))/c.

    Square factors of d are absorbed into b, sqrt(1) into a, the sign of c
    is normalized positive and the common factor of (a, b, c) removed.
    """
    if c == 0:
        raise ValueError("invalid denominator 0")
    if d < 0:
        raise ValueError(f"negative radicand {d} unsupported")
    if b == 0:
        d = 0
    elif d == 0:
        b = 0
    else:
        s, d = _square_free_split(d)
        b *= s
        if d == 1:
            a, b, d = a + b, 0, 0
    if c < 0:
        a, b, c = -a, -b, -c
    g = gcd(gcd(abs(a), abs(b)), c)
    return QuadIrrational(a // g, b // g, c // g, d)


#: The reciprocal golden ratio (-1 + sqrt(5))/2, the package's stock example.
GOLDEN = qi_make(-1, 1, 2, 5)

QI_ZERO = qi_make(0, 0, 1, 0)
QI_ONE = qi_make(1, 0, 1, 0)
QI_HALF = qi_make(1, 0, 2, 0)


def rotate(theta: QuadIrrational, gamma: QuadIrrational, k: int) -> QuadIrrational:
    """Fractional part of theta + k*gamma, exactly in [0, 1)."""
    return (theta + k * gamma).frac()


def parse_qi(text: str) -> QuadIrrational:
    """Parse the textual 'a,b,c,d' encoding; 'fib' is shorthand for GOLDEN."""
    text = text.strip()
    if text == "fib":
        return GOLDEN
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"expected 'a,b,c,d' or 'fib', got {text!r}")
    try:
        a, b, c, d = (int(p) for p in parts)
    except ValueError as exc:
        raise ValueError(f"non-integer component in {text!r}") from exc
    return qi_make(a, b, c, d)


@dataclass(frozen=True)
class RotationParams:
    """An irrational rotation angle gamma in (1/2, 1) plus a phase psi in [0, 1).

    psi must be rational or live in gamma's quadratic field so that every
    coding comparison is exact.  Phases of the form m*gamma + n (integers
    m, n) are the only ones whose orbit ever lands on a coding boundary;
    :meth:`endpoint_hits` reports the two indices where that happens, and
    the half-open coding rule decides those symbols deterministically.
    """

    gamma: QuadIrrational
    psi: QuadIrrational

    def __post_init__(self):
        if self.gamma.is_rational:
            raise InvalidRotationError("gamma must be irrational (b != 0)")
        if not (QI_HALF < self.gamma < QI_ONE):
            raise ValueError(f"gamma must lie strictly in (1/2, 1), got {self.gamma}")
        if not self.psi.compatible_with(self.gamma):
            raise FieldMismatchError(
                f"psi field sqrt({self.psi.d}) differs from gamma's sqrt({self.gamma.d})"
            )
        if self.psi.sign() < 0 or (self.psi - 1).sign() >= 0:
            raise ValueError(f"psi must lie in [0, 1), got {self.psi}")

    def lattice_coefficients(self) -> tuple[Fraction, Fraction] | None:
        """(m, n) with psi = m*gamma + n when both are integers, else None."""
        g, p = self.gamma, self.psi
        m = Fraction(p.b * g.c, p.c * g.b)
        n = Fraction(p.a, p.c) - m * Fraction(g.a, g.c)
        if m.denominator == 1 and n.denominator == 1:
            return m, n
        return None

    def endpoint_hits(self) -> tuple[int, int] | None:
        """Indices (i0, i1) where the orbit lands on 0 and on gamma, or None.

        frac(psi + i*gamma) = 0 forces psi = -i*gamma + integer, and
        landing on gamma forces psi = (1-i)*gamma + integer, so both happen
        exactly once iff psi = m*gamma + n with integer m, n.
        """
        mn = self.lattice_coefficients()
        if mn is None:
            return None
        m = int(mn[0])
        return (-m, 1 - m)


def _expansion(x: QuadIrrational):
    """Yield (a_k, p_k, q_k) for k = 0, 1, ...: the partial quotients of x and
    its convergents p_k/q_k in lowest terms, lazily; a rational x ends."""
    p_prev, q_prev, p, q = 0, 1, 1, 0
    while True:
        a = x.floor()
        p_prev, q_prev, p, q = p, q, a * p + p_prev, a * q + q_prev
        yield a, p, q
        x = x - a
        if x.sign() == 0:
            return
        x = x.reciprocal()


def continued_fraction(x: QuadIrrational, n_terms: int) -> list[int]:
    """First n_terms of the simple continued fraction of x."""
    return [a for a, _, _ in islice(_expansion(x), n_terms)]


def recurrence_length(gamma: QuadIrrational, n: int) -> int:
    """Fewest N such that every N-site window of a coding of irrational gamma
    holds all n + 1 length-n factors: n + q_k + q_{k+1} - 1 for convergent
    denominators q_k <= n < q_{k+1} (Morse and Hedlund 1940), walked until q_{k+1} > n."""
    if n < 1:
        raise ValueError("factor length must be >= 1")
    for (_, _, q), (_, _, q_next) in pairwise(_expansion(gamma)):
        if q_next > n:
            return n + q + q_next - 1
    raise ValueError(f"rational {gamma} has no convergent denominator above {n}")


def convergents(x: QuadIrrational, n_terms: int) -> list[tuple[int, int]]:
    """First n_terms convergent pairs (p, q) of x, in lowest terms."""
    return [(p, q) for _, p, q in islice(_expansion(x), n_terms)]
