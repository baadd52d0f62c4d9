"""Exact rational numerics: Bernoulli numbers, binomials, and dense
univariate polynomial algebra over the rationals.

Everything in this module is exact.  Rationals are ``fractions.Fraction``
(always canonical: positive denominator, reduced), integers are Python's
arbitrary-precision ints, and no operation ever rounds.

Bernoulli convention
--------------------
``bernoulli(1) == Fraction(-1, 2)``.  This is the convention forced by the
Faulhaber identity behind the bipyramid closed forms in
:mod:`ehrhartlab.ehrhart`::

    sum_{j=0}^{k-1} j^i  =  (1/(i+1)) * sum_{j=1}^{i+1} C(i+1, j) B_{i-j+1} k^j

The opposite convention (B_1 = +1/2) silently corrupts every downstream
bipyramid coefficient, so double-check before "fixing" a sign here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterable, Sequence

RationalLike = Fraction | int

# Directed rational enclosure of pi, wide enough for the magnitude bounds
# up to index ~15 (enclosure error ~3e-15 relative vs. bound gaps >~1e-9).
PI_LOWER = Fraction(314159265358979, 10**14)
PI_UPPER = Fraction(314159265358980, 10**14)


@lru_cache(maxsize=None)
def bernoulli(j: int) -> Fraction:
    """Return the j-th Bernoulli number B_j, with B_1 = -1/2.

    Computed by the defining recurrence sum_{m=0}^{j} C(j+1, m) B_m = 0
    and memoized; desk scale needs indices up to ~30 only.
    """
    if j < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    if j == 0:
        return Fraction(1)
    total = Fraction(0)
    for m in range(j):
        total += comb(j + 1, m) * bernoulli(m)
    return -total / (j + 1)


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k); 0 when k > n, error on negatives."""
    if n < 0 or k < 0:
        raise ValueError("binomial requires nonnegative arguments")
    return comb(n, k)


def bernoulli_magnitude_bounds(j: int) -> tuple[Fraction, Fraction]:
    """Rational bounds (lower, upper) with lower < |B_{2j}| < upper.

    The classical two-sided estimate is

        2(2j)!/(2 pi)^{2j}  <  |B_{2j}|  <  2(2j)!/(2 pi)^{2j} * 1/(1 - 2^{1-2j})

    pi is replaced by a directed rational enclosure so the returned pair
    still brackets the true value.
    """
    if j < 1:
        raise ValueError("bernoulli_magnitude_bounds requires j >= 1")
    fact2j = 1
    for m in range(2, 2 * j + 1):
        fact2j *= m
    lower = Fraction(2 * fact2j) / (2 * PI_UPPER) ** (2 * j)
    upper = Fraction(2 * fact2j) / (2 * PI_LOWER) ** (2 * j)
    upper /= 1 - Fraction(2) ** (1 - 2 * j)
    return lower, upper


def _as_fraction_tuple(coefficients: Iterable[RationalLike]) -> tuple[Fraction, ...]:
    coeffs = [Fraction(c) for c in coefficients]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        coeffs = [Fraction(0)]
    return tuple(coeffs)


@dataclass(frozen=True)
class Polynomial:
    """Dense univariate polynomial with exact rational coefficients.

    ``coefficients[i]`` is the coefficient of the i-th power; the trailing
    coefficient is nonzero unless the polynomial is identically zero.
    Instances are immutable and safe to share across threads.
    """

    coefficients: tuple[Fraction, ...]

    def __init__(self, coefficients: Iterable[RationalLike]) -> None:
        object.__setattr__(self, "coefficients", _as_fraction_tuple(coefficients))

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial reports degree 0."""
        return len(self.coefficients) - 1

    @property
    def is_zero(self) -> bool:
        return self.coefficients == (Fraction(0),)

    def coefficient(self, i: int) -> Fraction:
        """Coefficient of the i-th power (0 beyond the degree)."""
        if i < 0:
            raise ValueError("power must be nonnegative")
        return self.coefficients[i] if i < len(self.coefficients) else Fraction(0)

    @property
    def leading_coefficient(self) -> Fraction:
        return self.coefficients[-1]

    def __call__(self, x: RationalLike) -> Fraction:
        xf = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * xf + c
        return acc

    def __add__(self, other: "Polynomial | RationalLike") -> "Polynomial":
        other = _coerce(other)
        n = max(len(self.coefficients), len(other.coefficients))
        return Polynomial(
            self.coefficient(i) + other.coefficient(i) for i in range(n)
        )

    def __sub__(self, other: "Polynomial | RationalLike") -> "Polynomial":
        other = _coerce(other)
        n = max(len(self.coefficients), len(other.coefficients))
        return Polynomial(
            self.coefficient(i) - other.coefficient(i) for i in range(n)
        )

    def __mul__(self, other: "Polynomial | RationalLike") -> "Polynomial":
        other = _coerce(other)
        if self.is_zero or other.is_zero:
            return Polynomial([0])
        out = [Fraction(0)] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            if a == 0:
                continue
            for j, b in enumerate(other.coefficients):
                out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def shift(self, c: RationalLike) -> "Polynomial":
        """Return q with q(t) = p(t + c): Horner's rule in t + c, in place."""
        cf = Fraction(c)
        a = list(self.coefficients)
        for i in range(len(a) - 2, -1, -1):
            for j in range(i, len(a) - 1):
                a[j] += cf * a[j + 1]
        return Polynomial(a)

    def derivative(self) -> "Polynomial":
        if len(self.coefficients) == 1:
            return Polynomial([0])
        return Polynomial(i * c for i, c in enumerate(self.coefficients) if i > 0)

    def monic(self) -> "Polynomial":
        if self.is_zero:
            raise ValueError("zero polynomial has no monic form")
        lead = self.leading_coefficient
        return Polynomial(c / lead for c in self.coefficients)

    def __divmod__(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coefficients)
        div = other.coefficients
        if len(rem) < len(div):
            return Polynomial([0]), Polynomial(rem)
        quot = [Fraction(0)] * (len(rem) - len(div) + 1)
        for top in range(len(rem) - 1, len(div) - 2, -1):
            c = rem[top] / div[-1]
            pos = top - (len(div) - 1)
            quot[pos] = c
            if c != 0:
                for i, d in enumerate(div):
                    rem[pos + i] -= c * d
        return Polynomial(quot), Polynomial(rem[: len(div) - 1] or [0])

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[1]


def _coerce(value: Polynomial | RationalLike) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    return Polynomial([Fraction(value)])


def polynomial_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic gcd over the rationals (Euclidean algorithm)."""
    while not b.is_zero:
        a, b = b, a % b
    if a.is_zero:
        return a
    return a.monic()


def squarefree_decomposition(p: Polynomial) -> list[tuple[Polynomial, int]]:
    """Yun's algorithm: return [(f_i, m_i)] with p = lead * prod f_i^{m_i},
    the f_i monic, squarefree, and pairwise coprime."""
    if p.is_zero:
        raise ValueError("zero polynomial has no squarefree decomposition")
    if p.degree == 0:
        return []
    p = p.monic()
    dp = p.derivative()
    a = polynomial_gcd(p, dp)
    if a.degree == 0:
        return [(p, 1)]
    out: list[tuple[Polynomial, int]] = []
    b = p // a
    c = dp // a
    d = c - b.derivative()
    mult = 1
    while b.degree > 0:
        ai = polynomial_gcd(b, d)
        if ai.degree > 0:
            out.append((ai, mult))
        b = b // ai
        c = d // ai
        d = c - b.derivative()
        mult += 1
    return out


def interpolate(points: Sequence[tuple[RationalLike, RationalLike]]) -> Polynomial:
    """Unique polynomial of degree < len(points) through all points.

    Newton divided differences over Fraction; the result reproduces every
    ordinate exactly.  Duplicate abscissae are rejected.
    """
    if not points:
        raise ValueError("interpolation requires at least one point")
    xs = [Fraction(x) for x, _ in points]
    ys = [Fraction(y) for _, y in points]
    if len(set(xs)) != len(xs):
        raise ValueError("duplicate abscissae in interpolation input")
    coef = ys[:]
    n = len(points)
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - level])
    # Horner expansion of the Newton form, in place: after step i, coef[i:]
    # holds coef[i] + (t - xs[i]) * (the tail) in the power basis.
    for i in range(n - 2, -1, -1):
        for j in range(i, n - 1):
            coef[j] -= xs[i] * coef[j + 1]
    return Polynomial(coef)
