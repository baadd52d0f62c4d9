"""Ehrhart polynomials and their coefficients.

The central object is :class:`EhrhartPolynomial`: the degree-n polynomial
whose value at k is the number of lattice points in the k-fold dilate of
an n-dimensional lattice polytope, read off a recipe where there is one
(:func:`ehrhart_from_recipe`), else interpolated through counts at k = 0..n
(no oversampling: a degree mismatch reports a buggy counter).

The bipyramid family additionally has closed-form coefficients

    c_i = C(n-1, i) 2^i + (2/n) sum_{j=i-1}^{n-1} C(n, j+1) 2^j C(j+1, i) B_{j-i+1}

for i = 1..n (constant term 1), with B the Bernoulli numbers in the
B_1 = -1/2 convention, and the first coefficient collapses to

    c_1 = 2(n-1) + (4 - 2^n) B_{n-1},

which equals 2(n-1) for even n and grows like +-(n/(pi e))^n for odd n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from typing import Callable

from .counting import pick_sums
from .exact import (
    Polynomial,
    _taylor_shift,
    bernoulli,
    bernoulli_magnitude_bounds,
    from_differences,
    interpolate,
)
from .polytopes import FamilyTag, LatticePolytope


@dataclass(frozen=True, slots=True)
class EhrhartPolynomial:
    """Ehrhart polynomial of a polytope of dimension ``dimension``.

    Invariants checked at construction, on the integer form N/d: degree
    equals the dimension, the constant coefficient is 1 (N_0 == d), and the
    leading coefficient (the volume) is positive (N_n > 0).
    """

    dimension: int
    poly: Polynomial

    def __post_init__(self) -> None:
        if self.poly.degree != self.dimension:
            raise ValueError(
                f"degree {self.poly.degree} does not match dimension "
                f"{self.dimension}; the underlying counter is inconsistent"
            )
        if self.poly.numerators[0] != self.poly.denominator:
            raise ValueError(
                "constant coefficient must be 1 (dilation 0 contains exactly "
                "the origin)"
            )
        if self.poly.numerators[-1] <= 0:
            raise ValueError("leading coefficient (volume) must be positive")

    def coefficient(self, i: int) -> Fraction:
        return self.poly.coefficient(i)

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return self.poly.coefficients

    @property
    def volume(self) -> Fraction:
        return self.poly.leading_coefficient

    def __call__(self, k: int) -> Fraction:
        return self.poly(k)


def ehrhart_of(
    p: LatticePolytope, counter: Callable[[int], int]
) -> EhrhartPolynomial:
    """Interpolate the Ehrhart polynomial through counter(0..n).

    The counter must be exact; positivity and integrality of every count
    are checked, and the EhrhartPolynomial invariants double as a
    counter-correctness tripwire.
    """
    n = p.dimension
    values = []
    for k in range(n + 1):
        value = counter(k)
        if not isinstance(value, int) or value <= 0:
            raise ValueError(f"counter returned non-positive value {value} at k={k}")
        values.append(value)
    return EhrhartPolynomial(n, interpolate(values))


def ehrhart_from_recipe(p: LatticePolytope) -> EhrhartPolynomial | None:
    """From p's recipe, the Ehrhart polynomial of a family or polygon; else None."""
    fam, n = p.family, p.dimension
    if fam is None:  # a polygon by Pick's theorem: L(k) = (2A k^2 + B k + 2)/2
        if n != 2:
            return None
        return EhrhartPolynomial(2, Polynomial([2, *pick_sums(p)], 2))
    if fam.tag is FamilyTag.CUBE:  # (2k + 1)^n
        poly = Polynomial([comb(n, i) << i for i in range(n + 1)], 1)
    elif fam.tag is FamilyTag.CROSSPOLYTOPE:  # h* = (1 + t)^n
        poly = from_differences([comb(n, j) << j for j in range(n + 1)])
    elif fam.tag is FamilyTag.QN_FAMILY:
        poly = qn_coefficients(n).poly
    elif fam.tag is FamilyTag.PN_FAMILY:
        # Delta^i L(0) is x^i in sum_j h_j x^j (1 + x)^(n - j) = x^n R(1 + 1/x),
        # R the reversal of h*: by additions alone, a Taylor shift by 1.
        poly = from_differences(_taylor_shift(pn_h_star(n)[::-1], 1)[::-1])
    else:
        factors = [ehrhart_from_recipe(f) for f in fam.factors]
        if None in factors:
            return None
        poly = product_coefficients(*factors).poly
    scaled = [c * fam.scale**i for i, c in enumerate(poly.numerators)]  # L(sk)
    return EhrhartPolynomial(n, Polynomial(scaled, poly.denominator))


def pn_h_star(n: int) -> list[int]:
    """h* of the cube-crosspolytope hybrid (the slices of ``count_pn_sliced``
    summed over heights), with m = n - 1 and B_r the type-B Eulerian
    polynomial, B_0 = 1, B_r = (1 + (2r-1)t) B_(r-1) + 2t(1 - t) B'_(r-1):
    h* = (1 + t) B_m(t) + 2 sum_{i=1..m} C(m, i) 2^i t^i B_(m-i)(t)."""
    m, h, b = n - 1, [0] * (n + 1), [1]
    for r in range(m):  # b is B_r, the term i = m - r
        for j, x in enumerate(b, m - r):
            h[j] += (comb(m, r) << (m - r + 1)) * x
        # t^j in B_(r+1): (2j + 1) b_j + (2(r + 1 - j) + 1) b_(j-1)
        b = [(2 * j + 1) * x + (2 * (r + 1 - j) + 1) * y
             for j, (x, y) in enumerate(zip(b + [0], [0] + b))]
    return [x + y + z for x, y, z in zip(h, b + [0], [0] + b)]  # + (1 + t) B_m


def product_coefficients(
    ehr_p: EhrhartPolynomial, ehr_q: EhrhartPolynomial
) -> EhrhartPolynomial:
    """Ehrhart polynomial of a product: the coefficient convolution
    c_j(PxQ) = sum_i c_i(P) c_{j-i}(Q)."""
    return EhrhartPolynomial(
        ehr_p.dimension + ehr_q.dimension, ehr_p.poly * ehr_q.poly
    )


def qn_coefficients(n: int) -> EhrhartPolynomial:
    """Closed-form Ehrhart coefficients of the bipyramid over the
    (n-1)-cube; agrees with interpolation of the closed count."""
    if n < 2:
        raise ValueError("this family requires dimension >= 2")
    # With B_m = b[m] / d over one common denominator d, each c_i is one
    # integer over n d.  C(n, j+1) C(j+1, i) = C(n, i) C(n-i, j+1-i) turns the
    # sum for c_i into C(n, i) 2^(i-1) s[n-i], s[r] = sum_m C(r, m) b[m] 2^m:
    # the b[m] 2^m are the forward differences of s at 0, undone by additions.
    bernoulli(n - 1)  # one table build, where rising indices would rebuild it
    bs = [bernoulli(m).as_integer_ratio() for m in range(n)]
    d = lcm(*(q for _, q in bs))
    s = [p * (d // q) << m for m, (p, q) in enumerate(bs)]
    for level in range(n - 1, 0, -1):
        for r in range(level, n):
            s[r] += s[r - 1]
    numerators = [n * d]
    for i in range(1, n + 1):
        numerators.append((comb(n - 1, i) * n * d + comb(n, i) * s[n - i]) << i)
    return EhrhartPolynomial(n, Polynomial(numerators, n * d))


def qn_first_coefficient(n: int) -> Fraction:
    """First Ehrhart coefficient of the bipyramid family:
    2(n-1) + (4 - 2^n) B_{n-1}."""
    if n < 2:
        raise ValueError("this family requires dimension >= 2")
    p, q = bernoulli(n - 1).as_integer_ratio()
    return Fraction(2 * (n - 1) * q + (4 - 2**n) * p, q)


def qn_growth_check(k: int) -> bool:
    """Finite check behind the odd-dimension growth statement.

    For n = 2k+1 the first coefficient satisfies

        (-1)^k c_1 = (-1)^k 4k + (2^{2k+1} - 4) |B_{2k}|,

    so (-1)^k c_1 must lie strictly between (-1)^k 4k + (2^{2k+1}-4) * L
    and the same with U, where (L, U) are the rational magnitude bounds
    for B_{2k}.  True for every k >= 2 since the bounds bracket strictly.
    """
    if k < 2:
        raise ValueError("growth check starts at k = 2 (dimension 5)")
    n = 2 * k + 1
    signed = (-1) ** k * qn_first_coefficient(n)
    lower_mag, upper_mag = bernoulli_magnitude_bounds(k)
    base = Fraction((-1) ** k * 4 * k)
    factor = 2 ** (2 * k + 1) - 4
    return base + factor * lower_mag < signed < base + factor * upper_mag
