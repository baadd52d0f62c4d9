"""Roots of Ehrhart polynomials and the inequality suite they support.

Root finding is multiplicity-safe: the polynomial is first split into
squarefree factors by exact rational arithmetic (Yun's algorithm), each
factor's roots come from the eigenvalues of the companion matrix that
``np.roots`` would build, and Newton steps polish every simple root, one
Horner pass for p and p' per step, until a step is at most
2^-50 max(1, |z|) (four ulps), 8 steps at most.  The residual is the
componentwise backward error max |p(z)| / sum |c_j| |z|^j (Higham), one
Horner pass per root.  Where a float could leave its range (high degree
or huge coefficients), all of this runs on the monic factor in
t = 2^e y, e read off the coefficients' sizes, which leaves the backward
error unchanged; otherwise nothing is scaled.  Roots that no one scale
brings into float range (2^e itself past it, or sizes that differ by more
than floats span) raise a ValueError.

A product's or a dilate's polynomial keeps its factors f(s t)^m
(``Polynomial.factors``; L_{PxQ} = L_P L_Q and L_{sP}(k) = L_P(sk)), and
the root stage reads them.  Yun runs once per distinct f, and factor
refinement makes the bases of distinct factors coprime
(:func:`exact.coprime_bases`).  The roots of a base h(s t) are h's
divided by s, each base with a scale 2^e of its own, so roots whose sizes
differ by more than floats span are found apart.  The line test runs per
factor, f at s times the target.  Parity holds if each factor's does, and
otherwise the product's own shift decides it, since roots can pair across
factors.  ``braun_disc_check`` and ``residual_bound`` read the product's
own coefficients.

Whether all roots have real part -1/a is decided exactly.  Roots on one
line lie on their mean m = -c_{n-1}/(n c_n), so any other line is refused
from two coefficients, and the polynomial caches its one shift to it,
q(t) = p(t + m) (``Polynomial.mean_shift``): q(-t) = (-1)^n q(t) must
hold (the parity condition), and then r(y) = i^-n q(iy) is real and must
have only real roots, which Sturm's theorem counts on its squarefree
part.  Braun's disc |z + 1/2| <= n(n - 1/2) is decided exactly too:
Fujiwara's bound on the shifted integer coefficients proves it, or else a
Routh-Hurwitz count after a Moebius map counts the roots outside.  No
verdict here reads a float root.  :func:`find_roots` is the one entry
point that computes the floats; the exact checks take ``RootSet(poly)``,
which computes none.

The inequality checks themselves (coefficient ratios, the volume bound,
and the point-count bound) are exact rational comparisons valid for
polytopes all of whose Ehrhart roots share the real part -1/a; they do
not verify that hypothesis - compose them with :func:`common_real_part`
or the exact :func:`parity_necessary_check`.  The parity check is a
necessary condition only: a polynomial symmetric about -1/a can still
have roots off that line (the degree-9 bipyramid is such a case).
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import cached_property
from math import comb, gcd, log2
from typing import Iterable, NamedTuple

from ._frozen import Frozen
from .ehrhart import EhrhartPolynomial
from .exact import (
    Polynomial,
    _dilated,
    _taylor_shift,
    _unit_disc_exterior,
    coprime_bases,
    distinct_root_counts,
    squarefree_decomposition,
)

_FLOAT_BITS = 1000  # log2 of the largest float allowed, with room for a factor n


class RootSet(Frozen):
    """All complex roots of ``poly`` with multiplicity, sorted by (real,
    imag); ``residual_bound`` is their largest backward error.  Both are
    computed on first read: :func:`find_roots` reads both before it
    returns, and the exact checks, which read only ``poly`` and the shift
    it caches, take a ``RootSet(poly)`` and never pay for the floats.
    Exact squarefree splitting comes first, so multiple roots (the
    dilated-cube polynomials) come out exact instead of scattered; a
    polynomial with ``factors`` is split factor by factor."""

    _fields = ("poly",)
    poly: Polynomial

    def __init__(self, poly: Polynomial) -> None:
        vars(self).update(poly=poly)

    @cached_property
    def roots(self) -> tuple[complex, ...]:
        roots: list[complex] = []
        for _, ys, multiplicity, unit in self._pieces:
            for y in ys:  # unit 1 leaves y as it is, signed zeros included
                roots.extend([y if unit == 1 else y * unit] * multiplicity)
        roots.sort(key=lambda z: (z.real, z.imag))
        return tuple(roots)

    @cached_property
    def residual_bound(self) -> float:
        roots = self.roots
        try:
            if (e := self._scale_exponent) is None:
                return _backward_error(self.poly, roots)
            return _backward_error(_scaled(self.poly, e), [z * 2.0**-e for z in roots])
        except ValueError:
            if not self.poly.factors:
                raise
        # No one scale brings the product's coefficients into float range,
        # but each base's does: the largest backward error of a base.
        return max(_backward_error(f, ys) for f, ys, _, _ in self._pieces)

    @cached_property
    def _pieces(self) -> list[tuple[Polynomial, list[complex], int, float]]:
        """(f, ys, m, unit) per squarefree base: the ys are the roots of the
        monic f, the roots of ``poly`` are ys * unit, m times each.  A
        polynomial with ``factors`` runs Yun once per distinct factor and
        refines the bases (``coprime_bases``); a base h(s t) is found as h,
        with a scale of its own, and its roots are h's divided by s."""
        p = self.poly
        if p.factors:
            distinct = dict.fromkeys(f for f, _, _ in p.factors)
            yun = {f: squarefree_decomposition(f) for f in distinct}
            bases = [
                (h, k, s, _scale_exponent(h))
                for h, k, s in coprime_bases(
                    (g, j * m, s) for f, m, s in p.factors for g, j in yun[f]
                )
            ]
        else:
            e = self._scale_exponent
            bases = [(f, m, 1, e) for f, m in squarefree_decomposition(p)]
        pieces = []
        for factor, multiplicity, s, e in bases:
            if factor.degree == 1:
                # -c0 of the monic factor over s; its rounding is the only loss.
                value = _quotient(-factor.numerators[0], factor.denominator * s)
                factor = factor if s == 1 else _dilated(factor, s)
                pieces.append((factor, [complex(value)], multiplicity, 1))
                continue
            if e is not None:
                factor = _scaled(factor, e)
            coeffs = _floats(factor)[::-1]
            ys = _newton_polish(coeffs, _eigenvalues(coeffs))
            e = e or 0  # the roots are ys 2^e / s
            unit = _quotient(1 << e, s) if e >= 0 else _quotient(1, s << -e)
            pieces.append((factor, ys, multiplicity, unit))
        return pieces

    @cached_property
    def _scale_exponent(self) -> int | None:
        """``_scale_exponent(poly)``, read once by ``roots`` and
        ``residual_bound``."""
        return _scale_exponent(self.poly)


def _scale_exponent(p: Polynomial) -> int | None:
    """None when no float met in finding the roots of p can leave float
    range, else the e that brings the geometric mean of the nonzero roots
    near |y| = 1 in t = 2^e y.  Every root lies in |z| <= R = 2 max_j
    |c_j/c_n|^(1/(n-j)) (Fujiwara), so the coefficients and values at the
    roots of p, of a monic factor and of its derivative stay below
    n max(|c_n|, 1) (2 max(R, 1))^n.  With b the largest bit length of the
    numerators and the denominator, log2 |c_j| lies in [-b, b], so
    b + n (2b + 2) below the limit settles None from bit lengths alone.
    A ValueError, before any float is computed, when 2^e or 2^-e is past
    float range."""
    n, d = p.degree, p.denominator
    bits = max(d.bit_length(), *map(int.bit_length, p.numerators))
    if bits + n * (2 * bits + 2) < _FLOAT_BITS:
        return None
    logs = []
    for j, c in enumerate(p.numerators):
        if c:  # log2 |c_j| from c_j in lowest terms
            g = gcd(c, d)
            logs.append((log2(abs(c) // g) - log2(d // g), j))
    lead = logs[-1][0]
    r = 1 + max(((l - lead) / (n - j) for l, j in logs[:-1]), default=0)
    largest = max(lead, 0) + n * (max(r, 0) + 1)
    if largest < _FLOAT_BITS and min(l for l, _ in logs) > -_FLOAT_BITS:
        return None
    low, j = logs[0]
    e = round((low - lead) / (n - j)) if j < n else 0
    if abs(e) >= sys.float_info.max_exp:  # 2.0**e or 2.0**-e overflows
        raise ValueError(f"roots past float range: their size is about 2^{e}")
    return e


def _quotient(u: int, v: int) -> float:
    """u / v correctly rounded; a ValueError when u/v is not 0 but rounds to 0."""
    value = u / v
    if u and not value:
        raise ValueError(
            f"roots past float range: their size is about 2^{u.bit_length() - v.bit_length()}"
        )
    return value


def _eigenvalues(coeffs: list[float]) -> list[complex]:
    """The roots of a monic polynomial (float coefficients, leading first)
    as the eigenvalues of the companion matrix that ``np.roots`` builds,
    trailing zero coefficients taken off as zero roots: bitwise its
    answer, without its checks and conversions.  NumPy loads here, so
    bases that are all linear never load it."""
    import numpy as np

    n = len(coeffs) - 1
    while not coeffs[n]:
        n -= 1
    matrix = np.diag(np.ones(n - 1), -1)
    matrix[0] = [-c for c in coeffs[1 : n + 1]]
    return np.linalg.eigvals(matrix).tolist() + [0j] * (len(coeffs) - 1 - n)


class BoundVerdict(NamedTuple):
    """Outcome of one exact inequality lhs <= rhs between lhs = p/q and
    rhs = r/s, decided on integers: ``lhs_terms`` is (p, q) and
    ``rhs_terms`` is (r, s), neither reduced."""

    holds: bool
    is_equality: bool
    lhs_terms: tuple[int, int]
    rhs_terms: tuple[int, int]


def _bound_verdict(p: int, q: int, r: int, s: int) -> BoundVerdict:
    """The verdict on p/q <= r/s: multiplying by (qs)^2 > 0 keeps the order."""
    qs = q * s
    if not qs:
        raise ZeroDivisionError("bound with denominator 0")
    left, right = p * s * qs, r * q * qs
    return BoundVerdict(left <= right, left == right, (p, q), (r, s))


class WillsIndexVerdict(NamedTuple):
    """Row i: the verdict on c_i <= 2^i C(n, i)."""

    index: int
    verdict: BoundVerdict

    holds = property(lambda self: self.verdict.holds)


class WillsVerdict(NamedTuple):
    """Per-coefficient comparison against the cube bound 2^i C(n, i)."""

    dimension: int
    per_index: tuple[WillsIndexVerdict, ...]
    overall: bool

    @property
    def violations(self) -> tuple[int, ...]:
        return tuple(row.index for row in self.per_index if not row.verdict.holds)

    @property
    def equalities(self) -> tuple[int, ...]:
        return tuple(row.index for row in self.per_index if row.verdict.is_equality)


def _scaled(f: Polynomial, e: int) -> Polynomial:
    """f(2^e y) made monic: its roots are f's times 2^-e, and its
    componentwise backward error at them is f's.  Its coefficients are
    a_j 2^(ej) / (a_n 2^(en)), both sides times 2^-low to keep every shift
    nonnegative."""
    a, n = f.numerators, f.degree
    low = min(0, e * n)
    return Polynomial([x << e * j - low for j, x in enumerate(a)], a[-1] << e * n - low)


def _floats(p: Polynomial) -> list[float]:
    """The coefficients, each correctly rounded (int / int is); a ValueError
    when one is past float range, as when the roots' sizes spread wider
    than one scale 2^e brings into it."""
    try:
        return [x / p.denominator for x in p.numerators]
    except OverflowError:
        raise ValueError("roots past float range: their sizes differ by more than floats span") from None


def _newton_polish(coeffs: list[float], eigenvalues: Iterable[complex]) -> list[complex]:
    """Newton from each eigenvalue (real coefficients, leading first).  From
    conj(z) each step mirrors the one from z, exactly unless a part is 0."""
    by_start: dict[complex, complex] = {}
    polished = []
    for raw in eigenvalues:
        z = start = complex(raw)
        mirror = by_start.get(start.conjugate(), 0j)  # a real start ends real: no mirror
        if mirror.real and mirror.imag:
            polished.append(mirror.conjugate())
            continue
        for _ in range(8):
            value = slope = 0j
            for c in coeffs:
                slope = slope * z + value
                value = value * z + c
            if slope == 0:
                break
            step = value / slope
            z -= step
            if abs(step) <= 2.0**-50 * max(1.0, abs(z)):
                break
        by_start[start] = z
        polished.append(z)
    return polished


def _backward_error(p: Polynomial, roots: tuple[complex, ...]) -> float:
    """max |p(z)| / sum |c_j| |z|^j over the roots up to conjugation (0/0 is 0)."""
    terms = [(c, abs(c)) for c in reversed(_floats(p))]
    errors = []
    for z in dict.fromkeys(complex(z.real, abs(z.imag)) for z in roots):
        r, value, size = abs(z), 0j, 0.0
        for c, s in terms:
            value = value * z + c
            size = size * r + s
        errors.append(abs(value) / (size or 1.0))
    return max(errors)


def find_roots(p: Polynomial) -> RootSet:
    """All complex roots of p with multiplicity, as a :class:`RootSet`
    whose float roots and residual are computed when this is called."""
    if p.is_zero:
        raise ValueError("the zero polynomial has no root set")
    if p.degree < 1:
        raise ValueError("root finding requires degree >= 1")
    rs = RootSet(p)
    rs.residual_bound  # the float stage, roots and residual, runs inside find_roots
    return rs


def _mean_on_line(p: Polynomial, target: Fraction | int) -> bool:
    """True iff the roots of p average -target = -u/v.  They sum to
    -c_{n-1}/c_n, so this is N_{n-1} v == n N_n u on the numerators."""
    n, numerators = p.degree, p.numerators
    u, v = target.numerator, target.denominator
    return not n or numerators[n - 1] * v == n * numerators[n] * u


def common_real_part(rs: RootSet, target: Fraction | int) -> bool:
    """True iff every root of ``rs.poly`` has real part exactly -target
    (callers pass 1/a), decided as the module docstring describes; for a
    polynomial with ``factors``, on each factor f(s t) as f at s target."""
    p = rs.poly
    if not _mean_on_line(p, target):
        return False
    if p.factors:
        return all(_on_line(f, target * s) for f, s in _distinct(p.factors))
    return _on_line(p, target)


def _distinct(factors: tuple[tuple[Polynomial, int, int], ...]) -> list[tuple[Polynomial, int]]:
    """The distinct (f, s) of a ``Polynomial.factors`` list."""
    return list(dict.fromkeys((f, s) for f, _, s in factors))


def _on_line(p: Polynomial, target: Fraction | int) -> bool:
    if not _mean_on_line(p, target) or (q := p.mean_shift) is None:
        return False
    n = q.degree
    r = Polynomial(
        [c if (n - j) % 4 == 0 else -c for j, c in enumerate(q.numerators)],
        q.denominator,
    )
    real, distinct = distinct_root_counts(r)
    return real == distinct


def parity_necessary_check(ehr: EhrhartPolynomial, a: Fraction | int) -> bool:
    """Exact root-free necessary condition for all roots on Re = -1/a.

    Refuses -1/a unless it is the roots' mean, then tests the polynomial's
    one shift to it for q(-t) == (-1)^n q(t) coefficient-wise.  Roots on
    the line force this symmetry; the converse fails, so
    :func:`common_real_part` decides sufficiency.  A polynomial with
    ``factors`` is symmetric if each factor f(s t) is, f about -s/a.  The
    converse fails (the roots -1 and -1/3 of two segments are symmetric
    about -2/3, neither alone), so when a factor is not, the polynomial's
    own shift decides.
    """
    if a <= 0:
        raise ValueError("a must be positive")
    p, target = ehr.poly, 1 / Fraction(a)
    if not _mean_on_line(p, target):
        return False
    if p.factors and all(
        _mean_on_line(f, target * s) and f.mean_shift is not None
        for f, s in _distinct(p.factors)
    ):
        return True
    return p.mean_shift is not None


def braun_disc_check(rs: RootSet, n: int) -> bool:
    """True iff every root of ``rs.poly`` lies in the closed disc
    |z + 1/2| <= n(n - 1/2), decided exactly from ``rs.poly`` alone:
    every Ehrhart root in dimension n lies there (Braun 2008), so a
    failure signals a counting or interpolation bug, not new mathematics.

    With p = P/d, Q(s) = 2^m P((s - 1)/2) has the roots s = 2z + 1, and
    the disc becomes |s| <= r = n(2n - 1).  Fujiwara's bound proves it
    when |Q_j| 2^(m-j) <= |Q_m| r^(m-j) for 0 < j < m and
    |Q_0| 2^m <= 2 |Q_m| r^m; otherwise the roots of Q(r y) outside the
    unit disc are counted exactly."""
    if rs.poly.is_zero:
        raise ValueError("the zero polynomial has no root set")
    a = rs.poly.numerators
    m = len(a) - 1
    q = _taylor_shift([x << (m - j) for j, x in enumerate(a)], -1)
    r = n * (2 * n - 1)
    scale, bound = 1, abs(q[-1])  # 2^(m-j) and |Q_m| r^(m-j)
    for j in range(m - 1, -1, -1):
        scale, bound = scale << 1, bound * r
        if abs(q[j]) * scale > (bound if j else 2 * bound):
            return _unit_disc_exterior([x * r**j for j, x in enumerate(q)]) == 0
    return True


def wills_check(ehr: EhrhartPolynomial) -> WillsVerdict:
    """Compare every coefficient against the cube bound 2^i C(n, i).

    The bound is the conjectured maximum for centrally symmetric lattice
    polytopes whose only interior lattice point is the origin; violations
    are findings, not errors.
    """
    n, d = ehr.dimension, ehr.poly.denominator
    rows = tuple(
        WillsIndexVerdict(i, _bound_verdict(c, d, comb(n, i) << i, 1))
        for i, c in enumerate(ehr.poly.numerators)
    )
    return WillsVerdict(n, rows, all(r.verdict.holds for r in rows))


def coefficient_ratio_bound(
    ehr: EhrhartPolynomial, a: Fraction | int, s: int, t: int
) -> BoundVerdict:
    """Exact test of c_t/c_s <= a^(t-s) C(n,t)/C(n,s) for 0 <= s < t <= n.

    Valid when all roots have real part -1/a (not verified here).  With
    a = 2 and s = 0 this row is exactly the cube bound on c_t.  The
    polynomial's denominator cancels from c_t/c_s."""
    n = ehr.dimension
    if not 0 <= s < t <= n:
        raise ValueError(f"need 0 <= s < t <= {n}, got ({s}, {t})")
    numerators = ehr.poly.numerators
    if numerators[s] == 0:
        raise ValueError(
            "coefficient ratio undefined: c_s = 0 cannot occur for Ehrhart "
            "polynomials in the hypothesis class"
        )
    u, v = a.numerator ** (t - s), a.denominator ** (t - s)
    return _bound_verdict(
        numerators[t], numerators[s], u * comb(n, t), v * comb(n, s)
    )


def volume_bound(ehr: EhrhartPolynomial, a: Fraction | int) -> BoundVerdict:
    """Exact test of vol <= (a/(a+1))^n * (point count).

    Equality holds exactly when the polynomial is (ak+1)^n."""
    u, v, n = a.numerator, a.denominator, ehr.dimension
    numerators, d = ehr.poly.numerators, ehr.poly.denominator
    return _bound_verdict(
        numerators[-1], d, u**n * sum(numerators), (u + v) ** n * d
    )


def point_count_bound(ehr: EhrhartPolynomial, a: Fraction | int) -> BoundVerdict:
    """Exact test of
    (point count) <= (a+1)^(n-2) (a+2) / a^(n-1) * vol + (a+1)^(n-2).

    Needs n >= 2.  Equality holds iff at most one conjugate root pair has
    nonzero imaginary part; in particular always in dimensions 2 and 3,
    and for polynomials with all roots real (the cube).  With a = u/v and
    vol = N_n/d, the right side is
    (u+v)^(n-2) ((u+2v) N_n v^(n-2) + u^(n-1) d) / (u^(n-1) d v^(n-2))."""
    n = ehr.dimension
    if n < 2:
        raise ValueError("the point-count bound needs dimension >= 2")
    u, v = a.numerator, a.denominator
    numerators, d = ehr.poly.numerators, ehr.poly.denominator
    rhs = (u + 2 * v) * numerators[-1] * v ** (n - 2) + u ** (n - 1) * d
    return _bound_verdict(
        sum(numerators), d, (u + v) ** (n - 2) * rhs, u ** (n - 1) * d * v ** (n - 2)
    )
