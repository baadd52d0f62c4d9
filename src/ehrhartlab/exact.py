"""Exact rational numerics: Bernoulli numbers and dense univariate
polynomial algebra over the rationals.

Everything in this module is exact, and no operation ever rounds.  A
:class:`Polynomial` holds integer numerators over one positive denominator,
as FLINT's ``fmpq_poly`` does (von zur Gathen and Gerhard, *Modern Computer
Algebra*, ch. 6): interpolation, products, shifts, Yun's algorithm and the
Sturm count build no Fraction.  Gcds come from primitive pseudo-remainder
sequences (Brown and Traub 1971): a step multiplies by |lc|, never by the
signed lc, and divides out a positive content, so each member is a positive
multiple of the true remainder.  By Gauss's lemma, dividing by a primitive
factor stays exact in Z[t].  A polynomial squarefree modulo a prime skips
Yun's chain; one symmetric about its roots' mean, q(t) = t^e s(t^2) after
the shift to the mean, is tested on s, of half the degree.

A polynomial built as a product of dilates, p = lc * prod f(s t)^m (the
Ehrhart polynomial of a product or dilate, L_{PxQ} = L_P L_Q and
L_{sP}(k) = L_P(sk)), keeps that list in ``Polynomial.factors``.  The root
stage runs Yun once per distinct factor f and merges the bases of distinct
factors by factor refinement (:func:`coprime_bases`; Bach, Driscoll and
Shallit 1993): equal bases are found by equality, a pair coprime modulo a
prime skips its gcd.  :func:`squarefree_decomposition` itself reads only
the coefficients.

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

from fractions import Fraction
from functools import cached_property
from math import factorial, gcd, lcm
from operator import ne
from types import SimpleNamespace
from typing import Iterable, Sequence

from ._frozen import Frozen

RationalLike = Fraction | int
_BERNOULLI: list[Fraction] = []  # B_0, B_1, ... as far as bernoulli() was asked

# Directed rational enclosure of pi, wide enough for the magnitude bounds
# up to index ~15 (enclosure error ~3e-15 relative vs. bound gaps >~1e-9).
PI_LOWER = Fraction(314159265358979, 10**14)
PI_UPPER = Fraction(314159265358980, 10**14)


def bernoulli(j: int) -> Fraction:
    """The j-th Bernoulli number, B_1 = -1/2.  A table too short is rebuilt at
    least twice as long from the tangent numbers T_k, by Brent and Harvey's
    O(k^2) integer recurrence (2011): B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)).
    The new table is built apart and published by one assignment, so a caller
    that reads the table while another builds one sees a whole table."""
    global _BERNOULLI
    if j < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    table = _BERNOULLI
    if len(table) <= j:
        m = max(j // 2, len(table))
        t = [0] + [factorial(k - 1) for k in range(1, m + 1)]  # T_k once done
        for k in range(2, m + 1):
            for i in range(k, m + 1):
                t[i] = (i - k) * t[i - 1] + (i - k + 2) * t[i]
        table = [Fraction(1), Fraction(-1, 2)]
        for k in range(1, m + 1):  # B_2k and B_2k+1
            b = Fraction(2 * k * t[k], (4**k - 1) << 2 * k)
            table.extend((b if k % 2 else -b, Fraction(0)))
        _BERNOULLI = table
    return table[j]


def bernoulli_magnitude_bounds(j: int) -> tuple[Fraction, Fraction]:
    """Rational bounds (lower, upper) with lower < |B_{2j}| < upper.

    The classical two-sided estimate is

        2(2j)!/(2 pi)^{2j}  <  |B_{2j}|  <  2(2j)!/(2 pi)^{2j} * 1/(1 - 2^{1-2j})

    pi is replaced by a directed rational enclosure so the returned pair
    still brackets the true value.
    """
    if j < 1:
        raise ValueError("bernoulli_magnitude_bounds requires j >= 1")
    e, scale = 2 * j, 2 * factorial(2 * j)
    lower = Fraction(scale * PI_UPPER.denominator**e, (2 * PI_UPPER.numerator) ** e)
    upper = Fraction(scale * PI_LOWER.denominator**e, (2 * PI_LOWER.numerator) ** e)
    return lower, upper / (1 - Fraction(1, 2 ** (e - 1)))


class Polynomial(Frozen):
    """Dense univariate polynomial with exact rational coefficients: the
    coefficient of t^i is numerators[i] / denominator.  The form is
    canonical (a positive denominator sharing no factor with all the
    numerators, no trailing zero; zero is (0,) over 1), so ``==`` and
    ``hash`` compare values.  ``Polynomial(coefficients)`` takes Fractions
    or ints, ``Polynomial(numerators, denominator)`` an integer vector.
    The Fraction view, the roots' mean and the one shift to it are cached
    on first read, so every check of one instance shares them.  Instances
    are immutable and safe to share across threads.

    ``factors`` is empty unless :func:`with_factors` recorded that the
    polynomial is lc * prod f(s t)^m over its (f, m, s); it takes no part
    in ``==`` and ``hash``.
    """

    _fields = ("numerators", "denominator")
    numerators: tuple[int, ...]
    denominator: int
    factors: tuple[tuple["Polynomial", int, int], ...] = ()

    def __init__(
        self, coefficients: Iterable[RationalLike], denominator: int | None = None
    ) -> None:
        nums = list(coefficients)
        if denominator is None:  # rationals: over their common denominator
            denominator = lcm(*(c.denominator for c in nums))
            nums = [c.numerator * (denominator // c.denominator) for c in nums]
        elif not denominator:
            raise ZeroDivisionError("polynomial with denominator 0")
        while len(nums) > 1 and not nums[-1]:
            nums.pop()
        g = gcd(*nums, denominator) if denominator > 0 else -gcd(*nums, denominator)
        vars(self).update(
            numerators=tuple(x // g for x in nums) or (0,), denominator=denominator // g
        )

    @cached_property
    def coefficients(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, built on first read."""
        return tuple(Fraction(x, self.denominator) for x in self.numerators)

    @cached_property
    def mean(self) -> Fraction:
        """The roots' mean -c_{n-1}/(n c_n); 0 for a constant, which has none."""
        c, n = self.numerators, self.degree
        return Fraction(-c[n - 1], n * c[n]) if n else Fraction(0)

    @cached_property
    def mean_shift(self) -> "Polynomial | None":
        """q(t) = p(t + mean) if q(-t) = (-1)^n q(t), else None: the one
        shift that every root-line test of this polynomial reads."""
        c, n = self.numerators, self.degree
        # The mean -c_{n-1}/(n c_n) as an unreduced pair: no Fraction is built.
        q = self.shift(SimpleNamespace(numerator=-c[n - 1], denominator=n * c[n]) if n else 0)
        return None if any(q.numerators[j] for j in range(q.degree - 1, -1, -2)) else q

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial reports degree 0."""
        return len(self.numerators) - 1

    @property
    def is_zero(self) -> bool:
        return not self.numerators[-1]

    def coefficient(self, i: int) -> Fraction:
        """Coefficient of the i-th power (0 beyond the degree); builds only
        this one Fraction."""
        if i < 0:
            raise ValueError("power must be nonnegative")
        a = self.numerators
        return Fraction(a[i] if i < len(a) else 0, self.denominator)

    @property
    def leading_coefficient(self) -> Fraction:
        return Fraction(self.numerators[-1], self.denominator)

    def __call__(self, x: RationalLike) -> Fraction:
        """p(u/v) = sum_j a_j u^j v^(n-j) / (d v^n), by Horner's rule."""
        u, v = x.numerator, x.denominator
        acc, power = 0, 1
        for c in reversed(self.numerators):
            acc = acc * u + c * power
            power *= v
        return Fraction(acc, self.denominator * power // v)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.numerators, other.numerators
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return Polynomial(out, self.denominator * other.denominator)

    def shift(self, c: RationalLike) -> "Polynomial":
        """Return q with q(t) = p(t + c).  With c = u/v and p = A/d, the
        integer polynomial v^n A(s/v) is Taylor-shifted by u in s, in place
        by Horner's rule, and q_j = (shifted)_j v^j / (d v^n).  Only
        ``c.numerator`` and ``c.denominator`` are read, and v may be any
        nonzero integer."""
        u, v = c.numerator, c.denominator
        a = self.numerators
        n = len(a) - 1
        powers = [v**k for k in range(n + 1)]
        a = _taylor_shift([x * powers[n - j] for j, x in enumerate(a)], u)
        return Polynomial(
            [x * powers[j] for j, x in enumerate(a)], self.denominator * powers[n]
        )

    def monic(self) -> "Polynomial":
        if self.is_zero:
            raise ValueError("zero polynomial has no monic form")
        return Polynomial(self.numerators, self.numerators[-1])


def with_factors(
    p: Polynomial, factors: Iterable[tuple[Polynomial, int, int]]
) -> Polynomial:
    """p, recorded as lc * prod f(s t)^m over ``factors``' (f, m, s), which
    the caller guarantees.  An (f, s) may repeat; the readers, not the
    recipe that only prints p, pay for finding equal ones."""
    vars(p)["factors"] = tuple(factors)
    return p


# The integer kernel works on sequences of Python ints, constant term first,
# with no trailing zeros ([] is zero): a Polynomial's numerators, which its
# denominator only scales.


def _taylor_shift(a: Sequence[int], u: int) -> list[int]:
    """The coefficients of a(t + u), by Horner's rule on a copy."""
    a = list(a)
    n = len(a) - 1
    for i in range(n - 1, -1, -1):
        for j in range(i, n):
            a[j] += u * a[j + 1]
    return a


def _primitive(a: Sequence[int]) -> Sequence[int]:
    """a divided by its content, which is taken positive: signs survive."""
    g = gcd(*a)
    return [x // g for x in a] if g > 1 else a


def _derivative(a: Sequence[int]) -> list[int]:
    return [j * x for j, x in enumerate(a)][1:]


def _remainder(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Primitive part of the pseudo-remainder of a by b: a positive multiple
    of a mod b.  Each step multiplies by |lc(b)| (over a gcd), never by the
    signed lc, so a Sturm chain built from it keeps every sign."""
    a = list(a)
    m = len(b) - 1
    lead = b[-1]
    while len(a) > m:
        top = a.pop()
        g = gcd(lead, top)
        scale, c = abs(lead) // g, top // g if lead > 0 else -top // g
        shift = len(a) - m
        a = [scale * x for x in a]
        for i in range(m):
            a[shift + i] -= c * b[i]
        while a and not a[-1]:
            a.pop()
    return _primitive(a) if a else a


def _gcd(a: Sequence[int], b: Sequence[int]) -> Sequence[int]:
    """A primitive gcd of a and b by the primitive remainder sequence."""
    while b:
        a, b = b, _remainder(a, b)
    return _primitive(a)


def _exact_quotient(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """a / b for a primitive b that divides a: by Gauss's lemma the
    quotient has integer coefficients, so every division below is exact."""
    a = list(a)
    m = len(b) - 1
    quotient = [0] * (len(a) - m)
    for top in range(len(a) - 1, m - 1, -1):
        c = quotient[top - m] = a[top] // b[-1]
        if c:
            for i in range(m):
                a[top - m + i] -= c * b[i]
    return quotient


def squarefree_decomposition(p: Polynomial) -> list[tuple[Polynomial, int]]:
    """Yun's algorithm: return [(f_i, m_i)] with p = lead * prod f_i^{m_i},
    the f_i monic, squarefree, and pairwise coprime, by ascending m_i.  A p
    squarefree modulo a prime skips the integer chain, tested on s for a p
    that is t^e s(t^2) after its shift to the mean."""
    if p.is_zero:
        raise ValueError("zero polynomial has no squarefree decomposition")
    b = p.numerators
    if len(b) > 1 and _squarefree(p):
        return [(p.monic(), 1)]
    c = _derivative(b)
    a = _gcd(b, c)
    b, c = _exact_quotient(b, a), _exact_quotient(c, a)
    out: list[tuple[Polynomial, int]] = []
    mult = 1
    while len(b) > 1:
        d = [x - y for x, y in zip(c, _derivative(b))]
        while d and not d[-1]:
            d.pop()
        a = _gcd(b, d)
        if len(a) > 1:
            out.append((Polynomial(a, a[-1]), mult))
        b, c = _exact_quotient(b, a), _exact_quotient(d, a)
        mult += 1
    return out


def _squarefree(p: Polynomial) -> bool:
    """True when p is squarefree modulo a prime; False decides nothing.  With
    q(t) = p(t + mean) = t^e s(t^2), p is squarefree iff s(0) != 0 and s is,
    so the test runs on s, of half the degree."""
    if (q := p.mean_shift) is None:
        return _squarefree_mod_prime(p.numerators)
    s = q.numerators[q.degree % 2 :: 2]
    return bool(s[0]) and _squarefree_mod_prime(s)


def _dilated(f: Polynomial, s: int) -> Polynomial:
    """f(s t), made monic."""
    a = f.numerators
    return Polynomial([x * s**j for j, x in enumerate(a)], a[-1] * s ** (len(a) - 1))


def coprime_bases(
    parts: Iterable[tuple[Polynomial, int, int]],
) -> list[tuple[Polynomial, int, int]]:
    """Factor refinement (Bach, Driscoll and Shallit 1993) of monic
    squarefree bases: from parts (g, m, s), each standing for g(s t)^m,
    the (h, k, s) whose h(s t) are pairwise coprime, each h monic and
    squarefree, with the same product of h(s t)^k.  The comparison works
    on the integer vectors of g(s t): equal bases are merged, a pair
    coprime modulo a prime skips its gcd, and otherwise a gcd c splits a
    and b into a/c, c (multiplicities added) and b/c."""
    done: list[list] = []  # [primitive h(s t), k, s, h or None once split]
    for g, m, s in parts:
        b, whole, new = list(_dilated(g, s).numerators), True, []
        for entry in done:
            if len(b) == 1:
                break
            a, k = entry[0], entry[1]
            if a == b:
                entry[1], b = k + m, [1]
            elif not _coprime_mod_prime(a, b):
                c = _gcd(a, b)
                if c[-1] < 0:  # every vector here leads with a positive term
                    c = [-x for x in c]
                if len(c) > 1:
                    entry[0], entry[3] = _exact_quotient(a, c), None
                    new.append([c, k + m, entry[2], None])
                    b, whole = _exact_quotient(b, c), False
        if len(b) > 1:
            new.append([b, m, s, g if whole else None])
        done += new
    out = []
    for a, k, s, h in done:
        if len(a) > 1:  # a split base is h(u) = a(u / s), made monic
            n = len(a) - 1
            out.append((h or Polynomial([x * s ** (n - j) for j, x in enumerate(a)], a[-1]), k, s))
    return out


# A prime below 2^31, so that every product modulo it fits in 62 bits.
_PRIME = 2**31 - 1


def _squarefree_mod_prime(a: Sequence[int]) -> bool:
    """True when a and a' are coprime modulo _PRIME, lc(a) nonzero there:
    then a is squarefree over Q, since a square factor g^2 of a leaves g
    dividing a' (:func:`_coprime_mod_prime`).  False decides nothing."""
    return _coprime_mod_prime(a, _derivative(a))


def _coprime_mod_prime(a: Sequence[int], b: Sequence[int]) -> bool:
    """True when p = _PRIME does not divide lc(a) and gcd(a, b) = 1 modulo
    p.  Then a and b are coprime over Q: a common factor g keeps its degree
    modulo p, since lc(g) divides lc(a), and divides both.  False decides
    nothing."""
    p = _PRIME
    if not a[-1] % p:
        return False
    f, g = [x % p for x in a], [x % p for x in b]
    while any(g):  # Euclid over GF(p): f, g = g, f mod g
        while not g[-1]:
            g.pop()
        inverse = pow(g[-1], -1, p)
        while len(f) >= len(g):
            c = f.pop() * inverse % p
            for i, y in enumerate(g[:-1], len(f) - len(g) + 1):
                f[i] = (f[i] - c * y) % p
        f, g = g, f
    return len(f) == 1


def distinct_root_counts(p: Polynomial) -> tuple[int, int]:
    """(distinct real roots, distinct complex roots) of a nonconstant p.

    Both come from one Sturm chain p, p', -rem, ...: the sign changes of
    its leading terms at -infinity minus those at +infinity count the
    distinct real roots (Sturm's theorem holds without squarefreeness),
    and its last member is gcd(p, p')."""
    f = p.numerators
    chain = _sturm_chain(f, _derivative(f))
    return _cauchy_index(chain), len(f) - len(chain[-1])


def _sturm_chain(f: list[int], g: list[int]) -> list[list[int]]:
    """f, g, -rem, ... down to a gcd of f and g (for a nonzero f)."""
    chain = [f, g]
    while chain[-1]:
        chain.append([-x for x in _remainder(chain[-2], chain[-1])])
    chain.pop()
    return chain


def _cauchy_index(chain: list[list[int]]) -> int:
    """The Cauchy index of chain[1]/chain[0] over the real line: the sign
    changes of the chain's leading terms at -infinity minus those at
    +infinity.  Both ends see the gcd's sign alike, so a common factor
    changes nothing."""
    plus = [g[-1] > 0 for g in chain]
    minus = [s == (len(g) % 2 == 1) for g, s in zip(chain, plus)]
    return sum(map(ne, minus, minus[1:])) - sum(map(ne, plus, plus[1:]))


def _unit_disc_exterior(g: list[int]) -> int:
    """How many distinct roots of a nonzero g lie strictly outside the
    closed unit disc.  y = (1 + w)/(1 - w) maps them onto the roots of
    h(w) = (1 - w)^m g(y) in Re w > 0, and the circle onto the imaginary
    axis; y = -1 goes to infinity, where it drops h's degree.  With h
    squarefree of degree d and i^-d h(iy) = F0(y) + i F1(y), the argument
    principle gives (d + I(F1/F0) - a)/2 of them (Routh and Hurwitz, by
    Cauchy index), where a counts the real roots of gcd(F0, F1), which
    are h's roots on the axis."""
    # y = 2/v - 1 with v = 1 - w: shift g by -1, take v^m g(2/v - 1) as
    # the reversal scaled by 2^j, then substitute v = 1 + x and x = -w.
    k = [x << j for j, x in enumerate(_taylor_shift(g, -1))][::-1]
    h = [-x if j % 2 else x for j, x in enumerate(_taylor_shift(k, 1))]
    while not h[-1]:
        h.pop()
    h = _exact_quotient(h, _gcd(h, _derivative(h)))
    d = len(h) - 1
    f = [x if (d - j) % 4 in (0, 3) else -x for j, x in enumerate(h)]
    f0 = [x if (d - j) % 2 == 0 else 0 for j, x in enumerate(f)]
    f1 = [x if (d - j) % 2 else 0 for j, x in enumerate(f)]
    while f1 and not f1[-1]:
        f1.pop()
    chain = _sturm_chain(f0, f1)
    axis = _cauchy_index(_sturm_chain(chain[-1], _derivative(chain[-1])))
    return (d + _cauchy_index(chain) - axis) // 2


def interpolate(values: Sequence[int]) -> Polynomial:
    """The p of degree < len(values) with p(k) = values[k]."""
    a = list(values)
    n = len(a) - 1
    for level in range(1, n + 1):
        for i in range(n, level - 1, -1):
            a[i] -= a[i - 1]
    return from_differences(a)


def from_differences(a: list[int]) -> Polynomial:
    """The p of degree n < len(a) with Delta^j p(0) = a[j], overwriting a: n! p(t)
    = sum_j a[j] (n!/j!) t(t-1)...(t-j+1) in Z[t] by Horner's rule, over n!."""
    n = len(a) - 1
    scale = 1
    for j in range(n, -1, -1):
        a[j] *= scale
        scale *= j or 1
    for i in range(n - 1, -1, -1):
        for j in range(i, n):
            a[j] -= i * a[j + 1]
    return Polynomial(a, scale)
