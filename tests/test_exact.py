"""Exact numerics: Bernoulli numbers, polynomial algebra."""

import sys
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ehrhartlab import exact
from ehrhartlab.exact import (
    Polynomial,
    bernoulli,
    bernoulli_magnitude_bounds,
    distinct_root_counts,
    interpolate,
    squarefree_decomposition,
)

fractions_st = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)


def faulhaber_sum(i, k):
    """sum_{j=0}^{k-1} j^i by the closed Bernoulli form; it holds only with
    B_1 = -1/2."""
    total = sum(
        comb(i + 1, j) * bernoulli(i - j + 1) * Fraction(k) ** j
        for j in range(1, i + 2)
    )
    return total / (i + 1)


def test_bernoulli_base_cases():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(8) == Fraction(-1, 30)
    assert bernoulli(3) == 0


def test_bernoulli_odd_indices_vanish():
    for j in range(3, 32, 2):
        assert bernoulli(j) == 0


def test_bernoulli_rejects_negative():
    with pytest.raises(ValueError):
        bernoulli(-1)


def recurrence_bernoulli(count):
    """B_0..B_{count-1} by sum_{m=0}^{j} C(j+1, m) B_m = 0, in Fractions."""
    b = [Fraction(1)]
    for j in range(1, count):
        b.append(-sum(comb(j + 1, m) * x for m, x in enumerate(b)) / (j + 1))
    return b


def test_bernoulli_table_matches_the_recurrence(monkeypatch):
    expected = recurrence_bernoulli(81)
    monkeypatch.setattr(exact, "_BERNOULLI", [])
    # Asked in rising order, the table is rebuilt each time it is too short.
    assert [bernoulli(j) for j in range(81)] == expected
    monkeypatch.setattr(exact, "_BERNOULLI", [])
    assert [bernoulli(j) for j in range(80, -1, -1)] == expected[::-1]


def test_bernoulli_defining_recurrence():
    # sum_{m=0}^{j} C(j+1, m) B_m = 0 for j >= 1
    for j in range(1, 20):
        total = sum(comb(j + 1, m) * bernoulli(m) for m in range(j + 1))
        assert total == 0


@pytest.mark.parametrize("i,k,expected", [(1, 4, 6), (0, 7, 7), (5, 10, 120825)])
def test_faulhaber_examples(i, k, expected):
    assert faulhaber_sum(i, k) == expected


def test_faulhaber_matches_direct_summation():
    for i in range(9):
        for k in range(51):
            assert faulhaber_sum(i, k) == sum(
                Fraction(j) ** i for j in range(k)
            )


def test_magnitude_bounds_bracket_strictly():
    for j in range(1, 16):
        lower, upper = bernoulli_magnitude_bounds(j)
        actual = (-1) ** (j + 1) * bernoulli(2 * j)
        assert lower < actual < upper


def test_magnitude_bounds_named_cases():
    for j, b in ((1, Fraction(1, 6)), (4, Fraction(1, 30))):
        lower, upper = bernoulli_magnitude_bounds(j)
        assert lower < b < upper
    lower, upper = bernoulli_magnitude_bounds(10)
    assert lower < abs(bernoulli(20)) < upper


def test_fraction_arithmetic_stays_canonical():
    a, b = Fraction(6, -4), Fraction(10, 15)
    for value in (a + b, a * b, a - b):
        assert value.denominator > 0
        from math import gcd

        assert gcd(abs(value.numerator), value.denominator) == 1


def newton_interpolate(points):
    """Newton divided differences over Fraction at arbitrary distinct
    abscissae: the oracle for :func:`interpolate` at 0..n."""
    xs = [Fraction(x) for x, _ in points]
    coef = [Fraction(y) for _, y in points]
    n = len(points)
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - level])
    for i in range(n - 2, -1, -1):
        for j in range(i, n - 1):
            coef[j] -= xs[i] * coef[j + 1]
    return Polynomial(coef)


def test_interpolate_line():
    p = interpolate([1, 3])
    assert p.coefficients == (Fraction(1), Fraction(2))


def test_interpolate_square_counts():
    p = interpolate([1, 9, 25])
    assert p.coefficients == (Fraction(1), Fraction(4), Fraction(4))


def test_interpolate_bipyramid3_counts():
    # counts of the 3-dimensional bipyramid at k = 0..3
    p = interpolate([1, 11, 45, 119])
    assert p.coefficients == (
        Fraction(1),
        Fraction(10, 3),
        Fraction(4),
        Fraction(8, 3),
    )


@given(st.lists(st.integers(-(10**12), 10**12), min_size=1, max_size=12))
def test_interpolate_reproduces_ordinates_exactly(values):
    p = interpolate(values)
    assert p.degree < len(values)
    assert [p(k) for k in range(len(values))] == values
    assert p == newton_interpolate(list(enumerate(values)))


def test_poly_shift_examples():
    line = Polynomial([1, 2])
    assert line.shift(Fraction(-1, 2)).coefficients == (
        Fraction(0),
        Fraction(2),
    )
    square = Polynomial([0, 0, 1])
    assert square.shift(1).coefficients == (
        Fraction(1),
        Fraction(2),
        Fraction(1),
    )


@given(st.lists(fractions_st, min_size=1, max_size=7), fractions_st)
def test_poly_shift_round_trip(coeffs, c):
    p = Polynomial(coeffs)
    assert p.shift(c).shift(-c) == p


@given(st.lists(fractions_st, min_size=1, max_size=6), fractions_st)
def test_poly_shift_agrees_with_evaluation(coeffs, x):
    p = Polynomial(coeffs)
    c = Fraction(3, 7)
    assert p.shift(c)(x) == p(x + c)


def fraction_divmod(a, b):
    """Long division over Fraction."""
    rem = list(a.coefficients)
    div = b.coefficients
    if len(rem) < len(div):
        return Polynomial([0]), a
    quot = [Fraction(0)] * (len(rem) - len(div) + 1)
    for top in range(len(rem) - 1, len(div) - 2, -1):
        c = quot[top - len(div) + 1] = rem[top] / div[-1]
        for i, d in enumerate(div):
            rem[top - len(div) + 1 + i] -= c * d
    return Polynomial(quot), Polynomial(rem[: len(div) - 1] or [0])


def fraction_gcd(a, b):
    """Monic gcd over Fraction by Euclid's algorithm."""
    while not b.is_zero:
        a, b = b, fraction_divmod(a, b)[1]
    return a.monic()


def fraction_minus(a, b):
    n = max(len(a.coefficients), len(b.coefficients))
    return Polynomial(a.coefficient(i) - b.coefficient(i) for i in range(n))


def fraction_derivative(p):
    return Polynomial([j * c for j, c in enumerate(p.coefficients)][1:])


def fraction_yun(p):
    """Yun's algorithm over Fraction: the oracle for the integer kernel."""
    p = p.monic()
    dp = fraction_derivative(p)
    a = fraction_gcd(p, dp)
    b, c = fraction_divmod(p, a)[0], fraction_divmod(dp, a)[0]
    d = fraction_minus(c, fraction_derivative(b))
    out, mult = [], 1
    while b.degree > 0:
        ai = fraction_gcd(b, d)
        if ai.degree > 0:
            out.append((ai, mult))
        b, c = fraction_divmod(b, ai)[0], fraction_divmod(d, ai)[0]
        d = fraction_minus(c, fraction_derivative(b))
        mult += 1
    return out


def test_polynomial_gcd_common_factor():
    # gcd((1 + t)(2 + 3t), (1 + t)(t - 1)) is 1 + t up to its sign
    assert exact._gcd([2, 5, 3], [-1, 0, 1]) in ([1, 1], [-1, -1])
    assert exact._gcd([2, 4], [3, 6]) == [1, 2]


def test_squarefree_decomposition_recovers_multiplicities():
    root = Polynomial([Fraction(1, 2), 1])
    p = root * root * root * Polynomial([-2, 1])
    parts = squarefree_decomposition(p)
    assert sorted(m for _, m in parts) == [1, 3]
    rebuilt = Polynomial([1])
    for f, m in parts:
        for _ in range(m):
            rebuilt = rebuilt * f
    assert rebuilt == p.monic()


integer_factors_st = st.lists(
    st.tuples(
        st.lists(st.integers(-9, 9), min_size=2, max_size=4).filter(lambda c: c[-1]),
        st.integers(1, 3),
    ),
    min_size=1,
    max_size=4,
)


@given(integer_factors_st, st.integers(-50, 50).filter(bool))
def test_squarefree_decomposition_matches_fraction_yun(factors, scale):
    p = Polynomial([scale])
    for coeffs, m in factors:
        for _ in range(m):
            p = p * Polynomial(coeffs)
    parts = squarefree_decomposition(p)
    assert parts == fraction_yun(p)
    rebuilt = Polynomial([1])
    for f, m in parts:
        assert f.leading_coefficient == 1
        for _ in range(m):
            rebuilt = rebuilt * f
    assert rebuilt == p.monic()


def sturm_case(roots, quadratics, scale):
    """scale * prod (t - r) * prod (t^2 + b t + c)."""
    p = Polynomial([scale])
    for r in roots:
        p = p * Polynomial([-r, 1])
    for b, c in quadratics:
        p = p * Polynomial([c, b, 1])
    return p


# t^2 + b t + c with c > b^2 / 4: no real root
definite_quadratics_st = st.tuples(
    fractions_st, st.fractions(min_value=0, max_value=50, max_denominator=20).filter(bool)
).map(lambda bd: (bd[0], bd[0] ** 2 / 4 + bd[1]))


@given(
    st.lists(fractions_st, max_size=5, unique=True),
    st.lists(definite_quadratics_st, max_size=3, unique=True),
    st.booleans(),
    st.sampled_from([-1, 1]),
    st.integers(1, 10**6),
)
def test_distinct_root_counts_on_real_and_definite_factors(
    roots, quadratics, mirrored, sign, size
):
    if mirrored:
        # p(-t) = +-p(t), as for the polynomial common_real_part counts: its
        # chain skips steps on the zero coefficients
        roots = list({r for x in roots for r in (x, -x)})
        quadratics = list({(Fraction(0), c) for _, c in quadratics})
    p = sturm_case(roots, quadratics, sign * size)
    if p.degree == 0:
        p = p * Polynomial([0, 1])
        roots = [0]
    assert distinct_root_counts(p) == (len(roots), len(roots) + 2 * len(quadratics))
    # repeated factors change neither count
    assert distinct_root_counts(p * p) == distinct_root_counts(p)


def test_distinct_root_counts_keeps_signs():
    # -3 (t - 2)(t + 2): a pseudo-remainder multiplied by the signed leading
    # coefficient -6 of p' flips the last sign of the chain and counts 0
    assert distinct_root_counts(sturm_case([2, -2], [], -3)) == (2, 2)


# A test-local reference: polynomials as lists of Fractions, constant term
# first, with the trailing zeros stripped ([Fraction(0)] is zero).


def ref_trim(coeffs):
    coeffs = [Fraction(c) for c in coeffs]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs or [Fraction(0)]


def ref_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_trim(out)


def ref_shift(a, c):
    """sum_j a_j (t + c)^j, expanded by the binomial theorem."""
    out = [Fraction(0)] * len(a)
    for j, x in enumerate(a):
        for i in range(j + 1):
            out[i] += x * comb(j, i) * c ** (j - i)
    return ref_trim(out)


def ref_value(a, x):
    return sum(c * x**j for j, c in enumerate(a))


coefficient_lists_st = st.lists(fractions_st, min_size=1, max_size=7)


@given(coefficient_lists_st, st.integers(-30, 30).filter(bool))
def test_polynomial_form_is_canonical(coeffs, k):
    p = Polynomial(coeffs)
    assert p.denominator > 0
    assert gcd(*p.numerators, p.denominator) == 1
    assert p.numerators[-1] != 0 or p.numerators == (0,)
    assert list(p.coefficients) == ref_trim(coeffs)
    # The same value given another way is the same object up to == and hash.
    for other in (
        Polynomial(coeffs + [0, Fraction(0)]),
        Polynomial([k * x for x in p.numerators], k * p.denominator),
        Polynomial(p.coefficients),
    ):
        assert other == p and hash(other) == hash(p)
    assert (Polynomial(coeffs + [1]) == p) is False


@given(coefficient_lists_st, coefficient_lists_st, fractions_st)
def test_polynomial_algebra_matches_fraction_reference(a, b, x):
    p, q = Polynomial(a), Polynomial(b)
    a, b = ref_trim(a), ref_trim(b)
    assert list((p * q).coefficients) == ref_mul(a, b)
    assert list(p.shift(x).coefficients) == ref_shift(a, x)
    assert p(x) == ref_value(a, x)
    assert [p.coefficient(i) for i in range(len(a) + 2)] == a + [0, 0]
    assert p.leading_coefficient == a[-1]
    if p.is_zero:
        with pytest.raises(ValueError):
            p.monic()
    else:
        assert list(p.monic().coefficients) == [c / a[-1] for c in a]


def fraction_constructions(run):
    """How many Fractions run() builds, counted by the profiler hook."""
    built = []
    code = Fraction.__new__.__code__

    def hook(frame, event, arg):
        if event == "call" and frame.f_code is code:
            built.append(frame)

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return len(built)


def test_integer_kernels_build_no_fraction():
    values = [1, 13, 63, 171, 377]  # the crosspolytope of dimension 4
    squarefree = interpolate(values)
    repeated = sturm_case([Fraction(1, 3), Fraction(1, 3), 2], [(1, 1)], 7)
    shift = Fraction(-1, 2)

    def kernels():
        interpolate(values)
        squarefree.shift(shift)
        repeated.shift(3)
        squarefree_decomposition(squarefree)
        squarefree_decomposition(repeated)
        distinct_root_counts(squarefree)
        distinct_root_counts(repeated)

    assert fraction_constructions(kernels) == 0
    # The hook does see a Fraction built inside the run.
    assert fraction_constructions(lambda: squarefree.coefficients) == 5


def test_squarefree_decomposition_when_the_prime_divides_the_lead():
    # The modular test refuses such a p; Yun's chain still decides.
    p = Polynomial([-1, 0, exact._PRIME])
    assert squarefree_decomposition(p) == [(p.monic(), 1)]
    assert not exact._squarefree_mod_prime(p.numerators)
