"""Exact numerics: Bernoulli numbers, binomials, polynomial algebra."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ehrhartlab.exact import (
    Polynomial,
    bernoulli,
    bernoulli_magnitude_bounds,
    binomial,
    interpolate,
    polynomial_gcd,
    squarefree_decomposition,
)

fractions_st = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)


def faulhaber_sum(i, k):
    """sum_{j=0}^{k-1} j^i by the closed Bernoulli form; it holds only with
    B_1 = -1/2."""
    total = sum(
        binomial(i + 1, j) * bernoulli(i - j + 1) * Fraction(k) ** j
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


def test_bernoulli_defining_recurrence():
    # sum_{m=0}^{j} C(j+1, m) B_m = 0 for j >= 1
    for j in range(1, 20):
        total = sum(binomial(j + 1, m) * bernoulli(m) for m in range(j + 1))
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


def test_binomial_examples():
    assert binomial(7, 1) == 7
    assert binomial(11, 3) == 165
    assert binomial(3, 5) == 0


def test_binomial_pascal_recurrence():
    for n in range(1, 12):
        for k in range(1, n + 1):
            assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


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


def test_interpolate_line():
    p = interpolate([(0, 1), (1, 3)])
    assert p.coefficients == (Fraction(1), Fraction(2))


def test_interpolate_square_counts():
    p = interpolate([(0, 1), (1, 9), (2, 25)])
    assert p.coefficients == (Fraction(1), Fraction(4), Fraction(4))


def test_interpolate_bipyramid3_counts():
    # counts of the 3-dimensional bipyramid at k = 0..3
    p = interpolate([(0, 1), (1, 11), (2, 45), (3, 119)])
    assert p.coefficients == (
        Fraction(1),
        Fraction(10, 3),
        Fraction(4),
        Fraction(8, 3),
    )


def test_interpolate_rejects_duplicates():
    with pytest.raises(ValueError):
        interpolate([(1, 1), (1, 2)])


@given(
    st.lists(fractions_st, min_size=1, max_size=6, unique=True),
    st.data(),
)
def test_interpolate_reproduces_ordinates_exactly(xs, data):
    ys = data.draw(
        st.lists(fractions_st, min_size=len(xs), max_size=len(xs))
    )
    p = interpolate(list(zip(xs, ys)))
    assert p.degree < len(xs)
    for x, y in zip(xs, ys):
        assert p(x) == y


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


def test_polynomial_divmod_identity():
    a = Polynomial([2, 0, -3, 1, 4])
    b = Polynomial([1, 2, 1])
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


def test_polynomial_gcd_common_factor():
    common = Polynomial([1, 1])
    g = polynomial_gcd(common * Polynomial([2, 3]), common * Polynomial([-1, 1]))
    assert g == common.monic()


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
