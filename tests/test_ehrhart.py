"""Ehrhart polynomials: interpolation, closed forms, products, facets."""

import random
from fractions import Fraction
from math import comb, gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ehrhartlab.counting import (
    count_box_scan,
    count_minkowski_dp,
    count_pn_sliced,
    count_qn_closed,
    dilation_counter,
    oracle_for,
)
from ehrhartlab.ehrhart import (
    EhrhartPolynomial,
    _binomial_row,
    ehrhart_from_recipe,
    ehrhart_of,
    pn_h_star,
    product_coefficients,
    qn_coefficients,
    qn_first_coefficient,
    qn_growth_check,
)
from ehrhartlab.exact import Polynomial
from ehrhartlab.polytopes import (
    FamilyTag,
    Halfspace,
    LatticePolytope,
    crosspolytope,
    cube,
    dilate,
    hull2d,
    pn_family,
    product,
    qn_family,
)
from ehrhartlab.verification import HYBRID7_COEFFICIENTS
from test_polytopes import dot

HYBRID7 = (
    Fraction(1),
    Fraction(1534, 105),
    Fraction(3188, 45),
    Fraction(7112, 45),
    Fraction(1756, 9),
    Fraction(7004, 45),
    Fraction(4952, 45),
    Fraction(15656, 315),
)


def ehr(poly):
    return ehrhart_of(poly, dilation_counter(poly))


def test_cube_coefficients_are_binomial_times_power():
    for n in range(1, 7):
        e = ehr(cube(n))
        assert e.coefficients == tuple(
            Fraction(2**i * comb(n, i)) for i in range(n + 1)
        )


def test_hybrid7_polynomial_exact():
    assert ehr(pn_family(7)).coefficients == HYBRID7


def test_diamond_polynomial():
    e = ehr(qn_family(2))
    assert e.coefficients == (Fraction(1), Fraction(2), Fraction(2))


def test_ehrhart_invariant_violations_raise():
    with pytest.raises(ValueError):
        EhrhartPolynomial(3, Polynomial([1, 2, 1]))  # degree 2 != 3
    with pytest.raises(ValueError):
        EhrhartPolynomial(2, Polynomial([2, 2, 1]))  # constant term 2
    with pytest.raises(ValueError):
        EhrhartPolynomial(2, Polynomial([1, 2, -1]))  # negative leading


def test_ehrhart_of_flags_bad_counter():
    with pytest.raises(ValueError):
        # constant counter interpolates to degree 0, not 2
        ehrhart_of(cube(2), lambda k: 9)


def test_closed_coefficients_match_box_scan_interpolation():
    for n in range(2, 7):
        counted = ehrhart_of(
            qn_family(n),
            lambda k, n=n: 1
            if k == 0
            else count_box_scan(oracle_for(dilate(qn_family(n), k))),
        )
        assert qn_coefficients(n).coefficients == counted.coefficients


def test_closed_coefficients_match_closed_count_interpolation():
    for n in range(2, 31):
        interp = ehrhart_of(qn_family(n), lambda k, n=n: count_qn_closed(n, k))
        assert qn_coefficients(n).coefficients == interp.coefficients


def test_reference_bipyramid_values():
    assert qn_coefficients(9).coefficient(1) == Fraction(494, 15)
    assert qn_coefficients(11).coefficient(3) == 1976
    assert qn_coefficients(13).coefficient(5) == Fraction(260832, 5)


def test_bipyramid_volume_is_power_over_dimension():
    for n in range(2, 14):
        assert qn_coefficients(n).volume == Fraction(2**n, n)


def test_first_coefficient_closed_form():
    for n in range(2, 21):
        assert qn_first_coefficient(n) == qn_coefficients(n).coefficient(1)
    assert qn_first_coefficient(6) == 10
    assert qn_first_coefficient(2) == 2
    assert qn_first_coefficient(9) == Fraction(494, 15)


def test_first_coefficient_sign_alternates_in_odd_dimensions():
    assert qn_first_coefficient(11) < 0  # (-1)^5 sign
    assert qn_first_coefficient(9) > 0
    assert qn_first_coefficient(13) > 0


def test_growth_check_range():
    for k in range(2, 8):
        assert qn_growth_check(k)
    with pytest.raises(ValueError):
        qn_growth_check(1)


def test_product_convolution_examples():
    seg = ehr(cube(1))
    assert product_coefficients(seg, seg).coefficients == (
        Fraction(1),
        Fraction(4),
        Fraction(4),
    )


def test_product_convolution_matches_product_count():
    pairs = [
        (cube(2), crosspolytope(2)),
        (qn_family(2), cube(1)),
        (pn_family(3), cube(1)),
    ]
    for a, b in pairs:
        convolved = product_coefficients(ehr(a), ehr(b))
        direct = ehr(product(a, b))
        assert convolved.coefficients == direct.coefficients


def test_counterexample_propagates_to_all_higher_dimensions():
    hybrid = ehr(pn_family(7))
    for m in range(1, 6):
        combined = product_coefficients(hybrid, ehr(cube(m)))
        c1 = combined.coefficient(1)
        assert c1 == Fraction(1534, 105) + 2 * m
        assert c1 > 2 * (7 + m)
        # the violation gap is constant in m
        assert c1 - 2 * (7 + m) == Fraction(1534, 105) - 14


def second_coefficient_from_facets(polygon):
    """Oracle for c_1 of a polygon: half the lattice length of its boundary,
    an edge's lattice length being the gcd of its vector's coordinates."""
    if polygon.dimension != 2:
        raise ValueError("facet formula implemented for polygons only")
    total = 0
    for hs in polygon.halfspaces:
        v, *_, w = sorted(v for v in polygon.vertices if dot(hs.normal, v) == hs.rhs)
        total += gcd(w[0] - v[0], w[1] - v[1])
    return Fraction(total, 2)


def test_facet_formula_examples():
    assert second_coefficient_from_facets(cube(2)) == 4
    assert second_coefficient_from_facets(crosspolytope(2)) == 2
    triangle = hull2d([(-1, -1), (-1, 2), (2, -1)])
    assert second_coefficient_from_facets(triangle) == Fraction(9, 2)


def test_facet_formula_rejects_higher_dimensions():
    with pytest.raises(ValueError):
        second_coefficient_from_facets(cube(3))


def test_facet_formula_matches_interpolation_on_random_polygons():
    rng = random.Random(42)
    checked = 0
    while checked < 25:
        pts = [
            (rng.randint(-5, 5), rng.randint(-5, 5))
            for _ in range(rng.randint(3, 9))
        ]
        try:
            polygon = hull2d(pts)
        except ValueError:
            continue
        e = ehr(polygon)
        assert second_coefficient_from_facets(polygon) == e.coefficient(1)
        checked += 1


def test_triangle_polynomial_from_box_scan():
    triangle = hull2d([(-1, -1), (-1, 2), (2, -1)])
    e = ehr(triangle)
    assert e.coefficients == (Fraction(1), Fraction(9, 2), Fraction(9, 2))


def h_star(ehr):
    """The h*-vector read off the polynomial:
    h*_j = sum_{i<=j} (-1)^i C(n+1, i) L(j - i)."""
    n = ehr.dimension
    return [
        sum((-1) ** i * comb(n + 1, i) * ehr(j - i) for i in range(j + 1))
        for j in range(n + 1)
    ]


@st.composite
def polygons(draw):
    coordinate = st.integers(-5, 5)
    points = draw(st.lists(st.tuples(coordinate, coordinate), min_size=3, max_size=8))
    try:
        return hull2d(points)
    except ValueError:  # fewer than three distinct points, or collinear
        assume(False)


bodies = st.recursive(
    st.one_of(
        st.builds(cube, st.integers(1, 12)),
        st.builds(crosspolytope, st.integers(1, 12)),
        st.builds(pn_family, st.integers(2, 12)),
        st.builds(qn_family, st.integers(2, 12)),
        polygons(),
        st.builds(lambda lo, length: LatticePolytope(1, ((lo,), (lo + length,))),
                  st.integers(-5, 5), st.integers(1, 6)),
    ),
    lambda inner: st.one_of(
        st.builds(dilate, inner, st.integers(1, 4)), st.builds(product, inner, inner)
    ),
    max_leaves=3,
)


def recipe_free_count(p, k):
    """#(kP cap Z^n) at s k from the sums, the Minkowski closed form,
    (2sk+1)^n, a segment's box scan and Pick's theorem: never through a
    polynomial, so past the nodes it is no recipe read back."""
    fam, n = p.family, p.dimension
    if fam is None and n == 1:
        return count_box_scan(oracle_for(dilate(p, k))) if k else 1
    if fam is None:  # a polygon: 2A by the shoelace sum, B by edge gcds
        edges = list(zip(p.vertices, p.vertices[1:] + p.vertices[:1]))
        twice_area = sum(ux * vy - vx * uy for (ux, uy), (vx, vy) in edges)
        boundary = sum(gcd(vx - ux, vy - uy) for (ux, uy), (vx, vy) in edges)
        return (twice_area * k * k + boundary * k) // 2 + 1
    sk = fam.scale * k
    if fam.tag is FamilyTag.CUBE:
        return (2 * sk + 1) ** n
    if fam.tag is FamilyTag.CROSSPOLYTOPE:
        return count_minkowski_dp(n, 0, sk)
    if fam.tag is FamilyTag.PN_FAMILY:
        return count_pn_sliced(n, sk)
    if fam.tag is FamilyTag.QN_FAMILY:
        return count_qn_closed(n, sk)
    first, second = fam.factors
    return recipe_free_count(first, sk) * recipe_free_count(second, sk)


@settings(max_examples=80, deadline=None)
@given(bodies)
def test_recipe_polynomial_equals_interpolated_counts(p):
    recipe = ehrhart_from_recipe(p)
    assert recipe == ehrhart_of(p, lambda k: recipe_free_count(p, k))
    assert min(h_star(recipe)) >= 0  # Stanley


def test_recipe_named_values():
    assert ehrhart_from_recipe(pn_family(7)).coefficients == HYBRID7_COEFFICIENTS
    assert ehrhart_from_recipe(cube(3)).coefficients == (1, 6, 12, 8)
    assert ehrhart_from_recipe(dilate(crosspolytope(2), 3)).coefficients == (1, 6, 18)
    triangle = hull2d([(-1, -1), (-1, 2), (2, -1)])
    assert ehrhart_from_recipe(triangle).coefficients == (1, Fraction(9, 2), Fraction(9, 2))


def test_binomial_rows_by_running_product_are_math_comb():
    for n in (0, 1, 2, 7, 400):
        assert _binomial_row(n) == [comb(n, i) for i in range(n + 1)]
    n = 400  # the recipes that read the rows
    assert ehrhart_from_recipe(cube(n)).poly.numerators == tuple(
        comb(n, i) << i for i in range(n + 1)
    )
    cross = ehrhart_from_recipe(crosspolytope(n))
    assert [cross(k) for k in range(3)] == [1, 2 * n + 1, 2 * n * n + 2 * n + 1]


def test_hybrid_h_star_matches_its_counts():
    for n in range(2, 13):
        assert pn_h_star(n) == h_star(ehr(pn_family(n)))


def test_h_star_nonnegative_and_palindromic_where_reflexive():
    for n in range(2, 13):
        assert min(pn_h_star(n)) >= 0
        for p in (cube(n), crosspolytope(n), qn_family(n)):
            h = h_star(ehrhart_from_recipe(p))
            assert min(h) >= 0 and h == h[::-1]


def test_no_recipe_for_json_polytopes_off_the_plane():
    segment = LatticePolytope(1, ((-1,), (2,)), (Halfspace((1,), 2), Halfspace((-1,), 1)))
    simplex = LatticePolytope(3, ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)), (
        Halfspace((-1, 0, 0), 0), Halfspace((0, -1, 0), 0), Halfspace((0, 0, -1), 0),
        Halfspace((1, 1, 1), 1),
    ))
    for p in (simplex, product(simplex, segment), dilate(product(simplex, cube(1)), 2)):
        assert ehrhart_from_recipe(p) is None
    # A segment's recipe is its length: L(k) = 3k + 1 here.
    assert ehrhart_from_recipe(segment).coefficients == (1, 3)
    # (4k + 1)^2 (6k + 1): the doubled square times the doubled segment.
    assert ehrhart_from_recipe(dilate(product(cube(2), segment), 2)).coefficients == (
        1, 14, 64, 96
    )
