"""l-reflexivity: definition, polar and coefficient characterizations."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ehrhartlab.counting import dilation_counter
from ehrhartlab.ehrhart import ehrhart_of
from ehrhartlab.polytopes import (
    OriginNotInteriorError,
    _polar_scaled,
    crosspolytope,
    cube,
    dilate,
    hull2d,
    qn_family,
)
from ehrhartlab.reflexivity import (
    reflexivity_equivalence,
    root_line_reflexivity_consequence,
)
from ehrhartlab.roots import find_roots, parity_necessary_check


def ehr(poly):
    return ehrhart_of(poly, dilation_counter(poly))


def report(poly):
    return reflexivity_equivalence(poly, ehr(poly))


def definition(poly):
    """The definition's verdict and the report's l."""
    r = report(poly)
    return r.def_check, r.index_l


TRIANGLE = [(-1, -1), (-1, 2), (2, -1)]


def test_is_l_reflexive_examples():
    assert definition(cube(2)) == (True, 1)
    assert definition(hull2d(TRIANGLE)) == (True, 1)
    assert definition(dilate(cube(2), 2)) == (False, 2)  # vertices imprimitive


def test_is_l_reflexive_requires_halfspaces():
    """The definition reads the facets, which pn lists too: pn:3's facet
    distances are 1 and 2, so it is not 2-reflexive."""
    from ehrhartlab.polytopes import pn_family

    assert definition(pn_family(3)) == (False, 2)


def test_bipyramids_are_reflexive():
    for n in range(2, 6):
        assert definition(qn_family(n)) == (True, 1)


def test_is_l_reflexive_invariant_under_signed_permutations():
    rng = random.Random(7)
    base = hull2d(TRIANGLE)
    for _ in range(10):
        swap = rng.random() < 0.5
        sx = rng.choice((1, -1))
        sy = rng.choice((1, -1))

        def transform(v):
            x, y = v
            if swap:
                x, y = y, x
            return (sx * x, sy * y)

        image = hull2d([transform(v) for v in base.vertices])
        assert definition(image) == definition(base)


def test_equivalence_on_reflexive_cases():
    for poly in (cube(2), cube(3), hull2d(TRIANGLE), qn_family(3)):
        r = report(poly)
        assert r.agree
        assert r.def_check and r.polar_check and r.coefficient_check
        assert r.index_l == 1


def test_equivalence_coefficient_identity_values():
    r = report(cube(3))
    assert (r.identity_lhs, r.identity_rhs) == (Fraction(12), Fraction(12))
    r = report(hull2d(TRIANGLE))
    assert (r.identity_lhs, r.identity_rhs) == (Fraction(9, 2), Fraction(9, 2))


def test_equivalence_on_mixed_distance_rectangle():
    rectangle = hull2d([(1, 2), (1, -2), (-1, 2), (-1, -2)])
    r = report(rectangle)
    assert r.agree
    assert not (r.def_check or r.polar_check or r.coefficient_check)
    assert not r.coefficient_identity  # distances 1 and 2 break the identity


def test_equivalence_on_equidistant_rhombus_with_imprimitive_vertices():
    # all four edges at lattice distance 2, but (0, +-2) are imprimitive:
    # the raw coefficient identity holds while reflexivity fails, which is
    # exactly why the coefficient check carries the primitivity clause
    rhombus = hull2d([(1, 0), (-1, 0), (0, 2), (0, -2)])
    r = report(rhombus)
    assert r.agree
    assert not (r.def_check or r.polar_check or r.coefficient_check)
    assert r.coefficient_identity
    assert not r.vertices_primitive
    assert r.index_l == 2
    assert (r.identity_lhs, r.identity_rhs) == (Fraction(2), Fraction(2))


def test_equivalence_on_doubled_cube():
    doubled = dilate(cube(2), 2)
    r = report(doubled)
    assert r.agree
    assert not r.def_check
    assert r.coefficient_identity and not r.vertices_primitive


def test_equivalence_requires_interior_origin():
    shifted = hull2d([(0, 0), (3, 0), (0, 3)])
    with pytest.raises(OriginNotInteriorError):
        report(shifted)


def test_random_polygon_three_way_agreement():
    rng = random.Random(1729)
    accepted = 0
    attempts = 0
    while accepted < 50 and attempts < 5000:
        attempts += 1
        pts = [
            (rng.randint(-4, 4), rng.randint(-4, 4))
            for _ in range(rng.randint(3, 8))
        ]
        try:
            polygon = hull2d(pts)
        except ValueError:
            continue
        if any(h.rhs < 1 for h in polygon.halfspaces):
            continue
        r = report(polygon)  # raises RuntimeError on disagreement
        assert r.agree
        accepted += 1
    assert accepted >= 50


@st.composite
def lattice_points(draw):
    r = draw(st.sampled_from([1, 2, 3]))
    coordinate = st.integers(-r, r)
    return draw(st.lists(st.tuples(coordinate, coordinate), min_size=3, max_size=8))


@given(lattice_points())
@settings(max_examples=200, deadline=None)
def test_hibi_reflexive_iff_ehrhart_palindromic(points):
    """Hibi (Combinatorica 1992): a lattice polytope with the origin interior
    is reflexive iff L(-1-k) = (-1)^n L(k), the parity test at a = 2."""
    try:
        polygon = hull2d(points)
    except ValueError:  # fewer than three distinct points, or collinear
        assume(False)
    assume(all(h.rhs >= 1 for h in polygon.halfspaces))  # origin interior
    r = report(polygon)
    assert (r.def_check and r.index_l == 1) == parity_necessary_check(r.ehr, 2)


def test_polar_side_matches_an_actual_polar_hull():
    # the scaled polar at l = index is a lattice polygon: hulling its vertices
    # and asking whether THAT polygon is l-reflexive must agree with polar_check
    cases = [
        cube(2),
        hull2d(TRIANGLE),
        hull2d([(1, 0), (-1, 0), (0, 2), (0, -2)]),
        dilate(cube(2), 2),
    ]
    from ehrhartlab.polytopes import index

    for poly in cases:
        l = index(poly)
        r = report(poly)
        dual_hull = hull2d(_polar_scaled(poly.halfspaces, l))
        assert r.polar_check == (definition(dual_hull) == (True, l))


def test_reflexive_polygon_polar_round_trip():
    triangle = hull2d(TRIANGLE)
    dual = hull2d(_polar_scaled(triangle.halfspaces, 1))
    dual_ehr = ehr(dual)
    r = reflexivity_equivalence(dual, dual_ehr)
    assert r.def_check and r.index_l == 1
    # and the dual's dual is the original vertex set
    assert set(_polar_scaled(dual.halfspaces, 1)) == set(triangle.vertices)


def test_root_line_consequence_cube():
    for n in (2, 3, 4):
        c = cube(n)
        e = ehr(c)
        assert root_line_reflexivity_consequence(c, e, find_roots(e.poly))


def test_root_line_consequence_triangle_is_vacuous():
    triangle = hull2d(TRIANGLE)
    e = ehr(triangle)
    rs = find_roots(e.poly)
    # hypothesis fails (roots -1/3 and -2/3), so the implication is vacuous
    assert root_line_reflexivity_consequence(triangle, e, rs)


def test_root_line_consequence_doubled_cube():
    doubled = dilate(cube(2), 2)
    e = ehr(doubled)
    rs = find_roots(e.poly)
    from ehrhartlab.roots import common_real_part

    assert common_real_part(rs, Fraction(1, 4))
    assert root_line_reflexivity_consequence(doubled, e, rs)


def test_root_line_consequence_crosspolytope():
    x = crosspolytope(3)
    e = ehr(x)
    assert root_line_reflexivity_consequence(x, e, find_roots(e.poly))
