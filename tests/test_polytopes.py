"""Polytope representations, family constructors, hulls, and polarity."""

import itertools
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ehrhartlab.counting import count_pn_sliced, dilation_counter
from ehrhartlab.ehrhart import ehrhart_of
from ehrhartlab.polytopes import (
    Halfspace,
    LatticePolytope,
    OriginNotInteriorError,
    _hull_chain,
    _polar_scaled,
    _require_interior_halfspaces,
    crosspolytope,
    cube,
    dilate,
    hull2d,
    index,
    is_primitive,
    list_sizes,
    pn_family,
    product,
    qn_family,
)
from ehrhartlab.reflexivity import reflexivity_equivalence

point2 = st.tuples(st.integers(-6, 6), st.integers(-6, 6))


def dot(u, v):
    """A half-space h holds at x iff dot(h.normal, x) <= h.rhs, tightly iff ==."""
    return sum(a * b for a, b in zip(u, v))


def test_cube_segment():
    c1 = cube(1)
    assert set(c1.vertices) == {(-1,), (1,)}
    assert len(c1.halfspaces) == 2


def test_cube_square():
    c2 = cube(2)
    assert len(c2.vertices) == 4
    assert len(c2.halfspaces) == 4
    assert all(h.rhs == 1 for h in c2.halfspaces)


def test_cube_seven():
    c7 = cube(7)
    assert len(c7.vertices) == 128


def test_crosspolytope_matches_cube_in_dim_one():
    assert set(crosspolytope(1).vertices) == set(cube(1).vertices)


def test_crosspolytope_diamond():
    x2 = crosspolytope(2)
    assert set(x2.vertices) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    assert {h.normal for h in x2.halfspaces} == {
        (1, 1),
        (1, -1),
        (-1, 1),
        (-1, -1),
    }


def test_crosspolytope_octahedron():
    x3 = crosspolytope(3)
    assert len(x3.vertices) == 6
    assert len(x3.halfspaces) == 8


def test_family_constructors_reject_degenerate_dimensions():
    with pytest.raises(ValueError):
        cube(0)
    with pytest.raises(ValueError):
        crosspolytope(0)
    with pytest.raises(ValueError):
        pn_family(1)
    with pytest.raises(ValueError):
        qn_family(1)


def test_hybrid_generator_counts():
    p7 = pn_family(7)
    assert len(p7.vertices) == 64 + 2 * 12
    assert len(p7.halfspaces) == 2 * 3**6 - 2 * 7 + 2 == 1446


def test_bipyramid_generators_and_facets():
    q3 = qn_family(3)
    assert len(q3.vertices) == 4 + 2
    assert len(q3.halfspaces) == 8
    assert all(h.rhs == 1 for h in q3.halfspaces)


def test_families_are_centrally_symmetric():
    for poly in (pn_family(4), qn_family(4), cube(3), crosspolytope(3)):
        vertex_set = set(poly.vertices)
        assert {tuple(-c for c in v) for v in vertex_set} == vertex_set


def test_product_of_segments_is_square():
    pr = product(cube(1), cube(1))
    assert pr.dimension == 2
    assert set(pr.vertices) == set(cube(2).vertices)
    assert {(h.normal, h.rhs) for h in pr.halfspaces} == {
        (h.normal, h.rhs) for h in cube(2).halfspaces
    }


def test_product_lifts_pn_halfspaces():
    pr = product(pn_family(3), cube(2))
    assert pr.dimension == 5
    assert len(pr.halfspaces) == 14 + 4
    assert set(pr.halfspaces) >= {Halfspace(h.normal + (0, 0), h.rhs)
                                  for h in pn_family(3).halfspaces}
    assert len(pr.vertices) == len(pn_family(3).vertices) * 4


def test_dilate_scales_vertices_and_rhs():
    d = dilate(cube(2), 3)
    assert set(d.vertices) == {(3, 3), (3, -3), (-3, 3), (-3, -3)}
    assert all(h.rhs == 3 for h in d.halfspaces)
    assert d.family.scale == 3


def test_dilate_of_crosspolytope():
    d = dilate(crosspolytope(2), 2)
    assert set(d.vertices) == {(2, 0), (-2, 0), (0, 2), (0, -2)}


def test_dilate_rejects_zero():
    with pytest.raises(ValueError):
        dilate(cube(2), 0)


def test_dilate_by_index_gives_imprimitive_vertices():
    d = dilate(cube(2), 2)
    assert index(d) == 2
    assert all(not is_primitive(v) for v in d.vertices)


def test_halfspace_requires_primitive_normal():
    with pytest.raises(ValueError):
        Halfspace((2, 4), 3)
    with pytest.raises(ValueError):
        Halfspace((0, 0), 1)


@pytest.mark.parametrize(
    "normal, rhs",
    [
        ((1.7, 0), 2),
        ((1, 0), 2.9),
        ((Fraction(1, 2), 1), 1),
        ((1, 0), Fraction(4, 2)),
        ((1.0, 0), 1),
    ],
)
def test_halfspace_refuses_non_integers(normal, rhs):
    """Half-spaces hold ints: a float or a Fraction, even an integral one, is
    refused rather than truncated ((1.7, 0).x <= 2.9 used to become x <= 2)."""
    with pytest.raises(ValueError, match="not integral"):
        Halfspace(normal, rhs)


def test_halfspace_takes_bools_and_numpy_integers_as_ints():
    np = pytest.importorskip("numpy")
    h = Halfspace((np.int64(1), True), np.int32(3))
    assert h == Halfspace((1, 1), 3)
    assert all(type(c) is int for c in (*h.normal, h.rhs))


@pytest.mark.parametrize(
    "bad", [(0.5, 0), (Fraction(1, 2), 0), (Fraction(2, 1), 0), (1.0, 2)]
)
def test_polytopes_refuse_non_integer_vertices(bad):
    """hull2d used to turn Fraction(1, 2) into 0; every explicit polytope now
    refuses a non-integer coordinate."""
    with pytest.raises(ValueError, match="must be integers"):
        hull2d([bad, (3, 0), (0, 3)])
    with pytest.raises(ValueError, match="must be integers"):
        LatticePolytope(2, ((3, 0), (0, 3), bad), (Halfspace((1, 1), 3),))
    with pytest.raises(ValueError, match="must be integers"):
        LatticePolytope(3, ((0, 0, 0), (*bad, 1)))


def test_polytope_validation_catches_violations():
    with pytest.raises(ValueError):
        LatticePolytope(2, ((2, 0),), (Halfspace((1, 0), 1),))
    with pytest.raises(ValueError):
        # valid but tight nowhere: redundant half-space
        LatticePolytope(2, ((0, 0),), (Halfspace((1, 0), 5),))


def test_is_primitive():
    assert is_primitive((2, 3))
    assert not is_primitive((2, 4))
    assert not is_primitive((0, 0, 5))
    with pytest.raises(ValueError):
        is_primitive((0, 0))


def test_index_examples():
    assert index(cube(3)) == 1
    assert index(dilate(cube(2), 2)) == 2
    triangle = hull2d([(-1, -1), (-1, 2), (2, -1)])
    assert index(triangle) == 1


def test_index_requires_halfspaces_and_interior_origin():
    """Every polytope has its half-spaces: a 3-D one without them is refused
    when it is built, and pn:3's facet distances are 1 and 2."""
    with pytest.raises(ValueError, match="needs at least 4 half-spaces, not 0"):
        LatticePolytope(3, ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert index(pn_family(3)) == 2
    unit_square = hull2d([(0, 0), (1, 0), (0, 1), (1, 1)])
    with pytest.raises(OriginNotInteriorError):
        index(unit_square)


def test_hull2d_unit_square():
    square = hull2d([(0, 0), (1, 0), (0, 1), (1, 1)])
    assert set(square.vertices) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    assert len(square.halfspaces) == 4


def test_hull2d_triangle_halfspaces():
    triangle = hull2d([(-1, -1), (-1, 2), (2, -1)])
    assert {(h.normal, h.rhs) for h in triangle.halfspaces} == {
        ((-1, 0), 1),
        ((0, -1), 1),
        ((1, 1), 1),
    }


def test_hull2d_drops_interior_points():
    square = hull2d([(1, 1), (1, -1), (-1, 1), (-1, -1), (0, 0)])
    assert set(square.vertices) == set(cube(2).vertices)


def test_hull2d_rejects_degenerate_input():
    with pytest.raises(ValueError):
        hull2d([(0, 0), (1, 1)])
    with pytest.raises(ValueError):
        hull2d([(0, 0), (1, 1), (2, 2), (3, 3)])


def test_polygon_is_stored_as_its_hull():
    """Whatever list a polygon is given, with or without its hull's edges,
    it keeps the hull: the reflexivity test must not read a point that is
    no vertex (here the origin, which is neither primitive nor imprimitive)."""
    hull = hull2d([(-1, -1), (1, -1), (1, 1), (-1, 1)])
    # Shuffled, with a repeat, an edge midpoint and the origin.
    listed = ((1, 1), (0, 0), (-1, 1), (1, 0), (1, -1), (1, 1), (-1, -1))
    for given in (hull.halfspaces[::-1], None):
        polygon = LatticePolytope(2, listed, given)
        assert polygon.vertices == hull.vertices
        assert set(polygon.halfspaces) == set(hull.halfspaces)
        assert polygon.halfspaces == (given or hull.halfspaces)  # kept as given
        r = reflexivity_equivalence(polygon, ehrhart_of(polygon, dilation_counter(polygon)))
        assert (r.def_check, r.index_l) == (True, 1)


def test_polygon_halfspaces_must_be_the_hull_edges():
    square = [(-1, -1), (1, -1), (1, 1), (-1, 1)]
    edges = hull2d(square).halfspaces
    for given in (edges[1:], edges + (Halfspace((1, 1), 2),), ()):
        with pytest.raises(ValueError, match="not the edges"):
            LatticePolytope(2, square, given)


def test_segment_is_stored_as_its_ends():
    ends = ((-2,), (3,))
    facets = (Halfspace((1,), 3), Halfspace((-1,), 2))
    segment = LatticePolytope(1, ((3,), (0,), (-2,), (3,)))
    assert (segment.vertices, segment.halfspaces) == (ends, facets)
    assert LatticePolytope(1, ends, facets[::-1]).halfspaces == facets[::-1]  # kept as given
    assert dilate(segment, 2) == LatticePolytope(1, ((-4,), (6,)))
    for given in (facets[:1], facets + (Halfspace((1,), 4),), (Halfspace((1,), 4), facets[1]), ()):
        with pytest.raises(ValueError, match="not the ends"):
            LatticePolytope(1, ends, given)
    with pytest.raises(ValueError, match="two distinct points"):
        LatticePolytope(1, ((1,), (1,)))


@given(st.lists(point2, min_size=3, max_size=12))
def test_hull2d_halfspaces_contain_all_input_points(points):
    """Every input point satisfies every hull half-space, and each edge,
    built without Halfspace's checks, passes them: plain ints, primitive
    normal."""
    try:
        hull = hull2d(points)
    except ValueError:
        return  # degenerate input
    for p in points:
        for h in hull.halfspaces:
            assert dot(h.normal, p) <= h.rhs
    for h in hull.halfspaces:
        assert h == Halfspace(h.normal, h.rhs) and type(h) is Halfspace
        assert all(type(c) is int for c in (*h.normal, h.rhs))


@given(st.lists(point2, min_size=3, max_size=12))
def test_hull2d_each_edge_tight_at_exactly_two_vertices(points):
    try:
        hull = hull2d(points)
    except ValueError:
        return
    for h in hull.halfspaces:
        assert sum(1 for v in hull.vertices if dot(h.normal, v) == h.rhs) == 2


def _segment_points(p, q):
    """The lattice points on the segment from p to q, ends included."""
    g = gcd(q[0] - p[0], q[1] - p[1])
    if g == 0:
        return [p]
    step = ((q[0] - p[0]) // g, (q[1] - p[1]) // g)
    return [(p[0] + j * step[0], p[1] + j * step[1]) for j in range(g + 1)]


@given(st.lists(point2, min_size=1, max_size=10), st.data())
def test_hull_chain_is_hull2d_vertices(points, data):
    """The chain the Pick counter reads is hull2d's vertex list, whatever
    the order of the input, its repeats and its collinear points."""
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(points),
                                         st.sampled_from(points)), max_size=4))
    extra = [x for p, q in pairs for x in _segment_points(p, q)]
    extra += data.draw(st.lists(st.sampled_from(points), max_size=4))
    mixed = data.draw(st.permutations(points + extra))
    try:
        expected = hull2d(points).vertices
    except ValueError:  # fewer than three points, or all collinear
        with pytest.raises(ValueError):
            _hull_chain(mixed)
        return
    chain = _hull_chain(mixed)
    assert chain == expected
    assert chain[0] == min(points)
    for u, v, w in zip(chain, chain[1:] + chain[:1], chain[2:] + chain[:2]):
        # a strict left turn at every vertex: counterclockwise, no collinear middle
        assert (v[0] - u[0]) * (w[1] - u[1]) - (v[1] - u[1]) * (w[0] - u[0]) > 0


def test_hull_chain_drops_collinear_boundary_points():
    square = [(x, y) for x in range(-2, 3) for y in (-2, 2)] + [(-2, 0), (2, 1)]
    assert _hull_chain(square) == ((-2, -2), (2, -2), (2, 2), (-2, 2))
    with pytest.raises(ValueError, match="collinear"):
        _hull_chain(_segment_points((-3, 1), (3, -1)))


def test_polar_of_cube_is_crosspolytope():
    assert set(_polar_scaled(cube(3).halfspaces, 1)) == set(crosspolytope(3).vertices)


def test_polar_applied_twice_returns_cube_vertices():
    once = _polar_scaled(cube(4).halfspaces, 1)
    assert set(once) == set(crosspolytope(4).vertices)
    # the polar's vertex set is the crosspolytope's, whose polar is the cube
    back = _polar_scaled(crosspolytope(4).halfspaces, 1)
    assert set(back) == set(cube(4).vertices)


def test_polar_of_triangle():
    triangle = hull2d([(-1, -1), (-1, 2), (2, -1)])
    assert set(_polar_scaled(triangle.halfspaces, 1)) == {(0, -1), (1, 1), (-1, 0)}


def test_polar_refuses_an_l_that_is_not_a_multiple_of_every_distance():
    rhombus = hull2d([(1, 0), (-1, 0), (0, 2), (0, -2)])  # every edge at distance 2
    with pytest.raises(ValueError, match="^facet distance 2 does not divide l = 1$"):
        _polar_scaled(rhombus.halfspaces, 1)
    with pytest.raises(ValueError, match="^facet distance 2 does not divide l = 3$"):
        _polar_scaled(rhombus.halfspaces, 3)
    assert set(_polar_scaled(rhombus.halfspaces, 2)) == {(2, 1), (-2, 1), (-2, -1), (2, -1)}
    assert all(type(c) is int for v in _polar_scaled(rhombus.halfspaces, 4) for c in v)


def test_polar_requires_interior_origin():
    # the reflexivity report takes the polar of the half-spaces this guard returns
    unit_square = hull2d([(0, 0), (2, 0), (0, 2), (2, 2)])
    with pytest.raises(OriginNotInteriorError):
        _require_interior_halfspaces(unit_square)


@pytest.mark.parametrize(
    "poly",
    [
        product(cube(2), crosspolytope(2)),
        pn_family(3),
        qn_family(3),
        product(hull2d([(-1, -1), (-1, 2), (2, -1)]), pn_family(2)),
    ],
)
def test_dilated_family_lists_are_scaled_lists(poly):
    for s in (2, 3):
        scaled = dilate(poly, s)
        assert scaled.family.scale == s
        assert scaled.vertices == tuple(
            tuple(s * c for c in v) for v in poly.vertices
        )
        assert scaled.halfspaces == tuple(
            Halfspace(h.normal, s * h.rhs) for h in poly.halfspaces
        )


def test_family_lists_are_built_per_read_and_not_kept():
    for poly in (cube(3), qn_family(3), dilate(product(cube(1), pn_family(2)), 2)):
        fields = dict(vars(poly))
        assert poly.vertices == poly.vertices
        assert poly.halfspaces == poly.halfspaces
        assert vars(poly) == fields  # the polytope still holds only its recipe


def test_list_sizes_match_the_built_lists():
    triangle = hull2d([(-1, -1), (-1, 2), (2, -1)])
    for poly in (
        cube(3), crosspolytope(4), pn_family(2), pn_family(4), qn_family(4),
        triangle, dilate(triangle, 2), product(triangle, cube(2)),
        product(pn_family(3), cube(1)), dilate(product(qn_family(3), cube(2)), 2),
        *map(pn_family, range(2, 9)), product(pn_family(3), cube(2)),
        dilate(pn_family(4), 2),
    ):
        assert list_sizes(poly) == (len(poly.vertices), len(poly.halfspaces))


def test_list_sizes_of_huge_families_build_no_lists():
    big = dilate(product(cube(40), crosspolytope(40)), 3)  # 2^40 * 80 vertices
    assert big.dimension == 80 and big.family.scale == 3
    assert list_sizes(big) == (2**40 * 80, 80 + 2**40)
    assert list_sizes(pn_family(60)) == (2**59 + 4 * 59, 2 * 3**59 - 118)


@pytest.mark.parametrize("n", range(2, 7))
def test_pn_facets_cut_out_the_sliced_counts(n):
    """pn's half-spaces, read as a membership test on the box [-k, k]^n,
    admit exactly the lattice points that the slice formula counts."""
    for k in (1, 2, 3):
        hs = dilate(pn_family(n), k).halfspaces
        normals = np.array([h.normal for h in hs]).T
        rhs = np.array([h.rhs for h in hs])
        box = np.array(list(itertools.product(range(-k, k + 1), repeat=n)))
        inside = sum(np.count_nonzero((block @ normals <= rhs).all(-1))
                     for block in np.array_split(box, len(box) // 2048 + 1))
        assert inside == count_pn_sliced(n, k)


@pytest.mark.parametrize("n", range(2, 7))
def test_pn_halfspaces_are_facets(n):
    """Each listed half-space holds on every vertex and is tight on a vertex
    set of affine rank n, so it is a facet; no facet is listed twice."""
    p = pn_family(n)
    vertices, hs = p.vertices, p.halfspaces
    assert len(set(hs)) == len(hs) == 2 * 3 ** (n - 1) - 2 * n + 2
    for h in hs:
        values = [dot(h.normal, v) for v in vertices]
        assert max(values) == h.rhs
        tight = [v + (1,) for v, value in zip(vertices, values) if value == h.rhs]
        assert np.linalg.matrix_rank(np.array(tight)) == n


def test_family_halfspace_normals_are_primitive():
    for poly in (cube(3), crosspolytope(3), qn_family(4)):
        for h in poly.halfspaces:
            assert is_primitive(h.normal)


def test_family_halfspaces_are_valid_and_irredundant():
    # family lists are built unvalidated, so check them here:
    # every vertex satisfies every half-space and each is tight somewhere
    for poly in (cube(3), crosspolytope(4), qn_family(4), dilate(cube(2), 3)):
        for h in poly.halfspaces:
            assert all(dot(h.normal, v) <= h.rhs for v in poly.vertices)
            assert any(dot(h.normal, v) == h.rhs for v in poly.vertices)


def test_product_halfspaces_validate_against_product_vertices():
    pr = product(cube(2), crosspolytope(2))
    for h in pr.halfspaces:
        assert all(dot(h.normal, v) <= h.rhs for v in pr.vertices)
        assert any(dot(h.normal, v) == h.rhs for v in pr.vertices)
