"""Counting kernels: box scan, slice decompositions, DP, closed forms."""

import itertools
from dataclasses import replace
from math import gcd
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ehrhartlab.cli import polytope_from_json
from ehrhartlab.counting import (
    MembershipOracle,
    count_box_scan,
    count_minkowski_dp,
    count_pn_sliced,
    count_qn_closed,
    dilation_counter,
    oracle_for,
    scan_counter,
)
from ehrhartlab import counting, polytopes
from ehrhartlab.polytopes import (
    LatticePolytope,
    crosspolytope,
    cube,
    dilate,
    hull2d,
    pn_family,
    product,
    qn_family,
)
from ehrhartlab.verification import _deficiency_brute
from test_polytopes import dot


def brute_deficiency_count(m, a, b):
    """Oracle: one Python tuple per point of the box [-(a+b), a+b]^m."""
    r = a + b
    return sum(
        1
        for x in itertools.product(range(-r, r + 1), repeat=m)
        if sum(max(abs(c) - a, 0) for c in x) <= b
    )


def test_cube_oracle_membership():
    oracle = oracle_for(cube(2))
    assert oracle.contains((1, 1))
    assert not oracle.contains((2, 0))


def test_hybrid_oracle_membership():
    oracle = oracle_for(dilate(pn_family(3), 2))
    assert oracle.contains((2, 0, 0))
    assert oracle.contains((2, 1, 1))  # deficiency 1 at height 1
    assert not oracle.contains((2, 2, 1))
    assert not oracle.contains((0, 0, 3))  # above the apex


def test_bipyramid_oracle_membership():
    oracle = oracle_for(dilate(qn_family(3), 1))
    assert oracle.contains((1, 1, 0))
    assert not oracle.contains((1, 1, 1))


def test_oracle_for_bare_polytope_raises():
    bare = LatticePolytope(3, ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)))
    with pytest.raises(ValueError):
        oracle_for(bare)


def test_box_scan_examples():
    assert count_box_scan(oracle_for(cube(2))) == 9
    assert count_box_scan(oracle_for(crosspolytope(3))) == 7
    assert count_box_scan(oracle_for(dilate(qn_family(3), 2))) == 45


def test_box_scan_budget_guard():
    with pytest.raises(ValueError):
        count_box_scan(oracle_for(dilate(pn_family(7), 7)), max_points=10**6)


def test_box_scan_refuses_a_huge_box_with_the_exact_message():
    # (2*10^1000 + 1)^4000 has 13 million bits; the refusal never builds it.
    oracle = MembershipOracle(4000, lambda x: True, 10**1000)
    with pytest.raises(ValueError) as refused:
        count_box_scan(oracle, max_points=10**8)
    assert str(refused.value) == (
        "box scan of (1001-digit number)^4000 points exceeds the budget of "
        "100000000; use a family counter instead"
    )


def test_box_scan_hands_the_oracle_int64_coordinates():
    # The predicate reads int64, so its own arithmetic has the range that
    # the box guard leaves it.
    seen = set()

    def contains(x):
        seen.add(str(x.dtype))
        return x[..., 0] == 0

    assert count_box_scan(MembershipOracle(3, contains, 2)) == 25
    assert seen == {"int64"}


def test_box_scan_past_int32_indexes_in_int64():
    # 2^32 + 1 points, and the radius 2^31 itself does not fit in int32.
    first = []

    def contains(x):
        first.append(int(x[0, 0]))
        raise StopIteration

    with pytest.raises(StopIteration):
        count_box_scan(MembershipOracle(1, contains, 2**31))
    assert first == [-(2**31)]


@pytest.mark.parametrize(
    "radius, dim", [(0, 3), (1, 5), (2, 4), (8, 3), (1, 38), (512, 6), (512, 7), (10**30, 2)]
)
def test_box_scan_guards_decide_on_the_exact_size(radius, dim):
    """side^dim >= 2^low with low = (bits(side) - 1) * dim lets a guard refuse
    before the power is built; that bound never changes which guard fires."""
    side = 2 * radius + 1
    points, low = side**dim, (side.bit_length() - 1) * dim
    oracle = MembershipOracle(dim, lambda x: x[..., 0] == 0, radius)
    for budget in {points - 1, 2**low - 1, 2**low} - {points}:
        with pytest.raises(ValueError, match="exceeds the budget"):
            count_box_scan(oracle, max_points=budget)
    if points >= 2**60:
        with pytest.raises(ValueError, match="too large to index"):
            count_box_scan(oracle, max_points=points)
    else:
        assert count_box_scan(oracle, max_points=points) == points // side


def test_qn_closed_examples():
    assert count_qn_closed(3, 1) == 11
    assert count_qn_closed(9, 1) == 3**8 + 2
    assert count_qn_closed(5, 0) == 1
    assert count_qn_closed(3, 3) == 119


def test_pn_sliced_examples():
    # dimension 2 the construction degenerates to the square
    assert [count_pn_sliced(2, k) for k in range(4)] == [1, 9, 25, 49]
    # value at k=1 equals the polynomial coefficient sum
    from fractions import Fraction

    coeff_sum = (
        Fraction(1)
        + Fraction(1534, 105)
        + Fraction(3188, 45)
        + Fraction(7112, 45)
        + Fraction(1756, 9)
        + Fraction(7004, 45)
        + Fraction(4952, 45)
        + Fraction(15656, 315)
    )
    assert count_pn_sliced(7, 1) == coeff_sum


def test_pn_sliced_matches_polynomial_at_seven():
    from fractions import Fraction

    from ehrhartlab.exact import Polynomial

    poly = Polynomial(
        [
            Fraction(1),
            Fraction(1534, 105),
            Fraction(3188, 45),
            Fraction(7112, 45),
            Fraction(1756, 9),
            Fraction(7004, 45),
            Fraction(4952, 45),
            Fraction(15656, 315),
        ]
    )
    assert count_pn_sliced(7, 7) == poly(7)


def test_minkowski_dp_examples():
    assert count_minkowski_dp(2, 1, 1) == 21
    assert count_minkowski_dp(4, 3, 0) == 7**4
    assert count_minkowski_dp(1, 0, 5) == 11


@given(
    st.integers(1, 4), st.integers(0, 4), st.integers(0, 4)
)
@settings(max_examples=40, deadline=None)
def test_minkowski_dp_matches_brute_force(m, a, b):
    assert count_minkowski_dp(m, a, b) == brute_deficiency_count(m, a, b)


def deficiency_dp(m, a, b):
    """Oracle: the coordinate-by-coordinate DP over the remaining deficiency
    budget; a coordinate with deficiency 0 has 2a+1 choices, one with
    deficiency d in 1..b exactly 2 (namely +-(a+d))."""
    exact = [1] + [0] * b
    for _ in range(m):
        running = 0  # 2 * sum of exact[0..d-1]
        nxt = []
        for d in range(b + 1):
            nxt.append((2 * a + 1) * exact[d] + running)
            running += 2 * exact[d]
        exact = nxt
    return sum(exact)


@given(st.integers(1, 10), st.integers(0, 20), st.integers(0, 40))
@example(10, 0, 40)  # the crosspolytope: the formula's every term counts
@example(10, 20, 3)  # b < m: the sum stops at i = b
def test_minkowski_closed_form_matches_the_dp(m, a, b):
    assert count_minkowski_dp(m, a, b) == deficiency_dp(m, a, b)


def test_pn_sliced_matches_the_dp_slice_sum():
    for n in range(2, 7):
        for k in range(6):
            slices = deficiency_dp(n - 1, k, 0) + 2 * sum(
                deficiency_dp(n - 1, k - j, j) for j in range(1, k + 1)
            )
            assert count_pn_sliced(n, k) == slices


@given(st.integers(1, 3), st.integers(0, 4), st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_deficiency_box_scan_matches_oracle_and_dp(m, a, b):
    """verify-all row 5's NumPy scan against the per-point loop and the DP."""
    count = _deficiency_brute(m, a, b)
    assert count == brute_deficiency_count(m, a, b)
    assert count == count_minkowski_dp(m, a, b)


@given(st.integers(1, 4), st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_minkowski_dp_monotone(m, a, b):
    base = count_minkowski_dp(m, a, b)
    assert count_minkowski_dp(m, a + 1, b) >= base
    assert count_minkowski_dp(m, a, b + 1) >= base


def test_oracle_equivalence_bipyramid_and_hybrid():
    for n in range(2, 5):
        for k in range(4):
            if k == 0:
                assert count_qn_closed(n, 0) == 1
                assert count_pn_sliced(n, 0) == 1
                continue
            q_scan = count_box_scan(oracle_for(dilate(qn_family(n), k)))
            p_scan = count_box_scan(oracle_for(dilate(pn_family(n), k)))
            assert q_scan == count_qn_closed(n, k)
            assert p_scan == count_pn_sliced(n, k)


def test_slice_sums_match_box_totals():
    for n in range(2, 5):
        for k in range(1, 4):
            oracle = oracle_for(dilate(pn_family(n), k))
            per_height = []
            r = oracle.bounding_radius
            for j in range(-k, k + 1):
                per_height.append(
                    sum(
                        1
                        for rest in itertools.product(
                            range(-r, r + 1), repeat=n - 1
                        )
                        if oracle.contains(rest + (j,))
                    )
                )
            assert sum(per_height) == count_pn_sliced(n, k)
            assert per_height == per_height[::-1]


def test_counted_sets_are_centrally_symmetric():
    oracle = oracle_for(dilate(pn_family(3), 2))
    r = oracle.bounding_radius
    members = {
        x
        for x in itertools.product(range(-r, r + 1), repeat=3)
        if oracle.contains(x)
    }
    assert {tuple(-c for c in x) for x in members} == members


def test_oracle_midpoint_convexity():
    oracle = oracle_for(dilate(qn_family(3), 2))
    r = oracle.bounding_radius
    members = [
        x
        for x in itertools.product(range(-r, r + 1), repeat=3)
        if oracle.contains(x)
    ]
    for x in members[::7]:
        for y in members[::11]:
            if all((a + b) % 2 == 0 for a, b in zip(x, y)):
                mid = tuple((a + b) // 2 for a, b in zip(x, y))
                assert oracle.contains(mid)


def test_product_counter_equals_box_scan():
    pr = product(pn_family(3), cube(2))
    fast = dilation_counter(pr)
    for k in range(1, 3):
        scan = count_box_scan(oracle_for(dilate(pr, k)))
        assert fast(k) == scan


def test_dilation_counter_generic_hrep():
    triangle = hull2d([(-1, -1), (-1, 2), (2, -1)])
    counter = dilation_counter(triangle)
    assert [counter(k) for k in range(4)] == [1, 10, 28, 55]


def test_vertex_only_polygon_has_a_membership_oracle():
    polygon = LatticePolytope(2, ((2, -1), (0, 0), (-1, 2), (-1, -1), (2, -1)))
    assert polygon.halfspaces is not None
    pick = dilation_counter(polygon)
    for k in range(1, 5):
        assert count_box_scan(oracle_for(dilate(polygon, k))) == pick(k)


def test_polygon_hull_is_computed_once(monkeypatch):
    listed = ((0, 2), (-1, -1), (2, 0), (0, 0), (1, -1), (0, 2))
    expected = [1] + [count_box_scan(oracle_for(dilate(hull2d(listed), k)))
                      for k in range(1, 6)]
    calls = []
    hull_chain = polytopes._hull_chain

    def counted(points):
        calls.append(points)
        return hull_chain(points)

    monkeypatch.setattr(polytopes, "_hull_chain", counted)
    polygon = LatticePolytope(2, listed)
    assert len(calls) == 1
    counter = dilation_counter(polygon)
    assert [counter(k) for k in range(6)] == expected
    assert len(calls) == 1


def test_dilation_counter_scaled_family():
    counter = dilation_counter(dilate(cube(2), 2))
    assert [counter(k) for k in range(3)] == [1, 25, 81]


@st.composite
def polygons(draw):
    """A random lattice polygon: a hull, its dilate, its product with the
    interval [-1, 1], or a JSON document given with the hull's edges whose
    vertex list is shuffled, repeats a point and lists a lattice point of
    the polygon that may not be a vertex."""
    kind = draw(st.sampled_from(["hull", "dilate", "product", "json"]))
    r = 1 if kind == "product" else 2  # keeps the 3-dimensional scans small
    coordinate = st.integers(-r, r)
    points = draw(
        st.lists(st.tuples(coordinate, coordinate), min_size=3, max_size=7)
    )
    try:
        hull = hull2d(points)
    except ValueError:  # the points do not span the plane
        return draw(st.nothing())
    if kind == "hull":
        return hull
    if kind == "dilate":
        return dilate(hull, draw(st.integers(2, 3)))
    if kind == "product":
        return product(hull, cube(1))
    inside = [q for q in itertools.product(range(-2, 3), repeat=2)
              if all(dot(h.normal, q) <= h.rhs for h in hull.halfspaces)]
    extra = [draw(st.sampled_from(points)), draw(st.sampled_from(inside))]
    listed = draw(st.permutations(points + extra))
    edges = [{"normal": list(h.normal), "rhs": h.rhs} for h in hull.halfspaces]
    return polytope_from_json(
        {"dimension": 2, "vertices": [list(v) for v in listed], "halfspaces": edges}
    )


@given(polygons())
@settings(max_examples=40, deadline=None)
def test_pick_counter_equals_box_scan(polygon):
    fast, slow = dilation_counter(polygon), scan_counter(polygon)
    assert [fast(k) for k in range(7)] == [slow(k) for k in range(7)]


FAMILIES = {"cube": (cube, 1), "cross": (crosspolytope, 1),
            "pn": (pn_family, 2), "qn": (qn_family, 2)}


@st.composite
def families(draw, max_dim=4):
    name = draw(st.sampled_from(sorted(FAMILIES)))
    build, low = FAMILIES[name]
    return build(draw(st.integers(low, max(low, max_dim))))


@st.composite
def scanned_polytopes(draw):
    """A small family polytope, a product of two, or a 3-D JSON polytope
    given with half-spaces (a polygon times [-1, 1], perhaps cut by one
    more supporting half-space), dilated by 1 to 3."""
    kind = draw(st.sampled_from(["family", "product", "json"]))
    if kind == "family":
        p = draw(families())
    elif kind == "product":
        left = draw(families(max_dim=3))
        p = product(left, draw(families(max_dim=4 - left.dimension)))
    else:
        coordinate = st.integers(-2, 2)
        points = draw(st.lists(st.tuples(coordinate, coordinate), min_size=3, max_size=6))
        try:
            polygon = hull2d(points)
        except ValueError:  # the points do not span the plane
            return draw(st.nothing())
        vertices = [v + (z,) for v in polygon.vertices for z in (-1, 1)]
        normals = [h.normal + (0,) for h in polygon.halfspaces] + [(0, 0, 1), (0, 0, -1)]
        normal = draw(st.tuples(coordinate, coordinate, coordinate))
        if draw(st.booleans()) and gcd(*normal) == 1:
            normals.append(normal)
        halfspaces = [
            {"normal": list(n), "rhs": max(sum(map(mul, n, v)) for v in vertices)}
            for n in normals
        ]
        p = polytope_from_json({"dimension": 3, "vertices": [list(v) for v in vertices],
                                "halfspaces": halfspaces})
    scale = draw(st.integers(1, 3 if p.dimension < 4 else 2))
    return dilate(p, scale) if scale > 1 else p


@given(scanned_polytopes())
@example(dilate(qn_family(5), 4))  # 9^3 grid, runs of 4, 4 and 1 of the 2nd coordinate
@example(dilate(pn_family(4), 8))  # 17^2 grid, runs of 14 and 3: a short last run
@example(dilate(cube(1), 10_000))  # 20,001 > 2^14 points: no grid, runs of 2^14 and 3,617
@example(dilate(crosspolytope(3), 2))  # 5^3 points: the whole box in one block
@example(dilate(crosspolytope(7), 2))  # 5^4 grid, runs of 3 and 2, two constant coordinates
@settings(max_examples=60, deadline=None)
def test_box_scan_equals_the_point_by_point_loop(p):
    """The block scan visits every box point once, in order, and each block's
    answers are the oracle's answers for its points one at a time."""
    _assert_scan_is_the_point_by_point_loop(oracle_for(p))


def _assert_scan_is_the_point_by_point_loop(oracle):
    r, d = oracle.bounding_radius, oracle.dimension
    box = list(itertools.product(range(-r, r + 1), repeat=d))
    answers = [bool(oracle.contains(x)) for x in box]
    blocks = []

    def recording(x):
        answer = oracle.contains(x)
        blocks.append((x.tolist(), answer.tolist()))
        return answer

    assert count_box_scan(replace(oracle, contains=recording)) == sum(answers)
    assert [tuple(x) for block, _ in blocks for x in block] == box
    assert [a for _, block_answers in blocks for a in block_answers] == answers


def test_box_scan_with_fewer_block_points_than_a_side(monkeypatch):
    """When a block holds fewer points than one side of the box has, there
    is no grid, and all but the last coordinate stay constant."""
    monkeypatch.setattr(counting, "_BLOCK", 12)  # 2 points of dimension 6
    _assert_scan_is_the_point_by_point_loop(oracle_for(qn_family(6)))
    monkeypatch.setattr(counting, "_BLOCK", 27)  # 4 points of dimension 6
    _assert_scan_is_the_point_by_point_loop(oracle_for(dilate(crosspolytope(6), 2)))


@pytest.mark.parametrize("p", [
    cube(1), dilate(cube(1), 10_000), dilate(cube(2), 100), dilate(pn_family(4), 8),
    dilate(qn_family(5), 4), dilate(crosspolytope(6), 3), dilate(qn_family(6), 2),
    cube(13),
])
def test_box_scan_blocks_hold_at_most_the_block_size(p):
    sizes = []

    def recording(x):
        sizes.append(x.size)
        return oracle.contains(x)

    oracle = oracle_for(p)
    side = 2 * oracle.bounding_radius + 1
    assert count_box_scan(replace(oracle, contains=recording)) == count_box_scan(oracle)
    assert sum(sizes) == side**oracle.dimension * oracle.dimension
    assert max(sizes) <= counting._BLOCK
