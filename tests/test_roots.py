"""Root finding and the coefficient inequality suite."""

import cmath
from fractions import Fraction
from math import comb, gcd, log2

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from ehrhartlab import cli, roots, verification
from ehrhartlab.counting import dilation_counter
from ehrhartlab.ehrhart import (
    EhrhartPolynomial,
    ehrhart_from_recipe,
    ehrhart_of,
    qn_coefficients,
)
from ehrhartlab.exact import Polynomial
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
from ehrhartlab.roots import (
    RootSet,
    braun_disc_check,
    coefficient_ratio_bound,
    common_real_part,
    find_roots,
    parity_necessary_check,
    point_count_bound,
    volume_bound,
    wills_check,
)


CONJUGATION_TOL = 1e-9


def conjugation_closed(rs, tol=CONJUGATION_TOL):
    """Every root with nonzero imaginary part has a matching conjugate."""
    pending = [z for z in rs.roots if abs(z.imag) > tol]
    return all(
        any(abs(w - z.conjugate()) <= 10 * tol * max(1, abs(z)) for w in pending)
        for z in pending
        if z.imag > 0
    )


def nonreal_pair_count(rs, tol=CONJUGATION_TOL):
    """Number of conjugate pairs with nonzero imaginary part."""
    return sum(1 for z in rs.roots if z.imag > tol)


def ehr(poly):
    return ehrhart_of(poly, dilation_counter(poly))


def all_suite_polynomials():
    out = [ehr(cube(n)) for n in range(1, 8)]
    out += [ehr(crosspolytope(n)) for n in range(1, 8)]
    out += [qn_coefficients(n) for n in (5, 9, 11, 13)]
    out.append(ehr(pn_family(7)))
    out.append(ehr(hull2d([(-1, -1), (-1, 2), (2, -1)])))
    return out


def test_find_roots_linear():
    rs = find_roots(Polynomial([1, 2]))
    assert rs.roots == (complex(-0.5),)
    assert rs.residual_bound == 0.0


def test_find_roots_triangle_quadratic():
    rs = find_roots(Polynomial([1, Fraction(9, 2), Fraction(9, 2)]))
    assert len(rs.roots) == 2
    assert abs(rs.roots[0] - (-2 / 3)) < 1e-12
    assert abs(rs.roots[1] - (-1 / 3)) < 1e-12


def test_find_roots_triple_root_is_exact():
    line = Polynomial([1, 2])
    rs = find_roots(line * line * line)
    assert rs.roots == (complex(-0.5),) * 3
    assert rs.poly.degree == 3
    assert rs.residual_bound == 0.0


def test_find_roots_stay_finite_at_high_degree():
    # t^160 - 100^160: its constant term and |z|^160 both exceed float range
    rs = find_roots(Polynomial([-(100**160)] + [0] * 159 + [1]))
    targets = [100 * cmath.exp(2j * cmath.pi * k / 160) for k in range(160)]
    assert len(rs.roots) == 160
    for z in rs.roots:
        assert cmath.isfinite(z)
        assert min(abs(z - w) for w in targets) <= 1e-12 * 100
    assert rs.residual_bound <= 1e-12


def test_find_roots_rejects_constants():
    with pytest.raises(ValueError):
        find_roots(Polynomial([0]))
    with pytest.raises(ValueError):
        find_roots(Polynomial([7]))


def test_find_roots_is_deterministic():
    p = qn_coefficients(9).poly
    assert find_roots(p).roots == find_roots(p).roots


def test_vieta_invariants_on_suite():
    for e in all_suite_polynomials():
        if e.dimension < 1:
            continue
        rs = find_roots(e.poly)
        monic = e.poly.monic()
        root_sum = sum(rs.roots)
        expected_sum = complex(-monic.coefficient(e.dimension - 1))
        assert abs(root_sum - expected_sum) <= 1e-9 * max(1, abs(expected_sum))
        root_prod = 1 + 0j
        for z in rs.roots:
            root_prod *= z
        expected_prod = complex((-1) ** e.dimension * monic.coefficient(0))
        assert abs(root_prod - expected_prod) <= 1e-9 * max(1, abs(expected_prod))


def test_conjugation_closure_on_suite():
    for e in all_suite_polynomials():
        assert conjugation_closed(find_roots(e.poly))


def test_residual_bounds_are_small():
    for e in all_suite_polynomials():
        rs = find_roots(e.poly)
        assert rs.residual_bound <= 1e-8, (e.dimension, rs.residual_bound)


def test_common_real_part_cases():
    assert common_real_part(find_roots(ehr(cube(5)).poly), Fraction(1, 2))
    triangle = ehr(hull2d([(-1, -1), (-1, 2), (2, -1)]))
    assert not common_real_part(find_roots(triangle.poly), Fraction(1, 2))
    doubled = ehr(dilate(cube(2), 2))
    assert common_real_part(find_roots(doubled.poly), Fraction(1, 4))


def line_pair(a, y, off=0):
    """(t + 1/a + off)^2 + y^2: roots -1/a - off +- iy."""
    c = 1 / Fraction(a) + off
    return Polynomial([c * c + y * y, 2 * c, 1])


def test_common_real_part_sees_a_billionth_off_the_line():
    p = line_pair(2, 1) * line_pair(2, 1, Fraction(1, 10**9))
    assert not common_real_part(find_roots(p), Fraction(1, 2))


def test_common_real_part_holds_at_degree_40():
    p = Polynomial([1])
    for j in range(1, 21):
        p = p * line_pair(2, j)
    assert p.degree == 40
    assert common_real_part(find_roots(p), Fraction(1, 2))


small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@given(
    st.sampled_from([Fraction(1), Fraction(2), Fraction(3, 2), Fraction(4)]),
    st.lists(small_fractions, max_size=3),
    st.integers(1, 2),
    st.integers(0, 2),
    st.sampled_from([None, "shifted", "real"]),
    small_fractions.filter(bool),
    small_fractions,
)
def test_common_real_part_is_no_off_line_factor(a, ys, mult, linear, off_line, off, y):
    """Products of on-line pairs (each mult times), linear factors t + 1/a,
    and at most one factor with its roots off Re = -1/a: a pair shifted off
    the line, or two real roots -1/a +- off."""
    on_line = [line_pair(a, y0) for y0 in ys] * mult + [Polynomial([1 / a, 1])] * linear
    p = Polynomial([1])
    for factor in on_line:
        p = p * factor
    if off_line == "shifted":
        p = p * line_pair(a, y, off)
    elif off_line == "real":
        p = p * Polynomial([1 / a + off, 1]) * Polynomial([1 / a - off, 1])
    if p.degree == 0:
        p = Polynomial([1 / a, 1])
    assert common_real_part(find_roots(p), 1 / a) == (off_line is None)


def test_parity_check_on_cube_is_monomial():
    for n in range(1, 7):
        assert parity_necessary_check(ehr(cube(n)), 2)


def test_parity_is_necessary_but_not_sufficient():
    # the exceptional triangle: symmetric about -1/2, roots off the line
    triangle = ehr(hull2d([(-1, -1), (-1, 2), (2, -1)]))
    assert parity_necessary_check(triangle, 2)
    assert not common_real_part(find_roots(triangle.poly), Fraction(1, 2))
    # the 9-dimensional bipyramid: every facet at lattice distance 1 forces
    # the symmetry, yet its coefficient-bound violation moves roots off the
    # line, so this is a second, higher-dimensional necessity-only witness
    q9 = qn_coefficients(9)
    assert parity_necessary_check(q9, 2)
    assert not common_real_part(find_roots(q9.poly), Fraction(1, 2))


def test_parity_fails_for_shifted_line():
    triangle = ehr(hull2d([(-1, -1), (-1, 2), (2, -1)]))
    assert not parity_necessary_check(triangle, 3)


def test_parity_for_doubled_cube_at_a_four():
    assert parity_necessary_check(ehr(dilate(cube(2), 2)), 4)


def test_braun_disc_examples():
    assert braun_disc_check(find_roots(ehr(cube(4)).poly), 4)
    assert braun_disc_check(find_roots(ehr(pn_family(7)).poly), 7)
    triangle = ehr(hull2d([(-1, -1), (-1, 2), (2, -1)]))
    assert braun_disc_check(find_roots(triangle.poly), 2)


def test_wills_check_hybrid_violation():
    verdict = wills_check(ehr(pn_family(7)))
    assert verdict.violations == (1,)
    assert not verdict.overall
    row = verdict.per_index[1]
    assert Fraction(*row.verdict.lhs_terms) == Fraction(1534, 105)
    assert Fraction(*row.verdict.rhs_terms) == 14


def test_wills_check_bipyramid_violations():
    assert 1 in wills_check(qn_coefficients(9)).violations
    assert 3 in wills_check(qn_coefficients(11)).violations
    assert 5 in wills_check(qn_coefficients(13)).violations
    for n in (9, 11, 13):
        verdict = wills_check(qn_coefficients(n))
        assert 0 not in verdict.violations
        assert n not in verdict.violations


def test_wills_check_cube_all_equalities():
    for n in range(1, 11):
        verdict = wills_check(ehr(cube(n)))
        assert verdict.overall
        assert verdict.equalities == tuple(range(n + 1))


def test_ratio_bound_cube_equality_everywhere():
    e = ehr(cube(5))
    for s in range(6):
        for t in range(s + 1, 6):
            verdict = coefficient_ratio_bound(e, 2, s, t)
            assert verdict.holds and verdict.is_equality


def test_ratio_bound_crosspolytope_equality_only_at_top():
    e = ehr(crosspolytope(3))
    verdict = coefficient_ratio_bound(e, 2, 0, 2)
    assert verdict.holds and not verdict.is_equality
    assert Fraction(*verdict.lhs_terms) == 2 and Fraction(*verdict.rhs_terms) == 12
    top = coefficient_ratio_bound(e, 2, 2, 3)
    assert top.holds and top.is_equality


def test_ratio_bound_validates_indices():
    e = ehr(cube(3))
    with pytest.raises(ValueError):
        coefficient_ratio_bound(e, 2, 2, 2)
    with pytest.raises(ValueError):
        coefficient_ratio_bound(e, 2, 1, 5)


def test_volume_bound_cases():
    cube_case = volume_bound(ehr(cube(4)), 2)
    assert cube_case.holds and cube_case.is_equality
    cross_case = volume_bound(ehr(crosspolytope(2)), 2)
    assert cross_case.holds and not cross_case.is_equality
    assert Fraction(*cross_case.lhs_terms) == 2
    assert Fraction(*cross_case.rhs_terms) == Fraction(20, 9)
    segment = volume_bound(ehr(dilate(cube(1), 2)), 4)
    assert segment.holds and segment.is_equality
    assert Fraction(*segment.lhs_terms) == 4


def test_point_count_bound_cases():
    assert point_count_bound(ehr(crosspolytope(2)), 2).is_equality
    assert point_count_bound(ehr(crosspolytope(3)), 2).is_equality
    four = point_count_bound(ehr(cube(4)), 2)
    assert four.holds and four.is_equality
    assert Fraction(*four.lhs_terms) == 81 and Fraction(*four.rhs_terms) == 81
    cross4 = point_count_bound(ehr(crosspolytope(4)), 2)
    assert cross4.holds and not cross4.is_equality
    with pytest.raises(ValueError):
        point_count_bound(ehr(cube(1)), 2)


ehrhart_like_st = st.tuples(
    st.lists(
        st.fractions(min_value=-50, max_value=50, max_denominator=30),
        min_size=1,
        max_size=6,
    ),
    st.fractions(min_value=0, max_value=50, max_denominator=30).filter(bool),
    st.fractions(min_value=0, max_value=5, max_denominator=7).filter(bool),
)


@given(ehrhart_like_st)
def test_bound_verdicts_match_fraction_arithmetic(case):
    """The cross-multiplied verdicts decide what Fraction comparisons decide,
    negative coefficients included, and read back the same sides."""
    middle, volume, a = case
    coeffs = [Fraction(1), *middle, volume]
    e = EhrhartPolynomial(len(coeffs) - 1, Polynomial(coeffs))
    n = e.dimension

    def agrees(verdict, lhs, rhs):
        sides = (Fraction(*verdict.lhs_terms), Fraction(*verdict.rhs_terms))
        return (*sides, verdict.holds, verdict.is_equality) == (
            lhs, rhs, lhs <= rhs, lhs == rhs
        )

    for s in range(n + 1):
        for t in range(s + 1, n + 1):
            if coeffs[s]:
                rhs = a ** (t - s) * Fraction(comb(n, t), comb(n, s))
                verdict = coefficient_ratio_bound(e, a, s, t)
                assert agrees(verdict, coeffs[t] / coeffs[s], rhs)
    count = sum(coeffs)
    assert agrees(volume_bound(e, a), volume, (a / (a + 1)) ** n * count)
    if n >= 2:
        rhs = (a + 1) ** (n - 2) * ((a + 2) / a ** (n - 1) * volume + 1)
        assert agrees(point_count_bound(e, a), count, rhs)
    for row in wills_check(e).per_index:
        coefficient = Fraction(*row.verdict.lhs_terms)
        bound = Fraction(*row.verdict.rhs_terms)
        assert coefficient == coeffs[row.index]
        assert bound == 2**row.index * comb(n, row.index)
        assert row.holds == (coefficient <= bound)


def test_point_count_equality_matches_nonreal_pair_characterization():
    for e in all_suite_polynomials():
        if e.dimension < 2:
            continue
        if not common_real_part(find_roots(e.poly), Fraction(1, 2)):
            continue  # hypothesis class only
        verdict = point_count_bound(e, 2)
        pairs = nonreal_pair_count(find_roots(e.poly))
        assert verdict.is_equality == (pairs <= 1)


def test_common_real_part_implies_parity_on_suite():
    for e in all_suite_polynomials():
        rs = find_roots(e.poly)
        if common_real_part(rs, Fraction(1, 2)):
            assert parity_necessary_check(e, 2)


def test_cube_gamma_sum_value():
    e = ehr(cube(6))
    assert e.coefficient(5) / e.volume == Fraction(6, 2)


def test_braun_disc_on_entire_suite():
    for e in all_suite_polynomials():
        assert braun_disc_check(find_roots(e.poly), e.dimension)


# Where a root sits relative to Braun's disc |z + 1/2| <= R: a share of R
# below 1, or R plus an exact offset (0 is on the circle).
DISC_OFFSETS = (Fraction(0), Fraction(1, 10**9), Fraction(1, 10**30))


def disc_factor(n, place, s, real):
    """The factor of the roots -1/2 + rho u: rho = R place for a place
    below 1, else R + place - 1, with R = n(n - 1/2).  For a real root u is
    the sign of s, else u = ((1 - s^2) + 2si)/(1 + s^2), a rational point
    of the unit circle, and the factor is (t - x)^2 + y^2."""
    radius = n * (n - Fraction(1, 2))
    rho = radius * place if place < 1 else radius + place - 1
    if real:
        return Polynomial([Fraction(1, 2) - rho * (1 if s >= 0 else -1), 1])
    x = rho * (1 - s * s) / (1 + s * s) - Fraction(1, 2)
    y = rho * 2 * s / (1 + s * s)
    return Polynomial([x * x + y * y, -2 * x, 1])


places = st.one_of(
    st.fractions(0, 1, max_denominator=50).filter(lambda f: f < 1),
    st.sampled_from([1 + offset for offset in DISC_OFFSETS]),
)


@given(
    st.integers(1, 6),
    st.lists(
        st.tuples(places, st.fractions(-3, 3, max_denominator=7), st.booleans()),
        min_size=1,
        max_size=4,
    ),
    st.integers(1, 5),
)
def test_braun_disc_check_is_exact(n, factors, lead):
    """Roots inside, exactly on, and 10^-9 or 10^-30 outside the disc: the
    verdict is whether every root was placed at a place <= 1."""
    p = Polynomial([lead])
    for place, s, real in factors:
        p = p * disc_factor(n, place, s, real)
    expected = all(place <= 1 for place, _, _ in factors)
    assert braun_disc_check(RootSet(p), n) == expected


def test_braun_disc_check_counts_exactly_on_the_boundary(monkeypatch):
    """Roots on or just off the circle defeat Fujiwara's bound, so these
    cases reach the exact count."""
    calls = []
    count = roots._unit_disc_exterior
    monkeypatch.setattr(roots, "_unit_disc_exterior", lambda g: calls.append(g) or count(g))
    on = disc_factor(3, Fraction(1), Fraction(1, 2), False)
    inside = disc_factor(3, Fraction(1, 3), Fraction(2), False)
    for offset in DISC_OFFSETS:
        outside = disc_factor(3, 1 + offset, Fraction(-1, 3), False)
        assert braun_disc_check(RootSet(on * outside * inside), 3) == (offset == 0)
        real = disc_factor(3, 1 + offset, Fraction(1), True)
        assert braun_disc_check(RootSet(on * real), 3) == (offset == 0)
    assert len(calls) == 2 * len(DISC_OFFSETS)
    assert braun_disc_check(RootSet(on * on * disc_factor(3, 1, Fraction(0), True)), 3)


@pytest.mark.parametrize("root,inside", [(Fraction(13, 5), False), (Fraction(12, 5), True),
                                         (Fraction(5, 2), True)])
def test_braun_disc_near_its_radius_in_dimension_2(root, inside):
    """Roots {root, -1} against |z + 1/2| <= 3: 13/5 lies outside, 12/5
    inside, and 5/2 on the circle.  Fujiwara's bound with twice the
    leading term would pass the first."""
    p = Polynomial([-root, 1]) * Polynomial([1, 1])
    assert braun_disc_check(RootSet(p), 2) is inside


@given(
    st.integers(1, 4),
    st.lists(st.integers(-30, 30), min_size=1, max_size=6),
    st.integers(1, 3),
)
def test_braun_disc_check_agrees_with_floats_off_the_boundary(n, low, lead):
    """A float oracle, trusted only where no root is within 10^-6 of the
    circle, agrees with the exact verdict."""
    p = Polynomial([*low, lead])
    distances = np.abs(np.roots([float(c) for c in reversed(p.coefficients)]) + 0.5)
    radius = n * (n - 0.5)
    assume(np.all(np.abs(distances - radius) > 1e-6 * radius))
    assert braun_disc_check(RootSet(p), n) == bool(np.all(distances <= radius))


def test_braun_disc_check_refuses_the_zero_polynomial():
    with pytest.raises(ValueError):
        braun_disc_check(RootSet(Polynomial([0])), 2)
    assert braun_disc_check(RootSet(Polynomial([5])), 2)


def test_constant_has_every_common_real_part():
    """A constant has no roots, so every line holds them all."""
    for target in (Fraction(1, 2), 3, Fraction(-2, 7)):
        assert common_real_part(RootSet(Polynomial([3])), target) is True


def test_exact_checks_compute_no_float_root(monkeypatch, capsys):
    def no_floats(self):
        raise AssertionError("a float root was computed")

    monkeypatch.setattr(RootSet, "roots", property(no_floats))
    assert [row.passed for row in verification.run_all()] == [True] * 11
    assert cli.main(["reflexive", "--family", "cross:3"]) == 0


def test_find_roots_computes_the_floats_when_called():
    """The benchmark's tracer charges the float stage to find_roots' span."""
    assert {"roots", "residual_bound"} <= set(vars(find_roots(ehr(cube(3)).poly)))
    assert "roots" not in vars(RootSet(ehr(cube(3)).poly))


integer_polynomials_st = st.lists(st.integers(-9, 9), min_size=3, max_size=16).filter(
    lambda c: c[-1]
)


@given(integer_polynomials_st)
def test_newton_polish_mirrors_exactly(coefficients):
    """A root whose conjugate was polished takes the mirror image: bitwise
    what polishing it in a call of its own, where nothing mirrors, gives."""
    coeffs = [float(c) for c in reversed(coefficients)]
    eigenvalues = np.roots(coeffs)
    alone = [roots._newton_polish(coeffs, [z])[0] for z in eigenvalues]
    polished = roots._newton_polish(coeffs, eigenvalues)
    assert list(map(repr, polished)) == list(map(repr, alone))


@given(integer_polynomials_st)
def test_backward_error_matches_one_pass_per_root(coefficients):
    p = Polynomial(coefficients)
    rs = find_roots(p)
    assume(rs._scale_exponent is None)
    cs = [c / p.denominator for c in reversed(p.numerators)]

    def error(z):
        value, size = 0j, 0.0
        for c in cs:
            value, size = value * z + c, size * abs(z) + abs(c)
        return abs(value) / (size or 1.0)

    assert repr(rs.residual_bound) == repr(max(map(error, rs.roots)))


def test_root_set_reads_its_scale_exponent_once(monkeypatch):
    """roots and residual_bound share one reading of the coefficients' sizes."""
    calls = []
    exponent = RootSet._scale_exponent.func

    def counted(self):
        calls.append(self.poly)
        return exponent(self)

    monkeypatch.setattr(RootSet._scale_exponent, "func", counted)
    rs = find_roots(qn_coefficients(9).poly)
    assert rs.residual_bound < 1e-12
    assert len(calls) == 1


@given(
    st.integers(1, 12).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            st.integers(-9, 9).filter(bool),
        )
    ),
    st.booleans(),
    st.integers(-20, 20),
    st.integers(1, 20),
)
def test_mean_test_is_only_a_shortcut(coefficients, own_mean, u, v):
    """Symmetry about a line -target forces the line to be the roots' mean,
    so the line tests refuse any other line from two coefficients and read
    the polynomial's one cached shift to the mean; that changes no verdict
    of a shift by -target and its parity test."""
    low, lead = coefficients
    p = Polynomial([*low, lead])
    n = p.degree
    target = (
        Fraction(p.numerators[n - 1], n * p.numerators[n]) if own_mean else Fraction(u, v)
    )
    q = p.shift(-target)
    parity = not any(q.numerators[j] for j in range(n - 1, -1, -2))
    assert (p.mean == -target and p.mean_shift is not None) == parity
    if parity:
        assert p.mean_shift == q


@pytest.mark.parametrize("parity_first", [True, False])
@pytest.mark.parametrize(
    "make,on_line",
    [(lambda: ehr(cube(4)), True), (lambda: ehr(crosspolytope(5)), True),
     (lambda: qn_coefficients(9), False)],  # qn:9 passes parity, its roots are off the line
)
def test_parity_and_line_test_share_one_shift(monkeypatch, make, on_line, parity_first):
    """The parity check and the line test of one polynomial read the shift
    it caches, so between them they shift it once, in either order."""
    e = make()
    calls = []
    shift = Polynomial.shift

    def counted(self, c):
        calls.append(c)
        return shift(self, c)

    monkeypatch.setattr(Polynomial, "shift", counted)
    checks = {
        "parity": lambda: parity_necessary_check(e, 2),
        "line": lambda: common_real_part(RootSet(e.poly), Fraction(1, 2)),
    }
    order = ("parity", "line") if parity_first else ("line", "parity")
    verdicts = {name: checks[name]() for name in order}
    assert len(calls) == 1
    assert verdicts == {"parity": True, "line": on_line}


# Products and dilates of families, segments and polygons, total dimension
# at most 12: their polynomials carry their factors (Polynomial.factors).
leaf_bodies_st = st.one_of(
    st.builds(cube, st.integers(1, 4)),
    st.builds(crosspolytope, st.integers(1, 4)),
    st.builds(pn_family, st.integers(2, 4)),
    st.builds(qn_family, st.integers(2, 4)),
    st.builds(
        lambda lo, length: LatticePolytope(1, [(lo,), (lo + length,)]),
        st.integers(-3, 0),
        st.integers(1, 4),
    ),
    st.builds(
        lambda points: hull2d([(0, 0), (1, 0), (0, 1), *points]),
        st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), max_size=4),
    ),
)
factored_bodies_st = st.recursive(
    leaf_bodies_st,
    lambda inner: st.one_of(
        st.builds(product, inner, inner), st.builds(dilate, inner, st.integers(2, 3))
    ),
    max_leaves=4,
).filter(lambda body: body.dimension <= 12)


def assert_same_roots(mine, theirs, tol=1e-9):
    """Each root of ``mine`` is paired with its nearest unpaired root of
    ``theirs`` within tol max(1, |z|)."""
    pending = list(theirs)
    assert len(mine) == len(pending)
    for z in mine:
        w = min(pending, key=lambda w: abs(w - z))
        assert abs(w - z) <= tol * max(1.0, abs(z))
        pending.remove(w)


@given(factored_bodies_st)
def test_factors_give_the_verdicts_and_roots_of_the_multiplied_polynomial(body):
    """Line, parity and Braun verdicts read off a product's or a dilate's
    factors are those of the multiplied polynomial, and so are its roots."""
    e = ehrhart_from_recipe(body)
    plain = EhrhartPolynomial(e.dimension, Polynomial(e.poly.numerators, e.poly.denominator))
    assert not plain.poly.factors
    n = e.dimension
    for target in {-e.poly.mean, Fraction(1, 2), Fraction(1, 3)}:
        line = common_real_part(RootSet(e.poly), target)
        assert line == common_real_part(RootSet(plain.poly), target)
        parity = parity_necessary_check(e, 1 / target)
        q = plain.poly.shift(-target)  # the line onto the imaginary axis
        assert parity == (not any(q.numerators[j] for j in range(n - 1, -1, -2)))
        assert parity == parity_necessary_check(plain, 1 / target)
    assert braun_disc_check(RootSet(e.poly), n) == braun_disc_check(RootSet(plain.poly), n)
    assert_same_roots(find_roots(e.poly).roots, find_roots(plain.poly).roots)


def test_parity_of_a_product_can_pair_roots_across_factors():
    """The roots -1/2 of cube:1 and -1/6 of its 3-dilate are symmetric about
    -1/3 together, though neither factor is: parity holds at a = 3, the
    line test refuses it."""
    e = ehrhart_from_recipe(product(cube(1), dilate(cube(1), 3)))
    assert [s for _, _, s in e.poly.factors] == [1, 3]
    assert parity_necessary_check(e, 3)
    assert not common_real_part(RootSet(e.poly), Fraction(1, 3))


def test_yun_runs_once_per_distinct_factor(monkeypatch):
    calls = []
    yun = roots.squarefree_decomposition

    def counted(p):
        calls.append(p)
        return yun(p)

    monkeypatch.setattr(roots, "squarefree_decomposition", counted)
    assert cli.main(["roots", "--family", "product(cross:6,product(cross:6,cross:6))"]) == 0
    assert calls == [ehrhart_from_recipe(crosspolytope(6)).poly]


@given(
    st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=14),
    st.integers(0, 2),
)
def test_eigenvalues_are_bitwise_those_of_np_roots(coefficients, zeros):
    """The companion matrix is built as np.roots builds it, so the
    eigenvalues are its roots bit for bit, trailing zeros and all."""
    coeffs = [1.0, *coefficients, *[0.0] * zeros]
    assume(coeffs[1:].count(0.0) < len(coeffs) - 1)
    expected = [repr(complex(z)) for z in np.roots(coeffs)]
    assert [repr(complex(z)) for z in roots._eigenvalues(coeffs)] == expected


def scale_exponent_from_logs(p):
    """The exponent read off every coefficient's log2, with no shortcut on
    bit lengths: the reference for ``roots._scale_exponent``."""
    n, d = p.degree, p.denominator
    logs = [(log2(abs(c) // gcd(c, d)) - log2(d // gcd(c, d)), j)
            for j, c in enumerate(p.numerators) if c]
    lead = logs[-1][0]
    r = 1 + max(((l - lead) / (n - j) for l, j in logs[:-1]), default=0)
    if max(lead, 0) + n * (max(r, 0) + 1) < 1000 and min(l for l, _ in logs) > -1000:
        return None
    low, j = logs[0]
    return round((low - lead) / (n - j)) if j < n else 0


sized_integers_st = st.integers(0, 1100).flatmap(lambda b: st.integers(-(2**b), 2**b))


@given(
    st.lists(sized_integers_st, min_size=2, max_size=20).filter(lambda c: c[-1]),
    sized_integers_st.filter(bool).map(abs),
)
# t^10 + 2^98 t^9 + 1: bit lengths 99 and below, yet its roots reach 2^98
@example([1] + [0] * 8 + [2**98, 1], 1)
def test_scale_exponent_shortcut_changes_no_exponent(numerators, denominator):
    p = Polynomial(numerators, denominator)
    expected = scale_exponent_from_logs(p)
    assume(expected is None or abs(expected) < 1024)
    assert roots._scale_exponent(p) == expected
