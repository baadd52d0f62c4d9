"""One-shot verification table: every reference value and inequality this
library is built around, recomputed from scratch and checked exactly.

Each row is independent; exceptions are caught and reported as failures
so the table always completes.  Rows share only two caches, each living
for one :func:`run_all` call: one for the ``qn`` closed forms and one for
the Ehrhart polynomials, so no body's polynomial is built twice in a run.
The CLI exposes this as ``verify-all`` and the acceptance test suite
asserts every row.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Callable

from . import ehrhart, polytopes, reflexivity
from .counting import (
    MembershipOracle,
    count_box_scan,
    count_minkowski_dp,
    count_pn_sliced,
    count_qn_closed,
    dilation_counter,
    oracle_for,
)
from .ehrhart import (
    ehrhart_of,
    product_coefficients,
    qn_coefficients,
    qn_first_coefficient,
    qn_growth_check,
)
from .polytopes import (
    crosspolytope,
    cube,
    dilate,
    hull2d,
    pn_family,
    product,
    qn_family,
)
from .roots import (
    RootSet,
    braun_disc_check,
    coefficient_ratio_bound,
    common_real_part,
    parity_necessary_check,
    point_count_bound,
    volume_bound,
    wills_check,
)

# Exact Ehrhart coefficients of the 7-dimensional cube-crosspolytope
# hybrid, cross-checked against independent lattice-point enumeration.
HYBRID7_COEFFICIENTS = (
    Fraction(1),
    Fraction(1534, 105),
    Fraction(3188, 45),
    Fraction(7112, 45),
    Fraction(1756, 9),
    Fraction(7004, 45),
    Fraction(4952, 45),
    Fraction(15656, 315),
)

EXCEPTIONAL_TRIANGLE = ((-1, -1), (-1, 2), (2, -1))

_QnCoefficients = Callable[[int], ehrhart.EhrhartPolynomial]
_EhrhartOf = Callable[[polytopes.LatticePolytope], ehrhart.EhrhartPolynomial]

RANDOM_POLYGON_SEED = 1729
RANDOM_POLYGON_SAMPLES = 50


@dataclass(frozen=True, slots=True)
class CheckRow:
    number: int
    name: str
    passed: bool
    detail: str


def _row(number: int, name: str, fn, *args) -> CheckRow:
    try:
        passed, detail = fn(*args)
    except Exception as exc:  # a crashed row is a failed row
        return CheckRow(number, name, False, f"exception: {exc}")
    return CheckRow(number, name, bool(passed), detail)


def check_hybrid7_reproduction(ehr_of: _EhrhartOf) -> tuple[bool, str]:
    start = time.perf_counter()
    ehr = ehr_of(pn_family(7))  # row 1 runs first: this computes it
    elapsed = time.perf_counter() - start
    ok = ehr.coefficients == HYBRID7_COEFFICIENTS and elapsed <= 10.0
    return ok, f"coefficients {'match' if ok else 'MISMATCH'}, {elapsed:.3f}s"


def check_bipyramid_coefficients(qn: _QnCoefficients) -> tuple[bool, str]:
    start = time.perf_counter()
    targets = {
        (9, 1): Fraction(494, 15),
        (11, 3): Fraction(1976),
        (13, 5): Fraction(260832, 5),
    }
    ok = True
    for (n, i), expected in targets.items():
        closed = qn(n)
        interp = ehrhart_of(qn_family(n), lambda k, n=n: count_qn_closed(n, k))
        ok &= closed.coefficient(i) == expected
        ok &= closed.poly == interp.poly
    elapsed = time.perf_counter() - start
    ok = ok and elapsed <= 1.0
    return ok, f"three reference coefficients + interpolation, {elapsed:.3f}s"


def check_first_coefficient_closed_form(qn: _QnCoefficients) -> tuple[bool, str]:
    ok = True
    for n in range(2, 21):
        value = qn_first_coefficient(n)
        ok &= value == qn(n).coefficient(1)
        if n % 2 == 0:
            ok &= value == 2 * (n - 1)
    return ok, "n = 2..20, even dimensions collapse to 2(n-1)"


def check_counterexample_propagation(ehr_of: _EhrhartOf) -> tuple[bool, str]:
    hybrid = ehr_of(pn_family(7))
    ok = True
    for m in range(6):
        if m == 0:
            c1 = hybrid.coefficient(1)
        else:
            c1 = product_coefficients(hybrid, ehr_of(cube(m))).coefficient(1)
        ok &= c1 == Fraction(1534, 105) + 2 * m
        ok &= c1 > 2 * (7 + m)
    return ok, "first coefficient exceeds the cube bound in dimensions 7..12"


def check_oracle_equivalence() -> tuple[bool, str]:
    ok = True
    for n in range(2, 5):
        for k in range(4):
            box_q = count_box_scan(oracle_for(dilate(qn_family(n), k))) if k else 1
            box_p = count_box_scan(oracle_for(dilate(pn_family(n), k))) if k else 1
            ok &= box_q == count_qn_closed(n, k)
            ok &= box_p == count_pn_sliced(n, k)
    for m in range(1, 4):
        for a in range(4):
            for b in range(4):
                brute = _deficiency_brute(m, a, b)
                ok &= brute == count_minkowski_dp(m, a, b)
    return ok, "box scan == closed forms == DP on all desk-scale cases"


def _deficiency_brute(m: int, a: int, b: int) -> int:
    """Row 5's brute force: #{x in Z^m : sum_i max(|x_i| - a, 0) <= b} by a
    box scan of [-(a+b), a+b]^m, independent of the closed form it checks."""
    import numpy as np

    # max(|x_i| - a, 0) = max(|x_i|, a) - a; each term is at most a + b, the
    # radius, so the sum stays in the scan's type.
    inside = MembershipOracle(
        m,
        lambda x: np.add.reduce(np.maximum(np.abs(x), a), axis=-1, dtype=x.dtype) <= b + m * a,
        a + b,
    )
    return count_box_scan(inside)


def check_wills_verdicts(qn: _QnCoefficients, ehr_of: _EhrhartOf) -> tuple[bool, str]:
    ok = True
    for n in range(1, 11):
        verdict = wills_check(ehr_of(cube(n)))
        ok &= verdict.overall and verdict.equalities == tuple(range(n + 1))
    hybrid = wills_check(ehr_of(pn_family(7)))
    ok &= hybrid.violations == (1,)
    for n, idx in ((9, 1), (11, 3), (13, 5)):
        verdict = wills_check(qn(n))
        ok &= idx in verdict.violations
        ok &= 0 not in verdict.violations and n not in verdict.violations
    return ok, "cube all-equality; violations at the known indices"


def check_inequality_suite(ehr_of: _EhrhartOf) -> tuple[bool, str]:
    ok = True
    for n in range(1, 9):
        for body, is_cube in ((cube(n), True), (crosspolytope(n), False)):
            ehr_poly = ehr_of(body)
            ok &= parity_necessary_check(ehr_poly, 2)
            ok &= common_real_part(RootSet(ehr_poly.poly), Fraction(1, 2))
            for s in range(n + 1):
                for t in range(s + 1, n + 1):
                    verdict = coefficient_ratio_bound(ehr_poly, 2, s, t)
                    ok &= verdict.holds
                    if is_cube or n == 1:
                        ok &= verdict.is_equality
                    else:
                        ok &= verdict.is_equality == ((s, t) == (n - 1, n))
            vol_verdict = volume_bound(ehr_poly, 2)
            ok &= vol_verdict.holds
            ok &= vol_verdict.is_equality == (is_cube or n == 1)
            if n >= 2:
                count_verdict = point_count_bound(ehr_poly, 2)
                ok &= count_verdict.holds
                ok &= count_verdict.is_equality == (is_cube or n in (2, 3))
    return ok, "parity, root line, and all three bounds with a = 2, n <= 8"


def check_wills_for_root_line_class(ehr_of: _EhrhartOf) -> tuple[bool, str]:
    ok = True
    for n in range(1, 11):
        ok &= wills_check(ehr_of(crosspolytope(n))).overall
    return ok, "crosspolytopes satisfy every coefficient bound up to n = 10"


def check_reflexivity(ehr_of: _EhrhartOf) -> tuple[bool, str]:
    ok = True
    for body in (cube(2), cube(3)):
        report = reflexivity.reflexivity_equivalence(body, ehr_of(body))
        ok &= report.agree and report.def_check and report.index_l == 1
    triangle = hull2d(EXCEPTIONAL_TRIANGLE)
    tri_ehr = ehr_of(triangle)
    report = reflexivity.reflexivity_equivalence(triangle, tri_ehr)
    ok &= report.agree and report.def_check and report.index_l == 1
    tri = tri_ehr.poly  # its roots are exactly -2/3 and -1/3
    ok &= tri.degree == 2 and tri(Fraction(-2, 3)) == 0 == tri(Fraction(-1, 3))
    doubled = dilate(cube(2), 2)
    doubled_ehr = ehr_of(doubled)
    doubled_roots = RootSet(doubled_ehr.poly)
    ok &= polytopes.index(doubled) == 2
    ok &= common_real_part(doubled_roots, Fraction(1, 4))
    ok &= reflexivity.root_line_reflexivity_consequence(
        doubled, doubled_ehr, doubled_roots
    )
    accepted = _random_polygon_agreement(RANDOM_POLYGON_SAMPLES)
    ok &= accepted >= RANDOM_POLYGON_SAMPLES
    return ok, f"named cases plus {accepted} random polygons, three-way agreement"


def _random_polygon_agreement(samples: int) -> int:
    rng = random.Random(RANDOM_POLYGON_SEED)
    accepted = 0
    attempts = 0
    while accepted < samples and attempts < 100 * samples:
        attempts += 1
        points = [  # randrange(a, b + 1) is randint(a, b) without its call
            (rng.randrange(-4, 5), rng.randrange(-4, 5))
            for _ in range(rng.randrange(3, 9))
        ]
        try:
            polygon = hull2d(points)
        except ValueError:
            continue
        if any(h.rhs < 1 for h in polygon.halfspaces):  # origin not interior
            continue
        ehr_poly = ehrhart_of(polygon, dilation_counter(polygon))
        # Raises RuntimeError when the three verdicts disagree.
        reflexivity.reflexivity_equivalence(polygon, ehr_poly)
        accepted += 1
    return accepted


def check_growth_bounds() -> tuple[bool, str]:
    ok = all(qn_growth_check(k) for k in range(2, 8))
    return ok, "signed first coefficient inside exact bounds for n = 5..15 odd"


def check_braun_disc(qn: _QnCoefficients, ehr_of: _EhrhartOf) -> tuple[bool, str]:
    cases = [(ehr_of(pn_family(7)), 7)]
    for n in range(1, 9):
        cases += [(ehr_of(cube(n)), n), (ehr_of(crosspolytope(n)), n)]
    cases += [(qn(n), n) for n in (9, 11, 13)]
    cases.append((ehr_of(hull2d(EXCEPTIONAL_TRIANGLE)), 2))
    cases.append((ehr_of(dilate(cube(2), 2)), 2))
    cases.append((ehr_of(product(pn_family(3), cube(2))), 5))
    ok = all(braun_disc_check(RootSet(ehr_poly.poly), n) for ehr_poly, n in cases)
    return ok, f"{len(cases)} root sets inside |z + 1/2| <= n(n - 1/2)"


def run_all() -> list[CheckRow]:
    """Run the whole verification table in order."""
    qn = cache(qn_coefficients)  # rows 2, 3, 6 and 11: once per n in this call
    # Rows 1, 4, 6, 7, 8, 9 and 11: each body's polynomial once in this call.
    ehr_of = cache(lambda body: ehrhart_of(body, dilation_counter(body)))
    return [
        _row(1, "degree-7 hybrid coefficients", check_hybrid7_reproduction, ehr_of),
        _row(2, "bipyramid coefficients", check_bipyramid_coefficients, qn),
        _row(3, "first-coefficient closed form", check_first_coefficient_closed_form, qn),
        _row(4, "counterexample propagation", check_counterexample_propagation, ehr_of),
        _row(5, "oracle equivalence", check_oracle_equivalence),
        _row(6, "coefficient bound verdicts", check_wills_verdicts, qn, ehr_of),
        _row(7, "inequality suite", check_inequality_suite, ehr_of),
        _row(8, "bounds for the root-line class", check_wills_for_root_line_class, ehr_of),
        _row(9, "reflexivity equivalence", check_reflexivity, ehr_of),
        _row(10, "growth bounds", check_growth_bounds),
        _row(11, "root disc sanity", check_braun_disc, qn, ehr_of),
    ]
