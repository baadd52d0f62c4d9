"""l-reflexivity and its equivalent characterizations.

A lattice polytope with the origin interior and irredundant facet
description u_i . x <= l_i (u_i primitive) is *l-reflexive* when

    (i)   the origin is interior,
    (ii)  its vertices are primitive, and
    (iii) every facet distance l_i equals l.

:func:`reflexivity_equivalence` verifies that three different
computations of this property agree: the definition read off directly,
a polar-side test, and an Ehrhart-coefficient test.  Two subtleties make
the naive versions of the last two non-equivalent, and both are handled
(and kept visible in the report) here:

* With l the lcm of the l_i, the scaled polar's vertices (l/l_i)*u_i
  are *always* integral (``_polar_scaled`` takes no other l), so
  latticeness of the scaled polar distinguishes nothing.  The polar-side
  test asks instead that the polar's vertices be primitive (that is
  exactly "all l_i = l") and its facets lie at distance l.  The polar's
  facets are dual to the vertices of the original: a vertex v = c*w (w
  primitive, c the content) gives the polar facet {w . x <= l/c}, at
  integral distance l exactly when c = 1.  So the dual-side distance condition is vertex primitivity
  of the original, the same test the coefficient check conjoins.

* The coefficient identity  c_{n-1} = (n/2l) * vol  holds exactly when
  all facet distances are equal; it is blind to vertex primitivity.
  Witness: conv{(+-1,0), (0,+-2)} has all four edges at distance 2 and
  satisfies the identity with l = 2, yet its vertices (0,+-2) are not
  primitive, so it is not 2-reflexive.  The report therefore conjoins
  the identity with vertex primitivity, and also exposes the raw
  identity verdict and both of its sides.

With these readings the three verdicts agree on every polytope with the
origin interior, and the agreement is asserted: a disagreement can only
be an implementation bug.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .ehrhart import EhrhartPolynomial
from .polytopes import (
    LatticePolytope,
    _polar_scaled,
    _require_interior_halfspaces,
    index,
    is_primitive,
)
from .roots import RootSet, _mean_on_line, common_real_part


class ReflexivityReport(NamedTuple):
    """Three-way l-reflexivity verdict for one polytope.

    ``coefficient_identity`` is the bare identity c_{n-1} == (n/2l) vol,
    decided as "the roots average -1/(2l)", 2l N_{n-1} == n N_n on the
    polynomial's numerators (its two sides ``identity_lhs``/``identity_rhs``
    build their Fractions when read); ``coefficient_check`` conjoins it with vertex primitivity, which
    the identity cannot see.  ``agree`` is always true for valid inputs.
    """

    index_l: int
    def_check: bool
    polar_check: bool
    coefficient_check: bool
    coefficient_identity: bool
    vertices_primitive: bool
    agree: bool
    ehr: EhrhartPolynomial

    @property
    def identity_lhs(self) -> Fraction:
        return self.ehr.coefficient(self.ehr.dimension - 1)

    @property
    def identity_rhs(self) -> Fraction:
        return Fraction(self.ehr.dimension, 2 * self.index_l) * self.ehr.volume


def reflexivity_equivalence(
    p: LatticePolytope, ehr: EhrhartPolynomial
) -> ReflexivityReport:
    """Evaluate the three equivalent l-reflexivity tests with l = index(p).

    Raises :class:`OriginNotInteriorError` for hypothesis failures; a
    disagreement between the three verdicts raises RuntimeError since it
    can only mean a bug in this library.
    """
    hs = _require_interior_halfspaces(p)  # a family builds its lists per read
    if ehr.dimension != p.dimension:
        raise ValueError("Ehrhart polynomial does not match the polytope")
    rhs = [h.rhs for h in hs]
    l = lcm(*rhs)

    vertices_primitive = all(map(is_primitive, p.vertices))
    # Equal facet distances are their own lcm, so they all equal l.
    def_check = vertices_primitive and rhs.count(l) == len(rhs)

    # Dual facet distances: vertex v = content * w gives the polar facet
    # {w . x <= l/content}; all are l  iff  every vertex is primitive.
    polar_check = all(map(is_primitive, _polar_scaled(hs, l))) and vertices_primitive

    coefficient_identity = _mean_on_line(ehr.poly, Fraction(1, 2 * l))
    coefficient_check = coefficient_identity and vertices_primitive

    agree = def_check == polar_check == coefficient_check
    if not agree:
        raise RuntimeError(
            "reflexivity checks disagree "
            f"(def={def_check}, polar={polar_check}, coeff={coefficient_check}); "
            "this indicates a bug, not a property of the input"
        )
    return ReflexivityReport(
        index_l=l,
        def_check=def_check,
        polar_check=polar_check,
        coefficient_check=coefficient_check,
        coefficient_identity=coefficient_identity,
        vertices_primitive=vertices_primitive,
        agree=agree,
        ehr=ehr,
    )


def root_line_reflexivity_consequence(
    p: LatticePolytope, ehr: EhrhartPolynomial, rs: RootSet
) -> bool:
    """If all roots have real part -1/(2l) with l = index(p), assert the
    coefficient identity c_{n-1} = (n/2l) vol.

    This is the unimodular-invariant consequence of the root-line
    hypothesis (conjugate pairing makes the root sum real, and the root
    sum is c_{n-1}/vol).  Vacuously true when the hypothesis fails, and
    never false: the line test refuses any line but the roots' mean.
    """
    target = Fraction(1, 2 * index(p))
    return _mean_on_line(ehr.poly, target) or not common_real_part(rs, target)
