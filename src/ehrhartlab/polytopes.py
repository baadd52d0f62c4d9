"""Lattice polytopes: representations, named families, and constructions.

Every polytope has both lists: its vertices and its facet half-spaces,
with primitive integer normals.  A family polytope is its recipe
(:class:`Family`); its lists are built each time they are read.  For the
bipyramid and cube-crosspolytope hybrid families the vertex list is the
generator list (generators may fail to be extreme in low dimensions - route
through :func:`hull2d` when a minimal polygon description is needed).  A
polygon (explicit lists in dimension 2) is stored as its hull chain and one
half-space per edge, a segment (dimension 1) as its two ends and two
half-spaces.  There is deliberately no vertex-to-facet conversion in
dimension >= 3: an explicit polytope there must arrive with its half-spaces.
"""

from __future__ import annotations

from copy import copy
from enum import Enum
from itertools import product as iter_product
from math import gcd, lcm
from operator import index as _index, mul
from typing import Iterable, NamedTuple, Sequence, SupportsIndex

from ._frozen import Frozen

IntVector = tuple[int, ...]


class OriginNotInteriorError(ValueError):
    """Raised when an operation requires the origin strictly inside."""


class FamilyTag(str, Enum):
    CUBE = "cube"
    CROSSPOLYTOPE = "crosspolytope"
    PN_FAMILY = "pn"
    QN_FAMILY = "qn"
    PRODUCT = "product"


class Family(NamedTuple):
    """Construction recipe of a family polytope, read by every counter.

    ``scale`` accumulates dilations, so ``dilate(cube(2), 3)`` is the cube
    family with scale 3 and all counters stay closed-form.
    """

    tag: FamilyTag
    scale: int = 1
    factors: tuple["LatticePolytope", ...] = ()


class Halfspace(NamedTuple("Halfspace", [("normal", IntVector), ("rhs", int)])):
    """Closed half-space {x : normal . x <= rhs} with primitive normal.

    ``rhs`` is an integer; it is >= 1 for every half-space of a polytope
    containing the origin in its interior (enforced where that matters,
    not here, so hulls away from the origin remain representable).  Ints,
    bools and NumPy integers pass; a float or a Fraction is refused, not
    truncated.
    """

    __slots__ = ()

    def __new__(cls, normal: Iterable[SupportsIndex], rhs: SupportsIndex) -> Halfspace:
        try:
            normal, rhs = tuple(map(_index, normal)), _index(rhs)
        except TypeError:
            raise ValueError(f"half-space {normal}.x <= {rhs} is not integral") from None
        content = gcd(*normal)  # 0 for an empty or zero normal
        if content == 0:
            raise ValueError("half-space normal must be nonzero")
        if content != 1:
            raise ValueError(f"half-space normal {normal} is not primitive")
        return tuple.__new__(cls, (normal, rhs))

    @classmethod
    def _make(cls, iterable: Iterable) -> Halfspace:  # _replace validates too
        return cls(*iterable)


_Lists = tuple[tuple[IntVector, ...], tuple[Halfspace, ...]]


class LatticePolytope(Frozen):
    """A family recipe, or explicit vertices and facet half-spaces.

    ``LatticePolytope(n, family=...)`` stores nothing else: each read of its
    ``vertices`` or ``halfspaces`` builds that one list from the recipe and
    keeps nothing (cube(20) lists 2^20 vertices and 40 half-spaces), so a
    caller that needs a list twice binds it once.  Explicit lists (JSON,
    :func:`hull2d`) are always validated, and a dilate scales validated
    ones.  A polygon keeps the counterclockwise hull chain of the points it
    is given as its vertices, and its half-spaces must be that chain's
    edges (any order, kept as given); without them it gets one per edge.
    A segment (dimension 1) keeps its two ends, lowest first, and the
    half-spaces x <= max and -x <= -min, given exactly or derived.  In
    dimension >= 3 the half-spaces are required.
    """

    _fields = ("dimension", "_vertices", "_halfspaces", "family")
    dimension: int
    _vertices: tuple[IntVector, ...] | None
    _halfspaces: tuple[Halfspace, ...] | None
    family: Family | None

    def __init__(
        self,
        dimension: int,
        _vertices: Iterable[Sequence[SupportsIndex]] | None = None,
        _halfspaces: Iterable[Halfspace] | None = None,
        family: Family | None = None,
    ) -> None:
        if family is None:
            _vertices, _halfspaces = _validated(dimension, _vertices, _halfspaces)
        vars(self).update(
            dimension=dimension, _vertices=_vertices, _halfspaces=_halfspaces,
            family=family,
        )

    @property
    def vertices(self) -> tuple[IntVector, ...]:
        return self._vertices if self.family is None else _family_vertices(self)

    @property
    def halfspaces(self) -> tuple[Halfspace, ...]:
        return self._halfspaces if self.family is None else _family_halfspaces(self)


def _validated(
    dimension: int,
    vertices: Iterable[Sequence[SupportsIndex]] | None,
    given: Iterable[Halfspace] | None,
) -> _Lists:
    """Explicit lists as :class:`LatticePolytope` stores them, checked.  A
    polygon or a segment given no half-spaces gets its hull's."""
    try:  # a float or a Fraction is refused, not truncated
        verts = tuple([tuple(map(_index, v)) for v in vertices or ()])
    except TypeError:
        raise ValueError("vertex coordinates must be integers") from None
    if not verts:
        raise ValueError("polytope needs at least one vertex")
    for v in verts:
        if len(v) != dimension:
            raise ValueError(
                f"vertex {v} has {len(v)} coordinates, expected {dimension}"
            )
    if dimension <= 2:
        # Half-spaces other than the hull's facets may cut out a polygon
        # with rational vertices, whose counts are no polynomial, or
        # leave a segment's box scan unbounded on one side.
        if dimension == 1:
            verts, facets = _segment(verts)
        else:
            verts = _hull_chain(verts)
            facets = tuple(map(_edge, verts, verts[1:] + verts[:1]))
        if given is None:
            return verts, facets
        halfspaces = tuple(given)
        if set(halfspaces) != set(facets):
            kind = "ends" if dimension == 1 else "edges"
            raise ValueError(f"half-spaces are not the {kind} of the vertices' hull")
        return verts, halfspaces
    # Nothing derives them here, and m <= n half-spaces leave a nonzero x
    # with every normal . x <= 0, a direction along which their
    # intersection is unbounded.
    halfspaces = tuple(given or ())
    if len(halfspaces) <= dimension:
        raise ValueError(
            f"a polytope in dimension {dimension} needs at least "
            f"{dimension + 1} half-spaces, not {len(halfspaces)}"
        )
    for hs in halfspaces:
        if len(hs.normal) != dimension:
            raise ValueError("half-space dimension mismatch")
        values = [sum(map(mul, hs.normal, v)) for v in verts]
        top = max(values)
        if top > hs.rhs:
            v = verts[next(i for i, x in enumerate(values) if x > hs.rhs)]
            raise ValueError(
                f"vertex {v} violates half-space {hs.normal}.x <= {hs.rhs}"
            )
        if top != hs.rhs:
            raise ValueError(
                f"half-space {hs.normal}.x <= {hs.rhs} is tight at no vertex"
            )
    return verts, halfspaces


def _family_vertices(p: LatticePolytope) -> tuple[IntVector, ...]:
    """The recipe's vertex list, scale applied."""
    n, fam = p.dimension, p.family
    if fam.tag is FamilyTag.CUBE:
        verts = iter_product((-1, 1), repeat=n)
    elif fam.tag is FamilyTag.CROSSPOLYTOPE:
        verts = (_unit(n, i, s) for i in range(n) for s in (1, -1))
    elif fam.tag is FamilyTag.PRODUCT:
        vp, vq = (f.vertices for f in fam.factors)
        verts = (a + b for a in vp for b in vq)
    else:  # pn and qn: the (n-1)-cube at height 0, and
        verts = [v + (0,) for v in iter_product((-1, 1), repeat=n - 1)]
        if fam.tag is FamilyTag.PN_FAMILY:  # (n-1)-crosspolytopes at heights +-1
            tips = crosspolytope(n - 1).vertices
            verts += [v + (h,) for h in (-1, 1) for v in tips]
        else:  # apexes +-e_n
            verts += [_unit(n, n - 1, 1), _unit(n, n - 1, -1)]
    return _scaled(verts, (), fam.scale)[0]


def _family_halfspaces(p: LatticePolytope) -> tuple[Halfspace, ...]:
    """The recipe's facet half-spaces, scale applied."""
    n, fam = p.dimension, p.family
    if fam.tag is FamilyTag.CUBE:
        hs = [Halfspace(_unit(n, i, s), 1) for i in range(n) for s in (1, -1)]
    elif fam.tag is FamilyTag.CROSSPOLYTOPE:
        hs = [Halfspace(s, 1) for s in iter_product((-1, 1), repeat=n)]
    elif fam.tag is FamilyTag.QN_FAMILY:  # facets sigma_i e_i + sigma_n e_n . x <= 1
        signs = iter_product(range(n - 1), (1, -1), (1, -1))
        hs = [Halfspace(_unit(n - 1, i, si) + (sn,), 1) for i, si, sn in signs]
    elif fam.tag is FamilyTag.PRODUCT:  # the factors' half-spaces, lifted
        p1, p2 = fam.factors
        hs = [Halfspace(h.normal + (0,) * p2.dimension, h.rhs) for h in p1.halfspaces]
        hs += [Halfspace((0,) * p1.dimension + h.normal, h.rhs) for h in p2.halfspaces]
    else:  # pn: the facets pn_family's docstring lists
        hs = [Halfspace(_unit(n, n - 1, t), 1) for t in (1, -1)]
        for sigma in iter_product((1, -1, 0), repeat=n - 1):
            if size := n - 1 - sigma.count(0):  # |S|; both tau give one facet at |S| = 1
                hs += [Halfspace(sigma + (c,), size) for c in dict.fromkeys((size - 1, 1 - size))]
    return _scaled((), hs, fam.scale)[1]


def list_sizes(p: LatticePolytope) -> tuple[int, int]:
    """``(len(p.vertices), len(p.halfspaces))``, in closed form for a family,
    so its lists can be refused before they exist."""
    fam, n = p.family, p.dimension
    if fam is None:  # explicit lists are stored
        return len(p.vertices), len(p.halfspaces)
    if fam.tag is FamilyTag.CUBE:
        return 2**n, 2 * n
    if fam.tag is FamilyTag.CROSSPOLYTOPE:
        return 2 * n, 2**n
    if fam.tag is FamilyTag.PN_FAMILY:
        return 2 ** (n - 1) + 4 * (n - 1), 2 * 3 ** (n - 1) - 2 * n + 2
    if fam.tag is FamilyTag.QN_FAMILY:
        return 2 ** (n - 1) + 2, 4 * (n - 1)
    (vp, hp), (vq, hq) = map(list_sizes, fam.factors)
    return vp * vq, hp + hq


def _unit(n: int, i: int, sign: int = 1) -> IntVector:
    v = [0] * n
    v[i] = sign
    return tuple(v)


def _scaled(verts: Iterable[IntVector], hs: Iterable[Halfspace], k: int) -> _Lists:
    if k > 1:
        verts = (tuple(k * c for c in v) for v in verts)
        hs = (Halfspace(h.normal, k * h.rhs) for h in hs)
    return tuple(verts), tuple(hs)


def cube(n: int) -> LatticePolytope:
    """The cube [-1, 1]^n with its 2n facet half-spaces."""
    if n < 1:
        raise ValueError("cube requires dimension >= 1")
    return LatticePolytope(n, family=Family(FamilyTag.CUBE))


def crosspolytope(n: int) -> LatticePolytope:
    """conv{+-e_1, ..., +-e_n}; facets are all sign vectors sigma.x <= 1."""
    if n < 1:
        raise ValueError("crosspolytope requires dimension >= 1")
    return LatticePolytope(n, family=Family(FamilyTag.CROSSPOLYTOPE))


def pn_family(n: int) -> LatticePolytope:
    """Hull of the (n-1)-cube at height 0 and two (n-1)-crosspolytopes at
    heights -1 and +1.

    The vertex list holds all generator points (for n = 2 the cube
    generators are not extreme).  Its 2*3^(n-1) - 2n + 2 facets are
    +-x_n <= 1 and sigma . x' + (|S| - 1) tau x_n <= |S| over sign vectors
    sigma with nonempty support S, and tau = +-1 when |S| >= 2, so its facet
    distances are 1..n-1.  Membership goes through the slice oracle in
    :mod:`ehrhartlab.counting`.
    """
    if n < 2:
        raise ValueError("this family requires dimension >= 2")
    return LatticePolytope(n, family=Family(FamilyTag.PN_FAMILY))


def qn_family(n: int) -> LatticePolytope:
    """Bipyramid over the (n-1)-cube: hull of cube x {0} and +-e_n."""
    if n < 2:
        raise ValueError("this family requires dimension >= 2")
    return LatticePolytope(n, family=Family(FamilyTag.QN_FAMILY))


def product(p: LatticePolytope, q: LatticePolytope) -> LatticePolytope:
    """Cartesian product; the factors' half-spaces are lifted."""
    return LatticePolytope(
        p.dimension + q.dimension, family=Family(FamilyTag.PRODUCT, factors=(p, q))
    )


def dilate(p: LatticePolytope, k: int) -> LatticePolytope:
    """Scale every vertex (and rhs) by k >= 1; family scale accumulates."""
    if k < 1:
        raise ValueError("dilation factor must be >= 1")
    fam = p.family
    if fam is not None:
        return LatticePolytope(p.dimension, family=fam._replace(scale=fam.scale * k))
    # k times a hull chain is a hull chain, and every half-space stays tight
    # where it was: the lists are scaled, not checked and hulled again.
    verts, halfspaces = _scaled(p.vertices, p.halfspaces, k)
    q = copy(p)
    vars(q).update(_vertices=verts, _halfspaces=halfspaces)
    return q


def is_primitive(v: Sequence[int]) -> bool:
    """True iff the segment from 0 to v contains no interior lattice point."""
    content = gcd(*v)
    if not content:
        raise ValueError("the zero vector is neither primitive nor imprimitive")
    return content == 1


def _require_interior_halfspaces(p: LatticePolytope) -> tuple[Halfspace, ...]:
    hs = p.halfspaces
    if any(h.rhs < 1 for h in hs):
        raise OriginNotInteriorError(
            "origin is not strictly interior (some facet rhs < 1)"
        )
    return hs


def index(p: LatticePolytope) -> int:
    """lcm of the facet right-hand sides (origin must be interior)."""
    hs = _require_interior_halfspaces(p)
    return lcm(*(h.rhs for h in hs))


def _polar_scaled(hs: Sequence[Halfspace], l: int) -> tuple[IntVector, ...]:
    """Vertices of l * (polar): the integer point (l/l_i)*u_i per facet
    u_i . x <= l_i (not deduplicated).  Every l_i must divide l."""
    verts = []
    for normal, rhs in hs:
        q, r = divmod(l, rhs)
        if r:
            raise ValueError(f"facet distance {rhs} does not divide l = {l}")
        verts.append(tuple([q * c for c in normal]))
    return tuple(verts)


def _segment(points: Sequence[IntVector]) -> _Lists:
    """A segment's two ends, lowest first, and x <= max, -x <= -min."""
    lo, hi = min(points), max(points)
    if lo == hi:
        raise ValueError("a segment needs two distinct points")
    return (lo, hi), (Halfspace((1,), hi[0]), Halfspace((-1,), -lo[0]))


def _hull_chain(points: Iterable[IntVector]) -> tuple[IntVector, ...]:
    """Hull vertices of integer points in the plane (monotone chain):
    counterclockwise from the lexicographic minimum, collinear middles
    dropped.  Degenerate input (fewer than three distinct points, or all
    collinear) is rejected."""
    pts = sorted(set(points))
    if len(pts) < 3:
        raise ValueError("hull2d needs at least three distinct points")
    hull = _left_chain(pts)[:-1] + _left_chain(reversed(pts))[:-1]  # lower, upper
    if len(hull) < 3:
        raise ValueError("input points are collinear")
    return tuple(hull)


def _left_chain(pts: Iterable[IntVector]) -> list[IntVector]:
    """The points kept where the chain through them turns strictly left."""
    chain: list[IntVector] = []
    for p in pts:
        x, y = p
        while len(chain) >= 2:
            (ox, oy), (ax, ay) = chain[-2], chain[-1]
            if (ax - ox) * (y - oy) > (ay - oy) * (x - ox):
                break
            chain.pop()
        chain.append(p)
    return chain


def hull2d(points: Iterable[Sequence[int]]) -> LatticePolytope:
    """Convex hull of integer points in the plane: ``LatticePolytope(2, points)``.

    Its vertices are the counterclockwise hull chain from the lexicographic
    minimum, and it has one irredundant half-space per edge with primitive
    normal and tight rhs.  Degenerate input (fewer than three distinct
    points, or all collinear) is rejected.
    """
    return LatticePolytope(2, tuple(points))


def _edge(u: IntVector, v: IntVector) -> Halfspace:
    """The half-space of the counterclockwise hull edge u -> v: its outward
    normal made primitive, tight at u and v.  Built as a bare tuple: the
    quotients by g are plain ints with gcd 1, all that ``Halfspace()``
    would check, by taking that gcd again."""
    nx, ny = v[1] - u[1], u[0] - v[0]
    g = gcd(nx, ny)  # nonzero: consecutive chain vertices differ
    normal = (nx // g, ny // g)
    return tuple.__new__(Halfspace, (normal, (nx * u[0] + ny * u[1]) // g))
