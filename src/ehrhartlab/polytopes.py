"""Lattice polytopes: representations, named families, and constructions.

A polytope always carries its vertex list (for the bipyramid and
cube-crosspolytope hybrid families this is the generator list; generators
may fail to be extreme in low dimensions - route through :func:`hull2d`
when a minimal polygon description is needed).  Half-space representations
use primitive integer normals.  There is deliberately no general-dimension
vertex-to-facet conversion: every family here has either an explicit
H-representation or a membership oracle, and polygons go through
:func:`hull2d`.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import product as iter_product
from math import gcd, lcm
from typing import Iterable, NamedTuple, Sequence

IntVector = tuple[int, ...]


class OriginNotInteriorError(ValueError):
    """Raised when an operation requires the origin strictly inside."""


class FamilyTag(str, Enum):
    CUBE = "cube"
    CROSSPOLYTOPE = "crosspolytope"
    PN_FAMILY = "pn"
    QN_FAMILY = "qn"
    PRODUCT = "product"
    GENERIC = "generic"


@dataclass(frozen=True)
class Family:
    """Construction recipe attached to a polytope for fast counting.

    ``scale`` accumulates dilations, so ``dilate(cube(2), 3)`` is the cube
    family with scale 3 and all counters stay closed-form.
    """

    tag: FamilyTag
    n: int | None = None
    scale: int = 1
    factors: tuple["LatticePolytope", ...] = field(default=())


@dataclass(frozen=True)
class Halfspace:
    """Closed half-space {x : normal . x <= rhs} with primitive normal.

    ``rhs`` is an integer; it is >= 1 for every half-space of a polytope
    containing the origin in its interior (enforced where that matters,
    not here, so hulls away from the origin remain representable).
    """

    normal: IntVector
    rhs: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "normal", tuple(int(c) for c in self.normal))
        object.__setattr__(self, "rhs", int(self.rhs))
        if not self.normal or all(c == 0 for c in self.normal):
            raise ValueError("half-space normal must be nonzero")
        if gcd(*(abs(c) for c in self.normal)) != 1:
            raise ValueError(f"half-space normal {self.normal} is not primitive")

    def contains(self, point: Sequence[int]) -> bool:
        return sum(n * x for n, x in zip(self.normal, point)) <= self.rhs

    def is_tight_at(self, point: Sequence[int]) -> bool:
        return sum(n * x for n, x in zip(self.normal, point)) == self.rhs


@dataclass(frozen=True)
class LatticePolytope:
    """Integer vertex list, optional facet half-spaces, optional family tag.

    ``check=False`` skips the O(vertices * halfspaces) consistency
    validation; the family constructors use it because their output is
    correct by construction (cube(20) has 2^20 vertices and validation
    would dominate everything).  External data keeps the default.
    """

    dimension: int
    vertices: tuple[IntVector, ...]
    halfspaces: tuple[Halfspace, ...] | None = None
    family: Family | None = None
    check: InitVar[bool] = True

    def __post_init__(self, check: bool) -> None:
        object.__setattr__(
            self, "vertices", tuple(tuple(int(c) for c in v) for v in self.vertices)
        )
        if self.halfspaces is not None:
            object.__setattr__(self, "halfspaces", tuple(self.halfspaces))
        if not self.vertices:
            raise ValueError("polytope needs at least one vertex")
        if not check:
            return
        for v in self.vertices:
            if len(v) != self.dimension:
                raise ValueError(
                    f"vertex {v} has {len(v)} coordinates, expected {self.dimension}"
                )
        if self.halfspaces is not None:
            for hs in self.halfspaces:
                if len(hs.normal) != self.dimension:
                    raise ValueError("half-space dimension mismatch")
                for v in self.vertices:
                    if not hs.contains(v):
                        raise ValueError(
                            f"vertex {v} violates half-space {hs.normal}.x <= {hs.rhs}"
                        )
                if not any(hs.is_tight_at(v) for v in self.vertices):
                    raise ValueError(
                        f"half-space {hs.normal}.x <= {hs.rhs} is tight at no vertex"
                    )

    def bounding_radius(self) -> int:
        """Max |coordinate| over vertices; points beyond are outside."""
        return max(abs(c) for v in self.vertices for c in v)


def _unit(n: int, i: int, sign: int = 1) -> IntVector:
    v = [0] * n
    v[i] = sign
    return tuple(v)


def cube(n: int) -> LatticePolytope:
    """The cube [-1, 1]^n with its 2n facet half-spaces."""
    if n < 1:
        raise ValueError("cube requires dimension >= 1")
    verts = tuple(iter_product((-1, 1), repeat=n))
    hs = tuple(
        Halfspace(_unit(n, i, s), 1) for i in range(n) for s in (1, -1)
    )
    return LatticePolytope(n, verts, hs, Family(FamilyTag.CUBE, n=n), check=False)


def crosspolytope(n: int) -> LatticePolytope:
    """conv{+-e_1, ..., +-e_n}; facets are all sign vectors sigma.x <= 1."""
    if n < 1:
        raise ValueError("crosspolytope requires dimension >= 1")
    verts = tuple(_unit(n, i, s) for i in range(n) for s in (1, -1))
    hs = tuple(Halfspace(sigma, 1) for sigma in iter_product((-1, 1), repeat=n))
    return LatticePolytope(
        n, verts, hs, Family(FamilyTag.CROSSPOLYTOPE, n=n), check=False
    )


def pn_family(n: int) -> LatticePolytope:
    """Hull of the (n-1)-cube at height 0 and two (n-1)-crosspolytopes at
    heights -1 and +1.

    The vertex list holds all generator points (for n = 2 the cube
    generators are not extreme).  No H-representation; membership goes
    through the slice oracle in :mod:`ehrhartlab.counting`.
    """
    if n < 2:
        raise ValueError("this family requires dimension >= 2")
    base = cube(n - 1).vertices
    tips = crosspolytope(n - 1).vertices
    verts = tuple(v + (0,) for v in base) + tuple(
        v + (h,) for h in (-1, 1) for v in tips
    )
    return LatticePolytope(
        n, verts, None, Family(FamilyTag.PN_FAMILY, n=n), check=False
    )


def qn_family(n: int) -> LatticePolytope:
    """Bipyramid over the (n-1)-cube: hull of cube x {0} and +-e_n.

    Facets are sigma_i e_i + sigma_n e_n . x <= 1, so every facet lies at
    lattice distance 1 from the origin.
    """
    if n < 2:
        raise ValueError("this family requires dimension >= 2")
    base = cube(n - 1).vertices
    verts = tuple(v + (0,) for v in base) + (_unit(n, n - 1, 1), _unit(n, n - 1, -1))
    hs = []
    for i in range(n - 1):
        for si in (1, -1):
            for sn in (1, -1):
                normal = [0] * n
                normal[i] = si
                normal[n - 1] = sn
                hs.append(Halfspace(tuple(normal), 1))
    return LatticePolytope(
        n, verts, tuple(hs), Family(FamilyTag.QN_FAMILY, n=n), check=False
    )


def product(p: LatticePolytope, q: LatticePolytope) -> LatticePolytope:
    """Cartesian product; half-spaces are lifted when both factors have them."""
    dim = p.dimension + q.dimension
    verts = tuple(vp + vq for vp in p.vertices for vq in q.vertices)
    hs: tuple[Halfspace, ...] | None = None
    if p.halfspaces is not None and q.halfspaces is not None:
        zero_q = (0,) * q.dimension
        zero_p = (0,) * p.dimension
        hs = tuple(Halfspace(h.normal + zero_q, h.rhs) for h in p.halfspaces) + tuple(
            Halfspace(zero_p + h.normal, h.rhs) for h in q.halfspaces
        )
    return LatticePolytope(
        dim, verts, hs, Family(FamilyTag.PRODUCT, factors=(p, q)), check=False
    )


def dilate(p: LatticePolytope, k: int) -> LatticePolytope:
    """Scale every vertex (and rhs) by k >= 1; family scale accumulates."""
    if k < 1:
        raise ValueError("dilation factor must be >= 1")
    verts = tuple(tuple(k * c for c in v) for v in p.vertices)
    hs = None
    if p.halfspaces is not None:
        hs = tuple(Halfspace(h.normal, k * h.rhs) for h in p.halfspaces)
    fam = None
    if p.family is not None:
        fam = Family(p.family.tag, p.family.n, p.family.scale * k, p.family.factors)
    return LatticePolytope(p.dimension, verts, hs, fam, check=False)


def is_primitive(v: Sequence[int]) -> bool:
    """True iff the segment from 0 to v contains no interior lattice point."""
    if all(c == 0 for c in v):
        raise ValueError("the zero vector is neither primitive nor imprimitive")
    return gcd(*(abs(c) for c in v)) == 1


def vertex_content(v: Sequence[int]) -> int:
    """gcd of |coordinates|: v = content * (primitive vector)."""
    if all(c == 0 for c in v):
        raise ValueError("the zero vector has no content")
    return gcd(*(abs(c) for c in v))


def _require_interior_halfspaces(p: LatticePolytope) -> tuple[Halfspace, ...]:
    if p.halfspaces is None:
        raise ValueError("operation requires a half-space representation")
    if any(h.rhs < 1 for h in p.halfspaces):
        raise OriginNotInteriorError(
            "origin is not strictly interior (some facet rhs < 1)"
        )
    return p.halfspaces


def index(p: LatticePolytope) -> int:
    """lcm of the facet right-hand sides (origin must be interior)."""
    hs = _require_interior_halfspaces(p)
    return lcm(*(h.rhs for h in hs))


class PolarScaled(NamedTuple):
    is_lattice: bool
    vertices: tuple[tuple[Fraction, ...], ...]


def polar_scaled(p: LatticePolytope, l: int) -> PolarScaled:
    """Vertices of l * (polar of p): the points l*u_i/l_i per facet.

    ``is_lattice`` is true iff every coordinate of every such point is an
    integer.  Coincident candidates are not deduplicated; latticeness is a
    per-point question.
    """
    if l < 1:
        raise ValueError("polar scale must be >= 1")
    hs = _require_interior_halfspaces(p)
    verts = tuple(
        tuple(Fraction(l * c, h.rhs) for c in h.normal) for h in hs
    )
    lattice = all(c.denominator == 1 for v in verts for c in v)
    return PolarScaled(lattice, verts)


def _cross2(o: IntVector, a: IntVector, b: IntVector) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull2d(points: Iterable[Sequence[int]]) -> LatticePolytope:
    """Convex hull of integer points in the plane (monotone chain).

    Returns counterclockwise vertices starting from the lexicographic
    minimum, plus one irredundant half-space per edge with primitive
    normal and tight rhs.  Degenerate input (fewer than three distinct
    points, or all collinear) is rejected.
    """
    pts = sorted({tuple(int(c) for c in p) for p in points})
    if any(len(p) != 2 for p in pts):
        raise ValueError("hull2d expects 2-dimensional points")
    if len(pts) < 3:
        raise ValueError("hull2d needs at least three distinct points")
    # Build lower then upper chain, dropping collinear middles.
    lower: list[IntVector] = []
    for p in pts:
        while len(lower) >= 2 and _cross2(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[IntVector] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross2(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise ValueError("input points are collinear")
    hs = []
    m = len(hull)
    for i in range(m):
        v, w = hull[i], hull[(i + 1) % m]
        dx, dy = w[0] - v[0], w[1] - v[1]
        # Outward normal of a CCW edge.
        nx, ny = dy, -dx
        g = gcd(abs(nx), abs(ny))
        nx, ny = nx // g, ny // g
        hs.append(Halfspace((nx, ny), nx * v[0] + ny * v[1]))
    return LatticePolytope(
        2, tuple(hull), tuple(hs), Family(FamilyTag.GENERIC)
    )
