"""Lattice point enumeration in dilates.

Three layers, from slow-and-universal to fast-and-specialized:

* :func:`count_box_scan` - scan the bounding box in lexicographic order,
  one array predicate per block of at most 2^17 bytes of coordinates; a
  block is a fixed grid of the last coordinates, a run of values of the
  one before, and constant earlier ones, so no coordinate is divided out
  of a flat index.  Ground truth for everything
  else (verify-all row 5 checks the closed form below against such a scan
  of its deficiency predicate); kept to desk scale, and the automatic counter
  only for JSON polytopes of dimension 1 or >= 3.
* :func:`count_minkowski_dp` - a closed form (the name is older) for the
  Minkowski sums a*C_m + b*C_m* that are the slices of the
  cube-crosspolytope hybrid: O(m) terms, so O(m * k) at dilation k.
* closed forms - :func:`count_qn_closed` for the bipyramid family, and
  Pick's theorem L(k) = A k^2 + (B/2) k + 1 for every lattice polygon
  (area A, B lattice points on its boundary), read off its vertices, which
  are its hull chain.

All counts are exact Python ints; (2k+1)^(n-1) at n = 13 already exceeds
64-bit ranges, so nothing here ever touches floats.  A box scan holds
coordinates in the narrowest signed integer type that holds dim * r (at
most int64: its box is capped well inside that range), in buffers it
allocates once, and takes half-space dot products over Python ints.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache
from math import comb, gcd
from typing import TYPE_CHECKING, Callable

from .polytopes import FamilyTag, LatticePolytope, dilate

if TYPE_CHECKING:
    import numpy as np

# Bytes of coordinates per block of a box scan, so points = _BLOCK // (dim *
# itemsize): large enough that NumPy's per-call cost vanishes.  The scan
# allocates its block, scratch rows and answers once, because temporaries
# of a block's size, freed block after block, make glibc trim and regrow
# the heap top and pay a page fault per page.
_BLOCK = 2**17
# A box of 2^60 points bounds dim * r, and so every sum of up to dim
# coordinates, below 2^63: int64 always holds them, and no box this large
# could be scanned anyway.
_MAX_BOX = 2**60


@dataclass(frozen=True, slots=True)
class MembershipOracle:
    """Membership predicate plus a box that certainly contains the polytope.

    ``contains`` reads coordinates from the last axis of an integer array
    (``x[..., i]``), so it answers for one point, ``contains((1, 1))``, and
    for a block of points at once, returning one boolean per point.

    A box scan hands it views of one buffer that the scan owns: each
    coordinate ``x[..., i]`` is a contiguous row, in the narrowest signed
    integer type that holds ``dimension * bounding_radius``.  So a sum of up
    to ``dimension`` absolute coordinates fits that type; a predicate that
    needs more range casts up itself.  When ``scratch_rows`` is positive the
    scan calls ``contains(x, scratch, out)``: ``scratch`` is a
    ``(scratch_rows, len(x))`` array of x's type for the predicate's
    temporaries, written through ``out=``, and ``out`` a boolean array of
    ``len(x)`` that receives the answers and is returned.  The predicate
    must keep none of the three, nor assume what they hold on entry: the
    next block overwrites them.
    """

    dimension: int
    contains: Callable[..., np.ndarray]
    bounding_radius: int
    scratch_rows: int = 0


def _family_oracle(
    dim: int, radius: int, rows: int, test: Callable[..., np.ndarray]
) -> MembershipOracle:
    """Oracle whose predicate ``test(x, scratch, out)`` needs ``rows`` scratch
    rows; a call without them, like ``contains((1, 1))``, gets its own."""

    def contains(
        x: np.ndarray, scratch: np.ndarray | None = None, out: np.ndarray | None = None
    ) -> np.ndarray:
        if scratch is not None:
            return test(x, scratch, out)
        import numpy as np

        x = np.asarray(x)
        points = x.reshape(-1, dim)
        scratch = np.empty((rows, len(points)), points.dtype)
        return test(points, scratch, np.empty(len(points), bool)).reshape(x.shape[:-1])

    return MembershipOracle(dim, contains, radius, rows)


def oracle_for(p: LatticePolytope) -> MembershipOracle:
    """Membership oracle for a family polytope or one with half-spaces.

    Family oracles account for the accumulated dilation scale, so the
    oracle of ``dilate(pn_family(3), 2)`` answers for the dilated body, and
    they take scratch from a box scan.  Building one touches no array:
    NumPy loads when ``contains`` first runs, so a box scan refused for its
    size never loads it.
    """
    fam = p.family
    if fam is not None:
        s, dim = fam.scale, p.dimension
        if fam.tag is FamilyTag.CUBE:

            def inside_cube(x, scratch, out) -> np.ndarray:
                import numpy as np

                a = np.abs(x, out=scratch[:dim].T)
                m = np.maximum.reduce(a, axis=-1, out=scratch[dim])
                return np.less_equal(m, s, out=out)

            return _family_oracle(dim, s, dim + 1, inside_cube)
        if fam.tag is FamilyTag.CROSSPOLYTOPE:

            def inside_cross(x, scratch, out) -> np.ndarray:
                import numpy as np

                a = np.abs(x, out=scratch[:dim].T)
                total = np.add.reduce(a, axis=-1, dtype=a.dtype, out=scratch[dim])
                return np.less_equal(total, s, out=out)

            return _family_oracle(dim, s, dim + 1, inside_cross)
        if fam.tag is FamilyTag.PN_FAMILY:

            def inside_pn(x, scratch, out) -> np.ndarray:
                import numpy as np

                # At height h the slice is (s-h)*C_m + h*C_m*: with t = s - h,
                # the deficiency sum_i max(|x_i| - t, 0) is at most h = s - t,
                # that is sum_i max(|x_i|, t) - (m-1)t <= s, and t >= 0.  The
                # last column holds -(m-1)t once h is read.  No maximum with
                # a scalar: NumPy runs that one element at a time.  Where
                # t < 0 the sums may wrap, but the minimum with t decides.
                a = np.abs(x, out=scratch[:dim].T)
                t = np.subtract(s, a[..., -1], out=scratch[dim])
                np.multiply(t, 2 - dim, out=a[..., -1])
                np.maximum(a[..., :-1], t[..., None], out=a[..., :-1])
                slack = np.add.reduce(a, axis=-1, dtype=a.dtype, out=scratch[dim + 1])
                np.subtract(s, slack, out=slack)
                np.minimum(slack, t, out=slack)
                return np.greater_equal(slack, 0, out=out)

            return _family_oracle(dim, s, dim + 2, inside_pn)
        if fam.tag is FamilyTag.QN_FAMILY:

            def inside_qn(x, scratch, out) -> np.ndarray:
                import numpy as np

                a = np.abs(x, out=scratch[:dim].T)
                m = np.maximum.reduce(a[..., :-1], axis=-1, out=scratch[dim])
                np.add(m, a[..., -1], out=m)
                return np.less_equal(m, s, out=out)

            return _family_oracle(dim, s, dim + 1, inside_qn)
        if fam.tag is FamilyTag.PRODUCT:
            sub = [oracle_for(dilate(f, s) if s > 1 else f) for f in fam.factors]
            ends = list(itertools.accumulate(o.dimension for o in sub))

            def inside_product(x, scratch, out) -> np.ndarray:
                import numpy as np

                # The first scratch row counts the factors that contain each
                # point; each factor takes the rows after it as its scratch.
                count = scratch[0]
                count.fill(0)
                for o, e in zip(sub, ends):
                    buffers = (scratch[1:], out) if o.scratch_rows else ()
                    np.add(count, o.contains(x[..., e - o.dimension : e], *buffers), out=count)
                return np.equal(count, len(sub), out=out)

            radius = max(o.bounding_radius for o in sub)
            rows = 1 + max(o.scratch_rows for o in sub)
            return _family_oracle(dim, radius, rows, inside_product)
    if p.halfspaces is not None:
        halfspaces = p.halfspaces

        @cache
        def arrays() -> tuple[np.ndarray, np.ndarray]:
            import numpy as np

            # Object dtype: exact Python-int dot products for any JSON normal.
            normals = np.array([h.normal for h in halfspaces], dtype=object).T
            return normals, np.array([h.rhs for h in halfspaces], dtype=object)

        def inside_halfspaces(x: np.ndarray) -> np.ndarray:
            normals, rhs = arrays()
            return (x @ normals <= rhs).all(-1)

        radius = max(abs(c) for v in p.vertices for c in v)
        return MembershipOracle(p.dimension, inside_halfspaces, radius)
    raise ValueError(
        "no membership oracle: polytope has neither a family tag nor half-spaces"
    )


def count_box_scan(oracle: MembershipOracle, max_points: int | None = None) -> int:
    """Exact point count by scanning the bounding box in blocks of points.

    ``max_points`` refuses scans whose box exceeds the budget.  The oracle
    sees coordinates in the narrowest signed type holding ``dimension *
    bounding_radius`` (see :class:`MembershipOracle`).
    """
    r = oracle.bounding_radius
    dim = oracle.dimension
    side = 2 * r + 1
    # side^dim >= 2^low: a box past a limit's bit length is refused unbuilt.
    low = (side.bit_length() - 1) * dim
    if max_points is not None and (
        low >= max_points.bit_length() or side**dim > max_points
    ):
        raise ValueError(
            f"box scan of {_shown(side)}^{dim} points exceeds the budget of "
            f"{_shown(max_points)}; use a family counter instead"
        )
    if low >= _MAX_BOX.bit_length() or (points := side**dim) >= _MAX_BOX:
        raise ValueError(f"box scan of {_shown(side)}^{dim} points is too large to index")
    import numpy as np

    # The narrowest signed type that holds dim * r, so that a block of
    # _BLOCK bytes holds as many points as it can.
    bound = dim * r
    size = 1 if bound < 2**7 else 2 if bound < 2**15 else 4 if bound < 2**31 else 8
    dtype = f"i{size}"
    fit = max(_BLOCK // (dim * size), 1)
    rows, contains = oracle.scratch_rows, oracle.contains
    # Blocks are coordinate-major: the transpose makes each x[..., i]
    # contiguous, and the rows after the coordinates are the oracle's
    # scratch.  Coordinate i varies along axis i of a grid, filled by
    # broadcasting, which is faster than np.indices and np.tile.
    if points <= fit:  # the whole box is one block, like verify-all's many tiny boxes
        box = np.empty((dim + rows,) + (side,) * dim, dtype)
        axis = np.arange(-r, r + 1, dtype=dtype)
        for i in range(dim):
            box[i] = axis[(...,) + (None,) * (dim - 1 - i)]
        flat = box.reshape(dim + rows, -1)
        x = flat[:dim].T
        inside = contains(x, flat[dim:], np.empty(points, bool)) if rows else contains(x)
        return int(np.count_nonzero(inside))
    # Otherwise a block holds the leading d coordinates constant, steps
    # coordinate d through a run of c values, and pairs each value with the
    # grid of the last j coordinates, the largest that fits, built once:
    # lexicographic order, and no coordinate divided out of a flat index.
    j = 0
    while j < dim - 1 and side ** (j + 1) <= fit:
        j += 1
    inner = side**j
    d, c = dim - j - 1, min(side, fit // inner)
    block = np.empty((dim + rows, c * inner), dtype)
    answers = np.empty(c * inner, bool)
    # The grid for the run's first value, then copied to the other c - 1:
    # copies of whole grids are faster than broadcasts along short axes.
    if j:
        axis = np.arange(-r, r + 1, dtype=dtype)
        grid = block[d + 1 : dim]
        for i in range(j):
            grid[i, :inner].reshape((side,) * j)[...] = axis[(...,) + (None,) * (j - 1 - i)]
        grid.reshape(j, c, inner)[:, 1:] = grid[:, None, :inner]
    # Offsets below c <= 2r + 1 exceed the type only in dimension 1; there
    # they wrap, and each sum with the run's start, in [-r, r], is exact.
    run = np.arange(c).astype(dtype).repeat(inner)
    total = 0
    for outer in itertools.product(range(-r, r + 1), repeat=d):
        block[:d].T[...] = outer
        for lo in range(-r, r + 1, c):
            n = min(c, r + 1 - lo) * inner
            np.add(run[:n], lo, out=block[d, :n])
            x = block[:dim, :n].T
            inside = contains(x, block[dim:, :n], answers[:n]) if rows else contains(x)
            total += int(np.count_nonzero(inside))
    return total


def _shown(n: int) -> str:
    """n for a message; past 12 digits, its digit count."""
    return str(n) if n < 10**12 else f"({len(str(n))}-digit number)"


def count_minkowski_dp(m: int, a: int, b: int) -> int:
    """Points of a*C_m + b*C_m* : vectors with sum_i max(|x_i| - a, 0) <= b.

    In closed form, sum_{i <= min(m, b)} C(m, i) C(b, i) 2^i (2a+1)^(m-i):
    choose the i coordinates with positive deficiency, their signs, and
    deficiencies d_1..d_i >= 1 with sum at most b (C(b, i) such
    compositions of the budget); every other coordinate has 2a+1 choices.
    """
    if m < 1:
        raise ValueError("dimension must be >= 1")
    if a < 0 or b < 0:
        raise ValueError("scales must be nonnegative")
    core, top = 2 * a + 1, min(m, b)
    total, power = 0, core ** (m - top)
    for i in range(top, -1, -1):  # power = core^(m-i)
        total += comb(m, i) * comb(b, i) * power << i
        power *= core
    return total


def count_qn_closed(n: int, k: int) -> int:
    """Bipyramid over the (n-1)-cube, dilated by k:
    (2k+1)^(n-1) + 2 * sum_{j=0}^{k-1} (2j+1)^(n-1)."""
    if n < 2:
        raise ValueError("this family requires dimension >= 2")
    if k < 0:
        raise ValueError("dilation must be nonnegative")
    return (2 * k + 1) ** (n - 1) + 2 * sum(
        (2 * j + 1) ** (n - 1) for j in range(k)
    )


def count_pn_sliced(n: int, k: int) -> int:
    """Slice decomposition for the cube-crosspolytope hybrid at dilation k.

    The height-j slice is (k-|j|)*C_{n-1} + |j|*C_{n-1}*, counted in
    closed form by :func:`count_minkowski_dp` (O(n) terms) and summed over
    j = -k..k: O(k n) terms per dilation.
    """
    if n < 2:
        raise ValueError("this family requires dimension >= 2")
    if k < 0:
        raise ValueError("dilation must be nonnegative")
    slices = (count_minkowski_dp(n - 1, k - j, j) for j in range(1, k + 1))
    return count_minkowski_dp(n - 1, k, 0) + 2 * sum(slices)


def scan_counter(
    p: LatticePolytope, max_box_points: int | None = None
) -> Callable[[int], int]:
    """Counter k -> #(kP cap Z^n) by a box scan of each dilate (guarded by
    ``max_box_points``)."""

    def counter(k: int) -> int:
        if k == 0:
            return 1  # every polytope here contains the origin
        return count_box_scan(oracle_for(dilate(p, k)), max_points=max_box_points)

    return counter


def dilation_counter(
    p: LatticePolytope, max_box_points: int | None = None
) -> Callable[[int], int]:
    """Best exact counter k -> #(kP cap Z^n) for the given polytope.

    Family polytopes use their closed forms and polygons Pick's
    theorem; a JSON polytope of dimension 1 or >= 3 falls back to a box
    scan of the dilate (guarded by ``max_box_points``).
    """
    fam = p.family
    if fam is not None:
        s = fam.scale
        if fam.tag is FamilyTag.CUBE:
            return lambda k: (2 * s * k + 1) ** p.dimension
        if fam.tag is FamilyTag.CROSSPOLYTOPE:
            return lambda k: count_minkowski_dp(p.dimension, 0, s * k)
        if fam.tag is FamilyTag.PN_FAMILY:
            return lambda k: count_pn_sliced(p.dimension, s * k)
        if fam.tag is FamilyTag.QN_FAMILY:
            return lambda k: count_qn_closed(p.dimension, s * k)
        if fam.tag is FamilyTag.PRODUCT:
            subs = [
                dilation_counter(dilate(f, s) if s > 1 else f, max_box_points)
                for f in fam.factors
            ]

            def counter(k: int) -> int:
                total = 1
                for c in subs:
                    total *= c(k)
                return total

            return counter
    if p.dimension == 2:
        boundary, twice_area = pick_sums(p)
        return lambda k: (twice_area * k * k + boundary * k) // 2 + 1

    return scan_counter(p, max_box_points)


def pick_sums(p: LatticePolytope) -> tuple[int, int]:
    """(B, 2A): a polygon's boundary points and twice its area, from its hull."""
    hull, boundary, twice_area = p.vertices, 0, 0
    for (ux, uy), (vx, vy) in zip(hull, hull[1:] + hull[:1]):
        twice_area += ux * vy - vx * uy
        boundary += gcd(vx - ux, vy - uy)
    return boundary, twice_area
