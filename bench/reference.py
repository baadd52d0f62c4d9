"""Reference answers for the benchmark, computed without the ehrhartlab package.

Counts come from closed forms written out here, Ehrhart coefficients from
forward differences of those counts, polygons from Pick's theorem, and the
verdicts from the inequalities as stated in the source paper.  Nothing here
imports ehrhartlab, so a wrong answer from the package cannot also be the
expected one.

A family spec is a nested tuple: ``("cube", n)``, ``("cross", n)``,
``("pn", n)``, ``("qn", n)``, ``("product", A, B)`` or ``("dilate", A, s)``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm

# Published Ehrhart coefficients of the 7-dimensional cube-crosspolytope
# hybrid pn:7, constant term first.
PN7_COEFFICIENTS = tuple(
    Fraction(c)
    for c in ("1", "1534/105", "3188/45", "7112/45", "1756/9", "7004/45",
              "4952/45", "15656/315")
)

# conv{(-1,-1), (-1,2), (2,-1)}: reflexive, parity holds about -1/2, and its
# Ehrhart roots -1/3 and -2/3 do not share a real part.
EXCEPTIONAL_TRIANGLE = ((-1, -1), (-1, 2), (2, -1))

# Bipyramids whose polynomial is symmetric about -1/2 although some roots
# leave the line Re = -1/2 (stated in the source paper).
QN_PARITY_ONLY = (9, 11)


def spec_text(spec: tuple) -> str:
    """The spec in the CLI family grammar."""
    tag = spec[0]
    if tag == "product":
        return f"product({spec_text(spec[1])},{spec_text(spec[2])})"
    if tag == "dilate":
        return f"dilate({spec_text(spec[1])},{spec[2]})"
    return f"{tag}:{spec[1]}"


def dimension(spec: tuple) -> int:
    tag = spec[0]
    if tag == "product":
        return dimension(spec[1]) + dimension(spec[2])
    if tag == "dilate":
        return dimension(spec[1])
    return spec[1]


def built_sizes(spec: tuple) -> list[tuple[int, int]]:
    """(vertices, half-spaces) of every polytope the CLI builds for spec.

    Closed forms only, so a request can be refused before anything is
    built.  pn carries no half-spaces; a product has them when both
    factors do.
    """
    tag = spec[0]
    if tag == "cube":
        n = spec[1]
        return [(2**n, 2 * n)]
    if tag == "cross":
        n = spec[1]
        return [(2 * n, 2**n)]
    if tag == "pn":
        n = spec[1]
        inner = built_sizes(("cube", n - 1)) + built_sizes(("cross", n - 1))
        return inner + [(2 ** (n - 1) + 4 * (n - 1), 0)]
    if tag == "qn":
        n = spec[1]
        return built_sizes(("cube", n - 1)) + [(2 ** (n - 1) + 2, 4 * (n - 1))]
    if tag == "product":
        left, right = built_sizes(spec[1]), built_sizes(spec[2])
        (vl, hl), (vr, hr) = left[-1], right[-1]
        return left + right + [(vl * vr, hl + hr if hl and hr else 0)]
    if tag == "dilate":
        inner = built_sizes(spec[1])
        return inner + [inner[-1]]
    raise ValueError(f"unknown family tag {tag!r}")


def _minkowski_count(m: int, a: int, b: int) -> int:
    """Lattice points of a*cube_m + b*cross_m.

    Choose the i coordinates that leave [-a, a], their signs, and positive
    overshoots with sum at most b (C(b, i) ways); the rest take any of
    2a+1 values.
    """
    return sum(
        comb(m, i) * (2 * a + 1) ** (m - i) * 2**i * comb(b, i)
        for i in range(m + 1)
    )


def _qn_slice_sum(n: int, k: int) -> int:
    """Bipyramid over the (n-1)-cube: the middle slice plus two stacks of
    cube slices of half-widths 0..k-1."""
    return (2 * k + 1) ** (n - 1) + 2 * sum((2 * j + 1) ** (n - 1) for j in range(k))


def count(spec: tuple, k: int) -> int:
    """#(k*P cap Z^n) for the family spec."""
    tag = spec[0]
    if tag == "cube":
        return (2 * k + 1) ** spec[1]
    if tag == "cross":
        return _minkowski_count(spec[1], 0, k)
    if tag == "pn":
        m = spec[1] - 1
        return _minkowski_count(m, k, 0) + 2 * sum(
            _minkowski_count(m, k - j, j) for j in range(1, k + 1)
        )
    if tag == "qn":
        n = spec[1]
        if k <= n:
            return _qn_slice_sum(n, k)
        # The slice sum is a polynomial in k: evaluate the one through k = 0..n.
        value = evaluate(coefficients_from_counts([_qn_slice_sum(n, j) for j in range(n + 1)]), k)
        return int(value)
    if tag == "product":
        return count(spec[1], k) * count(spec[2], k)
    if tag == "dilate":
        return count(spec[1], spec[2] * k)
    raise ValueError(f"unknown family tag {tag!r}")


def coefficients_from_counts(values: list[int]) -> list[Fraction]:
    """Monomial coefficients of the degree-n polynomial through
    (k, values[k]) for k = 0..n, from forward differences in the binomial
    basis C(k, j)."""
    diffs = []
    row = list(values)
    while row:
        diffs.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    coeffs = [Fraction(0)] * len(values)
    basis = [Fraction(1)]  # C(k, j) as a polynomial in k
    for j, delta in enumerate(diffs):
        for i, c in enumerate(basis):
            coeffs[i] += delta * c
        nxt = [Fraction(0)] * (len(basis) + 1)
        for i, c in enumerate(basis):
            nxt[i + 1] += c / (j + 1)
            nxt[i] -= c * j / (j + 1)
        basis = nxt
    return coeffs


def family_coefficients(spec: tuple) -> list[Fraction]:
    n = dimension(spec)
    return coefficients_from_counts([count(spec, k) for k in range(n + 1)])


def evaluate(coeffs: list[Fraction], x: Fraction | int) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


# ---------------------------------------------------------------------------
# Polygons


def polygon_hull(points) -> tuple[list[tuple[int, int]], list[tuple[tuple[int, int], int]]]:
    """Counterclockwise hull vertices and one (primitive outward normal, rhs)
    per edge.  Collinear middle points are dropped."""
    pts = sorted(set(points))

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    chain: list[tuple[int, int]] = []
    for sweep in (pts, pts[::-1]):
        part: list[tuple[int, int]] = []
        for p in sweep:
            while len(part) >= 2 and cross(part[-2], part[-1], p) <= 0:
                part.pop()
            part.append(p)
        chain += part[:-1]
    halfspaces = []
    for v, w in zip(chain, chain[1:] + chain[:1]):
        nx, ny = w[1] - v[1], v[0] - w[0]
        g = gcd(nx, ny)
        nx, ny = nx // g, ny // g
        halfspaces.append(((nx, ny), nx * v[0] + ny * v[1]))
    return chain, halfspaces


def pick_coefficients(vertices) -> list[Fraction]:
    """Ehrhart polynomial A k^2 + (B/2) k + 1 of a lattice polygon, from the
    shoelace area A and the B boundary lattice points (Pick's theorem)."""
    edges = list(zip(vertices, list(vertices[1:]) + list(vertices[:1])))
    twice_area = abs(sum(v[0] * w[1] - w[0] * v[1] for v, w in edges))
    boundary = sum(gcd(w[0] - v[0], w[1] - v[1]) for v, w in edges)
    return [Fraction(1), Fraction(boundary, 2), Fraction(twice_area, 2)]


def polygon_root_line(coeffs: list[Fraction], a: Fraction) -> bool:
    """Whether both roots of c2 k^2 + c1 k + 1 have real part -1/a.

    Complex or double roots have real part -c1/(2 c2) exactly; two distinct
    real roots of a lattice polygon differ by at least sqrt(1/4)/c2, far
    beyond any float tolerance, so they never share a real part.
    """
    _, c1, c2 = coeffs
    if c1 * c1 - 4 * c2 > 0:
        return False
    return -c1 / (2 * c2) == -1 / a


def polygon_reflexive(vertices, halfspaces) -> tuple[int, bool]:
    """(l, verdict): l is the lcm of the facet distances; the polygon is
    l-reflexive when every facet sits at distance l and every vertex is
    primitive."""
    rhs = [r for _, r in halfspaces]
    index_l = lcm(*rhs)
    primitive = all(gcd(*v) == 1 for v in vertices)
    return index_l, len(set(rhs)) == 1 and primitive


# ---------------------------------------------------------------------------
# Verdicts on coefficient lists


def family_root_line(spec: tuple, a: Fraction) -> bool | None:
    """Whether every Ehrhart root has real part -1/a, for the families where
    that is known in closed form; None where it is not."""
    tag = spec[0]
    if tag in ("cube", "cross"):
        # (2k+1)^n, and the crosspolytope roots on Re = -1/2.
        return a == 2
    if tag == "dilate" and spec[1][0] == "cube":
        return a == 2 * spec[2]
    if tag == "qn" and spec[1] in QN_PARITY_ONLY:
        return False
    if tag == "product":
        left, right = family_root_line(spec[1], a), family_root_line(spec[2], a)
        if left is False or right is False:
            return False
        if left and right:
            return True
    return None


def parity_holds(coeffs: list[Fraction], a: Fraction) -> bool:
    """p(t - 1/a) is even or odd according to the degree."""
    n = len(coeffs) - 1
    h = -1 / Fraction(a)
    shifted = [
        sum(coeffs[i] * comb(i, j) * h ** (i - j) for i in range(j, n + 1))
        for j in range(n + 1)
    ]
    return all(shifted[j] == 0 for j in range(n + 1) if (n - j) % 2 == 1)


def wills_holds(coeffs: list[Fraction]) -> list[bool]:
    """c_i <= 2^i C(n, i) for every i."""
    n = len(coeffs) - 1
    return [coeffs[i] <= 2**i * comb(n, i) for i in range(n + 1)]


def inequality_suite(coeffs: list[Fraction], a: Fraction) -> dict:
    """The ratio, volume and point-count inequalities for the root line
    Re = -1/a, each as a boolean."""
    n = len(coeffs) - 1
    a = Fraction(a)
    ratios = [
        coeffs[t] / coeffs[s] <= a ** (t - s) * Fraction(comb(n, t), comb(n, s))
        for s in range(n + 1)
        for t in range(s + 1, n + 1)
    ]
    volume, points = coeffs[n], sum(coeffs)
    suite = {"ratios": ratios, "volume": volume <= (a / (a + 1)) ** n * points}
    if n >= 2:
        suite["point_count"] = points <= (a + 1) ** (n - 2) * (a + 2) / a ** (
            n - 1
        ) * volume + (a + 1) ** (n - 2)
    return suite
