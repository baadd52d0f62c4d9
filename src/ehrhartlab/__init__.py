"""Exact lattice-point counting, Ehrhart polynomials, and mechanical
verification of coefficient bounds, root-line properties, and
l-reflexivity for the cube, crosspolytope, bipyramid, and hybrid
families.

Each name is imported from its module (``ehrhartlab.counting``,
``ehrhartlab.polytopes``, ...); the package itself imports nothing."""

__version__ = "0.1.0"
