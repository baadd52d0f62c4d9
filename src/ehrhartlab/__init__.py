"""Exact lattice-point counting, Ehrhart polynomials, and mechanical
verification of coefficient bounds, root-line properties, and
l-reflexivity for the cube, crosspolytope, bipyramid, and hybrid
families."""

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
    EhrhartPolynomial,
    ehrhart_of,
    product_coefficients,
    qn_coefficients,
    qn_first_coefficient,
    qn_growth_check,
)
from .exact import (
    Polynomial,
    bernoulli,
    bernoulli_magnitude_bounds,
    interpolate,
)
from .polytopes import (
    Family,
    FamilyTag,
    Halfspace,
    LatticePolytope,
    OriginNotInteriorError,
    crosspolytope,
    cube,
    dilate,
    hull2d,
    index,
    is_primitive,
    pn_family,
    product,
    qn_family,
)
from .reflexivity import (
    ReflexivityReport,
    reflexivity_equivalence,
    root_line_reflexivity_consequence,
)
from .roots import (
    BoundVerdict,
    RootSet,
    WillsVerdict,
    braun_disc_check,
    coefficient_ratio_bound,
    common_real_part,
    find_roots,
    parity_necessary_check,
    point_count_bound,
    volume_bound,
    wills_check,
)

__version__ = "0.1.0"

__all__ = [
    "BoundVerdict",
    "EhrhartPolynomial",
    "Family",
    "FamilyTag",
    "Halfspace",
    "LatticePolytope",
    "MembershipOracle",
    "OriginNotInteriorError",
    "Polynomial",
    "ReflexivityReport",
    "RootSet",
    "WillsVerdict",
    "bernoulli",
    "bernoulli_magnitude_bounds",
    "braun_disc_check",
    "coefficient_ratio_bound",
    "common_real_part",
    "count_box_scan",
    "count_minkowski_dp",
    "count_pn_sliced",
    "count_qn_closed",
    "crosspolytope",
    "cube",
    "dilate",
    "dilation_counter",
    "ehrhart_of",
    "find_roots",
    "hull2d",
    "index",
    "interpolate",
    "is_primitive",
    "oracle_for",
    "parity_necessary_check",
    "pn_family",
    "point_count_bound",
    "product",
    "product_coefficients",
    "qn_coefficients",
    "qn_family",
    "qn_first_coefficient",
    "qn_growth_check",
    "reflexivity_equivalence",
    "root_line_reflexivity_consequence",
    "volume_bound",
    "wills_check",
]
