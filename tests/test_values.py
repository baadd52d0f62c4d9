"""Value semantics of the immutable types: equal values are ``==`` with equal
hashes, unequal values are not, no field can be assigned, and cached
properties still cache."""

from fractions import Fraction

import pytest

from ehrhartlab.cli import CommandRequest
from ehrhartlab.ehrhart import EhrhartPolynomial
from ehrhartlab.exact import Polynomial
from ehrhartlab.polytopes import cube, dilate, hull2d
from ehrhartlab.roots import RootSet

SQUARE = Polynomial([1, 4, 4])  # (2k + 1)^2, cube:2's polynomial


# (a value, an equal value built another way, an unequal value, a field)
CASES = {
    "Polynomial": (SQUARE, Polynomial([Fraction(2, 2), Fraction(8, 2), Fraction(4)]),
                   Polynomial([1, 4, 5]), "numerators"),
    "RootSet": (RootSet(SQUARE), RootSet(Polynomial([2, 8, 8], 2)),
                RootSet(Polynomial([1, 2, 1])), "poly"),
    "LatticePolytope family": (dilate(cube(2), 2), dilate(dilate(cube(2), 1), 2),
                               cube(2), "dimension"),
    "LatticePolytope polygon": (hull2d([(0, 0), (2, 0), (0, 2), (1, 1)]),
                                hull2d([(0, 2), (0, 0), (2, 0)]),
                                hull2d([(0, 0), (2, 0), (0, 3)]), "_vertices"),
    "EhrhartPolynomial": (EhrhartPolynomial(2, SQUARE), EhrhartPolynomial(2, Polynomial([1, 4, 4])),
                          EhrhartPolynomial(2, Polynomial([1, 3, 2])), "poly"),
    "CommandRequest": (CommandRequest("roots", "cube:2"),
                       CommandRequest("roots", family_spec="cube:2", a=Fraction(2)),
                       CommandRequest("roots", "cube:2", a=Fraction(4)), "a"),
}


@pytest.mark.parametrize("name", CASES)
def test_equal_values_are_equal_with_equal_hashes(name):
    value, same, other, _ = CASES[name]
    assert value is not same and value == same and hash(value) == hash(same)
    assert value != other and not value == other
    assert len({value, same, other}) == 2


@pytest.mark.parametrize("name", CASES)
def test_fields_cannot_be_assigned(name):
    value, _, other, field = CASES[name]
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(other, field))
    assert value != other


def test_values_of_another_type_are_not_equal():
    assert RootSet(SQUARE) != SQUARE
    assert SQUARE.__eq__(RootSet(SQUARE)) is NotImplemented


def test_cached_properties_cache():
    p = Polynomial([1, 4, 4])
    assert p.coefficients is p.coefficients
    assert p.mean_shift is p.mean_shift
    assert p == SQUARE and hash(p) == hash(SQUARE)  # the caches are no fields
    rs = RootSet(p)
    assert rs.roots is rs.roots
    assert rs.roots == (-0.5, -0.5)


def test_repr_names_the_fields():
    assert repr(SQUARE) == "Polynomial(numerators=(1, 4, 4), denominator=1)"
    assert repr(RootSet(SQUARE)) == f"RootSet(poly={SQUARE!r})"
