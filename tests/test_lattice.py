import itertools
import time
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fuzzaut import Lattice, LatticeValueError

from conftest import BOOL, CHAIN4, GODEL, LUK, PROD

ALL = [BOOL, GODEL, PROD, LUK, CHAIN4, Lattice.chain(20)]


@pytest.mark.parametrize(
    "lat,op,x,y,expected",
    [
        (GODEL, "meet", F(3, 10), F(1, 5), F(1, 5)),
        (CHAIN4, "meet", F(3, 4), F(1, 2), F(1, 2)),
        (LUK, "otimes", F(7, 10), F(4, 5), F(1, 2)),
        (PROD, "otimes", F(1, 2), F(1, 2), F(1, 4)),
        (GODEL, "residuum", F(3, 10), F(1, 5), F(1, 5)),
        (PROD, "residuum", F(1, 2), F(1, 4), F(1, 2)),
        (GODEL, "biresiduum", F(1, 5), F(1), F(1, 5)),
        (BOOL, "biresiduum", F(0), F(1), F(0)),
        (CHAIN4, "otimes", F(3, 4), F(1, 2), F(1, 4)),
        (CHAIN4, "residuum", F(3, 4), F(1, 2), F(3, 4)),
    ],
)
def test_operation_values(lat, op, x, y, expected):
    assert getattr(lat, op)(x, y) == expected


@pytest.mark.parametrize("lat", ALL)
def test_units_and_absorption(lat):
    for x in lat.carrier_sample(11):
        assert lat.join(x, F(0)) == x
        assert lat.meet(x, F(1)) == x
        assert lat.otimes(x, F(1)) == x
        assert lat.otimes(x, F(0)) == F(0)
        assert lat.residuum(x, x) == F(1)
        assert lat.biresiduum(x, x) == F(1)


@pytest.mark.parametrize("lat", ALL)
def test_adjunction(lat):
    grid = lat.carrier_sample(11)
    for x, y, z in itertools.product(grid, repeat=3):
        assert (lat.otimes(x, y) <= z) == (x <= lat.residuum(y, z))


@pytest.mark.parametrize("lat", ALL)
def test_otimes_monoid_laws(lat):
    grid = lat.carrier_sample(9)
    for x, y in itertools.product(grid, repeat=2):
        assert lat.otimes(x, y) == lat.otimes(y, x)
    for x, y, z in itertools.product(grid, repeat=3):
        assert lat.otimes(lat.otimes(x, y), z) == lat.otimes(x, lat.otimes(y, z))


@pytest.mark.parametrize("lat", ALL)
def test_otimes_isotone_and_distributes_over_join(lat):
    grid = lat.carrier_sample(9)
    for x, y, z in itertools.product(grid, repeat=3):
        if y <= z:
            assert lat.otimes(x, y) <= lat.otimes(x, z)
        assert lat.otimes(x, lat.join(y, z)) == lat.join(lat.otimes(x, y), lat.otimes(x, z))


def test_product_lattice_is_not_locally_finite():
    # repeated multiplication by 1/2 never revisits a value
    seen = set()
    x = F(1, 2)
    for _ in range(50):
        assert x not in seen
        seen.add(x)
        x = PROD.otimes(x, F(1, 2))


@pytest.mark.parametrize("lat", [BOOL, GODEL, LUK, CHAIN4])
def test_locally_finite_closure(lat):
    # the subalgebra generated by a small value set stays finite
    values = set(lat.carrier_sample(5))
    for _ in range(6):
        new = set(values)
        for x, y in itertools.product(values, repeat=2):
            new.add(lat.otimes(x, y))
            new.add(lat.residuum(x, y))
        if new == values:
            break
        values = new
    assert len(values) <= 64


class TestTextSyntax:
    def test_parse_forms(self):
        assert GODEL.parse("3/10") == F(3, 10)
        assert GODEL.parse("0.3") == F(3, 10)
        assert GODEL.parse("0") == F(0)
        assert GODEL.parse("1") == F(1)
        assert CHAIN4.parse("2/4") == F(1, 2)

    def test_format_round_trip(self):
        for lat in ALL:
            for x in lat.carrier_sample(11):
                assert lat.parse(lat.format(x)) == x

    def test_rejects_out_of_range(self):
        with pytest.raises(LatticeValueError):
            GODEL.parse("3/2")
        with pytest.raises(LatticeValueError):
            GODEL.parse("-1/2")
        with pytest.raises(LatticeValueError):
            GODEL.parse("zebra")

    def test_bounds_decimal_exponents(self):
        start = time.perf_counter()
        for text in ("1e-3000000", "1E+4301", "1e-4_300_000"):
            with pytest.raises(LatticeValueError):
                GODEL.parse(text)
        assert time.perf_counter() - start < 0.5
        assert GODEL.parse("1e-3") == F(1, 1000)
        assert GODEL.parse("0.3") == F(3, 10)
        assert GODEL.parse("1e-4300") == F(1, 10**4300)

    def test_boolean_rejects_strict_values(self):
        with pytest.raises(LatticeValueError):
            BOOL.parse("0.3")

    def test_chain_rejects_off_grid(self):
        with pytest.raises(LatticeValueError):
            CHAIN4.parse("1/3")
        with pytest.raises(LatticeValueError):
            CHAIN4.validate(F(1, 5))


def comparison_verdict(lat, x):
    """The carrier test as `Fraction` comparisons, the way `Lattice.validate`
    decided it before it moved to integer tests on numerator and denominator:
    the error message for x, or None if x is in the carrier."""
    if x < 0 or x > 1:
        return f"value {x} outside [0,1]"
    if lat.kind == "boolean":
        if x != 0 and x != 1:
            return f"value {x} not in the Boolean carrier {{0,1}}"
    elif lat.kind == "chain":
        if (x * lat.n).denominator != 1:
            return f"value {x} not on the chain({lat.n}) grid"
    return None


@pytest.mark.parametrize(
    "lat", [BOOL, GODEL, PROD, LUK, Lattice.chain(1), CHAIN4, Lattice.chain(6)],
    ids=lambda lat: lat.describe(),
)
@given(x=st.one_of(st.fractions(-2, 2, max_denominator=12), st.fractions(-2, 2)))
def test_validate_matches_comparison_predicate(lat, x):
    expected = comparison_verdict(lat, x)
    if expected is None:
        assert lat.validate(x) is x
    else:
        with pytest.raises(LatticeValueError) as excinfo:
            lat.validate(x)
        assert str(excinfo.value) == expected


def test_chain_needs_level_count():
    with pytest.raises(LatticeValueError):
        Lattice("chain")
    with pytest.raises(LatticeValueError):
        Lattice("godel", 4)
    with pytest.raises(LatticeValueError):
        Lattice("triangular")


@pytest.mark.parametrize("n", [2.5, 4.0, True, False, "2", 0])
def test_chain_level_count_must_be_a_positive_int(n):
    # a float or a bool was accepted, and 4.0 failed later inside encode
    with pytest.raises(LatticeValueError, match="must be an integer >= 1"):
        Lattice.chain(n)


@given(
    x=st.fractions(min_value=0, max_value=1, max_denominator=40),
    y=st.fractions(min_value=0, max_value=1, max_denominator=40),
)
def test_residuum_is_greatest_adjoint_on_continuous_lattices(x, y):
    for lat in (GODEL, PROD, LUK):
        r = lat.residuum(x, y)
        assert lat.otimes(x, r) <= y
        # anything strictly above r breaks the bound (chains: test midpoint)
        if r < 1:
            above = (r + 1) / 2
            assert lat.otimes(x, above) > y
