"""Unit algebra: the named table, parsing, arithmetic and formatting."""
import math

import pytest
from hypothesis import given, strategies as st

from remodyc.units import (
    DIMENSIONLESS,
    DimensionOverflowError,
    NAMED_UNITS,
    SIBaseUnit,
    Unit,
    UnitError,
    UnitParseError,
    div_units,
    format_unit,
    mul_units,
    parse_unit,
    pow_unit,
    same_dimension,
    sqrt_unit,
)

M = SIBaseUnit.M
S = SIBaseUnit.S
KG = SIBaseUnit.KG


# Scale factors to SI, computed by hand from the definitions of the
# named units.  These are frozen: the table must match them exactly.
SI_FACTORS = {
    "m": 1.0,
    "km": 1000.0,
    "cm": 0.01,
    "mm": 0.001,
    "s": 1.0,
    "min": 60.0,
    "h": 3600.0,
    "day": 86400.0,
    "kg": 1.0,
    "g": 0.001,
    "t": 1000.0,
    "K": 1.0,
    "degreeC": 1.0,
    "degreeF": 1.0,
    "rad": 1.0,
    "deg": math.pi / 180.0,
    "mol": 1.0,
}


def test_named_units_cover_the_table_exactly():
    assert set(NAMED_UNITS) == set(SI_FACTORS)
    for name, factor in SI_FACTORS.items():
        assert parse_unit(name).scale == factor, name


def test_parse_simple_names():
    day = parse_unit("day")
    assert day.dimension == ((S, 1),)
    assert day.scale == 86400.0
    assert day.label == "day"


def test_parse_compound_rate():
    u = parse_unit("km/day")
    assert u.dimension == ((M, 1), (S, -1))
    assert u.scale == 1000.0 / 86400.0
    assert u.label == "km/day"


def test_parse_empty_is_dimensionless():
    u = parse_unit("")
    assert u.dimension == ()
    assert u.scale == 1.0


def test_slash_divides_every_following_factor():
    # kg.m/s^2 reads as kg*m*s^-2: the slash opens the denominator and
    # later dot/star factors stay there.
    u = parse_unit("kg.m/s^2")
    assert u.dimension == ((KG, 1), (M, 1), (S, -2))
    assert u.scale == 1.0

    u = parse_unit("m/s.s")
    assert u.dimension == ((M, 1), (S, -2))

    u = parse_unit("km/h/s")
    assert u.dimension == ((M, 1), (S, -2))
    assert u.scale == 1000.0 / 3600.0


def test_parse_star_separator_and_whitespace():
    u = parse_unit(" kg * m / s^2 ")
    assert u.dimension == ((KG, 1), (M, 1), (S, -2))
    assert u.label == "kg*m/s^2"


def test_parse_negative_exponent():
    u = parse_unit("s^-1")
    assert u.dimension == ((S, -1),)


def test_parse_exponents_cancel():
    u = parse_unit("m.m^-1")
    assert u.dimension == ()


def test_parse_unknown_name_offset():
    with pytest.raises(UnitParseError) as err:
        parse_unit("km/fortnight")
    assert err.value.offset == 3

    with pytest.raises(UnitParseError) as err:
        parse_unit("parsec")
    assert err.value.offset == 0


def test_parse_malformed_exponent_offset():
    with pytest.raises(UnitParseError) as err:
        parse_unit("m^x")
    assert err.value.offset == 2


def test_parse_trailing_garbage():
    with pytest.raises(UnitParseError):
        parse_unit("m s")
    with pytest.raises(UnitParseError):
        parse_unit("km/")


def test_parse_exponent_overflow():
    with pytest.raises(DimensionOverflowError):
        parse_unit("m^40")


def test_mul_exponent_overflow():
    m20 = parse_unit("m^20")
    with pytest.raises(DimensionOverflowError):
        mul_units(m20, m20)


def test_mul_units_example():
    u = mul_units(parse_unit("km"), parse_unit("km"))
    assert u.dimension == ((M, 2),)
    assert u.scale == 1.0e6


def test_mul_cancels_to_dimensionless():
    u = mul_units(parse_unit("m"), parse_unit("m^-1"))
    assert u.dimension == ()
    assert u.scale == 1.0


def test_div_units_km_per_h():
    u = div_units(parse_unit("km"), parse_unit("h"))
    assert u.dimension == ((M, 1), (S, -1))
    assert abs(u.scale - 0.2777777777777778) < 1e-12


def test_div_by_self_is_exactly_one():
    u = parse_unit("km/day")
    q = div_units(u, u)
    assert q.dimension == ()
    assert q.scale == 1.0


def test_pow_unit_reciprocal():
    kmh = parse_unit("km/h")
    inv = pow_unit(kmh, -1)
    assert inv.dimension == ((M, -1), (S, 1))
    assert abs(inv.scale - 3.6) < 1e-12


def test_pow_unit_zero_is_dimensionless():
    assert pow_unit(parse_unit("km"), 0) == DIMENSIONLESS


def test_sqrt_unit():
    u = sqrt_unit(parse_unit("km^2"))
    assert u.dimension == ((M, 1),)
    assert u.scale == 1000.0

    with pytest.raises(UnitError):
        sqrt_unit(parse_unit("m^3"))


def test_same_dimension():
    assert same_dimension(parse_unit("km"), parse_unit("mm"))
    assert not same_dimension(parse_unit("km"), parse_unit("h"))
    assert not same_dimension(parse_unit("degreeC"), parse_unit("K"))
    assert same_dimension(parse_unit("km/h"), parse_unit("m/s"))


def test_format_unit():
    assert format_unit(parse_unit("km/h")) == "[m.s^-1]"
    assert format_unit(parse_unit("")) == "[]"
    assert format_unit(parse_unit("kg")) == "[kg]"
    assert format_unit(parse_unit("m^2")) == "[m^2]"
    assert format_unit(parse_unit("kg.m/s^2")) == "[kg.m.s^-2]"


def test_unit_rejects_noncanonical_forms():
    with pytest.raises(UnitError):
        Unit(((M, 1), (M, 1)), 1.0)
    with pytest.raises(UnitError):
        Unit(((S, 1), (M, 1)), 1.0)
    with pytest.raises(UnitError):
        Unit(((M, 0),), 1.0)
    with pytest.raises(UnitError):
        Unit((), 0.0)
    with pytest.raises(UnitError):
        Unit((), -2.0)
    with pytest.raises(UnitError):
        Unit((), math.inf)


def test_label_is_ignored_by_equality():
    assert parse_unit("km/day") == div_units(parse_unit("km"), parse_unit("day"))


@st.composite
def units(draw):
    bases = sorted(draw(st.sets(st.sampled_from(list(SIBaseUnit)), max_size=4)))
    dimension = tuple(
        (base, draw(st.integers(-5, 5).filter(bool))) for base in bases
    )
    scale = draw(st.floats(min_value=1e-6, max_value=1e6))
    return Unit(dimension, scale)


@given(units(), units())
def test_mul_is_commutative(a, b):
    try:
        left = mul_units(a, b)
        right = mul_units(b, a)
    except DimensionOverflowError:
        return
    assert left == right


@given(units(), units(), units())
def test_mul_is_associative(a, b, c):
    try:
        left = mul_units(mul_units(a, b), c)
        right = mul_units(a, mul_units(b, c))
    except DimensionOverflowError:
        return
    assert left.dimension == right.dimension
    # Scales are float products; grouping may differ by an ulp.
    assert math.isclose(left.scale, right.scale, rel_tol=1e-14)


@given(units())
def test_div_by_self_property(a):
    q = div_units(a, a)
    assert q.dimension == ()
    assert q.scale == 1.0


@given(units())
def test_format_then_parse_preserves_dimension(a):
    text = format_unit(a)
    parsed = parse_unit(text[1:-1])
    assert parsed.dimension == a.dimension
    assert parsed.scale == 1.0


@given(units(), units())
def test_div_then_mul_restores_dimension(a, b):
    try:
        restored = mul_units(div_units(a, b), b)
    except DimensionOverflowError:
        return
    assert restored.dimension == a.dimension
