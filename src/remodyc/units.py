"""Measurement units as dimension vectors over a fixed set of base units.

Every quantity the interpreter touches is a plain float in SI terms.  A
``Unit`` describes how a quantity written in model source maps onto that
representation: an ordered sequence of (base, exponent) pairs plus a
positive scale factor to SI.  ``km/day`` is the dimension m*s^-1 with
scale 1000/86400; converting a surface value to SI is one multiply.

Celsius and Fahrenheit are deliberately their own base units with scale 1:
affine temperature conversion is out of scope, and mixing them with
kelvin is a dimension error rather than a silent misconversion.
"""
from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass, field

# Exponents outside this range indicate a runaway unit computation.
MAX_EXPONENT = 32


class UnitError(ValueError):
    """Malformed unit or invalid unit arithmetic."""


class DimensionOverflowError(UnitError):
    """A dimension exponent left the representable range."""


class UnitParseError(UnitError):
    """Unit text rejected; ``offset`` is the index of the bad character."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.message = message
        self.offset = offset


class SIBaseUnit(enum.IntEnum):
    """Base units in their canonical ordering."""

    KG = 0
    M = 1
    S = 2
    DEGREE_C = 3
    K = 4
    DEGREE_F = 5
    RAD = 6
    MOL = 7

    @property
    def symbol(self) -> str:
        return _SYMBOLS[self]


_SYMBOLS = {
    SIBaseUnit.KG: "kg",
    SIBaseUnit.M: "m",
    SIBaseUnit.S: "s",
    SIBaseUnit.DEGREE_C: "degreeC",
    SIBaseUnit.K: "K",
    SIBaseUnit.DEGREE_F: "degreeF",
    SIBaseUnit.RAD: "rad",
    SIBaseUnit.MOL: "mol",
}

# Sorted by base, exponents nonzero: the canonical form all operations keep.
Dimension = tuple[tuple[SIBaseUnit, int], ...]


@dataclass(frozen=True)
class Unit:
    """A dimension vector plus the factor converting one unit to SI.

    ``label`` remembers the spelling the unit had in source text ("km/day");
    it is excluded from comparisons so units parsed from different files
    compare by meaning alone.
    """

    dimension: Dimension
    scale: float = 1.0
    label: str | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        previous = -1
        for base, exponent in self.dimension:
            if not isinstance(base, SIBaseUnit):
                raise UnitError(f"not a base unit: {base!r}")
            if base.value <= previous:
                raise UnitError("dimension pairs must be sorted with unique bases")
            previous = base.value
            if exponent == 0:
                raise UnitError("zero exponents may not appear in a dimension")
            if abs(exponent) > MAX_EXPONENT:
                raise DimensionOverflowError(
                    f"exponent {exponent} on {base.symbol} exceeds |{MAX_EXPONENT}|"
                )
        if not (math.isfinite(self.scale) and self.scale > 0.0):
            raise UnitError(f"unit scale must be a positive finite float, got {self.scale!r}")

    @property
    def dimensionless(self) -> bool:
        return not self.dimension


DIMENSIONLESS = Unit(())


def _canonical(pairs, scale: float, label: str | None = None) -> Unit:
    acc: dict[SIBaseUnit, int] = {}
    for base, exponent in pairs:
        acc[base] = acc.get(base, 0) + exponent
    dimension = tuple((b, e) for b, e in sorted(acc.items()) if e != 0)
    return Unit(dimension, scale, label)


def mul_units(a: Unit, b: Unit) -> Unit:
    """Product unit: exponents add, scales multiply."""
    return _canonical(a.dimension + b.dimension, a.scale * b.scale)


def div_units(a: Unit, b: Unit) -> Unit:
    """Quotient unit: exponents subtract, scales divide.

    Dividing a unit by itself yields a dimensionless unit with scale
    exactly 1.0.
    """
    negated = tuple((base, -exponent) for base, exponent in b.dimension)
    return _canonical(a.dimension + negated, a.scale / b.scale)


def pow_unit(u: Unit, n: int) -> Unit:
    """Integer power of a unit."""
    if n == 0:
        return DIMENSIONLESS
    pairs = tuple((base, exponent * n) for base, exponent in u.dimension)
    return _canonical(pairs, u.scale**n)


def sqrt_unit(u: Unit) -> Unit:
    """Halve all exponents; defined only when every exponent is even."""
    if any(exponent % 2 for _, exponent in u.dimension):
        raise UnitError(f"cannot take the square root of {format_unit(u)}")
    pairs = tuple((base, exponent // 2) for base, exponent in u.dimension)
    return _canonical(pairs, math.sqrt(u.scale))


def same_dimension(a: Unit, b: Unit) -> bool:
    """True when the two units measure the same kind of quantity."""
    return a.dimension == b.dimension


def format_unit(u: Unit) -> str:
    """Canonical SI rendering, e.g. ``[m.s^-1]``; dimensionless is ``[]``."""
    parts = []
    for base, exponent in u.dimension:
        parts.append(base.symbol if exponent == 1 else f"{base.symbol}^{exponent}")
    return "[" + ".".join(parts) + "]"


def _base(b: SIBaseUnit, scale: float = 1.0) -> Unit:
    return Unit(((b, 1),), scale)


NAMED_UNITS: dict[str, Unit] = {
    "m": _base(SIBaseUnit.M),
    "km": _base(SIBaseUnit.M, 1000.0),
    "cm": _base(SIBaseUnit.M, 0.01),
    "mm": _base(SIBaseUnit.M, 0.001),
    "s": _base(SIBaseUnit.S),
    "min": _base(SIBaseUnit.S, 60.0),
    "h": _base(SIBaseUnit.S, 3600.0),
    "day": _base(SIBaseUnit.S, 86400.0),
    "kg": _base(SIBaseUnit.KG),
    "g": _base(SIBaseUnit.KG, 0.001),
    "t": _base(SIBaseUnit.KG, 1000.0),
    "K": _base(SIBaseUnit.K),
    "degreeC": _base(SIBaseUnit.DEGREE_C),
    "degreeF": _base(SIBaseUnit.DEGREE_F),
    "rad": _base(SIBaseUnit.RAD),
    "deg": _base(SIBaseUnit.RAD, math.pi / 180.0),
    "mol": _base(SIBaseUnit.MOL),
}

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_INT_RE = re.compile(r"-?[0-9]+")
_WS_RE = re.compile(r"[ \t]*")


def parse_unit(text: str) -> Unit:
    """Parse the text that appeared between unit brackets.

    Grammar: ``factor (("/" | "*" | ".") factor)*`` with
    ``factor := NAME ("^" INT)?``.  A ``/`` puts every later factor in
    the denominator, so ``kg.m/s^2`` is kg·m·s^-2 and ``m/s.s`` is
    m·s^-2.  Empty text is the dimensionless unit.
    """
    pos = _WS_RE.match(text).end()
    if pos == len(text):
        return Unit((), 1.0, "")

    pairs: list[tuple[SIBaseUnit, int]] = []
    numerator = 1.0
    denominator = 1.0
    spelling: list[str] = []

    def factor(at: int, sign: int) -> int:
        nonlocal numerator, denominator
        match = _NAME_RE.match(text, at)
        if not match:
            raise UnitParseError("expected a unit name", at)
        name = match.group()
        named = NAMED_UNITS.get(name)
        if named is None:
            raise UnitParseError(f"unknown unit name {name!r}", at)
        at = match.end()
        exponent = 1
        written = name
        if at < len(text) and text[at] == "^":
            digits = _INT_RE.match(text, at + 1)
            if not digits:
                raise UnitParseError("malformed exponent", at + 1)
            exponent = int(digits.group())
            written = f"{name}^{digits.group()}"
            at = digits.end()
        effective = sign * exponent
        if abs(effective) > MAX_EXPONENT:
            raise DimensionOverflowError(
                f"exponent {effective} on {name} exceeds |{MAX_EXPONENT}|"
            )
        ((base, _),) = named.dimension
        pairs.append((base, effective))
        if effective >= 0:
            numerator *= named.scale**effective
        else:
            denominator *= named.scale ** (-effective)
        spelling.append(written)
        return _WS_RE.match(text, at).end()

    pos = factor(pos, 1)
    sign = 1
    while pos < len(text):
        separator = text[pos]
        if separator not in "/*.":
            raise UnitParseError(f"unexpected character {separator!r} in unit", pos)
        if separator == "/":
            sign = -1
        spelling.append(separator)
        pos = _WS_RE.match(text, pos + 1).end()
        pos = factor(pos, sign)

    return _canonical(pairs, numerator / denominator, "".join(spelling))
