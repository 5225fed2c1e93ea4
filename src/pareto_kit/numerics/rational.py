"""Exact rational parsing, formatting, and small vector helpers.

Every coordinate, weight, and bound in this package is a
``fractions.Fraction``.  Arithmetic is exact and comparisons are decided
without tolerances; floating point never enters a decision.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from ..errors import (
    DimensionMismatch,
    MalformedInput,
    MalformedNumber,
    SizeCap,
    ZeroDenominator,
)

Rational = Fraction

# Largest decimal exponent magnitude accepted, Python's own default limit
# on the digits of an int: "1e999999999" would otherwise build 10**999999999.
MAX_EXPONENT = 4300


def rational_parse(text: str) -> Fraction:
    """Parse ``"a/b"``, integer, or decimal text into an exact Fraction.

    Decimal strings are expanded exactly ("0.1" becomes 1/10, never the
    nearest binary float).  An exponent of magnitude over
    ``MAX_EXPONENT`` is refused before any power of ten is built.
    """
    if not isinstance(text, str):
        raise MalformedNumber(f"expected a string, got {type(text).__name__}")
    s = text.strip()
    if "/" in s:
        num_text, _, den_text = s.partition("/")
        try:
            num = int(num_text.strip())
            den = int(den_text.strip())
        except ValueError:
            raise MalformedNumber(f"not a rational literal: {text!r}") from None
        if den == 0:
            raise ZeroDenominator(f"zero denominator in {text!r}")
        return Fraction(num, den)
    _, e, exponent = s.lower().partition("e")
    if e:
        try:
            too_large = abs(int(exponent)) > MAX_EXPONENT
        except ValueError:  # not an exponent: Fraction refuses the text
            too_large = False
        if too_large:
            raise MalformedNumber(f"exponent out of range in {text!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise MalformedNumber(f"not a rational literal: {text!r}") from None


def rational_format(value: Fraction) -> str:
    """Canonical text form: ``"a"`` for integers, ``"a/b"`` otherwise.

    A numerator or denominator longer than Python's limit on the digits
    of an int as text raises ``SizeCap``.
    """
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except ValueError:  # int-to-text conversion over the digit limit
        raise SizeCap("a number has too many digits to write out") from None


def as_fraction(value) -> Fraction:
    """Coerce int, Fraction, or string input to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return rational_parse(value)
    raise MalformedNumber(
        f"refusing inexact type {type(value).__name__}; use int, str, or Fraction"
    )


def _sequence(values, what: str) -> Iterable:
    """``values`` itself, unless it is text or not iterable at all: a row
    given as "12" must not be read as the coordinates 1 and 2."""
    if isinstance(values, (str, bytes)) or not hasattr(values, "__iter__"):
        raise MalformedInput(f"{what} must be a list, got {type(values).__name__}")
    return values


def as_point(coords: Iterable) -> tuple[Fraction, ...]:
    """Coerce an iterable of coordinates to an exact tuple."""
    point = tuple(map(as_fraction, _sequence(coords, "a point")))
    if not point:
        raise DimensionMismatch("a point needs at least one coordinate")
    return point


def as_matrix(rows: Iterable[Iterable]) -> tuple[tuple[Fraction, ...], ...]:
    """Coerce rows to exact tuples and require a common dimension."""
    matrix = tuple(as_point(row) for row in _sequence(rows, "a list of points"))
    if matrix:
        width = len(matrix[0])
        for row in matrix:
            if len(row) != width:
                raise DimensionMismatch(
                    f"rows of mixed dimension: {len(row)} != {width}"
                )
    return matrix


def dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    if len(a) != len(b):
        raise DimensionMismatch(f"dot product of lengths {len(a)} and {len(b)}")
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def common_denominator(values: Iterable[Fraction]) -> tuple[list[int], int]:
    """Integer numerators over the least common denominator of ``values``.

    Returns (nums, den) with values[i] == nums[i] / den and den > 0; over the
    least common denominator, gcd(*nums, den) == 1.
    """
    values = list(values)
    den = lcm(*(x.denominator for x in values))
    return [x.numerator * (den // x.denominator) for x in values], den


def scaled_rows(rows: Sequence[Sequence[Fraction]]) -> list[tuple[int, ...]]:
    """The rows times the least common denominator of all their entries.

    A positive common factor keeps every componentwise comparison, every
    ratio and every argmin, so decisions taken on these integers are
    those of the rationals.  ``rows`` is non-empty and of one width.
    """
    nums, _ = common_denominator([x for row in rows for x in row])
    p = len(rows[0])
    return [tuple(nums[k : k + p]) for k in range(0, len(nums), p)]
