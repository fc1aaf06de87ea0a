"""Exact rational values.

All distances in this package are :class:`fractions.Fraction` instances; there
is no floating point anywhere.  This module owns the textual boundary: parsing
``"p/q"``, integer, and finite decimal strings, and formatting back to the
canonical reduced form (``"3/4"``, ``"2"``, ``"0"``).
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .errors import InputFormat, InstanceTooLarge

# Interpreters before 3.10.7 have no integer string limit.
int_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"``, an integer string, or a finite decimal string, exactly.

    Numerators and denominators may not exceed the interpreter's integer
    string limit (0 meaning none), so every accepted value formats back.
    Digit separators (``"1_0"``) are refused on every Python version.
    """
    if not isinstance(text, str):
        raise InputFormat(f"expected a rational string, got {type(text).__name__}")
    limit = int_max_str_digits()
    _, e, exponent = text.lower().rpartition("e")
    try:
        # Fraction reads the digit separator in "1_0" from Python 3.11 on only.
        if "_" in text:
            raise ValueError(text)
        # The exponent is checked first, because Fraction computes 10**exponent.
        if not limit or not e or abs(int(exponent)) <= limit:
            value = Fraction(text)
            if _fits(value, limit):
                return value
    except (ValueError, ZeroDivisionError) as exc:
        raise InputFormat(f"not a rational: {text!r}", value=text) from exc
    raise InstanceTooLarge(
        f"rational {text!r} exceeds the {limit}-digit integer limit", value=text, limit=limit
    )


def _fits(value: Fraction, limit: int) -> bool:
    """Whether a value's numerator and denominator have at most ``limit``
    digits (0 meaning no limit), so that it formats back."""
    size = max(abs(value.numerator), value.denominator)
    # 10**limit has more than 3 * limit bits, so short values skip the power.
    return not limit or size.bit_length() <= 3 * limit or size < 10**limit


def format_rational(value: Fraction) -> str:
    """Canonical reduced form: ``"p/q"``, or ``"p"`` when the denominator is 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def as_rational(value) -> Fraction:
    """Coerce an int, string, or Fraction to an exact Fraction.

    Floats (and bools) are rejected: accepting them would silently smuggle
    rounding into a library whose equality tests must be exact.  An int or
    Fraction is held to :func:`parse_rational`'s size limit, so every
    accepted value formats back.
    """
    if isinstance(value, bool):
        raise InputFormat("bool is not a rational value")
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, int):
        value = Fraction(value)
    if isinstance(value, Fraction):
        limit = int_max_str_digits()
        if _fits(value, limit):
            return value
        raise InstanceTooLarge(
            f"rational value exceeds the {limit}-digit integer limit", limit=limit
        )
    if isinstance(value, float):
        raise InputFormat(
            f"floating point value {value!r} rejected: pass an exact string like '3/4' or '0.75'"
        )
    raise InputFormat(f"cannot interpret {type(value).__name__} as a rational")


def parse_rational_list(text: str) -> list[Fraction]:
    """Parse a comma-separated list such as ``"0,1/4,1/2,1"``."""
    items = [part.strip() for part in text.split(",")]
    if items == [""]:
        raise InputFormat("empty rational list")
    return [parse_rational(item) for item in items]
