"""Exact rational values.

All distances in this package are :class:`fractions.Fraction` instances; there
is no floating point anywhere.  This module owns the textual boundary: parsing
``"p/q"``, integer, and finite decimal strings, formatting back to the canonical
reduced form (``"3/4"``, ``"2"``, ``"0"``), and the size rule, :func:`digit_bound`.
"""

import re
import sys
from contextlib import contextmanager
from fractions import Fraction

from .errors import InputFormat, InstanceTooLarge

# Interpreters before 3.10.7 have no integer string limit.
_int_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)
_set_int_max_str_digits = getattr(sys, "set_int_max_str_digits", lambda limit: None)


def digit_bound() -> int:
    """The most digits a numerator, denominator or exponent may have: the
    interpreter's integer string limit (0 meaning none), capped at 4300."""
    return min(_int_max_str_digits() or 4300, 4300)


def too_large(what: str, **details) -> InstanceTooLarge:
    """The one error for a number past :func:`digit_bound`, naming it."""
    bound = digit_bound()
    return InstanceTooLarge(f"{what} exceeds the {bound}-digit integer limit", **details, limit=bound)


@contextmanager
def digits_bounded():
    """Hold the integer string limit at :func:`digit_bound`: a longer int() or str() raises."""
    saved = _int_max_str_digits()
    _set_int_max_str_digits(digit_bound())
    try:
        yield
    finally:
        _set_int_max_str_digits(saved)


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"``, an integer string, or a finite decimal string, exactly.

    A digit run, exponent, numerator or denominator past :func:`digit_bound`
    is ``InstanceTooLarge``, and no such digit run is ever read as an int.
    Digit separators (``"1_0"``) are refused on every Python version.
    """
    if not isinstance(text, str):
        raise InputFormat(f"expected a rational string, got {type(text).__name__}")
    bound = digit_bound()
    # Digit runs are checked, in one linear scan, before int() reads any, and
    # the exponent before Fraction computes 10**exponent.
    too_long = len(text) > bound and max(map(len, re.findall(r"\d+", text)), default=0) > bound
    _, e, exponent = text.lower().rpartition("e")
    try:
        # Fraction reads the digit separator in "1_0" from Python 3.11 on only.
        if "_" in text:
            raise ValueError(text)
        if not too_long and (not e or abs(int(exponent)) <= bound):
            value = Fraction(text)
            if _fits(value, bound):
                return value
    except (ValueError, ZeroDivisionError) as exc:
        raise InputFormat(f"not a rational: {_quoted(text)!r}", value=_quoted(text)) from exc
    raise too_large(f"rational {_quoted(text)!r}", value=_quoted(text))


def _quoted(text: str) -> str:
    """A refused spelling as its diagnostic quotes it: past 32 characters,
    its first 32 and ``"…"``, so that a diagnostic line, which quotes it
    twice with each character escaped in at most 12 bytes, stays under 1 KB."""
    return text if len(text) <= 32 else text[:32] + "…"


def _fits(value: Fraction, bound: int) -> bool:
    """Whether a value's numerator and denominator have at most ``bound``
    digits, so that it formats back."""
    size = max(abs(value.numerator), value.denominator)
    # 10**bound has more than 3 * bound bits, so short values skip the power.
    return size.bit_length() <= 3 * bound or size < 10**bound


def format_rational(value: Fraction) -> str:
    """Canonical reduced form: ``"p/q"``, or ``"p"`` when the denominator is 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def as_rational(value) -> Fraction:
    """Coerce an int, string, or Fraction to an exact Fraction.

    Floats (and bools) are rejected: accepting them would silently smuggle
    rounding into a library whose equality tests must be exact.  An int or
    Fraction is held to :func:`digit_bound`, so every accepted value formats back.
    """
    if isinstance(value, bool):
        raise InputFormat("bool is not a rational value")
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, int):
        value = Fraction(value)
    if isinstance(value, Fraction):
        if _fits(value, digit_bound()):
            return value
        raise too_large("rational value")
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
