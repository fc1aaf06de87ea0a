import sys
from fractions import Fraction

import pytest

from ultrametric import closed_quotient, single_linkage, two_point_space, validate_ultrametric
from ultrametric.errors import InputFormat, InstanceTooLarge
from ultrametric.rationals import (
    as_rational,
    format_rational,
    int_max_str_digits,
    parse_rational,
    parse_rational_list,
)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("3/4", Fraction(3, 4)),
        ("0", Fraction(0)),
        ("2", Fraction(2)),
        ("0.75", Fraction(3, 4)),
        ("6/8", Fraction(3, 4)),
        ("0.125", Fraction(1, 8)),
    ],
)
def test_parse(text, expected):
    assert parse_rational(text) == expected


@pytest.mark.parametrize("text", ["", "x", "1/0", "3//4", "1.2.3"])
def test_parse_rejects(text):
    with pytest.raises(InputFormat):
        parse_rational(text)


@pytest.mark.parametrize("text", ["1_0", "1_0/3", "1.5_0"])
def test_digit_separators_are_refused_on_every_python(text):
    # Fraction reads "1_0" as 10 from Python 3.11 on, and refuses it on 3.10.
    with pytest.raises(InputFormat) as info:
        parse_rational(text)
    assert info.value.payload() == {
        "error": "InputFormat",
        "message": f"not a rational: {text!r}",
        "value": text,
    }


def test_format_is_reduced_and_canonical():
    assert format_rational(Fraction(6, 8)) == "3/4"
    assert format_rational(Fraction(0)) == "0"
    assert format_rational(Fraction(4, 2)) == "2"


def test_parse_format_roundtrip():
    for text in ["0", "1/2", "3/4", "17/5", "2"]:
        assert format_rational(parse_rational(text)) == text


def test_as_rational_rejects_inexact_types():
    assert as_rational(2) == Fraction(2)
    assert as_rational(Fraction(1, 3)) == Fraction(1, 3)
    with pytest.raises(InputFormat):
        as_rational(0.75)
    with pytest.raises(InputFormat):
        as_rational(True)


def test_parse_rational_list():
    assert parse_rational_list("0,1/4, 1/2 ,1") == [
        Fraction(0),
        Fraction(1, 4),
        Fraction(1, 2),
        Fraction(1),
    ]
    with pytest.raises(InputFormat):
        parse_rational_list("")


def test_parse_rejects_values_beyond_the_int_string_limit():
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("the interpreter sets no integer string limit")
    assert format_rational(parse_rational(f"1e{limit - 1}")) == "1" + "0" * (limit - 1)
    assert parse_rational(f"1e-{limit - 1}").denominator == 10 ** (limit - 1)
    # The exponent is rejected before Fraction would compute 10**999999999.
    too_large = ["1e400000", "1e999999999", "1e-999999999", f"1e{limit}"]
    for text in too_large + ["0." + "0" * (limit - 1) + "1"]:
        with pytest.raises(InstanceTooLarge) as info:
            parse_rational(text)
        assert info.value.payload()["limit"] == limit
    with pytest.raises(InputFormat):
        parse_rational("9" * (limit + 1))


def string_limit() -> int:
    limit = int_max_str_digits()
    if not limit:
        pytest.skip("the interpreter sets no integer string limit")
    return limit


def test_as_rational_holds_ints_and_fractions_to_the_int_string_limit():
    limit = string_limit()
    widest = 10**limit - 1
    assert format_rational(as_rational(widest)) == "9" * limit
    assert format_rational(as_rational(Fraction(-1, widest))) == "-1/" + "9" * limit
    for value in [10**limit, -(10**limit), Fraction(1, 10**limit), Fraction(10**limit, 3)]:
        with pytest.raises(InstanceTooLarge) as info:
            as_rational(value)
        assert info.value.payload() == {
            "error": "InstanceTooLarge",
            "message": f"rational value exceeds the {limit}-digit integer limit",
            "limit": limit,
        }


@pytest.mark.parametrize("huge", ["int", "fraction"])
def test_two_point_space_past_the_int_string_limit_is_refused(huge):
    limit = string_limit()
    c = 10**limit if huge == "int" else Fraction(1, 10**limit)
    with pytest.raises(InstanceTooLarge):
        two_point_space(c)


@pytest.mark.parametrize("huge", ["int", "fraction"])
def test_quotient_scale_past_the_int_string_limit_is_refused(huge):
    limit = string_limit()
    t = 10**limit if huge == "int" else Fraction(1, 10**limit)
    with pytest.raises(InstanceTooLarge):
        closed_quotient(two_point_space(1), t)


@pytest.mark.parametrize("huge", ["int", "fraction"])
@pytest.mark.parametrize("read", [validate_ultrametric, single_linkage])
def test_matrix_entries_past_the_int_string_limit_name_their_row(read, huge):
    limit = string_limit()
    big = 10**limit if huge == "int" else Fraction(1, 10**limit)
    with pytest.raises(InstanceTooLarge) as info:
        read(["a", "b"], [[0, big], [big, 0]])
    assert info.value.payload() == {
        "error": "InstanceTooLarge",
        "message": f"matrix row 0 exceeds the {limit}-digit integer limit",
        "row": 0,
        "limit": limit,
    }
