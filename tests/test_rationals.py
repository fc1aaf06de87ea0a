from fractions import Fraction

import pytest

from ultrametric import (
    closed_quotient,
    crowd_family,
    disjoint_amalgam,
    epsilon_net,
    single_linkage,
    two_point_space,
    validate_ultrametric,
)
from ultrametric import rationals
from ultrametric.errors import InputFormat, InstanceTooLarge
from ultrametric.rationals import as_rational, format_rational, parse_rational, parse_rational_list


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


def test_parse_rejects_a_non_string():
    with pytest.raises(InputFormat, match="expected a rational string, got int"):
        parse_rational(5)


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


def test_constructions_read_rational_text_as_the_equal_fraction(isosceles):
    # Each reads its one rational with as_rational, so the CLI hands over the
    # argument text as typed.
    pair = two_point_space(1)
    single = validate_ultrametric(["s"], [["0"]])
    for build, text, value in (
        (lambda v: closed_quotient(isosceles, v), "2/2", Fraction(1)),
        (lambda v: epsilon_net(isosceles, v), "1.0", Fraction(1)),
        (lambda v: disjoint_amalgam(pair, single, v), "4/2", Fraction(2)),
        (two_point_space, "0.75", Fraction(3, 4)),
        (lambda v: crowd_family(pair, "p", v, 2), "2/8", Fraction(1, 4)),
    ):
        assert build(text) == build(value), text


def test_parse_rational_list():
    assert parse_rational_list("0,1/4, 1/2 ,1") == [
        Fraction(0),
        Fraction(1, 4),
        Fraction(1, 2),
        Fraction(1),
    ]
    with pytest.raises(InputFormat):
        parse_rational_list("")


def test_parse_rejects_values_beyond_the_int_string_limit(digit_limits):
    for bound in digit_limits:
        assert format_rational(parse_rational("9" * bound)) == "9" * bound
        assert format_rational(parse_rational(f"1e{bound - 1}")) == "1" + "0" * (bound - 1)
        assert parse_rational(f"1e-{bound - 1}").denominator == 10 ** (bound - 1)
        # The exponent is rejected before Fraction would compute 10**999999999.
        too_large = ["1e400000", "1e999999999", "1e-999999999", f"1e{bound}"]
        too_long = ["0." + "0" * (bound - 1) + "1", "9" * (bound + 1)]
        for text in too_large + too_long:
            with pytest.raises(InstanceTooLarge) as info:
                parse_rational(text)
            assert info.value.payload()["limit"] == bound


def test_the_digit_bound_is_checked_before_any_parse(digit_limits, monkeypatch):
    def unread(*args):
        raise AssertionError(f"Fraction read {args!r:.40}")

    monkeypatch.setattr(rationals, "Fraction", unread)
    for bound in digit_limits:
        for text in ["1" * (bound + 1), "1/" + "1" * (bound + 1), "1e" + "9" * (bound + 1)]:
            with pytest.raises(InstanceTooLarge) as info:
                parse_rational(text)
            assert info.value.payload()["limit"] == bound


def test_as_rational_holds_ints_and_fractions_to_the_int_string_limit(digit_limits):
    for bound in digit_limits:
        widest = 10**bound - 1
        assert format_rational(as_rational(widest)) == "9" * bound
        assert format_rational(as_rational(Fraction(-1, widest))) == "-1/" + "9" * bound
        for value in [10**bound, -(10**bound), Fraction(1, 10**bound), Fraction(10**bound, 3)]:
            with pytest.raises(InstanceTooLarge) as info:
                as_rational(value)
            assert info.value.payload() == {
                "error": "InstanceTooLarge",
                "message": f"rational value exceeds the {bound}-digit integer limit",
                "limit": bound,
            }


@pytest.mark.parametrize("huge", ["int", "fraction"])
def test_two_point_space_past_the_int_string_limit_is_refused(huge, digit_limits):
    for bound in digit_limits:
        c = 10**bound if huge == "int" else Fraction(1, 10**bound)
        with pytest.raises(InstanceTooLarge):
            two_point_space(c)


@pytest.mark.parametrize("huge", ["int", "fraction"])
def test_quotient_scale_past_the_int_string_limit_is_refused(huge, digit_limits):
    for bound in digit_limits:
        t = 10**bound if huge == "int" else Fraction(1, 10**bound)
        with pytest.raises(InstanceTooLarge):
            closed_quotient(two_point_space(1), t)


@pytest.mark.parametrize("huge", ["int", "fraction"])
@pytest.mark.parametrize("read", [validate_ultrametric, single_linkage])
def test_matrix_entries_past_the_int_string_limit_name_their_row(read, huge, digit_limits):
    for bound in digit_limits:
        big = 10**bound if huge == "int" else Fraction(1, 10**bound)
        with pytest.raises(InstanceTooLarge) as info:
            read(["a", "b"], [[0, big], [big, 0]])
        assert info.value.payload() == {
            "error": "InstanceTooLarge",
            "message": f"matrix row 0 exceeds the {bound}-digit integer limit",
            "row": 0,
            "limit": bound,
        }
