import random
import sys
from fractions import Fraction

import pytest

from ultrametric import (
    GlueSpec,
    certificate,
    random_space,
    two_point_space,
    ugh_distance,
)
from ultrametric import jsonio
from ultrametric.amalgam import gluespec_from_obj
from ultrametric.certificates import certificate_from_obj
from ultrametric.errors import InputFormat, InstanceTooLarge, TriangleViolation

from conftest import SIX_VALUES, make_space


class TestSpaceFormat:
    def test_roundtrip_is_byte_identical(self):
        rng = random.Random(61)
        for _ in range(40):
            space = random_space(rng.randint(1, 8), SIX_VALUES, rng.randrange(10**9))
            text = jsonio.dumps(jsonio.space_to_obj(space))
            again = jsonio.space_from_obj(jsonio.loads(text))
            assert again == space
            assert jsonio.dumps(jsonio.space_to_obj(again)) == text

    def test_canonical_key_order_and_rationals(self, isosceles):
        text = jsonio.dumps(jsonio.space_to_obj(isosceles))
        assert text == (
            '{"points": ["a", "b", "c"], '
            '"dist": [["0", "1", "2"], ["1", "0", "2"], ["2", "2", "0"]]}'
        )

    def test_accepts_integers_and_normalizes(self):
        space = jsonio.space_from_obj({"points": ["a", "b"], "dist": [[0, "2/4"], ["0.5", 0]]})
        assert space.d("a", "b") == Fraction(1, 2)
        assert jsonio.dumps(jsonio.space_to_obj(space)) == (
            '{"points": ["a", "b"], "dist": [["0", "1/2"], ["1/2", "0"]]}'
        )

    def test_unknown_keys_ignored(self, isosceles):
        obj = jsonio.space_to_obj(isosceles)
        obj["blocks"] = [["a"], ["b"], ["c"]]
        assert jsonio.space_from_obj(obj) == isosceles

    def test_rejects_floats_and_bad_shapes(self):
        with pytest.raises(InputFormat):
            jsonio.space_from_obj({"points": ["a", "b"], "dist": [[0, 0.5], [0.5, 0]]})
        with pytest.raises(InputFormat):
            jsonio.space_from_obj({"points": ["a"]})
        with pytest.raises(InputFormat):
            jsonio.space_from_obj(["a"])
        with pytest.raises(InputFormat, match='"points" must be a list of strings'):
            jsonio.space_from_obj({"points": ["a", 1], "dist": [["0", "1"], ["1", "0"]]})
        with pytest.raises(InputFormat, match='"dist" must be a list of rows'):
            jsonio.space_from_obj({"points": ["a"], "dist": "0"})
        with pytest.raises(InputFormat, match="^matrix row 0 is not a list$"):
            jsonio.space_from_obj({"points": ["a"], "dist": ["0"]})
        with pytest.raises(TriangleViolation):
            jsonio.space_from_obj(
                {
                    "points": ["a", "b", "c"],
                    "dist": [["0", "1", "3"], ["1", "0", "2"], ["3", "2", "0"]],
                }
            )
        with pytest.raises(InputFormat):
            jsonio.loads("{not json")

    def test_an_integer_past_the_digit_bound_is_refused_and_the_limit_restored(
        self, digit_limits
    ):
        for bound in digit_limits:
            limit = sys.get_int_max_str_digits()
            assert jsonio.loads("[" + "1" * bound + "]") == [int("1" * bound)]
            with pytest.raises(InstanceTooLarge) as info:
                jsonio.loads("[" + "1" * 400_000 + "]")
            assert info.value.payload()["limit"] == bound
            assert sys.get_int_max_str_digits() == limit


class TestGlueSpecFormat:
    def test_roundtrip(self):
        x1 = make_space(["a", "x"], {("a", "x"): 1})
        x2 = make_space(["a2", "y"], {("a2", "y"): 2})
        spec = GlueSpec(x1, x2, (("a", "a2"),))
        obj = {"x1": jsonio.space_to_obj(x1), "x2": jsonio.space_to_obj(x2), "identify": [["a", "a2"]]}
        assert gluespec_from_obj(obj) == spec

    def test_identify_must_be_pairs(self):
        x = jsonio.space_to_obj(make_space(["a", "x"], {("a", "x"): 1}))
        with pytest.raises(InputFormat):
            gluespec_from_obj({"x1": x, "x2": x, "identify": [["a"]]})
        with pytest.raises(InputFormat):
            gluespec_from_obj({"x1": x, "x2": x})


class TestCertificateFormat:
    def test_roundtrip(self):
        xh, x34 = two_point_space("1/2"), two_point_space("3/4")
        cert = certificate(xh, x34, ugh_distance(xh, x34))
        obj = jsonio.certificate_to_obj(cert)
        again = certificate_from_obj(obj)
        assert again == cert
        assert jsonio.dumps(jsonio.certificate_to_obj(again)) == jsonio.dumps(obj)

    def test_rejects_bad_shapes(self):
        xh, x34 = two_point_space("1/2"), two_point_space("3/4")
        obj = jsonio.certificate_to_obj(certificate(xh, x34, ugh_distance(xh, x34)))
        with pytest.raises(InputFormat, match="certificate must be a JSON object"):
            certificate_from_obj([obj])
        with pytest.raises(InputFormat, match='certificate needs "achieved"'):
            certificate_from_obj({k: v for k, v in obj.items() if k != "achieved"})
        with pytest.raises(InputFormat, match='"embed_right" must map labels to labels'):
            certificate_from_obj({**obj, "embed_right": {"p": 0}})
