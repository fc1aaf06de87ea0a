import random
from fractions import Fraction

import pytest

from ultrametric import (
    certificate,
    closed_quotient,
    hausdorff_distance,
    isometric,
    random_space,
    spectrum,
    spectrum_agreement,
    two_point_space,
    ugh_distance,
    ugh_oracle,
    validate_ultrametric,
    verify_certificate,
)
from ultrametric.errors import CertificateInvalid, InputFormat, InstanceTooLarge
from ultrametric.oracle import brute_force_isometry
from ultrametric.spaces import UltrametricSpace

from conftest import SIX_VALUES

ONE_POINT = validate_ultrametric(["a"], [["0"]])


class TestUghDistance:
    def test_isometric_spaces_have_distance_zero(self, isosceles):
        relabeled = validate_ultrametric(["u", "v", "w"], isosceles.dist)
        result = ugh_distance(isosceles, relabeled)
        assert result.value == 0

    def test_point_against_two_point_space(self):
        for c in (Fraction(1, 2), Fraction(2), Fraction(7, 3)):
            result = ugh_distance(ONE_POINT, two_point_space(c))
            assert result.value == c
            assert ugh_oracle(ONE_POINT, two_point_space(c)) == c

    def test_two_point_spaces(self):
        xh, x34 = two_point_space("1/2"), two_point_space("3/4")
        assert ugh_oracle(xh, x34) == Fraction(3, 4)
        assert ugh_distance(xh, x34).value == Fraction(3, 4)

    def test_isosceles_against_two_point(self, isosceles):
        # quotient of the isosceles at t=1 is two points at distance 2
        result = ugh_distance(isosceles, two_point_space(2))
        assert result.value == 1
        assert result.block_map == ((("a", "b"), ("p",)), (("c",), ("q",)))
        assert ugh_oracle(isosceles, two_point_space(2)) == 1

    def test_block_map_is_a_quotient_isometry(self):
        rng = random.Random(41)
        for _ in range(50):
            x = random_space(rng.randint(1, 7), SIX_VALUES, rng.randrange(10**9))
            y = random_space(rng.randint(1, 7), SIX_VALUES, rng.randrange(10**9))
            result = ugh_distance(x, y)
            qx = closed_quotient(x, result.value)
            qy = closed_quotient(y, result.value)
            assert tuple(bx for bx, _ in result.block_map) == qx.blocks
            assert sorted(by for _, by in result.block_map) == sorted(qy.blocks)
            for (bx1, by1) in result.block_map:
                for (bx2, by2) in result.block_map:
                    if bx1 != bx2:
                        assert x.d(bx1[0], bx2[0]) == y.d(by1[0], by2[0])

    def test_symmetry(self):
        rng = random.Random(42)
        for _ in range(100):
            x = random_space(rng.randint(1, 6), SIX_VALUES, rng.randrange(10**9))
            y = random_space(rng.randint(1, 6), SIX_VALUES, rng.randrange(10**9))
            assert ugh_distance(x, y).value == ugh_distance(y, x).value

    def test_zero_iff_isometric(self):
        rng = random.Random(43)
        for _ in range(100):
            x = random_space(rng.randint(1, 6), SIX_VALUES, rng.randrange(10**9))
            y = random_space(rng.randint(1, 6), SIX_VALUES, rng.randrange(10**9))
            assert (ugh_distance(x, y).value == 0) == isometric(x, y)

    def test_strong_triangle_inequality(self):
        rng = random.Random(44)
        for _ in range(150):
            x = random_space(rng.randint(1, 6), SIX_VALUES, rng.randrange(10**9))
            y = random_space(rng.randint(1, 6), SIX_VALUES, rng.randrange(10**9))
            z = random_space(rng.randint(1, 6), SIX_VALUES, rng.randrange(10**9))
            dxy = ugh_distance(x, y).value
            dyz = ugh_distance(y, z).value
            dxz = ugh_distance(x, z).value
            assert dxz <= max(dxy, dyz)

    def test_value_in_joint_spectrum(self):
        rng = random.Random(45)
        for _ in range(100):
            x = random_space(rng.randint(1, 7), SIX_VALUES, rng.randrange(10**9))
            y = random_space(rng.randint(1, 7), SIX_VALUES, rng.randrange(10**9))
            value = ugh_distance(x, y).value
            assert value in set(spectrum(x)) | set(spectrum(y))

    def test_diameter_domination(self):
        rng = random.Random(46)
        for _ in range(100):
            x = random_space(rng.randint(1, 7), SIX_VALUES, rng.randrange(10**9))
            y = random_space(rng.randint(1, 7), SIX_VALUES, rng.randrange(10**9))
            value = ugh_distance(x, y).value
            assert value >= abs(x.diameter() - y.diameter()) / 2


class TestOracle:
    def test_identical_two_point_spaces(self):
        assert ugh_oracle(two_point_space(1), two_point_space(1)) == 0

    def test_one_point_vs_one_point(self):
        other = validate_ultrametric(["b"], [["0"]])
        assert ugh_oracle(ONE_POINT, other) == 0

    def test_guard(self):
        big = random_space(5, SIX_VALUES, 1)
        with pytest.raises(InstanceTooLarge):
            ugh_oracle(big, ONE_POINT)

    def test_agrees_with_scan_on_random_pool(self):
        rng = random.Random(47)
        pool = [
            random_space(rng.randint(1, 4), SIX_VALUES, rng.randrange(10**9))
            for _ in range(12)
        ]
        for i in range(len(pool)):
            for j in range(i, len(pool)):
                assert ugh_oracle(pool[i], pool[j]) == ugh_distance(pool[i], pool[j]).value


class TestSpectrumAgreement:
    def test_equal_spectra(self, isosceles):
        assert spectrum_agreement(isosceles, isosceles) == 0

    def test_simple_difference(self):
        assert spectrum_agreement(two_point_space(1), two_point_space(2)) == 2

    def test_two_point_family(self):
        assert spectrum_agreement(two_point_space("1/2"), two_point_space("3/4")) == Fraction(3, 4)

    def test_bounded_by_distance_and_spectra_agree_above_it(self):
        rng = random.Random(48)
        for _ in range(100):
            x = random_space(rng.randint(1, 7), SIX_VALUES, rng.randrange(10**9))
            y = random_space(rng.randint(1, 7), SIX_VALUES, rng.randrange(10**9))
            value = ugh_distance(x, y).value
            assert spectrum_agreement(x, y) <= value
            above_x = {v for v in spectrum(x) if v > value}
            above_y = {v for v in spectrum(y) if v > value}
            assert above_x == above_y


class TestCertificate:
    def test_isometric_pair_gives_zero_certificate(self, isosceles):
        relabeled = validate_ultrametric(["u", "v", "w"], isosceles.dist)
        cert = certificate(isosceles, relabeled, ugh_distance(isosceles, relabeled))
        assert cert.achieved == 0
        assert cert.space == isosceles
        verify_certificate(cert, isosceles, relabeled)

    def test_two_point_family_certificate(self):
        xh, x34 = two_point_space("1/2"), two_point_space("3/4")
        cert = certificate(xh, x34, ugh_distance(xh, x34))
        assert cert.achieved == Fraction(3, 4)
        verify_certificate(cert, xh, x34)
        image_left = [cert.embed_left[l] for l in xh.labels]
        image_right = [cert.embed_right[l] for l in x34.labels]
        assert hausdorff_distance(cert.space, image_left, image_right) == Fraction(3, 4)

    def test_point_vs_two_point_certificate(self):
        xc = two_point_space("5/8")
        cert = certificate(ONE_POINT, xc, ugh_distance(ONE_POINT, xc))
        assert len(cert.space) == 3
        assert cert.achieved == Fraction(5, 8)
        verify_certificate(cert, ONE_POINT, xc)

    def test_random_certificates_reverify(self):
        rng = random.Random(49)
        for _ in range(100):
            x = random_space(rng.randint(1, 7), SIX_VALUES, rng.randrange(10**9))
            y = random_space(rng.randint(1, 7), SIX_VALUES, rng.randrange(10**9))
            result = ugh_distance(x, y)
            cert = certificate(x, y, result)
            assert cert.achieved == result.value
            verify_certificate(cert, x, y)

    def test_verify_rejects_tampering(self):
        xh, x34 = two_point_space("1/2"), two_point_space("3/4")
        cert = certificate(xh, x34, ugh_distance(xh, x34))
        wrong = type(cert)(cert.space, cert.embed_left, cert.embed_right, Fraction(1))
        with pytest.raises(CertificateInvalid):
            verify_certificate(wrong, xh, x34)
        swapped = type(cert)(cert.space, cert.embed_right, cert.embed_left, cert.achieved)
        with pytest.raises(CertificateInvalid):
            verify_certificate(swapped, xh, x34)
        # values[k] repeated, at 0 and at the top; ranks past it move up one,
        # so every rank stays in range and no distance changes.
        space = cert.space
        for k in (0, len(space.values) - 1):
            values = (*space.values[: k + 1], *space.values[k:])
            ranks = tuple(tuple(r + (r > k) for r in row) for row in space.ranks)
            repeated = UltrametricSpace(space.labels, values, ranks)
            assert repeated.dist == space.dist
            tampered = type(cert)(repeated, cert.embed_left, cert.embed_right, cert.achieved)
            with pytest.raises(CertificateInvalid, match="values rising strictly from 0"):
                verify_certificate(tampered, xh, x34)
        # A float rank equals an int but cannot index; a float claim is refused
        # as everywhere else, even one equal to the true value.
        ranks = tuple(tuple(float(r) if r == 1 else r for r in row) for row in space.ranks)
        floats = UltrametricSpace(space.labels, space.values, ranks)
        floats = type(cert)(floats, cert.embed_left, cert.embed_right, cert.achieved)
        with pytest.raises(CertificateInvalid, match="values rising strictly from 0"):
            verify_certificate(floats, xh, x34)
        # So is a value of another type than Fraction, even one equal to it.
        for values in ((0.0, 0.5, 0.75), (0, *space.values[1:])):
            assert values == space.values
            other = UltrametricSpace(space.labels, values, space.ranks)
            other = type(cert)(other, cert.embed_left, cert.embed_right, cert.achieved)
            with pytest.raises(CertificateInvalid, match="values rising strictly from 0"):
                verify_certificate(other, xh, x34)
        for achieved in (0.25, 0.75):
            claim = type(cert)(space, cert.embed_left, cert.embed_right, achieved)
            with pytest.raises(InputFormat, match="floating point"):
                verify_certificate(claim, xh, x34)


def test_brute_force_isometry_finds_word_for_word_witness(isosceles):
    relabeled = validate_ultrametric(["w", "u", "v"], isosceles.dist)
    witness = brute_force_isometry(isosceles, relabeled)
    assert witness is not None
    for a in isosceles.labels:
        for b in isosceles.labels:
            assert isosceles.d(a, b) == relabeled.d(witness[a], witness[b])
