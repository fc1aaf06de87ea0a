import random
from fractions import Fraction

import pytest

from ultrametric import (
    closed_quotient,
    isometric,
    merge_duplicate_points,
    random_space,
    single_linkage,
    spectrum,
    validate_ultrametric,
)
from ultrametric.errors import (
    DuplicateLabel,
    EmptySpace,
    InputFormat,
    InvalidParameter,
    NegativeDistance,
    NonSymmetric,
    NonzeroDiagonal,
    TriangleViolation,
    UnknownLabel,
    ZeroOffDiagonal,
)

from conftest import SIX_VALUES, make_space


class TestValidate:
    def test_isosceles_triple_is_valid(self):
        space = make_space("abc", {("a", "b"): 1, ("b", "c"): 2, ("a", "c"): 2})
        assert space.d("a", "b") == 1
        assert space.d("c", "a") == 2

    def test_plain_metric_triangle_is_rejected(self):
        # d(a,c)=3 > max(d(a,b), d(b,c)) = 2: fine for a metric, fatal here
        with pytest.raises(TriangleViolation) as err:
            make_space("abc", {("a", "b"): 1, ("b", "c"): 2, ("a", "c"): 3})
        assert err.value.details["points"] == ["a", "c", "b"]

    def test_single_point(self):
        space = validate_ultrametric(["a"], [["0"]])
        assert len(space) == 1
        assert space.diameter() == 0
        assert space.min_positive_distance() is None

    def test_axiom_errors(self):
        with pytest.raises(NonzeroDiagonal):
            validate_ultrametric(["a", "b"], [["1", "1"], ["1", "0"]])
        with pytest.raises(NonSymmetric):
            validate_ultrametric(["a", "b"], [["0", "1"], ["2", "0"]])
        with pytest.raises(ZeroOffDiagonal):
            validate_ultrametric(["a", "b"], [["0", "0"], ["0", "0"]])
        with pytest.raises(NegativeDistance):
            validate_ultrametric(["a", "b"], [["0", "-1"], ["-1", "0"]])
        with pytest.raises(EmptySpace):
            validate_ultrametric([], [])
        with pytest.raises(DuplicateLabel):
            validate_ultrametric(["a", "a"], [["0", "1"], ["1", "0"]])
        with pytest.raises(InputFormat):
            validate_ultrametric(["a", "b"], [["0", "1"]])
        with pytest.raises(UnknownLabel):
            make_space("ab", {("a", "b"): 1}).index("z")

    @pytest.mark.parametrize(
        "matrix, error",
        [
            ([["-1"]], NonzeroDiagonal),
            ([["-1", "0"], ["0", "-1"]], NonzeroDiagonal),
            ([["0", "-1"], ["-1", "0"]], NegativeDistance),
        ],
        ids=["one_point", "diagonal", "off_diagonal"],
    )
    def test_a_negative_value_is_rejected(self, matrix, error):
        # The first two equal their own subdominant in ranks, -1 being rank 0.
        with pytest.raises(error):
            validate_ultrametric(["a", "b"][: len(matrix)], matrix)


@pytest.mark.parametrize("read", [validate_ultrametric, single_linkage, merge_duplicate_points])
def test_a_string_is_not_read_as_labels(read):
    matrix = [["0", "1"], ["1", "0"]]
    with pytest.raises(InputFormat, match="labels must be a list, not a string"):
        read("ab", matrix)
    for labels in (["a", "b"], ("a", "b")):
        read(labels, matrix)


class TestSpectrum:
    def test_one_point(self):
        assert spectrum(validate_ultrametric(["a"], [["0"]])) == (Fraction(0),)

    def test_two_point(self):
        space = make_space("ab", {("a", "b"): "3/4"})
        assert spectrum(space) == (Fraction(0), Fraction(3, 4))

    def test_isosceles(self, isosceles):
        assert spectrum(isosceles) == (Fraction(0), Fraction(1), Fraction(2))


class TestClosedQuotient:
    def test_scale_zero_is_identity(self, isosceles):
        q = closed_quotient(isosceles, 0)
        assert q.blocks == (("a",), ("b",), ("c",))
        assert isometric(q.quotient, isosceles)

    def test_scale_at_diameter_collapses(self, isosceles):
        q = closed_quotient(isosceles, 2)
        assert q.blocks == (("a", "b", "c"),)
        assert len(q.quotient) == 1

    def test_isosceles_at_one(self, isosceles):
        # derived by listing closed balls directly: B(a,1)={a,b}, B(c,1)={c}
        q = closed_quotient(isosceles, 1)
        assert q.blocks == (("a", "b"), ("c",))
        assert q.quotient.d("a", "c") == 2

    def test_negative_scale_rejected(self, isosceles):
        with pytest.raises(InvalidParameter):
            closed_quotient(isosceles, "-1")

    def test_quotient_distances_exceed_scale_and_come_from_source(self):
        rng = random.Random(7)
        for _ in range(50):
            space = random_space(rng.randint(1, 8), SIX_VALUES, rng.randrange(10**9))
            values = spectrum(space)
            for t in values:
                q = closed_quotient(space, t)
                quotient_values = set(spectrum(q.quotient)) - {Fraction(0)}
                assert all(v > t for v in quotient_values)
                assert quotient_values == {v for v in values if v > t}

    def test_quotient_tower(self):
        rng = random.Random(8)
        for _ in range(50):
            space = random_space(rng.randint(1, 8), SIX_VALUES, rng.randrange(10**9))
            values = spectrum(space)
            s = rng.choice(values)
            t = rng.choice([v for v in values if v >= s])
            twice = closed_quotient(closed_quotient(space, s).quotient, t)
            once = closed_quotient(space, t)
            assert isometric(twice.quotient, once.quotient)


class TestMergeDuplicates:
    def test_merges_zero_groups_keeping_first_labels(self):
        labels, matrix = merge_duplicate_points(
            ["a", "b", "c", "d"],
            [
                ["0", "0", "2", "2"],
                ["0", "0", "2", "2"],
                ["2", "2", "0", "0"],
                ["2", "2", "0", "0"],
            ],
        )
        assert labels == ["a", "c"]
        assert matrix[0][1] == "2"
        validate_ultrametric(labels, matrix)

    def test_closure_of_nontransitive_zeros(self):
        labels, _ = merge_duplicate_points(
            ["a", "b", "c"],
            [["0", "0", "1"], ["0", "0", "0"], ["1", "0", "0"]],
        )
        assert labels == ["a"]
