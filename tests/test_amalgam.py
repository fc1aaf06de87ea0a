import random
from fractions import Fraction

import pytest

from ultrametric import (
    GlueSpec,
    chain_glue,
    disjoint_amalgam,
    glue,
    hausdorff_distance,
    isometric,
    restrict,
    validate_ultrametric,
)
from ultrametric.builders import side_by_side
from ultrametric.errors import (
    DuplicateIdentification,
    EmptyChain,
    EmptyCommonPart,
    MetricMismatchOnA,
    ScaleTooSmall,
    UnknownLabel,
)

from conftest import make_space, random_glue_spec


class TestGlue:
    def test_single_common_point(self):
        x1 = make_space(["a", "x"], {("a", "x"): 1})
        x2 = make_space(["a", "y"], {("a", "y"): 2})
        glued = glue(GlueSpec(x1, x2, (("a", "a"),)))
        assert glued.labels == ("L:a", "L:x", "R:y")
        assert glued.d("L:x", "R:y") == max(Fraction(1), Fraction(2))

    def test_gluing_along_whole_subspace_extends_identically(self, isosceles):
        part = restrict(isosceles, ["a", "b"])
        glued = glue(GlueSpec(isosceles, part, (("a", "a"), ("b", "b"))))
        assert isometric(glued, isosceles)

    def test_two_point_common_part(self):
        # cross distance minimizes max over both common points
        x1 = make_space(["a", "b", "x"], {("a", "b"): 2, ("x", "a"): 1, ("x", "b"): 2})
        x2 = make_space(["a", "b", "y"], {("a", "b"): 2, ("y", "a"): 2, ("y", "b"): 1})
        glued = glue(GlueSpec(x1, x2, (("a", "a"), ("b", "b"))))
        assert glued.d("L:x", "R:y") == min(max(1, 2), max(2, 1)) == 2
        validate_ultrametric(glued.labels, glued.dist)

    def test_errors(self):
        x1 = make_space(["a", "x"], {("a", "x"): 1})
        x2 = make_space(["a", "y"], {("a", "y"): 2})
        with pytest.raises(EmptyCommonPart):
            glue(GlueSpec(x1, x2, ()))
        with pytest.raises(DuplicateIdentification):
            glue(GlueSpec(x1, x2, (("a", "a"), ("a", "y"))))
        with pytest.raises(UnknownLabel):
            glue(GlueSpec(x1, x2, (("zz", "a"),)))
        with pytest.raises(MetricMismatchOnA):
            glue(
                GlueSpec(
                    make_space(["a", "b", "x"], {("a", "b"): 2, ("x", "a"): 1, ("x", "b"): 2}),
                    make_space(["a", "b", "y"], {("a", "b"): 3, ("y", "a"): 3, ("y", "b"): 3}),
                    (("a", "a"), ("b", "b")),
                )
            )

    def test_random_specs_glue_to_valid_ultrametrics(self):
        rng = random.Random(31)
        for _ in range(150):
            spec = random_glue_spec(rng)
            glued = glue(spec)
            validate_ultrametric(glued.labels, glued.dist)

    def test_both_parts_embed_isometrically(self):
        rng = random.Random(32)
        for _ in range(100):
            spec = random_glue_spec(rng)
            glued = glue(spec)
            left, right = side_by_side(spec.x1, spec.x2, spec.identify)
            for space, embedding in ((spec.x1, left), (spec.x2, right)):
                for a in space.labels:
                    for b in space.labels:
                        assert space.d(a, b) == glued.d(embedding[a], embedding[b])

    def test_cross_distance_minimality(self):
        rng = random.Random(33)
        for _ in range(100):
            spec = random_glue_spec(rng)
            glued = glue(spec)
            left, right = side_by_side(spec.x1, spec.x2, spec.identify)
            right_only = [b for b in spec.x2.labels if right[b].startswith("R:")]
            for x1 in spec.x1.labels:
                for x2 in right_only:
                    bounds = [
                        max(spec.x1.d(x1, a), spec.x2.d(b, x2))
                        for a, b in spec.identify
                    ]
                    value = glued.d(left[x1], right[x2])
                    assert value == min(bounds)

    def test_hausdorff_between_parts_bounded_by_cross_distances(self):
        rng = random.Random(34)
        for _ in range(50):
            spec = random_glue_spec(rng)
            glued = glue(spec)
            left, right = side_by_side(spec.x1, spec.x2, spec.identify)
            part1 = sorted({left[a] for a in spec.x1.labels})
            part2 = sorted({right[b] for b in spec.x2.labels})
            cross = [
                glued.d(left[a], right[b])
                for a in spec.x1.labels
                for b in spec.x2.labels
            ]
            assert hausdorff_distance(glued, part1, part2) <= max(cross)


class TestDisjointAmalgam:
    def test_two_singletons(self):
        x = validate_ultrametric(["a"], [["0"]])
        y = validate_ultrametric(["c"], [["0"]])
        glued = disjoint_amalgam(x, y, 1)
        assert glued.d("L:a", "R:c") == 1

    def test_pair_plus_singleton(self):
        x = make_space(["a", "b"], {("a", "b"): 1})
        y = validate_ultrametric(["c"], [["0"]])
        glued = disjoint_amalgam(x, y, 1)
        assert glued.d("L:a", "R:c") == 1
        assert glued.d("L:b", "R:c") == 1
        assert glued.d("L:a", "L:b") == 1

    def test_scale_too_small(self):
        x = make_space(["a", "b"], {("a", "b"): 2})
        y = validate_ultrametric(["c"], [["0"]])
        with pytest.raises(ScaleTooSmall) as err:
            disjoint_amalgam(x, y, 1)
        assert err.value.details["required_minimum"] == "2"
        with pytest.raises(ScaleTooSmall):
            disjoint_amalgam(y, y, 0)


class TestChainGlue:
    def test_single_link_matches_glue(self):
        x1 = make_space(["a", "x"], {("a", "x"): 1})
        x2 = make_space(["a2", "y"], {("a2", "y"): 2})
        spec = GlueSpec(x1, x2, (("a", "a2"),))
        chained = chain_glue([x1, x2], [[("a", "a2")]])
        assert chained.space == glue(spec)

    def test_three_spaces_all_embed(self):
        # y1 -(x1={b})- y2 -(x2={c})- y3; verified by matrix restriction
        y1 = make_space(["a", "b"], {("a", "b"): 1})
        y2 = make_space(["b2", "c"], {("b2", "c"): 2})
        y3 = make_space(["c2", "d"], {("c2", "d"): 4})
        result = chain_glue([y1, y2, y3], [[("b", "b2")], [("c", "c2")]])
        for space, embedding in zip((y1, y2, y3), result.embeddings):
            for a in space.labels:
                for b in space.labels:
                    assert space.d(a, b) == result.space.d(embedding[a], embedding[b])
        assert result.space.d(result.embeddings[0]["a"], result.embeddings[2]["d"]) == 4

    def test_empty_chain(self):
        with pytest.raises(EmptyChain):
            chain_glue([], [])

    def test_random_chains_embed_every_input(self):
        rng = random.Random(35)
        for _ in range(30):
            spec1 = random_glue_spec(rng, max_side=5)
            # reuse spec1.x2 as the middle space; glue a fresh right side to it
            middle = spec1.x2
            anchor = rng.choice(middle.labels)
            other = validate_ultrametric(
                ["n:0", "n:1"],
                [["0", "2"], ["2", "0"]],
            )
            big = max(middle.diameter(), Fraction(2)) if len(middle) > 1 else Fraction(2)
            extension = disjoint_amalgam(middle, other, big)
            pairs2 = [(anchor, f"L:{anchor}")]
            result = chain_glue(
                [spec1.x1, middle, extension],
                [list(spec1.identify), pairs2],
            )
            for space, embedding in zip((spec1.x1, middle, extension), result.embeddings):
                for a in space.labels:
                    for b in space.labels:
                        assert space.d(a, b) == result.space.d(embedding[a], embedding[b])
