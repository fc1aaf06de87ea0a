import random
from itertools import combinations

import pytest

from ultrametric import (
    epsilon_net,
    hausdorff_distance,
    isometric,
    random_space,
    restrict,
    spectrum,
)
from ultrametric.errors import DuplicateLabel, EmptySubset, InputFormat, InvalidParameter, UnknownLabel

from conftest import SIX_VALUES, make_space


def hausdorff_by_neighborhoods(space, a, b):
    """Independent evaluation: smallest spectrum value eps with mutual
    containment in closed eps-neighborhoods."""
    ai = [space.index(l) for l in a]
    bi = [space.index(l) for l in b]
    for eps in spectrum(space):
        a_covered = all(any(space.dist[i][j] <= eps for j in bi) for i in ai)
        b_covered = all(any(space.dist[i][j] <= eps for i in ai) for j in bi)
        if a_covered and b_covered:
            return eps
    raise AssertionError("the diameter always covers")


class TestHausdorff:
    def test_equal_subsets(self, isosceles):
        assert hausdorff_distance(isosceles, ["a", "b"], ["a", "b"]) == 0

    def test_two_singletons(self):
        space = make_space("ab", {("a", "b"): 1})
        assert hausdorff_distance(space, ["a"], ["b"]) == 1

    def test_isosceles_example(self, isosceles):
        # frozen from the neighborhood oracle below
        assert hausdorff_by_neighborhoods(isosceles, ["a", "c"], ["b"]) == 2
        assert hausdorff_distance(isosceles, ["a", "c"], ["b"]) == 2

    def test_errors(self, isosceles):
        with pytest.raises(EmptySubset):
            hausdorff_distance(isosceles, [], ["a"])
        with pytest.raises(UnknownLabel):
            hausdorff_distance(isosceles, ["z"], ["a"])
        with pytest.raises(DuplicateLabel):
            hausdorff_distance(isosceles, ["a", "a"], ["b"])

    def test_a_string_is_not_a_subset(self):
        space = make_space(["a", "b", "ab"], {("a", "b"): 2, ("a", "ab"): 2, ("b", "ab"): 1})
        with pytest.raises(InputFormat, match="subset A must be a list of labels, not a string"):
            hausdorff_distance(space, "ab", ["ab"])
        with pytest.raises(InputFormat, match="subset B must be a list of labels, not a string"):
            hausdorff_distance(space, ["ab"], "ab")
        assert hausdorff_distance(space, ("a", "b"), ["ab"]) == 2

    def test_matches_neighborhood_oracle_and_lands_in_spectrum(self):
        rng = random.Random(21)
        for _ in range(100):
            space = random_space(rng.randint(2, 8), SIX_VALUES, rng.randrange(10**9))
            a = rng.sample(space.labels, rng.randint(1, len(space)))
            b = rng.sample(space.labels, rng.randint(1, len(space)))
            value = hausdorff_distance(space, a, b)
            assert value == hausdorff_by_neighborhoods(space, a, b)
            assert value in spectrum(space)

    def test_zero_iff_equal(self):
        rng = random.Random(22)
        for _ in range(100):
            space = random_space(rng.randint(2, 8), SIX_VALUES, rng.randrange(10**9))
            a = rng.sample(space.labels, rng.randint(1, len(space)))
            b = rng.sample(space.labels, rng.randint(1, len(space)))
            assert (hausdorff_distance(space, a, b) == 0) == (set(a) == set(b))

    def test_strong_triangle_inequality(self):
        rng = random.Random(23)
        for _ in range(300):
            space = random_space(rng.randint(2, 8), SIX_VALUES, rng.randrange(10**9))
            a = rng.sample(space.labels, rng.randint(1, len(space)))
            b = rng.sample(space.labels, rng.randint(1, len(space)))
            c = rng.sample(space.labels, rng.randint(1, len(space)))
            dab = hausdorff_distance(space, a, b)
            dbc = hausdorff_distance(space, b, c)
            dac = hausdorff_distance(space, a, c)
            assert dac <= max(dab, dbc)


class TestRestrict:
    def test_full_subset(self, isosceles):
        assert isometric(restrict(isosceles, ["c", "a", "b"]), isosceles)

    def test_singleton(self, isosceles):
        assert len(restrict(isosceles, ["b"])) == 1

    def test_pair(self, isosceles):
        sub = restrict(isosceles, ["a", "c"])
        assert sub.labels == ("a", "c")
        assert sub.d("a", "c") == 2

    def test_empty(self, isosceles):
        with pytest.raises(EmptySubset, match="^the subset is empty$"):
            restrict(isosceles, [])

    def test_a_string_is_not_a_subset(self):
        space = make_space(["a", "b", "ab"], {("a", "b"): 2, ("a", "ab"): 2, ("b", "ab"): 1})
        with pytest.raises(InputFormat, match="^the subset must be a list of labels, not a string$"):
            restrict(space, "ab")
        assert restrict(space, ("ab",)).labels == ("ab",)


class TestEpsilonNet:
    def test_eps_at_diameter_keeps_first_point(self, isosceles):
        assert epsilon_net(isosceles, 2) == ("a",)

    def test_eps_below_min_distance_keeps_all(self, isosceles):
        assert epsilon_net(isosceles, "1/2") == ("a", "b", "c")

    def test_isosceles_at_one(self, isosceles):
        # derived by direct enumeration: b is within 1 of a, c is not
        net = epsilon_net(isosceles, 1)
        assert net == ("a", "c")
        for label in isosceles.labels:
            assert min(isosceles.d(label, kept) for kept in net) <= 1

    def test_nonpositive_eps_rejected(self, isosceles):
        with pytest.raises(InvalidParameter):
            epsilon_net(isosceles, 0)

    def test_covering_and_separation(self):
        rng = random.Random(24)
        for _ in range(100):
            space = random_space(rng.randint(1, 8), SIX_VALUES, rng.randrange(10**9))
            eps = rng.choice([v for v in SIX_VALUES.values if v > 0])
            net = epsilon_net(space, eps)
            for label in space.labels:
                assert min(space.d(label, kept) for kept in net) <= eps
            for x, y in combinations(net, 2):
                assert space.d(x, y) > eps
            assert hausdorff_distance(space, space.labels, net) <= eps
