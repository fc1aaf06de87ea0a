import random
from fractions import Fraction
from itertools import combinations

import pytest

from ultrametric import (
    Leaf,
    Merge,
    cauchy_sequence,
    certificate,
    encoding,
    from_dendrogram,
    isometric,
    isometry_witness,
    glue,
    random_space,
    spectrum,
    spectrum_constraint,
    to_dendrogram,
    validate_ultrametric,
)
from ultrametric.dendrogram import canonicalize, leaf_labels, quotient_canon
from ultrametric.errors import MalformedTree
from ultrametric.oracle import brute_force_isometry
from ultrametric.spaces import ZERO

from conftest import (
    SIX_VALUES,
    make_space,
    merge_tree,
    random_glue_spec,
    shallow_recursion,
    truncated_canon,
)


def lca_height(node, a, b):
    """Independent LCA evaluation: recurse into the child containing both."""
    if isinstance(node, Leaf):
        return Fraction(0)
    for child in node.children:
        names = set(leaf_labels(child))
        if a in names and b in names:
            return lca_height(child, a, b)
    return node.height


def assert_tree_matches_space(tree, space):
    for a, b in combinations(space.labels, 2):
        assert lca_height(tree, a, b) == space.d(a, b)


class TestToDendrogram:
    def test_single_point(self):
        tree = to_dendrogram(validate_ultrametric(["a"], [["0"]]))
        assert tree == Leaf("a")

    def test_two_points(self):
        tree = to_dendrogram(make_space("ab", {("a", "b"): 1}))
        assert isinstance(tree, Merge)
        assert tree.height == 1
        assert set(leaf_labels(tree)) == {"a", "b"}

    def test_isosceles_shape(self, isosceles):
        tree = to_dendrogram(isosceles)
        assert tree.height == 2
        first, second = tree.children
        assert first == Leaf("c")  # leaves sort before internal nodes
        assert isinstance(second, Merge) and second.height == 1
        assert_tree_matches_space(tree, isosceles)

    def test_isosceles_tree_is_the_canonical_record(self, isosceles):
        pair = Merge(Fraction(1), (Leaf("a"), Leaf("b")))
        assert to_dendrogram(isosceles) == Merge(Fraction(2), (Leaf("c"), pair))

    def test_lca_metric_reproduces_random_matrices(self):
        rng = random.Random(11)
        for _ in range(60):
            space = random_space(rng.randint(1, 8), SIX_VALUES, rng.randrange(10**9))
            assert_tree_matches_space(to_dendrogram(space), space)


class TestFromDendrogram:
    def test_single_leaf(self):
        space = from_dendrogram(Leaf("a"))
        assert space.labels == ("a",)

    def test_two_leaves(self):
        space = from_dendrogram(Merge(Fraction(1), (Leaf("a"), Leaf("b"))))
        assert space.d("a", "b") == 1

    def test_nested(self, isosceles):
        tree = Merge(
            Fraction(2), (Leaf("c"), Merge(Fraction(1), (Leaf("a"), Leaf("b"))))
        )
        assert isometric(from_dendrogram(tree), isosceles)

    def test_roundtrip_is_isometric(self):
        rng = random.Random(12)
        for _ in range(60):
            space = random_space(rng.randint(1, 8), SIX_VALUES, rng.randrange(10**9))
            assert isometric(from_dendrogram(to_dendrogram(space)), space)

    def test_malformed_trees(self):
        with pytest.raises(MalformedTree):  # child height not below parent
            from_dendrogram(
                Merge(Fraction(1), (Leaf("a"), Merge(Fraction(1), (Leaf("b"), Leaf("c")))))
            )
        with pytest.raises(MalformedTree):  # single child
            from_dendrogram(Merge(Fraction(1), (Leaf("a"),)))
        with pytest.raises(MalformedTree):  # nonpositive height
            from_dendrogram(Merge(Fraction(0), (Leaf("a"), Leaf("b"))))
        with pytest.raises(MalformedTree):  # duplicate leaf labels
            from_dendrogram(Merge(Fraction(1), (Leaf("a"), Leaf("a"))))


class TestIsometry:
    def test_relabeled_copy(self, isosceles):
        relabeled = validate_ultrametric(["u", "v", "w"], isosceles.dist)
        witness = isometry_witness(isosceles, relabeled)
        assert witness is not None
        for a in isosceles.labels:
            for b in isosceles.labels:
                assert isosceles.d(a, b) == relabeled.d(witness[a], witness[b])

    def test_different_spectra(self, isosceles):
        other = make_space("abc", {("a", "b"): 1, ("a", "c"): 3, ("b", "c"): 3})
        assert not isometric(isosceles, other)

    def test_equal_spectra_different_shapes(self):
        # two pairs at 1 vs one pair at 1: both have spectrum {0, 1, 2}
        pairs = make_space(
            "abcd",
            {("a", "b"): 1, ("c", "d"): 1, ("a", "c"): 2, ("a", "d"): 2,
             ("b", "c"): 2, ("b", "d"): 2},
        )
        lopsided = make_space(
            "abcd",
            {("a", "b"): 1, ("c", "d"): 2, ("a", "c"): 2, ("a", "d"): 2,
             ("b", "c"): 2, ("b", "d"): 2},
        )
        assert spectrum(pairs) == spectrum(lopsided)
        assert brute_force_isometry(pairs, lopsided) is None
        assert not isometric(pairs, lopsided)

    def test_agrees_with_brute_force_on_random_pairs(self):
        rng = random.Random(13)
        for _ in range(200):
            x = random_space(rng.randint(1, 6), SIX_VALUES, rng.randrange(10**9))
            y = random_space(rng.randint(1, 6), SIX_VALUES, rng.randrange(10**9))
            expected = brute_force_isometry(x, y)
            witness = isometry_witness(x, y)
            assert (witness is None) == (expected is None)
            if witness is not None:
                for a in x.labels:
                    for b in x.labels:
                        assert x.d(a, b) == y.d(witness[a], witness[b])

    def test_isometry_implies_equal_spectra(self):
        rng = random.Random(14)
        for _ in range(100):
            x = random_space(rng.randint(1, 6), SIX_VALUES, rng.randrange(10**9))
            y = random_space(rng.randint(1, 6), SIX_VALUES, rng.randrange(10**9))
            if isometric(x, y):
                assert spectrum(x) == spectrum(y)

    def test_relabeled_random_spaces_are_isometric(self):
        rng = random.Random(15)
        for _ in range(50):
            x = random_space(rng.randint(2, 7), SIX_VALUES, rng.randrange(10**9))
            shuffled = list(range(len(x)))
            rng.shuffle(shuffled)
            labels = [f"r{k}" for k in range(len(x))]
            matrix = [
                [x.dist[shuffled[i]][shuffled[j]] for j in range(len(x))]
                for i in range(len(x))
            ]
            assert isometric(x, validate_ultrametric(labels, matrix))


class TestCanonicalForm:
    def test_canonical_encoding_ignores_labels(self, isosceles):
        relabeled = validate_ultrametric(["z", "y", "x"], isosceles.dist)
        assert encoding(to_dendrogram(isosceles)) == encoding(to_dendrogram(relabeled))

    def test_canonicalize_is_idempotent(self):
        rng = random.Random(16)
        for _ in range(30):
            space = random_space(rng.randint(1, 8), SIX_VALUES, rng.randrange(10**9))
            tree = to_dendrogram(space)
            assert canonicalize(tree) == tree


def merge_chain(levels, bottom="p0"):
    """Caterpillar tree: level ``k`` joins leaf ``p<k>`` to everything below at height ``k``."""
    node = Leaf(bottom)
    for k in range(1, levels + 1):
        node = Merge(Fraction(k), (node, Leaf(f"p{k}")))
    return node


class TestDeepTrees:
    """Trees deeper than the default recursion limit of 1000 frames."""

    LEVELS = 1100

    def test_canonical_form_and_leaf_labels(self):
        tree = merge_chain(self.LEVELS)
        canon = canonicalize(tree)
        assert canon.height == self.LEVELS
        assert canon.children[0] == Leaf(f"p{self.LEVELS}")  # leaves sort first
        assert leaf_labels(tree) == tuple(f"p{k}" for k in range(self.LEVELS + 1))
        assert leaf_labels(canon)[-2:] == ("p0", "p1")
        text = encoding(tree)
        assert text == encoding(canon)
        assert text.startswith(f"({self.LEVELS};p,({self.LEVELS - 1};p,")
        assert text.endswith("(1;p,p)" + ")" * (self.LEVELS - 1))

    def test_from_dendrogram_and_isometry(self):
        tree = merge_chain(300)
        with shallow_recursion():
            space = from_dendrogram(tree)
            witness = isometry_witness(space, space)
        assert space.d("p0", "p1") == 1
        assert space.d("p0", "p300") == 300
        assert space.d("p299", "p300") == 300
        assert witness == {label: label for label in space.labels}

    def test_deepest_cauchy_tree_compares_hashes_and_prints(self):
        depth = 1447  # the deepest space ``gen cauchy`` builds
        tree = to_dendrogram(cauchy_sequence(depth))
        twin, other = merge_chain(depth), merge_chain(depth, bottom="q0")
        with shallow_recursion():
            assert tree == canonicalize(tree) and hash(tree) == hash(canonicalize(tree))
            assert twin == merge_chain(depth) and hash(twin) == hash(merge_chain(depth))
            assert twin != other and tree != twin
            text = repr(tree)
        assert text == "Merge(height 1, 1448 leaves: 1, 1/2, 1/4, 1/8, 1/16, 1/32...)"
        assert repr(merge_chain(2)) == "Merge(height 2, 3 leaves: p0, p1, p2)"


class TestQuotientCanon:
    """``quotient_canon`` against the post-order walk it replaced:
    ``truncated_canon`` on ``merge_tree``, at 0 and at every spectral value."""

    @staticmethod
    def assert_matches_the_tree_walk(space):
        tree = merge_tree(space)
        for t in (ZERO, *space.values):
            node, key = quotient_canon(space, t)
            want_node, want_key = truncated_canon(tree, t, space._index)
            assert node == want_node
            assert (space.values[key[0]], *key[1:]) == want_key

    def test_shuffled_random_glue_and_certificate_spaces(self):
        rng = random.Random(18)
        grid = ["1/8", "1/4", "3/8", "1/2", "3/4", "1", "2"]
        for _ in range(120):
            constraint = spectrum_constraint(["0", *rng.sample(grid, rng.randint(1, len(grid)))])
            x, y = (
                random_space(rng.randint(1, 30), constraint, rng.randrange(10**9)) for _ in "xy"
            )
            order = rng.sample(range(len(x)), len(x))
            labels = [f"s{rng.randrange(100)}.{k}" for k in range(len(x))]
            shuffled = validate_ultrametric(labels, [[x.dist[i][j] for j in order] for i in order])
            for space in (shuffled, glue(random_glue_spec(rng)), certificate(x, y).space):
                self.assert_matches_the_tree_walk(space)

    def test_cauchy_spaces(self):
        for depth in (0, 1, 2, 3, 17, 400):
            self.assert_matches_the_tree_walk(cauchy_sequence(depth))
