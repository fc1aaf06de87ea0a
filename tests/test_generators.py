import random
import sys
from fractions import Fraction
from itertools import combinations

import pytest

from ultrametric import (
    Leaf,
    Merge,
    cauchy_sequence,
    crowd_family,
    from_dendrogram,
    in_uk,
    random_space,
    single_linkage,
    spectrum,
    spectrum_constraint,
    two_point_space,
    ugh_distance,
    ugh_oracle,
    validate_ultrametric,
)
from ultrametric import generators, spaces
from ultrametric.generators import Membership
from ultrametric.spaces import UltrametricSpace
from ultrametric.errors import (
    BasePointMissing,
    ConstraintTooSmall,
    InputFormat,
    InstanceTooLarge,
    InvalidParameter,
    NonpositiveDistance,
    NotAMetric,
    ScaleNotBelowMinDistance,
)

from conftest import BUILD_SPACE, SIX_VALUES, make_space


class TestTwoPointSpace:
    def test_values(self):
        for c in ("1/2", "1"):
            space = two_point_space(c)
            assert space.labels == ("p", "q")
            assert space.d("p", "q") == Fraction(c)

    def test_rejects_nonpositive(self):
        with pytest.raises(NonpositiveDistance):
            two_point_space(0)


class TestCrowdFamily:
    def test_one_point_base_becomes_equilateral(self):
        base = validate_ultrametric(["y"], [["0"]])
        space = crowd_family(base, "y", "1/4", 2)
        assert len(space) == 3
        for a, b in combinations(space.labels, 2):
            assert space.d(a, b) == Fraction(1, 4)

    def test_two_point_base(self):
        base = make_space(["x1", "x2"], {("x1", "x2"): 1})
        space = crowd_family(base, "x1", "1/4", 1)
        fresh = [l for l in space.labels if l not in base.labels]
        assert fresh == ["1"]
        assert space.d("x1", "1") == Fraction(1, 4)
        assert space.d("x2", "1") == Fraction(1)

    def test_fresh_points_mutually_at_c(self):
        base = make_space(["x1", "x2", "x3"], {("x1", "x2"): "1/4", ("x1", "x3"): "1/2", ("x2", "x3"): "1/2"})
        space = crowd_family(base, "x1", "1/8", 4)
        fresh = [l for l in space.labels if l not in base.labels]
        for a, b in combinations(fresh, 2):
            assert space.d(a, b) == Fraction(1, 8)

    def test_label_collision_is_dodged(self):
        base = make_space(["1", "2"], {("1", "2"): 1})
        space = crowd_family(base, "1", "1/2", 2)
        assert set(space.labels) == {"1", "2", "_1", "_2"}

    def test_errors(self):
        base = make_space(["x1", "x2"], {("x1", "x2"): 1})
        with pytest.raises(BasePointMissing):
            crowd_family(base, "zz", "1/4", 1)
        with pytest.raises(InvalidParameter):
            crowd_family(base, "x1", "1/4", 0)
        with pytest.raises(ScaleNotBelowMinDistance):
            crowd_family(base, "x1", 1, 1)
        with pytest.raises(NonpositiveDistance):
            crowd_family(base, "x1", 0, 1)

    def test_n_beyond_the_cell_budget_is_refused_before_building(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("a refused instance was partly built")

        monkeypatch.setattr(generators, "join_spaces", unreachable)
        base = make_space(["x1", "x2"], {("x1", "x2"): 1})
        for n in (1447, 10**12):
            with pytest.raises(InstanceTooLarge) as info:
                crowd_family(base, "x1", "1/4", n)
            assert info.value.payload()["n"] == n
            assert info.value.payload()["max_n"] == 1446

    def test_largest_n_within_the_cell_budget_is_built(self, monkeypatch):
        # Built without the test suite's axiom scan, which would dominate here.
        monkeypatch.setattr(spaces, "space_from_chain", BUILD_SPACE)
        base = make_space(["x1", "x2"], {("x1", "x2"): 1})
        matrix = crowd_family(base, "x1", "1/4", 1446).ranks
        assert 1448**2 <= generators.CELL_BUDGET < 1449**2
        assert (len(matrix), {len(row) for row in matrix}) == (1448, {1448})


class TestCauchySequence:
    def test_depth_zero(self):
        assert len(cauchy_sequence(0)) == 1

    def test_depth_one(self):
        space = cauchy_sequence(1)
        assert space.labels == ("1", "1/2")
        assert space.d("1", "1/2") == 1

    def test_distances_are_max_of_values(self):
        space = cauchy_sequence(4)
        assert space.d("1/4", "1/16") == Fraction(1, 4)
        assert space.d("1/2", "1/16") == Fraction(1, 2)

    def test_consecutive_distances_decrease(self):
        spaces = [cauchy_sequence(i) for i in range(7)]
        values = [
            ugh_distance(spaces[i], spaces[i + 1]).value for i in range(len(spaces) - 1)
        ]
        assert all(values[i] > values[i + 1] for i in range(len(values) - 1))
        for i, value in enumerate(values):
            assert value <= Fraction(1, 2**i)

    def test_consecutive_distance_against_oracle_at_small_depth(self):
        # 2^-i confirmed exhaustively while the spaces are oracle-sized
        for i in range(3):
            value = ugh_oracle(cauchy_sequence(i), cauchy_sequence(i + 1))
            assert value == Fraction(1, 2**i)
            assert ugh_distance(cauchy_sequence(i), cauchy_sequence(i + 1)).value == value

    def test_negative_depth(self):
        with pytest.raises(InvalidParameter):
            cauchy_sequence(-1)

    def test_depth_beyond_the_int_string_limit_is_refused_before_building(self):
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("the interpreter sets no integer string limit")
        bound = (10**limit).bit_length()
        # 2^-(bound - 1) still formats; 2^-bound would not.
        assert len(str(2 ** (bound - 1))) == limit
        for depth in (bound, 10**12):
            with pytest.raises(InstanceTooLarge) as info:
                cauchy_sequence(depth)
            assert info.value.payload()["depth"] == depth
            assert info.value.payload()["limit"] == limit

    def test_depth_beyond_the_cell_budget_is_refused_before_building(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("a refused instance was partly built")

        monkeypatch.setattr(generators, "Fraction", unreachable)
        monkeypatch.setattr(generators, "space_from_chain", unreachable)
        # Both stay below 2127, the integer-limit bound at the lowest limit (640).
        for depth in (1448, 2000):
            with pytest.raises(InstanceTooLarge) as info:
                cauchy_sequence(depth)
            assert info.value.payload()["depth"] == depth
            assert info.value.payload()["max_depth"] == 1447

    def test_largest_depth_within_the_cell_budget_is_built(self, monkeypatch):
        # Built without the test suite's axiom scan, which would dominate here.
        monkeypatch.setattr(generators, "space_from_chain", BUILD_SPACE)
        space = cauchy_sequence(1447)
        assert 1448**2 <= generators.CELL_BUDGET < 1449**2
        assert (len(space), len(space.ranks), {len(row) for row in space.ranks}) == (1448, 1448, {1448})

    def test_rows_hold_the_max_of_their_points(self):
        space = cauchy_sequence(12)
        points = [Fraction(1, 2**k) for k in range(13)]
        assert space.dist == tuple(
            tuple(max(p, q) if i != j else 0 for j, q in enumerate(points))
            for i, p in enumerate(points)
        )


class TestInUK:
    def test_own_spectrum(self, isosceles):
        assert in_uk(isosceles, spectrum_constraint(spectrum(isosceles))).member

    def test_violation_witness(self):
        membership = in_uk(two_point_space("1/2"), spectrum_constraint(["0", "1/4"]))
        assert not membership.member
        assert membership.witness == ("p", "q", Fraction(1, 2))

    def test_one_point_space_in_any_k(self):
        assert in_uk(validate_ultrametric(["a"], [["0"]]), spectrum_constraint(["0"])).member

    def test_matches_the_full_pair_scan(self):
        def reference(space, constraint):
            for i, a in enumerate(space.labels):
                for b in space.labels[i + 1 :]:
                    if space.d(a, b) not in constraint.values:
                        return Membership(False, (a, b, space.d(a, b)))
            return Membership(True)

        rng = random.Random(53)
        members = 0
        for _ in range(200):
            space = random_space(rng.randint(1, 12), SIX_VALUES, rng.randrange(10**9))
            kept = rng.sample(SIX_VALUES.values[1:], rng.randint(0, 5))
            constraint = spectrum_constraint(["0", *kept])
            got = in_uk(space, constraint)
            assert got == reference(space, constraint)
            members += got.member
        assert 20 <= members <= 180

    def test_a_member_is_decided_by_its_values(self):
        space = random_space(30, SIX_VALUES, 7)
        # Rows that no scan may read: membership needs only the values.
        blind = UltrametricSpace(space.labels, space.values, None)
        assert in_uk(blind, SIX_VALUES) == Membership(True)

    def test_constraint_requires_zero(self):
        with pytest.raises(InvalidParameter):
            spectrum_constraint(["1/2"])
        with pytest.raises(InvalidParameter):
            spectrum_constraint([])

    def test_constraint_names_the_defect(self):
        with pytest.raises(InvalidParameter, match="must be nonnegative"):
            spectrum_constraint(["0", "-1", "1"])
        with pytest.raises(InvalidParameter, match="must be nonnegative"):
            spectrum_constraint(["-1", "1"])
        with pytest.raises(InvalidParameter, match="must contain 0"):
            spectrum_constraint(["1/2", "1"])


class TestRandomSpace:
    def test_one_point(self):
        assert len(random_space(1, SIX_VALUES, 5)) == 1

    def test_deterministic(self):
        a = random_space(7, SIX_VALUES, 123)
        b = random_space(7, SIX_VALUES, 123)
        assert a == b
        assert a != random_space(7, SIX_VALUES, 124)

    def test_spectrum_contained_in_k(self):
        rng = random.Random(51)
        for _ in range(80):
            space = random_space(rng.randint(1, 9), SIX_VALUES, rng.randrange(10**9))
            assert in_uk(space, SIX_VALUES).member

    def test_needs_a_positive_value(self):
        with pytest.raises(ConstraintTooSmall):
            random_space(3, spectrum_constraint(["0"]), 1)
        with pytest.raises(InvalidParameter):
            random_space(0, SIX_VALUES, 1)

    def test_n_beyond_the_cell_budget_is_refused_before_building(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("a refused instance was partly built")

        monkeypatch.setattr(generators.random, "Random", unreachable)
        for n in (1449, 10**12):
            with pytest.raises(InstanceTooLarge) as info:
                random_space(n, SIX_VALUES, 1)
            assert info.value.payload()["n"] == n
            assert info.value.payload()["max_n"] == 1448


def reference_random_space(n, constraint, seed):
    """``random_space`` as it was built through a merge tree: the same draws
    make ``Leaf`` and ``Merge`` nodes, and ``from_dendrogram`` reads them."""
    rng = random.Random(seed)
    labels = [f"x{k}" for k in range(1, n + 1)]
    rng.shuffle(labels)

    def build(points, heights):
        if len(points) == 1:
            return Leaf(points[0])
        h = rng.choice(heights)
        lower = [v for v in heights if v < h]
        k = rng.randint(2, len(points)) if lower else len(points)
        bounds = [0, *sorted(rng.sample(range(1, len(points)), k - 1)), len(points)]
        return Merge(h, tuple(build(points[a:b], lower) for a, b in zip(bounds, bounds[1:])))

    return from_dendrogram(build(labels, [v for v in constraint.values if v > 0]))


def test_random_space_matches_the_merge_tree_it_replaced():
    """Seeded draws of 1 to 300 points, most of them small, under value sets
    with one positive value and with many."""
    rng = random.Random(17)
    values = [Fraction(k, 16) for k in range(1, 33)]
    for draw in range(2000):
        n = rng.choice([1, 2, 3, rng.randint(4, 12), rng.randint(4, 40)])
        if draw % 100 == 0:
            n = 300 if draw == 0 else rng.randint(41, 300)
        positive = rng.sample(values, 1 if draw % 3 == 0 else rng.randint(2, 20))
        constraint = spectrum_constraint([0, *positive])
        seed = rng.randrange(10**9)
        got, want = random_space(n, constraint, seed), reference_random_space(n, constraint, seed)
        assert (got.labels, got.values, got.ranks) == (want.labels, want.values, want.ranks)


def all_paths_minimax(labels, matrix, a, b):
    """Reference value: enumerate every simple path and take min of max edges."""
    index = {l: i for i, l in enumerate(labels)}
    n = len(labels)
    best = None

    def explore(current, target, seen, worst):
        nonlocal best
        if current == target:
            best = worst if best is None else min(best, worst)
            return
        for nxt in range(n):
            if nxt not in seen:
                explore(nxt, target, seen | {nxt}, max(worst, matrix[current][nxt]))

    explore(index[a], index[b], {index[a]}, Fraction(0))
    return best


class TestSingleLinkage:
    def test_ultrametric_input_is_unchanged(self, isosceles):
        out = single_linkage(isosceles.labels, isosceles.dist)
        assert out == isosceles

    def test_detour_through_middle_point(self):
        labels = ["a", "b", "c"]
        matrix = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
        out = single_linkage(labels, matrix)
        assert out.d("a", "c") == 1
        assert all_paths_minimax(labels, [[Fraction(v) for v in r] for r in matrix], "a", "c") == 1

    def test_two_points(self):
        out = single_linkage(["a", "b"], [[0, 5], [5, 0]])
        assert out.d("a", "b") == 5

    def test_matches_path_enumeration(self):
        rng = random.Random(52)
        for _ in range(30):
            n = rng.randint(2, 6)
            labels = [f"v{i}" for i in range(n)]
            # random metric: distances in [1, 2] always satisfy the triangle inequality
            matrix = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    matrix[i][j] = matrix[j][i] = 1 + Fraction(rng.randint(0, 8), 8)
            out = single_linkage(labels, matrix)
            for i in range(n):
                for j in range(i + 1, n):
                    expected = all_paths_minimax(labels, matrix, labels[i], labels[j])
                    assert out.dist[i][j] == expected
                    assert out.dist[i][j] <= matrix[i][j]

    def test_idempotent_and_below_input(self):
        rng = random.Random(53)
        for _ in range(30):
            n = rng.randint(2, 7)
            labels = [f"v{i}" for i in range(n)]
            matrix = [[Fraction(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    matrix[i][j] = matrix[j][i] = 1 + Fraction(rng.randint(0, 8), 8)
            once = single_linkage(labels, matrix)
            twice = single_linkage(once.labels, once.dist)
            assert once == twice
            for i in range(n):
                for j in range(n):
                    assert once.dist[i][j] <= matrix[i][j]

    def test_not_a_metric_errors(self):
        with pytest.raises(NotAMetric):
            single_linkage(["a", "b"], [[0, 1], [2, 0]])
        with pytest.raises(NotAMetric):
            single_linkage(["a", "b"], [[0, 0], [0, 0]])
        with pytest.raises(NotAMetric):
            single_linkage(["a", "b", "c"], [[0, 1, 5], [1, 0, 1], [5, 1, 0]])
        with pytest.raises(InputFormat):
            single_linkage(["a", "b"], [[0, 1]])


def test_prop_two_point_grid_lower_bound():
    # pairwise distance across the c-grid equals max(c1, c2), always >= 1/4
    grid = [Fraction(1, 2) + Fraction(k, 16) for k in range(9)]
    for c1, c2 in combinations(grid, 2):
        value = ugh_distance(two_point_space(c1), two_point_space(c2)).value
        assert value == max(c1, c2)
        assert value >= Fraction(1, 4)
        assert ugh_oracle(two_point_space(c1), two_point_space(c2)) == value
