"""Differential tests for the minimum-spanning-tree core and its integer kernels.

Validation, single linkage and dendrogram construction all read the
subdominant ultrametric off one Prim tree, and validation and the metric
check compare integers (ranks, scaled values) instead of Fractions.  The
reference functions below are the algorithms they replaced: the full triple
scan, the Fraction metric check, the minimax Floyd-Warshall closure, the
spectrum sweep and the union-find duplicate merge.  Seeded inputs must give
identical results, including identical error payloads.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import namedtuple
from fractions import Fraction

import pytest

from ultrametric import (
    Leaf,
    Merge,
    cauchy_sequence,
    closed_quotient,
    from_dendrogram,
    merge_duplicate_points,
    random_space,
    single_linkage,
    spectrum,
    spectrum_constraint,
    to_dendrogram,
    validate_ultrametric,
)
from ultrametric.errors import (
    DuplicateLabel,
    EmptySpace,
    InputFormat,
    NegativeDistance,
    NotAMetric,
    NonSymmetric,
    NonzeroDiagonal,
    TriangleViolation,
    UltrametricError,
    ZeroOffDiagonal,
)
from ultrametric.rationals import as_rational, format_rational
from ultrametric.linkage import SCALE_BITS
from ultrametric.oracle import block_matrix
from ultrametric.spaces import UltrametricSpace, _coerce_matrix, rank_image

from conftest import find_root, rank_entries, respelled, spellings

VALUES = ["0", "1/8", "1/4", "3/8", "1/2", "1"]
CORRUPTIONS = [Fraction(v) for v in ["1/16", "1/8", "3/16", "1/4", "3/8", "1/2", "3/4", "1", "2"]]

# What the reference functions return: labels and the matrix of Fractions.
Reference = namedtuple("Reference", "labels dist")


def reference_validate(labels, matrix) -> Reference:
    """The cubic scan: diagonal, then pairs, then every ascending triple."""
    labels = tuple(str(l) for l in labels)
    rows = [[as_rational(v) for v in row] for row in matrix]
    n = len(labels)
    for i in range(n):
        if rows[i][i] != 0:
            raise NonzeroDiagonal(
                f"d({labels[i]},{labels[i]}) = {format_rational(rows[i][i])}, expected 0",
                point=labels[i],
            )
    for i in range(n):
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise NonSymmetric(
                    f"d({labels[i]},{labels[j]}) = {format_rational(rows[i][j])} but "
                    f"d({labels[j]},{labels[i]}) = {format_rational(rows[j][i])}",
                    points=[labels[i], labels[j]],
                )
            if rows[i][j] < 0:
                raise NegativeDistance(
                    f"d({labels[i]},{labels[j]}) = {format_rational(rows[i][j])} < 0",
                    points=[labels[i], labels[j]],
                )
            if rows[i][j] == 0:
                raise ZeroOffDiagonal(
                    f"d({labels[i]},{labels[j]}) = 0 for distinct points",
                    points=[labels[i], labels[j]],
                )
    for i in range(n):
        for j in range(i + 1, n):
            dij = rows[i][j]
            for k in range(n):
                if k == i or k == j:
                    continue
                if dij > rows[i][k] and dij > rows[j][k]:
                    raise TriangleViolation(
                        f"d({labels[i]},{labels[j]}) = {format_rational(dij)} > "
                        f"max(d({labels[i]},{labels[k]}), d({labels[k]},{labels[j]})) = "
                        f"max({format_rational(rows[i][k])}, {format_rational(rows[j][k])})",
                        points=[labels[i], labels[j], labels[k]],
                    )
    return Reference(labels, tuple(tuple(row) for row in rows))


def reference_closure(rows):
    """Minimax Floyd-Warshall: min over paths of the largest edge."""
    n = len(rows)
    closure = [row[:] for row in rows]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if i != j:
                    closure[i][j] = min(closure[i][j], max(closure[i][k], closure[k][j]))
    return closure


def reference_single_linkage(labels, matrix) -> Reference:
    """The labels and the row count, then the Fraction metric check (every
    triple), then the minimax closure."""
    labels = tuple(str(l) for l in labels)
    n = len(labels)
    if n == 0:
        raise EmptySpace("a space needs at least one point")
    for k, label in enumerate(labels):
        if label in labels[:k]:
            raise DuplicateLabel(f"label {label!r} appears more than once", label=label)
    if len(matrix) != n:
        raise InputFormat(f"matrix has {len(matrix)} rows for {n} labels")
    ranks, values = rank_entries(matrix)
    rows = [[values[r] for r in row] for row in ranks]
    for i in range(n):
        if rows[i][i] != 0:
            raise NotAMetric(
                f"nonzero diagonal at {labels[i]!r}", kind="diagonal", point=labels[i]
            )
        for j in range(i + 1, n):
            if rows[i][j] != rows[j][i]:
                raise NotAMetric(
                    f"asymmetric at ({labels[i]},{labels[j]})",
                    kind="symmetry",
                    points=[labels[i], labels[j]],
                )
            if rows[i][j] <= 0:
                raise NotAMetric(
                    f"nonpositive distance at ({labels[i]},{labels[j]}); "
                    "merge duplicate points first if the data is dirty",
                    kind="positivity",
                    points=[labels[i], labels[j]],
                )
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                if k != i and k != j and rows[i][j] > rows[i][k] + rows[k][j]:
                    raise NotAMetric(
                        f"triangle inequality fails at ({labels[i]},{labels[j]},{labels[k]})",
                        kind="triangle",
                        points=[labels[i], labels[j], labels[k]],
                    )
    return reference_validate(labels, reference_closure(rows))


def reference_dendrogram(space: UltrametricSpace):
    """Sweep the positive spectrum upward, merging clusters within each value."""
    clusters = [(Leaf(label), i) for i, label in enumerate(space.labels)]
    for t in spectrum(space)[1:]:
        merged = []
        used = [False] * len(clusters)
        for a, (node_a, rep_a) in enumerate(clusters):
            if used[a]:
                continue
            group = [node_a]
            for b in range(a + 1, len(clusters)):
                if not used[b] and space.dist[rep_a][clusters[b][1]] <= t:
                    group.append(clusters[b][0])
                    used[b] = True
            merged.append((Merge(t, tuple(group)) if len(group) > 1 else node_a, rep_a))
        clusters = merged
    return to_dendrogram(from_dendrogram(clusters[0][0]))


def outcome(validate, labels, matrix):
    try:
        space = validate(labels, matrix)
    except UltrametricError as exc:
        return type(exc), exc.payload()
    return space.labels, space.dist


def corrupted(rng: random.Random, space: UltrametricSpace):
    """The space's matrix with 1-3 entries changed (mostly symmetrically)."""
    n = len(space)
    matrix = [list(row) for row in space.dist]
    for _ in range(rng.randint(1, 3)):
        i, j = rng.sample(range(n), 2)
        value = rng.choice(CORRUPTIONS)
        matrix[i][j] = value
        if rng.random() < 0.9:
            matrix[j][i] = value
    return matrix


def test_validation_matches_the_cubic_scan_on_corrupted_spaces():
    rng = random.Random(20240611)
    constraint = spectrum_constraint(VALUES)
    rejected = accepted = 0
    for _ in range(400):
        space = random_space(rng.randint(3, 24), constraint, rng.randrange(10**9))
        matrix = corrupted(rng, space)
        want = outcome(reference_validate, space.labels, matrix)
        assert outcome(validate_ultrametric, space.labels, matrix) == want
        if want[0] is TriangleViolation:
            rejected += 1
        elif isinstance(want[0], tuple):
            accepted += 1
    assert rejected > 200 and accepted > 10


def test_validation_accepts_what_the_cubic_scan_accepts():
    rng = random.Random(7)
    constraint = spectrum_constraint(VALUES)
    for n in [1, 2, 3, 10, 40]:
        space = random_space(n, constraint, rng.randrange(10**9))
        assert outcome(validate_ultrametric, space.labels, space.dist) == (space.labels, space.dist)


def test_single_linkage_matches_floyd_warshall_on_l1_metrics():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randint(1, 18)
        points = rng.sample([(x, y, z) for x in range(6) for y in range(6) for z in range(6)], n)
        rows = [
            [Fraction(sum(abs(a - b) for a, b in zip(p, q))) for q in points] for p in points
        ]
        labels = [f"p{k}" for k in range(n)]
        want = reference_validate(labels, reference_closure(rows))
        got = single_linkage(labels, rows)
        assert (got.labels, got.dist) == (want.labels, want.dist)


def test_dendrogram_json_matches_the_spectrum_sweep():
    rng = random.Random(5)
    spaces = [cauchy_sequence(12)]
    for values in [VALUES, ["0", "1"], ["0", "1/2", "1"]]:
        constraint = spectrum_constraint(values)
        for _ in range(40):
            spaces.append(random_space(rng.randint(1, 30), constraint, rng.randrange(10**9)))
    spaces.extend(closed_quotient(space, "1/4").quotient for space in spaces[:20])
    for space in spaces:
        assert to_dendrogram(space) == reference_dendrogram(space)


def test_block_matrix():
    a = [[0, 1], [1, 0]]
    cross = [[2], [3]]
    out = block_matrix(a, [[0]], cross)
    assert out == [[0, 1, 2], [1, 0, 3], [2, 3, 0]]
    out[0][0] = 9
    assert a == [[0, 1], [1, 0]]
    assert block_matrix([[0]], [], [[]]) == [[0]]


def test_validation_matches_the_cubic_scan_on_mixed_spellings():
    rng = random.Random(31)
    constraint = spectrum_constraint(VALUES)
    codes = set()
    for _ in range(300):
        space = random_space(rng.randint(2, 16), constraint, rng.randrange(10**9))
        n = len(space)
        matrix = respelled(rng, space.dist)
        for _ in range(rng.randint(0, 2)):
            i, j = rng.randrange(n), rng.randrange(n)
            value = rng.choice([Fraction(0), Fraction(-1, 8), Fraction(-1), *CORRUPTIONS])
            matrix[i][j] = rng.choice(spellings(value))
            if rng.random() < 0.7:
                matrix[j][i] = rng.choice(spellings(value))
        want = outcome(reference_validate, space.labels, matrix)
        assert outcome(validate_ultrametric, space.labels, matrix) == want
        codes.add(want[0] if isinstance(want[0], type) else "accepted")
    assert codes == {
        "accepted",
        NonzeroDiagonal,
        NonSymmetric,
        NegativeDistance,
        ZeroOffDiagonal,
        TriangleViolation,
    }


def test_equal_values_get_equal_ranks_whatever_their_spelling():
    half = ["1/2", "0.5", "2/4", Fraction(1, 2), "0.50", "5e-1"]
    row = [0, *half, "1", 1, Fraction(2, 2), "-0", "0/7"]
    for first in (0, "0"):  # the respelling loop, and the one pass
        ranks, values = rank_image([[first, *row[1:]]] * len(row))
        assert values == [0, Fraction(1, 2), 1]
        assert ranks == [[0, 1, 1, 1, 1, 1, 1, 2, 2, 2, 0, 0]] * len(row)
        assert [values[r] for r in ranks[0][1:7]] == [Fraction(1, 2)] * 6


# Spellings in other scripts' digits, which Fraction reads as their values.
NON_ASCII = {Fraction(3): ["３", "٣"], Fraction(1, 2): ["١/٢", "٠.٥"], Fraction(7, 2): ["٣.٥"]}
# Entries that no reader accepts.
UNREADABLE = [True, False, 0.5, [1], ["1/2"], {"1": 1}, None, "x", "1/0", "½", "é", "\ud800", "1_0"]
KINDS = ["strings", "mixed", "ints", "fractions"]
# A bad entry, a short row, rows that are not lists (a string or dict as
# long as the matrix, which iterate as strings) and a tuple row, which reads.
FAULTS = [None, "bad", "short", "str row", "dict row", "tuple row"]


def ranked_matrix(rng: random.Random, kind: str, fault: str | None):
    """A square matrix of rationals spelled as ``kind`` asks, with the fault
    of :data:`FAULTS` that ``fault`` names."""
    n = rng.randint(1, 7)
    denominators = (1,) if kind == "ints" else (1, 2, 4)
    pool = [Fraction(rng.randint(0, 8), rng.choice(denominators)) for _ in range(4)] + [Fraction(3)]
    values = [[rng.choice(pool) for _ in range(n)] for _ in range(n)]
    strings = [[s for s in spellings(v) + NON_ASCII.get(v, []) if type(s) is str] for v in pool]
    if kind == "mixed":
        matrix = respelled(rng, values)
    elif kind == "ints":
        matrix = [[int(v) for v in row] for row in values]
    elif kind == "fractions":
        matrix = values
    else:
        matrix = [[rng.choice(strings[pool.index(v)]) for v in row] for row in values]
    if fault == "bad":
        # One or two bad entries, in different rows when there are two.
        for i in rng.sample(range(n), min(n, rng.randint(1, 2))):
            matrix[i][rng.randrange(n)] = rng.choice(UNREADABLE)
    i = rng.randrange(n)
    if fault == "short":
        del matrix[i][-1]
    elif fault == "str row":
        matrix[i] = "".join(rng.choice("0123") for _ in range(n))
    elif fault == "dict row":
        matrix[i] = dict.fromkeys(map(str, range(n)))
    elif fault == "tuple row":
        matrix[i] = tuple(matrix[i])
    return matrix


def rank_outcome(read, matrix):
    try:
        return read(matrix)
    except (UltrametricError, TypeError) as exc:
        return type(exc), str(exc)


def test_string_matrices_rank_as_the_entry_loop_reads_them():
    rng = random.Random(19)
    seen = set()
    for _ in range(1200):
        kind, fault = rng.choice(KINDS), rng.choice(FAULTS)
        matrix = ranked_matrix(rng, kind, fault)
        want = rank_outcome(rank_entries, matrix)
        assert rank_outcome(rank_image, matrix) == want, (kind, fault, matrix)
        seen.add((kind, fault, isinstance(want[0], type)))
    # Every kind, clean or faulty, is read, and every fault but a tuple row
    # is refused, always.
    assert {(kind, fault) for kind, fault, _ in seen} == {(k, f) for k in KINDS for f in FAULTS}
    assert {fault for _, fault, refused in seen if refused} == {"bad", "short", "str row", "dict row"}
    assert {fault for _, fault, refused in seen if not refused} == {None, "tuple row"}


class Unhashed(Fraction):
    """A Fraction that must not be hashed."""

    def __hash__(self):
        raise AssertionError("a matrix entry was hashed")


def test_a_fraction_matrix_is_read_without_hashing_an_entry():
    # Only rows that each begin with a string go to the set union of
    # spellings, where a Fraction would hash in Python.
    for rows in ([[Unhashed(0), Unhashed(1)], [Unhashed(1), Unhashed(0)]], [["0", "1"], [Unhashed(1), "0"]]):
        assert rank_image(rows) == ([[0, 1], [1, 0]], [0, 1])


def test_a_row_that_is_not_a_list_is_an_input_error():
    labels = ["a", "b"]
    for reader in (validate_ultrametric, single_linkage, merge_duplicate_points):
        # A string, dict or range row has the right length and iterates,
        # but is not a row.
        # A number or None has no length at all.
        for bad in ("01", {"0": 0, "1": 1}, range(2), 5, None):
            with pytest.raises(InputFormat, match="^matrix row 1 is not a list$"):
                reader(labels, [["0", "1"], bad])
        for bad in (["1"], ["1", "0", "2"]):
            with pytest.raises(InputFormat, match=f"^matrix row 1 has {len(bad)} entries, expected 2$"):
                reader(labels, [["0", "1"], bad])
        # The same rows as lists or tuples, of strings, ints or Fractions, read.
        want = reader(labels, [["0", "1"], ["1", "0"]])
        for rows in ([["0", "1"], ("1", "0")], [(0, 1), [1, 0]], [[Fraction(0), 1], (1, Fraction(0))]):
            assert reader(labels, rows) == want


def test_merge_duplicates_reads_every_spelling_of_zero():
    rng = random.Random(8)
    for _ in range(40):
        n = rng.randint(2, 9)
        groups = [rng.randrange(3) for _ in range(n)]
        matrix = [[Fraction(abs(a - b) + (a != b)) for b in groups] for a in groups]
        labels = [f"q{k}" for k in range(n)]
        want = merge_duplicate_points(labels, matrix)
        assert merge_duplicate_points(labels, respelled(rng, matrix)) == want


def reference_merge_duplicates(labels, matrix):
    """Union-find over every pair with a 0 entry in either direction; each
    group keeps its lowest index, and distances are canonical spellings."""
    labels, ranks, values = _coerce_matrix(labels, matrix)
    zero = bisect_left(values, Fraction(0))
    n = len(labels)
    group_of = list(range(n))
    for i in range(n):
        for j in range(i + 1, n):
            if ranks[i][j] == zero or ranks[j][i] == zero:
                ri, rj = find_root(group_of, i), find_root(group_of, j)
                if ri != rj:
                    group_of[max(ri, rj)] = min(ri, rj)
    reps = sorted({find_root(group_of, i) for i in range(n)})
    return [labels[r] for r in reps], [[format_rational(values[ranks[a][b]]) for b in reps] for a in reps]


DIRTY = ["1/4", "1/2", "1", "2", "-1"]
BAD_ENTRIES = ["abc", "1/0", "", 0.5, True, None]


def dirty_matrix(rng: random.Random):
    """Labels and a square matrix whose pairs are 0 both ways, 0 one way only,
    or nonzero (asymmetric now and then, -1 among the values); some
    diagonals are not 0.  Sparse zeros leave chains that only the
    transitive closure joins."""
    n = rng.randint(1, 12)
    zeros = rng.choice([0.1, 0.25, 0.5])
    matrix = [[rng.choice(["0", "0", "1/2"]) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            value = rng.choice(DIRTY)
            forward = backward = value
            if rng.random() < 0.2:
                backward = rng.choice(DIRTY)
            if rng.random() < zeros:
                forward = "0"
                if rng.random() < 0.5:
                    backward = "0"
            if rng.random() < 0.5:
                forward, backward = backward, forward
            matrix[i][j], matrix[j][i] = forward, backward
    return [f"p{k}" for k in range(n)], matrix


def merged_outcome(merge, labels, matrix):
    try:
        return merge(labels, matrix)
    except UltrametricError as exc:
        return type(exc), exc.payload()


def test_merge_duplicates_matches_the_union_find_on_dirty_matrices():
    # d(a,b) = -1 faces d(b,a) = 0, so a and b merge; min(-1, 0) != 0 would miss it.
    labels, matrix = ["a", "b", "c"], [["0", "-1", "1"], ["0", "0", "1"], ["1", "1", "0"]]
    assert merge_duplicate_points(labels, matrix) == (["a", "c"], [["0", "1"], ["1", "0"]])
    assert reference_merge_duplicates(labels, matrix) == (["a", "c"], [["0", "1"], ["1", "0"]])
    rng = random.Random(20261018)
    seen = dict.fromkeys(["one-sided zero", "nontransitive", "negative facing zero", "error"], 0)
    for _ in range(800):
        labels, matrix = dirty_matrix(rng)
        n = len(labels)
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        linked = {(i, j) for i, j in pairs if "0" in (matrix[i][j], matrix[j][i])}
        seen["one-sided zero"] += any(matrix[i][j] != matrix[j][i] for i, j in linked)
        seen["negative facing zero"] += any(matrix[i][j] == "-1" for i, j in linked)
        seen["nontransitive"] += any(
            (i, k) in linked and (k, j) in linked and (i, j) not in linked
            for i, j in pairs
            for k in range(n)
        )
        if rng.random() < 0.5:
            matrix = respelled(rng, matrix)
        roll = rng.random()
        if roll < 0.1:
            matrix[rng.randrange(n)][rng.randrange(n)] = rng.choice(BAD_ENTRIES)
        elif roll < 0.13:
            matrix[rng.randrange(n)].pop()
        elif roll < 0.15 and n > 1:
            labels[rng.randrange(1, n)] = labels[0]
        want = merged_outcome(reference_merge_duplicates, labels, matrix)
        assert merged_outcome(merge_duplicate_points, labels, matrix) == want
        seen["error"] += isinstance(want[0], type)
    assert min(seen.values()) > 40, seen


def l1_rational_metric(rng: random.Random, n: int, denominators):
    """L1 distances between distinct grid points with rational coordinates.

    Points on a common axis-parallel line give triangles with equality, the
    tightest case for an approximate integer check.
    """
    points = set()
    while len(points) < n:
        points.add(tuple(Fraction(rng.randrange(4 * q), q) for q in denominators))
    points = sorted(points)
    rng.shuffle(points)
    return [[sum(abs(a - b) for a, b in zip(p, r)) for r in points] for p in points]


def planted(rng: random.Random, rows, pair, epsilon):
    """Break the triangle inequality at ``pair``: raise it just past its
    shortest two-step path, or lower it to ``epsilon``."""
    a, b = pair
    rows = [row[:] for row in rows]
    if rng.random() < 0.6:
        detour = min(rows[a][k] + rows[k][b] for k in range(len(rows)) if k not in pair)
        rows[a][b] = rows[b][a] = detour + epsilon
    else:
        rows[a][b] = rows[b][a] = epsilon
    return rows


def test_single_linkage_matches_the_fraction_scan_on_tight_rational_metrics():
    rng = random.Random(2718)
    huge = [10**30 + 7, 10**31 + 3]  # lcm beyond SCALE_BITS: the rounded image
    assert (huge[0] * huge[1]).bit_length() > SCALE_BITS
    seen = set()
    for denominators, epsilon in [
        ((3, 3, 1), Fraction(1, 3)),
        ((7, 7, 1), Fraction(1, 7)),
        ((3, 7, 1), Fraction(1, 21)),
        ((huge[0], huge[1], 1), Fraction(1, 10**80)),
    ]:
        for _ in range(12):
            n = rng.randint(3, 14)
            rows = l1_rational_metric(rng, n, denominators)
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            for pair in [None, pairs[0], pairs[len(pairs) // 2], pairs[-1]]:
                matrix = rows if pair is None else planted(rng, rows, pair, epsilon)
                labels = [f"p{k}" for k in range(n)]
                want = outcome(reference_single_linkage, labels, matrix)
                got = outcome(single_linkage, labels, respelled(rng, matrix))
                assert got == want
                seen.add(want[1]["kind"] if isinstance(want[0], type) else "accepted")
    assert seen == {"accepted", "triangle"}


def test_single_linkage_matches_the_fraction_scan_on_metric_defects():
    rng = random.Random(4)
    for _ in range(60):
        n = rng.randint(2, 10)
        rows = l1_rational_metric(rng, n, (3, 7))
        i, j = rng.randrange(n), rng.randrange(n)
        rows[i][j] = rng.choice([Fraction(0), Fraction(-1, 3), Fraction(5, 7), rows[j][i]])
        labels = [f"p{k}" for k in range(n)]
        want = outcome(reference_single_linkage, labels, rows)
        assert outcome(single_linkage, labels, respelled(rng, rows)) == want


def test_single_linkage_on_long_distinct_denominators():
    """Every value has its own ~200-digit denominator, so the lcm of the
    denominators has thousands of digits; the scaled image must not use it."""
    rng = random.Random(1770)
    n = 16
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            q = rng.randrange(10**199, 10**200)
            rows[i][j] = rows[j][i] = 1 + Fraction(rng.randrange(q // 2), q)
    labels = [f"p{k}" for k in range(n)]
    want = outcome(reference_single_linkage, labels, rows)
    assert isinstance(want[0], tuple)
    text = [[format_rational(v) for v in row] for row in rows]
    assert outcome(single_linkage, labels, text) == want


def test_single_linkage_reports_repeated_labels_before_metric_faults():
    rng = random.Random(2719)
    seen = set()
    for _ in range(60):
        n = rng.randint(3, 10)
        rows = l1_rational_metric(rng, n, (3, 7))
        distinct = [f"p{k}" for k in range(n)]
        labels = distinct[:]
        i, j = rng.sample(range(n), 2)
        labels[j] = labels[i]
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for matrix in (rows, planted(rng, rows, rng.choice(pairs), Fraction(1, 21))):
            want = outcome(reference_single_linkage, labels, matrix)
            assert want[0] is DuplicateLabel
            assert outcome(single_linkage, labels, respelled(rng, matrix)) == want
            # What the same matrix gives under distinct labels.
            unique = outcome(single_linkage, distinct, matrix)
            seen.add(unique[1]["kind"] if isinstance(unique[0], type) else "ok")
    assert seen == {"ok", "triangle"}, seen
