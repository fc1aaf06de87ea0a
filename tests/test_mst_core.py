"""Differential tests for the minimum-spanning-tree core.

Validation, single linkage and dendrogram construction all read the
subdominant ultrametric off one Prim tree.  The reference functions below are
the cubic algorithms they replaced: the full triple scan, the minimax
Floyd-Warshall closure and the spectrum sweep.  Seeded inputs must give
identical results, including identical error payloads.
"""

from __future__ import annotations

import random
from fractions import Fraction

from ultrametric import (
    Leaf,
    Merge,
    cauchy_sequence,
    canonicalize,
    closed_quotient,
    random_space,
    single_linkage,
    spectrum,
    spectrum_constraint,
    to_dendrogram,
    validate_ultrametric,
)
from ultrametric.errors import (
    NegativeDistance,
    NonSymmetric,
    NonzeroDiagonal,
    TriangleViolation,
    UltrametricError,
    ZeroOffDiagonal,
)
from ultrametric.jsonio import dendrogram_to_obj, dumps
from ultrametric.rationals import as_rational, format_rational
from ultrametric.spaces import UltrametricSpace, block_matrix

VALUES = ["0", "1/8", "1/4", "3/8", "1/2", "1"]
CORRUPTIONS = [Fraction(v) for v in ["1/16", "1/8", "3/16", "1/4", "3/8", "1/2", "3/4", "1", "2"]]


def reference_validate(labels, matrix) -> UltrametricSpace:
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
    return UltrametricSpace(labels, tuple(tuple(row) for row in rows))


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
    return canonicalize(clusters[0][0])


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
        want = dumps(dendrogram_to_obj(reference_dendrogram(space)))
        assert dumps(dendrogram_to_obj(to_dendrogram(space))) == want


def test_block_matrix():
    a = [[0, 1], [1, 0]]
    cross = [[2], [3]]
    out = block_matrix(a, [[0]], cross)
    assert out == [[0, 1, 2], [1, 0, 3], [2, 3, 0]]
    out[0][0] = 9
    assert a == [[0, 1], [1, 0]]
    assert block_matrix([[0]], [], [[]]) == [[0]]
