"""Finite ultrametric spaces with exact rational distances.

A space is a tuple of distinct point labels plus a symmetric matrix of
Fractions satisfying the strong triangle inequality
``d(x,y) <= max(d(x,z), d(z,y))``.  It is stored as its spectrum ``values``
(sorted distinct distances, 0 first) and the matrix ``ranks`` of positions in
``values``; ranks compare as the distances do, so code that only compares
reads them.  :func:`validate_ultrametric` checks the axioms and is the only
place a space is built; everything downstream assumes it ran.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import (
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
from .rationals import as_rational, format_rational

ZERO = Fraction(0)


@dataclass(frozen=True)
class UltrametricSpace:
    """Immutable finite ultrametric space; ``d(i, j)`` is ``values[ranks[i][j]]``."""

    labels: tuple[str, ...]
    values: tuple[Fraction, ...]
    ranks: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.labels)

    @cached_property
    def dist(self) -> tuple[tuple[Fraction, ...], ...]:
        """The distance matrix as Fractions."""
        return tuple(tuple(map(self.values.__getitem__, row)) for row in self.ranks)

    @cached_property
    def _index(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.labels)}

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownLabel(f"point {label!r} is not in the space", label=label) from None

    def d(self, a: str, b: str) -> Fraction:
        """Distance between two points given by label."""
        return self.values[self.ranks[self.index(a)][self.index(b)]]

    def diameter(self) -> Fraction:
        return self.values[-1]

    def min_positive_distance(self) -> Fraction | None:
        """Smallest nonzero distance, or None for a one-point space."""
        return self.values[1] if len(self.values) > 1 else None

    def __repr__(self) -> str:  # compact, matrix omitted
        return f"UltrametricSpace({len(self)} points: {', '.join(self.labels[:6])}{'...' if len(self) > 6 else ''})"


def rank_image(matrix, width: int | None = None) -> tuple[list[list[int]], list[Fraction]]:
    """A matrix as integer ranks of its exact values.

    Returns ``(ranks, values)``: ``values`` holds the sorted distinct values
    with 0 always among them, and ``ranks[i][j]`` is the position of entry
    ``(i, j)`` in it.  Equal values get equal ranks however they are spelled,
    so ranks compare as the values do.  Each distinct spelling or value is
    parsed once and numbered by a provisional id, which one sort of the
    distinct values remaps to its rank.  Entries are read in row-major order
    and the first bad one raises; with ``width`` given, a row's length is
    checked before its entries are read.
    """
    # A string is keyed by its spelling, anything else by its reduced value.
    ids: dict = {(0, 1): 0}
    parsed = [ZERO]
    id_rows = []
    for i, row in enumerate(matrix):
        if width is not None and len(row) != width:
            raise InputFormat(f"matrix row {i} has {len(row)} entries, expected {width}")
        id_row = []
        for v in row:
            if type(v) is str:
                key = v
            else:
                value = v if type(v) is Fraction else as_rational(v)
                key = (value.numerator, value.denominator)
            pid = ids.get(key)
            if pid is None:
                pid = ids[key] = len(parsed)
                # A string is parsed here only, so its first bad spelling raises.
                parsed.append(as_rational(v) if type(v) is str else value)
            id_row.append(pid)
        id_rows.append(id_row)
    values = sorted(set(parsed))
    position = {v: r for r, v in enumerate(values)}
    rank_of = [position[v] for v in parsed]
    return [list(map(rank_of.__getitem__, id_row)) for id_row in id_rows], values


def _coerce_matrix(labels, matrix) -> tuple[tuple[str, ...], list[list[int]], list[Fraction]]:
    """Labels as strings plus :func:`rank_image` of the matrix, shape checked."""
    labels = tuple(str(l) for l in labels)
    n = len(labels)
    if n == 0:
        raise EmptySpace("a space needs at least one point")
    seen = set()
    for label in labels:
        if label in seen:
            raise DuplicateLabel(f"label {label!r} appears more than once", label=label)
        seen.add(label)
    if len(matrix) != n:
        raise InputFormat(f"matrix has {len(matrix)} rows for {n} labels")
    return (labels, *rank_image(matrix, n))


def minimum_spanning_tree(ranks) -> list[tuple[int, int, int]]:
    """Prim's tree of a symmetric matrix of ranks, grown from point 0.

    Returns ``(parent, child, weight)`` edges in the order the children
    joined, so every parent is point 0 or an earlier child.
    """
    weight = list(ranks[0])
    source = [0] * len(ranks)
    left = list(range(1, len(ranks)))
    edges = []
    while left:
        child = min(left, key=weight.__getitem__)
        left.remove(child)
        edges.append((source[child], child, weight[child]))
        row = ranks[child]
        for k in left:
            if row[k] < weight[k]:
                weight[k] = row[k]
                source[k] = child
    return edges


def subdominant(ranks) -> list[list[int]]:
    """Largest ultrametric below a symmetric matrix of ranks (single linkage).

    Entry ``(x, y)`` is the largest edge on the tree path from x to y; each
    child's row copies its parent's, raised to the joining edge: O(n^2).  The
    diagonal is kept from ``ranks``.
    """
    sub = [list(row) for row in ranks]
    joined = [0]
    for parent, child, weight in minimum_spanning_tree(ranks):
        sub_parent, sub_child = sub[parent], sub[child]
        for k in joined:
            sub_child[k] = sub[k][child] = max(sub_parent[k], weight)
        joined.append(child)
    return sub


def find_root(parent: list[int], i: int) -> int:
    """Union-find root of ``i``, halving the path on the way."""
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


def block_matrix(a, b, cross) -> list[list[Fraction]]:
    """The square matrix ``[[a, cross], [cross^T, b]]`` as fresh rows."""
    top = [[*row_a, *row_c] for row_a, row_c in zip(a, cross)]
    bottom = [[row_c[j] for row_c in cross] + list(row_b) for j, row_b in enumerate(b)]
    return top + bottom


def validate_ultrametric(labels, matrix) -> UltrametricSpace:
    """Check every axiom and return the validated space.

    Raises a structured error naming the first violated axiom together with
    the witnessing points; the scan order (diagonal, symmetry, positivity,
    strong triangle over ascending index triples) is deterministic.  The
    matrix is ultrametric iff it equals its subdominant ultrametric, so the
    triple scan only visits pairs where the two differ: accepting costs
    O(n^2).  Every check compares the integer ranks of :func:`rank_image`,
    which the returned space keeps.
    """
    labels, ranks, values = _coerce_matrix(labels, matrix)
    zero = bisect_left(values, ZERO)
    n = len(labels)

    def text(i, j):
        return format_rational(values[ranks[i][j]])

    for i in range(n):
        if ranks[i][i] != zero:
            raise NonzeroDiagonal(
                f"d({labels[i]},{labels[i]}) = {text(i, i)}, expected 0",
                point=labels[i],
            )
    for i in range(n):
        rank_i = ranks[i]
        for j in range(i + 1, n):
            r = rank_i[j]
            if r != ranks[j][i]:
                raise NonSymmetric(
                    f"d({labels[i]},{labels[j]}) = {text(i, j)} but "
                    f"d({labels[j]},{labels[i]}) = {text(j, i)}",
                    points=[labels[i], labels[j]],
                )
            if r < zero:
                raise NegativeDistance(
                    f"d({labels[i]},{labels[j]}) = {text(i, j)} < 0",
                    points=[labels[i], labels[j]],
                )
            if r == zero:
                raise ZeroOffDiagonal(
                    f"d({labels[i]},{labels[j]}) = 0 for distinct points",
                    points=[labels[i], labels[j]],
                )
    sub = subdominant(ranks)
    for i in range(n):
        rank_i = ranks[i]
        sub_i = sub[i]
        for j in range(i + 1, n):
            dij = rank_i[j]
            # A violating k forces dij > max(d(i,k), d(k,j)) >= sub(i,j).
            if dij == sub_i[j]:
                continue
            rank_j = ranks[j]
            for k in range(n):
                if k == i or k == j:
                    continue
                if dij > rank_i[k] and dij > rank_j[k]:
                    raise TriangleViolation(
                        f"d({labels[i]},{labels[j]}) = {text(i, j)} > "
                        f"max(d({labels[i]},{labels[k]}), d({labels[k]},{labels[j]})) = "
                        f"max({text(i, k)}, {text(j, k)})",
                        points=[labels[i], labels[j], labels[k]],
                    )
    return UltrametricSpace(labels, tuple(values), tuple(map(tuple, ranks)))


def merge_duplicate_points(labels, matrix) -> tuple[list[str], list[list[Fraction]]]:
    """Collapse groups of points at mutual distance 0, keeping first labels.

    Preprocessing for dirty data: validation rejects zero off-diagonal entries,
    so callers opt into this merge explicitly.  Groups are the connected
    components of the d=0 relation (closure taken in case the input is not
    even transitive); distances between groups are read off the first member
    of each group.
    """
    labels, ranks, values = _coerce_matrix(labels, matrix)
    zero = bisect_left(values, ZERO)
    n = len(labels)
    group_of = list(range(n))
    for i in range(n):
        for j in range(i + 1, n):
            if ranks[i][j] == zero or ranks[j][i] == zero:
                ri, rj = find_root(group_of, i), find_root(group_of, j)
                if ri != rj:
                    group_of[max(ri, rj)] = min(ri, rj)
    reps = sorted({find_root(group_of, i) for i in range(n)})
    merged_labels = [labels[r] for r in reps]
    merged = [[values[ranks[a][b]] for b in reps] for a in reps]
    return merged_labels, merged


def spectrum(space: UltrametricSpace) -> tuple[Fraction, ...]:
    """Sorted distinct distance values; always starts with 0."""
    return space.values


@dataclass(frozen=True)
class QuotientSpace:
    """Closed-ball quotient of a space at a given scale.

    ``blocks[k]`` lists the source labels merged into quotient point ``k``;
    the quotient reuses each block's first source label.  All quotient
    distances exceed the scale.
    """

    source: UltrametricSpace
    scale: Fraction
    blocks: tuple[tuple[str, ...], ...]
    quotient: UltrametricSpace


def closed_quotient(space: UltrametricSpace, t) -> QuotientSpace:
    """Collapse closed balls of radius ``t``.

    ``d(x,y) <= t`` is an equivalence relation on an ultrametric space, so the
    blocks are simply the closed balls; block distances are the (well-defined)
    source distances between representatives.  ``d(x,y) <= t`` holds exactly
    when the rank of ``d(x,y)`` is below ``bisect_right(values, t)``.
    """
    t = as_rational(t)
    if t < 0:
        raise InvalidParameter(f"scale must be >= 0, got {format_rational(t)}")
    ranks, values = space.ranks, space.values
    cut = bisect_right(values, t)
    n = len(space)
    assigned = [False] * n
    block_indices: list[list[int]] = []
    for i in range(n):
        if assigned[i]:
            continue
        members = [j for j in range(n) if not assigned[j] and ranks[i][j] < cut]
        for j in members:
            assigned[j] = True
        block_indices.append(members)
    reps = [members[0] for members in block_indices]
    labels = tuple(space.labels[r] for r in reps)
    matrix = [[values[ranks[a][b]] for b in reps] for a in reps]
    blocks = tuple(tuple(space.labels[j] for j in members) for members in block_indices)
    return QuotientSpace(space, t, blocks, validate_ultrametric(labels, matrix))
