"""Finite ultrametric spaces with exact rational distances.

A space is a tuple of distinct point labels plus a symmetric matrix of
Fractions satisfying the strong triangle inequality
``d(x,y) <= max(d(x,z), d(z,y))``.  It is stored as its spectrum ``values``
(sorted distinct distances, 0 first) and the matrix ``ranks`` of positions in
``values``; ranks compare as the distances do, so code that only compares
reads them.  A space is built in one of two places, which share one axiom
checker: :func:`validate_ultrametric` parses a matrix, and
:func:`space_from_ranks` takes the ranks that constructions on validated
spaces assemble over their merged spectrum.  Everything downstream assumes
the checker ran.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cached_property
from operator import itemgetter

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


class Record:
    """Base of the library's immutable records, built positionally.

    A subclass's fields are its own annotations, in order.  Equality, hash
    and repr are those of a frozen dataclass with the same fields: equal only
    to the same class, hashed as the tuple of field values.  Instances keep a
    ``__dict__``, so ``cached_property`` works on them.
    """

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *values):
        fields = self._fields
        if len(values) != len(fields):
            raise TypeError(f"{type(self).__name__} takes {len(fields)} fields, got {len(values)}")
        self.__dict__.update(zip(fields, values))

    def _astuple(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class UltrametricSpace(Record):
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


def _check_labels(labels) -> tuple[str, ...]:
    """Labels as strings; raises on an empty or repeated one."""
    labels = tuple(str(l) for l in labels)
    if not labels:
        raise EmptySpace("a space needs at least one point")
    seen = set()
    for label in labels:
        if label in seen:
            raise DuplicateLabel(f"label {label!r} appears more than once", label=label)
        seen.add(label)
    return labels


def _coerce_matrix(labels, matrix) -> tuple[tuple[str, ...], list[list[int]], list[Fraction]]:
    """Labels as strings plus :func:`rank_image` of the matrix, shape checked."""
    labels = _check_labels(labels)
    n = len(labels)
    if len(matrix) != n:
        raise InputFormat(f"matrix has {len(matrix)} rows for {n} labels")
    return (labels, *rank_image(matrix, n))


def merged_spectrum(*spectra) -> tuple[list[Fraction], list[list[int]]]:
    """The sorted union of some value lists, and per list the table taking
    a rank in it to the rank of the same value in the union."""
    values = sorted(set().union(*spectra))
    position = {v: r for r, v in enumerate(values)}
    return values, [[position[v] for v in spectrum] for spectrum in spectra]


def remap(ranks, table) -> list[list[int]]:
    """A matrix of ranks rewritten through a rank table."""
    return [list(map(table.__getitem__, row)) for row in ranks]


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


def subdominant(ranks) -> tuple[tuple[int, ...], ...]:
    """Largest ultrametric below a symmetric matrix of ranks (single linkage).

    Joining clusters along :func:`minimum_spanning_tree`'s edges in
    increasing weight, every pair across a join gets the edge's weight; the
    diagonal is kept from ``ranks``.  Each cluster stays one run of the final
    member order, so in that order a join writes each row of its smaller,
    later side as one slice over the earlier side: O(n log n) loop steps for
    the O(n^2) entries below the diagonal, which are then mirrored and put
    back in point order.
    """
    n = len(ranks)
    if n == 1:
        return (tuple(ranks[0]),)
    root = list(range(n))
    members = [[i] for i in root]
    joins = []
    for a, b, weight in sorted(minimum_spanning_tree(ranks), key=itemgetter(2)):
        a, b = find_root(root, a), find_root(root, b)
        if len(members[a]) < len(members[b]):
            a, b = b, a
        joins.append((members[a][0], len(members[a]), len(members[b]), weight))
        members[a] += members[b]
        root[b] = a
    order = members[find_root(root, 0)]
    position = [0] * n
    for p, i in enumerate(order):
        position[i] = p
    lower = [[ranks[i][i]] * n for i in order]
    for first, size, extra, weight in joins:
        start = position[first]
        across = [weight] * size
        for row in lower[start + size : start + size + extra]:
            row[start : start + size] = across
    columns = list(zip(*lower))
    in_point_order = itemgetter(*position)
    return tuple(in_point_order(lower[p][: p + 1] + list(columns[p][p + 1 :])) for p in position)


def find_root(parent: list[int], i: int) -> int:
    """Union-find root of ``i``, halving the path on the way."""
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


def block_matrix(a, b, cross) -> list[list]:
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
    return _check_axioms(*_coerce_matrix(labels, matrix))


def space_from_ranks(labels, ranks, values) -> UltrametricSpace:
    """:func:`validate_ultrametric` for a matrix already given as ranks.

    ``values`` must be sorted, distinct and hold 0, as a merged spectrum is;
    ``ranks[i][j]`` indexes it.  Builders that combine validated spaces hand
    over ranks, so no entry is parsed again.  Values no entry uses are
    dropped first, so the space's values are exactly its spectrum.  The
    labels and every axiom are checked as :func:`validate_ultrametric`
    checks them, with the same errors in the same order.
    """
    labels = _check_labels(labels)
    used = sorted(set().union(*ranks))
    if len(used) < len(values):
        table = dict(zip(used, range(len(used))))
        ranks = remap(ranks, table)
        values = [values[r] for r in used]
    return _check_axioms(labels, ranks, values)


def _check_axioms(labels, ranks, values) -> UltrametricSpace:
    """The space of checked labels and a matrix of ranks into ``values``, or
    the first axiom it violates.  Clean rows skip the pair loops."""
    rows = tuple(map(tuple, ranks))
    zero = bisect_left(values, ZERO)
    n = len(labels)

    def text(i, j):
        return format_rational(values[rows[i][j]])

    for i in range(n):
        if rows[i][i] != zero:
            raise NonzeroDiagonal(
                f"d({labels[i]},{labels[i]}) = {text(i, i)}, expected 0",
                point=labels[i],
            )
    # With a zero diagonal, a symmetric matrix whose rows hold no negative
    # value and one zero each passes the pair loop below.
    clean = rows == tuple(zip(*rows)) and all(
        row.count(zero) == 1 and min(row) >= zero for row in rows
    )
    for i in range(0 if clean else n):
        rank_i = rows[i]
        for j in range(i + 1, n):
            r = rank_i[j]
            if r != rows[j][i]:
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
    sub = subdominant(rows)
    for i in range(0 if sub == rows else n):
        rank_i = rows[i]
        sub_i = sub[i]
        for j in range(i + 1, n):
            dij = rank_i[j]
            # A violating k forces dij > max(d(i,k), d(k,j)) >= sub(i,j).
            if dij == sub_i[j]:
                continue
            rank_j = rows[j]
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
    return UltrametricSpace(labels, tuple(values), rows)


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


class QuotientSpace(Record):
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
    matrix = [[ranks[a][b] for b in reps] for a in reps]
    blocks = tuple(tuple(space.labels[j] for j in members) for members in block_indices)
    return QuotientSpace(space, t, blocks, space_from_ranks(labels, matrix, values))
