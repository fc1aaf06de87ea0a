"""Finite ultrametric spaces with exact rational distances.

A space is a tuple of distinct point labels plus a symmetric matrix of
Fractions satisfying the strong triangle inequality
``d(x,y) <= max(d(x,z), d(z,y))``.  It is stored as its spectrum ``values``
(sorted distinct distances, 0 first) and the matrix ``ranks`` of positions in
``values``; ranks compare as the distances do, so code that only compares
reads them.  The axioms are checked where a matrix enters from outside, by
:func:`validate_ultrametric` (and by ``verify_certificate`` for a
caller-supplied certificate), and nowhere else; labels are checked where
they enter, as the axioms are.  A hand-built :class:`UltrametricSpace` is
therefore unchecked.  A hierarchy takes one form here: a point order and the
gaps between neighbours, ``d = max(gaps between)``, kept as ``_chain``.  A
validated space keeps Prim's visit order and join keys (:func:`chain_order`),
which its triangle check used, and its closed balls are runs of that chain
(:func:`chain_runs`).  This module reads, checks and measures spaces, and
holds what a job whose input reads and checks runs, with the merge of points
at distance 0 that ``--merge-duplicates`` asks for
(:func:`merge_duplicate_points`): it reads a matrix as validation does and
groups points with :func:`chain_order`.  The code that builds a
space from a chain or from other spaces is in :mod:`ultrametric.builders`,
which a job that only reads does not load; the code that names a rejected
matrix's fault, or respells entries that are not canonical strings, is in
:mod:`ultrametric.faults`, which only such a matrix loads.
"""

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cached_property
from operator import itemgetter

from . import _forward
from .errors import DuplicateLabel, EmptySpace, InputFormat, UltrametricError, UnknownLabel
from .rationals import format_rational, parse_rational

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

    @cached_property
    def _chain(self) -> tuple[list[int], list[int]]:
        return chain_order(self.ranks)

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


def rank_image(matrix) -> tuple[list[list[int]], list[Fraction]]:
    """A square matrix as integer ranks of its exact values.

    Returns ``(ranks, values)``: ``values`` holds the sorted distinct values
    with 0 always among them, and ``ranks[i][j]`` is the position of entry
    ``(i, j)`` in it.  Equal values get equal ranks however they are spelled,
    so ranks compare as the values do.  Each row must be a list or tuple as
    long as the matrix; rows are read in order, a row's length before its
    entries, and the first bad row or entry raises.

    One pass reads a matrix of well-formed rational strings, as JSON input
    is, at C speed: each distinct spelling is parsed once, one sort of the
    spellings by value numbers equal values alike by comparing neighbours,
    so no Fraction is hashed, and each row is read with one ``map``.  Any
    other matrix is first rewritten by
    :func:`ultrametric.faults._canonical_spellings`, which names its first
    bad row or entry: an int then costs one ``str`` in C, a Fraction one
    ``str`` in Python.
    """
    try:
        for row in matrix:
            # One guard per row; its first entry keeps a Fraction matrix out
            # of the union, which would hash each Fraction in Python.
            if not isinstance(row, (list, tuple)) or len(row) != len(matrix) or type(row[0]) is not str:
                raise TypeError  # respelled below, which names a bad row
        spellings = list({"0"}.union(*matrix))  # "0" puts 0 among the values
        parsed = list(map(parse_rational, spellings))
    except (TypeError, UltrametricError):
        from .faults import _canonical_spellings

        # Canonical spellings always read, so this recurses once.
        return rank_image(_canonical_spellings(matrix))
    values = []
    rank = {}
    for k in sorted(range(len(parsed)), key=parsed.__getitem__):
        if not values or parsed[k] != values[-1]:
            values.append(parsed[k])
        rank[spellings[k]] = len(values) - 1
    return [list(map(rank.__getitem__, row)) for row in matrix], values


def _check_labels(labels) -> tuple[str, ...]:
    """Labels as strings; raises on a string, or an empty or repeated label."""
    if isinstance(labels, str):
        raise InputFormat("labels must be a list, not a string")
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
    return (labels, *rank_image(matrix))


def chain_order(ranks) -> tuple[list[int], list[int]]:
    """Single linkage's point order and the gaps between neighbours in it.

    One pass of Prim's algorithm over a symmetric matrix of ranks, grown from
    point 0: the order is the visit order and each gap is the key its right
    point joined at, so the subdominant ultrametric of ``ranks`` between the
    points at positions ``p < q`` is ``max(gaps[p:q])``.  At the largest
    join between them the tree held the first point but not the second, and
    that key was the lightest edge leaving the tree, so every path between
    them has an edge at least that heavy.  Conversely, by induction on ``q``,
    each point hangs off an earlier one at its key, and every key taken while
    it waited was at most that key.  Among equal keys the lowest index joins.
    """
    weight = list(ranks[0])
    left = list(range(1, len(ranks)))
    order = [0]
    while left:
        point = min(left, key=weight.__getitem__)
        left.remove(point)
        order.append(point)
        row = ranks[point]
        for k in left:
            if row[k] < weight[k]:
                weight[k] = row[k]
    return order, [weight[p] for p in order[1:]]


def merge_duplicate_points(labels, matrix) -> tuple[list[str], list[list[str]]]:
    """Collapse groups of points at mutual distance 0, keeping first labels.

    Groups are the connected components of the d=0 relation read in either
    direction: the zero-gap runs of :func:`chain_order` on "neither entry is
    0".  A run starts when every key left is 1, so at its lowest point, and
    runs start in index order; distances between groups are read off these
    first members, in canonical spellings, so the merged matrix reads as a
    JSON input does.
    """
    labels, ranks, values = _coerce_matrix(labels, matrix)
    zero = bisect_left(values, ZERO)
    apart = [[True] * len(labels) for _ in labels]
    for i, row in enumerate(ranks):
        j = -1
        for _ in range(row.count(zero)):
            j = row.index(zero, j + 1)
            apart[i][j] = apart[j][i] = False
    order, gaps = chain_order(apart)
    reps = [0, *(point for point, gap in zip(order[1:], gaps) if gap)]
    merged_labels = [labels[r] for r in reps]
    text = [format_rational(v) for v in values]
    merged = [[text[ranks[a][b]] for b in reps] for a in reps]
    return merged_labels, merged


def chain_ranks(order, gaps) -> tuple[tuple[int, ...], ...]:
    """The matrix of a chain over the points ``0..n-1``, in point order:
    rank 0 on the diagonal and ``max(gaps[p:q])`` between the points at
    chain positions ``p < q``.

    Joins neighbouring runs in increasing gap order, writing each row of the
    right run as one slice over the left run, then mirrors the lower triangle:
    column ``p`` is read before row ``p`` changes, from rows not changed yet.
    A chain in the order ``0..n-1`` is in point order already.
    """
    n = len(order)
    lower = [[0] * n for _ in range(n)]
    first = list(range(n))  # at each run's last position, its first
    last = first[:]  # at each run's first position, its last
    for k in sorted(range(len(gaps)), key=gaps.__getitem__):
        start, end = first[k], last[k + 1]
        across = [gaps[k]] * (k + 1 - start)
        for row in lower[k + 1 : end + 1]:
            row[start : k + 1] = across
        first[end], last[start] = start, end
    for p, column in enumerate(zip(*lower)):
        lower[p][p + 1 :] = column[p + 1 :]
    if list(order) == list(range(n)):
        return tuple(map(tuple, lower))
    position = sorted(range(n), key=order.__getitem__)
    in_point_order = itemgetter(*position)
    return tuple(in_point_order(lower[p]) for p in position)


def validate_ultrametric(labels, matrix) -> UltrametricSpace:
    """Check every axiom and return the validated space.

    Raises a structured error naming the first violated axiom together with
    the witnessing points; the scan order (diagonal, symmetry, positivity,
    strong triangle over ascending index triples) is deterministic.  The
    matrix is ultrametric iff it equals its subdominant ultrametric, so the
    triple scan only visits pairs where the two differ: accepting costs
    O(n^2).  Every check compares the integer ranks of :func:`rank_image`,
    which the returned space keeps, with the chain of the subdominant.
    """
    return _check_axioms(*_coerce_matrix(labels, matrix))


def _check_axioms(labels, ranks, values) -> UltrametricSpace:
    """The space of checked labels and a matrix of ranks into ``values``, or
    the first axiom it violates.  One compare decides: a matrix with no
    negative value that equals its subdominant, rank 0 on the diagonal, and
    has only positive gaps in its chain is accepted; only another loads the
    scans of :func:`ultrametric.faults.first_fault`, which name its fault."""
    rows = tuple(map(tuple, ranks))
    space = UltrametricSpace(labels, tuple(values), rows)
    sub = chain_ranks(*space._chain)
    # The subdominant is symmetric with a zero diagonal, and positive gaps
    # keep points apart.
    if values[0] == 0 and sub == rows and all(space._chain[1]):
        return space
    from .faults import first_fault

    raise first_fault(labels, rows, values, sub)


def spectrum(space: UltrametricSpace) -> tuple[Fraction, ...]:
    """Sorted distinct distance values; always starts with 0."""
    return space.values


def chain_runs(space: UltrametricSpace, t) -> tuple[list[list[int]], list[int]]:
    """The runs of the space's chain order cut at every gap above ``t`` (rank
    at least ``bisect_right(values, t)``), and those gaps, in chain order.

    Along the chain ``d = max(gaps between)``: the runs are the closed balls
    of radius ``t``, and two runs lie at the largest cut gap between them.
    """
    order, gaps = space._chain
    cut = bisect_right(space.values, t)
    bounds = [0, *(p for p, gap in enumerate(gaps, 1) if gap >= cut), len(order)]
    return [order[a:b] for a, b in zip(bounds, bounds[1:])], [gap for gap in gaps if gap >= cut]


def closed_balls(space: UltrametricSpace, t) -> list[list[int]]:
    """Index lists of the closed balls of radius ``t`` (:func:`chain_runs`),
    ordered by first index; ``d <= t`` is an equivalence relation."""
    return sorted(map(sorted, chain_runs(space, t)[0]))


# perfbench/replay.py, kept unchanged, still imports this from here.
__getattr__ = _forward(__name__, {"closed_quotient": "builders"})
