"""Finite ultrametric spaces with exact rational distances.

A space is a tuple of distinct point labels plus a symmetric matrix of
Fractions satisfying the strong triangle inequality
``d(x,y) <= max(d(x,z), d(z,y))``.  It is stored as its spectrum ``values``
(sorted distinct distances, 0 first) and the matrix ``ranks`` of positions in
``values``; ranks compare as the distances do, so code that only compares
reads them.  The axioms are checked where a matrix enters from outside, by
:func:`validate_ultrametric` (and by ``verify_certificate`` for a
caller-supplied certificate), and nowhere else.  Constructions on spaces
assemble ranks over their merged spectrum and hand them to
:func:`space_from_ranks`, which only checks labels: each construction is
ultrametric by the proof in its docstring.  A hand-built
:class:`UltrametricSpace` is therefore unchecked.  A hierarchy leaves this
module in one form: a point order and the gaps between neighbours,
``d = max(gaps between)``, which are Prim's visit order and join keys
(:func:`chain_order`), computed once per space as ``_chain``; a validated
space keeps the chain its triangle check used.  A builder that knows its
hierarchy hands it over in the same form, to :func:`space_from_chain`.
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
    UltrametricError,
    UnknownLabel,
    ZeroOffDiagonal,
)
from .rationals import as_rational, format_rational, parse_rational

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


def rank_image(matrix, width: int | None = None) -> tuple[list[list[int]], list[Fraction]]:
    """A matrix as integer ranks of its exact values.

    Returns ``(ranks, values)``: ``values`` holds the sorted distinct values
    with 0 always among them, and ``ranks[i][j]`` is the position of entry
    ``(i, j)`` in it.  Equal values get equal ranks however they are spelled,
    so ranks compare as the values do.  Entries are read in row-major order
    and the first bad one raises; with ``width`` given, a row's length is
    checked before its entries are read.

    A matrix of strings that all parse, as JSON input is, takes
    :func:`_rank_spellings`; any other matrix, and every bad one, is read by
    :func:`_rank_entries`, so the first bad entry is the one that raises.
    """
    return _rank_spellings(matrix, width) or _rank_entries(matrix, width)


def _rank_spellings(matrix, width: int | None):
    """:func:`rank_image` of a matrix of well-formed rational strings, read
    at C speed, or ``None`` for any other matrix.

    Each distinct spelling is parsed once; one sort of the spellings by value
    numbers equal values alike by comparing neighbours, so no Fraction is
    hashed, and each row is read with one ``map`` over the spelling's rank.
    """
    try:
        for row in matrix:
            if width is not None and len(row) != width:
                return None
            # Raises at C speed on an entry that is no string, which the
            # union would otherwise hash (a Fraction hashes in Python).
            "".join(row)
    except TypeError:
        return None
    spellings = list({"0"}.union(*matrix))  # "0" puts 0 among the values
    try:
        parsed = list(map(parse_rational, spellings))
    except UltrametricError:
        return None
    values = []
    rank = {}
    for k in sorted(range(len(parsed)), key=parsed.__getitem__):
        if not values or parsed[k] != values[-1]:
            values.append(parsed[k])
        rank[spellings[k]] = len(values) - 1
    return [list(map(rank.__getitem__, row)) for row in matrix], values


def _rank_entries(matrix, width: int | None) -> tuple[list[list[int]], list[Fraction]]:
    """:func:`rank_image` entry by entry, for any matrix.

    Each distinct spelling or value is parsed once and numbered by a
    provisional id, which one sort of the distinct values remaps to its rank.
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
    values, (rank_of,) = merged_spectrum(parsed)
    return remap(id_rows, rank_of), values


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


def chain_matrix(gaps, diagonal) -> list[list]:
    """The symmetric matrix with ``diagonal[p]`` at ``(p, p)`` and
    ``max(gaps[p:q])`` at ``(p, q)``, ``p < q``.

    Joins neighbouring runs in increasing gap order, writing each row of the
    right run as one slice over the left run, then mirrors the lower triangle:
    column ``p`` is read before row ``p`` changes, from rows not changed yet.
    """
    lower = [[d] * len(diagonal) for d in diagonal]
    first = list(range(len(diagonal)))  # at each run's last position, its first
    last = first[:]  # at each run's first position, its last
    for k in sorted(range(len(gaps)), key=gaps.__getitem__):
        start, end = first[k], last[k + 1]
        across = [gaps[k]] * (k + 1 - start)
        for row in lower[k + 1 : end + 1]:
            row[start : k + 1] = across
        first[end], last[start] = start, end
    for p, column in enumerate(zip(*lower)):
        lower[p][p + 1 :] = column[p + 1 :]
    return lower


def subdominant(ranks, chain=None) -> tuple[tuple[int, ...], ...]:
    """Largest ultrametric below a symmetric matrix of ranks (single linkage).

    :func:`chain_matrix` of :func:`chain_order`'s gaps, put back in point
    order; the diagonal is kept from ``ranks``.  A caller that already holds
    ``chain_order(ranks)`` passes it as ``chain``.
    """
    if len(ranks) == 1:
        return (tuple(ranks[0]),)
    order, gaps = chain or chain_order(ranks)
    rows = chain_matrix(gaps, [ranks[i][i] for i in order])
    position = sorted(range(len(order)), key=order.__getitem__)
    in_point_order = itemgetter(*position)
    return tuple(in_point_order(rows[p]) for p in position)


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
    which the returned space keeps, with the chain of the subdominant.
    """
    return _check_axioms(*_coerce_matrix(labels, matrix))


def space_from_ranks(labels, ranks, values) -> UltrametricSpace:
    """The space of a matrix of ranks that is ultrametric by construction.

    ``values`` must be sorted, distinct and start with 0, as a merged
    spectrum does; ``ranks[i][j]`` indexes it.  Builders that combine spaces
    hand over ranks, so no entry is parsed again, and their proofs stand in
    for the axiom scan, which runs only in :func:`validate_ultrametric` and
    ``verify_certificate``.  The labels are checked as
    :func:`validate_ultrametric` checks them, and values that no entry uses
    are dropped, so the space's values are exactly its spectrum.
    """
    labels = _check_labels(labels)
    used = sorted(set().union(*ranks))
    if len(used) < len(values):
        table = dict(zip(used, range(len(used))))
        ranks = remap(ranks, table)
        values = [values[r] for r in used]
    return UltrametricSpace(labels, tuple(values), tuple(map(tuple, ranks)))


def space_from_chain(order, gaps) -> UltrametricSpace:
    """The space on the labels ``order`` with ``d = max(gaps between)``, for
    positive Fraction ``gaps`` between neighbours in that order.

    Ultrametric: the interval between two of three points lies inside the
    union of the intervals from each to the third, so its maximum is at most
    the larger of theirs; positive gaps keep distinct points apart.
    """
    values, (_, ranks) = merged_spectrum((ZERO,), gaps)
    return space_from_ranks(order, chain_matrix(ranks, [0] * len(order)), values)


def _check_axioms(labels, ranks, values) -> UltrametricSpace:
    """The space of checked labels and a matrix of ranks into ``values``, or
    the first axiom it violates.  A matrix equal to its subdominant is
    accepted at once; the pair and triangle scans run only to name a fault."""
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
    space = UltrametricSpace(labels, tuple(values), rows)
    sub = subdominant(rows, space._chain)
    # The subdominant is symmetric, and positive gaps keep points apart.
    if sub == rows and all(gap > zero for gap in space._chain[1]):
        return space
    for i in range(n):
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
    for i in range(n):
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
    return space


def merge_duplicate_points(labels, matrix) -> tuple[list[str], list[list[Fraction]]]:
    """Collapse groups of points at mutual distance 0, keeping first labels.

    Preprocessing for dirty data: validation rejects zero off-diagonal entries,
    so callers opt into this merge explicitly.  Groups are the connected
    components of the d=0 relation read in either direction: the zero-gap
    runs of :func:`chain_order` on "neither entry is 0".  A run starts when
    every key left is 1, so at its lowest point, and runs start in index
    order; distances between groups are read off these first members.
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


def subspace(space: UltrametricSpace, indices) -> UltrametricSpace:
    """The induced subspace on the points at ``indices``, in that order; the
    axioms hold on any subset of the points."""
    ranks = [[row[j] for j in indices] for row in map(space.ranks.__getitem__, indices)]
    labels = [space.labels[i] for i in indices]
    return space_from_ranks(labels, ranks, space.values)


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


def closed_quotient(space: UltrametricSpace, t) -> QuotientSpace:
    """Collapse closed balls of radius ``t`` (:func:`closed_balls`).

    Block distances are the (well-defined) source distances between
    representatives, so the quotient is the :func:`subspace` on each
    block's first point.
    """
    t = as_rational(t)
    if t < 0:
        raise InvalidParameter(f"scale must be >= 0, got {format_rational(t)}")
    balls = closed_balls(space, t)
    blocks = tuple(tuple(space.labels[j] for j in ball) for ball in balls)
    return QuotientSpace(space, t, blocks, subspace(space, [ball[0] for ball in balls]))
