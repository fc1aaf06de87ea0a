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
which its triangle check used.  Every builder hands its chain to the one
builder :func:`space_from_chain`, whose proof covers them all: the single
linkage of a chain is ultrametric.  Constructions place points by label
and join their chains in one spanning forest (:func:`join_spaces`), and
subspaces restrict the source's chain, so no built space runs Prim again.
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
    InstanceTooLarge,
    InvalidParameter,
    NegativeDistance,
    NonSymmetric,
    NonzeroDiagonal,
    TriangleViolation,
    UltrametricError,
    UnknownLabel,
    ZeroOffDiagonal,
)
from .rationals import as_rational, format_rational, int_max_str_digits, parse_rational

ZERO = Fraction(0)
# The types whose str() is their canonical spelling.
_STR_SPELLS = (int, Fraction)


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

    One pass reads a matrix of well-formed rational strings, as JSON input
    is, at C speed: each distinct spelling is parsed once, one sort of the
    spellings by value numbers equal values alike by comparing neighbours,
    so no Fraction is hashed, and each row is read with one ``map``.  Any
    other matrix is first rewritten by :func:`_canonical_spellings`, which
    names its first bad entry: an int then costs one ``str`` in C, a
    Fraction one ``str`` in Python.
    """
    try:
        for row in matrix:
            if width is not None and len(row) != width:
                raise TypeError  # the respelling loop names the row
            # Raises at C speed on an entry that is no string, which the
            # union would otherwise hash (a Fraction hashes in Python).
            "".join(row)
        spellings = list({"0"}.union(*matrix))  # "0" puts 0 among the values
        parsed = list(map(parse_rational, spellings))
    except (TypeError, UltrametricError):
        # Canonical spellings always read, so this recurses once.
        return rank_image(_canonical_spellings(matrix, width))
    values = []
    rank = {}
    for k in sorted(range(len(parsed)), key=parsed.__getitem__):
        if not values or parsed[k] != values[-1]:
            values.append(parsed[k])
        rank[spellings[k]] = len(values) - 1
    return [list(map(rank.__getitem__, row)) for row in matrix], values


def _canonical_spellings(matrix, width: int | None) -> list[list[str]]:
    """The matrix in canonical spellings, read as :func:`rank_image` reads
    it, so the first bad entry or row raises."""
    spelled = []
    for i, row in enumerate(matrix):
        if width is not None and len(row) != width:
            raise InputFormat(f"matrix row {i} has {len(row)} entries, expected {width}")
        try:
            spelled.append(
                [str(v) if type(v) in _STR_SPELLS else format_rational(as_rational(v)) for v in row]
            )
        except ValueError:  # str() of a value past the integer string limit
            limit = int_max_str_digits()
            raise InstanceTooLarge(
                f"matrix row {i} exceeds the {limit}-digit integer limit", row=i, limit=limit
            ) from None
    return spelled


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


def chain_ranks(order, gaps, diagonal) -> tuple[tuple[int, ...], ...]:
    """:func:`chain_matrix` of a chain over the points ``0..n-1``, in point order."""
    rows = chain_matrix(gaps, diagonal)
    if len(rows) == 1:
        return (tuple(rows[0]),)
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


def space_from_chain(labels, order, gaps, values) -> UltrametricSpace:
    """The space on ``labels`` with ``d = max(gaps between)`` along ``order``,
    which lists each index into ``labels`` once; ``gaps[p]``, a positive rank
    into ``values`` (sorted, distinct, 0 first), lies between ``order[p]``
    and ``order[p + 1]``.

    Every builder ends here, so no entry is parsed again and one proof stands
    in for the axiom scan: the interval between two of three points lies in
    the union of the intervals from each to the third, so its largest gap is
    at most the larger of theirs, and positive gaps keep points apart.  Labels
    are trusted, checked where they enter.  Unused values are dropped, and
    the space keeps the chain.
    """
    used = sorted({0, *gaps})
    if len(used) < len(values):
        gaps = list(map(dict(zip(used, range(len(used)))).__getitem__, gaps))
        values = [values[r] for r in used]
    ranks = chain_ranks(order, gaps, [0] * len(order))
    space = UltrametricSpace(tuple(labels), tuple(values), ranks)
    space.__dict__["_chain"] = order, gaps  # where ``cached_property`` keeps it
    return space


def join_spaces(parts, links) -> UltrametricSpace:
    """Single linkage of the graph with the edges of each part ``(space,
    to)``'s chain, its point labelled ``l`` placed at the output label
    ``to[l]``, and an edge per link ``(value, a, b)`` between output labels,
    ``value > 0``; together they connect all.  The output points are these
    labels in order of first appearance, parts (in label order) before links.

    That is the single linkage of the graph's minimum spanning forest (Gower
    & Ross), so Kruskal's algorithm runs over these edges in rank order: each
    component is a chain, and a join appends the smaller to the larger with
    the joining rank, at least every gap inside either, between them.  The
    final chain goes to :func:`space_from_chain`.
    """
    values, tables = merged_spectrum(*(s.values for s, _ in parts), [v for v, _, _ in links])
    index, edges = {}, []
    for (space, to), table in zip(parts, tables):
        at = [index.setdefault(label, len(index)) for label in map(to.__getitem__, space.labels)]
        order, gaps = space._chain
        points = [at[p] for p in order]
        edges += zip(map(table.__getitem__, gaps), points, points[1:])
    for rank, (_, a, b) in zip(tables[-1], links):
        edges.append((rank, index.setdefault(a, len(index)), index.setdefault(b, len(index))))
    chains = [([p], []) for p in range(len(index))]
    for rank, i, j in sorted(edges, key=itemgetter(0)):
        big, small = chains[i], chains[j]
        if big is not small:
            if len(big[0]) < len(small[0]):
                big, small = small, big
            big[0].extend(small[0])
            big[1].extend((rank, *small[1]))
            for p in small[0]:
                chains[p] = big
    return space_from_chain(list(index), *chains[0], values)


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
    sub = chain_ranks(*space._chain, [zero] * n)
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
    """The induced subspace on the points at distinct ``indices``, in that
    order.  Its chain is the source's restricted to them: between two kept
    neighbours lies the largest gap skipped since the first, their distance.
    """
    at = dict(zip(indices, range(len(indices))))
    order, gaps, top = [], [], 0
    for point, gap in zip(space._chain[0], [0, *space._chain[1]]):
        top = max(top, gap)
        if point in at:
            order.append(at[point])
            gaps.append(top)
            top = 0
    return space_from_chain([space.labels[i] for i in indices], order, gaps[1:], space.values)


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
