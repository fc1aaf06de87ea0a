"""Spaces built from chains and from other spaces.

Every builder hands its chain (a point order and the gaps between
neighbours, ``d = max(gaps between)``) to the one builder
:func:`space_from_chain`, whose proof covers them all: the single linkage of
a chain is ultrametric.  Constructions place points by label and join their
chains in one spanning forest (:func:`join_spaces`), subspaces and closed-ball
quotients restrict the source's chain, and a merge tree is read as the chain
of its leaves (:func:`from_dendrogram`), so no built space runs Prim again.
Merging duplicate points, which only ``--merge-duplicates`` runs, lives here
too.  A job that only reads, checks and measures spaces (``validate``,
``spectrum``, ``ugh``, ``net``, ``hausdorff``) does not load this module.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from operator import itemgetter

from .errors import InvalidParameter, MalformedTree
from .rationals import as_rational, format_rational
from .spaces import (
    ZERO,
    Record,
    UltrametricSpace,
    _check_labels,
    _coerce_matrix,
    chain_order,
    chain_ranks,
    closed_balls,
)


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


def merged_spectrum(*spectra) -> tuple[list[Fraction], list[list[int]]]:
    """The sorted union of some value lists, and per list the table taking
    a rank in it to the rank of the same value in the union."""
    values = sorted(set().union(*spectra))
    position = {v: r for r, v in enumerate(values)}
    return values, [[position[v] for v in spectrum] for spectrum in spectra]


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


def from_dendrogram(node: Node) -> UltrametricSpace:
    """Space whose distances are lowest-common-ancestor heights.

    Raises MalformedTree on structural defects: heights not strictly
    decreasing toward the leaves, internal nodes with fewer than two children,
    nonpositive heights, or duplicate leaf labels.
    """
    labels, gaps, values = _tree_chain(node)
    return space_from_chain(_check_labels(labels), list(range(len(labels))), gaps, values)


def _tree_chain(node: Node) -> tuple[list[str], list[int], list[Fraction]]:
    """A tree's leaf labels in pre-order, the gaps between them as ranks
    into ``values``, and ``values``: 0 and the heights, sorted.

    Nodes are checked in pre-order, each height read once and tested against
    its parent first.  A leaf meets the one before it at the parent of its
    lowest ancestor (or itself) that is not a first child, whose height is
    their gap: two leaves meet at the highest of the merges between them.
    """
    # A caller holding a tree has loaded the tree code already.
    from .dendrogram import Leaf

    order: list[str] = []
    gaps: list[Fraction] = []
    stack: list[tuple[Node, Fraction | None, bool]] = [(node, None, False)]
    while stack:
        current, parent, later = stack.pop()
        leaf = isinstance(current, Leaf)
        height = ZERO if leaf else as_rational(current.height)
        if parent is not None:
            if height >= parent:
                raise MalformedTree(
                    f"child height {format_rational(height)} does not "
                    f"decrease below parent height {format_rational(parent)}"
                )
            if later:
                gaps.append(parent)
        if leaf:
            order.append(current.label)
            continue
        if height <= 0:
            raise MalformedTree(f"internal node height {format_rational(height)} is not positive")
        if len(current.children) < 2:
            raise MalformedTree("internal node has fewer than two children")
        first, *rest = current.children
        stack.extend((child, height, True) for child in reversed(rest))
        stack.append((first, height, False))
    if len(set(order)) != len(order):
        raise MalformedTree("duplicate leaf labels")
    values, (_, ranks) = merged_spectrum((ZERO,), gaps)
    return order, ranks, values


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
