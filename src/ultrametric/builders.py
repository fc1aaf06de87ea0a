"""Spaces built from chains and from other spaces.

Every builder hands its chain (a point order and the gaps between
neighbours, ``d = max(gaps between)``) to the one builder
:func:`space_from_chain`, whose proof covers them all: the single linkage of
a chain is ultrametric.  Constructions place points by label and join their
chains in one spanning forest (:func:`join_spaces`), and subspaces and
closed-ball quotients restrict the source's chain, so no built space runs
Prim again.  Merge trees are read in :mod:`ultrametric.dendrogram`, single
linkage in :mod:`ultrametric.linkage`.  The ``quotient`` verb's handler,
:func:`cli_quotient`, lives here; the quotient format it writes is
:func:`ultrametric.jsonio.quotient_to_obj`.  A job that only reads, checks
and measures spaces (``validate``, ``spectrum``, ``ugh``, ``net``,
``hausdorff``, ``in-uk``) does not load this module.
"""

from fractions import Fraction
from operator import itemgetter

from . import jsonio
from .errors import InvalidParameter
from .rationals import as_rational, format_rational
from .spaces import Record, UltrametricSpace, chain_ranks, closed_balls


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
    gaps = list(map(dict(zip(used, range(len(used)))).__getitem__, gaps))
    values = [values[r] for r in used]
    ranks = chain_ranks(order, gaps, 0)
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

    ``blocks[k]`` lists the labels of the quotiented space merged into
    quotient point ``k``; the quotient reuses each block's first label.  All
    quotient distances exceed the scale.
    """

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
    return QuotientSpace(t, blocks, subspace(space, [ball[0] for ball in balls]))


def cli_quotient(args) -> dict:
    """``ultrametric quotient SPACE --t T``."""
    space = jsonio.load_space(args.space)
    return jsonio.quotient_to_obj(closed_quotient(space, args.t))
