"""Hausdorff distance between point subsets, nets, and subspace extraction.

For finite sets the Hausdorff distance is attained, so the usual infimum over
neighborhood radii collapses to the exact max-min formula used here.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction

from .errors import DuplicateLabel, EmptySubset, InvalidParameter
from .rationals import as_rational, format_rational
from .spaces import UltrametricSpace, space_from_ranks


def _subset_indices(space: UltrametricSpace, subset, name: str) -> list[int]:
    labels = list(subset)
    if not labels:
        raise EmptySubset(f"subset {name} is empty")
    indices = [space.index(label) for label in labels]
    if len(set(indices)) != len(indices):
        dup = next(l for l in labels if labels.count(l) > 1)
        raise DuplicateLabel(f"subset {name} repeats point {dup!r}", label=dup)
    return indices


def hausdorff_distance(space: UltrametricSpace, a, b) -> Fraction:
    """max(max_{x in a} min_{y in b} d(x,y), max_{y in b} min_{x in a} d(x,y)), on ranks."""
    ia = _subset_indices(space, a, "A")
    ib = _subset_indices(space, b, "B")
    ranks = space.ranks
    # The matrix is symmetric, so both directions read rows.
    forward = max(min(map(ranks[i].__getitem__, ib)) for i in ia)
    backward = max(min(map(ranks[j].__getitem__, ia)) for j in ib)
    return space.values[max(forward, backward)]


def restrict(space: UltrametricSpace, subset) -> UltrametricSpace:
    """Induced subspace on the given points, kept in source label order."""
    chosen = set(_subset_indices(space, subset, "subset"))
    indices = [i for i in range(len(space)) if i in chosen]
    labels = tuple(space.labels[i] for i in indices)
    ranks = [[space.ranks[i][j] for j in indices] for i in indices]
    return space_from_ranks(labels, ranks, space.values)


def epsilon_net(space: UltrametricSpace, eps) -> tuple[str, ...]:
    """Greedy net: scan points in label order, keep those farther than eps
    from every point kept so far.

    The result covers the space within eps and is eps-separated (all pairwise
    distances strictly exceed eps).
    """
    eps = as_rational(eps)
    if eps <= 0:
        raise InvalidParameter(f"eps must be > 0, got {format_rational(eps)}")
    # d > eps exactly when the rank of d is at least ``cut``.
    cut = bisect_right(space.values, eps)
    kept: list[int] = []
    for i, rank_i in enumerate(space.ranks):
        if all(rank_i[j] >= cut for j in kept):
            kept.append(i)
    return tuple(space.labels[i] for i in kept)
