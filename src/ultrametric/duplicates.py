"""Merging points at distance 0, the preprocessing ``--merge-duplicates``
asks for.

Validation and single linkage reject a zero off the diagonal, so dirty data
opts into this merge explicitly.  Only a ``--merge-duplicates`` job loads
this module.
"""

from bisect import bisect_left

from .rationals import format_rational
from .spaces import ZERO, _coerce_matrix, chain_order


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
