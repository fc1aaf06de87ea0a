"""Single linkage: the largest ultrametric below a metric.

The ``cluster`` verb reads an ordinary metric and writes the single linkage
of it (:func:`single_linkage`), the chain of Prim's visit order and join
keys.  Its handler, :func:`cli_cluster`, lives here, so a ``cluster`` job
loads neither the family generators nor the other verbs' code.
"""

from bisect import bisect_left
from math import lcm
from operator import add

from . import jsonio
from .builders import space_from_chain
from .errors import InputFormat, NotAMetric
from .spaces import ZERO, UltrametricSpace, _check_labels, chain_order, chain_ranks, rank_image

# Scaled images of a metric use the lcm of its denominators while that fits
# in this many bits, and 2**SCALE_BITS (rounding down) otherwise.
SCALE_BITS = 64


def single_linkage(labels, matrix) -> UltrametricSpace:
    """Largest ultrametric below a metric: min over paths of the max edge,
    the chain of Prim's visit order and join keys (:func:`chain_order`).

    The input must be a genuine metric (symmetric, zero diagonal, positive
    off-diagonal, ordinary triangle inequality); the output agrees with the
    input wherever the input was already ultrametric.  The diagonal,
    symmetry and positivity checks and the tree run on the integer ranks of
    :func:`rank_image`; the triangle check runs on scaled integers
    (:func:`_check_triangles`).  The labels are checked last, so a repeated
    label is reported only on a genuine metric.
    """
    labels = tuple(str(l) for l in labels)
    n = len(labels)
    if n == 0:
        raise NotAMetric("a metric needs at least one point")
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise InputFormat("metric matrix shape does not match the labels")
    ranks, values = rank_image(matrix)
    zero = bisect_left(values, ZERO)
    for i in range(n):
        if ranks[i][i] != zero:
            raise NotAMetric(
                f"nonzero diagonal at {labels[i]!r}", kind="diagonal", point=labels[i]
            )
        for j in range(i + 1, n):
            if ranks[i][j] != ranks[j][i]:
                raise NotAMetric(
                    f"asymmetric at ({labels[i]},{labels[j]})",
                    kind="symmetry",
                    points=[labels[i], labels[j]],
                )
            if ranks[i][j] <= zero:
                raise NotAMetric(
                    f"nonpositive distance at ({labels[i]},{labels[j]}); "
                    "merge duplicate points first if the data is dirty",
                    kind="positivity",
                    points=[labels[i], labels[j]],
                )
    order, gaps = chain_order(ranks)
    _check_triangles(labels, ranks, values, chain_ranks(order, gaps, zero))
    return space_from_chain(_check_labels(labels), order, gaps, values)


def _check_triangles(labels, ranks, values, sub) -> None:
    """Raise at the first ``(i, j, k)`` with ``d(i,j) > d(i,k) + d(k,j)``.

    A pair where ``ranks`` equals its subdominant ``sub`` is clear, so a row
    equal to its row of ``sub`` is passed over at once.  Else each value
    ``d`` becomes ``floor(d * scale)``.  With ``scale`` the lcm of the
    denominators the image is exact and a pair ``(i, j)`` is clear when its
    image is at most every ``image(i,k) + image(k,j)``; with a power of two
    the image is up to 1 too low, so a pair needs a margin of 1.  Only a pair
    neither test clears is scanned over ``k`` in Fractions, so the first
    witness is the one of the full scan.  The image's diagonal holds 1, so
    the terms ``k = i`` and ``k = j`` never block a pair.
    """
    rows = [i for i, (rank_i, sub_i) in enumerate(zip(ranks, sub)) if tuple(rank_i) != sub_i]
    if not rows:
        return
    scale, margin = 1, 0
    for v in values:
        scale = lcm(scale, v.denominator)
        if scale.bit_length() > SCALE_BITS:
            scale, margin = 1 << SCALE_BITS, 1
            break
    scaled = [v.numerator * scale // v.denominator for v in values]
    image = [list(map(scaled.__getitem__, row)) for row in ranks]
    n = len(labels)
    for i in range(n):
        image[i][i] = 1
    for i in rows:
        image_i, rank_i, sub_i = image[i], ranks[i], sub[i]
        for j in range(i + 1, n):
            # d(i,j) = sub(i,j) <= max(d(i,k), d(k,j)) <= d(i,k) + d(k,j)
            if rank_i[j] == sub_i[j] or image_i[j] + margin <= min(map(add, image_i, image[j])):
                continue
            dij = values[rank_i[j]]
            for k in range(n):
                if k != i and k != j and dij > values[rank_i[k]] + values[ranks[k][j]]:
                    raise NotAMetric(
                        f"triangle inequality fails at ({labels[i]},{labels[j]},{labels[k]})",
                        kind="triangle",
                        points=[labels[i], labels[j], labels[k]],
                    )


def cli_cluster(args) -> dict:
    """``ultrametric cluster --input FILE [--merge-duplicates]``."""
    points, dist = jsonio.load_matrix(args.input, args.merge_duplicates)
    return jsonio.space_to_obj(single_linkage(points, dist))
