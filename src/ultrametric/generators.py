"""Constructions: named families, membership in a spectrum class, seeded
random spaces, and single-linkage ingestion of ordinary metrics.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from fractions import Fraction
from math import isqrt, lcm
from operator import add

from .errors import (
    BasePointMissing,
    ConstraintTooSmall,
    InputFormat,
    InstanceTooLarge,
    InvalidParameter,
    NonpositiveDistance,
    NotAMetric,
    ScaleNotBelowMinDistance,
)
from .rationals import as_rational, format_rational, int_max_str_digits
from .spaces import (
    ZERO,
    Record,
    UltrametricSpace,
    _check_labels,
    chain_order,
    chain_ranks,
    join_spaces,
    rank_image,
    space_from_chain,
)


def two_point_space(c) -> UltrametricSpace:
    """Points ``p`` and ``q`` at distance ``c > 0``; with two points every
    triangle repeats a point, so the strong triangle inequality holds."""
    c = as_rational(c)
    if c <= 0:
        raise NonpositiveDistance(f"two-point distance must be > 0, got {format_rational(c)}")
    return space_from_chain(("p", "q"), [0, 1], [1], (ZERO, c))


def crowd_family(
    base_space: UltrametricSpace, base_point: str, c, n: int
) -> UltrametricSpace:
    """Adjoin ``n`` fresh points crowded at scale ``c`` around a base point.

    Fresh points sit at distance ``c`` from each other and at
    ``max(d(y, base), c)`` from each original point ``y``; with
    ``0 < c <`` the smallest positive distance of the base space this is an
    ultrametric extension: the single linkage (:func:`join_spaces`) of the
    base chain and a link at ``c`` from the base point to each fresh point.
    (Taking the plain distance to the base point instead of the max would put
    fresh points at distance 0 from the base point while keeping them at
    ``c`` from each other, which no ultrametric allows.)

    Fresh points are labeled ``"1"``..``"n"``, underscore-prefixed as needed
    to dodge collisions with existing labels.  Raises InstanceTooLarge,
    before building anything, when the ``(|base| + n)^2`` matrix would pass
    :data:`CELL_BUDGET` cells.
    """
    if base_point not in base_space.labels:
        raise BasePointMissing(f"base point {base_point!r} is not in the space", label=base_point)
    if n < 1:
        raise InvalidParameter(f"family index must be >= 1, got {n}")
    _check_cells(n, len(base_space))
    c = as_rational(c)
    if c <= 0:
        raise NonpositiveDistance(f"crowd scale must be > 0, got {format_rational(c)}")
    min_positive = base_space.min_positive_distance()
    if min_positive is not None and c >= min_positive:
        raise ScaleNotBelowMinDistance(
            f"crowd scale {format_rational(c)} must be below the smallest positive "
            f"distance {format_rational(min_positive)}",
            scale=format_rational(c),
            bound=format_rational(min_positive),
        )
    prefix = ""
    existing = set(base_space.labels)
    while any(f"{prefix}{k}" in existing for k in range(1, n + 1)):
        prefix += "_"
    fresh = [f"{prefix}{k}" for k in range(1, n + 1)]

    identity = dict(zip(base_space.labels, base_space.labels))
    return join_spaces([(base_space, identity)], [(c, base_point, label) for label in fresh])


# Cells of the largest matrix a generator builds.  For ``cauchy_sequence``
# the matrix grows with the square of the depth and its JSON with the cube
# (the entries get longer), so the budget stops depth at 1447, where the JSON
# is 318 MB; ``random_space`` and ``crowd_family`` stop at 1448 points.
CELL_BUDGET = 2**21


def _check_cells(n: int, base: int = 0) -> None:
    """Refuse ``n`` new points beside ``base`` others when their square
    matrix would pass :data:`CELL_BUDGET` cells."""
    max_n = max(isqrt(CELL_BUDGET) - base, 0)
    if n > max_n:
        size = base + n
        raise InstanceTooLarge(
            f"n {n}{f' on a {base}-point base' if base else ''} needs a {size}x{size} "
            f"matrix, beyond the {CELL_BUDGET}-cell budget (n at most {max_n})",
            n=n,
            max_n=max_n,
        )


def cauchy_sequence(depth: int) -> UltrametricSpace:
    """Space on ``{1, 1/2, ..., 2^-depth}`` with ``d(x,y) = max(x,y)``.

    Consecutive members of this family form a Cauchy sequence under the
    Gromov-Hausdorff ultrametric.  It is ultrametric because
    ``max(x, y) <= max(x, y, z) = max(max(x, z), max(z, y))``.  Raises
    InstanceTooLarge, before building anything, when ``2^depth`` has more
    digits than the interpreter's integer string limit, since ``2^-depth``
    could not be written out, or when the ``(depth+1)^2`` matrix exceeds
    :data:`CELL_BUDGET` cells.
    """
    if depth < 0:
        raise InvalidParameter(f"depth must be >= 0, got {depth}")
    limit = int_max_str_digits()
    # 2^depth has more than ``limit`` digits iff 2^depth >= 10^limit.
    if limit and depth >= (10**limit).bit_length():
        raise InstanceTooLarge(
            f"depth {depth} puts 2^-{depth} beyond the {limit}-digit integer limit",
            depth=depth,
            limit=limit,
        )
    max_depth = isqrt(CELL_BUDGET) - 1
    if depth > max_depth:
        raise InstanceTooLarge(
            f"depth {depth} needs a {depth + 1}x{depth + 1} matrix, beyond the "
            f"{CELL_BUDGET}-cell budget (depth at most {max_depth})",
            depth=depth,
            max_depth=max_depth,
        )
    points = [Fraction(1, 2**k) for k in range(depth + 1)]
    # With the gap after 2^-k set to 2^-k, rank depth + 1 - k among the values,
    # max(2^-i, 2^-j) = 2^-min(i, j) is the largest gap between the two.
    labels = [format_rational(p) for p in points]
    gaps = list(range(depth + 1, 1, -1))
    return space_from_chain(labels, list(range(depth + 1)), gaps, (ZERO, *reversed(points)))


class SpectrumConstraint(Record):
    """Allowed distance values: sorted, distinct, nonnegative, containing 0."""

    values: tuple[Fraction, ...]


def spectrum_constraint(values) -> SpectrumConstraint:
    parsed = sorted({as_rational(v) for v in values})
    if any(v < 0 for v in parsed):
        raise InvalidParameter("allowed values must be nonnegative")
    if not parsed or parsed[0] != 0:
        raise InvalidParameter("the allowed value set must contain 0")
    return SpectrumConstraint(tuple(parsed))


class Membership(Record):
    member: bool
    witness: tuple[str, str, Fraction] | None

    def __init__(self, member, witness=None):
        super().__init__(member, witness)

    def __bool__(self) -> bool:
        return self.member


def in_uk(space: UltrametricSpace, constraint: SpectrumConstraint) -> Membership:
    """Does every distance of the space lie in the allowed set?

    On failure the witness is the first offending pair (by index order) and
    its distance value.
    """
    allowed = set(constraint.values)
    banned = [v not in allowed for v in space.values]
    # ``values`` is exactly the spectrum, so pairs are scanned only to name one.
    for i, rank_i in enumerate(space.ranks if any(banned) else ()):
        for j in range(i + 1, len(space)):
            if banned[rank_i[j]]:
                value = space.values[rank_i[j]]
                return Membership(False, (space.labels[i], space.labels[j], value))
    return Membership(True)


def random_space(n: int, constraint: SpectrumConstraint, seed: int) -> UltrametricSpace:
    """Seeded random space with spectrum inside the constraint.

    Draws a random merge tree with heights from the positive allowed values,
    strictly decreasing toward the leaves, so every draw is valid by
    construction (rejection sampling on matrices would almost never succeed
    for larger n).  The tree is drawn as its chain (:func:`space_from_chain`),
    heights as ranks into the allowed values: a merge's height is the gap
    between each two of its parts.  Raises
    InstanceTooLarge, before building anything, when the ``n^2`` matrix would
    pass :data:`CELL_BUDGET` cells.
    """
    if n < 1:
        raise InvalidParameter(f"need n >= 1 points, got {n}")
    _check_cells(n)
    positive = [r for r, v in enumerate(constraint.values) if v > 0]
    if not positive:
        raise ConstraintTooSmall(
            "the allowed value set needs at least one positive value besides 0"
        )
    rng = random.Random(seed)
    labels = [f"x{k}" for k in range(1, n + 1)]
    rng.shuffle(labels)

    def gaps(size: int, heights: list[int]) -> list[int]:
        if size == 1:
            return []
        h = rng.choice(heights)
        lower = [v for v in heights if v < h]
        k = rng.randint(2, size) if lower else size
        bounds = [0, *sorted(rng.sample(range(1, size), k - 1)), size]
        drawn = gaps(bounds[1], lower)
        for start, end in zip(bounds[1:], bounds[2:]):
            drawn += [h, *gaps(end - start, lower)]
        return drawn

    return space_from_chain(labels, list(range(n)), gaps(n, positive), constraint.values)


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
    _check_triangles(labels, ranks, values, chain_ranks(order, gaps, [zero] * n))
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
