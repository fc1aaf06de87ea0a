"""Constructions: named families, membership in a spectrum class, seeded
random spaces, and single-linkage ingestion of ordinary metrics.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add

from .dendrogram import Leaf, Merge, Node, from_dendrogram
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
    UltrametricSpace,
    block_matrix,
    rank_image,
    subdominant,
    validate_ultrametric,
)


def two_point_space(c) -> UltrametricSpace:
    """Points ``p`` and ``q`` at distance ``c > 0``."""
    c = as_rational(c)
    if c <= 0:
        raise NonpositiveDistance(f"two-point distance must be > 0, got {format_rational(c)}")
    return validate_ultrametric(("p", "q"), ((ZERO, c), (c, ZERO)))


def crowd_family(
    base_space: UltrametricSpace, base_point: str, c, n: int
) -> UltrametricSpace:
    """Adjoin ``n`` fresh points crowded at scale ``c`` around a base point.

    Fresh points sit at distance ``c`` from each other and at
    ``max(d(y, base), c)`` from each original point ``y``; with
    ``0 < c <`` the smallest positive distance of the base space this is an
    ultrametric extension.  (Taking the plain distance to the base point
    instead of the max would put fresh points at distance 0 from the base
    point while keeping them at ``c`` from each other, which no ultrametric
    allows.)

    Fresh points are labeled ``"1"``..``"n"``, underscore-prefixed as needed
    to dodge collisions with existing labels.
    """
    if base_point not in base_space.labels:
        raise BasePointMissing(f"base point {base_point!r} is not in the space", label=base_point)
    if n < 1:
        raise InvalidParameter(f"family index must be >= 1, got {n}")
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

    base_index = base_space.index(base_point)
    among_fresh = [[ZERO if k == l else c for l in range(n)] for k in range(n)]
    reach = [[max(row[base_index], c)] * n for row in base_space.dist]
    matrix = block_matrix(base_space.dist, among_fresh, reach)
    return validate_ultrametric(list(base_space.labels) + fresh, matrix)


def cauchy_sequence(depth: int) -> UltrametricSpace:
    """Space on ``{1, 1/2, ..., 2^-depth}`` with ``d(x,y) = max(x,y)``.

    Consecutive members of this family form a Cauchy sequence under the
    Gromov-Hausdorff ultrametric.  Raises InstanceTooLarge, before building
    anything, when ``2^depth`` has more digits than the interpreter's integer
    string limit, since ``2^-depth`` could not be written out.
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
    points = [Fraction(1, 2**k) for k in range(depth + 1)]
    labels = [format_rational(p) for p in points]
    size = len(points)
    matrix = [
        [max(points[i], points[j]) if i != j else ZERO for j in range(size)]
        for i in range(size)
    ]
    return validate_ultrametric(labels, matrix)


@dataclass(frozen=True)
class SpectrumConstraint:
    """Allowed distance values: sorted, distinct, nonnegative, containing 0."""

    values: tuple[Fraction, ...]


def spectrum_constraint(values) -> SpectrumConstraint:
    parsed = sorted({as_rational(v) for v in values})
    if any(v < 0 for v in parsed):
        raise InvalidParameter("allowed values must be nonnegative")
    if not parsed or parsed[0] != 0:
        raise InvalidParameter("the allowed value set must contain 0")
    return SpectrumConstraint(tuple(parsed))


@dataclass(frozen=True)
class Membership:
    member: bool
    witness: tuple[str, str, Fraction] | None = None

    def __bool__(self) -> bool:
        return self.member


def in_uk(space: UltrametricSpace, constraint: SpectrumConstraint) -> Membership:
    """Does every distance of the space lie in the allowed set?

    On failure the witness is the first offending pair (by index order) and
    its distance value.
    """
    allowed = set(constraint.values)
    banned = [v not in allowed for v in space.values]
    for i, rank_i in enumerate(space.ranks):
        for j in range(i + 1, len(space)):
            if banned[rank_i[j]]:
                value = space.values[rank_i[j]]
                return Membership(False, (space.labels[i], space.labels[j], value))
    return Membership(True)


def random_space(n: int, constraint: SpectrumConstraint, seed: int) -> UltrametricSpace:
    """Seeded random space with spectrum inside the constraint.

    Generation goes through a random merge tree whose heights are drawn from
    the positive allowed values with strictly decreasing levels, so every draw
    is valid by construction (rejection sampling on matrices would almost
    never succeed for larger n).
    """
    if n < 1:
        raise InvalidParameter(f"need n >= 1 points, got {n}")
    positive = [v for v in constraint.values if v > 0]
    if not positive:
        raise ConstraintTooSmall(
            "the allowed value set needs at least one positive value besides 0"
        )
    rng = random.Random(seed)
    labels = [f"x{k}" for k in range(1, n + 1)]
    rng.shuffle(labels)

    def build(points: list[str], heights: list[Fraction]) -> Node:
        if len(points) == 1:
            return Leaf(points[0])
        h = rng.choice(heights)
        lower = [v for v in heights if v < h]
        if lower:
            k = rng.randint(2, len(points))
        else:
            k = len(points)
        cuts = sorted(rng.sample(range(1, len(points)), k - 1))
        bounds = [0, *cuts, len(points)]
        parts = [points[bounds[i] : bounds[i + 1]] for i in range(k)]
        return Merge(h, tuple(build(part, lower) for part in parts))

    return from_dendrogram(build(labels, positive))


# Scaled images of a metric use the lcm of its denominators while that fits
# in this many bits, and 2**SCALE_BITS (rounding down) otherwise.
SCALE_BITS = 64


def single_linkage(labels, matrix) -> UltrametricSpace:
    """Largest ultrametric below a metric: min over paths of the max edge,
    read off a minimum spanning tree.

    The input must be a genuine metric (symmetric, zero diagonal, positive
    off-diagonal, ordinary triangle inequality); the output agrees with the
    input wherever the input was already ultrametric.  The diagonal,
    symmetry and positivity checks and the tree run on the integer ranks of
    :func:`rank_image`; the triangle check runs on scaled integers
    (:func:`_check_triangles`).
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
    _check_triangles(labels, ranks, values)
    sub = [list(map(values.__getitem__, row)) for row in subdominant(ranks)]
    return validate_ultrametric(labels, sub)


def _check_triangles(labels, ranks, values) -> None:
    """Raise at the first ``(i, j, k)`` with ``d(i,j) > d(i,k) + d(k,j)``.

    Each value ``d`` becomes ``floor(d * scale)``.  With ``scale`` the lcm of
    the denominators the image is exact and a pair ``(i, j)`` is clear when
    its image is at most every ``image(i,k) + image(k,j)``; with a power of
    two the image is up to 1 too low, so a pair needs a margin of 1.  Only a
    pair the integers cannot clear is scanned over ``k`` in Fractions, so
    the first witness is the one of the full scan.  The image's diagonal
    holds 1, so the terms ``k = i`` and ``k = j`` never block a pair.
    """
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
    for i in range(n):
        image_i, rank_i = image[i], ranks[i]
        for j in range(i + 1, n):
            if image_i[j] + margin <= min(map(add, image_i, image[j])):
                continue
            dij = values[rank_i[j]]
            for k in range(n):
                if k != i and k != j and dij > values[rank_i[k]] + values[ranks[k][j]]:
                    raise NotAMetric(
                        f"triangle inequality fails at ({labels[i]},{labels[j]},{labels[k]})",
                        kind="triangle",
                        points=[labels[i], labels[j], labels[k]],
                    )
