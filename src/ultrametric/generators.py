"""Named families, membership in a spectrum class, and seeded random spaces.

Each family is built as a chain by :mod:`ultrametric.builders`, which a
generator imports only when it builds, so an ``in-uk`` job, or a ``gen`` job
refused before it builds, does not load the builders.  The handlers of the
``gen`` and ``in-uk`` verbs live here.  Single linkage of a metric
(``cluster``) is in :mod:`ultrametric.linkage`.
"""

import random
from fractions import Fraction
from math import isqrt

from . import _forward, jsonio
from .errors import (
    BasePointMissing,
    ConstraintTooSmall,
    InstanceTooLarge,
    InvalidParameter,
    NonpositiveDistance,
    ScaleNotBelowMinDistance,
)
from .rationals import as_rational, format_rational, parse_rational_list
from .spaces import ZERO, Record, UltrametricSpace


def two_point_space(c) -> UltrametricSpace:
    """Points ``p`` and ``q`` at distance ``c > 0``; with two points every
    triangle repeats a point, so the strong triangle inequality holds."""
    c = as_rational(c)
    if c <= 0:
        raise NonpositiveDistance(f"two-point distance must be > 0, got {format_rational(c)}")
    from .builders import space_from_chain

    return space_from_chain(("p", "q"), [0, 1], [1], (ZERO, c))


def crowd_family(
    base_space: UltrametricSpace, base_point: str, c, n: int
) -> UltrametricSpace:
    """Adjoin ``n`` fresh points crowded at scale ``c`` around a base point.

    Fresh points sit at distance ``c`` from each other and at
    ``max(d(y, base), c)`` from each original point ``y``; with
    ``0 < c <`` the smallest positive distance of the base space this is an
    ultrametric extension: the single linkage
    (:func:`ultrametric.builders.join_spaces`) of the base chain and a link
    at ``c`` from the base point to each fresh point.
    (Taking the plain distance to the base point instead of the max would put
    fresh points at distance 0 from the base point while keeping them at
    ``c`` from each other, which no ultrametric allows.)

    Fresh points are labeled ``"1"``..``"n"``, underscore-prefixed as needed
    to dodge collisions with existing labels.  ``c`` is read first
    (:func:`as_rational`, which takes rational text), so a bad ``c`` is named
    before any other fault.  Raises InstanceTooLarge, before building
    anything, when the ``(|base| + n)^2`` matrix would pass
    :data:`CELL_BUDGET` cells.
    """
    c = as_rational(c)
    if base_point not in base_space.labels:
        raise BasePointMissing(f"base point {base_point!r} is not in the space", label=base_point)
    if n < 1:
        raise InvalidParameter(f"family index must be >= 1, got {n}")
    _check_cells(n, len(base_space))
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

    from .builders import join_spaces

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
    InstanceTooLarge, before building anything, when the ``(depth+1)^2``
    matrix exceeds :data:`CELL_BUDGET` cells; the labels then stay within any
    integer string limit (``2^1447`` has 436 digits; a set limit is >= 640).
    """
    if depth < 0:
        raise InvalidParameter(f"depth must be >= 0, got {depth}")
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
    from .builders import space_from_chain

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
    for larger n).  The tree is drawn as its chain
    (:func:`ultrametric.builders.space_from_chain`), heights as ranks into
    the allowed values: a merge's height is the gap between each two of its
    parts.  Raises InstanceTooLarge, before building anything, when the
    ``n^2`` matrix would pass :data:`CELL_BUDGET` cells.
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

    from .builders import space_from_chain

    return space_from_chain(labels, list(range(n)), gaps(n, positive), constraint.values)


def cli_gen(args) -> dict:
    """``ultrametric gen FAMILY ...``: a space of the named family."""
    if args.family == "two-point":
        space = two_point_space(args.c)
    elif args.family == "crowd":
        base = jsonio.load_space(args.space)
        space = crowd_family(base, args.base, args.c, args.n)
    elif args.family == "cauchy":
        space = cauchy_sequence(args.depth)
    else:
        constraint = spectrum_constraint(parse_rational_list(args.k))
        space = random_space(args.n, constraint, args.seed)
    return jsonio.space_to_obj(space)


def cli_in_uk(args) -> dict:
    """``ultrametric in-uk SPACE --k VALUES``."""
    space = jsonio.load_space(args.space)
    constraint = spectrum_constraint(parse_rational_list(args.k))
    membership = in_uk(space, constraint)
    if membership.member:
        return {"member": True}
    a, b, value = membership.witness
    return {"member": False, "witness": {"points": [a, b], "value": format_rational(value)}}


# perfbench/replay.py, kept unchanged, still imports single_linkage from here.
__getattr__ = _forward(__name__, {"single_linkage": "linkage"})
