"""Hausdorff distance between point subsets, nets, and subspace extraction.

For finite sets the Hausdorff distance is attained, so the usual infimum over
neighborhood radii collapses to the exact max-min formula used here.  The
handlers of the ``hausdorff`` and ``net`` verbs live here; ``hausdorff``
reads its subsets with :func:`ultrametric.jsonio.load_subset`.
"""

from fractions import Fraction

from . import jsonio
from .errors import DuplicateLabel, EmptySubset, InputFormat, InvalidParameter
from .rationals import as_rational, format_rational
from .spaces import UltrametricSpace, closed_balls


def _subset_indices(space: UltrametricSpace, subset, name: str) -> list[int]:
    if isinstance(subset, str):
        raise InputFormat(f"{name} must be a list of labels, not a string")
    labels = list(subset)
    if not labels:
        raise EmptySubset(f"{name} is empty")
    indices = [space.index(label) for label in labels]
    if len(set(indices)) != len(indices):
        dup = next(l for l in labels if labels.count(l) > 1)
        raise DuplicateLabel(f"{name} repeats point {dup!r}", label=dup)
    return indices


def hausdorff_distance(space: UltrametricSpace, a, b) -> Fraction:
    """max(max_{x in a} min_{y in b} d(x,y), max_{y in b} min_{x in a} d(x,y)), on ranks."""
    ia = _subset_indices(space, a, "subset A")
    ib = _subset_indices(space, b, "subset B")
    ranks = space.ranks
    # The matrix is symmetric, so both directions read rows.
    forward = max(min(map(ranks[i].__getitem__, ib)) for i in ia)
    backward = max(min(map(ranks[j].__getitem__, ia)) for j in ib)
    return space.values[max(forward, backward)]


def restrict(space: UltrametricSpace, subset) -> UltrametricSpace:
    """Induced subspace on the given points, kept in source label order."""
    from .builders import subspace

    return subspace(space, sorted(_subset_indices(space, subset, "the subset")))


def epsilon_net(space: UltrametricSpace, eps) -> tuple[str, ...]:
    """Greedy net: scan points in label order, keep those farther than eps
    from every point kept so far.

    The result covers the space within eps and is eps-separated (all pairwise
    distances strictly exceed eps).  The closed eps-balls partition the
    space, so the greedy scan keeps exactly the first point of each ball
    (:func:`closed_balls`).
    """
    eps = as_rational(eps)
    if eps <= 0:
        raise InvalidParameter(f"eps must be > 0, got {format_rational(eps)}")
    return tuple(space.labels[ball[0]] for ball in closed_balls(space, eps))


def cli_hausdorff(args) -> dict:
    """``ultrametric hausdorff SPACE --a SUBSET --b SUBSET``."""
    space = jsonio.load_space(args.space)
    value = hausdorff_distance(space, jsonio.load_subset(args.a), jsonio.load_subset(args.b))
    return {"value": format_rational(value)}


def cli_net(args) -> list[str]:
    """``ultrametric net SPACE --eps EPS``."""
    space = jsonio.load_space(args.space)
    return list(epsilon_net(space, args.eps))
