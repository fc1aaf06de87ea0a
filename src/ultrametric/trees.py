"""Spaces read from merge trees.

A tree is read as the chain of its leaves (:func:`_tree_chain`), checked as
it is read, and the chain goes to the one builder
:func:`ultrametric.builders.space_from_chain`.  The canonical forms of
:mod:`ultrametric.dendrogram` read a tree the same way.  No CLI job loads
this module.
"""

from fractions import Fraction

from .builders import merged_spectrum, space_from_chain
from .dendrogram import Leaf, Node
from .errors import MalformedTree
from .rationals import as_rational, format_rational
from .spaces import ZERO, UltrametricSpace, _check_labels


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
