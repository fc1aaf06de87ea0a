"""Dendrograms (merge trees) and isometry testing.

A finite ultrametric space is equivalent to a rooted tree whose leaves are the
points (at height 0) and whose internal nodes carry strictly decreasing
positive heights; the distance between two points is the height of their
lowest common ancestor.  This equivalence turns isometry testing into rooted
tree comparison.

Canonical form: at every node the children are sorted by the key
``(height, leaf count, canonical encoding)``, where the encoding is a
label-free string built bottom-up (the rooted-tree canonical form of Aho,
Hopcroft & Ullman).  Ties on all three components mean the subtrees are
identical as shapes, so any order among them represents the same isometry
class; for byte-deterministic output the tie is broken by the sorted tuple of
leaf labels.  Two spaces are isometric iff their canonical encodings are
equal, and a witness bijection falls out of walking the two canonical trees
in parallel.

Truncation: collapsing every subtree of height ``<= t`` into one point turns
the tree of a space into the tree of its closed-ball quotient at ``t``, so
:func:`truncated_canon` reads the quotient's canonical form off the tree
without building the quotient.  Every tree walk here is iterative, so the
depth of a tree is not bounded by the interpreter's recursion limit.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter

from .errors import MalformedTree
from .rationals import as_rational, format_rational
from .spaces import (
    ZERO,
    Record,
    UltrametricSpace,
    chain_matrix,
    merged_spectrum,
    space_from_ranks,
)


class Leaf(Record):
    label: str


class Merge(Record):
    height: Fraction
    children: tuple["Node", ...]


Node = Leaf | Merge


def node_height(node: Node) -> Fraction:
    return ZERO if isinstance(node, Leaf) else node.height


def leaf_labels(node: Node) -> tuple[str, ...]:
    """Leaf labels in tree order."""
    labels, stack = [], [node]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf):
            labels.append(node.label)
        else:
            stack.extend(reversed(node.children))
    return tuple(labels)


def truncated_canon(
    root: Node, t: Fraction | None = None, rank: dict[str, int] | None = None
) -> tuple[Node, tuple]:
    """Canonical form of ``root`` truncated at ``t``, and its sort key.

    Every subtree of height ``<= t`` becomes one point: a leaf named by its
    lowest-ranked label, the representative :func:`closed_quotient` keeps.
    With ``t`` None only the leaves are points and ``rank`` is unused.  The key
    is ``(height, point count, encoding, sorted point labels)``; only the first
    three components define the isometry class, the label tuple merely fixes
    the order of shape-identical siblings.  One post-order walk over the nodes
    above ``t``.
    """
    done: list[tuple[Node, tuple]] = []
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if isinstance(node, Leaf):
            done.append((node, (ZERO, 1, "p", (node.label,))))
        elif t is not None and node.height <= t:
            label = min(leaf_labels(node), key=rank.__getitem__)
            done.append((Leaf(label), (ZERO, 1, "p", (label,))))
        elif not expanded:
            stack.append((node, True))
            stack.extend((child, False) for child in reversed(node.children))
        else:
            start = len(done) - len(node.children)
            pairs = sorted(done[start:], key=itemgetter(1))
            del done[start:]
            keys = [pair[1] for pair in pairs]
            encoding = f"({format_rational(node.height)};{','.join(key[2] for key in keys)})"
            key = (
                node.height,
                sum(key[1] for key in keys),
                encoding,
                tuple(sorted(label for key in keys for label in key[3])),
            )
            done.append((Merge(node.height, tuple(pair[0] for pair in pairs)), key))
    return done[0]


def canonicalize(node: Node) -> Node:
    return truncated_canon(node)[0]


def encoding(node: Node) -> str:
    """Label-free canonical encoding; equal encodings == isometric spaces."""
    return truncated_canon(node)[1][2]


def leaf_pairing(a: Node, b: Node) -> dict[str, str]:
    """Pair the leaves of two canonical trees with equal encodings, position by position.

    Equal encodings force equal child key sequences, and shape-identical
    siblings may be paired either way.
    """
    mapping: dict[str, str] = {}
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if isinstance(a, Leaf):
            mapping[a.label] = b.label
        else:
            stack.extend(reversed(list(zip(a.children, b.children))))
    return mapping


def merge_tree(space: UltrametricSpace) -> Node:
    """Merge-tree of a space: the Cartesian tree of its chain's gaps.

    One pass along the order keeps a stack of open merges, lowest on top.  A
    gap closes every open merge below it and equal gaps join one merge, so no
    node has a child of its own height.
    """
    order, gaps = space._chain
    open_merges: list[tuple[int, list[Node]]] = []
    node: Node = Leaf(space.labels[order[0]])
    for gap, i in zip(gaps, order[1:]):
        while open_merges and open_merges[-1][0] < gap:
            r, children = open_merges.pop()
            node = Merge(space.values[r], (*children, node))
        if open_merges and open_merges[-1][0] == gap:
            open_merges[-1][1].append(node)
        else:
            open_merges.append((gap, [node]))
        node = Leaf(space.labels[i])
    for r, children in reversed(open_merges):
        node = Merge(space.values[r], (*children, node))
    return node


def to_dendrogram(space: UltrametricSpace) -> Node:
    """Merge-tree of a space, in canonical form."""
    return canonicalize(merge_tree(space))


def from_dendrogram(node: Node) -> UltrametricSpace:
    """Space whose distances are lowest-common-ancestor heights.

    Raises MalformedTree on structural defects: heights not strictly
    decreasing toward the leaves, internal nodes with fewer than two children,
    nonpositive heights, or duplicate leaf labels.  Nodes are checked in
    pre-order, each height read once and tested against its parent first.  A
    leaf meets the one before it at the parent of its lowest ancestor (or
    itself) that is not a first child, whose height the walk appends as their
    gap for :func:`chain_matrix`.  A tree that passes is ultrametric: where
    x meets y is at or below where z meets x or y, and heights grow toward
    the root.
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
    values, (_, gap_ranks) = merged_spectrum((ZERO,), gaps)
    matrix = chain_matrix(gap_ranks, [0] * len(order))
    return space_from_ranks(order, matrix, values)


def isometry_witness(x: UltrametricSpace, y: UltrametricSpace) -> dict[str, str] | None:
    """A distance-preserving bijection from x to y, or None.

    Compares the canonical encodings of the two merge trees; on a match,
    pairs leaves by walking the two canonical trees position by position.
    """
    if len(x) != len(y):
        return None
    (tx, kx), (ty, ky) = (truncated_canon(merge_tree(s)) for s in (x, y))
    if kx[2] != ky[2]:
        return None
    return leaf_pairing(tx, ty)


def isometric(x: UltrametricSpace, y: UltrametricSpace) -> bool:
    return isometry_witness(x, y) is not None
