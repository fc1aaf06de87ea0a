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
    find_root,
    minimum_spanning_tree,
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


def _points(root: Node, t: Fraction | None = None):
    """The maximal subtrees of height <= t in tree order; the leaves if t is None."""
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, Leaf) or (t is not None and node.height <= t):
            yield node
        else:
            stack.extend(reversed(node.children))


def leaf_labels(node: Node) -> tuple[str, ...]:
    """Leaf labels in tree order."""
    return tuple(leaf.label for leaf in _points(node))


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


def quotient_blocks(root: Node, t: Fraction, rank: dict[str, int]) -> list[tuple[str, ...]]:
    """Blocks of the closed-ball quotient at ``t``, ordered as :func:`closed_quotient` lists them.

    Each block is the leaf set of one maximal subtree of height ``<= t``, in
    ``rank`` order, and the blocks are ordered by their first label's rank.
    """
    blocks = [tuple(sorted(leaf_labels(sub), key=rank.__getitem__)) for sub in _points(root, t)]
    return sorted(blocks, key=lambda block: rank[block[0]])


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
    """Merge-tree of a space, children in construction order.

    Joins the clusters along the minimum spanning tree's edges in increasing
    weight (single linkage, which is exact on an ultrametric), comparing
    ranks; a merge's height is its edge's value.  A merge at the height of a
    cluster it joins absorbs that cluster's children, so no node has a child
    of its own height.
    """
    cluster_of = list(range(len(space)))
    nodes: list[Node] = [Leaf(label) for label in space.labels]
    level = [0] * len(space)  # rank of each cluster's height, leaves at rank 0
    for a, b, r in sorted(minimum_spanning_tree(space.ranks), key=itemgetter(2)):
        ra, rb = find_root(cluster_of, a), find_root(cluster_of, b)
        children = tuple(
            child
            for root in (ra, rb)
            for child in (nodes[root].children if level[root] == r else (nodes[root],))
        )
        cluster_of[rb] = ra
        nodes[ra] = Merge(space.values[r], children)
        level[ra] = r
    return nodes[find_root(cluster_of, 0)]


def to_dendrogram(space: UltrametricSpace) -> Node:
    """Merge-tree of a space, in canonical form."""
    return canonicalize(merge_tree(space))


def from_dendrogram(node: Node) -> UltrametricSpace:
    """Space whose distances are lowest-common-ancestor heights.

    Raises MalformedTree on structural defects: heights not strictly
    decreasing toward the leaves, internal nodes with fewer than two children,
    nonpositive heights, or duplicate leaf labels.  Nodes are checked in
    pre-order, each against its parent first.
    """
    order: list[str] = []
    # One [height, boundaries] record per internal node: the leaf index where
    # each child's leaves start, then the index one past the node's last leaf.
    merges: list[tuple[Fraction, list[int]]] = []
    stack: list[tuple[Node | None, tuple[Fraction, list[int]] | None]] = [(node, None)]
    while stack:
        current, parent = stack.pop()
        if current is None:  # every leaf below ``parent`` is numbered
            parent[1].append(len(order))
            continue
        if parent is not None:
            if node_height(current) >= parent[0]:
                raise MalformedTree(
                    f"child height {format_rational(node_height(current))} does not "
                    f"decrease below parent height {format_rational(parent[0])}"
                )
            parent[1].append(len(order))
        if isinstance(current, Leaf):
            order.append(current.label)
            continue
        height = as_rational(current.height)
        if height <= 0:
            raise MalformedTree(
                f"internal node height {format_rational(height)} is not positive"
            )
        if len(current.children) < 2:
            raise MalformedTree("internal node has fewer than two children")
        record = (height, [])
        merges.append(record)
        stack.append((None, record))
        stack.extend((child, record) for child in reversed(current.children))
    if len(set(order)) != len(order):
        raise MalformedTree("duplicate leaf labels")
    n = len(order)
    values = [ZERO, *sorted({height for height, _ in merges})]
    rank = {height: r for r, height in enumerate(values)}
    matrix = [[0] * n for _ in range(n)]
    for height, bounds in merges:
        # A leaf meets the node's leaves outside its own child at this height.
        r = rank[height]
        start, end = bounds[0], bounds[-1]
        for lo, hi in zip(bounds, bounds[1:]):
            for i in range(lo, hi):
                row = matrix[i]
                row[start:lo] = [r] * (lo - start)
                row[hi:end] = [r] * (end - hi)
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
