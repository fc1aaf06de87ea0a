"""Dendrograms (merge trees) and isometry testing.

A finite ultrametric space is equivalent to a rooted tree whose leaves are the
points (at height 0) and whose internal nodes carry strictly decreasing
positive heights; the distance between two points is the height of their
lowest common ancestor.  This equivalence turns isometry testing into rooted
tree comparison.

Canonical form: at every node the children are sorted by the key
``(height, leaf count, canonical encoding)``, where the encoding is a
label-free string built bottom-up.  Ties on all three components mean the
subtrees are identical as shapes, so any order among them represents the same
isometry class; for byte-deterministic output the tie is broken by the sorted
tuple of leaf labels.  Two spaces are isometric iff their canonical encodings
are equal, and a witness bijection falls out of walking the two canonical
trees in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import MalformedTree
from .rationals import as_rational, format_rational
from .spaces import (
    ZERO,
    UltrametricSpace,
    find_root,
    minimum_spanning_tree,
    spectrum,
    validate_ultrametric,
)


@dataclass(frozen=True)
class Leaf:
    label: str


@dataclass(frozen=True)
class Merge:
    height: Fraction
    children: tuple["Node", ...]


Node = Leaf | Merge


def node_height(node: Node) -> Fraction:
    return ZERO if isinstance(node, Leaf) else node.height


def leaf_labels(node: Node) -> tuple[str, ...]:
    """Leaf labels in tree order."""
    if isinstance(node, Leaf):
        return (node.label,)
    out: list[str] = []
    for child in node.children:
        out.extend(leaf_labels(child))
    return tuple(out)


def _canon(node: Node) -> tuple[Node, tuple]:
    """Return (canonical node, sort key).

    The key is ``(height, leaf count, encoding, leaf label tuple)``; only the
    first three components define the isometry class, the label tuple merely
    fixes the order of shape-identical siblings.
    """
    if isinstance(node, Leaf):
        return node, (ZERO, 1, "p", (node.label,))
    pairs = [_canon(child) for child in node.children]
    pairs.sort(key=lambda pair: pair[1])
    children = tuple(pair[0] for pair in pairs)
    count = sum(pair[1][1] for pair in pairs)
    encoding = f"({format_rational(node.height)};{','.join(pair[1][2] for pair in pairs)})"
    labels = tuple(sorted(label for pair in pairs for label in pair[1][3]))
    return Merge(node.height, children), (node.height, count, encoding, labels)


def canonicalize(node: Node) -> Node:
    return _canon(node)[0]


def encoding(node: Node) -> str:
    """Label-free canonical encoding; equal encodings == isometric spaces."""
    return _canon(node)[1][2]


def to_dendrogram(space: UltrametricSpace) -> Node:
    """Merge-tree of a space, in canonical form.

    Joins the clusters along the minimum spanning tree's edges in increasing
    weight (single linkage, which is exact on an ultrametric).  A merge at the
    height of a cluster it joins absorbs that cluster's children, so no node
    has a child of its own height.
    """
    cluster_of = list(range(len(space)))
    nodes: list[Node] = [Leaf(label) for label in space.labels]
    for a, b, weight in sorted(minimum_spanning_tree(space.dist), key=lambda edge: edge[2]):
        ra, rb = find_root(cluster_of, a), find_root(cluster_of, b)
        children = tuple(
            child
            for node in (nodes[ra], nodes[rb])
            for child in (node.children if node_height(node) == weight else (node,))
        )
        cluster_of[rb] = ra
        nodes[ra] = Merge(weight, children)
    return canonicalize(nodes[find_root(cluster_of, 0)])


def from_dendrogram(node: Node) -> UltrametricSpace:
    """Space whose distances are lowest-common-ancestor heights.

    Raises MalformedTree on structural defects: heights not strictly
    decreasing toward the leaves, internal nodes with fewer than two children,
    nonpositive heights, or duplicate leaf labels.
    """
    entries: dict[tuple[int, int], Fraction] = {}

    def walk(current: Node) -> list[int]:
        if isinstance(current, Leaf):
            index = len(order)
            order.append(current.label)
            return [index]
        height = as_rational(current.height)
        if height <= 0:
            raise MalformedTree(
                f"internal node height {format_rational(height)} is not positive"
            )
        if len(current.children) < 2:
            raise MalformedTree("internal node has fewer than two children")
        groups = []
        for child in current.children:
            if node_height(child) >= height:
                raise MalformedTree(
                    f"child height {format_rational(node_height(child))} does not "
                    f"decrease below parent height {format_rational(height)}"
                )
            groups.append(walk(child))
        for g in range(len(groups)):
            for h in range(g + 1, len(groups)):
                for i in groups[g]:
                    for j in groups[h]:
                        entries[(i, j)] = height
        return [i for group in groups for i in group]

    order: list[str] = []
    walk(node)
    if len(set(order)) != len(order):
        raise MalformedTree("duplicate leaf labels")
    n = len(order)
    matrix = [[ZERO] * n for _ in range(n)]
    for (i, j), height in entries.items():
        matrix[i][j] = height
        matrix[j][i] = height
    return validate_ultrametric(order, matrix)


def isometry_witness(x: UltrametricSpace, y: UltrametricSpace) -> dict[str, str] | None:
    """A distance-preserving bijection from x to y, or None.

    Compares canonical encodings; on a match, pairs leaves by walking the two
    canonical trees position by position (equal encodings force equal child
    key sequences, and shape-identical siblings may be paired either way).
    """
    if len(x) != len(y) or spectrum(x) != spectrum(y):
        return None
    tx, ty = to_dendrogram(x), to_dendrogram(y)
    if encoding(tx) != encoding(ty):
        return None
    mapping: dict[str, str] = {}

    def pair(a: Node, b: Node) -> None:
        if isinstance(a, Leaf):
            assert isinstance(b, Leaf)
            mapping[a.label] = b.label
            return
        assert isinstance(b, Merge) and len(a.children) == len(b.children)
        for ca, cb in zip(a.children, b.children):
            pair(ca, cb)

    pair(tx, ty)
    return mapping


def isometric(x: UltrametricSpace, y: UltrametricSpace) -> bool:
    return isometry_witness(x, y) is not None
