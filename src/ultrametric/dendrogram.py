"""Dendrograms (merge trees) and isometry testing.

A finite ultrametric space is equivalent to a rooted tree whose leaves are the
points (at height 0) and whose internal nodes carry strictly decreasing
positive heights; the distance between two points is the height of their
lowest common ancestor.  This equivalence turns isometry testing into rooted
tree comparison.

Canonical form: every tree here is built from a chain, points in one order
with ``d = max(gaps between)`` (kept as ``space._chain``), by one
stack pass (:func:`chain_canon`) that sorts each merge's children as it
closes the merge, by the key ``(height rank, leaf count, encoding)``; the
encoding is a label-free string built bottom-up (the rooted-tree canonical
form of Aho, Hopcroft & Ullman).  Ties on all three mean identical shapes, so
for byte-deterministic output the lowest leaf label breaks them.  Two spaces
are isometric iff their canonical encodings are equal, and then the k-th
leaves of the two canonical trees correspond.

Truncation: the closed balls of radius ``t`` are the runs of the chain cut at
the gaps above ``t``, so :func:`quotient_canon` runs the same pass on the
runs' lowest-index points and the cut gaps.  A pass costs the total length of
its encodings, ``O(n log n)`` at logarithmic depth and ``O(n^2)`` on a
caterpillar.  Nothing here recurses, so the depth of a tree is not bounded by
the interpreter's recursion limit.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter

from .errors import MalformedTree
from .rationals import as_rational, format_rational
from .spaces import ZERO, Record, UltrametricSpace, _check_labels, chain_runs, merged_spectrum
from .spaces import space_from_chain


class Leaf(Record):
    label: str


class Merge(Record):
    height: Fraction
    children: tuple["Node", ...]

    def _astuple(self) -> tuple:
        """The tree in pre-order, a leaf as its label and a merge as
        ``(height, child count)``: equality and hash without recursion."""
        return tuple(
            node.label if isinstance(node, Leaf) else (node.height, len(node.children))
            for node in _preorder(self)
        )

    def __repr__(self) -> str:  # compact, subtrees omitted
        labels = list(map(str, leaf_labels(self)))
        shown = ", ".join(labels[:6]) + ("..." if len(labels) > 6 else "")
        return f"Merge(height {self.height}, {len(labels)} leaves: {shown})"


Node = Leaf | Merge


def _preorder(node: Node):
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Merge):
            stack.extend(reversed(node.children))


def leaf_labels(node: Node) -> tuple[str, ...]:
    """Leaf labels in tree order."""
    return tuple(node.label for node in _preorder(node) if isinstance(node, Leaf))


def chain_canon(labels, gaps, values) -> tuple[Node, tuple]:
    """Canonical merge tree of a chain, and its sort key.

    ``gaps[p]``, a positive rank into ``values``, lies between ``labels[p]``
    and ``labels[p + 1]``.  A stack holds the open merges, lowest on top: a
    gap closes every open merge below it and equal gaps join one merge, so no
    node has a child of its own height.  A closing merge sorts its children by
    key ``(height rank, point count, encoding, lowest point label)``; the
    label only orders shape-identical siblings, whose label sets are disjoint.
    """

    def close(rank, parts):
        nodes, keys = zip(*sorted(parts, key=itemgetter(1)))
        encoding = f"({format_rational(values[rank])};{','.join(key[2] for key in keys)})"
        key = (rank, sum(key[1] for key in keys), encoding, min(key[3] for key in keys))
        return Merge(values[rank], nodes), key

    open_merges: list[tuple[int, list]] = []
    # A last gap above every rank closes the merges still open.
    for label, gap in zip(labels, (*gaps, len(values))):
        part = Leaf(label), (0, 1, "p", label)
        while open_merges and open_merges[-1][0] < gap:
            rank, parts = open_merges.pop()
            part = close(rank, [*parts, part])
        if open_merges and open_merges[-1][0] == gap:
            open_merges[-1][1].append(part)
        else:
            open_merges.append((gap, [part]))
    return part


def quotient_canon(space: UltrametricSpace, t=0) -> tuple[Node, tuple]:
    """Canonical merge tree of the closed-ball quotient at ``t``, and its key.

    Each run of :func:`ultrametric.spaces.chain_runs` becomes its lowest-index
    point, as in :func:`closed_quotient`, with the cut gaps between them.  At
    ``t = 0`` the runs are single points: the tree of the space.
    """
    runs, gaps = chain_runs(space, t)
    return chain_canon([space.labels[min(run)] for run in runs], gaps, space.values)


def _tree_canon(node: Node) -> tuple[Node, tuple]:
    return chain_canon(*_tree_chain(node))


def canonicalize(node: Node) -> Node:
    """The canonical form of a tree; raises MalformedTree as :func:`from_dendrogram` does."""
    return _tree_canon(node)[0]


def encoding(node: Node) -> str:
    """Label-free canonical encoding; equal encodings == isometric spaces."""
    return _tree_canon(node)[1][2]


def leaf_pairing(a: Node, b: Node) -> dict[str, str]:
    """Pair the leaves of two canonical trees with equal encodings, position by position.

    Equal encodings mean equal shapes with children in the same order, so the
    k-th leaves correspond; shape-identical siblings may be paired either way.
    """
    return dict(zip(leaf_labels(a), leaf_labels(b)))


def to_dendrogram(space: UltrametricSpace) -> Node:
    """Merge-tree of a space, in canonical form."""
    return quotient_canon(space)[0]


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


def isometry_witness(x: UltrametricSpace, y: UltrametricSpace) -> dict[str, str] | None:
    """A distance-preserving bijection from x to y, or None.

    Compares the canonical encodings of the two merge trees; on a match,
    pairs leaves by their positions in the two canonical trees.
    """
    if len(x) != len(y):
        return None
    (tx, kx), (ty, ky) = quotient_canon(x), quotient_canon(y)
    if kx[2] != ky[2]:
        return None
    return leaf_pairing(tx, ty)


def isometric(x: UltrametricSpace, y: UltrametricSpace) -> bool:
    return isometry_witness(x, y) is not None
