"""Shared builders for the test suite.

Everything random is seeded; suites state their seeds explicitly so failures
replay exactly.
"""

from __future__ import annotations

import random
import sys
from contextlib import contextmanager
from fractions import Fraction

import pytest

from ultrametric import (
    GlueSpec,
    Leaf,
    UltrametricSpace,
    cauchy_sequence,
    crowd_family,
    random_space,
    restrict,
    spectrum_constraint,
    validate_ultrametric,
)
from ultrametric import amalgam, certificates, generators, spaces
from ultrametric.errors import UltrametricError
from ultrametric.rationals import as_rational

# Taken at import, so a test that patches ``spaces._check_axioms`` to count
# calls sees only the library's own.
BUILD_SPACE = spaces.space_from_ranks
CHECK_AXIOMS = spaces._check_axioms


def rechecked_space_from_ranks(labels, ranks, values) -> UltrametricSpace:
    """``space_from_ranks``, then the axiom scan it leaves to each builder's proof."""
    space = BUILD_SPACE(labels, ranks, values)
    try:
        checked = CHECK_AXIOMS(space.labels, space.ranks, space.values)
    except UltrametricError as exc:
        raise AssertionError(f"a construction built a non-ultrametric space: {exc}") from exc
    assert checked == space
    return space


@pytest.fixture(autouse=True)
def recheck_constructions(monkeypatch):
    """Every space a construction builds in a test goes through the axiom scan."""
    for module in (spaces, amalgam, generators, certificates):
        monkeypatch.setattr(module, "space_from_ranks", rechecked_space_from_ranks)


def make_space(labels, entries) -> UltrametricSpace:
    """Build a space from {(a, b): value} with symmetry and zeros implied."""
    labels = list(labels)
    index = {l: i for i, l in enumerate(labels)}
    n = len(labels)
    matrix = [["0"] * n for _ in range(n)]
    for (a, b), value in entries.items():
        matrix[index[a]][index[b]] = value
        matrix[index[b]][index[a]] = value
    return validate_ultrametric(labels, matrix)


@pytest.fixture
def isosceles():
    """d(a,b)=1, d(a,c)=d(b,c)=2: the running three-point example."""
    return make_space("abc", {("a", "b"): 1, ("a", "c"): 2, ("b", "c"): 2})


SIX_VALUES = spectrum_constraint(["0", "1/8", "1/4", "3/8", "1/2", "1"])


def deep_and_wide() -> list[UltrametricSpace]:
    """A 41-point caterpillar (every merge has a leaf child) and a space whose
    lowest merge joins 21 points at one height."""
    return [cauchy_sequence(40), crowd_family(cauchy_sequence(5), "1/32", Fraction(1, 64), 20)]


def random_glue_spec(rng: random.Random, max_side: int = 7) -> GlueSpec:
    """Random valid glue spec: two overlapping subspaces of a random space.

    The right side is freshly relabeled so the identification map is
    exercised rather than being a trivial identity.
    """
    host = random_space(rng.randint(2, 10), SIX_VALUES, rng.randrange(10**9))
    labels = list(host.labels)
    rng.shuffle(labels)
    na = rng.randint(1, min(max_side, len(labels)))
    overlap = rng.randint(1, na)
    extra = rng.randint(0, min(max_side - overlap, len(labels) - na))
    left = restrict(host, labels[:na])
    right_raw = restrict(host, labels[na - overlap : na + extra])
    right = validate_ultrametric([f"m:{l}" for l in right_raw.labels], right_raw.dist)
    identify = tuple((l, f"m:{l}") for l in labels[na - overlap : na])
    return GlueSpec(left, right, identify)


def prim_edges(matrix) -> list[tuple[int, int, object]]:
    """Prim's tree of a symmetric matrix, grown from point 0.

    Returns ``(parent, child, weight)`` edges in the order the children
    joined, so every parent is point 0 or an earlier child.  Entries only
    need to compare, so ranks and Fractions both work.
    """
    weight = list(matrix[0])
    source = [0] * len(matrix)
    left = list(range(1, len(matrix)))
    edges = []
    while left:
        child = min(left, key=weight.__getitem__)
        left.remove(child)
        edges.append((source[child], child, weight[child]))
        row = matrix[child]
        for k in left:
            if row[k] < weight[k]:
                weight[k] = row[k]
                source[k] = child
    return edges


def find_root(parent: list[int], i: int) -> int:
    """Union-find root of ``i``, halving the path on the way."""
    while parent[i] != i:
        parent[i] = parent[parent[i]]
        i = parent[i]
    return i


def quotient_blocks(root, t: Fraction, rank: dict[str, int]) -> list[tuple[str, ...]]:
    """Blocks of the closed-ball quotient at ``t``, read off a merge tree.

    Each block is the leaf set of one maximal subtree of height ``<= t``, in
    ``rank`` order, and the blocks are ordered by their first label's rank.
    The tree-walk reference for ``spaces.closed_balls``.
    """
    blocks, stack = [], [(root, None)]
    while stack:
        node, block = stack.pop()
        if block is None and (isinstance(node, Leaf) or node.height <= t):
            block = []
            blocks.append(block)
        if isinstance(node, Leaf):
            block.append(node.label)
        else:
            stack.extend((child, block) for child in node.children)
    blocks = [tuple(sorted(block, key=rank.__getitem__)) for block in blocks]
    return sorted(blocks, key=lambda block: rank[block[0]])


def spellings(value: Fraction) -> list:
    """Ways to write ``value`` that must all read as the same distance."""
    p, q = value.numerator, value.denominator
    out = [f"{p}/{q}", f"{2 * p}/{2 * q}", f" {p}/{q}", value]
    if q == 1:
        out += [str(p), p, f"{p}.0", f"{p}e0"]
    if 1000 % q == 0:
        out += [f"{p * 1000 // q / 1000}", f"{p * (1000 // q)}e-3"]
    if p == 0:
        out += ["-0", "0.000", 0]
    return out


def respelled(rng: random.Random, matrix):
    return [[rng.choice(spellings(as_rational(v))) for v in row] for row in matrix]


@contextmanager
def shallow_recursion(headroom: int = 100):
    """Lower the recursion limit to the current stack depth plus ``headroom``.

    Code run inside then fails on any recursion deeper than ``headroom``
    frames, so a tree a few hundred levels deep proves a walk iterative.
    """
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + headroom)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)
