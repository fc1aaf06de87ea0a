"""Shared builders for the test suite.

Everything random is seeded; suites state their seeds explicitly so failures
replay exactly.
"""

from __future__ import annotations

import os
import pkgutil
import random
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from importlib import import_module
from operator import itemgetter
from pathlib import Path

import pytest

import ultrametric
from ultrametric import (
    GlueSpec,
    Leaf,
    Merge,
    UltrametricSpace,
    cauchy_sequence,
    crowd_family,
    glue,
    random_space,
    restrict,
    spectrum_constraint,
    validate_ultrametric,
)
from ultrametric import builders, spaces
from ultrametric.amalgam import ChainGlueResult
from ultrametric.dendrogram import leaf_labels
from ultrametric.errors import EmptyChain, InputFormat, UltrametricError, UnknownLabel
from ultrametric.rationals import as_rational, format_rational
from ultrametric.spaces import ZERO

from cli_corpus import GOLDEN

ROOT = Path(__file__).resolve().parent.parent
# bench/ on the path, so that tests ``import growth``, the growth bench.
sys.path.insert(0, str(ROOT / "bench"))

# Taken at import, so a test that patches ``spaces._check_axioms`` to count
# calls sees only the library's own.
BUILD_SPACE = builders.space_from_chain
CHECK_AXIOMS = spaces._check_axioms


def rechecked_space_from_chain(labels, order, gaps, values) -> UltrametricSpace:
    """``space_from_chain``, then the checks it leaves to where data enters:
    distinct string labels, and the axiom scan its proof stands in for."""
    space = BUILD_SPACE(labels, order, gaps, values)
    assert all(type(l) is str for l in space.labels), f"a label is not a string: {space.labels}"
    assert len(set(space.labels)) == len(space), f"a label repeats: {space.labels}"
    try:
        checked = CHECK_AXIOMS(space.labels, space.ranks, space.values)
    except UltrametricError as exc:
        raise AssertionError(f"a construction built a non-ultrametric space: {exc}") from exc
    assert checked == space
    return space


def modules_holding(name: str, obj) -> list:
    """The library's modules that hold ``obj`` under ``name``: every module
    is imported, so one that imports it at top level is among them."""
    return [
        module
        for module in (
            import_module(f"ultrametric.{info.name}")
            for info in pkgutil.iter_modules(ultrametric.__path__)
            if info.name != "__main__"
        )
        if getattr(module, name, None) is obj
    ]


BUILDER_MODULES = modules_holding("space_from_chain", BUILD_SPACE)
# Where a test patches Prim's pass to count it.
PRIM_MODULES = modules_holding("chain_order", spaces.chain_order)


@pytest.fixture(autouse=True)
def recheck_constructions(monkeypatch):
    """Every space a construction builds in a test goes through the checks
    its builder leaves out, in every module that imports the builder."""
    for module in BUILDER_MODULES:
        monkeypatch.setattr(module, "space_from_chain", rechecked_space_from_chain)


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


def folded_chain_glue(spaces, identifications) -> ChainGlueResult:
    """``chain_glue`` as a left fold of ``glue``: each link's left labels are
    resolved through the space glued so far, every earlier embedding is
    composed with the new glue's left map, and an error gets its ``link``."""
    spaces = list(spaces)
    identifications = list(identifications)
    if not spaces:
        raise EmptyChain("chain_glue needs at least one space")
    if len(identifications) != len(spaces) - 1:
        raise EmptyChain(
            f"{len(spaces)} spaces need {len(spaces) - 1} identification lists, "
            f"got {len(identifications)}"
        )
    current = spaces[0]
    embeddings = [{l: l for l in current.labels}]
    for link, (nxt, pairs) in enumerate(zip(spaces[1:], identifications)):
        try:
            resolved = tuple((embeddings[link][a], b) for a, b in pairs)
        except KeyError as exc:
            raise UnknownLabel(
                f"link {link}: point {exc.args[0]!r} is not in space {link} of the chain",
                label=exc.args[0],
                link=link,
            ) from None
        spec = GlueSpec(current, nxt, resolved)
        try:
            glued = glue(spec)
        except UltrametricError as exc:
            exc.details["link"] = link
            raise
        left, right = builders.side_by_side(current, nxt, resolved)
        embeddings = [{orig: left[cur] for orig, cur in emb.items()} for emb in embeddings]
        embeddings.append(right)
        current = glued
    return ChainGlueResult(current, tuple(embeddings))


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


def merge_tree(space: UltrametricSpace):
    """Merge tree of a space, children in chain order: the Cartesian tree of
    its chain's gaps, with Fraction heights.

    The stack pass ``dendrogram.chain_canon`` makes, without sorting a
    merge's children as it closes.  Reference for the library's trees,
    together with :func:`truncated_canon`.
    """
    order, gaps = space._chain
    open_merges = []
    node = Leaf(space.labels[order[0]])
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


def truncated_canon(root, t: Fraction | None = None, rank: dict[str, int] | None = None):
    """Canonical form of a tree truncated at ``t``, and its sort key, by a
    post-order walk that compares Fraction heights.

    Every subtree of height ``<= t`` becomes one point: a leaf named by its
    lowest-ranked label.  With ``t`` None only the leaves are points.  The key
    is ``(height, point count, encoding, lowest point label)``.  The walk the
    library ran on :func:`merge_tree` before ``dendrogram.quotient_canon``
    read the quotient's chain instead.
    """
    done = []
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if isinstance(node, Leaf):
            done.append((node, (ZERO, 1, "p", node.label)))
        elif t is not None and node.height <= t:
            label = min(leaf_labels(node), key=rank.__getitem__)
            done.append((Leaf(label), (ZERO, 1, "p", label)))
        elif not expanded:
            stack.append((node, True))
            stack.extend((child, False) for child in reversed(node.children))
        else:
            start = len(done) - len(node.children)
            pairs = sorted(done[start:], key=itemgetter(1))
            del done[start:]
            keys = [pair[1] for pair in pairs]
            encoding = f"({format_rational(node.height)};{','.join(key[2] for key in keys)})"
            key = (node.height, sum(key[1] for key in keys), encoding, min(key[3] for key in keys))
            done.append((Merge(node.height, tuple(pair[0] for pair in pairs)), key))
    return done[0]


def rank_entries(matrix) -> tuple[list[list[int]], list[Fraction]]:
    """``spaces.rank_image`` entry by entry: the loop it ran on every matrix
    that was not all well-formed strings, kept as its reference.  Each row
    must be a list or tuple as long as the matrix.

    Each distinct spelling or value is parsed once and numbered by a
    provisional id, which one sort of the distinct values remaps to its rank.
    """
    # A string is keyed by its spelling, anything else by its reduced value.
    ids: dict = {(0, 1): 0}
    parsed = [ZERO]
    id_rows = []
    for i, row in enumerate(matrix):
        if not isinstance(row, (list, tuple)):
            raise InputFormat(f"matrix row {i} is not a list")
        if len(row) != len(matrix):
            raise InputFormat(f"matrix row {i} has {len(row)} entries, expected {len(matrix)}")
        id_row = []
        for v in row:
            if type(v) is str:
                key = v
            else:
                value = v if type(v) is Fraction else as_rational(v)
                key = (value.numerator, value.denominator)
            pid = ids.get(key)
            if pid is None:
                pid = ids[key] = len(parsed)
                # A string is parsed here only, so its first bad spelling raises.
                parsed.append(as_rational(v) if type(v) is str else value)
            id_row.append(pid)
        id_rows.append(id_row)
    values, (rank_of,) = builders.merged_spectrum(parsed)
    return [list(map(rank_of.__getitem__, row)) for row in id_rows], values


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


@pytest.fixture
def digit_limits():
    """Iterating sets the interpreter's integer string limit to each of 0
    (none), 640 (the least it takes), 4300 (the default) and 5000 in turn,
    and yields the digit bound the library must apply under it; the old
    limit comes back after the test."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("the interpreter has no integer string limit")
    saved = sys.get_int_max_str_digits()

    def each():
        for limit in (0, 640, 4300, 5000):
            sys.set_int_max_str_digits(limit)
            yield min(limit or 4300, 4300)

    try:
        yield each()
    finally:
        sys.set_int_max_str_digits(saved)


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


def run_child(args, cwd=GOLDEN, path=(), buffered=False, **options):
    """``subprocess.run(args, **options)`` from ``cwd``, ``tests/golden``
    unless named, with ``path`` and then ``src`` first on PYTHONPATH: from
    there a relative PYTHONPATH would miss ``src``.  ``buffered`` unsets
    PYTHONUNBUFFERED, so a piped stdout is block-buffered as it is by
    default."""
    paths = [*map(str, path), str(ROOT / "src")]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    if buffered:
        env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run(args, cwd=cwd, env=env, **options)
