"""Differential tests for the readers of a space's rank matrix.

A space stores its spectrum ``values`` and the matrix ``ranks`` of positions
in it, and every reader that only compares distances reads the ranks.  The
references below are the Fraction versions those readers replaced: each scans
the matrix of Fractions.  Spaces are read from matrices that spell equal
values in different ways, and every reader must agree with its reference.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction
from itertools import combinations

from ultrametric import (
    Leaf,
    Merge,
    UghResult,
    certificate,
    closed_quotient,
    crowd_family,
    epsilon_net,
    from_dendrogram,
    glue,
    hausdorff_distance,
    in_uk,
    random_space,
    restrict,
    spectrum,
    spectrum_agreement,
    spectrum_constraint,
    to_dendrogram,
    two_point_space,
    ugh_distance,
    validate_ultrametric,
)
from ultrametric.dendrogram import leaf_pairing
from ultrametric.jsonio import space_to_obj
from ultrametric.rationals import as_rational, format_rational
from ultrametric.spaces import closed_balls

from conftest import (
    deep_and_wide,
    find_root,
    prim_edges,
    quotient_blocks,
    random_glue_spec,
    respelled,
    truncated_canon,
)

VALUES = ["0", "1/8", "1/4", "3/8", "1/2", "5/8", "3/4", "1", "3/2", "2"]

# The stored form the readers used to scan: labels and Fractions.
Plain = namedtuple("Plain", "labels dist")


def reference_spectrum(s: Plain) -> tuple[Fraction, ...]:
    return tuple(sorted({Fraction(0), *(v for row in s.dist for v in row)}))


def reference_diameter(s: Plain) -> Fraction:
    return max((v for row in s.dist for v in row), default=Fraction(0))


def reference_min_positive(s: Plain) -> Fraction | None:
    positive = [v for row in s.dist for v in row if v > 0]
    return min(positive) if positive else None


def reference_quotient(s: Plain, t: Fraction):
    """Blocks, labels and matrix of the closed-ball quotient at ``t``."""
    n = len(s.labels)
    assigned = [False] * n
    block_indices = []
    for i in range(n):
        if assigned[i]:
            continue
        members = [j for j in range(n) if not assigned[j] and s.dist[i][j] <= t]
        for j in members:
            assigned[j] = True
        block_indices.append(members)
    reps = [members[0] for members in block_indices]
    blocks = tuple(tuple(s.labels[j] for j in members) for members in block_indices)
    labels = tuple(s.labels[r] for r in reps)
    return blocks, labels, tuple(tuple(s.dist[a][b] for b in reps) for a in reps)


def reference_hausdorff(s: Plain, a, b) -> Fraction:
    ia = [s.labels.index(label) for label in a]
    ib = [s.labels.index(label) for label in b]
    forward = max(min(s.dist[i][j] for j in ib) for i in ia)
    backward = max(min(s.dist[i][j] for i in ia) for j in ib)
    return max(forward, backward)


def reference_net(s: Plain, eps: Fraction) -> tuple[str, ...]:
    kept = []
    for i in range(len(s.labels)):
        if all(s.dist[i][j] > eps for j in kept):
            kept.append(i)
    return tuple(s.labels[i] for i in kept)


def reference_in_uk(s: Plain, allowed) -> tuple[bool, tuple | None]:
    allowed = set(allowed)
    for i, j in combinations(range(len(s.labels)), 2):
        if s.dist[i][j] not in allowed:
            return False, (s.labels[i], s.labels[j], s.dist[i][j])
    return True, None


def reference_merge_tree(s: Plain):
    """Prim's tree on Fractions, then the union-find merge along its edges."""
    cluster_of = list(range(len(s.labels)))
    nodes = [Leaf(label) for label in s.labels]
    for a, b, w in sorted(prim_edges(s.dist), key=lambda edge: edge[2]):
        ra, rb = find_root(cluster_of, a), find_root(cluster_of, b)
        children = tuple(
            child
            for node in (nodes[ra], nodes[rb])
            for child in (node.children if isinstance(node, Merge) and node.height == w else (node,))
        )
        cluster_of[rb] = ra
        nodes[ra] = Merge(w, children)
    return nodes[find_root(cluster_of, 0)]


def reference_space_to_obj(s: Plain) -> dict:
    return {
        "points": list(s.labels),
        "dist": [[format_rational(v) for v in row] for row in s.dist],
    }


def reference_agreement(x: Plain, y: Plain) -> Fraction:
    return max(set(reference_spectrum(x)) ^ set(reference_spectrum(y)), default=Fraction(0))


def reference_ugh(x: Plain, y: Plain) -> UghResult:
    """First candidate with isometric truncated trees, on Fraction merge trees
    and the spectra read off them."""
    trees = (reference_merge_tree(x), reference_merge_tree(y))
    ranks = tuple({label: i for i, label in enumerate(s.labels)} for s in (x, y))
    spectra = []
    for tree in trees:
        found, stack = {Fraction(0)}, [tree]
        while stack:
            node = stack.pop()
            if isinstance(node, Merge):
                found.add(node.height)
                stack.extend(node.children)
        spectra.append(found)
    floor = max(spectra[0] ^ spectra[1], default=Fraction(0))
    candidates = sorted(t for t in spectra[0] | spectra[1] if t >= floor)
    for t in candidates:
        (qx, kx), (qy, ky) = (truncated_canon(tree, t, r) for tree, r in zip(trees, ranks))
        if kx[2] == ky[2]:
            witness = leaf_pairing(qx, qy)
            x_blocks, y_blocks = (quotient_blocks(tree, t, r) for tree, r in zip(trees, ranks))
            y_block_of = {block[0]: block for block in y_blocks}
            return UghResult(t, tuple((b, y_block_of[witness[b[0]]]) for b in x_blocks))
    raise AssertionError("unreachable")


def spaces(seed: int, count: int, max_n: int):
    """Seeded spaces read from respelled matrices, with their plain form.

    The points are shuffled first: in a random space's own order every closed
    ball is a run of Prim's chain already in index order.
    """
    rng = random.Random(seed)
    for _ in range(count):
        values = ["0", *rng.sample(VALUES[1:], rng.randint(1, len(VALUES) - 1))]
        constraint = spectrum_constraint(values)
        source = random_space(rng.randint(1, max_n), constraint, rng.randrange(10**9))
        order = rng.sample(range(len(source)), len(source))
        labels = [source.labels[i] for i in order]
        matrix = respelled(rng, [[source.dist[i][j] for j in order] for i in order])
        plain = Plain(tuple(labels), tuple(tuple(map(as_rational, row)) for row in matrix))
        yield rng, validate_ultrametric(labels, matrix), plain


def scales(values) -> list[Fraction]:
    """Every spectral value, a point between each two, and one above them all."""
    between = [(a + b) / 2 for a, b in zip(values, values[1:])]
    return [*values, *between, values[-1] + 1]


def test_spectrum_and_extremes_match_the_matrix_scan():
    for _, space, plain in spaces(seed=1, count=120, max_n=20):
        assert spectrum(space) == space.values == reference_spectrum(plain)
        assert space.diameter() == reference_diameter(plain)
        assert space.min_positive_distance() == reference_min_positive(plain)
        assert space.dist == plain.dist


def test_closed_quotient_matches_the_fraction_scan_at_every_scale():
    for _, space, plain in spaces(seed=2, count=60, max_n=16):
        for t in scales(space.values):
            q = closed_quotient(space, t)
            want = (t, *reference_quotient(plain, t))
            assert (q.scale, q.blocks, q.quotient.labels, q.quotient.dist) == want


def constructed_spaces(seed: int, count: int):
    """Seeded spaces no validation has seen: random, crowd, glue and certificate spaces."""
    rng = random.Random(seed)
    for _ in range(count):
        values = ["0", *rng.sample(VALUES[1:], rng.randint(1, len(VALUES) - 1))]
        constraint = spectrum_constraint(values)
        x, y = (random_space(rng.randint(1, 14), constraint, rng.randrange(10**9)) for _ in "xy")
        yield x
        c = (x.min_positive_distance() or Fraction(2)) / rng.choice([2, 3])
        yield crowd_family(x, rng.choice(x.labels), c, rng.randint(1, 4))
        yield glue(random_glue_spec(rng))
        yield certificate(x, y, ugh_distance(x, y)).space


def test_closed_balls_are_the_tree_blocks_and_the_brute_force_classes():
    validated = [space for _, space, _ in spaces(seed=10, count=60, max_n=16)]
    for space in [*validated, *constructed_spaces(seed=10, count=25), *deep_and_wide()]:
        tree = reference_merge_tree(Plain(space.labels, space.dist))
        n = len(space)
        for t in scales(space.values):
            balls = closed_balls(space, t)
            blocks = [tuple(space.labels[i] for i in ball) for ball in balls]
            assert blocks == quotient_blocks(tree, t, space._index)
            classes = {tuple(j for j in range(n) if space.dist[i][j] <= t) for i in range(n)}
            assert list(map(tuple, balls)) == sorted(classes)


def test_hausdorff_distance_matches_the_fraction_scan():
    for rng, space, plain in spaces(seed=3, count=80, max_n=16):
        for _ in range(5):
            a = rng.sample(space.labels, rng.randint(1, len(space)))
            b = rng.sample(space.labels, rng.randint(1, len(space)))
            assert hausdorff_distance(space, a, b) == reference_hausdorff(plain, a, b)


def test_epsilon_net_matches_the_fraction_scan_at_every_scale():
    for _, space, plain in spaces(seed=4, count=80, max_n=16):
        for eps in scales(space.values)[1:]:
            assert epsilon_net(space, eps) == reference_net(plain, eps)


def test_in_uk_matches_the_fraction_scan_with_its_witness():
    verdicts = set()
    for rng, space, plain in spaces(seed=5, count=120, max_n=16):
        allowed = ["0", *rng.sample(VALUES[1:], rng.randint(0, len(VALUES) - 1))]
        membership = in_uk(space, spectrum_constraint(allowed))
        want = reference_in_uk(plain, map(Fraction, allowed))
        assert (membership.member, membership.witness) == want
        verdicts.add(want[0])
    assert verdicts == {True, False}


def test_dendrogram_and_space_json_match_the_fraction_versions():
    shapes = [(None, s, Plain(s.labels, s.dist)) for s in deep_and_wide()]
    for _, space, plain in [*spaces(seed=6, count=80, max_n=24), *shapes]:
        assert to_dendrogram(space) == to_dendrogram(from_dendrogram(reference_merge_tree(plain)))
        assert space_to_obj(space) == reference_space_to_obj(plain)


def test_spectrum_agreement_and_ugh_match_the_fraction_versions():
    pool = list(spaces(seed=7, count=60, max_n=14))
    rng = random.Random(7)
    for _ in range(120):
        (_, x, px), (_, y, py) = rng.choice(pool), rng.choice(pool)
        assert spectrum_agreement(x, y) == reference_agreement(px, py)
        assert ugh_distance(x, y) == reference_ugh(px, py)
    for _, x, px in pool[:30]:
        t = rng.choice(x.values)
        q = closed_quotient(x, t).quotient
        pq = Plain(q.labels, q.dist)
        assert ugh_distance(x, q) == reference_ugh(px, pq)
        assert ugh_distance(q, x) == reference_ugh(pq, px)


def test_spellings_do_not_change_equality_or_hash():
    for _, space, plain in spaces(seed=8, count=60, max_n=16):
        canonical = validate_ultrametric(
            plain.labels, [[format_rational(v) for v in row] for row in plain.dist]
        )
        assert space == canonical
        assert hash(space) == hash(canonical)


def test_derived_spaces_equal_their_own_validation():
    rng = random.Random(9)
    for c in ["1/3", "2", Fraction(5, 7), 4]:
        s = two_point_space(c)
        assert s == validate_ultrametric(s.labels, s.dist)
    for _, space, _ in spaces(seed=9, count=60, max_n=16):
        sub = restrict(space, rng.sample(space.labels, rng.randint(1, len(space))))
        assert sub == validate_ultrametric(sub.labels, sub.dist)
        for t in scales(space.values):
            q = closed_quotient(space, t).quotient
            assert q == validate_ultrametric(q.labels, q.dist)
            assert all(v > t for v in q.values[1:])
