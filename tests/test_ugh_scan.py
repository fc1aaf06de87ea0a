"""Differential tests for the tree-native Gromov-Hausdorff scan.

``ugh_distance`` tests candidate scales on the canonical quotient trees its
chains give and searches the scales by galloping and bisection.  The reference below is the
linear scan it replaced: at every candidate scale it builds both closed-ball
quotients and tests them for isometry with a recursive canonical form.  Seeded
pairs must give identical values, scale witnesses and block maps.
"""

from __future__ import annotations

import random
from fractions import Fraction

from ultrametric import (
    Leaf,
    Merge,
    UghResult,
    cauchy_sequence,
    certificate,
    closed_quotient,
    crowd_family,
    isometry_witness,
    random_space,
    spectrum,
    spectrum_constraint,
    ugh_distance,
    validate_ultrametric,
    verify_certificate,
)
from ultrametric.rationals import format_rational
from ultrametric.spaces import ZERO, UltrametricSpace

from conftest import merge_tree, shallow_recursion

VALUES = ["0", "1/8", "1/4", "3/8", "1/2", "5/8", "3/4", "1", "3/2", "2"]


def reference_canon(node):
    """The recursive canonical form and ``(height, count, encoding, labels)`` key."""
    if isinstance(node, Leaf):
        return node, (ZERO, 1, "p", (node.label,))
    pairs = sorted((reference_canon(child) for child in node.children), key=lambda pair: pair[1])
    encoding = f"({format_rational(node.height)};{','.join(pair[1][2] for pair in pairs)})"
    labels = tuple(sorted(label for pair in pairs for label in pair[1][3]))
    count = sum(pair[1][1] for pair in pairs)
    return Merge(node.height, tuple(pair[0] for pair in pairs)), (node.height, count, encoding, labels)


def reference_witness(x, y):
    """The isometry test the linear scan ran on each pair of quotients."""
    if len(x) != len(y) or spectrum(x) != spectrum(y):
        return None
    (tx, kx), (ty, ky) = reference_canon(merge_tree(x)), reference_canon(merge_tree(y))
    if kx[2] != ky[2]:
        return None
    mapping = {}

    def pair(a, b):
        if isinstance(a, Leaf):
            mapping[a.label] = b.label
            return
        for ca, cb in zip(a.children, b.children):
            pair(ca, cb)

    pair(tx, ty)
    return mapping


def reference_ugh(x, y) -> UghResult:
    """The linear scan: the first candidate scale with isometric quotients."""
    for t in sorted(set(spectrum(x)) | set(spectrum(y))):
        qx, qy = closed_quotient(x, t), closed_quotient(y, t)
        witness = reference_witness(qx.quotient, qy.quotient)
        if witness is None:
            continue
        y_block_of = {block[0]: block for block in qy.blocks}
        return UghResult(t, t, tuple((block, y_block_of[witness[block[0]]]) for block in qx.blocks))
    raise AssertionError("unreachable")


def caterpillar(counts, heights, labels) -> UltrametricSpace:
    """``counts[level]`` points join everything below at ``heights[level]``."""
    level_of = [level for level, count in enumerate(counts) for _ in range(count)]
    dist = [
        [ZERO if i == j else heights[max(a, b)] for j, b in enumerate(level_of)]
        for i, a in enumerate(level_of)
    ]
    return validate_ultrametric(labels, dist)


def swapped_caterpillars(rng, levels):
    """A caterpillar and its copy with the top two spine levels swapped.

    Both have the same spectrum and size, so the linear scan tests every
    candidate scale before the top one.
    """
    counts = [2] + [rng.choice((1, 2)) for _ in range(levels - 1)]
    counts[-2:] = [1, 2]
    heights = sorted(Fraction(k, 24) for k in rng.sample(range(1, 6 * levels), levels))
    n = sum(counts)
    swapped = counts[:-2] + [2, 1]
    x_labels = [f"x{k}" for k in range(n)]
    y_labels = [f"y{k}" for k in range(n)]
    rng.shuffle(y_labels)
    return caterpillar(counts, heights, x_labels), caterpillar(swapped, heights, y_labels)


def random_pairs(seed, count, max_n):
    rng = random.Random(seed)
    for _ in range(count):
        values = ["0"] + sorted(rng.sample(VALUES[1:], rng.randint(1, len(VALUES) - 1)), key=Fraction)
        constraint = spectrum_constraint(values)
        x = random_space(rng.randint(1, max_n), constraint, rng.randrange(10**6))
        y = random_space(rng.randint(1, max_n), constraint, rng.randrange(10**6))
        yield x, y


def shuffled_copy(rng, x) -> UltrametricSpace:
    """An isometric copy of ``x``: its points shuffled and renamed, so the
    labels sort in another order than the points they stand for."""
    order = list(range(len(x)))
    rng.shuffle(order)
    labels = [f"y{k}" for k in rng.sample(range(10**6), len(x))]
    return validate_ultrametric(labels, [[x.dist[i][j] for j in order] for i in order])


def isometric_pairs(seed):
    """Seeded isometric pairs whose trees have shape-identical siblings."""
    rng = random.Random(seed)
    for _ in range(60):
        values = ["0", *rng.sample(VALUES[1:], rng.randint(1, 3))]
        x = random_space(rng.randint(2, 40), spectrum_constraint(values), rng.randrange(10**6))
        yield x, shuffled_copy(rng, x)
        base = random_space(rng.randint(1, 8), spectrum_constraint(values), rng.randrange(10**6))
        crowd = crowd_family(base, rng.choice(base.labels), Fraction(1, 16), rng.randint(5, 12))
        yield crowd, shuffled_copy(rng, crowd)
    for depth in (0, 1, 2, 5, 17, 40):
        x = cauchy_sequence(depth)
        yield x, shuffled_copy(rng, x)


def test_isometry_witness_pairs_as_the_reference_does():
    for x, y in isometric_pairs(seed=8):
        witness = isometry_witness(x, y)
        assert witness is not None
        assert witness == reference_witness(x, y)


def test_scan_matches_linear_scan_on_random_pairs():
    for x, y in random_pairs(seed=3, count=150, max_n=12):
        assert ugh_distance(x, y) == reference_ugh(x, y)


def test_scan_matches_linear_scan_on_larger_random_pairs():
    for x, y in random_pairs(seed=4, count=12, max_n=60):
        assert ugh_distance(x, y) == reference_ugh(x, y)


def test_scan_matches_linear_scan_on_near_copies():
    """Pairs with answers below the top scale: restrictions and quotients."""
    rng = random.Random(5)
    for x, _ in random_pairs(seed=5, count=40, max_n=30):
        keep = sorted(rng.sample(range(len(x)), max(1, len(x) - rng.randint(0, 2))))
        labels = tuple(f"r{i}" for i in keep)
        y = validate_ultrametric(labels, [[x.dist[i][j] for j in keep] for i in keep])
        q = closed_quotient(x, rng.choice(spectrum(x))).quotient
        z = validate_ultrametric([f"q{label}" for label in q.labels], q.dist)
        for a, b in ((x, y), (y, x), (x, z), (z, x)):
            assert ugh_distance(a, b) == reference_ugh(a, b)


def test_scan_matches_linear_scan_on_swapped_caterpillars():
    rng = random.Random(6)
    for levels in (3, 5, 12, 30, 45):
        x, y = swapped_caterpillars(rng, levels)
        result = ugh_distance(x, y)
        assert result == reference_ugh(x, y)
        assert result.value == max(spectrum(x))


def test_certificates_of_scanned_pairs_verify():
    pairs = list(random_pairs(seed=7, count=20, max_n=10))
    pairs.append(swapped_caterpillars(random.Random(7), 6))
    for x, y in pairs:
        verify_certificate(certificate(x, y), x, y)


def test_scan_on_a_caterpillar_deeper_than_the_recursion_limit():
    levels = 300
    heights = [Fraction(k) for k in range(1, levels + 1)]
    counts = [2] + [1] * (levels - 1)
    x = caterpillar(counts, heights, [f"x{k}" for k in range(levels + 1)])
    y = caterpillar(counts, heights, [f"y{k}" for k in range(levels + 1)])
    z = caterpillar(counts[:-1] + [2], heights, [f"z{k}" for k in range(levels + 2)])
    with shallow_recursion():
        same = ugh_distance(x, y)
        apart = ugh_distance(x, z)
    assert same.value == 0
    assert same.block_map[0] == (("x0",), ("y0",))
    assert apart.value == heights[-1]
