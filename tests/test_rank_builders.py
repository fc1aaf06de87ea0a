"""Constructions on validated spaces hand ranks over their merged spectrum.

Each builder is checked against a test-only copy of the Fraction formula it
replaced, which assembled a matrix of distances and sent it through
``validate_ultrametric``: the same labels, ``values`` and ``ranks``, and
``values`` exactly the distances used (0 among them).  ``verify_certificate``
is checked against a copy of the label-lookup version on tampered
certificates: the same error class and payload.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ultrametric import (
    GlueSpec,
    certificate,
    closed_quotient,
    crowd_family,
    disjoint_amalgam,
    glue,
    random_space,
    restrict,
    single_linkage,
    spectrum_constraint,
    ugh_distance,
    validate_ultrametric,
    verify_certificate,
)
from ultrametric.errors import CertificateInvalid, UltrametricError
from ultrametric.dendrogram import from_dendrogram, leaf_labels, merge_tree
from ultrametric.gromov import Certificate
from ultrametric.rationals import format_rational
from ultrametric.spaces import (
    ZERO,
    UltrametricSpace,
    block_matrix,
    minimum_spanning_tree,
    subdominant,
)

from conftest import SIX_VALUES, random_glue_spec
from test_mst_core import reference_single_linkage

GRIDS = [
    SIX_VALUES,
    spectrum_constraint([Fraction(k, 12) for k in range(13)]),
    spectrum_constraint([Fraction(k, 8) for k in range(0, 17, 3)]),
]


def fresh(rng: random.Random, n: int | None = None) -> UltrametricSpace:
    return random_space(n or rng.randint(1, 9), rng.choice(GRIDS), rng.randrange(10**9))


def seeded_pairs(seed: int, count: int):
    rng = random.Random(seed)
    return [(rng, fresh(rng), fresh(rng)) for _ in range(count)]


def outcome(f, *args):
    try:
        return "ok", f(*args)
    except UltrametricError as exc:
        return type(exc).__name__, exc.payload()


def assert_exact_spectrum(space: UltrametricSpace) -> None:
    used = {r for row in space.ranks for r in row}
    assert used == set(range(len(space.values)))
    assert space.values[0] == 0 and list(space.values) == sorted(set(space.values))


def assert_no_dist(*spaces) -> None:
    assert not any("dist" in space.__dict__ for space in spaces)


# Test-only copies of the Fraction formulas.


def reference_glue(spec: GlueSpec) -> UltrametricSpace:
    x1, x2 = spec.x1, spec.x2
    common = [(x1.index(a), x2.index(b)) for a, b in spec.identify]
    identified_right = {b for _, b in common}
    rest2 = [j for j in range(len(x2)) if j not in identified_right]
    labels = [f"L:{l}" for l in x1.labels] + [f"R:{x2.labels[j]}" for j in rest2]
    rest = [[x2.dist[p][q] for q in rest2] for p in rest2]
    cross = [
        [min(max(row[a], x2.dist[b][q]) for a, b in common) for q in rest2] for row in x1.dist
    ]
    return validate_ultrametric(labels, block_matrix(x1.dist, rest, cross))


def reference_disjoint_amalgam(x, y, s) -> UltrametricSpace:
    labels = [f"L:{l}" for l in x.labels] + [f"R:{l}" for l in y.labels]
    cross = [[s] * len(y) for _ in x.labels]
    return validate_ultrametric(labels, block_matrix(x.dist, y.dist, cross))


def reference_crowd(base, base_point, c, fresh_labels) -> UltrametricSpace:
    n = len(fresh_labels)
    b = base.index(base_point)
    among = [[ZERO if k == l else c for l in range(n)] for k in range(n)]
    reach = [[max(row[b], c)] * n for row in base.dist]
    return validate_ultrametric(
        list(base.labels) + fresh_labels, block_matrix(base.dist, among, reach)
    )


def reference_certificate_space(x, y, result) -> UltrametricSpace:
    t = result.value
    x_block = {label: k for k, (bx, _) in enumerate(result.block_map) for label in bx}
    y_block = {label: k for k, (_, by) in enumerate(result.block_map) for label in by}
    x_reps = [x.index(bx[0]) for bx, _ in result.block_map]
    labels = [f"L:{l}" for l in x.labels] + [f"R:{l}" for l in y.labels]
    cross = [
        [t if x_block[a] == y_block[b] else row[x_reps[y_block[b]]] for b in y.labels]
        for row, a in zip(x.dist, x.labels)
    ]
    return validate_ultrametric(labels, block_matrix(x.dist, y.dist, cross))


def reference_hausdorff(space, a, b) -> Fraction:
    forward = max(min(space.d(p, q) for q in b) for p in a)
    backward = max(min(space.d(p, q) for p in a) for q in b)
    return max(forward, backward)


def reference_verify(cert, x, y) -> None:
    validate_ultrametric(cert.space.labels, cert.space.dist)
    for name, source, embed in (("left", x, cert.embed_left), ("right", y, cert.embed_right)):
        if sorted(embed) != sorted(source.labels):
            raise CertificateInvalid(f"{name} embedding is not defined on every point")
        if len(set(embed.values())) != len(embed):
            raise CertificateInvalid(f"{name} embedding is not injective")
        for a in source.labels:
            for b in source.labels:
                if source.d(a, b) != cert.space.d(embed[a], embed[b]):
                    raise CertificateInvalid(
                        f"{name} embedding distorts d({a},{b})", points=[a, b]
                    )
    left = [cert.embed_left[l] for l in x.labels]
    right = [cert.embed_right[l] for l in y.labels]
    achieved = reference_hausdorff(cert.space, left, right)
    if achieved != cert.achieved:
        raise CertificateInvalid(
            f"claimed Hausdorff distance {format_rational(cert.achieved)} but images "
            f"realize {format_rational(achieved)}",
        )


def reference_from_dendrogram(node) -> UltrametricSpace:
    order = list(leaf_labels(node))
    index = {label: i for i, label in enumerate(order)}
    matrix = [[ZERO] * len(order) for _ in order]
    stack = [node]
    while stack:
        current = stack.pop()
        if hasattr(current, "children"):
            groups = [leaf_labels(child) for child in current.children]
            for g, group in enumerate(groups):
                for a in group:
                    for b in (b for other in groups[g + 1 :] for b in other):
                        matrix[index[a]][index[b]] = current.height
                        matrix[index[b]][index[a]] = current.height
            stack.extend(current.children)
    return validate_ultrametric(order, matrix)


# The builders.


def test_glue_matches_the_fraction_formula():
    rng = random.Random(808)
    for _ in range(150):
        spec = random_glue_spec(rng, max_side=rng.choice([4, 7, 12]))
        got = glue(spec)
        assert_no_dist(spec.x1, spec.x2, got)
        assert_exact_spectrum(got)
        want = reference_glue(spec)
        assert (got.labels, got.values, got.ranks) == (want.labels, want.values, want.ranks)


def test_glue_of_spaces_with_different_spectra():
    rng = random.Random(809)
    for _ in range(60):
        host = fresh(rng, rng.randint(3, 12))
        left = restrict(host, host.labels[: rng.randint(1, len(host))])
        # The right side adds two points at a distance the left never uses.
        c = (left.min_positive_distance() or Fraction(1)) / 3
        right = crowd_family(left, rng.choice(left.labels), c, 2)
        right = validate_ultrametric([f"m:{l}" for l in right.labels], right.dist)
        spec = GlueSpec(left, right, [(l, f"m:{l}") for l in left.labels])
        got = glue(spec)
        assert_exact_spectrum(got)
        assert got == reference_glue(spec)


def test_disjoint_amalgam_matches_the_fraction_formula():
    for rng, x, y in seeded_pairs(810, 120):
        top = max(x.diameter(), y.diameter())
        candidates = [top, top + Fraction(1, 7), 2 * top, x.diameter(), Fraction(5)]
        s = rng.choice([v for v in candidates if v >= top and v > 0])
        got = disjoint_amalgam(x, y, s)
        assert_no_dist(x, y, got)
        assert_exact_spectrum(got)
        assert got == reference_disjoint_amalgam(x, y, s)


def test_crowd_family_matches_the_fraction_formula():
    rng = random.Random(811)
    for _ in range(120):
        base = fresh(rng)
        point = rng.choice(base.labels)
        bound = base.min_positive_distance() or Fraction(2)
        c = bound * Fraction(rng.randint(1, 9), 10)
        n = rng.randint(1, 6)
        got = crowd_family(base, point, c, n)
        assert_no_dist(base, got)
        assert_exact_spectrum(got)
        want = reference_crowd(base, point, c, list(got.labels[len(base) :]))
        assert got == want


def test_certificate_and_verification_match_the_fraction_formula():
    for rng, x, y in seeded_pairs(812, 120):
        if rng.random() < 0.2:  # an isometric copy: the certificate at scale 0
            rows = [[x.values[r] for r in row] for row in x.ranks]
            y = validate_ultrametric([f"c{l}" for l in x.labels], rows)
        result = ugh_distance(x, y)
        cert = certificate(x, y, result)
        verify_certificate(cert, x, y)
        if result.value > 0:
            assert_no_dist(x, y, cert.space)
            assert_exact_spectrum(cert.space)
            assert cert.space == reference_certificate_space(x, y, result)
        assert outcome(reference_verify, cert, x, y) == ("ok", None)


def test_restrict_and_quotients_match_the_fraction_formula():
    rng = random.Random(813)
    for _ in range(80):
        space = fresh(rng)
        subset = rng.sample(space.labels, rng.randint(1, len(space)))
        got = restrict(space, subset)
        assert_exact_spectrum(got)
        keep = [i for i, l in enumerate(space.labels) if l in subset]
        assert got == validate_ultrametric(
            [space.labels[i] for i in keep], [[space.dist[i][j] for j in keep] for i in keep]
        )
        for t in space.values:
            q = closed_quotient(space, t).quotient
            assert_exact_spectrum(q)
            assert q == validate_ultrametric(q.labels, q.dist)


def test_from_dendrogram_matches_the_fraction_fill():
    rng = random.Random(814)
    for _ in range(80):
        tree = merge_tree(fresh(rng, rng.randint(1, 14)))
        got = from_dendrogram(tree)
        assert_exact_spectrum(got)
        assert got == reference_from_dendrogram(tree)


def test_single_linkage_values_are_exactly_its_spectrum():
    rng = random.Random(815)
    for _ in range(60):
        n = rng.randint(1, 10)
        points = [(rng.randint(0, 6), Fraction(rng.randint(0, 12), 4)) for _ in range(n)]
        points = list(dict.fromkeys(points))
        labels = [f"p{k}" for k in range(len(points))]
        matrix = [[abs(a - c) + abs(b - d) for c, d in points] for a, b in points]
        got = single_linkage(labels, matrix)
        assert_exact_spectrum(got)
        assert got == validate_ultrametric(*reference_single_linkage(labels, matrix))


def reference_subdominant(ranks):
    """The row-copying fill along Prim's tree that the join order replaced."""
    sub = [list(row) for row in ranks]
    joined = [0]
    for parent, child, weight in minimum_spanning_tree(ranks):
        for k in joined:
            sub[child][k] = sub[k][child] = max(sub[parent][k], weight)
        joined.append(child)
    return tuple(map(tuple, sub))


def test_subdominant_matches_the_row_copying_fill():
    rng = random.Random(816)
    for _ in range(600):
        n = rng.randint(1, 12)
        rows = [[rng.randint(0, 1)] * n for _ in range(n)]  # any diagonal is kept
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = rng.randint(2, rng.choice([3, 6, 40]))
        assert subdominant(rows) == reference_subdominant(rows)
    for n in (50, 200):
        space = fresh(rng, n)
        assert subdominant(space.ranks) == reference_subdominant(space.ranks) == space.ranks


# Tampered certificates.


def tampered(rng: random.Random, cert: Certificate):
    """(kind, certificate) pairs, each with one field of ``cert`` broken."""
    space, left, right, t = cert.space, cert.embed_left, cert.embed_right, cert.achieved

    def with_embedding(side, embed):
        return Certificate(space, *((embed, right) if side == "left" else (left, embed)), t)

    def with_space(labels=space.labels, values=space.values, ranks=space.ranks):
        return Certificate(UltrametricSpace(tuple(labels), values, ranks), left, right, t)

    yield "wrong value", Certificate(space, left, right, t + Fraction(1, 3))
    yield "zero value", Certificate(space, left, right, ZERO)
    yield "swapped embeddings", Certificate(space, right, left, t)
    n = len(space)
    if n > 1:
        labels = list(space.labels)
        i, j = rng.sample(range(n), 2)
        labels[i], labels[j] = labels[j], labels[i]
        yield "distorted pair", with_space(labels=labels)
        # The pair scan meets a distortion in row 0 before the unknown image.
        last = list(left)[-1]
        unknown_last = {**left, last: "nowhere"}
        yield "distorted, then unknown", Certificate(
            with_space(labels=labels).space, unknown_last, right, t
        )
    for side, embed in (("left", left), ("right", right)):
        keys = list(embed)
        if len(keys) > 1:
            a, b = rng.sample(keys, 2)
            yield f"non-injective {side}", with_embedding(side, {**embed, a: embed[b]})
        for k in {0, len(keys) - 1, rng.randrange(len(keys))}:
            yield f"unknown image {side}", with_embedding(side, {**embed, keys[k]: "nowhere"})
    if n > 2:
        ranks = [list(row) for row in space.ranks]
        a, b = rng.sample(range(n), 2)
        ranks[a][b] = (ranks[a][b] + 1) % len(space.values)
        yield "asymmetric", with_space(ranks=tuple(map(tuple, ranks)))
        ranks[b][a] = ranks[a][b]
        yield "broken axiom", with_space(ranks=tuple(map(tuple, ranks)))
    yield "unused value", with_space(values=(*space.values, space.values[-1] + 1))


def test_tampered_certificates_raise_what_the_label_scan_raised():
    kinds = set()
    for rng, x, y in seeded_pairs(817, 80):
        result = ugh_distance(x, y)
        cert = certificate(x, y, result)
        for kind, bad in tampered(rng, cert):
            want = outcome(reference_verify, bad, x, y)
            assert outcome(verify_certificate, bad, x, y) == want, kind
            kinds.add((kind, want[0], want[1]["message"].split(" d(")[0] if want[1] else ""))
    # Every tampering was caught at least once, with each kind of error.
    caught = {kind for kind, error, _ in kinds if error != "ok"}
    assert caught >= {
        "wrong value", "swapped embeddings", "distorted pair", "non-injective left",
        "unknown image left", "asymmetric", "broken axiom", "distorted, then unknown",
    }
    assert {error for _, error, _ in kinds} >= {
        "CertificateInvalid", "UnknownLabel", "NonSymmetric", "TriangleViolation", "ok",
    }
    assert ("distorted, then unknown", "CertificateInvalid", "left embedding distorts") in kinds


@pytest.mark.parametrize("n", [1, 2, 5])
def test_certificate_of_a_space_and_a_point(n):
    rng = random.Random(n)
    x, point = fresh(rng, n), validate_ultrametric(["o"], [["0"]])
    for a, b in ((x, point), (point, x)):
        cert = certificate(a, b)
        verify_certificate(cert, a, b)
        assert outcome(reference_verify, cert, a, b) == ("ok", None)
