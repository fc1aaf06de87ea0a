"""Constructions on validated spaces hand ranks over their merged spectrum.

Each builder is checked against a test-only copy of the Fraction formula it
replaced, which assembled a matrix of distances and sent it through
``validate_ultrametric``: the same labels, ``values`` and ``ranks``, and
``values`` exactly the distances used (0 among them).  The spaces that
``join_spaces`` builds keep its Kruskal chain, and every result read off
that chain is checked against the same space built by hand, whose chain is
Prim's.  ``verify_certificate`` is checked against a copy of the
label-lookup version on tampered certificates: the same error class and
payload.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest

from ultrametric import (
    GlueSpec,
    cauchy_sequence,
    certificate,
    chain_glue,
    closed_quotient,
    crowd_family,
    disjoint_amalgam,
    glue,
    random_space,
    restrict,
    single_linkage,
    spectrum_constraint,
    two_point_space,
    ugh_distance,
    validate_ultrametric,
    verify_certificate,
)
from ultrametric import amalgam, builders, spaces
from ultrametric.errors import (
    CertificateInvalid,
    DuplicateIdentification,
    EmptyCommonPart,
    MalformedTree,
    MetricMismatchOnA,
    UltrametricError,
)
from ultrametric.dendrogram import Leaf, Merge, from_dendrogram, leaf_labels, to_dendrogram
from ultrametric.certificates import Certificate
from ultrametric.rationals import format_rational
from ultrametric.oracle import block_matrix
from ultrametric.spaces import ZERO, UltrametricSpace, chain_order, chain_ranks

from conftest import (
    BUILD_SPACE,
    PRIM_MODULES,
    SIX_VALUES,
    deep_and_wide,
    folded_chain_glue,
    merge_tree,
    prim_edges,
    random_glue_spec,
    spellings,
)
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


def reference_chain_glue(chain, identifications) -> UltrametricSpace:
    """A left fold of :func:`reference_glue`, each link's left labels resolved
    through the accumulated space."""
    current = chain[0]
    last = {l: l for l in current.labels}  # the newest input's labels in ``current``
    for nxt, pairs in zip(chain[1:], identifications):
        partner = {b: last[a] for a, b in pairs}
        current = reference_glue(GlueSpec(current, nxt, [(last[a], b) for a, b in pairs]))
        last = {b: f"L:{partner[b]}" if b in partner else f"R:{b}" for b in nxt.labels}
    return current


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


def reference_record(space) -> None:
    values, n = space.values, len(space.labels)
    square = len(space.ranks) == n and all(len(row) == n for row in space.ranks)
    in_range = all(r in range(len(values)) for row in space.ranks for r in row)
    rising = bool(values) and values[0] == 0 and list(values) == sorted(set(values))
    if not (square and in_range and rising):
        raise CertificateInvalid(
            f"certificate space is not {n} x {n} ranks into values rising strictly from 0"
        )


def reference_verify(cert, x, y) -> None:
    reference_record(cert.space)
    validate_ultrametric(cert.space.labels, cert.space.dist)
    for name, source, embed in (("left", x, cert.embed_left), ("right", y, cert.embed_right)):
        if sorted(embed) != sorted(source.labels):
            raise CertificateInvalid(f"{name} embedding is not defined on every point")
        if len(set(embed.values())) != len(embed):
            raise CertificateInvalid(f"{name} embedding is not injective")
        for a in source.labels:
            cert.space.index(embed[a])
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


def overlapping_spec(rng, n, left, common, extra) -> GlueSpec:
    """``x1`` on ``left`` points of a random ``n``-point host, ``x2`` on the
    last ``common`` of them plus ``extra`` more, relabeled, with the
    identification list shuffled."""
    host = fresh(rng, n)
    labels = list(host.labels)
    rng.shuffle(labels)
    x1 = restrict(host, labels[:left])
    raw = restrict(host, labels[left - common : left + extra])
    x2 = validate_ultrametric([f"m:{l}" for l in raw.labels], raw.dist)
    identify = [(l, f"m:{l}") for l in labels[left - common : left]]
    rng.shuffle(identify)
    return GlueSpec(x1, x2, identify)


def test_glue_matches_the_fraction_formula_on_edge_cases():
    rng = random.Random(819)
    shapes = {"shuffled": 0, "one common": 0, "all common": 0, "one point": 0, "two points": 0}
    for _ in range(300):
        n = rng.choice([1, 2, rng.randint(3, 12)])
        left = rng.randint(1, n)
        shape = rng.choice(["shuffled", "one common", "all common"])
        common = {"shuffled": rng.randint(1, left), "one common": 1, "all common": left}[shape]
        extra = 0 if shape == "all common" else rng.randint(0, n - left)
        spec = overlapping_spec(rng, n, left, common, extra)
        shapes[shape] += 1
        for side in (spec.x1, spec.x2):
            shapes["one point"] += len(side) == 1
            shapes["two points"] += len(side) == 2
        got = glue(spec)
        assert_exact_spectrum(got)
        assert got == reference_glue(spec)
        reordered = GlueSpec(spec.x1, spec.x2, rng.sample(spec.identify, len(spec.identify)))
        assert glue(reordered) == got
    assert min(shapes.values()) >= 20, shapes


def chain_spec(rng, links: int, width: int):
    """``links + 1`` windows of one random host, each overlapping the next by
    at least one point, relabeled per window, with their identifications."""
    host = fresh(rng, rng.randint(1, 12))
    labels = list(host.labels)
    rng.shuffle(labels)
    windows, start = [], 0
    for _ in range(links + 1):
        end = min(start + rng.randint(1, width), len(labels))
        windows.append(labels[start:end])
        start = rng.randint(start, end - 1)
    chain = []
    for k, window in enumerate(windows):
        raw = restrict(host, window)
        chain.append(validate_ultrametric([f"{k}:{l}" for l in raw.labels], raw.dist))
    identifications = []
    for k, (a, b) in enumerate(zip(windows, windows[1:])):
        pairs = [(f"{k}:{l}", f"{k + 1}:{l}") for l in a if l in b]
        rng.shuffle(pairs)
        identifications.append(pairs)
    return chain, identifications


def test_chain_glue_matches_a_fold_of_the_fraction_formula():
    rng = random.Random(820)
    for _ in range(80):
        chain, identifications = chain_spec(rng, rng.randint(1, 5), rng.randint(1, 6))
        got = chain_glue(chain, identifications).space
        assert_exact_spectrum(got)
        assert got == reference_chain_glue(chain, identifications)


def test_chain_glue_runs_prim_on_its_inputs_only(monkeypatch):
    rng = random.Random(821)
    chain, identifications = chain_spec(rng, 6, 4)
    # Hand-built copies hold no chain yet; each glue must keep the one it built.
    chain = [UltrametricSpace(s.labels, s.values, s.ranks) for s in chain]
    calls, chain_order = [], spaces.chain_order

    def counted(ranks):
        calls.append(len(ranks))
        return chain_order(ranks)

    # The autouse recheck runs Prim on every constructed space; count the library's runs.
    monkeypatch.setattr(builders, "space_from_chain", BUILD_SPACE)
    for module in PRIM_MODULES:
        monkeypatch.setattr(module, "chain_order", counted)
    glued = chain_glue(chain, identifications).space
    assert calls == [len(s) for s in chain]
    assert glued == reference_chain_glue(chain, identifications)


def test_chain_glue_builds_one_space_and_no_glue(monkeypatch):
    rng = random.Random(823)
    for links in (1, 2, 6):
        chain, identifications = chain_spec(rng, links, 4)
        built = []

        def counted(labels, order, gaps, values):
            built.append(len(labels))
            return BUILD_SPACE(labels, order, gaps, values)

        def unreachable(spec):
            raise AssertionError("chain_glue glued an intermediate space")

        with monkeypatch.context() as patch:
            patch.setattr(builders, "space_from_chain", counted)
            patch.setattr(amalgam, "glue", unreachable)
            result = chain_glue(chain, identifications)
        assert built == [len(result.space)]
        assert result == folded_chain_glue(chain, identifications)


# Each planted fault and the outcome it must give (ok or an error class,
# "right" for a repeat on the right side).
FAULTS = {
    "none": "ok",
    "left repeat": "DuplicateIdentification",
    "right repeat": "DuplicateIdentification right",
    "unknown left": "UnknownLabel",
    "unknown right": "UnknownLabel",
    "empty list": "EmptyCommonPart",
    "disagreeing distances": "MetricMismatchOnA",
    "list count": "EmptyChain",
}


def faulty_chain(rng, fault: str):
    """A :func:`chain_spec` chain with ``fault`` planted at a random link.

    The chain is redrawn until that link has room for the fault: a left
    point not yet identified for a repeat on the right, a random pairing
    whose distances disagree for a disagreement.  An unknown label is a
    made-up one or a label of another space.
    """
    while True:
        chain, identifications = chain_spec(rng, rng.randint(1, 5), rng.randint(1, 6))
        link = rng.randrange(len(identifications))
        x, y, pairs = chain[link], chain[link + 1], identifications[link]
        free_x = [l for l in x.labels if l not in {a for a, _ in pairs}]
        free_y = [l for l in y.labels if l not in {b for _, b in pairs}]
        m = min(len(x), len(y))
        pairing = list(zip(rng.sample(x.labels, m), rng.sample(y.labels, m)))
        agrees = all(x.d(a, c) == y.d(b, d) for (a, b), (c, d) in combinations(pairing, 2))
        if not (fault == "right repeat" and not free_x or fault == "disagreeing distances" and agrees):
            break
    k = rng.randrange(len(pairs))
    a, b = pairs[k]

    def stranger(side):
        return rng.choice(["nowhere", *(s.labels[0] for s in chain if s is not side)])

    if fault == "left repeat":
        pairs.insert(rng.randint(0, len(pairs)), (a, rng.choice(free_y or y.labels)))
    elif fault == "right repeat":
        pairs.insert(rng.randint(0, len(pairs)), (rng.choice(free_x), b))
    elif fault == "unknown left":
        pairs[k] = (stranger(x), b)
    elif fault == "unknown right":
        pairs[k] = (a, stranger(y))
    elif fault == "empty list":
        pairs.clear()
    elif fault == "disagreeing distances":
        identifications[link] = pairing
    elif fault == "list count":
        if rng.random() < 0.5:
            del identifications[rng.randrange(len(identifications))]
        else:
            identifications.insert(rng.randint(0, len(identifications)), [(a, b)])
    return chain, identifications


def chain_outcome(glue_chain, chain, identifications):
    """The space and embeddings (in key order), or the error's class, message
    and payload."""
    try:
        result = glue_chain(chain, identifications)
    except UltrametricError as exc:
        return type(exc).__name__, exc.message, exc.payload()
    return "ok", result.space, [list(e.items()) for e in result.embeddings]


def test_chain_glue_matches_the_fold_of_glue_on_planted_faults():
    rng = random.Random(824)
    seen = Counter()
    for k in range(1200):
        fault = list(FAULTS)[k % len(FAULTS)]
        chain, identifications = faulty_chain(rng, fault)
        want = chain_outcome(folded_chain_glue, chain, identifications)
        assert chain_outcome(chain_glue, chain, identifications) == want, fault
        if want[0] not in ("ok", "EmptyChain"):
            assert "link" in want[2], want
        side = " right" if want[0] != "ok" and "right side" in want[1] else ""
        seen[fault, want[0] + side] += 1
    assert all(seen[fault, outcome] >= 100 for fault, outcome in FAULTS.items()), seen


def built_spaces(rng: random.Random, count: int):
    """Seeded outputs of each builder that ends in ``join_spaces``."""
    for k in range(count):
        kind = k % 4
        if kind == 0:
            yield glue(random_glue_spec(rng, max_side=rng.choice([4, 7, 12])))
        elif kind == 1:
            x, y = fresh(rng), fresh(rng)
            s = max(x.diameter(), y.diameter()) * rng.choice([1, 2])
            yield disjoint_amalgam(x, y, s or 1)  # two one-point spaces need a positive scale
        elif kind == 2:
            base = fresh(rng)
            c = (base.min_positive_distance() or Fraction(2)) * Fraction(rng.randint(1, 9), 10)
            yield crowd_family(base, rng.choice(base.labels), c, rng.randint(1, 5))
        else:
            x, y = fresh(rng), fresh(rng)
            yield certificate(x, y, ugh_distance(x, y)).space


def test_results_on_built_spaces_do_not_depend_on_the_kept_chain():
    rng = random.Random(822)
    for built in built_spaces(rng, 160):
        copy = UltrametricSpace(built.labels, built.values, built.ranks)
        # The built space keeps its Kruskal chain; the copy gets Prim's.
        assert "_chain" in built.__dict__ and "_chain" not in copy.__dict__
        assert chain_ranks(*built._chain) == built.ranks
        for t in built.values:
            assert closed_quotient(built, t) == closed_quotient(copy, t)
        assert to_dendrogram(built) == to_dendrogram(copy)
        other = fresh(rng)
        for pair, twin in (((built, other), (copy, other)), ((other, built), (other, copy))):
            assert ugh_distance(*pair) == ugh_distance(*twin)
            assert certificate(*pair, ugh_distance(*pair)) == certificate(*twin, ugh_distance(*twin))


def test_built_spaces_drawn_in_a_row_keep_their_chains():
    for seed in (800, 822):
        for built in built_spaces(random.Random(seed), 160):
            order, gaps = built.__dict__["_chain"]
            assert sorted(order) == list(range(len(built))) and all(gap > 0 for gap in gaps)
            assert chain_ranks(order, gaps) == built.ranks


def permuted_chain_ranks(order, gaps):
    """:func:`chain_ranks` as it was before it skipped the identity: the rows
    and columns of the chain-order matrix always permuted to point order."""
    rows = chain_ranks(range(len(order)), gaps)
    position = sorted(range(len(order)), key=order.__getitem__)
    return tuple(tuple(rows[p][q] for q in position) for p in position)


def test_chain_ranks_matches_the_permuted_path_on_identity_and_other_orders():
    rng = random.Random(826)
    seen = {"identity": 0, "permuted": 0}
    for n in [1, 2] * 30 + [rng.randint(3, 40) for _ in range(300)]:
        order = list(range(n))
        if rng.random() < 0.5:
            rng.shuffle(order)
        gaps = [rng.randint(1, 6) for _ in range(n - 1)]
        got = chain_ranks(order, gaps)
        assert got == permuted_chain_ranks(order, gaps)
        assert type(got) is tuple and all(type(row) is tuple for row in got)
        seen["identity" if order == sorted(order) else "permuted"] += 1
    assert min(seen.values()) > 100, seen
    # Built spaces whose chain is in point order take the skip.
    for space in (random_space(30, SIX_VALUES, 826), two_point_space(1), cauchy_sequence(9)):
        order, gaps = space._chain
        assert order == list(range(len(space)))
        assert space.ranks == permuted_chain_ranks(order, gaps)


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
    trees = [merge_tree(fresh(rng, rng.randint(1, 14))) for _ in range(80)]
    # Both child orders of each shape: the deep or wide subtree first and last.
    trees += [tree for s in deep_and_wide() for tree in (merge_tree(s), to_dendrogram(s))]
    for tree in trees:
        got = from_dendrogram(tree)
        assert_exact_spectrum(got)
        assert got == reference_from_dendrogram(tree)


def with_heights(node, spell):
    """The tree with every merge height ``h`` replaced by ``spell(h)``."""
    if isinstance(node, Leaf):
        return node
    return Merge(spell(node.height), tuple(with_heights(child, spell) for child in node.children))


def test_from_dendrogram_reads_string_and_int_heights_at_every_depth():
    strings = Merge("1", (Merge("1/2", (Leaf("a"), Leaf("b"))), Leaf("c")))
    assert from_dendrogram(strings) == from_dendrogram(with_heights(strings, Fraction))
    with pytest.raises(MalformedTree):
        from_dendrogram(Merge("1", (Merge("2", (Leaf("a"), Leaf("b"))), Leaf("c"))))
    rng = random.Random(818)
    spaces = [fresh(rng, rng.randint(2, 14)) for _ in range(40)] + deep_and_wide()
    for space in spaces:
        tree = merge_tree(space)
        scale = lcm(*(v.denominator for v in space.values))
        whole = with_heights(tree, lambda h: h * scale)
        for base, spell in (
            (tree, str),
            (tree, lambda h: rng.choice(spellings(h))),
            (whole, str),
            (whole, int),
        ):
            assert from_dendrogram(with_heights(base, spell)) == from_dendrogram(base)


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


def subdominant(ranks):
    """Single linkage of a symmetric matrix of ranks with a zero diagonal: the
    chain of its Prim tree, filled in as every space fills its own."""
    return chain_ranks(*chain_order(ranks))


def reference_subdominant(ranks):
    """The row-copying fill along Prim's tree: each child copies its parent's
    row, raised to the weight of the edge between them."""
    sub = [list(row) for row in ranks]
    joined = [0]
    for parent, child, weight in prim_edges(ranks):
        for k in joined:
            sub[child][k] = sub[k][child] = max(sub[parent][k], weight)
        joined.append(child)
    return tuple(map(tuple, sub))


def test_subdominant_matches_the_row_copying_fill():
    rng = random.Random(816)
    for _ in range(600):
        n = rng.randint(1, 12)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = rng.randint(2, rng.choice([3, 6, 40]))
        assert subdominant(rows) == reference_subdominant(rows)
    for n in (50, 200):
        space = fresh(rng, n)
        assert subdominant(space.ranks) == reference_subdominant(space.ranks) == space.ranks
    # Heavy ties: every off-diagonal rank is one of one to three values.
    for n, top in ((30, 2), (30, 3), (80, 3), (80, 4)):
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = rng.randint(2, top)
        assert subdominant(rows) == reference_subdominant(rows)


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
        # A distortion in row 0 and an unknown image: the image is named.
        last = list(left)[-1]
        unknown_last = {**left, last: "nowhere"}
        yield "distorted, then unknown", Certificate(
            with_space(labels=labels).space, unknown_last, right, t
        )
    # An unknown image and a distortion below row 0: point b takes the image
    # of a later point u as far from the first point, some point c between
    # them tells b from u, and u's image goes.
    first, *rest = left

    def d(a, b):
        return space.d(left[a], left[b])

    for k, u in enumerate(rest):
        between = rest[:k]
        twins = [
            b for b in between
            if d(first, b) == d(first, u) and any(d(b, c) != d(u, c) for c in between if c != b)
        ]
        if twins:
            unknown_u = with_embedding("left", {**left, twins[0]: left[u], u: "nowhere"})
            yield "distorted below row 0, then unknown", unknown_u
            break
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
    if n > 1:
        a, b = rng.sample(range(n), 2)
        for rank in (len(space.values), -1):
            ranks = [list(row) for row in space.ranks]
            ranks[a][b] = ranks[b][a] = rank
            yield "rank out of range", with_space(ranks=tuple(map(tuple, ranks)))
    yield "unused value", with_space(values=(*space.values, space.values[-1] + 1))
    if len(space.values) > 1:
        # No entry uses 0, so 0 must not be dropped as an unused value.
        ranks = [list(row) for row in space.ranks]
        for i in range(n):
            ranks[i][i] = 1
        yield "positive diagonal", with_space(ranks=tuple(map(tuple, ranks)))
        yield "values without 0", with_space(values=(space.values[1] / 2, *space.values[1:]))


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
        "positive diagonal", "rank out of range", "values without 0",
        "distorted below row 0, then unknown",
    }
    # Every image is looked up before any distance is compared.
    for tampering in ("distorted, then unknown", "distorted below row 0, then unknown"):
        assert {error for kind, error, _ in kinds if kind == tampering} == {"UnknownLabel"}
    assert {error for _, error, _ in kinds} >= {
        "CertificateInvalid", "UnknownLabel", "NonSymmetric", "TriangleViolation", "ok",
        "NonzeroDiagonal",
    }


@pytest.mark.parametrize("n", [1, 2, 5])
def test_certificate_of_a_space_and_a_point(n):
    rng = random.Random(n)
    x, point = fresh(rng, n), validate_ultrametric(["o"], [["0"]])
    for a, b in ((x, point), (point, x)):
        cert = certificate(a, b, ugh_distance(a, b))
        verify_certificate(cert, a, b)
        assert outcome(reference_verify, cert, a, b) == ("ok", None)


# Every built space keeps the chain it was built from.


def each_builder(rng: random.Random):
    """(builder name, one seeded output of it) for every construction."""
    x, y = fresh(rng, rng.randint(2, 9)), fresh(rng, rng.randint(1, 9))
    points = list(dict.fromkeys((rng.randint(0, 6), rng.randint(0, 6)) for _ in range(8)))
    line = [[abs(a - c) + abs(b - d) for c, d in points] for a, b in points]
    c = x.min_positive_distance() * Fraction(rng.randint(1, 9), 10)
    yield "random_space", x
    yield "cauchy_sequence", cauchy_sequence(rng.randint(0, 12))
    yield "two_point_space", two_point_space(Fraction(rng.randint(1, 9), 4))
    yield "from_dendrogram", from_dendrogram(merge_tree(x))
    yield "single_linkage", single_linkage([f"p{k}" for k in range(len(points))], line)
    yield "single_linkage", single_linkage(x.labels, x.dist)
    for t in x.values:
        yield "closed_quotient", closed_quotient(x, t).quotient
    yield "restrict", restrict(x, rng.sample(x.labels, rng.randint(1, len(x))))
    yield "glue", glue(random_glue_spec(rng))
    yield "disjoint_amalgam", disjoint_amalgam(x, y, max(x.diameter(), y.diameter()))
    yield "crowd_family", crowd_family(x, rng.choice(x.labels), c, rng.randint(1, 4))
    yield "certificate", certificate(x, y, ugh_distance(x, y)).space


def test_every_builder_keeps_the_chain_of_its_ranks():
    rng = random.Random(824)
    seen = set()
    for _ in range(40):
        for name, space in each_builder(rng):
            seen.add(name)
            assert "_chain" in space.__dict__, name
            order, gaps = space._chain
            n = len(space)
            assert sorted(order) == list(range(n)) and len(gaps) == n - 1, name
            assert all(0 < gap < len(space.values) for gap in gaps), name
            assert chain_ranks(order, gaps) == space.ranks, name
    assert len(seen) == 11


def counted_prim(monkeypatch) -> list[int]:
    """Sizes of the matrices ``chain_order`` runs on from here on."""
    calls, chain_order = [], spaces.chain_order

    def counted(ranks):
        calls.append(len(ranks))
        return chain_order(ranks)

    for module in PRIM_MODULES:
        monkeypatch.setattr(module, "chain_order", counted)
    return calls


def test_ugh_distance_of_generated_spaces_runs_no_prim(monkeypatch):
    x, y = random_space(40, SIX_VALUES, 1), cauchy_sequence(12)
    want = ugh_distance(*(UltrametricSpace(s.labels, s.values, s.ranks) for s in (x, y)))
    calls = counted_prim(monkeypatch)
    assert ugh_distance(x, y) == want
    assert calls == []


def reference_subspace(space: UltrametricSpace, indices) -> UltrametricSpace:
    """The row copy ``subspace`` made before it restricted the chain: the
    induced rank submatrix, values no entry uses dropped."""
    ranks = [[space.ranks[i][j] for j in indices] for i in indices]
    used = sorted({r for row in ranks for r in row})
    table = {r: k for k, r in enumerate(used)}
    return UltrametricSpace(
        tuple(space.labels[i] for i in indices),
        tuple(space.values[r] for r in used),
        tuple(tuple(table[r] for r in row) for row in ranks),
    )


def test_subspace_matches_the_row_copy():
    rng = random.Random(825)
    built = (space for _ in range(20) for _, space in each_builder(rng))
    seen = {"validated": 0, "built": 0, "hand-built": 0}
    shapes = {"shuffled": 0, "partial": 0, "one point": 0}
    for k in range(240):
        kind = rng.choice(list(seen))
        if kind == "validated":
            source = fresh(rng)
            source = validate_ultrametric(source.labels, source.dist)
        elif kind == "built":
            source = next(built, None) or fresh(rng, rng.randint(1, 14))
        else:
            source = fresh(rng)
            source = UltrametricSpace(source.labels, source.values, source.ranks)
        n = len(source)
        shape = rng.choice(list(shapes))
        size = {"shuffled": n, "partial": rng.randint(1, n), "one point": 1}[shape]
        indices = rng.sample(range(n), size)
        seen[kind] += 1
        shapes[shape] += 1
        got = builders.subspace(source, indices)
        assert got == reference_subspace(source, indices)
        assert chain_ranks(*got._chain) == got.ranks
    assert min(seen.values()) >= 40 and min(shapes.values()) >= 40, (seen, shapes)


def reference_check_spec(spec: GlueSpec) -> None:
    """The pairwise label-lookup loop ``glue`` checked its spec with before it
    compared rows of ranks."""
    if not spec.identify:
        raise EmptyCommonPart(
            "identification is empty; glue needs a nonempty common part "
            "(use disjoint_amalgam for the disjoint case)"
        )
    left = [a for a, _ in spec.identify]
    right = [b for _, b in spec.identify]
    for side, names in (("left", left), ("right", right)):
        if len(set(names)) != len(names):
            dup = next(n for n in names if names.count(n) > 1)
            raise DuplicateIdentification(
                f"point {dup!r} appears twice on the {side} side", label=dup
            )
    for a, b in spec.identify:
        spec.x1.index(a)
        spec.x2.index(b)
    for a, b in spec.identify:
        for c, d in spec.identify:
            if spec.x1.d(a, c) != spec.x2.d(b, d):
                raise MetricMismatchOnA(
                    f"common part metrics disagree: d({a},{c}) = "
                    f"{format_rational(spec.x1.d(a, c))} on the left but "
                    f"d({b},{d}) = {format_rational(spec.x2.d(b, d))} on the right",
                    left=[a, c],
                    right=[b, d],
                )


def planted_specs(rng: random.Random, spec: GlueSpec):
    """(kind, spec) pairs: the spec, and copies with one fault planted."""
    x2, identify = spec.x2, list(spec.identify)
    yield "valid", spec
    doubled = [[2 * v for v in row] for row in x2.dist]
    yield "values X1 lacks", GlueSpec(spec.x1, validate_ultrametric(x2.labels, doubled), identify)
    shuffled = list(x2.labels)
    rng.shuffle(shuffled)
    yield "pairs moved", GlueSpec(spec.x1, UltrametricSpace(tuple(shuffled), x2.values, x2.ranks), identify)
    k = rng.randrange(len(identify))
    for side in (0, 1):
        unknown = list(identify)
        unknown[k] = ("nowhere", unknown[k][1]) if side == 0 else (unknown[k][0], "nowhere")
        yield "unknown label", GlueSpec(spec.x1, x2, unknown)
    yield "repeated pair", GlueSpec(spec.x1, x2, [*identify, identify[k]])
    yield "empty", GlueSpec(spec.x1, x2, [])


def test_glue_spec_check_matches_the_pairwise_loop():
    rng = random.Random(826)
    errors = {}
    for _ in range(150):
        spec = random_glue_spec(rng, max_side=rng.choice([4, 7, 12]))
        for kind, planted in planted_specs(rng, spec):
            want = outcome(reference_check_spec, planted)
            assert outcome(amalgam._check_spec, planted) == want, kind
            errors.setdefault(want[0], set()).add(kind)
    assert errors["MetricMismatchOnA"] == {"values X1 lacks", "pairs moved"}
    assert {"ok", "UnknownLabel", "DuplicateIdentification", "EmptyCommonPart"} <= set(errors)
