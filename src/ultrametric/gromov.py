"""Exact Gromov-Hausdorff ultrametric between finite ultrametric spaces.

Definition used: ``u_GH(X, Y)`` is the first candidate scale ``t`` in
``{0} | spectrum(X) | spectrum(Y)`` whose closed-ball quotients of X and Y
are isometric.  Why this equals the infimum of Hausdorff distances over
common ultrametric embeddings (Memoli, Smith & Wan, arXiv:2110.03136, study
this quantity through the two dendrograms):

* (upper bound) from a quotient isometry at scale ``t`` one can build an
  explicit common space on the disjoint union realizing Hausdorff distance
  exactly ``t`` -- that construction is :func:`certificate`;
* (lower bound) inside any common ultrametric space, mutual coverage within
  ``t`` forces the two closed-ball quotients at ``t`` to be isometric, because
  distances above ``t`` propagate unchanged across points that are within
  ``t`` of each other.

Quotient partitions only change at spectrum values, and at the larger
diameter both quotients are single points, so some candidate always works.

Search.  Isometry of the quotients is monotone in ``t``: the quotient at
``t' >= t`` is the quotient at ``t'`` of the quotient at ``t``, so an
isometry at ``t`` carries over to every larger scale.  The candidates
therefore split into a failing prefix and an isometric suffix.
:func:`spectrum_agreement` is a lower bound (an isometry at ``t`` makes the
spectra agree above ``t``), so candidates below it are dropped.
:func:`ugh_distance` gallops upward over positions 0, 1, 3, 7, ... of the
rest and then bisects: an answer at position ``p`` costs ``O(log p)`` tests,
at most ``O(log k)`` for ``k`` candidates, instead of a linear scan.

Test.  Both merge trees are built once (Prim's tree and a union-find, O(n^2)
per space).  The tree of the quotient at ``t`` is the merge tree with every
subtree of height ``<= t`` collapsed into one point, so one post-order walk
(:func:`ultrametric.dendrogram.truncated_canon`) yields the quotient's
truncated canonical key ``(height, count, encoding, labels)`` without
building a quotient matrix; equal encodings mean isometric quotients.  A
walk costs the total size of the keys it builds, ``O(n log n)`` on a tree of
logarithmic depth (``O(n^2)`` on a caterpillar), so a search is two O(n^2)
tree builds plus ``O(n log n * log k)``.  At the answer the two truncated
canonical trees are paired leaf by leaf for the block map, whose blocks are
named by their lowest-index point exactly as :func:`closed_quotient` names
them.

The exhaustive search in :mod:`ultrametric.oracle` double-checks the whole
scheme on small instances; the acceptance suite treats any disagreement as a
bug in the scan.
"""

from __future__ import annotations

from fractions import Fraction

from .dendrogram import leaf_pairing, merge_tree, quotient_blocks, truncated_canon
from .errors import CertificateInvalid
from .rationals import format_rational
from .spaces import (
    ZERO,
    Record,
    UltrametricSpace,
    block_matrix,
    merged_spectrum,
    remap,
    space_from_ranks,
)

BlockMap = tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]


class UghResult(Record):
    """Distance value plus the constructive evidence the scan produced.

    ``scale_witness`` is the minimal scale with isometric closed quotients
    (equal to ``value``); ``block_map`` pairs each block of X's quotient with
    its image block in Y's quotient.
    """

    value: Fraction
    scale_witness: Fraction
    block_map: BlockMap


class Certificate(Record):
    """Common ultrametric space witnessing that the distance is attained."""

    space: UltrametricSpace
    embed_left: dict[str, str]
    embed_right: dict[str, str]
    achieved: Fraction


def ugh_distance(x: UltrametricSpace, y: UltrametricSpace) -> UghResult:
    """Gromov-Hausdorff ultrametric, exact, with a quotient isometry witness.

    Searches the candidate scales on the two merge trees, as the module
    docstring explains.
    """
    trees = (merge_tree(x), merge_tree(y))
    ranks = tuple({label: i for i, label in enumerate(s.labels)} for s in (x, y))
    floor = spectrum_agreement(x, y)
    candidates = sorted(t for t in {*x.values, *y.values} if t >= floor)
    canon: dict[int, tuple] = {}

    def truncated(k: int) -> tuple:
        if k not in canon:
            canon[k] = tuple(
                truncated_canon(tree, candidates[k], rank) for tree, rank in zip(trees, ranks)
            )
        return canon[k]

    def isometric_at(k: int) -> bool:
        (_, kx), (_, ky) = truncated(k)
        return kx[2] == ky[2]

    # Both quotients are single points at the last candidate.  Gallop up over
    # positions 0, 1, 3, 7, ... to the first isometric one, then bisect below it.
    lo, hi, probe = 0, len(candidates) - 1, 0
    while probe < hi and not isometric_at(probe):
        lo, probe = probe + 1, 2 * probe + 1
    hi = min(hi, probe)
    while lo < hi:
        mid = (lo + hi) // 2
        if isometric_at(mid):
            hi = mid
        else:
            lo = mid + 1
    t = candidates[hi]
    (qx, _), (qy, _) = truncated(hi)
    witness = leaf_pairing(qx, qy)
    x_blocks, y_blocks = (quotient_blocks(tree, t, rank) for tree, rank in zip(trees, ranks))
    y_block_of = {block[0]: block for block in y_blocks}
    block_map = tuple((block, y_block_of[witness[block[0]]]) for block in x_blocks)
    return UghResult(t, t, block_map)


def spectrum_agreement(x: UltrametricSpace, y: UltrametricSpace) -> Fraction:
    """Smallest t above which the two spectra coincide.

    This is the largest value belonging to exactly one spectrum (0 when the
    spectra are equal), and it never exceeds the Gromov-Hausdorff ultrametric:
    quotient isometry at the distance value forces the spectra to agree above
    it.
    """
    return max(set(x.values) ^ set(y.values), default=ZERO)


def certificate(
    x: UltrametricSpace, y: UltrametricSpace, result: UghResult | None = None
) -> Certificate:
    """Common ultrametric space attaining the computed distance.

    At scale 0 the spaces are isometric and the certificate is X itself with
    both embeddings onto it.  At scale t > 0 the certificate lives on the
    disjoint union: a point of X sits at exactly t from the points of its
    matched block of Y, and at the (quotient) block distance from everything
    else.  Hausdorff distance between the two images is then exactly t.
    """
    if result is None:
        result = ugh_distance(x, y)
    t = result.value
    if t == 0:
        pairing = {bx[0]: by[0] for bx, by in result.block_map}
        embed_left = {label: label for label in x.labels}
        embed_right = {pairing[a]: a for a in x.labels}
        return Certificate(x, embed_left, embed_right, ZERO)

    x_block_index = {label: k for k, (bx, _) in enumerate(result.block_map) for label in bx}
    y_block_index = {label: k for k, (_, by) in enumerate(result.block_map) for label in by}
    values, (table_x, table_y, (rank_t,)) = merged_spectrum(x.values, y.values, (t,))
    ranks_x, ranks_y = remap(x.ranks, table_x), remap(y.ranks, table_y)
    # Points of different blocks sit at the block distance, read off X from
    # the block's first point; points of matched blocks sit at t.
    x_reps = [x.index(bx[0]) for bx, _ in result.block_map]
    reach = [x_reps[y_block_index[l]] for l in y.labels]
    matched: dict[int, list[int]] = {}
    for j, l in enumerate(y.labels):
        matched.setdefault(y_block_index[l], []).append(j)
    cross = []
    for row, l in zip(ranks_x, x.labels):
        cross_row = list(map(row.__getitem__, reach))
        for j in matched.get(x_block_index[l], ()):
            cross_row[j] = rank_t
        cross.append(cross_row)
    labels = [f"L:{l}" for l in x.labels] + [f"R:{l}" for l in y.labels]
    space = space_from_ranks(labels, block_matrix(ranks_x, ranks_y, cross), values)
    embed_left = {l: f"L:{l}" for l in x.labels}
    embed_right = {l: f"R:{l}" for l in y.labels}
    return Certificate(space, embed_left, embed_right, t)


def verify_certificate(
    cert: Certificate, x: UltrametricSpace, y: UltrametricSpace
) -> None:
    """Re-check a certificate from scratch; raises CertificateInvalid.

    Checks: the ambient space satisfies the ultrametric axioms, both
    embeddings are injective and distance-preserving, and the Hausdorff
    distance between the images equals the claimed value.  Distances are
    compared as ranks of the ambient space, each source value looked up once.
    """
    from .hyperspace import hausdorff_distance

    space = cert.space
    space_from_ranks(space.labels, space.ranks, space.values)
    position = {v: r for r, v in enumerate(space.values)}
    for name, source, embed in (("left", x, cert.embed_left), ("right", y, cert.embed_right)):
        if sorted(embed) != sorted(source.labels):
            raise CertificateInvalid(f"{name} embedding is not defined on every point")
        if len(set(embed.values())) != len(embed):
            raise CertificateInvalid(f"{name} embedding is not injective")
        _check_isometric(name, source, embed, space, position)
    image_left = [cert.embed_left[l] for l in x.labels]
    image_right = [cert.embed_right[l] for l in y.labels]
    achieved = hausdorff_distance(space, image_left, image_right)
    if achieved != cert.achieved:
        raise CertificateInvalid(
            f"claimed Hausdorff distance {format_rational(cert.achieved)} but images "
            f"realize {format_rational(achieved)}",
        )


def _check_isometric(name, source, embed, space, position) -> None:
    """Raise at the first pair, row by row, whose distance the embedding changes.

    Source ranks go through one table into the ambient space's ranks (-1 for
    a value it lacks).  An image missing from the space raises UnknownLabel
    where a pair scan first looks it up, in row 0.
    """
    table = [position.get(v, -1) for v in source.values]
    images = list(map(space._index.get, map(embed.__getitem__, source.labels)))
    known = images.index(None) if None in images else len(images)
    rows = len(images) if known == len(images) else min(known, 1)
    for i in range(rows):
        want = list(map(table.__getitem__, source.ranks[i][:known]))
        got = list(map(space.ranks[images[i]].__getitem__, images[:known]))
        if want != got:
            a = source.labels[i]
            b = source.labels[next(j for j, (w, g) in enumerate(zip(want, got)) if w != g)]
            raise CertificateInvalid(f"{name} embedding distorts d({a},{b})", points=[a, b])
    if known < len(images):
        space.index(embed[source.labels[known]])
