"""Exact Gromov-Hausdorff ultrametric between finite ultrametric spaces.

Algorithm: scan the candidate scales ``{0} | spectrum(X) | spectrum(Y)`` in
increasing order and return the first ``t`` whose closed-ball quotients of X
and Y are isometric.  Why this equals the infimum of Hausdorff distances over
common ultrametric embeddings:

* (upper bound) from a quotient isometry at scale ``t`` one can build an
  explicit common space on the disjoint union realizing Hausdorff distance
  exactly ``t`` -- that construction is :func:`certificate`;
* (lower bound) inside any common ultrametric space, mutual coverage within
  ``t`` forces the two closed-ball quotients at ``t`` to be isometric, because
  distances above ``t`` propagate unchanged across points that are within
  ``t`` of each other.

The scan never misses: quotient partitions only change at spectrum values,
and at the larger diameter both quotients are single points.  The exhaustive
search in :mod:`ultrametric.oracle` double-checks the whole scheme on small
instances; the acceptance suite treats any disagreement as a bug in the scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .dendrogram import isometry_witness
from .errors import CertificateInvalid
from .hyperspace import hausdorff_distance
from .rationals import format_rational
from .spaces import (
    UltrametricSpace,
    ZERO,
    block_matrix,
    closed_quotient,
    spectrum,
    validate_ultrametric,
)

BlockMap = tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]


@dataclass(frozen=True)
class UghResult:
    """Distance value plus the constructive evidence the scan produced.

    ``scale_witness`` is the minimal scale with isometric closed quotients
    (equal to ``value``); ``block_map`` pairs each block of X's quotient with
    its image block in Y's quotient.
    """

    value: Fraction
    scale_witness: Fraction
    block_map: BlockMap


@dataclass(frozen=True)
class Certificate:
    """Common ultrametric space witnessing that the distance is attained."""

    space: UltrametricSpace
    embed_left: dict[str, str]
    embed_right: dict[str, str]
    achieved: Fraction


def ugh_distance(x: UltrametricSpace, y: UltrametricSpace) -> UghResult:
    """Gromov-Hausdorff ultrametric, exact, with a quotient isometry witness."""
    candidates = sorted(set(spectrum(x)) | set(spectrum(y)))
    for t in candidates:
        qx = closed_quotient(x, t)
        qy = closed_quotient(y, t)
        witness = isometry_witness(qx.quotient, qy.quotient)
        if witness is None:
            continue
        y_block_of = {block[0]: block for block in qy.blocks}
        block_map = tuple(
            (block, y_block_of[witness[block[0]]]) for block in qx.blocks
        )
        return UghResult(t, t, block_map)
    raise AssertionError("unreachable: quotients at the diameter are single points")


def spectrum_agreement(x: UltrametricSpace, y: UltrametricSpace) -> Fraction:
    """Smallest t above which the two spectra coincide.

    This is the largest value belonging to exactly one spectrum (0 when the
    spectra are equal), and it never exceeds the Gromov-Hausdorff ultrametric:
    quotient isometry at the distance value forces the spectra to agree above
    it.
    """
    difference = set(spectrum(x)) ^ set(spectrum(y))
    return max(difference) if difference else ZERO


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
    qx = closed_quotient(x, t).quotient

    labels = [f"L:{l}" for l in x.labels] + [f"R:{l}" for l in y.labels]
    x_blocks = [x_block_index[l] for l in x.labels]
    y_blocks = [y_block_index[l] for l in y.labels]
    cross = [[t if bx == by else qx.dist[bx][by] for by in y_blocks] for bx in x_blocks]
    space = validate_ultrametric(labels, block_matrix(x.dist, y.dist, cross))
    embed_left = {l: f"L:{l}" for l in x.labels}
    embed_right = {l: f"R:{l}" for l in y.labels}
    return Certificate(space, embed_left, embed_right, t)


def verify_certificate(
    cert: Certificate, x: UltrametricSpace, y: UltrametricSpace
) -> None:
    """Re-check a certificate from scratch; raises CertificateInvalid.

    Checks: the ambient space satisfies the ultrametric axioms, both
    embeddings are injective and distance-preserving, and the Hausdorff
    distance between the images equals the claimed value.
    """
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
                        f"{name} embedding distorts d({a},{b})",
                        points=[a, b],
                    )
    image_left = [cert.embed_left[l] for l in x.labels]
    image_right = [cert.embed_right[l] for l in y.labels]
    achieved = hausdorff_distance(cert.space, image_left, image_right)
    if achieved != cert.achieved:
        raise CertificateInvalid(
            f"claimed Hausdorff distance {format_rational(cert.achieved)} but images "
            f"realize {format_rational(achieved)}",
        )
