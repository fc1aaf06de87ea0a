"""Certificates: a common ultrametric space attaining the u_GH distance.

:func:`ultrametric.gromov.ugh_distance` finds the distance and the quotient
isometry at it; :func:`certificate` turns that result into an explicit
common space on the disjoint union, and :func:`verify_certificate` checks
any certificate from scratch.  Only ``ugh --certificate`` and library
callers need this code, so a u_GH scan does not load it.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import CertificateInvalid
from .gromov import UghResult, ugh_distance
from .rationals import format_rational
from .spaces import (
    ZERO,
    Record,
    UltrametricSpace,
    _check_axioms,
    _check_labels,
    join_spaces,
)


class Certificate(Record):
    """Common ultrametric space witnessing that the distance is attained."""

    space: UltrametricSpace
    embed_left: dict[str, str]
    embed_right: dict[str, str]
    achieved: Fraction


def certificate(
    x: UltrametricSpace, y: UltrametricSpace, result: UghResult | None = None
) -> Certificate:
    """Common ultrametric space attaining the computed distance.

    At scale 0 the spaces are isometric and the certificate is X itself with
    both embeddings onto it.  At scale t > 0 the certificate lives on the
    disjoint union: a point of X sits at exactly t from the points of its
    matched block of Y, and at the (quotient) block distance from everything
    else.  Hausdorff distance between the two images is then exactly t.
    The space is the single linkage (:func:`join_spaces`) of both chains and
    a link at ``t`` between the first points of each matched block pair, so
    it is ultrametric.  With ``result = ugh_distance(x, y)`` each cross
    distance is ``max(t, d_Q)`` for the metric ``d_Q`` of the common quotient
    at ``t``, which agrees with both sides' metrics above ``t``, so no link
    shortens a distance within a side.  Any other ``result`` gives unchecked
    embeddings; :func:`verify_certificate` is the check for them.
    """
    if result is None:
        result = ugh_distance(x, y)
    t = result.value
    if t == 0:
        pairing = {bx[0]: by[0] for bx, by in result.block_map}
        embed_left = {label: label for label in x.labels}
        embed_right = {pairing[a]: a for a in x.labels}
        return Certificate(x, embed_left, embed_right, ZERO)

    embed_left = {l: f"L:{l}" for l in x.labels}
    embed_right = {l: f"R:{l}" for l in y.labels}
    links = [(t, embed_left[bx[0]], embed_right[by[0]]) for bx, by in result.block_map]
    space = join_spaces([(x, embed_left), (y, embed_right)], links)
    return Certificate(space, embed_left, embed_right, t)


def verify_certificate(
    cert: Certificate, x: UltrametricSpace, y: UltrametricSpace
) -> None:
    """Re-check a certificate from scratch; raises CertificateInvalid.

    Checks: the ambient space is a well-formed record satisfying the
    ultrametric axioms, both embeddings are injective and
    distance-preserving, and the Hausdorff distance between the images
    equals the claimed value.  Distances are compared as ranks of the
    ambient space, each source value looked up once.
    """
    from .hyperspace import hausdorff_distance

    space = cert.space
    _check_record(space)
    _check_axioms(_check_labels(space.labels), space.ranks, space.values)
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


def _check_record(space: UltrametricSpace) -> None:
    """Raise unless ``ranks`` is a square matrix of positions in ``values``
    and ``values`` rise strictly from 0, as the axiom scan reads them."""
    values, ranks, n = space.values, space.ranks, len(space.labels)
    if (
        not values
        or values[0] != 0
        or any(a >= b for a, b in zip(values, values[1:]))
        or len(ranks) != n
        or any(len(row) != n for row in ranks)
        or not set().union(*ranks) <= set(range(len(values)))
    ):
        raise CertificateInvalid(
            f"certificate space is not {n} x {n} ranks into values rising strictly from 0"
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
