"""Certificates: a common ultrametric space attaining the u_GH distance.

:func:`ultrametric.gromov.ugh_distance` finds the distance and the quotient
isometry at it; :func:`certificate` turns that result into an explicit
common space on the disjoint union, and :func:`verify_certificate` checks
any certificate from scratch.  Only ``ugh --certificate`` and library
callers need this code, so a u_GH scan does not load it, and it imports
nothing from :mod:`ultrametric.gromov`: the caller hands in the scan's result.
The format is written by :func:`ultrametric.jsonio.certificate_to_obj` and
read by :func:`certificate_from_obj`.
"""

from fractions import Fraction

from .builders import join_spaces, side_by_side
from .errors import CertificateInvalid, InputFormat
from .jsonio import space_from_obj
from .rationals import as_rational, format_rational
from .spaces import ZERO, Record, UltrametricSpace, _check_axioms, _check_labels


class Certificate(Record):
    """Common ultrametric space witnessing that the distance is attained."""

    space: UltrametricSpace
    embed_left: dict[str, str]
    embed_right: dict[str, str]
    achieved: Fraction


def certificate_from_obj(obj) -> Certificate:
    if not isinstance(obj, dict):
        raise InputFormat("certificate must be a JSON object")
    for key in ("space", "embed_left", "embed_right", "achieved"):
        if key not in obj:
            raise InputFormat(f'certificate needs "{key}"')
    for key in ("embed_left", "embed_right"):
        mapping = obj[key]
        if not isinstance(mapping, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in mapping.items()
        ):
            raise InputFormat(f'"{key}" must map labels to labels')
    return Certificate(
        space_from_obj(obj["space"]),
        dict(obj["embed_left"]),
        dict(obj["embed_right"]),
        as_rational(obj["achieved"]),
    )


def certificate(x: UltrametricSpace, y: UltrametricSpace, result) -> Certificate:
    """Common ultrametric space attaining the distance ``result``, the
    :class:`ultrametric.gromov.UghResult` of ``ugh_distance(x, y)``.

    At scale 0 the spaces are isometric and the certificate is X itself with
    both embeddings onto it.  At scale t > 0 the certificate lives on the
    disjoint union: a point of X sits at exactly t from the points of its
    matched block of Y, and at the (quotient) block distance from everything
    else.  Hausdorff distance between the two images is then exactly t.
    The space is the single linkage (:func:`join_spaces`) of both chains and
    a link at ``t`` between the first points of each matched block pair, so
    it is ultrametric.  Each cross distance is ``max(t, d_Q)`` for the metric
    ``d_Q`` of the common quotient at ``t``, which agrees with both sides'
    metrics above ``t``, so no link shortens a distance within a side.  Any
    other ``result`` gives unchecked embeddings; :func:`verify_certificate`
    is the check for them.
    """
    t = result.value
    if t == 0:
        pairing = {bx[0]: by[0] for bx, by in result.block_map}
        embed_left = {label: label for label in x.labels}
        embed_right = {pairing[a]: a for a in x.labels}
        return Certificate(x, embed_left, embed_right, ZERO)

    embed_left, embed_right = side_by_side(x, y)
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
    equals the claimed value, read by :func:`as_rational`, which refuses a
    float with InputFormat.  An unknown image is named before any distortion.
    """
    from .hyperspace import hausdorff_distance

    space = cert.space
    _check_record(space)
    _check_axioms(_check_labels(space.labels), space.ranks, space.values)
    for name, source, embed in (("left", x, cert.embed_left), ("right", y, cert.embed_right)):
        if sorted(embed) != sorted(source.labels):
            raise CertificateInvalid(f"{name} embedding is not defined on every point")
        if len(set(embed.values())) != len(embed):
            raise CertificateInvalid(f"{name} embedding is not injective")
        _check_isometric(name, source, embed, space)
    image_left = [cert.embed_left[l] for l in x.labels]
    image_right = [cert.embed_right[l] for l in y.labels]
    achieved = hausdorff_distance(space, image_left, image_right)
    claimed = as_rational(cert.achieved)
    if achieved != claimed:
        raise CertificateInvalid(
            f"claimed Hausdorff distance {format_rational(claimed)} but images "
            f"realize {format_rational(achieved)}",
        )


def _check_record(space: UltrametricSpace) -> None:
    """Raise unless ``ranks`` is a square matrix of int positions in
    ``values``, Fractions rising strictly from 0, as the axiom scan reads
    them.  A float rank equals an int but cannot index."""
    values, ranks, n = space.values, space.ranks, len(space.labels)
    if (
        not values
        or set(map(type, values)) - {Fraction}
        or values[0] != 0
        or any(a >= b for a, b in zip(values, values[1:]))
        or len(ranks) != n
        or any(len(row) != n or set(map(type, row)) - {int} for row in ranks)
        or not set().union(*ranks) <= set(range(len(values)))
    ):
        raise CertificateInvalid(
            f"certificate space is not {n} x {n} ranks into values rising strictly from 0"
        )


def _check_isometric(name, source, embed, space) -> None:
    """Raise at the first pair, row by row, whose distance the embedding changes.

    Every image is looked up first, so UnknownLabel names the first one
    missing; then one :func:`ultrametric.amalgam.first_distortion` compares
    the pairs, as glue's common-part check does.
    """
    from .amalgam import first_distortion

    images = [space.index(embed[label]) for label in source.labels]
    bad = first_distortion(source, range(len(images)), space, images)
    if bad:
        a, b = map(source.labels.__getitem__, bad)
        raise CertificateInvalid(f"{name} embedding distorts d({a},{b})", points=[a, b])
