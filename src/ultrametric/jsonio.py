"""Byte-deterministic JSON interchange.

Formats (all rational values are canonical strings like ``"0"``, ``"1/2"``):

* space:      ``{"points": ["a", ...], "dist": [["0", "1/2", ...], ...]}``
* glue spec:  ``{"x1": <space>, "x2": <space>, "identify": [["a","a2"], ...]}``
* subset:     ``["a", "b", ...]``

Readers ignore unknown keys so enriched outputs (for example a quotient space
carrying its ``blocks``) can be piped straight back in; writers always emit
the canonical key order shown above.
"""

from __future__ import annotations

import json

from .errors import InputFormat
from .rationals import as_rational, format_rational
from .spaces import QuotientSpace, UltrametricSpace, validate_ultrametric

# Glue and certificate types are imported by the functions that build them,
# so reading a space pulls in neither module; elsewhere they appear only in
# annotations, which are never evaluated.


def dumps(obj) -> str:
    """Canonical serialization: insertion order preserved, ASCII-escaped."""
    return json.dumps(obj, ensure_ascii=True)


def loads(text: str):
    # A JSONDecodeError is a ValueError, and so is an integer past the digit limit.
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InputFormat(f"invalid JSON: {exc}") from exc


def raw_space_from_obj(obj) -> tuple[list[str], list[list]]:
    """Pull labels and the raw (unvalidated) matrix out of a space object."""
    if not isinstance(obj, dict):
        raise InputFormat("space must be a JSON object")
    if "points" not in obj or "dist" not in obj:
        raise InputFormat('space object needs "points" and "dist"')
    points = obj["points"]
    dist = obj["dist"]
    if not isinstance(points, list) or not all(isinstance(p, str) for p in points):
        raise InputFormat('"points" must be a list of strings')
    if not isinstance(dist, list) or not all(isinstance(row, list) for row in dist):
        raise InputFormat('"dist" must be a list of rows')
    return list(points), [list(row) for row in dist]


def space_from_obj(obj) -> UltrametricSpace:
    points, dist = raw_space_from_obj(obj)
    return validate_ultrametric(points, dist)


def space_to_obj(space: UltrametricSpace) -> dict:
    text = [format_rational(v) for v in space.values]
    return {
        "points": list(space.labels),
        "dist": [list(map(text.__getitem__, row)) for row in space.ranks],
    }


def quotient_to_obj(q: QuotientSpace) -> dict:
    obj = space_to_obj(q.quotient)
    obj["scale"] = format_rational(q.scale)
    obj["blocks"] = [list(block) for block in q.blocks]
    return obj


def gluespec_from_obj(obj) -> GlueSpec:
    from .amalgam import GlueSpec

    if not isinstance(obj, dict):
        raise InputFormat("glue spec must be a JSON object")
    for key in ("x1", "x2", "identify"):
        if key not in obj:
            raise InputFormat(f'glue spec needs "{key}"')
    pairs = obj["identify"]
    if not isinstance(pairs, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(isinstance(s, str) for s in p)
        for p in pairs
    ):
        raise InputFormat('"identify" must be a list of [left, right] label pairs')
    return GlueSpec(
        space_from_obj(obj["x1"]),
        space_from_obj(obj["x2"]),
        tuple((a, b) for a, b in pairs),
    )


def subset_from_obj(obj) -> list[str]:
    if not isinstance(obj, list) or not all(isinstance(s, str) for s in obj):
        raise InputFormat("subset must be a JSON array of point labels")
    return list(obj)


def ugh_result_to_obj(result: UghResult) -> dict:
    return {
        "value": format_rational(result.value),
        "scale_witness": format_rational(result.scale_witness),
    }


def certificate_to_obj(cert: Certificate) -> dict:
    return {
        "space": space_to_obj(cert.space),
        "embed_left": dict(cert.embed_left),
        "embed_right": dict(cert.embed_right),
        "achieved": format_rational(cert.achieved),
    }


def certificate_from_obj(obj) -> Certificate:
    from .certificates import Certificate

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


def rational_list_to_obj(values) -> list[str]:
    return [format_rational(as_rational(v)) for v in values]
