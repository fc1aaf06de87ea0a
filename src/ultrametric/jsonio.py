"""Byte-deterministic JSON interchange.

Formats (all rational values are canonical strings like ``"0"``, ``"1/2"``):

* space:      ``{"points": ["a", ...], "dist": [["0", "1/2", ...], ...]}``
* dendrogram: ``{"leaf": "a"}`` or ``{"height": "1/2", "children": [...]}``
* glue spec:  ``{"x1": <space>, "x2": <space>, "identify": [["a","a2"], ...]}``
* subset:     ``["a", "b", ...]``

Readers ignore unknown keys so enriched outputs (for example a quotient space
carrying its ``blocks``) can be piped straight back in; writers always emit
the canonical key order shown above.
"""

from __future__ import annotations

import json

from .amalgam import GlueSpec
from .dendrogram import Leaf, Merge, Node
from .errors import InputFormat
from .rationals import as_rational, format_rational
from .spaces import QuotientSpace, UltrametricSpace, validate_ultrametric
from .gromov import Certificate, UghResult


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


def dendrogram_to_obj(node: Node) -> dict:
    """JSON object of a dendrogram, built in pre-order without recursion."""
    root: dict = {}
    stack = [(node, root)]
    while stack:
        node, obj = stack.pop()
        if isinstance(node, Leaf):
            obj["leaf"] = node.label
            continue
        obj["height"] = format_rational(node.height)
        obj["children"] = children = [{} for _ in node.children]
        stack.extend(reversed(list(zip(node.children, children))))
    return root


def dendrogram_from_obj(obj) -> Node:
    """Dendrogram from its JSON object, read without recursion.

    Nodes are checked in pre-order; an internal node's height is read after
    its children, so the first malformed node reported is the same as in a
    recursive reader.
    """
    built: list[Node] = []
    stack = [(obj, False)]
    while stack:
        current, expanded = stack.pop()
        if expanded:
            start = len(built) - len(current["children"])
            children = tuple(built[start:])
            del built[start:]
            built.append(Merge(as_rational(current["height"]), children))
            continue
        if not isinstance(current, dict):
            raise InputFormat("dendrogram node must be a JSON object")
        if "leaf" in current:
            if not isinstance(current["leaf"], str):
                raise InputFormat('"leaf" must be a string label')
            built.append(Leaf(current["leaf"]))
            continue
        if "height" not in current or "children" not in current:
            raise InputFormat('dendrogram node needs "leaf" or "height"+"children"')
        if not isinstance(current["children"], list):
            raise InputFormat('"children" must be a list')
        stack.append((current, True))
        stack.extend((child, False) for child in reversed(current["children"]))
    return built[0]


def gluespec_from_obj(obj) -> GlueSpec:
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


def gluespec_to_obj(spec: GlueSpec) -> dict:
    return {
        "x1": space_to_obj(spec.x1),
        "x2": space_to_obj(spec.x2),
        "identify": [[a, b] for a, b in spec.identify],
    }


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
