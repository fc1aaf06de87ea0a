"""Byte-deterministic JSON interchange.

Formats (all rational values are canonical strings like ``"0"``, ``"1/2"``):

* space:         ``{"points": ["a", ...], "dist": [["0", "1/2", ...], ...]}``
* quotient:      a space plus ``"scale": "1/2"``, ``"blocks": [["a", ...], ...]``
* u_GH value:    ``{"value": "3/4", "scale_witness": "3/4"}`` (the same value)
* certificate:   ``{"space": <space>, "embed_left": {...}, "embed_right":
  {...}, "achieved": "1/2"}``
* subset:        ``["a", "b", ...]``
* rational list: ``["0", "1/2", ...]``

Every writer of a record the CLI prints lives here.  The glue-spec and
certificate readers build records of modules that import this one, so they
live beside them, in :mod:`ultrametric.amalgam` and :mod:`ultrametric.certificates`.

Readers ignore unknown keys so enriched outputs (for example a quotient space
carrying its ``blocks``) can be piped straight back in; writers always emit
the canonical key order shown above.

The CLI's file helpers (:func:`read_text`, :func:`load_space`,
:func:`load_subset`, :func:`emit` and the rest) live here, so the verb
handlers, each beside the code its verb runs, never import
:mod:`ultrametric.cli`.  :func:`load_space` takes a path only; the
``--merge-duplicates`` of ``validate`` and ``cluster`` goes to
:func:`load_matrix`, the one reader that merges.  The handlers of ``validate`` and
``spectrum``, which run nothing else, live here too.
"""

import json
import os
import sys

from .errors import InputFormat, InvalidParameter
from .rationals import digits_bounded, format_rational, too_large
from .spaces import UltrametricSpace, merge_duplicate_points, spectrum, validate_ultrametric


def dumps(obj) -> str:
    """Canonical serialization: insertion order preserved, ASCII-escaped."""
    return json.dumps(obj, ensure_ascii=True)


def loads(text: str):
    """Parse JSON text; an integer literal past the digit bound is refused unread."""
    try:
        with digits_bounded():
            return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputFormat(f"invalid JSON: {exc}") from exc
    except ValueError:  # an integer literal past the digit bound
        raise too_large("a JSON integer") from None


def raw_space_from_obj(obj) -> tuple[list[str], list[list]]:
    """Labels and the raw matrix of a space object, its own lists: each row
    is judged when :func:`ultrametric.spaces.rank_image` reads it."""
    if not isinstance(obj, dict):
        raise InputFormat("space must be a JSON object")
    if "points" not in obj or "dist" not in obj:
        raise InputFormat('space object needs "points" and "dist"')
    points = obj["points"]
    dist = obj["dist"]
    if not isinstance(points, list) or not all(isinstance(p, str) for p in points):
        raise InputFormat('"points" must be a list of strings')
    if not isinstance(dist, list):
        raise InputFormat('"dist" must be a list of rows')
    return points, dist


def space_from_obj(obj) -> UltrametricSpace:
    points, dist = raw_space_from_obj(obj)
    return validate_ultrametric(points, dist)


def space_to_obj(space: UltrametricSpace) -> dict:
    text = [format_rational(v) for v in space.values]
    return {
        "points": list(space.labels),
        "dist": [list(map(text.__getitem__, row)) for row in space.ranks],
    }


def quotient_to_obj(q) -> dict:
    """The quotient format of a :class:`ultrametric.builders.QuotientSpace`."""
    obj = space_to_obj(q.quotient)
    obj["scale"] = format_rational(q.scale)
    obj["blocks"] = [list(block) for block in q.blocks]
    return obj


def ugh_result_to_obj(result) -> dict:
    """The u_GH value format of a :class:`ultrametric.gromov.UghResult`: its
    value, written under both keys."""
    value = format_rational(result.value)
    return {"value": value, "scale_witness": value}


def certificate_to_obj(cert) -> dict:
    """The certificate format of a :class:`ultrametric.certificates.Certificate`."""
    return {
        "space": space_to_obj(cert.space),
        "embed_left": dict(cert.embed_left),
        "embed_right": dict(cert.embed_right),
        "achieved": format_rational(cert.achieved),
    }


def rational_list_to_obj(values) -> list[str]:
    return [format_rational(v) for v in values]


def read_text(path: str) -> str:
    """The text of the file at ``path``, or of standard input for ``-``."""
    if path == "-":
        # A job started with stdin closed (``<&-``) has no sys.stdin.
        if sys.stdin is None:
            raise InputFormat("cannot read -: standard input is closed", path=path)
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise InputFormat(f"cannot read {path}: {exc.strerror}", path=path) from exc
    except UnicodeDecodeError as exc:
        message = f"cannot read {path}: invalid {exc.encoding} at byte {exc.start}"
        raise InputFormat(message, path=path) from exc


def load_matrix(path: str, merge_duplicates: bool = False) -> tuple[list[str], list[list]]:
    """The labels and raw matrix of the space file at ``path``, with points
    at distance 0 merged when asked."""
    points, dist = raw_space_from_obj(loads(read_text(path)))
    if merge_duplicates:
        return merge_duplicate_points(points, dist)
    return points, dist


def load_space(path: str) -> UltrametricSpace:
    return validate_ultrametric(*load_matrix(path))


def subset_from_obj(obj) -> list[str]:
    if not isinstance(obj, list) or not all(isinstance(s, str) for s in obj):
        raise InputFormat("subset must be a JSON array of point labels")
    return list(obj)


def load_subset(text: str) -> list[str]:
    """A subset given as JSON text, or as ``@file``."""
    if text.startswith("@"):
        text = read_text(text[1:])
    return subset_from_obj(loads(text))


def emit(line: str, out_path: str | None) -> None:
    """Write one line to the file ``out_path``, or to standard output."""
    if not out_path:
        # A job started with stdout closed (``>&-``) has no sys.stdout.
        if sys.stdout is None:
            raise InvalidParameter("cannot write the result: standard output is closed")
        try:
            sys.stdout.write(line + "\n")
            sys.stdout.flush()
        except OSError as exc:
            raise unwritable(exc) from exc
        return
    try:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(line + "\n")
    except OSError as exc:
        raise InvalidParameter(f"cannot write {out_path}: {exc.strerror}", path=out_path) from exc


def unwritable(exc: OSError) -> InvalidParameter:
    """The diagnostic of standard output failing with ``exc``.

    Standard output is pointed at ``/dev/null`` first: the bytes left in its
    buffer are flushed again on the way out, and would fail again.
    """
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)
    return InvalidParameter(f"cannot write the result: {exc.strerror}")


def cli_validate(args) -> dict:
    """``ultrametric validate SPACE [--merge-duplicates]``."""
    return space_to_obj(validate_ultrametric(*load_matrix(args.space, args.merge_duplicates)))


def cli_spectrum(args) -> list[str]:
    """``ultrametric spectrum SPACE``."""
    return rational_list_to_obj(spectrum(load_space(args.space)))

