"""Command-line interface.

Exit codes: 0 success, 1 domain error (structured JSON diagnostic on stderr),
2 usage error, 3 oracle mismatch under ``ugh --oracle``.  Output is
byte-deterministic for identical inputs; results go to stdout unless ``-o``
names a file.
"""

from __future__ import annotations

import argparse
import os
import sys

# Every verb pays for the imports below, so they are only what all verbs need;
# each verb's branch in _run imports the rest.
from . import jsonio
from .errors import InputFormat, InvalidParameter, OracleMismatch, UltrametricError
from .rationals import format_rational, parse_rational, parse_rational_list
from .spaces import closed_quotient, merge_duplicate_points, spectrum, validate_ultrametric


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise InputFormat(f"cannot read {path}: {exc.strerror}", path=path) from exc


def _load_json(path: str):
    return jsonio.loads(_read_text(path))


def _load_space(path: str, merge_duplicates: bool = False):
    points, dist = jsonio.raw_space_from_obj(_load_json(path))
    if merge_duplicates:
        points, dist = merge_duplicate_points(points, dist)
    return validate_ultrametric(points, dist)


def _load_subset(text: str) -> list[str]:
    if text.startswith("@"):
        text = _read_text(text[1:])
    return jsonio.subset_from_obj(jsonio.loads(text))


def _emit(line: str, out_path: str | None) -> None:
    if not out_path:
        sys.stdout.write(line + "\n")
        return
    try:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(line + "\n")
    except OSError as exc:
        raise InvalidParameter(f"cannot write {out_path}: {exc.strerror}", path=out_path) from exc


def _diagnose(error: UltrametricError) -> None:
    prefix = ""
    if sys.stderr.isatty() and not os.environ.get("NO_COLOR"):
        prefix = "\x1b[31merror:\x1b[0m "
    sys.stderr.write(prefix + jsonio.dumps(error.payload()) + "\n")


_OUTPUT = (("-o", "--output"), {"metavar": "FILE", "help": "write the result to FILE"})
_SPACE = (("space",), {})


def _merge_duplicates(before: str):
    return (
        ("--merge-duplicates",),
        {"action": "store_true", "help": f"collapse points at distance 0 before {before}"},
    )


def _required(flag: str, help: str | None = None, **options):
    return ((flag,), {"required": True, "help": help, **options})


# Each verb's help line and arguments as (flags, add_argument options); ``gen``
# has a table of families in place of arguments.  Both the full parser and a
# single verb's parser are built from this table.
VERBS = {
    "validate": (
        "check the axioms and emit the canonical space",
        [_SPACE, _merge_duplicates("validating"), _OUTPUT],
    ),
    "spectrum": ("sorted distinct distance values", [_SPACE, _OUTPUT]),
    "quotient": (
        "closed-ball quotient at a scale",
        [_SPACE, _required("--t", "scale (rational, >= 0)"), _OUTPUT],
    ),
    "hausdorff": (
        "Hausdorff distance between two subsets",
        [
            _SPACE,
            _required("--a", "subset as JSON array or @file"),
            _required("--b", "subset as JSON array or @file"),
            _OUTPUT,
        ],
    ),
    "net": (
        "greedy epsilon-net (covering, separated)",
        [_SPACE, _required("--eps", "radius (rational, > 0)"), _OUTPUT],
    ),
    "glue": ("amalgamate two spaces along a common part", [(("gluespec",), {}), _OUTPUT]),
    "amalgam": (
        "disjoint union at a fixed cross distance",
        [
            (("space_a",), {}),
            (("space_b",), {}),
            _required("--s", "cross distance (>= both diameters)"),
            _OUTPUT,
        ],
    ),
    "ugh": (
        "Gromov-Hausdorff ultrametric between two spaces",
        [
            (("space_a",), {}),
            (("space_b",), {}),
            (("--certificate",), {"metavar": "FILE", "help": "write an embedding certificate"}),
            (
                ("--oracle",),
                {
                    "action": "store_true",
                    "help": "cross-check against the exhaustive oracle (small spaces only)",
                },
            ),
            _OUTPUT,
        ],
    ),
    "gen": (
        "generate a named family",
        {
            "two-point": ("two points at a given distance", [_required("--c"), _OUTPUT]),
            "crowd": (
                "adjoin n points crowded at scale c",
                [
                    _required("--space"),
                    _required("--base"),
                    _required("--c"),
                    _required("--n", type=int),
                    _OUTPUT,
                ],
            ),
            "cauchy": (
                "powers of 1/2 under the max metric",
                [_required("--depth", type=int), _OUTPUT],
            ),
            "random": (
                "seeded random space with a fixed value set",
                [
                    _required("--n", type=int),
                    _required("--k", 'allowed values, e.g. "0,1/4,1/2,1"'),
                    _required("--seed", type=int),
                    _OUTPUT,
                ],
            ),
        },
    ),
    "cluster": (
        "single-linkage ultrametric of a metric",
        [_required("--input", "metric matrix file"), _merge_duplicates("clustering"), _OUTPUT],
    ),
    "in-uk": (
        "is the spectrum inside an allowed value set",
        [_SPACE, _required("--k", 'allowed values, e.g. "0,1/4,1/2,1"'), _OUTPUT],
    ),
}


def _add_arguments(parser: argparse.ArgumentParser, spec) -> None:
    if isinstance(spec, dict):
        families = parser.add_subparsers(dest="family", required=True)
        for name, (help, arguments) in spec.items():
            _add_arguments(families.add_parser(name, help=help), arguments)
        return
    for flags, options in spec:
        parser.add_argument(*flags, **options)


def build_parser() -> argparse.ArgumentParser:
    """The parser of every verb."""
    parser = argparse.ArgumentParser(
        prog="ultrametric",
        description="Exact computations on finite ultrametric spaces.",
    )
    verbs = parser.add_subparsers(dest="verb", required=True)
    for verb, (help, spec) in VERBS.items():
        _add_arguments(verbs.add_parser(verb, help=help), spec)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse with the named verb's parser alone where that answers as the full
    parser would: its usage, help and errors are the full parser's bytes, and
    only arguments it leaves over need the full parser's diagnostic."""
    if argv and argv[0] in VERBS:
        parser = argparse.ArgumentParser(prog=f"ultrametric {argv[0]}")
        _add_arguments(parser, VERBS[argv[0]][1])
        args, left_over = parser.parse_known_args(argv[1:])
        if not left_over:
            args.verb = argv[0]
            return args
    return build_parser().parse_args(argv)


def _run(args) -> dict | list:
    if args.verb == "validate":
        space = _load_space(args.space, args.merge_duplicates)
        return jsonio.space_to_obj(space)

    if args.verb == "spectrum":
        space = _load_space(args.space)
        return jsonio.rational_list_to_obj(spectrum(space))

    if args.verb == "quotient":
        space = _load_space(args.space)
        q = closed_quotient(space, parse_rational(args.t))
        return jsonio.quotient_to_obj(q)

    if args.verb == "hausdorff":
        from .hyperspace import hausdorff_distance

        space = _load_space(args.space)
        value = hausdorff_distance(space, _load_subset(args.a), _load_subset(args.b))
        return {"value": format_rational(value)}

    if args.verb == "net":
        from .hyperspace import epsilon_net

        space = _load_space(args.space)
        net = epsilon_net(space, parse_rational(args.eps))
        return list(net)

    if args.verb == "glue":
        from .amalgam import glue

        spec = jsonio.gluespec_from_obj(_load_json(args.gluespec))
        return jsonio.space_to_obj(glue(spec))

    if args.verb == "amalgam":
        from .amalgam import disjoint_amalgam

        a = _load_space(args.space_a)
        b = _load_space(args.space_b)
        glued = disjoint_amalgam(a, b, parse_rational(args.s))
        return jsonio.space_to_obj(glued)

    if args.verb == "ugh":
        from .gromov import certificate, ugh_distance

        a = _load_space(args.space_a)
        b = _load_space(args.space_b)
        result = ugh_distance(a, b)
        if args.oracle:
            from .oracle import ugh_oracle

            oracle_value = ugh_oracle(a, b)
            if oracle_value != result.value:
                raise OracleMismatch(
                    f"scan reports {format_rational(result.value)} but the exhaustive "
                    f"oracle reports {format_rational(oracle_value)}",
                    scan=format_rational(result.value),
                    oracle=format_rational(oracle_value),
                )
        if args.certificate:
            # Correct by construction for ugh_distance's own result; see certificate.
            cert = certificate(a, b, result)
            _emit(jsonio.dumps(jsonio.certificate_to_obj(cert)), args.certificate)
        return jsonio.ugh_result_to_obj(result)

    if args.verb == "gen":
        from .generators import (
            cauchy_sequence,
            crowd_family,
            random_space,
            spectrum_constraint,
            two_point_space,
        )

        if args.family == "two-point":
            space = two_point_space(parse_rational(args.c))
        elif args.family == "crowd":
            base = _load_space(args.space)
            space = crowd_family(base, args.base, parse_rational(args.c), args.n)
        elif args.family == "cauchy":
            space = cauchy_sequence(args.depth)
        else:
            constraint = spectrum_constraint(parse_rational_list(args.k))
            space = random_space(args.n, constraint, args.seed)
        return jsonio.space_to_obj(space)

    if args.verb == "cluster":
        from .generators import single_linkage

        points, dist = jsonio.raw_space_from_obj(_load_json(args.input))
        if args.merge_duplicates:
            points, dist = merge_duplicate_points(points, dist)
        return jsonio.space_to_obj(single_linkage(points, dist))

    if args.verb == "in-uk":
        from .generators import in_uk, spectrum_constraint

        space = _load_space(args.space)
        constraint = spectrum_constraint(parse_rational_list(args.k))
        membership = in_uk(space, constraint)
        if membership.member:
            return {"member": True}
        a, b, value = membership.witness
        return {"member": False, "witness": {"points": [a, b], "value": format_rational(value)}}

    raise AssertionError(f"unhandled verb {args.verb!r}")


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        _emit(jsonio.dumps(_run(args)), args.output)
    except OracleMismatch as exc:
        _diagnose(exc)
        return 3
    except UltrametricError as exc:
        _diagnose(exc)
        return 1
    return 0


def entry() -> None:
    raise SystemExit(main(sys.argv[1:]))
