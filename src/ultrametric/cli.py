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

from . import jsonio
from .amalgam import disjoint_amalgam, glue
from .errors import InputFormat, InvalidParameter, OracleMismatch, UltrametricError
from .generators import (
    cauchy_sequence,
    crowd_family,
    in_uk,
    random_space,
    single_linkage,
    spectrum_constraint,
    two_point_space,
)
from .gromov import certificate, ugh_distance, verify_certificate
from .hyperspace import epsilon_net, hausdorff_distance
from .oracle import ugh_oracle
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ultrametric",
        description="Exact computations on finite ultrametric spaces.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_output(p):
        p.add_argument("-o", "--output", metavar="FILE", help="write the result to FILE")

    p = sub.add_parser("validate", help="check the axioms and emit the canonical space")
    p.add_argument("space")
    p.add_argument(
        "--merge-duplicates",
        action="store_true",
        help="collapse points at distance 0 before validating",
    )
    add_output(p)

    p = sub.add_parser("spectrum", help="sorted distinct distance values")
    p.add_argument("space")
    add_output(p)

    p = sub.add_parser("quotient", help="closed-ball quotient at a scale")
    p.add_argument("space")
    p.add_argument("--t", required=True, help="scale (rational, >= 0)")
    add_output(p)

    p = sub.add_parser("hausdorff", help="Hausdorff distance between two subsets")
    p.add_argument("space")
    p.add_argument("--a", required=True, help="subset as JSON array or @file")
    p.add_argument("--b", required=True, help="subset as JSON array or @file")
    add_output(p)

    p = sub.add_parser("net", help="greedy epsilon-net (covering, separated)")
    p.add_argument("space")
    p.add_argument("--eps", required=True, help="radius (rational, > 0)")
    add_output(p)

    p = sub.add_parser("glue", help="amalgamate two spaces along a common part")
    p.add_argument("gluespec")
    add_output(p)

    p = sub.add_parser("amalgam", help="disjoint union at a fixed cross distance")
    p.add_argument("space_a")
    p.add_argument("space_b")
    p.add_argument("--s", required=True, help="cross distance (>= both diameters)")
    add_output(p)

    p = sub.add_parser("ugh", help="Gromov-Hausdorff ultrametric between two spaces")
    p.add_argument("space_a")
    p.add_argument("space_b")
    p.add_argument("--certificate", metavar="FILE", help="write an embedding certificate")
    p.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check against the exhaustive oracle (small spaces only)",
    )
    add_output(p)

    p = sub.add_parser("gen", help="generate a named family")
    gen = p.add_subparsers(dest="family", required=True)

    g = gen.add_parser("two-point", help="two points at a given distance")
    g.add_argument("--c", required=True)
    add_output(g)

    g = gen.add_parser("crowd", help="adjoin n points crowded at scale c")
    g.add_argument("--space", required=True)
    g.add_argument("--base", required=True)
    g.add_argument("--c", required=True)
    g.add_argument("--n", required=True, type=int)
    add_output(g)

    g = gen.add_parser("cauchy", help="powers of 1/2 under the max metric")
    g.add_argument("--depth", required=True, type=int)
    add_output(g)

    g = gen.add_parser("random", help="seeded random space with a fixed value set")
    g.add_argument("--n", required=True, type=int)
    g.add_argument("--k", required=True, help='allowed values, e.g. "0,1/4,1/2,1"')
    g.add_argument("--seed", required=True, type=int)
    add_output(g)

    p = sub.add_parser("cluster", help="single-linkage ultrametric of a metric")
    p.add_argument("--input", required=True, help="metric matrix file")
    p.add_argument(
        "--merge-duplicates",
        action="store_true",
        help="collapse points at distance 0 before clustering",
    )
    add_output(p)

    p = sub.add_parser("in-uk", help="is the spectrum inside an allowed value set")
    p.add_argument("space")
    p.add_argument("--k", required=True, help='allowed values, e.g. "0,1/4,1/2,1"')
    add_output(p)

    return parser


def _run(args) -> tuple[str, str | None]:
    if args.verb == "validate":
        space = _load_space(args.space, args.merge_duplicates)
        return jsonio.dumps(jsonio.space_to_obj(space)), args.output

    if args.verb == "spectrum":
        space = _load_space(args.space)
        return jsonio.dumps(jsonio.rational_list_to_obj(spectrum(space))), args.output

    if args.verb == "quotient":
        space = _load_space(args.space)
        q = closed_quotient(space, parse_rational(args.t))
        return jsonio.dumps(jsonio.quotient_to_obj(q)), args.output

    if args.verb == "hausdorff":
        space = _load_space(args.space)
        value = hausdorff_distance(space, _load_subset(args.a), _load_subset(args.b))
        return jsonio.dumps({"value": format_rational(value)}), args.output

    if args.verb == "net":
        space = _load_space(args.space)
        net = epsilon_net(space, parse_rational(args.eps))
        return jsonio.dumps(list(net)), args.output

    if args.verb == "glue":
        spec = jsonio.gluespec_from_obj(_load_json(args.gluespec))
        return jsonio.dumps(jsonio.space_to_obj(glue(spec))), args.output

    if args.verb == "amalgam":
        a = _load_space(args.space_a)
        b = _load_space(args.space_b)
        glued = disjoint_amalgam(a, b, parse_rational(args.s))
        return jsonio.dumps(jsonio.space_to_obj(glued)), args.output

    if args.verb == "ugh":
        a = _load_space(args.space_a)
        b = _load_space(args.space_b)
        result = ugh_distance(a, b)
        if args.oracle:
            oracle_value = ugh_oracle(a, b)
            if oracle_value != result.value:
                raise OracleMismatch(
                    f"scan reports {format_rational(result.value)} but the exhaustive "
                    f"oracle reports {format_rational(oracle_value)}",
                    scan=format_rational(result.value),
                    oracle=format_rational(oracle_value),
                )
        if args.certificate:
            cert = certificate(a, b, result)
            verify_certificate(cert, a, b)
            _emit(jsonio.dumps(jsonio.certificate_to_obj(cert)), args.certificate)
        return jsonio.dumps(jsonio.ugh_result_to_obj(result)), args.output

    if args.verb == "gen":
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
        return jsonio.dumps(jsonio.space_to_obj(space)), args.output

    if args.verb == "cluster":
        points, dist = jsonio.raw_space_from_obj(_load_json(args.input))
        if args.merge_duplicates:
            points, dist = merge_duplicate_points(points, dist)
        return jsonio.dumps(jsonio.space_to_obj(single_linkage(points, dist))), args.output

    if args.verb == "in-uk":
        space = _load_space(args.space)
        constraint = spectrum_constraint(parse_rational_list(args.k))
        membership = in_uk(space, constraint)
        if membership.member:
            return jsonio.dumps({"member": True}), args.output
        a, b, value = membership.witness
        return (
            jsonio.dumps(
                {
                    "member": False,
                    "witness": {"points": [a, b], "value": format_rational(value)},
                }
            ),
            args.output,
        )

    raise AssertionError(f"unhandled verb {args.verb!r}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        line, out_path = _run(args)
        _emit(line, out_path)
    except OracleMismatch as exc:
        _diagnose(exc)
        return 3
    except UltrametricError as exc:
        _diagnose(exc)
        return 1
    return 0


def entry() -> None:
    raise SystemExit(main(sys.argv[1:]))
