"""Command-line interface.

Exit codes: 0 success, 1 domain error (structured JSON diagnostic on stderr),
2 usage error, 3 oracle mismatch under ``ugh --oracle``.  Output is
byte-deterministic for identical inputs; results go to stdout unless ``-o``
names a file.
"""

from __future__ import annotations

import gc
import os
import sys
from types import SimpleNamespace

# Every verb pays for the imports below, so they are only what all verbs need;
# each verb's branch in _run imports the rest.
from . import jsonio
from .errors import InputFormat, InvalidParameter, OracleMismatch, UltrametricError
from .rationals import format_rational, parse_rational, parse_rational_list
from .spaces import spectrum, validate_ultrametric


def _read_text(path: str) -> str:
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


def _load_json(path: str):
    return jsonio.loads(_read_text(path))


def _load_space(path: str, merge_duplicates: bool = False):
    points, dist = jsonio.raw_space_from_obj(_load_json(path))
    if merge_duplicates:
        from .builders import merge_duplicate_points

        points, dist = merge_duplicate_points(points, dist)
    return validate_ultrametric(points, dist)


def _load_subset(text: str) -> list[str]:
    if text.startswith("@"):
        text = _read_text(text[1:])
    return jsonio.subset_from_obj(jsonio.loads(text))


def _emit(line: str, out_path: str | None) -> None:
    if not out_path:
        # A job started with stdout closed (``>&-``) has no sys.stdout.
        if sys.stdout is None:
            raise InvalidParameter("cannot write the result: standard output is closed")
        try:
            sys.stdout.write(line + "\n")
            sys.stdout.flush()
        except OSError as exc:
            # The interpreter flushes the same buffer again at exit; send it nowhere.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise InvalidParameter(f"cannot write the result: {exc.strerror}") from exc
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
# has a table of families in place of arguments.  The argparse parser is built
# from this table, and _scan reads a clean job's arguments off it.
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


def _add_arguments(parser, spec) -> None:
    if isinstance(spec, dict):
        families = parser.add_subparsers(dest="family", required=True)
        for name, (help, arguments) in spec.items():
            _add_arguments(families.add_parser(name, help=help), arguments)
        return
    for flags, options in spec:
        parser.add_argument(*flags, **options)


def build_parser() -> argparse.ArgumentParser:
    """The parser of every verb."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="ultrametric",
        description="Exact computations on finite ultrametric spaces.",
    )
    verbs = parser.add_subparsers(dest="verb", required=True)
    for verb, (help, spec) in VERBS.items():
        _add_arguments(verbs.add_parser(verb, help=help), spec)
    return parser


def _scan(argv: list[str]) -> SimpleNamespace | None:
    """The namespace ``build_parser().parse_args(argv)`` returns, for an argv
    that argparse cannot read any other way; None for anything else.

    Read: the verb (and ``gen``'s family), then the verb's flags, each at most
    once, exact or as a unique ``--`` prefix among them and ``--help``, with
    ``--flag=value`` or the value as the next argument, converted by the
    flag's ``type``; exactly the verb's positionals and every required flag.
    Declined, for argparse to answer with its own help, usage and error
    bytes: any other argument starting with ``-`` (``-``, ``--``, ``-h``,
    ``-ox``, ``-o=x``, negative numbers), a value starting with ``-``, ``=``
    on a switch and a failed conversion.
    """
    if not argv or argv[0] not in VERBS:
        return None
    found, (_, spec), tokens = {"verb": argv[0]}, VERBS[argv[0]], argv[1:]
    if isinstance(spec, dict):
        if not tokens or tokens[0] not in spec:
            return None
        found["family"], (_, spec), tokens = tokens[0], spec[tokens[0]], tokens[1:]
    flags, positionals, required = {}, [], set()
    for names, options in spec:
        if not names[0].startswith("-"):
            positionals.append(names[0])
            continue
        dest = next((n for n in names if n.startswith("--")), names[0])
        dest = dest.lstrip("-").replace("-", "_")
        flags.update(dict.fromkeys(names, (dest, options)))
        found[dest] = False if options.get("action") == "store_true" else None
        if options.get("required"):
            required.add(dest)
    longs = [flag for flag in flags if flag.startswith("--")] + ["--help"]
    seen, rest, tokens = set(), [], iter(tokens)
    for token in tokens:
        if not token.startswith("-"):
            rest.append(token)
            continue
        flag, equals, value = token.partition("=")
        if flag not in flags and flag.startswith("--"):
            matches = [long for long in longs if long.startswith(flag)]
            flag = matches[0] if len(matches) == 1 else None
        if flag not in flags or (equals and not token.startswith("--")):
            return None
        dest, options = flags[flag]
        if dest in seen:
            return None
        seen.add(dest)
        if options.get("action") == "store_true":
            if equals:
                return None
            found[dest] = True
            continue
        if not equals:
            value = next(tokens, "-")
        if value.startswith("-"):
            return None
        try:
            found[dest] = options.get("type", str)(value)
        except ValueError:
            return None
    if len(rest) != len(positionals) or not required <= seen:
        return None
    found.update(zip(positionals, rest))
    return SimpleNamespace(**found)


def _parse(argv: list[str]):
    """Read a clean job with _scan; argparse reads, or refuses, the rest."""
    args = _scan(argv)
    return build_parser().parse_args(argv) if args is None else args


def _run(args) -> dict | list:
    if args.verb == "validate":
        space = _load_space(args.space, args.merge_duplicates)
        return jsonio.space_to_obj(space)

    if args.verb == "spectrum":
        space = _load_space(args.space)
        return jsonio.rational_list_to_obj(spectrum(space))

    if args.verb == "quotient":
        from .builders import closed_quotient

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
        from .amalgam import glue, gluespec_from_obj

        spec = gluespec_from_obj(_load_json(args.gluespec))
        return jsonio.space_to_obj(glue(spec))

    if args.verb == "amalgam":
        from .amalgam import disjoint_amalgam

        a = _load_space(args.space_a)
        b = _load_space(args.space_b)
        glued = disjoint_amalgam(a, b, parse_rational(args.s))
        return jsonio.space_to_obj(glued)

    if args.verb == "ugh":
        from .gromov import ugh_distance

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
            from .certificates import certificate, certificate_to_obj

            # Correct by construction for ugh_distance's own result; see certificate.
            cert = certificate(a, b, result)
            _emit(jsonio.dumps(certificate_to_obj(cert)), args.certificate)
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
            from .builders import merge_duplicate_points

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
    """``python -m ultrametric``: :func:`main` on ``sys.argv``, then exit.

    Every live object is frozen first, so the collections that run at
    shutdown skip the modules, classes and code the job loaded (about a
    tenth of a small job's CPU) and the OS reclaims them; the exit is
    otherwise normal, with streams flushed and ``atexit`` run.  :func:`main`
    does not freeze: tests and library callers run it in a process that goes on.
    """
    code = main(sys.argv[1:])
    gc.freeze()
    raise SystemExit(code)
