"""Command-line interface.

Exit codes: 0 success, 1 domain error (structured JSON diagnostic on stderr),
2 usage error, 3 oracle mismatch under ``ugh --oracle``.  Output is
byte-deterministic for identical inputs; results go to stdout unless ``-o``
names a file.

This module reads the arguments (:data:`VERBS`), hands them to the verb's
handler and writes what it returns, or the diagnostic.  Each handler lives
beside the code its verb runs, in the module its :data:`VERBS` entry names,
and a job imports only that module, so it compiles no other verb's code.  A
clean job's arguments are read by :func:`_scan`; every other argument list
goes to :func:`build_parser`, built from the same table, and only such a job
imports ``argparse``.  Every verb also takes ``-o/--output``, which both
readers add after the arguments the table lists.
A job (:func:`entry`) leaves through ``os._exit`` once its ``atexit``
handlers ran and its streams are flushed, so it skips interpreter teardown.
"""

import atexit
import os
import sys
from importlib import import_module
from types import SimpleNamespace

# Every verb pays for the imports below, so they are only what all verbs need.
from . import jsonio
from .errors import OracleMismatch, UltrametricError


def _diagnose(error: UltrametricError) -> None:
    """Write the error's diagnostic line to stderr, if stderr takes it: with
    nowhere left to report to, the job keeps its exit code."""
    line = jsonio.dumps(error.payload()) + "\n"
    try:
        if sys.stderr.isatty() and not os.environ.get("NO_COLOR"):
            line = "\x1b[31merror:\x1b[0m " + line
        sys.stderr.write(line)
    except (AttributeError, OSError):  # stderr is None, closed or full
        pass


_OUTPUT = (("-o", "--output"), {"metavar": "FILE", "help": "write the result to FILE"})
_SPACE = (("space",), {})
_SPACES = [(("space_a",), {}), (("space_b",), {})]


def _merge_duplicates(before: str):
    return (
        ("--merge-duplicates",),
        {"action": "store_true", "help": f"collapse points at distance 0 before {before}"},
    )


def _required(flag: str, help: str | None = None, **options):
    return ((flag,), {"required": True, "help": help, **options})


_K = _required("--k", 'allowed values, e.g. "0,1/4,1/2,1"')


# Each verb's handler module, help line and arguments as (flags, add_argument
# options); ``gen`` has a table of families in place of arguments.  The
# handler is the module's ``cli_<verb>``, with ``-`` written as ``_``: it takes
# the parsed arguments and returns the object to print.  build_parser builds
# the argparse parser from this table, and _scan reads a clean job's arguments
# off it; both add ``-o/--output`` (:data:`_OUTPUT`) after every verb's and
# family's arguments, so the table does not list it.
VERBS = {
    "validate": (
        "jsonio",
        "check the axioms and emit the canonical space",
        [_SPACE, _merge_duplicates("validating")],
    ),
    "spectrum": ("jsonio", "sorted distinct distance values", [_SPACE]),
    "quotient": (
        "builders",
        "closed-ball quotient at a scale",
        [_SPACE, _required("--t", "scale (rational, >= 0)")],
    ),
    "hausdorff": (
        "hyperspace",
        "Hausdorff distance between two subsets",
        [
            _SPACE,
            _required("--a", "subset as JSON array or @file"),
            _required("--b", "subset as JSON array or @file"),
        ],
    ),
    "net": (
        "hyperspace",
        "greedy epsilon-net (covering, separated)",
        [_SPACE, _required("--eps", "radius (rational, > 0)")],
    ),
    "glue": ("amalgam", "amalgamate two spaces along a common part", [(("gluespec",), {})]),
    "amalgam": (
        "amalgam",
        "disjoint union at a fixed cross distance",
        [*_SPACES, _required("--s", "cross distance (>= both diameters)")],
    ),
    "ugh": (
        "gromov",
        "Gromov-Hausdorff ultrametric between two spaces",
        [
            *_SPACES,
            (("--certificate",), {"metavar": "FILE", "help": "write an embedding certificate"}),
            (
                ("--oracle",),
                {
                    "action": "store_true",
                    "help": "cross-check against the exhaustive oracle (small spaces only)",
                },
            ),
        ],
    ),
    "gen": (
        "generators",
        "generate a named family",
        {
            "two-point": ("two points at a given distance", [_required("--c")]),
            "crowd": (
                "adjoin n points crowded at scale c",
                [
                    _required("--space"),
                    _required("--base"),
                    _required("--c"),
                    _required("--n", type=int),
                ],
            ),
            "cauchy": ("powers of 1/2 under the max metric", [_required("--depth", type=int)]),
            "random": (
                "seeded random space with a fixed value set",
                [_required("--n", type=int), _K, _required("--seed", type=int)],
            ),
        },
    ),
    "cluster": (
        "linkage",
        "single-linkage ultrametric of a metric",
        [_required("--input", "metric matrix file"), _merge_duplicates("clustering")],
    ),
    "in-uk": ("generators", "is the spectrum inside an allowed value set", [_SPACE, _K]),
}


def _add_arguments(parser, spec) -> None:
    if isinstance(spec, dict):
        families = parser.add_subparsers(dest="family", required=True)
        for name, (help, arguments) in spec.items():
            _add_arguments(families.add_parser(name, help=help), arguments)
        return
    for flags, options in (*spec, _OUTPUT):
        parser.add_argument(*flags, **options)


def build_parser():
    """The argparse parser of every verb."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="ultrametric",
        description="Exact computations on finite ultrametric spaces.",
    )
    verbs = parser.add_subparsers(dest="verb", required=True)
    for verb, (_, help, spec) in VERBS.items():
        _add_arguments(verbs.add_parser(verb, help=help), spec)
    return parser


def _scan(argv: list[str]) -> SimpleNamespace | None:
    """The namespace ``build_parser().parse_args(argv)`` returns, for an argv
    that argparse cannot read any other way; None for anything else.

    Read: the verb (and ``gen``'s family), then the verb's flags, each at most
    once and spelled exactly as in :data:`VERBS`, with the value as the next
    argument, converted by the flag's ``type``; exactly the verb's
    positionals and every required flag.  Declined, for argparse to answer
    with its own namespace or its own help, usage and error bytes: any other
    argument starting with ``-`` (abbreviations, ``--flag=value``, ``-``,
    ``--``, ``-h``, ``--help``, ``-ox``, negative numbers), a value starting
    with ``-`` and a failed conversion.
    """
    if not argv or argv[0] not in VERBS:
        return None
    found, (_, _, spec), tokens = {"verb": argv[0]}, VERBS[argv[0]], argv[1:]
    if isinstance(spec, dict):
        if not tokens or tokens[0] not in spec:
            return None
        found["family"], (_, spec), tokens = tokens[0], spec[tokens[0]], tokens[1:]
    flags, positionals, required = {}, [], set()
    for names, options in (*spec, _OUTPUT):
        if not names[0].startswith("-"):
            positionals.append(names[0])
            continue
        dest = names[-1].lstrip("-").replace("-", "_")  # the long name is last
        flags.update(dict.fromkeys(names, (dest, options)))
        found[dest] = False if options.get("action") == "store_true" else None
        if options.get("required"):
            required.add(dest)
    seen, rest, tokens = set(), [], iter(tokens)
    for token in tokens:
        if not token.startswith("-"):
            rest.append(token)
            continue
        if token not in flags:
            return None
        dest, options = flags[token]
        if dest in seen:
            return None
        seen.add(dest)
        if options.get("action") == "store_true":
            found[dest] = True
            continue
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
    """Read a clean job with _scan; argparse reads, or refuses, the rest.

    With stderr closed, argparse would print a usage error's usage line to
    stdout, so the parser then runs with stderr sent to a discarded sink."""
    args = _scan(argv)
    if args is None:
        from contextlib import nullcontext, redirect_stderr
        from io import StringIO

        with redirect_stderr(StringIO()) if sys.stderr is None else nullcontext():
            args = build_parser().parse_args(argv)
    return args


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    module = import_module(f".{VERBS[args.verb][0]}", __package__)
    try:
        result = getattr(module, "cli_" + args.verb.replace("-", "_"))(args)
        jsonio.emit(jsonio.dumps(result), args.output)
    except OracleMismatch as exc:
        _diagnose(exc)
        return 3
    except UltrametricError as exc:
        _diagnose(exc)
        return 1
    return 0


def entry() -> None:
    """``python -m ultrametric``: :func:`main` on ``sys.argv``, then exit.

    The interpreter's exit without its teardown: the ``atexit`` handlers run
    (emptying their registry), then stdout and stderr are flushed, in that
    order so a handler's output is written too, and ``os._exit`` leaves the
    modules and objects the job loaded to the OS.  A failed flush of stdout
    is reported as :func:`ultrametric.jsonio.emit` reports a failed write,
    with exit code 1; a missing stderr or a failed flush of it changes
    nothing.  The CLI starts no thread, so none is left to join.
    :func:`main` does not exit: tests and library callers run it in a
    process that goes on.
    """
    code = main(sys.argv[1:])
    atexit._run_exitfuncs()
    if sys.stdout is not None:
        try:
            sys.stdout.flush()
        except OSError as exc:
            _diagnose(jsonio.unwritable(exc))
            code = 1
    try:
        sys.stderr.flush()
    except (AttributeError, OSError):  # as in _diagnose
        pass
    os._exit(code)
