"""The full argparse parser of the CLI.

:func:`ultrametric.cli._scan` reads a clean job's arguments off
:data:`ultrametric.cli.VERBS`, each flag spelled exactly, with its value as
the next argument.  Every other argument list (help, usage errors,
abbreviated flags, ``--flag=value`` and the other forms the scan declines)
goes to :func:`build_parser`, built from the same table, so what it reads
and its help, usage and error bytes are argparse's own.  Only such a job
loads this module and ``argparse``.
"""

import argparse

from .cli import VERBS


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
    parser = argparse.ArgumentParser(
        prog="ultrametric",
        description="Exact computations on finite ultrametric spaces.",
    )
    verbs = parser.add_subparsers(dest="verb", required=True)
    for verb, (_, help, spec) in VERBS.items():
        _add_arguments(verbs.add_parser(verb, help=help), spec)
    return parser
