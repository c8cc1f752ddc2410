"""Command-line interface: regenerate the paper's tables and figures.

Usage (installed as ``repro-slp-das`` or via ``python -m repro.cli``)::

    repro-slp-das table1
    repro-slp-das figure5 --search-distance 3 --repeats 30
    repro-slp-das overhead --size 11 --seeds 3
    repro-slp-das verify --size 11 --seed 0 --search-distance 3
    repro-slp-das show --size 11 --seed 0
    repro-slp-das scenario list
    repro-slp-das scenario run two-sources --seeds 20 --workers 2
    repro-slp-das scenario compare paper-baseline mobile-source

Every subcommand prints the same rows/series the paper reports, so
each of the paper's numbers can be re-derived from a shell; the
``scenario`` family sweeps the declarative workloads of
:mod:`repro.scenarios`.

This module holds only the dispatch: each subcommand's arguments and
handler live in a module of :mod:`repro.commands`, and a call builds
the parser of the subcommand it invokes and nothing else.
"""

from __future__ import annotations

import argparse
import gc
import sys
from typing import List, Optional

from .errors import EXIT_QUARANTINED  # noqa: F401  (re-exported for scripts)
from .errors import (
    EXIT_STORAGE,
    EXIT_SWEEP_FAILED,
    ConfigurationError,
    StorageError,
    SweepExecutionError,
)

#: Each subcommand, in help order, and the module of
#: :mod:`repro.commands` that declares its arguments and runs it.
_COMMANDS = {
    "table1": "paper",
    "figure5": "paper",
    "overhead": "paper",
    "verify": "paper",
    "scenario": "scenario",
    "service": "service",
    "worker": "service",
    "show": "paper",
}


class _Reparse(Exception):
    """A partial parse failed: the full parser reports the error."""


class _PartialParser(argparse.ArgumentParser):
    """A parser holding only the invoked subcommand.

    Its help output is the full parser's, but an error message may name
    the other subcommands, so any error is handed back to :func:`main`,
    which parses again with :func:`build_parser`.
    """

    def error(self, message: str):
        raise _Reparse(message)


def _root(parser_class=argparse.ArgumentParser):
    parser = parser_class(
        prog="repro-slp-das",
        description=(
            "Reproduction of 'Source Location Privacy-Aware Data "
            "Aggregation Scheduling for WSNs' (ICDCS 2017)"
        ),
    )
    return parser, parser.add_subparsers(dest="command", required=True)


def _add_command(sub, name: str, leaf: Optional[str] = None) -> None:
    module = __import__(f"repro.commands.{_COMMANDS[name]}", fromlist=("add_command",))
    module.add_command(sub, name, leaf)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser with every subcommand."""
    parser, sub = _root()
    for name in _COMMANDS:
        _add_command(sub, name)
    return parser


def _parse(argv: List[str]) -> argparse.Namespace:
    """Parse ``argv`` with the invoked subcommand's parser only (a
    subcommand group adds just the invoked leaf), or with the full
    parser for a top-level option, an unknown name or any error."""
    if argv and argv[0] in _COMMANDS:
        parser, sub = _root(_PartialParser)
        _add_command(sub, argv[0], argv[1] if len(argv) > 1 else None)
        try:
            return parser.parse_args(argv)
        except _Reparse:
            pass
    return build_parser().parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point.

    Exit codes: ``0`` success, ``EXIT_SWEEP_FAILED`` (3) when a sweep
    produced no results at all, ``EXIT_QUARANTINED`` (4) when it
    completed but had to quarantine failing seeds, ``EXIT_STORAGE``
    (5) when a durable write failed (disk full, read-only filesystem).
    """
    args = _parse(sys.argv[1:] if argv is None else argv)
    if not getattr(args, "imports_first", False):
        from .commands.common import imports_done

        imports_done()
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StorageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STORAGE
    except SweepExecutionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SWEEP_FAILED


def _process_main() -> None:
    """The process entry point: :func:`main` with the cyclic collector
    off the startup and shutdown paths (DESIGN.md "Collector policy");
    an in-process caller of :func:`main` keeps the default collector."""
    from .commands.common import hold_gc

    hold_gc()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":  # pragma: no cover - module execution
    _process_main()
