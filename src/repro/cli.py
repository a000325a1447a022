"""The one entry step of every command-line tool.

:func:`run` resolves the run's :class:`~repro.options.Options` — the
environment (read once at import) plus the tool's flags — and runs the
tool's body under them: tracing starts when the ``trace`` option names
a path, the stderr progress reporter when ``progress`` is on, and a
stdout closed early by the reader (``... | head``) ends the run
quietly instead of with a traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable

from . import obs
from .options import use_options

__all__ = ["run"]


def _flag_options(args: argparse.Namespace) -> dict:
    """The option changes the common flags ask for."""
    changes: dict = {}
    if getattr(args, "cubes", False):
        changes.update(cubes=True, cube_jobs=max(1, args.jobs))
    if getattr(args, "certify", False):
        changes["certification"] = True
    if getattr(args, "progress", False):
        changes["progress"] = True
    return changes


def run(body: Callable[[argparse.Namespace], int],
        args: argparse.Namespace) -> int:
    """Run ``body(args)`` under the resolved options; returns its exit
    code (1 when stdout was closed before the output was written)."""
    with use_options(**_flag_options(args)):
        obs.trace.trace_from_env()
        obs.trace.progress_from_env()
        try:
            code = body(args)
            sys.stdout.flush()
        except BrokenPipeError:
            # The reader is gone: point stdout at devnull so the
            # interpreter's final flush does not fail a second time.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            return 1
    return code
