"""The run configuration: one frozen :class:`Options` value.

Every behaviour the environment can switch — SAT debug checks,
profiling, proof logging, inprocessing, the cube-and-conquer path,
frame templates, metrics, verdict certification, tracing and live
progress — is one field of :class:`Options`.  The environment is read
exactly once, by :meth:`Options.from_env` when this module is first
imported; from then on the options in force are :func:`current`, and
they change only through the scoped override :func:`use_options`.

The options travel with the work: :class:`repro.parallel.ParallelExecutor`
captures :func:`current` when tasks are submitted and installs that
value around every task, in-process or in a worker process, so a
verdict does not depend on the multiprocessing start method (``fork``
inherits module state, ``spawn``/``forkserver`` do not).

Environment spellings (unchanged from the per-module toggles they
replace; ``docs/architecture.md`` has the table):

* ``REPRO_SAT_DEBUG``, ``REPRO_SAT_PROFILE``, ``REPRO_METRICS``,
  ``REPRO_CERT`` — on for any value but empty/``0``/``false``/
  ``off``/``no``;
* ``REPRO_SAT_SIMPLIFY``, ``REPRO_FRAME_TEMPLATES`` — on unless
  ``0``/``false``/``off``/``no``;
* ``REPRO_CUBE``, ``REPRO_CUBE_SHARE`` — on only for ``1``/``true``/
  ``yes``/``on``;
* ``REPRO_CUBE_VARS``, ``REPRO_CUBE_CONFLICTS``, ``REPRO_CUBE_JOBS`` —
  integers (empty or malformed keeps the default);
* ``REPRO_SAT_PROOF`` — off, in-memory (``1``/``true``/``on``/
  ``yes``), or any other value as the proof stream's file path;
* ``REPRO_TRACE`` / ``REPRO_TRACE_ID`` — trace base path and run id;
  ``REPRO_PROGRESS`` — any non-empty value.

Stdlib-only and import-free within ``repro``, so every layer
(including :mod:`repro.obs`) can read it.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterator, Mapping, Optional

__all__ = ["Options", "current", "use_options"]

_OFF = ("0", "false", "off", "no")
_ON = ("1", "true", "yes", "on")


def _text(env: Mapping[str, str], name: str) -> str:
    return env.get(name, "").strip()


def _int(env: Mapping[str, str], name: str, default: int) -> int:
    raw = _text(env, name)
    try:
        return int(raw) if raw else default
    except ValueError:
        return default


@dataclass(frozen=True)
class Options:
    """Every environment-settable behaviour, with its default.

    SAT solver fields are read when a solver is constructed; the rest
    are read where the behaviour happens.  ``cube_conflicts`` is the
    plain-solve conflict threshold a query must burn before it is
    split, ``cube_jobs`` the worker count of a cube race.
    """

    sat_debug: bool = False
    sat_profile: bool = False
    sat_proof: bool = False
    sat_proof_path: Optional[str] = None
    sat_simplify: bool = True
    cubes: bool = False
    cube_vars: int = 3
    cube_conflicts: int = 1500
    cube_jobs: int = 1
    cube_share: bool = False
    templates: bool = True
    metrics: bool = False
    certification: bool = False
    trace: Optional[str] = None
    trace_id: Optional[str] = None
    progress: bool = False

    @classmethod
    def from_env(cls, env: Optional[Mapping[str, str]] = None
                 ) -> "Options":
        """Resolve the options from ``REPRO_*`` variables (default:
        the process environment)."""
        if env is None:
            env = os.environ
        proof = _text(env, "REPRO_SAT_PROOF")
        return cls(
            sat_debug=_text(env, "REPRO_SAT_DEBUG").lower()
            not in _OFF + ("",),
            sat_profile=_text(env, "REPRO_SAT_PROFILE").lower()
            not in _OFF + ("",),
            sat_proof=proof.lower() not in _OFF + ("",),
            sat_proof_path=None if proof.lower() in _OFF + _ON + ("",)
            else proof,
            sat_simplify=_text(env, "REPRO_SAT_SIMPLIFY").lower()
            not in _OFF,
            cubes=_text(env, "REPRO_CUBE").lower() in _ON,
            cube_vars=_int(env, "REPRO_CUBE_VARS", 3),
            cube_conflicts=_int(env, "REPRO_CUBE_CONFLICTS", 1500),
            cube_jobs=_int(env, "REPRO_CUBE_JOBS", 1),
            cube_share=_text(env, "REPRO_CUBE_SHARE").lower() in _ON,
            templates=_text(env, "REPRO_FRAME_TEMPLATES").lower()
            not in _OFF,
            metrics=_text(env, "REPRO_METRICS").lower()
            not in _OFF + ("",),
            certification=_text(env, "REPRO_CERT").lower()
            not in _OFF + ("",),
            trace=env.get("REPRO_TRACE") or None,
            trace_id=env.get("REPRO_TRACE_ID") or None,
            progress=bool(env.get("REPRO_PROGRESS")),
        )


_current = Options.from_env()


def current() -> Options:
    """The options in force."""
    return _current


def _install(options: Options) -> Options:
    """Make ``options`` the options in force; returns the previous.

    Only :func:`use_options` and the trace start/stop pair (a trace
    outlives the call that opens it) call this.
    """
    global _current
    previous = _current
    _current = options
    return previous


@contextmanager
def use_options(base: Optional[Options] = None,
                **changes) -> Iterator[Options]:
    """Scoped override: ``base`` (default: the options in force) with
    ``changes`` applied, restored on exit.  Yields the new options."""
    options = replace(base if base is not None else _current, **changes)
    previous = _install(options)
    try:
        yield options
    finally:
        _install(previous)
