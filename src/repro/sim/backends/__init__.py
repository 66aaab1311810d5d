"""Pluggable grading engines for the bit-parallel fault oracle.

The oracle's algorithm (parallel-pattern SEU grading producing
``fail_cycle`` / ``vanish_cycle`` per fault) is fixed; *engines* are
interchangeable executors of that algorithm, registered by name:

* ``fused``  — the default: a lazily compiled C cycle kernel with lane
  compaction and resolved-fault early exit for SEU campaigns, falling
  back to the ``bigint`` loops for other fault models or when no C
  compiler is available (see :mod:`repro.sim.backends.fused`);
* ``bigint`` — dependency-free Python-int lanes, the portable fallback
  and second reference.

The serial :func:`repro.sim.cycle.replay_fault` is the semantic oracle
both are checked against.

Third-party engines can subclass :class:`GradingEngine` and decorate with
:func:`register_engine`; ``grade_faults(..., backend=<name>)`` then picks
them up with no further wiring.
"""

from repro.sim.backends.base import (
    GradingEngine,
    available_engines,
    get_engine,
    register_engine,
)

# Importing the engine modules registers the built-in engines.
from repro.sim.backends import bigint_engine as _bigint_engine  # noqa: F401
from repro.sim.backends import fused as _fused  # noqa: F401
from repro.sim.backends.fused import FusedProgram, build_fused_program

__all__ = [
    "GradingEngine",
    "available_engines",
    "get_engine",
    "register_engine",
    "FusedProgram",
    "build_fused_program",
]
