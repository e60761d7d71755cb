"""Deterministic fault injection for the durability stack.

Three layers, all seeded and replayable:

- :mod:`repro.fault.device` — :class:`FaultyDevice`, a log-device wrapper
  injecting torn writes, short writes, I/O errors, and process death
  (:class:`SimulatedCrash`) on a :class:`FaultSchedule`.
- :mod:`repro.fault.crashpoints` — named crash sites inside engine code
  (WAL flush, checkpoint write, transform gather, export serialize).
- :mod:`repro.fault.harness` — the crash-torture harness, for one node
  or a sharded cluster: seeded workload → injected death → recovery →
  invariant check.  Run it from the command line:
  ``python -m repro.fault --schedules 20`` (single node) or
  ``python -m repro.cluster --schedules 20`` (clusters).

Import order matters here only for cycle-safety: ``device`` and
``crashpoints`` are dependency-light (engine modules import *them*); the
harness pulls in the full engine and is imported last, lazily inside its
own functions.
"""

from repro.fault.device import (
    FSYNC,
    WRITE,
    FaultSchedule,
    FaultSpec,
    FaultyDevice,
    SimulatedCrash,
)
from repro.fault.crashpoints import (
    CrashPointInjector,
    arm,
    armed,
    crash_point,
    disarm,
)
from repro.fault.harness import CRASH_SITES, ScheduleReport, run_schedule, run_torture

__all__ = [
    "CRASH_SITES",
    "CrashPointInjector",
    "FSYNC",
    "FaultSchedule",
    "FaultSpec",
    "FaultyDevice",
    "ScheduleReport",
    "SimulatedCrash",
    "WRITE",
    "arm",
    "armed",
    "crash_point",
    "disarm",
    "run_schedule",
    "run_torture",
]
