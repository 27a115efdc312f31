"""A simulated shared-memory multiprocessor (the paper's Sequent substitute).

The paper's evaluation ran the transformed Barnes–Hut program on a Sequent
multiprocessor with 4 and 7 processors.  That hardware is unavailable (and
this reproduction runs on a single host core), so the speedup experiment is
driven by an **execution-driven cost simulator**: the real Python force
kernels run and report their work in abstract cost units, and the simulator
replays the strip-mined schedule over a configurable number of processing
elements, charging

* per-PE busy time (the work of the iterations assigned to it),
* idle time caused by static scheduling imbalance (a parallel step ends when
  its slowest PE finishes),
* synchronization cost per parallel step (the paper: "synchronization on a
  Sequent is rather slow"),
* sequential sections (tree build, the FOR1 pointer skip-ahead).

The same package also provides a :class:`~repro.machine.executor.ThreadPoolExecutorBackend`
that actually runs iterations on Python threads — used by the equivalence
tests to show the transformed schedule computes identical physics, not for
timing.

Modules: :mod:`costmodel`, :mod:`processor`, :mod:`scheduler`,
:mod:`simulator`, :mod:`executor`.
"""

import importlib

from repro.machine.costmodel import MachineConfig, SEQUENT_LIKE, IDEAL_MACHINE
from repro.machine.processor import ProcessingElement
from repro.machine.scheduler import (
    Scheduler,
    StaticInterleavedScheduler,
    StaticBlockScheduler,
    DynamicScheduler,
    make_scheduler,
)
from repro.machine.simulator import (
    ParallelStepResult,
    SimulationTrace,
    MachineSimulator,
)

#: the thread-pool backends, imported on first access (PEP 562): they load
#: :mod:`concurrent.futures`, which the simulator does not need
_EXECUTOR_NAMES = ("ThreadPoolExecutorBackend", "SequentialBackend")

__all__ = [
    "MachineConfig",
    "SEQUENT_LIKE",
    "IDEAL_MACHINE",
    "ProcessingElement",
    "Scheduler",
    "StaticInterleavedScheduler",
    "StaticBlockScheduler",
    "DynamicScheduler",
    "make_scheduler",
    "ParallelStepResult",
    "SimulationTrace",
    "MachineSimulator",
    "ThreadPoolExecutorBackend",
    "SequentialBackend",
]


def __getattr__(name: str):
    if name not in _EXECUTOR_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.executor"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
