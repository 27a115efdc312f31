"""Deterministic fault injection for the batch driver.

Robustness code that is only exercised by real hardware failures is dead
code until the worst possible moment.  This module gives every failure mode
the driver tolerates an *injectable, deterministic* twin so tests and the CI
chaos job can drive them on demand:

* **worker crash** — a worker hard-exits (``os._exit``) while analyzing a
  selected function, as an OOM kill or segfault would;
* **hang** — a worker sleeps mid-analysis, so the coordinator's per-task
  deadline watchdog has something to kill;
* **slow analysis** — every analysis sleeps a little, for back-pressure and
  deadline-margin testing;
* **cache corruption** — a cache write lands truncated garbage on disk, the
  way a crashed writer or a bad sector would;
* **transient I/O error** — a cache read raises :class:`OSError` the first
  time, the way a flaky network filesystem would.

Faults are configured by a spec string, either via the ``REPRO_FAULTS``
environment variable (workers inherit it under both start methods) or the
``--inject-faults`` CLI flag (which just sets the variable).  The grammar is
semicolon-separated clauses, each ``kind:key=value,key=value``; each kind
and each key may appear at most once, since a repeat would silently
overwrite the fields the first one set::

    crash:rate=0.1,seed=7            # ~10% of functions crash their worker once
    crash:function=mid,times=99      # one poison function, crashes every attempt
    hang:function=scale,times=99     # one analysis that never finishes
    slow:seconds=0.05                # every analysis takes 50ms longer
    cache:rate=0.5,seed=3            # ~half of cache writes are corrupted
    cache:writes=1                   # each writing process's first cache write is corrupted
    io:rate=1.0,times=1              # every cache read fails once, then works

Every decision is a pure function of the spec and the injection point (a
function name or cache key, plus the attempt number the coordinator tracks,
or for ``cache:writes`` the writing process's own write count),
so a faulted run is bit-reproducible: no RNG state, no wall clock.  A fault
with ``times=N`` fires only on the first ``N`` attempts — that is what makes
a fault *transient* (survivable by retry) versus *permanent* (``times`` high
enough that retries exhaust and the task is quarantined).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import asdict, dataclass, replace
from pathlib import Path

#: environment variable carrying the fault spec (workers inherit it)
FAULTS_ENV_VAR = "REPRO_FAULTS"

#: exit code an injected worker crash dies with (distinct from real bugs'
#: tracebacks and from the CLI's exit 3 for an unrecoverable pool)
FAULT_CRASH_EXIT = 13

#: the note a worker sends before a program's machine simulation: fault
#: specs name it to target the simulation instead of a function's report
SIMULATE_TOKEN = "@simulate"


class FaultSpecError(ValueError):
    """The fault spec string does not parse."""


def _chance(seed: int, token: str) -> float:
    """Deterministic uniform-[0,1) draw for one (seed, token) pair."""
    digest = hashlib.sha256(f"{seed}:{token}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class FaultPlan:
    """A parsed fault spec; the default instance injects nothing."""

    crash_rate: float = 0.0
    crash_seed: int = 0
    crash_times: int = 1
    crash_function: str | None = None
    hang_function: str | None = None
    hang_times: int = 1
    hang_seconds: float = 3600.0
    slow_seconds: float = 0.0
    cache_corrupt_rate: float = 0.0
    cache_corrupt_seed: int = 0
    cache_corrupt_writes: int = 0
    io_error_rate: float = 0.0
    io_error_seed: int = 0
    io_error_times: int = 1

    @property
    def enabled(self) -> bool:
        return self != NO_FAULTS

    # -- worker-side decisions ------------------------------------------------
    def should_crash(self, function: str, attempt: int) -> bool:
        if attempt >= self.crash_times:
            return False
        if self.crash_function is not None and function == self.crash_function:
            return True
        return bool(self.crash_rate) and (
            _chance(self.crash_seed, f"crash:{function}") < self.crash_rate
        )

    def should_hang(self, function: str, attempt: int) -> bool:
        return (
            self.hang_function is not None
            and function == self.hang_function
            and attempt < self.hang_times
        )

    # -- cache-side decisions -------------------------------------------------
    def should_corrupt_cache(self, key: str, write_index: int) -> bool:
        if write_index < self.cache_corrupt_writes:
            return True
        return bool(self.cache_corrupt_rate) and (
            _chance(self.cache_corrupt_seed, f"cache:{key}") < self.cache_corrupt_rate
        )

    def should_io_error(self, key: str, attempt: int) -> bool:
        if attempt >= self.io_error_times:
            return False
        return bool(self.io_error_rate) and (
            _chance(self.io_error_seed, f"io:{key}") < self.io_error_rate
        )


NO_FAULTS = FaultPlan()

#: clause kind -> {spec key: (FaultPlan field, converter)}
_CLAUSES = {
    "crash": {
        "rate": ("crash_rate", float),
        "seed": ("crash_seed", int),
        "times": ("crash_times", int),
        "function": ("crash_function", str),
    },
    "hang": {
        "function": ("hang_function", str),
        "times": ("hang_times", int),
        "seconds": ("hang_seconds", float),
    },
    "slow": {
        "seconds": ("slow_seconds", float),
    },
    "cache": {
        "rate": ("cache_corrupt_rate", float),
        "seed": ("cache_corrupt_seed", int),
        "writes": ("cache_corrupt_writes", int),
    },
    "io": {
        "rate": ("io_error_rate", float),
        "seed": ("io_error_seed", int),
        "times": ("io_error_times", int),
    },
}


def parse_fault_spec(spec: str) -> FaultPlan:
    """Parse a fault spec string; raises :class:`FaultSpecError` on nonsense,
    a repeated clause kind or a repeated key included."""
    plan = NO_FAULTS
    kinds: set[str] = set()
    for clause in filter(None, (c.strip() for c in spec.split(";"))):
        kind, _, body = clause.partition(":")
        kind = kind.strip()
        keys = _CLAUSES.get(kind)
        if keys is None:
            raise FaultSpecError(
                f"unknown fault kind {kind!r} (expected one of {', '.join(sorted(_CLAUSES))})"
            )
        if kind in kinds:
            raise FaultSpecError(f"fault kind {kind!r} appears in more than one clause")
        kinds.add(kind)
        if not body.strip():
            raise FaultSpecError(f"fault clause {clause!r} has no parameters")
        names: set[str] = set()
        for param in filter(None, (p.strip() for p in body.split(","))):
            name, sep, raw = param.partition("=")
            name = name.strip()
            if not sep or name not in keys:
                raise FaultSpecError(
                    f"bad parameter {param!r} for fault kind {kind!r} "
                    f"(expected {', '.join(sorted(keys))})"
                )
            if name in names:
                raise FaultSpecError(f"{kind}:{name} is given more than once")
            names.add(name)
            field_name, convert = keys[name]
            try:
                value = convert(raw.strip())
            except ValueError as exc:
                raise FaultSpecError(f"bad value in {param!r}: {exc}") from None
            if field_name.endswith("_rate") and not 0.0 <= value <= 1.0:
                raise FaultSpecError(f"{kind}:{name} must be within [0, 1], got {value}")
            plan = replace(plan, **{field_name: value})
    return plan


_PLAN_CACHE: dict[str, FaultPlan] = {}


def active_plan() -> FaultPlan:
    """The fault plan the current process is running under (env-driven).

    Parsed once per distinct spec value; a missing or empty variable means
    no faults.  A malformed value raises — better a loud failure at the
    first injection point than a chaos run that silently injected nothing.
    """
    spec = os.environ.get(FAULTS_ENV_VAR, "")
    plan = _PLAN_CACHE.get(spec)
    if plan is None:
        plan = parse_fault_spec(spec) if spec.strip() else NO_FAULTS
        _PLAN_CACHE[spec] = plan
    return plan


# -- quarantine records -------------------------------------------------------
#: v2: ``options`` records the pipeline options as fields (v1 stored an
#: opaque key, so a v1 record cannot be replayed under its own options)
QUARANTINE_SCHEMA = "driver-quarantine-v2"


def _record_name(program_name: str, functions: list[str]) -> str:
    stem = f"{program_name}_{functions[0]}" if functions else program_name
    return re.sub(r"[^A-Za-z0-9._-]+", "_", stem) + ".json"


def write_quarantine_record(
    directory: str | Path,
    program_name: str,
    source: str,
    functions: list[str],
    attempts: int,
    worker_exitcode: int | None,
    options,
) -> Path:
    """Persist a replayable record of a poison task.

    The shape mirrors the fuzz-regression records under
    ``tests/fuzz_regressions/`` (``source``/``status``/``description``/
    ``divergences``) with driver-specific fields alongside, so the same
    tooling habits apply: the record carries everything needed to re-run the
    offending analysis in isolation (``python -m repro quarantine --replay``),
    the :class:`~repro.driver.pipeline.PipelineOptions` it ran under included.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    record = {
        "schema": QUARANTINE_SCHEMA,
        "generator_version": None,
        "seed": None,
        "scenario": "driver/poison-task",
        "status": "poison",
        "description": f"analysis of {', '.join(functions)} killed {attempts} worker(s)",
        "source": source,
        "shrunk_source": None,
        "divergences": [],
        "program": program_name,
        "functions": list(functions),
        "attempts": attempts,
        "worker_exitcode": worker_exitcode,
        "options": asdict(options),
    }
    path = directory / _record_name(program_name, functions)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


def load_quarantine_record(path: str | Path) -> dict:
    """Read a record; :class:`ValueError` if it is not a current-schema one
    (a v1 record does not say which options its task ran under)."""
    record = json.loads(Path(path).read_text())
    if record.get("schema") != QUARANTINE_SCHEMA:
        raise ValueError(f"{path}: not a {QUARANTINE_SCHEMA} record")
    return record


def replay_quarantine_record(path: str | Path) -> dict[str, str]:
    """Re-run a quarantined task's analyses inline, under the options the
    task ran under; returns name -> outcome.

    If the poison was environmental (an injected fault, a since-fixed OOM)
    the replay completes and reports per-function outcomes; if the analysis
    itself is the killer, the replay reproduces the crash in-process, under
    whatever debugger the caller attached — which is the point.
    """
    from repro.driver.pipeline import PipelineOptions, function_report
    from repro.lang.parser import parse_program
    from repro.pathmatrix.analysis import PathMatrixAnalysis

    record = load_quarantine_record(path)
    options = PipelineOptions(**record["options"])
    analysis = PathMatrixAnalysis(
        parse_program(record["source"]), use_adds=options.use_adds, memoize_results=True
    )
    outcomes: dict[str, str] = {}
    for name in record.get("functions", []):
        payload = function_report(analysis, name, options)
        error = payload.get("analysis", {}).get("error")
        outcomes[name] = f"error: {error}" if error else "ok"
    return outcomes
