"""The whole-program batch driver: one staged engine at every ``--jobs``.

For every corpus program the staged engine (:mod:`repro.driver.stages`)
walks the call graph's SCC condensation bottom-up — callees before callers,
the order the paper validates Barnes–Hut in, reported as each program's
``schedule`` — and memoizes one ``summary`` per component, one ``report``
per function and one ``manifest`` per program in the on-disk
:class:`~repro.driver.cache.ResultCache`, keyed on callee summary digests.
It parses only what changed since its last run: nothing for an unchanged
program, the edited declarations and the callers their summaries reopen for
an edited one.  A warm re-run performs no analysis at all (the acceptance
test asserts exactly that).

Every program runs through one call,
:func:`~repro.driver.stages.run_program`.  ``jobs == 1`` makes it inline.
``jobs > 1`` first serves every unchanged program whose simulation is
cached, then submits each remaining program, largest source first, as one
task to a pool of persistent workers (:mod:`repro.driver.executor`), each
making the same call on its own engine over the same store; the
coordinator merges the reports, counters and store counters they return.
With nothing left to compute it starts no pool.

Partial failure stays partial.  A worker notes each report it is about to
compute, and the simulation (``@simulate``), before running it; a task that
dies is charged to its last note, the *suspect*, and the coordinator walks
an escalation ladder per suspect instead of aborting.  Every attempt is an
ordinary pool task, so the pool keeps dispatching and checking deadlines
while a suspect is retried:

1. the program is **retried with exponential backoff**, up to
   ``max_retries`` times;
2. at the next death a suspect function that crashed is **quarantined**
   (with a replayable JSON record when a quarantine directory is set, see
   :mod:`repro.driver.faults`), and one that timed out is marked
   ``timeout``;
3. the program is resubmitted with the suspect's failure payload, which
   the engine reports in its place and never stores; its summary, its
   callers and the manifest are still computed.  An exhausted
   ``@simulate`` gives the simulation ``status`` ``crashed`` or ``timeout``.

A task that dies before its first note (in parse, typecheck or summary
resolution) is charged to the program, which reports an ``error`` naming
the crash once its retries run out.  Only an unrecoverable pool (respawn
failure, respawn budget exhausted) aborts the run.
"""

from __future__ import annotations

import itertools
import os
import time
from collections import Counter
from dataclasses import asdict, dataclass, field

# ``function_digests`` has no caller here: the end-to-end benchmark's trace
# (benchmarks/e2e/trace.py) resolves ``repro.driver.batch.function_digests``
# as a ``driver.key`` target and needs the name bound
from repro.driver.cache import ResultCache, function_digests, program_digest  # noqa: F401
from repro.driver.corpus import CorpusItem
from repro.driver.executor import (
    PersistentExecutor,
    Task,
    TaskTiming,
    WorkerEvent,
    WorkerSetup,
)
from repro.driver.faults import SIMULATE_TOKEN, write_quarantine_record
from repro.driver.pipeline import PipelineOptions
from repro.driver.stages import IncrementalStats, ProgramRun, StagedEngine, run_program

#: first retry of a dead task waits this long; each further retry of the
#: same suspect doubles it (pure backoff — the analysis is deterministic)
RETRY_BACKOFF_BASE_S = 0.05

#: what a fault leaves in place of a result: a function ends ``timeout``
#: or ``quarantined``, a simulation ``timeout`` or ``crashed``, and a
#: program that died before its first note has an error that starts with
#: ``timeout`` or ``crashed``
FAILURE_STATUSES = ("timeout", "crashed", "quarantined")


@dataclass
class ResilienceCounters:
    """How much fault-handling the worker pool did in one batch run.

    Zero everywhere on a healthy run, in the spirit of an operable daemon's
    health counters; the store's own fault counters (``evictions``,
    ``io_retries``) are in the report's ``store`` block.
    """

    retries: int = 0  # task re-dispatches within a suspect's retry budget
    timeouts: int = 0  # deadline-watchdog kills
    worker_crashes: int = 0  # worker deaths attributed to a task
    worker_respawns: int = 0  # pool workers replaced
    quarantined: int = 0  # functions quarantined as poison

    def to_dict(self) -> dict:
        return asdict(self)

    def any_faults(self) -> bool:
        return any(asdict(self).values())


@dataclass
class BatchReport:
    """The result of one driver invocation over a corpus: each program's
    run, and :meth:`stats`, the one record of what the run did, in which
    each count appears once (docs/driver.md has a row per key)."""

    programs: list[ProgramRun] = field(default_factory=list)
    jobs: int = 1
    #: workers actually used (1 when the pool was bypassed or never needed)
    effective_jobs: int = 1
    host_cpus: int | None = None
    start_method: str | None = None
    elapsed_s: float = 0.0
    #: the staged engine's counters summed over programs: the keys of
    #: :class:`~repro.driver.stages.IncrementalStats`
    incremental: dict = field(default_factory=lambda: IncrementalStats().to_dict())
    #: the store's counters (:meth:`ResultCache.counters`)
    store: dict = field(default_factory=lambda: ResultCache(None).counters())
    resilience: ResilienceCounters = field(default_factory=ResilienceCounters)
    #: pooled runs only: task timing totals and one row per task
    profile: dict | None = None

    def program(self, name: str) -> ProgramRun:
        for report in self.programs:
            if report.name == name:
                return report
        raise KeyError(name)

    def function_count(self) -> int:
        return sum(len(p.functions) for p in self.programs)

    def failed_functions(self) -> list[tuple[str, str, str]]:
        """Every function the driver could not analyze, as
        ``(program, function, status)`` tuples."""
        failed = []
        for program in self.programs:
            for name, payload in program.functions.items():
                status = payload.get("status", "ok")
                if status in FAILURE_STATUSES:
                    failed.append((program.name, name, status))
        return failed

    def stats(self) -> dict:
        """What the run did; also the store's ``last-run.json``."""
        stats = {
            "programs": len(self.programs),
            "functions": self.function_count(),
            "jobs": self.jobs,
            "effective_jobs": self.effective_jobs,
            "host_cpus": self.host_cpus,
            "start_method": self.start_method,
            "elapsed_s": self.elapsed_s,
            "incremental": self.incremental,
            "store": self.store,
            "resilience": self.resilience.to_dict(),
        }
        if self.profile is not None:
            stats["profile"] = self.profile
        return stats

    def to_dict(self) -> dict:
        return {
            "programs": [p.to_dict() for p in self.programs],
            "stats": self.stats(),
        }


class BatchExecutionError(RuntimeError):
    """The batch could not run to completion (e.g. the pool is unrecoverable)."""


@dataclass
class _ProgramPlan:
    """Coordinator-side state for one corpus program."""

    index: int
    item: CorpusItem
    #: the program's name is the corpus's only one of that name
    reuse: bool
    #: suspect -> how many tasks of this program died charged to it
    #: (``None``: the program itself, before its first note)
    attempts: dict = field(default_factory=dict)
    #: suspect -> the failure payload the engine reports in its place
    failed: dict[str, dict] = field(default_factory=dict)
    #: the program's run: empty until a task of it completes
    run: ProgramRun = field(init=False)

    def __post_init__(self) -> None:
        self.run = ProgramRun(self.item.name, {}, IncrementalStats(), [])

    def task(self, task_id: int) -> Task:
        return Task(
            task_id=task_id,
            program_index=self.index,
            name=self.item.name,
            source=self.item.source,
            reuse=self.reuse,
            attempts=dict(self.attempts),
            failed=dict(self.failed),
        )


class BatchDriver:
    """Drive the full pipeline over many programs, in parallel, with caching.

    ``jobs=1`` runs every program in-process (no pool); ``jobs>1`` runs
    each program the store cannot serve whole as one task on a persistent
    worker pool, started with
    :func:`~repro.driver.executor.preferred_start_method`.
    ``cache_dir=None`` disables memoization.

    Fault tolerance (pooled runs only — inline runs share the caller's
    process and cannot be killed or respawned):

    * ``task_timeout`` — deadline in seconds, restarted at every note: an
      overdue task's worker is killed and the task retried or its suspect
      marked ``timeout``.  ``None`` disables the watchdog (the executor's
      global stall backstop remains).
    * ``max_retries`` — deaths (crashes and timeouts) one suspect survives;
      at the next one a crashing function is quarantined and a hanging one
      marked ``timeout``.  Retries wait :data:`RETRY_BACKOFF_BASE_S`,
      doubled per retry of the same suspect.
    * ``max_respawns`` — total worker replacements before the pool is
      declared unrecoverable (:class:`BatchExecutionError`); ``None`` means
      unbounded (the retry caps already guarantee termination).
    * ``quarantine_dir`` — where replayable quarantine records are written
      (``None``: statuses only, no records).
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir=None,
        options: PipelineOptions | None = None,
        simulate: bool = True,
        task_timeout: float | None = None,
        max_retries: int = 2,
        max_respawns: int | None = None,
        quarantine_dir=None,
    ):
        self.jobs = max(1, int(jobs))
        self.options = options or PipelineOptions()
        self.cache = ResultCache(cache_dir)
        self.engine = StagedEngine(self.cache, self.options)
        self.simulate = simulate
        self.task_timeout = task_timeout
        self.max_retries = max(0, int(max_retries))
        self.max_respawns = max_respawns
        self.quarantine_dir = quarantine_dir

    # -- public entry points -------------------------------------------------
    def analyze_corpus(self, items: list[CorpusItem]) -> BatchReport:
        report = BatchReport(jobs=self.jobs, host_cpus=os.cpu_count())
        started = time.perf_counter()
        # a manifest records one program per name: a name the corpus shares
        # neither reads nor writes one
        names = Counter(item.name for item in items)
        plans = [
            _ProgramPlan(i, item, names[item.name] == 1) for i, item in enumerate(items)
        ]
        if self.jobs > 1:
            report.profile = _profile(self._run_parallel(plans, report))
        else:
            for plan in plans:
                run = run_program(
                    self.engine, plan.item.name, plan.item.source, plan.reuse, self.simulate
                )
                self._record(plan, run, report)
        report.programs = [plan.run for plan in plans]
        report.store = self.cache.counters()
        report.elapsed_s = time.perf_counter() - started
        self.cache.write_ledger(report.stats())
        return report

    def _record(self, plan: _ProgramPlan, run: ProgramRun, batch: BatchReport) -> None:
        plan.run = run
        for key, value in run.stats.to_dict().items():
            batch.incremental[key] += value

    # -- parallel execution (persistent workers) -------------------------------
    def _serve_whole(self, plan: _ProgramPlan, batch: BatchReport) -> bool:
        """Serve an unchanged program, and its simulation, from the store
        without dispatching it; ``False`` leaves it to the pool."""
        simulation = None
        if self.simulate:
            key = program_digest(plan.item.source, self.options.key())
            simulation = self.cache.get(key, stage="sim")
            if simulation is None:
                return False
        run = self.engine.serve_unchanged(plan.item.name, plan.item.source) if plan.reuse else None
        if run is None:
            return False
        run.simulation = simulation
        run.stats.simulations_reused = int(simulation is not None)
        self._record(plan, run, batch)
        return True

    def _run_parallel(self, plans: list[_ProgramPlan], batch: BatchReport) -> list[TaskTiming]:
        waiting = [plan for plan in plans if not self._serve_whole(plan, batch)]
        if not waiting:  # nothing to compute: do not even start the pool
            batch.effective_jobs = 1
            return []
        # corpora put their largest programs last: start those first
        waiting.sort(key=lambda plan: len(plan.item.source), reverse=True)
        setup = WorkerSetup(self.cache.directory, self.options, self.simulate)
        timings: list[TaskTiming] = []
        with PersistentExecutor(
            self.jobs,
            setup,
            task_timeout=self.task_timeout,
            max_respawns=self.max_respawns,
        ) as executor:
            batch.start_method = executor.start_method
            batch.effective_jobs = executor.jobs
            task_ids = itertools.count(1)

            def submit(plan: _ProgramPlan, delay: float = 0.0) -> None:
                executor.submit_delayed(plan.task(next(task_ids)), delay)

            for plan in waiting:
                submit(plan)
            while events := executor.poll():
                for event in events:
                    plan = plans[event.task.program_index]
                    if event.kind == "done":
                        timings.append(event.timing)
                        self._record_worker(plan, event.result, batch)
                    else:
                        self._handle_death(plan, event, submit, batch)
            batch.resilience.worker_respawns = executor.respawns
        return timings

    def _record_worker(self, plan: _ProgramPlan, result: dict, batch: BatchReport) -> None:
        """Merge a worker's result: the program's run and its store counters."""
        self.cache.add_counters(result["counters"])
        self._record(plan, result["run"], batch)

    # -- the escalation ladder, per suspect -------------------------------------
    def _handle_death(
        self, plan: _ProgramPlan, event: WorkerEvent, submit, batch: BatchReport
    ) -> None:
        """Charge a dead task to its suspect and resubmit the program: as a
        retry, or with the suspect's failure payload once its retries are
        spent.  It only decides, so the pool never waits on it."""
        suspect = event.suspect
        if event.kind == "timeout":
            batch.resilience.timeouts += 1
            status, detail = "timeout", "killed by the deadline watchdog"
            if self.task_timeout is not None:
                detail += f" after {self.task_timeout:.0f}s"
        else:
            batch.resilience.worker_crashes += 1
            status, detail = "crashed", f"worker died (exit {event.exitcode})"
        attempts = plan.attempts[suspect] = plan.attempts.get(suspect, 0) + 1
        if attempts <= self.max_retries:
            # a transient fault (an OOM kill, an I/O stall) may well pass
            batch.resilience.retries += 1
            submit(plan, RETRY_BACKOFF_BASE_S * 2 ** (attempts - 1))
            return
        detail += f"; retries exhausted after {attempts} attempt(s)"
        if suspect is None:
            plan.run.error = f"{status} before its first report: {detail}"
            return
        if suspect == SIMULATE_TOKEN:
            plan.failed[suspect] = {"status": status, "entry": self.options.entry, "error": detail}
        else:
            if status == "crashed":
                status = "quarantined"
                detail = f"poison task: killed {attempts} pool worker(s)"
                if self.quarantine_dir is not None:
                    path = write_quarantine_record(
                        self.quarantine_dir,
                        plan.item.name,
                        plan.item.source,
                        [suspect],
                        attempts,
                        event.exitcode,
                        self.options,
                    )
                    detail += f"; record: {path}"
                batch.resilience.quarantined += 1
            plan.failed[suspect] = _failure_payload(suspect, status, detail)
        submit(plan)


def _profile(timings: list[TaskTiming]) -> dict | None:
    """The pool's timing: totals and one row per task (``None``: no task
    ran on a pool)."""
    if not timings:
        return None
    totals = {
        "tasks": len(timings),
        "queue_wait_s": sum(t.queue_wait_s for t in timings),
        "analyze_s": sum(t.analyze_s for t in timings),
        "transfer_s": sum(t.transfer_s for t in timings),
    }
    # queue-wait is back-pressure (work waiting for a free core), not
    # waste; the overhead a serial run would not pay is result transfer
    busy = totals["analyze_s"]
    overhead = totals["transfer_s"]
    totals["overhead_fraction"] = overhead / (busy + overhead) if busy + overhead > 0 else 0.0
    return {"totals": totals, "tasks": [t.to_dict() for t in timings]}


def _failure_payload(name: str, status: str, detail: str) -> dict:
    """The report stub for a function the driver could not analyze.

    Shaped like a normal per-function report (``summary``/``analysis``/
    ``loops`` present) so report consumers need no special cases, with
    ``status`` naming the failure and ``fault`` carrying the story.  Never
    cached — the next run retries the function.
    """
    return {
        "function": name,
        "status": status,
        "fault": detail,
        "summary": None,
        "analysis": {"error": f"{status}: {detail}"},
        "loops": [],
    }
