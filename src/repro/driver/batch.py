"""The whole-program batch driver: chunk-scheduled, memoized, fault-tolerant.

For every corpus program the driver builds the call graph and condenses
it into strongly-connected components (mutual recursion analyzes as a
unit).  The bottom-up order the paper validates Barnes–Hut in (callees
before callers) is each report's ``schedule``; the pooled path needs no
dispatch order, because every function's report follows from its own body,
the type declarations and its callees' summaries alone, and a pool worker
rebuilds those summaries from source.

With ``jobs > 1`` every component with a cache-missed function is packed
at plan time into cost-balanced chunks
(:func:`repro.driver.executor.pack_chunks`, SCCs kept whole) and submitted
up front, with the simulations, to a pool of persistent warm workers;
components from *different programs* interleave freely on the pool.
Every function's report is memoized in the on-disk
:class:`~repro.driver.cache.ResultCache` keyed by its own declaration text
and the unparsed bodies of its transitive callees.  ``jobs == 1`` bypasses
the executor entirely and hands each program to the staged engine inline
(:mod:`repro.driver.stages`: summary and report artifacts keyed on callee
summary digests, easy profiling and debugging, zero multiprocessing
overhead), which parses only what changed since its last run: nothing for
an unchanged program, the edited declarations and the callers their
summaries reopen for an edited one.  Either way a warm re-run performs no
analysis at all (the acceptance test asserts exactly that).

Partial failure stays partial.  The pooled path reacts to the executor's
``crashed``/``timeout`` events with an escalation ladder instead of aborting:

1. a multi-component chunk that dies is **bisected** — the halves re-run,
   isolating the offender while the innocents complete;
2. a single-component task that dies is **retried with exponential
   backoff**, up to ``max_retries`` times;
3. a component that exhausts its retries runs once in a **sacrificial
   single-task subprocess**; if it completes there, its results are used;
4. if it kills the sacrificial runner too it is **quarantined**: its
   functions are marked ``status="quarantined"``, a replayable JSON record
   is written (see :mod:`repro.driver.faults`), and it is never
   re-dispatched;
5. a task that blows the per-task deadline is bisected the same way; a lone
   component that keeps timing out through its retries is marked
   ``status="timeout"`` — hangs never stall the batch.

Failed functions are *reported* (and never cached, so the next run retries
them); every healthy function still completes.  Only an unrecoverable pool
(respawn failure, respawn budget exhausted) aborts the run.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from dataclasses import asdict, dataclass, field

from repro.lang.ast_nodes import Program
from repro.lang.errors import LangError
from repro.lang.split import function_texts, split_declarations
from repro.pathmatrix.interproc import summaries_from_payloads

from repro.driver.cache import ResultCache, function_digests, program_digest
from repro.driver.callgraph import build_call_graph, condense
from repro.driver.corpus import CorpusItem
from repro.driver.executor import (
    PersistentExecutor,
    Task,
    TaskTiming,
    estimate_cost,
    pack_chunks,
    run_sacrificial,
    warm_parsed_programs,
)
from repro.driver.faults import SIMULATE_TOKEN, write_quarantine_record
from repro.driver.pipeline import (
    PipelineOptions,
    absolutize_report,
    parsed_program,
    relativize_report,
    simulate_program,
)
from repro.driver.stages import IncrementalStats, ParseFailure, StagedEngine

#: first retry of a crashed component waits this long; each further retry
#: doubles it (pure backoff — the analysis itself is deterministic)
RETRY_BACKOFF_BASE_S = 0.05

#: function statuses that mean the driver could not produce a result
FAILURE_STATUSES = ("timeout", "crashed", "quarantined")


@dataclass
class ResilienceCounters:
    """How much fault-handling one batch run actually did.

    Zero everywhere on a healthy run; surfaced in the report's ``stats``
    and in ``--profile`` output, in the spirit of an operable daemon's
    health counters.
    """

    retries: int = 0  # task re-dispatches (retry or bisection half)
    timeouts: int = 0  # deadline-watchdog kills
    worker_crashes: int = 0  # worker deaths attributed to a task
    worker_respawns: int = 0  # pool workers replaced
    sacrificial_runs: int = 0  # suspect chunks verified in a throwaway process
    quarantined: int = 0  # functions quarantined as poison
    cache_evictions: int = 0  # corrupt cache entries detected and removed
    cache_io_retries: int = 0  # cache reads that needed a second attempt

    def to_dict(self) -> dict:
        return asdict(self)

    def any_faults(self) -> bool:
        return any(asdict(self).values())


@dataclass
class ProgramReport:
    """Everything the batch run learned about one corpus program."""

    name: str
    functions: dict[str, dict] = field(default_factory=dict)
    #: bottom-up schedule by depth, wave by wave (SCCs as name lists) —
    #: a human-readable view; the pool runs chunks in any order
    schedule: list[list[list[str]]] = field(default_factory=list)
    simulation: dict | None = None
    error: str | None = None

    def summaries(self):
        """Re-interned :class:`FunctionSummary` objects, one per function
        (functions that failed before producing a summary are skipped)."""
        return summaries_from_payloads(
            payload.get("summary") for payload in self.functions.values()
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "functions": self.functions,
            "schedule": self.schedule,
            "simulation": self.simulation,
            "error": self.error,
        }


@dataclass
class BatchReport:
    """The result of one driver invocation over a corpus."""

    programs: list[ProgramReport] = field(default_factory=list)
    #: per-function analyses actually executed (cache misses)
    analyses_executed: int = 0
    #: per-function reports served from the on-disk cache
    cache_hits: int = 0
    #: whole-program simulations served from the cache
    simulation_cache_hits: int = 0
    jobs: int = 1
    #: workers actually used (1 when the pool was bypassed or never needed)
    effective_jobs: int = 1
    host_cpus: int | None = None
    start_method: str | None = None
    elapsed_s: float = 0.0
    #: aggregate task timing breakdown; ``tasks`` detail only with profiling
    profile: dict | None = None
    resilience: ResilienceCounters = field(default_factory=ResilienceCounters)
    #: staged-engine counters (inline runs only): reused / firewalled /
    #: recomputed / dirty / fixpoints_run / programs_unchanged — see
    #: driver/stages.py
    incremental: dict | None = None

    def program(self, name: str) -> ProgramReport:
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

    def to_dict(self) -> dict:
        stats = {
            "programs": len(self.programs),
            "functions": self.function_count(),
            "analyses_executed": self.analyses_executed,
            "cache_hits": self.cache_hits,
            "simulation_cache_hits": self.simulation_cache_hits,
            "jobs": self.jobs,
            "effective_jobs": self.effective_jobs,
            "host_cpus": self.host_cpus,
            "start_method": self.start_method,
            "elapsed_s": self.elapsed_s,
            "resilience": self.resilience.to_dict(),
        }
        if self.incremental is not None:
            stats["incremental"] = self.incremental
        if self.profile is not None:
            stats["profile"] = self.profile
        return {
            "programs": [p.to_dict() for p in self.programs],
            "stats": stats,
        }


class BatchExecutionError(RuntimeError):
    """The batch could not run to completion (e.g. the pool is unrecoverable)."""


@dataclass
class _ProgramPlan:
    """Coordinator-side scheduling state for one corpus program."""

    index: int
    item: CorpusItem
    report: ProgramReport
    #: the parsed program (coordinator-side only, never pickled)
    program: Program | None = None
    digests: dict[str, str] = field(default_factory=dict)
    #: component -> cache-missed functions still to analyze
    pending: dict[int, list[str]] = field(default_factory=dict)
    #: component -> estimated analysis cost of its pending functions
    costs: dict[int, int] = field(default_factory=dict)
    #: component -> how many times a task holding it crashed
    crash_attempts: dict[int, int] = field(default_factory=dict)
    sim_attempts: int = 0
    sim_key: str | None = None
    needs_simulation: bool = False

    def base_line(self, function: str) -> int:
        """The first line of ``function``: the base of its stored payload."""
        assert self.program is not None
        return self.program.function_named(function).line or 1


class BatchDriver:
    """Drive the full pipeline over many programs, in parallel, with caching.

    ``jobs=1`` analyzes in-process (no pool); ``jobs>1`` submits
    cost-balanced chunks of call-graph components to a persistent worker
    pool, all at once.  ``cache_dir=None`` disables
    memoization.  ``start_method`` picks the multiprocessing start method
    (default: ``fork`` where available, else ``spawn``); ``profile=True``
    keeps the per-task timing breakdown in the report.

    Fault tolerance (pooled path only — inline runs share the caller's
    process and cannot be killed or respawned):

    * ``task_timeout`` — per-task deadline in seconds; an overdue task's
      worker is killed, the task bisected or marked ``timeout``.  ``None``
      disables the watchdog (the executor's global stall backstop remains).
    * ``max_retries`` — crashes a single component survives before the
      sacrificial run (then quarantine).
    * ``max_respawns`` — total worker replacements before the pool is
      declared unrecoverable (:class:`BatchExecutionError`); ``None`` means
      unbounded (the retry caps already guarantee termination).
    * ``quarantine``/``quarantine_dir`` — whether poison components get the
      sacrificial verification + quarantine treatment (otherwise they are
      marked ``crashed`` once retries exhaust), and where replayable
      quarantine records are written (``None``: statuses only, no records).
    """

    def __init__(
        self,
        jobs: int = 1,
        cache_dir=None,
        options: PipelineOptions | None = None,
        simulate: bool = True,
        start_method: str | None = None,
        profile: bool = False,
        task_timeout: float | None = None,
        max_retries: int = 2,
        max_respawns: int | None = None,
        quarantine: bool = True,
        quarantine_dir=None,
        retry_backoff_s: float = RETRY_BACKOFF_BASE_S,
    ):
        self.jobs = max(1, int(jobs))
        self.options = options or PipelineOptions()
        self.cache = ResultCache(cache_dir)
        self.engine = StagedEngine(self.cache, self.options)
        self.simulate = simulate
        self.start_method = start_method
        self.profile = profile
        self.task_timeout = task_timeout
        self.max_retries = max(0, int(max_retries))
        self.max_respawns = max_respawns
        self.quarantine = quarantine
        self.quarantine_dir = quarantine_dir
        self.retry_backoff_s = retry_backoff_s

    # -- public entry points -------------------------------------------------
    def analyze_corpus(self, items: list[CorpusItem]) -> BatchReport:
        report = BatchReport(jobs=self.jobs, host_cpus=os.cpu_count())
        started = time.perf_counter()

        if self.jobs > 1:
            plans = [self._plan_item(i, item, report) for i, item in enumerate(items)]
            timings = self._run_parallel(plans, report)
        else:
            # the staged engine parses (or serves) each program itself
            plans = [
                _ProgramPlan(index=i, item=item, report=ProgramReport(name=item.name))
                for i, item in enumerate(items)
            ]
            timings = self._run_inline(plans, report)
        report.profile = self._aggregate_profile(timings)

        report.programs = [plan.report for plan in plans]
        report.resilience.cache_evictions = self.cache.evictions
        report.resilience.cache_io_retries = self.cache.io_retries
        report.elapsed_s = time.perf_counter() - started
        extra = {
            "analyses_executed": report.analyses_executed,
            "run_cache_hits": report.cache_hits,
        }
        if report.incremental is not None:
            extra["incremental"] = report.incremental
        self.cache.write_ledger(extra)
        return report

    # -- planning ------------------------------------------------------------
    def _probe_simulation(self, plan: _ProgramPlan, batch: BatchReport) -> None:
        """Serve ``plan``'s simulation from the store, or mark it needed."""
        if not self.simulate:
            return
        plan.sim_key = program_digest(plan.item.source, self.options.key())
        self.cache.preload([plan.sim_key], stage="sim")
        cached = self.cache.get(plan.sim_key, stage="sim")
        if cached is not None:
            plan.report.simulation = cached
            batch.simulation_cache_hits += 1
        else:
            plan.needs_simulation = True

    def _plan_item(self, index: int, item: CorpusItem, batch: BatchReport) -> _ProgramPlan:
        """Pooled path: plan one program and probe its simulation."""
        plan = _ProgramPlan(index=index, item=item, report=ProgramReport(name=item.name))
        if self._plan_program(plan, batch):
            self._probe_simulation(plan, batch)
        return plan

    def _plan_program(self, plan: _ProgramPlan, batch: BatchReport) -> bool:
        """Parse and condense ``plan``'s program and probe its body-keyed
        reports.  ``False`` when it cannot be analyzed (the error is on the
        report)."""
        try:
            program = parsed_program(plan.item.source)
        except LangError as exc:
            plan.report.error = f"parse error: {exc}"
            return False
        graph = build_call_graph(program)
        cond = condense(graph)
        plan.report.schedule = cond.waves()
        plan.program = program
        try:
            declarations = split_declarations(plan.item.source)
        except LangError:
            declarations = None
        plan.digests = function_digests(
            program, graph, self.options.key(), function_texts(program, declarations)
        )
        self.cache.preload(plan.digests.values(), stage="report")

        for i, scc in enumerate(cond.sccs):
            pending: list[str] = []
            cost = 0
            for name in scc:
                cached = self.cache.get(plan.digests[name], stage="report")
                if cached is not None:
                    plan.report.functions[name] = absolutize_report(
                        cached, plan.base_line(name)
                    )
                    batch.cache_hits += 1
                else:
                    pending.append(name)
                    cost += estimate_cost(program.function_named(name), program)
            if pending:
                plan.pending[i] = pending
                plan.costs[i] = cost
        return True

    # -- inline execution (jobs == 1, the staged incremental engine) -----------
    def _run_inline(self, plans: list[_ProgramPlan], batch: BatchReport) -> list[TaskTiming]:
        batch.start_method = None
        batch.effective_jobs = 1
        work_started = time.perf_counter()
        functions_run = 0
        simulations_run = 0
        totals = IncrementalStats()

        def count_reused(_name: str) -> None:
            batch.cache_hits += 1

        def count_recomputed(_name: str) -> None:
            batch.analyses_executed += 1

        # a manifest records one program per name: a name the corpus shares
        # is never served from it
        names = Counter(plan.item.name for plan in plans)
        for plan in plans:
            try:
                run = self.engine.run(
                    plan.item.name,
                    plan.item.source,
                    plan.report.functions,
                    on_reused=count_reused,
                    on_recomputed=count_recomputed,
                    reuse=names[plan.item.name] == 1,
                )
            except ParseFailure as failure:
                plan.report.error = f"parse error: {failure.error}"
                continue
            plan.report.schedule = run.schedule
            totals.merge(run.stats)
            functions_run += run.stats.recomputed
            self._probe_simulation(plan, batch)
            if plan.needs_simulation:
                simulations_run += 1
                self._record_simulation(
                    plan, simulate_program(plan.item.source, self.options, run.program)
                )
        batch.incremental = totals.to_dict()
        analyze_s = time.perf_counter() - work_started
        if not functions_run and not simulations_run:
            return []
        return [
            TaskTiming(
                task_id=0,
                kind="inline",
                program="*",
                functions=functions_run,
                cost=0,
                worker_pid=0,
                queue_wait_s=0.0,
                parse_s=0.0,
                analyze_s=analyze_s,
                transfer_s=0.0,
                total_s=analyze_s,
            )
        ]

    # -- parallel execution (persistent workers) -------------------------------
    def _run_parallel(self, plans: list[_ProgramPlan], batch: BatchReport) -> list[TaskTiming]:
        active = [
            plan
            for plan in plans
            if plan.pending or plan.needs_simulation
        ]
        if not active:  # fully warm run: do not even start the pool
            batch.effective_jobs = 1
            return []
        sources = [plan.item.source for plan in plans]
        # pre-fork warm-up: forked workers inherit the parsed programs
        # copy-on-write instead of each re-parsing the corpus
        warm_parsed_programs([plan.item.source for plan in active])
        timings: list[TaskTiming] = []
        task_counter = 0

        def next_task_id() -> int:
            nonlocal task_counter
            task_counter += 1
            return task_counter

        def analyze_task(plan: _ProgramPlan, components: list[int]) -> Task:
            return Task(
                task_id=next_task_id(),
                kind="analyze",
                program_index=plan.index,
                program_name=plan.item.name,
                functions=[n for m in components for n in plan.pending[m]],
                components=components,
                cost=sum(plan.costs[m] for m in components),
                attempts={
                    n: plan.crash_attempts.get(m, 0)
                    for m in components
                    for n in plan.pending[m]
                },
            )

        def simulate_task(plan: _ProgramPlan) -> Task:
            return Task(
                task_id=next_task_id(),
                kind="simulate",
                program_index=plan.index,
                program_name=plan.item.name,
                attempts={SIMULATE_TOKEN: plan.sim_attempts},
            )

        def backoff(attempt: int) -> float:
            return self.retry_backoff_s * (2 ** max(0, attempt - 1))

        with PersistentExecutor(
            self.jobs,
            sources,
            self.options,
            self.start_method,
            task_timeout=self.task_timeout,
            max_respawns=self.max_respawns,
        ) as executor:
            batch.start_method = executor.start_method
            batch.effective_jobs = executor.jobs

            def mark_failed(
                plan: _ProgramPlan, components: list[int], status: str, detail: str
            ) -> None:
                """Give every function of ``components`` a failure payload
                (their callers are analyzed all the same: workers recompute
                callee summaries from source)."""
                for m in components:
                    for name in plan.pending[m]:
                        plan.report.functions[name] = _failure_payload(
                            name, status, detail
                        )
                        if status == "quarantined":
                            batch.resilience.quarantined += 1

            def bisect_and_resubmit(plan: _ProgramPlan, task: Task, delay: float) -> None:
                mid = len(task.components) // 2
                for half in (task.components[:mid], task.components[mid:]):
                    batch.resilience.retries += 1
                    executor.submit_delayed(analyze_task(plan, half), delay)

            def handle_done(task: Task, result: dict, timing: TaskTiming) -> None:
                timings.append(timing)
                plan = plans[task.program_index]
                if task.kind == "simulate":
                    self._record_simulation(plan, result["simulation"])
                    return
                for name in task.functions:
                    self._record_result(plan, name, result["results"][name], batch)

            def handle_crashed(task: Task, exitcode: int | None) -> None:
                batch.resilience.worker_crashes += 1
                plan = plans[task.program_index]
                detail = f"worker died (exit {exitcode})"
                if task.kind == "simulate":
                    plan.sim_attempts += 1
                    if plan.sim_attempts <= self.max_retries:
                        batch.resilience.retries += 1
                        executor.submit_delayed(
                            simulate_task(plan), backoff(plan.sim_attempts)
                        )
                    else:
                        plan.report.simulation = {
                            "status": "crashed",
                            "entry": self.options.entry,
                            "error": f"{detail} after {plan.sim_attempts} attempt(s)",
                        }
                        plan.needs_simulation = False
                    return
                for m in task.components:
                    plan.crash_attempts[m] = plan.crash_attempts.get(m, 0) + 1
                if len(task.components) > 1:
                    # isolate the offender; innocents complete along the way
                    bisect_and_resubmit(plan, task, delay=0.0)
                    return
                (component,) = task.components
                attempts = plan.crash_attempts[component]
                if attempts <= self.max_retries:
                    batch.resilience.retries += 1
                    executor.submit_delayed(
                        analyze_task(plan, [component]), backoff(attempts)
                    )
                    return
                self._handle_exhausted(
                    plan, component, exitcode, executor, batch, mark_failed
                )

            def handle_timeout(task: Task) -> None:
                batch.resilience.timeouts += 1
                plan = plans[task.program_index]
                detail = (
                    f"killed by the deadline watchdog after "
                    f"{self.task_timeout:.0f}s"
                    if self.task_timeout is not None
                    else "killed by the deadline watchdog"
                )
                if task.kind == "simulate":
                    plan.report.simulation = {
                        "status": "timeout",
                        "entry": self.options.entry,
                        "error": detail,
                    }
                    plan.needs_simulation = False
                    return
                for m in task.components:
                    plan.crash_attempts[m] = plan.crash_attempts.get(m, 0) + 1
                if len(task.components) > 1:
                    # one hung function must not take its chunk-mates down:
                    # re-run the halves, each under a fresh deadline
                    bisect_and_resubmit(plan, task, delay=0.0)
                    return
                (component,) = task.components
                attempts = plan.crash_attempts[component]
                if attempts <= self.max_retries:
                    # a transient straggler (I/O stall, page-cache miss) may
                    # well finish within a fresh deadline — give it the same
                    # retry budget a crash gets
                    batch.resilience.retries += 1
                    executor.submit_delayed(
                        analyze_task(plan, [component]), backoff(attempts)
                    )
                    return
                mark_failed(
                    plan,
                    task.components,
                    "timeout",
                    f"{detail}; retries exhausted after {attempts} attempt(s)",
                )

            for plan in active:
                # workers rebuild callee summaries from source, so no
                # component waits for another: everything is submitted now
                components = sorted(plan.pending)
                groups = [(plan.pending[i], plan.costs[i]) for i in components]
                for chunk in pack_chunks(groups):
                    executor.submit(analyze_task(plan, [components[g] for g in chunk]))
                if plan.needs_simulation:
                    # simulation re-derives everything from source, so it has
                    # no scheduling dependency: overlap it with analysis
                    executor.submit(simulate_task(plan))
            while True:
                events = executor.poll()
                if not events:
                    break
                for event in events:
                    if event.kind == "done":
                        handle_done(event.task, event.result, event.timing)
                    elif event.kind == "crashed":
                        handle_crashed(event.task, event.exitcode)
                    else:
                        handle_timeout(event.task)
            batch.resilience.worker_respawns = executor.respawns
        return timings

    # -- escalation: retries exhausted -----------------------------------------
    def _handle_exhausted(
        self,
        plan: _ProgramPlan,
        component: int,
        exitcode: int | None,
        executor: PersistentExecutor,
        batch: BatchReport,
        mark_failed,
    ) -> None:
        functions = plan.pending[component]
        attempts = plan.crash_attempts[component]
        if not self.quarantine:
            mark_failed(
                plan,
                [component],
                "crashed",
                f"worker died (exit {exitcode}) {attempts} time(s); retries exhausted",
            )
            return
        # last chance: one run in a throwaway subprocess, so a repeat crash
        # costs nothing but the subprocess
        batch.resilience.sacrificial_runs += 1
        status, reports = run_sacrificial(
            executor.ctx,
            plan.item.source,
            functions,
            self.options,
            {name: attempts for name in functions},
            self.task_timeout,
        )
        if status == "ok":
            for name in functions:
                self._record_result(plan, name, reports[name], batch)
            return
        if status == "timeout":
            mark_failed(
                plan,
                [component],
                "timeout",
                "sacrificial run killed by the deadline watchdog",
            )
            return
        detail = (
            f"poison task: killed {attempts} pool worker(s) and the "
            "sacrificial runner"
        )
        if self.quarantine_dir is not None:
            path = write_quarantine_record(
                self.quarantine_dir,
                plan.item.name,
                plan.item.source,
                functions,
                attempts,
                exitcode,
                self.options,
            )
            detail += f"; record: {path}"
        mark_failed(plan, [component], "quarantined", detail)

    # -- result bookkeeping ---------------------------------------------------
    def _record_result(
        self, plan: _ProgramPlan, name: str, payload: dict, batch: BatchReport
    ) -> None:
        plan.report.functions[name] = payload
        self.cache.put(
            plan.digests[name],
            relativize_report(payload, plan.base_line(name)),
            stage="report",
        )
        batch.analyses_executed += 1

    def _record_simulation(self, plan: _ProgramPlan, payload: dict) -> None:
        plan.report.simulation = payload
        if plan.sim_key is not None:
            self.cache.put(plan.sim_key, payload, stage="sim")
        plan.needs_simulation = False

    # -- profiling ------------------------------------------------------------
    def _aggregate_profile(self, timings: list[TaskTiming]) -> dict | None:
        if not timings:
            return None
        totals = {
            "tasks": len(timings),
            "functions": sum(t.functions for t in timings if t.kind != "simulate"),
            "queue_wait_s": sum(t.queue_wait_s for t in timings),
            "parse_s": sum(t.parse_s for t in timings),
            "analyze_s": sum(t.analyze_s for t in timings),
            "transfer_s": sum(t.transfer_s for t in timings),
        }
        # queue-wait is back-pressure (work waiting for a free core), not
        # waste; the overhead a serial run would not pay is worker-side
        # re-parsing plus result transfer
        busy = totals["analyze_s"]
        overhead = totals["parse_s"] + totals["transfer_s"]
        totals["overhead_fraction"] = (
            overhead / (busy + overhead) if busy + overhead > 0 else 0.0
        )
        profile = {"totals": totals}
        if self.profile:
            profile["tasks"] = [t.to_dict() for t in timings]
        return profile


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
