"""Persistent-worker execution for the batch driver, fault-tolerant edition.

The PR-6 executor wrapped :class:`concurrent.futures.ProcessPoolExecutor`,
which has an all-or-nothing failure model: one worker death breaks the whole
pool, fails every in-flight future, and the only safe response is to abort
the batch.  This module manages its own workers so partial failure stays
partial:

* **one process + one pipe per worker** — the coordinator knows exactly
  which task each worker holds, so a dead worker indicts *its* task only;
  every other in-flight task keeps running;
* **targeted kill and respawn** — a worker that blows its per-task deadline
  (or dies) is killed/reaped and replaced in place; the pool never shrinks
  and never wedges;
* **an event API** — :meth:`PersistentExecutor.poll` surfaces ``done`` /
  ``crashed`` / ``timeout`` events and leaves *policy* (retry, backoff,
  chunk bisection, quarantine) to :mod:`repro.driver.batch`;
* **a sacrificial runner** — :func:`run_sacrificial` executes one suspect
  chunk in a throwaway subprocess so a poison task can be confirmed without
  risking a pool worker.

Everything the PR-6 executor got right is kept: workers are created once per
batch run (forked where possible, inheriting the coordinator's parsed-program
cache copy-on-write), tasks carry compact payloads (program index + function
names), results return as plain dicts, tiny functions are packed into
cost-balanced chunks, and every task records a queue-wait/parse/analyze/
transfer timing breakdown.

Scheduling (who is runnable when) lives in :mod:`repro.driver.batch`; this
module only knows how to run chunks on warm workers and keep the pool alive.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import deque
from dataclasses import dataclass, field

from repro.lang.ast_nodes import FunctionDecl, Program, collect_pointer_variables, iter_statements

from repro.driver.faults import SIMULATE_TOKEN, FAULT_CRASH_EXIT, active_plan
from repro.driver.pipeline import (
    PipelineOptions,
    analysis_for,
    function_report,
    parsed_program,
    simulate_program,
)

#: ``--jobs`` never defaults above this many workers
MAX_DEFAULT_JOBS = 8

#: target estimated cost per analysis chunk; functions are packed until a
#: chunk reaches it (one expensive function can exceed it and ships alone)
CHUNK_COST_TARGET = 2400

#: never pack more functions than this into one chunk, however cheap —
#: keeps chunks granular enough for work-stealing to balance
CHUNK_MAX_FUNCTIONS = 24

#: a completion-less stretch this long means the pool is wedged; surface an
#: error instead of hanging an unattended batch forever (the per-task
#: deadline, when configured, normally fires long before this backstop)
WAIT_TIMEOUT_S = 300.0

#: test hook: a worker analyzing a function with this name hard-exits, so the
#: crash-recovery path can be exercised end to end (see tests/driver)
CRASH_ENV_VAR = "REPRO_DRIVER_TEST_CRASH"


class WorkerPoolError(RuntimeError):
    """The worker pool is unrecoverable (respawn failed or budget exhausted)."""


class WorkerTaskError(RuntimeError):
    """A worker raised an unexpected exception (a bug, not a crash/fault)."""


def default_jobs() -> int:
    """``os.cpu_count()`` capped at :data:`MAX_DEFAULT_JOBS` (floor 1).

    On a constrained host (one or two CPUs) the default never spawns more
    workers than cores — extra workers only add dispatch overhead there.
    Explicit ``--jobs`` values are always honored as given.
    """
    return max(1, min(MAX_DEFAULT_JOBS, os.cpu_count() or 1))


def preferred_start_method() -> str:
    """``fork`` where available (workers inherit warm parsed-program state
    copy-on-write), ``spawn`` elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


# -- the cost model -----------------------------------------------------------
def estimate_cost(func: FunctionDecl, program: Program) -> int:
    """Estimated analysis cost of one function: statements × pointer vars.

    Both axes dominate solver cost (see ``repro.bench.stress``): every
    transfer touches O(pointer-vars²) matrix entries and runs once per
    statement per sweep.  The product only needs to *rank* functions well
    enough that a chunk lands near :data:`CHUNK_COST_TARGET`.
    """
    statements = sum(1 for _ in iter_statements(func.body))
    pointer_vars = len(collect_pointer_variables(func, program))
    return (1 + statements) * (1 + pointer_vars)


def pack_chunks(
    groups: list[tuple[list[str], int]],
    cost_target: int = CHUNK_COST_TARGET,
    max_functions: int = CHUNK_MAX_FUNCTIONS,
) -> list[list[int]]:
    """Pack ``(functions, cost)`` groups into chunks of roughly equal cost.

    Returns chunks as lists of *group indices* (the scheduler maps them back
    to its components).  Groups (SCCs, in practice) are kept whole — mutual
    recursion stays on one worker.  Cheap groups accumulate until the target
    cost or function cap is reached; a group at or above the target ships
    alone.
    """
    chunks: list[list[int]] = []
    current: list[int] = []
    current_functions = 0
    current_cost = 0
    for index, (functions, cost) in enumerate(groups):
        if current and (
            current_cost + cost > cost_target
            or current_functions + len(functions) > max_functions
        ):
            chunks.append(current)
            current, current_functions, current_cost = [], 0, 0
        current.append(index)
        current_functions += len(functions)
        current_cost += cost
        if current_cost >= cost_target:
            chunks.append(current)
            current, current_functions, current_cost = [], 0, 0
    if current:
        chunks.append(current)
    return chunks


# -- task and result shapes ---------------------------------------------------
@dataclass
class Task:
    """One unit of pool work: analyze a chunk of functions, or simulate."""

    task_id: int
    kind: str  # "analyze" | "simulate"
    program_index: int
    program_name: str
    functions: list[str] = field(default_factory=list)
    #: coordinator-side bookkeeping: the call-graph components this chunk
    #: covers (a dying chunk is bisected along them)
    components: list[int] = field(default_factory=list)
    cost: int = 0
    #: per-function attempt numbers (how many times a task holding the
    #: function already died) — deterministic fault injection keys off these
    attempts: dict[str, int] = field(default_factory=dict)
    submitted_at: float = 0.0


@dataclass
class TaskTiming:
    """Where one task's wall-clock went (coordinator + worker stamps).

    On Linux ``time.perf_counter`` reads the system-wide monotonic clock, so
    worker-side stamps are directly comparable with coordinator-side ones;
    on platforms where they are not, the derived fields are clamped at 0.
    """

    task_id: int
    kind: str
    program: str
    functions: int
    cost: int
    worker_pid: int
    queue_wait_s: float  # submit -> worker picked it up (incl. task pickling)
    parse_s: float  # worker-side program warm-up (parse + summaries); 0 when inherited
    analyze_s: float  # worker-side pipeline work
    transfer_s: float  # worker finish -> coordinator receipt (result pickling + queue)
    total_s: float  # submit -> coordinator receipt

    def to_dict(self) -> dict:
        return {
            "task_id": self.task_id,
            "kind": self.kind,
            "program": self.program,
            "functions": self.functions,
            "cost": self.cost,
            "worker_pid": self.worker_pid,
            "queue_wait_s": self.queue_wait_s,
            "parse_s": self.parse_s,
            "analyze_s": self.analyze_s,
            "transfer_s": self.transfer_s,
            "total_s": self.total_s,
        }


@dataclass
class WorkerEvent:
    """One pool occurrence the batch policy must react to."""

    kind: str  # "done" | "crashed" | "timeout"
    task: Task
    result: dict | None = None
    timing: TaskTiming | None = None
    exitcode: int | None = None


# -- worker side --------------------------------------------------------------
_WORKER_SOURCES: list[str] = []
_WORKER_OPTIONS: PipelineOptions | None = None


def _init_worker(sources: list[str], options: PipelineOptions) -> None:
    """Per-worker initialization: receive the corpus sources exactly once.

    Under ``fork`` the worker additionally inherits the coordinator's
    parsed-program cache copy-on-write, so warm-up below is a lookup; under
    ``spawn`` each worker parses a program the first time it sees it.
    """
    global _WORKER_OPTIONS
    _WORKER_SOURCES[:] = sources
    _WORKER_OPTIONS = options
    active_plan()  # malformed fault specs fail loudly at startup, not mid-task


def _maybe_inject(token: str, attempt: int) -> None:
    """Apply any configured worker-side fault for one injection point."""
    plan = active_plan()
    crash_function = os.environ.get(CRASH_ENV_VAR)
    if crash_function and token == crash_function:
        os._exit(3)  # legacy hook: simulate a hard worker death every attempt
    if not plan.enabled:
        return
    if plan.should_crash(token, attempt):
        os._exit(FAULT_CRASH_EXIT)
    if plan.should_hang(token, attempt):
        time.sleep(plan.hang_seconds)
    if plan.slow_seconds > 0.0:
        time.sleep(plan.slow_seconds)


def _run_task(payload: tuple) -> dict:
    """Worker-side execution of one task payload."""
    task_id, kind, program_index, program_name, functions, attempts = payload
    started = time.perf_counter()
    source = _WORKER_SOURCES[program_index]
    options = _WORKER_OPTIONS
    assert options is not None, "worker used before initialization"

    result: dict = {
        "task_id": task_id,
        "pid": os.getpid(),
        "started": started,
        "parse_s": 0.0,
    }
    if kind == "simulate":
        _maybe_inject(SIMULATE_TOKEN, attempts.get(SIMULATE_TOKEN, 0))
        result["simulation"] = simulate_program(source, options)
    else:
        warm_start = time.perf_counter()
        analysis = analysis_for(source, options)  # parse + summaries, memoized per worker
        result["parse_s"] = time.perf_counter() - warm_start
        reports: dict[str, dict] = {}
        for name in functions:
            _maybe_inject(name, attempts.get(name, 0))
            reports[name] = function_report(analysis, name, options)
        result["results"] = reports
    result["finished"] = time.perf_counter()
    return result


def _worker_main(conn, sources: list[str], options: PipelineOptions) -> None:
    """Top-level worker loop: pull task payloads until told to stop."""
    _init_worker(sources, options)
    while True:
        try:
            payload = conn.recv()
        except (EOFError, OSError):
            return
        if payload is None:
            return
        try:
            result = _run_task(payload)
        except BaseException as exc:  # a bug, not a fault: report, don't die
            result = {
                "task_id": payload[0],
                "pid": os.getpid(),
                "exception": f"{type(exc).__name__}: {exc}",
            }
        try:
            conn.send(result)
        except (BrokenPipeError, OSError):
            return


def _sacrificial_main(conn, source, functions, options, attempts) -> None:
    """Entry point of the throwaway single-task verification subprocess.

    Runs the same per-function loop as a pool worker — including fault
    injection, so a poison task still behaves like poison here — but nothing
    shares its fate: if it dies, only this process dies.
    """
    _init_worker([source], options)
    analysis = analysis_for(source, options)
    reports: dict[str, dict] = {}
    for name in functions:
        _maybe_inject(name, attempts.get(name, 0))
        reports[name] = function_report(analysis, name, options)
    try:
        conn.send(reports)
    except (BrokenPipeError, OSError):
        pass


def run_sacrificial(
    ctx,
    source: str,
    functions: list[str],
    options: PipelineOptions,
    attempts: dict[str, int],
    timeout: float | None,
) -> tuple[str, dict | None]:
    """Run one suspect chunk in a throwaway subprocess.

    Returns ``("ok", reports)`` when the chunk completes, ``("crashed",
    None)`` when the subprocess dies, ``("timeout", None)`` when it blows
    ``timeout`` seconds (it is then killed).
    """
    parent, child = ctx.Pipe()
    proc = ctx.Process(
        target=_sacrificial_main,
        args=(child, source, functions, options, attempts),
        daemon=True,
    )
    proc.start()
    child.close()
    budget = timeout if timeout is not None else WAIT_TIMEOUT_S
    try:
        if not parent.poll(budget):
            return ("timeout", None)
        reports = parent.recv()
    except (EOFError, OSError):
        return ("crashed", None)
    finally:
        if proc.is_alive():
            proc.kill()
        proc.join(5)
        parent.close()
    return ("ok", reports)


# -- coordinator side ---------------------------------------------------------
@dataclass
class _Worker:
    process: multiprocessing.process.BaseProcess
    conn: object  # multiprocessing.connection.Connection
    task: Task | None = None
    deadline: float | None = None


class PersistentExecutor:
    """A self-healing warm worker pool that runs :class:`Task` chunks.

    Unlike a :class:`~concurrent.futures.ProcessPoolExecutor`, one worker
    dying (or hanging past ``task_timeout``) costs exactly one event for
    exactly one task: the worker is killed/reaped and respawned in place,
    every other in-flight task keeps running, and :meth:`poll` reports what
    happened so the caller can decide on retry, bisection, or quarantine.

    ``max_respawns`` bounds total worker replacement; exceeding it raises
    :class:`WorkerPoolError` — the "unrecoverable pool loss" exit.  The
    retry policy in :mod:`repro.driver.batch` already guarantees termination
    (attempts per component are capped), so the default is unbounded.
    """

    def __init__(
        self,
        jobs: int,
        sources: list[str],
        options: PipelineOptions,
        start_method: str | None = None,
        task_timeout: float | None = None,
        max_respawns: int | None = None,
    ):
        self.jobs = max(1, int(jobs))
        self.start_method = start_method or preferred_start_method()
        self.task_timeout = task_timeout
        self.max_respawns = max_respawns
        self.respawns = 0
        self.ctx = multiprocessing.get_context(self.start_method)
        self._sources = sources
        self._options = options
        self._backlog: deque[Task] = deque()
        self._delayed: list[tuple[float, Task]] = []
        self._last_progress = time.perf_counter()
        self._workers: list[_Worker] = []
        try:
            self._workers = [self._spawn_worker() for _ in range(self.jobs)]
        except OSError as exc:
            self.shutdown()
            raise WorkerPoolError(f"cannot start worker pool: {exc}") from exc

    # -- worker lifecycle -----------------------------------------------------
    def _spawn_worker(self) -> _Worker:
        parent, child = self.ctx.Pipe()
        process = self.ctx.Process(
            target=_worker_main,
            args=(child, self._sources, self._options),
            daemon=True,
        )
        process.start()
        child.close()
        return _Worker(process=process, conn=parent)

    def _replace_worker(self, worker: _Worker, kill: bool) -> None:
        """Reap ``worker`` (killing it first if asked) and respawn in place."""
        self.respawns += 1
        if self.max_respawns is not None and self.respawns > self.max_respawns:
            self._reap(worker, kill=True)
            raise WorkerPoolError(
                f"worker respawn budget exhausted ({self.max_respawns}); "
                "the pool is losing workers faster than it makes progress"
            )
        self._reap(worker, kill=kill)
        try:
            fresh = self._spawn_worker()
        except OSError as exc:
            raise WorkerPoolError(f"cannot respawn worker: {exc}") from exc
        index = self._workers.index(worker)
        self._workers[index] = fresh

    @staticmethod
    def _reap(worker: _Worker, kill: bool) -> None:
        if kill and worker.process.is_alive():
            worker.process.kill()
        worker.process.join(5)
        try:
            worker.conn.close()
        except OSError:
            pass

    # -- submission -----------------------------------------------------------
    def submit(self, task: Task) -> None:
        self._backlog.append(task)

    def submit_delayed(self, task: Task, delay_s: float) -> None:
        """Queue ``task`` to become submittable after ``delay_s`` (backoff)."""
        if delay_s <= 0.0:
            self.submit(task)
            return
        self._delayed.append((time.perf_counter() + delay_s, task))

    @property
    def outstanding(self) -> int:
        in_flight = sum(1 for w in self._workers if w.task is not None)
        return in_flight + len(self._backlog) + len(self._delayed)

    # -- the event loop -------------------------------------------------------
    def _promote_delayed(self, now: float) -> None:
        due = [entry for entry in self._delayed if entry[0] <= now]
        if due:
            self._delayed = [e for e in self._delayed if e[0] > now]
            for _, task in sorted(due, key=lambda e: e[0]):
                self._backlog.append(task)

    def _dispatch(self, now: float) -> None:
        while self._backlog:
            worker = next((w for w in self._workers if w.task is None), None)
            if worker is None:
                return
            if not worker.process.is_alive():
                # died while idle (startup failure, external kill): replace
                # silently — no task was harmed
                self._replace_worker(worker, kill=False)
                continue
            task = self._backlog.popleft()
            task.submitted_at = now
            payload = (
                task.task_id,
                task.kind,
                task.program_index,
                task.program_name,
                task.functions,
                task.attempts,
            )
            try:
                worker.conn.send(payload)
            except (BrokenPipeError, OSError):
                self._backlog.appendleft(task)
                self._replace_worker(worker, kill=False)
                continue
            worker.task = task
            worker.deadline = (
                now + self.task_timeout if self.task_timeout is not None else None
            )

    def poll(self) -> list[WorkerEvent]:
        """Block until something happens; return the batch of events.

        Returns ``[]`` only when nothing is outstanding.  Raises
        :class:`WorkerPoolError` when the pool is unrecoverable or no task
        completes within :data:`WAIT_TIMEOUT_S` despite live workers.
        """
        from multiprocessing.connection import wait as connection_wait

        events: list[WorkerEvent] = []
        while not events:
            now = time.perf_counter()
            self._promote_delayed(now)
            self._dispatch(now)
            busy = {w.conn: w for w in self._workers if w.task is not None}
            if not busy and not self._backlog and not self._delayed:
                return []

            wakeups = [self._last_progress + WAIT_TIMEOUT_S]
            wakeups.extend(w.deadline for w in busy.values() if w.deadline is not None)
            wakeups.extend(ready_at for ready_at, _ in self._delayed)
            timeout = max(0.0, min(wakeups) - now)
            ready = connection_wait(list(busy), timeout) if busy else []
            if not busy:
                time.sleep(min(timeout, 0.05))
            now = time.perf_counter()

            for conn in ready:
                worker = busy[conn]
                task = worker.task
                assert task is not None
                try:
                    result = worker.conn.recv()
                except (EOFError, OSError):
                    # reap before reading the exit code — right after the
                    # pipe breaks the process may not be waitable yet and
                    # ``exitcode`` would still be None
                    worker.process.join(5)
                    exitcode = worker.process.exitcode
                    self._replace_worker(worker, kill=False)
                    events.append(
                        WorkerEvent(kind="crashed", task=task, exitcode=exitcode)
                    )
                    self._last_progress = now
                    continue
                worker.task = None
                worker.deadline = None
                self._last_progress = now
                if "exception" in result:
                    raise WorkerTaskError(
                        f"task {task.kind}:{task.program_name} raised in the "
                        f"worker: {result['exception']}"
                    )
                events.append(
                    WorkerEvent(
                        kind="done",
                        task=task,
                        result=result,
                        timing=self._timing(task, result, now),
                    )
                )

            # deadline sweep: anything past its per-task deadline is killed
            # and reported as a timeout (results that raced in above already
            # cleared their worker's task, so they are never double-counted)
            for worker in list(self._workers):
                if (
                    worker.task is not None
                    and worker.deadline is not None
                    and now >= worker.deadline
                ):
                    task = worker.task
                    self._replace_worker(worker, kill=True)
                    events.append(WorkerEvent(kind="timeout", task=task))
                    self._last_progress = now

            if not events and busy and now - self._last_progress >= WAIT_TIMEOUT_S:
                raise WorkerPoolError(
                    f"no task completed within {WAIT_TIMEOUT_S:.0f}s "
                    f"({len(busy)} in flight)"
                )
        return events

    @staticmethod
    def _timing(task: Task, result: dict, received: float) -> TaskTiming:
        started = result["started"]
        done = result["finished"]
        parse_s = result.get("parse_s", 0.0)
        return TaskTiming(
            task_id=task.task_id,
            kind=task.kind,
            program=task.program_name,
            functions=len(task.functions),
            cost=task.cost,
            worker_pid=result["pid"],
            queue_wait_s=max(0.0, started - task.submitted_at),
            parse_s=parse_s,
            analyze_s=max(0.0, done - started - parse_s),
            transfer_s=max(0.0, received - done),
            total_s=max(0.0, received - task.submitted_at),
        )

    def shutdown(self) -> None:
        self._backlog.clear()
        self._delayed.clear()
        for worker in self._workers:
            if worker.task is None and worker.process.is_alive():
                try:
                    worker.conn.send(None)  # polite stop for idle workers
                except (BrokenPipeError, OSError):
                    pass
        for worker in self._workers:
            worker.process.join(0.5)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join(5)
            try:
                worker.conn.close()
            except OSError:
                pass
        self._workers = []

    def __enter__(self) -> "PersistentExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


def warm_parsed_programs(sources: list[str]) -> None:
    """Parse every source into the coordinator's program cache (pre-fork
    warm-up: forked workers inherit the cache instead of re-parsing)."""
    from repro.lang.errors import LangError

    for source in sources:
        try:
            parsed_program(source)
        except LangError:
            pass  # planning reports parse errors per program
