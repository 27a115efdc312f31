"""Persistent-worker execution for the batch driver, fault-tolerant edition.

The pool manages its own workers so partial failure stays partial:

* **one process + one pipe per worker** — the coordinator knows exactly
  which task each worker holds, so a dead worker indicts *its* task only;
  every other in-flight task keeps running;
* **notes** — a worker sends a note naming each report it is about to
  compute, and the simulation, before running it.  A task that dies is
  reported with its worker's last note as its *suspect*, and the per-task
  deadline restarts at every note, so it bounds one function's report, not
  a whole program;
* **targeted kill and respawn** — a worker that blows its deadline (or
  dies) is killed/reaped and replaced in place; the pool never shrinks and
  never wedges;
* **an event API** — :meth:`PersistentExecutor.poll` surfaces ``done`` /
  ``crashed`` / ``timeout`` events and leaves *policy* (retry, backoff,
  quarantine) to :mod:`repro.driver.batch`, which resubmits every attempt
  of a dying task to this pool.

A task is one corpus program.  Workers are created once per batch run; each
runs :func:`~repro.driver.stages.run_program` — the call ``--jobs 1`` makes
inline — on its own :class:`~repro.driver.stages.StagedEngine` over the
run's store directory, so it reads and writes artifacts itself (a ``put``
is an atomic rename of a content-addressed entry).  It returns the
program's reports and counters and what its store counters grew by, and
every task records a queue-wait/analyze/transfer timing breakdown.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import deque
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.driver.cache import Record, ResultCache
from repro.driver.faults import FAULT_CRASH_EXIT, active_plan
from repro.driver.pipeline import PipelineOptions
from repro.driver.stages import StagedEngine, run_program

#: ``--jobs`` never defaults above this many workers
MAX_DEFAULT_JOBS = 8

#: a stretch this long with neither a note nor a completion means the pool
#: is wedged; surface an error instead of hanging an unattended batch
#: forever (the per-task deadline, when configured, normally fires long
#: before this backstop)
WAIT_TIMEOUT_S = 300.0


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
    """``fork`` where available (workers start without re-importing the
    package), ``spawn`` elsewhere."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


# -- task and result shapes ---------------------------------------------------
@dataclass(frozen=True)
class WorkerSetup:
    """What every worker of one batch run shares: the store and the options."""

    cache_dir: Path | None
    options: PipelineOptions
    simulate: bool


@dataclass
class Task:
    """One unit of pool work: run one corpus program end to end."""

    task_id: int
    program_index: int
    name: str
    source: str
    #: whether the engine may read and write the program's manifest
    reuse: bool = True
    #: suspect -> how many earlier tasks of this program died charged to it
    #: (``None``: the program itself, before its first note) — deterministic
    #: fault injection keys off these
    attempts: dict = field(default_factory=dict)
    #: suspect -> the failure payload the engine reports in its place
    failed: dict = field(default_factory=dict)
    #: the program's record as the coordinator read it (``None``: it has
    #: none), which the worker takes instead of reading it again
    record: Record | None = None
    submitted_at: float = 0.0


@dataclass
class TaskTiming:
    """Where one task's wall-clock went (coordinator + worker stamps).

    On Linux ``time.perf_counter`` reads the system-wide monotonic clock, so
    worker-side stamps are directly comparable with coordinator-side ones;
    on platforms where they are not, the derived fields are clamped at 0.
    """

    task_id: int
    program: str
    functions: int  # reports the task computed
    worker_pid: int
    queue_wait_s: float  # submit -> worker picked it up (incl. task pickling)
    analyze_s: float  # worker-side pipeline work
    transfer_s: float  # worker finish -> coordinator receipt (result pickling + queue)
    total_s: float  # submit -> coordinator receipt

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class WorkerEvent:
    """One pool occurrence the batch policy must react to."""

    kind: str  # "done" | "crashed" | "timeout"
    task: Task
    result: dict | None = None
    timing: TaskTiming | None = None
    exitcode: int | None = None
    #: the dead worker's last note (``None``: it died before the first)
    suspect: str | None = None


# -- worker side --------------------------------------------------------------
def _maybe_inject(token: str, attempt: int) -> None:
    """Apply any configured worker-side fault for one injection point."""
    plan = active_plan()
    if not plan.enabled:
        return
    if plan.should_crash(token, attempt):
        os._exit(FAULT_CRASH_EXIT)
    if plan.should_hang(token, attempt):
        time.sleep(plan.hang_seconds)
    if plan.slow_seconds > 0.0:
        time.sleep(plan.slow_seconds)


def _run_task(conn, engine: StagedEngine, setup: WorkerSetup, task: Task) -> dict:
    """Worker-side execution of one task, noting each report and the
    simulation over ``conn`` before running it."""

    def before(token: str) -> None:
        conn.send(("note", token))
        _maybe_inject(token, task.attempts.get(token, 0))

    started = time.perf_counter()
    counters = engine.cache.counters()
    if task.reuse:
        engine.adopt(task.name, task.record)
    run = run_program(
        engine, task.name, task.source, task.reuse, setup.simulate, task.failed, before
    )
    return {
        "pid": os.getpid(),
        "started": started,
        "finished": time.perf_counter(),
        "run": run,
        "counters": engine.cache.counters(since=counters),
    }


def _worker_main(conn, setup: WorkerSetup) -> None:
    """Top-level worker loop: pull tasks and send their outcomes until told
    to stop or the pipe is gone."""
    engine = StagedEngine(ResultCache(setup.cache_dir), setup.options)
    active_plan()  # malformed fault specs fail loudly at startup, not mid-task
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        try:
            message = ("done", _run_task(conn, engine, setup, task))
        except Exception as exc:  # a bug, not a fault: report it, don't die
            message = ("error", f"{type(exc).__name__}: {exc}")
        try:
            conn.send(message)
        except (BrokenPipeError, OSError):
            return


# -- coordinator side ---------------------------------------------------------
@dataclass
class _Worker:
    process: multiprocessing.process.BaseProcess
    conn: object  # multiprocessing.connection.Connection
    task: Task | None = None
    deadline: float | None = None
    note: str | None = None


class PersistentExecutor:
    """A self-healing warm worker pool that runs :class:`Task` programs.

    Unlike a :class:`~concurrent.futures.ProcessPoolExecutor`, one worker
    dying (or going silent past ``task_timeout``) costs exactly one event
    for exactly one task: the worker is killed/reaped and respawned in
    place, every other in-flight task keeps running, and :meth:`poll`
    reports what happened, with the suspect, so the caller can decide on
    retry or quarantine.

    ``max_respawns`` bounds total worker replacement; exceeding it raises
    :class:`WorkerPoolError` — the "unrecoverable pool loss" exit.  The
    retry policy in :mod:`repro.driver.batch` already guarantees termination
    (attempts per suspect are capped), so the default is unbounded.
    """

    def __init__(
        self,
        jobs: int,
        setup: WorkerSetup,
        task_timeout: float | None = None,
        max_respawns: int | None = None,
    ):
        self.jobs = max(1, int(jobs))
        self.setup = setup
        self.start_method = preferred_start_method()
        self.task_timeout = task_timeout
        self.max_respawns = max_respawns
        self.respawns = 0
        self.ctx = multiprocessing.get_context(self.start_method)
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
            target=_worker_main, args=(child, self.setup), daemon=True
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

    # -- the event loop -------------------------------------------------------
    def _promote_delayed(self, now: float) -> None:
        due = [entry for entry in self._delayed if entry[0] <= now]
        if due:
            self._delayed = [e for e in self._delayed if e[0] > now]
            for _, task in sorted(due, key=lambda e: e[0]):
                self._backlog.append(task)

    def _arm(self, worker: _Worker, now: float) -> None:
        worker.deadline = now + self.task_timeout if self.task_timeout is not None else None

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
            try:
                worker.conn.send(task)
            except (BrokenPipeError, OSError):
                self._backlog.appendleft(task)
                self._replace_worker(worker, kill=False)
                continue
            worker.task = task
            worker.note = None
            self._arm(worker, now)

    def _receive(self, worker: _Worker, now: float) -> WorkerEvent | None:
        """Read what ``worker`` sent: notes re-arm its deadline; a result or
        a broken pipe ends its task."""
        task = worker.task
        assert task is not None
        self._last_progress = now
        while True:
            try:
                kind, value = worker.conn.recv()
            except (EOFError, OSError):
                # reap before reading the exit code — right after the pipe
                # breaks the process may not be waitable yet and
                # ``exitcode`` would still be None
                worker.process.join(5)
                exitcode = worker.process.exitcode
                self._replace_worker(worker, kill=False)
                return WorkerEvent(
                    kind="crashed", task=task, exitcode=exitcode, suspect=worker.note
                )
            if kind != "note":
                break
            worker.note = value
            self._arm(worker, now)
            if not worker.conn.poll():
                return None
        worker.task = None
        worker.deadline = None
        if kind == "error":
            raise WorkerTaskError(f"task for {task.name} raised in the worker: {value}")
        return WorkerEvent(
            kind="done", task=task, result=value, timing=self._timing(task, value, now)
        )

    def poll(self) -> list[WorkerEvent]:
        """Block until something happens; return the batch of events.

        Returns ``[]`` only when nothing is outstanding.  Raises
        :class:`WorkerPoolError` when the pool is unrecoverable or no worker
        sends anything within :data:`WAIT_TIMEOUT_S` despite live workers.
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
                event = self._receive(busy[conn], now)
                if event is not None:
                    events.append(event)

            # deadline sweep: anything past its deadline is killed and
            # reported as a timeout (results that raced in above already
            # cleared their worker's task, so they are never double-counted)
            for worker in list(self._workers):
                if (
                    worker.task is not None
                    and worker.deadline is not None
                    and now >= worker.deadline
                ):
                    task = worker.task
                    self._replace_worker(worker, kill=True)
                    events.append(
                        WorkerEvent(kind="timeout", task=task, suspect=worker.note)
                    )
                    self._last_progress = now

            if not events and busy and now - self._last_progress >= WAIT_TIMEOUT_S:
                raise WorkerPoolError(
                    f"no worker progressed within {WAIT_TIMEOUT_S:.0f}s "
                    f"({len(busy)} in flight)"
                )
        return events

    @staticmethod
    def _timing(task: Task, result: dict, received: float) -> TaskTiming:
        started = result["started"]
        done = result["finished"]
        return TaskTiming(
            task_id=task.task_id,
            program=task.name,
            functions=result["run"].stats.recomputed,
            worker_pid=result["pid"],
            queue_wait_s=max(0.0, started - task.submitted_at),
            analyze_s=max(0.0, done - started),
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
