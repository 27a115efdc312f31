"""Backends that actually execute independent iterations.

The cost simulator (:mod:`repro.machine.simulator`) answers *how long would
this take on P processors*; these backends answer *does the parallel
schedule compute the right thing*.  ``ThreadPoolExecutorBackend`` runs the
iterations of a doall on a Python thread pool — on this host (one core, plus
the GIL) that gives no speedup, but it does execute the iterations
concurrently and in a nondeterministic order, which is exactly what the
equivalence tests need to demonstrate that the strip-mined schedule has no
hidden iteration-order dependence.  ``SequentialBackend`` is the reference.
"""

from __future__ import annotations

import concurrent.futures
import threading
from dataclasses import dataclass, field
from typing import Callable, Sequence


@dataclass
class SequentialBackend:
    """Run tasks one after another on the calling thread."""

    name: str = "sequential"

    def run(self, tasks: Sequence[Callable[[], object]]) -> list[object]:
        return [task() for task in tasks]

    def map_indices(self, func: Callable[[int], object], count: int) -> list[object]:
        return [func(i) for i in range(count)]


@dataclass
class ThreadPoolExecutorBackend:
    """Run tasks on a pool of ``num_workers`` Python threads.

    Results are returned in task order regardless of completion order, and
    the number of distinct worker threads observed is recorded so tests can
    assert the work really was spread across workers.
    """

    num_workers: int = 4
    name: str = "threads"
    threads_observed: set[str] = field(default_factory=set)

    def run(self, tasks: Sequence[Callable[[], object]]) -> list[object]:
        self.threads_observed = set()
        lock = threading.Lock()

        def wrap(task: Callable[[], object]) -> object:
            with lock:
                self.threads_observed.add(threading.current_thread().name)
            return task()

        with concurrent.futures.ThreadPoolExecutor(max_workers=self.num_workers) as pool:
            futures = [pool.submit(wrap, task) for task in tasks]
            return [f.result() for f in futures]

    def map_indices(self, func: Callable[[int], object], count: int) -> list[object]:
        return self.run([(lambda i=i: func(i)) for i in range(count)])

    def run_stripmined(
        self, func: Callable[[int], object], count: int
    ) -> list[object]:
        """Execute ``func(0..count-1)`` in groups of ``num_workers``.

        Mirrors the transformed loop's structure: each group of
        ``num_workers`` consecutive iterations is one fork/join step.
        """
        results: list[object] = []
        for start in range(0, count, self.num_workers):
            group = range(start, min(start + self.num_workers, count))
            results.extend(self.run([(lambda i=i: func(i)) for i in group]))
        return results
