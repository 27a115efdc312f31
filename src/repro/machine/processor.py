"""Per-processing-element accounting for the machine simulator."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class ProcessingElement:
    """One simulated processor: accumulates busy/idle/sync time and task counts."""

    index: int
    busy_time: float = 0.0
    idle_time: float = 0.0
    sync_time: float = 0.0
    tasks_executed: int = 0

    def run_task(self, cost: float) -> None:
        self.busy_time += cost
        self.tasks_executed += 1

    def wait(self, duration: float) -> None:
        if duration > 0:
            self.idle_time += duration

    def synchronize(self, duration: float) -> None:
        if duration > 0:
            self.sync_time += duration

    @property
    def total_time(self) -> float:
        return self.busy_time + self.idle_time + self.sync_time

    def utilization(self) -> float:
        total = self.total_time
        return self.busy_time / total if total > 0 else 1.0

    def reset(self) -> None:
        self.busy_time = 0.0
        self.idle_time = 0.0
        self.sync_time = 0.0
        self.tasks_executed = 0

    def describe(self) -> str:
        return (
            f"PE{self.index}: busy={self.busy_time:.1f} idle={self.idle_time:.1f} "
            f"sync={self.sync_time:.1f} tasks={self.tasks_executed} "
            f"util={self.utilization():.2%}"
        )
