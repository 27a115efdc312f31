"""Cost model of the simulated shared-memory multiprocessor.

All times are in abstract *work units*; one unit corresponds to one unit of
work reported by the application (for the N-body code, one particle–node
interaction).  The defaults of :data:`SEQUENT_LIKE` are chosen so that the
relative magnitude of the overheads matches the qualitative description in
the paper's results section: simple static scheduling, "synchronization on a
Sequent is rather slow", no granularity optimization — which together push
the observed 4-processor speedup to ~2.5–2.8 and the 7-processor speedup to
~3.3–4.3, improving with N.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class MachineConfig:
    """Parameters of the simulated machine.

    ``sync_cost`` is charged once per parallel step (the barrier at the end
    of the strip-mined inner loop); ``dispatch_cost`` once per task assigned
    to a PE (fork/dispatch overhead); ``traversal_cost`` models the
    sequential pointer skip-ahead (FOR1) executed between parallel steps,
    per list node skipped; ``memory_contention`` inflates each PE's busy time
    by a factor ``1 + memory_contention * (num_pes - 1)`` to model bus
    contention on a small shared-bus machine.
    """

    name: str = "sequent-like"
    num_pes: int = 4
    #: barrier / fork-join cost per parallel step, in work units
    #: (one work unit == one particle--node interaction of the N-body code)
    sync_cost: float = 10.0
    #: per-task dispatch overhead, in work units
    dispatch_cost: float = 1.0
    #: cost of one pointer dereference in the sequential skip-ahead loop
    traversal_cost: float = 1.0
    #: fractional busy-time inflation per additional PE (bus contention)
    memory_contention: float = 0.01
    #: scheduling policy: "static-interleaved" (the paper), "static-block", "dynamic"
    scheduling: str = "static-interleaved"
    #: work units per second, used only to convert to "seconds" for display
    units_per_second: float = 1.0

    def with_pes(self, num_pes: int) -> "MachineConfig":
        return replace(self, num_pes=num_pes)

    def with_sync_cost(self, sync_cost: float) -> "MachineConfig":
        return replace(self, sync_cost=sync_cost)

    def contention_factor(self) -> float:
        """Busy-time inflation factor for the configured PE count."""
        return 1.0 + self.memory_contention * max(0, self.num_pes - 1)

    def describe(self) -> str:
        return (
            f"{self.name}: {self.num_pes} PEs, sync={self.sync_cost}, "
            f"dispatch={self.dispatch_cost}, contention={self.memory_contention}, "
            f"scheduling={self.scheduling}"
        )


#: The configuration used for the headline tables — a small bus-based
#: shared-memory machine with slow synchronization, like the Sequent.
SEQUENT_LIKE = MachineConfig()

#: A zero-overhead machine, used by ablation benches to isolate the cost of
#: each overhead the paper lists.
IDEAL_MACHINE = MachineConfig(
    name="ideal",
    sync_cost=0.0,
    dispatch_cost=0.0,
    traversal_cost=0.0,
    memory_contention=0.0,
)
