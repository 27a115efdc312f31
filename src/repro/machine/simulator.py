"""Execution-driven cost simulation of the strip-mined parallel schedule.

The simulator answers the question the paper's results table answers with a
real Sequent: *how long does the transformed program take on P processors?*
Work is expressed in abstract units supplied by the application (for the
N-body code, one unit per particle–node interaction; for interpreted toy
programs, one unit per interpreter operation).

Two granularities are provided:

* :meth:`MachineSimulator.simulate_stripmined_pass` — models the transformed
  loop exactly: the particle list is processed in groups of ``PEs``
  consecutive iterations, each group is one parallel step ending in a
  barrier, and the sequential FOR1 pointer skip-ahead runs between steps.
* :meth:`MachineSimulator.simulate_doall` — models a single fork/join over
  the whole iteration space with a pluggable scheduler; used by the ablation
  benches (dynamic self-scheduling, block scheduling, one-barrier-per-pass).

The simulator can also be attached to the toy-language interpreter as its
``ParallelFor`` executor, in which case iteration costs are measured in
interpreter operations — this is how the end-to-end integration tests run a
*transformed toy program* on the simulated machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.machine.costmodel import MachineConfig, SEQUENT_LIKE
from repro.machine.processor import ProcessingElement
from repro.machine.scheduler import StaticInterleavedScheduler, make_scheduler


@dataclass
class ParallelStepResult:
    """Timing of one parallel step (one group of ``PEs`` iterations)."""

    elapsed: float
    busy: list[float]
    sync: float
    idle: list[float]


@dataclass
class SimulationTrace:
    """Accumulated timing of a simulated run."""

    config: MachineConfig
    elapsed: float = 0.0
    sequential_time: float = 0.0
    parallel_steps: int = 0
    total_tasks: int = 0
    pes: list[ProcessingElement] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.pes:
            self.pes = [ProcessingElement(i) for i in range(self.config.num_pes)]

    # -- accounting -----------------------------------------------------------
    def add_sequential(self, cost: float) -> None:
        self.elapsed += cost
        self.sequential_time += cost

    def add_step(self, step: ParallelStepResult) -> None:
        self.elapsed += step.elapsed
        self.parallel_steps += 1
        for pe, busy, idle in zip(self.pes, step.busy, step.idle):
            pe.busy_time += busy
            pe.idle_time += idle
            pe.sync_time += step.sync
            if busy > 0:
                pe.tasks_executed += 1

    # -- derived metrics ----------------------------------------------------------
    @property
    def busy_time(self) -> float:
        return sum(pe.busy_time for pe in self.pes)

    @property
    def idle_time(self) -> float:
        return sum(pe.idle_time for pe in self.pes)

    @property
    def sync_time(self) -> float:
        return sum(pe.sync_time for pe in self.pes)

    def speedup_against(self, sequential_elapsed: float) -> float:
        return sequential_elapsed / self.elapsed if self.elapsed > 0 else float("inf")

    def seconds(self) -> float:
        return self.elapsed / self.config.units_per_second

    def describe(self) -> str:
        lines = [
            f"simulated run on {self.config.describe()}",
            f"  elapsed: {self.elapsed:.1f} units "
            f"({self.parallel_steps} parallel steps, "
            f"{self.sequential_time:.1f} sequential units)",
        ]
        for pe in self.pes:
            lines.append("  " + pe.describe())
        return "\n".join(lines)


class MachineSimulator:
    """Replay doall schedules over the configured machine."""

    def __init__(self, config: MachineConfig = SEQUENT_LIKE):
        self.config = config

    # -- elementary models -----------------------------------------------------
    def _step(self, group: Sequence[float]) -> ParallelStepResult:
        """One strip-mined parallel step: task ``j`` of the group runs on PE ``j``."""
        num_pes = self.config.num_pes
        contention = self.config.contention_factor()
        busy = [0.0] * num_pes
        for j, cost in enumerate(group):
            if j >= num_pes:
                # more tasks than PEs in a group never happens with the
                # strip-mined schedule; fold extras onto the last PE
                busy[num_pes - 1] += (cost + self.config.dispatch_cost) * contention
            else:
                busy[j] = (cost + self.config.dispatch_cost) * contention
        longest = max(busy) if busy else 0.0
        idle = [longest - b for b in busy]
        sync = self.config.sync_cost
        return ParallelStepResult(elapsed=longest + sync, busy=busy, sync=sync, idle=idle)

    # -- the transformed-loop model ------------------------------------------------
    def simulate_stripmined_pass(
        self,
        costs: Sequence[float],
        trace: SimulationTrace | None = None,
        sequential_prologue: float = 0.0,
    ) -> SimulationTrace:
        """Simulate one pass of the transformed loop over ``costs`` iterations.

        ``sequential_prologue`` is charged before the pass (e.g. rebuilding
        the octree at the start of a time step, which the paper leaves
        sequential).  Between parallel steps the sequential FOR1 skip-ahead
        advances the list pointer ``PEs`` times.
        """
        if trace is None:
            trace = SimulationTrace(config=self.config)
        if sequential_prologue:
            trace.add_sequential(sequential_prologue)
        num_pes = self.config.num_pes
        n = len(costs)
        trace.total_tasks += n
        for start in range(0, n, num_pes):
            group = costs[start:start + num_pes]
            trace.add_step(self._step(group))
            # sequential pointer skip-ahead between steps (FOR1)
            advanced = min(num_pes, n - start)
            trace.add_sequential(self.config.traversal_cost * advanced)
        return trace

    # -- whole-loop fork/join model -----------------------------------------------
    def simulate_doall(
        self,
        costs: Sequence[float],
        scheduler_name: str | None = None,
        trace: SimulationTrace | None = None,
    ) -> SimulationTrace:
        """Simulate a single fork/join doall over all iterations.

        Used by the ablation benches: with a dynamic scheduler and one
        barrier for the whole pass, most of the static-scheduling and
        synchronization losses disappear.
        """
        if trace is None:
            trace = SimulationTrace(config=self.config)
        scheduler = make_scheduler(scheduler_name or self.config.scheduling) \
            if (scheduler_name or self.config.scheduling) != "static-interleaved" \
            else StaticInterleavedScheduler()
        num_pes = self.config.num_pes
        contention = self.config.contention_factor()
        assignment = scheduler.assign(costs, num_pes)
        busy = [
            sum((costs[i] + self.config.dispatch_cost) for i in tasks) * contention
            for tasks in assignment
        ]
        longest = max(busy) if busy else 0.0
        idle = [longest - b for b in busy]
        step = ParallelStepResult(
            elapsed=longest + self.config.sync_cost,
            busy=busy,
            sync=self.config.sync_cost,
            idle=idle,
        )
        trace.total_tasks += len(costs)
        trace.add_step(step)
        return trace

    # -- interpreter integration --------------------------------------------------
    def attach_to_interpreter(self, interpreter) -> "InterpreterParallelExecutor":
        """Install this simulator as the interpreter's ``ParallelFor`` executor.

        Returns the executor object, whose ``trace`` accumulates simulated
        timing across every parallel loop the interpreted program executes.
        """
        executor = InterpreterParallelExecutor(self)
        interpreter.set_parallel_executor(executor)
        return executor


class InterpreterParallelExecutor:
    """Runs toy-language ``ParallelFor`` loops and charges them to the simulator.

    Iterations execute sequentially (the host has one core); the *cost* of
    each iteration is the number of interpreter operations it performed, and
    those costs are replayed on the simulated machine as one parallel step.
    """

    def __init__(self, simulator: MachineSimulator):
        self.simulator = simulator
        self.trace = SimulationTrace(config=simulator.config)
        self.sequential_cost = 0.0

    def __call__(self, interpreter, stmt, frame) -> None:
        costs: list[float] = []

        def measured_body() -> None:
            before = interpreter.stats.total_operations()
            interpreter.execute_block(stmt.body, frame)
            costs.append(float(interpreter.stats.total_operations() - before))

        # the reference loop drives the iterations, so the simulated run
        # shares its exact semantics (step, descending bounds, loop-variable
        # re-read); only the per-iteration cost measurement is ours
        interpreter.run_counted_loop(stmt, frame, body=measured_body)
        self.sequential_cost += sum(costs)
        self.trace.add_step(self.simulator._step(costs))
