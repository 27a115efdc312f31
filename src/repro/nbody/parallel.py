"""The strip-mined parallel Barnes–Hut driver (the paper's "par" rows).

The transformed program of section 4.3.3 processes the particle list in
groups of ``PEs`` consecutive particles: one parallel step runs
``_BHL1_iteration`` on each PE, then the sequential FOR1 loop skips the list
pointer ahead by ``PEs`` nodes, and the enclosing ``while`` repeats.  BHL2 is
transformed identically.  The tree build stays sequential.

This driver executes exactly that schedule:

* the **numerics** run through a pluggable backend — sequential by default,
  or a Python thread pool (to demonstrate order-independence); physics
  results are bit-identical to the sequential driver either way, which the
  equivalence tests assert;
* the **timing** is produced by :class:`repro.machine.simulator.MachineSimulator`,
  charging per-particle force work (interaction counts) to the PE that the
  strip-mined schedule assigns it to, one barrier per parallel step, the
  sequential FOR1 pointer advance, and the sequential tree build.

The result therefore reproduces the *structure* of the paper's measurement:
near-linear speedup eroded by static-scheduling imbalance, slow
synchronization, unexploited subtree parallelism, and unoptimized granularity
— the four losses the paper lists under its results table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.machine.costmodel import MachineConfig, SEQUENT_LIKE
from repro.machine.executor import SequentialBackend, ThreadPoolExecutorBackend
from repro.machine.simulator import MachineSimulator, SimulationTrace
from repro.nbody.force import compute_force_on_particle
from repro.nbody.integrate import compute_new_vel_pos
from repro.nbody.particle import Particle, link_particles
from repro.nbody.simulation import BarnesHutSimulation, SimulationConfig, StepStats


@dataclass
class ParallelRunResult:
    """Result of a simulated parallel run."""

    config: SimulationConfig
    machine: MachineConfig
    trace: SimulationTrace
    steps: list[StepStats] = field(default_factory=list)
    final_states: list[tuple] = field(default_factory=list)
    #: number of distinct worker threads observed when the thread backend is used
    threads_observed: int = 0

    @property
    def elapsed(self) -> float:
        return self.trace.elapsed

    def speedup_against(self, sequential_elapsed: float) -> float:
        return self.trace.speedup_against(sequential_elapsed)


class StripMinedParallelSimulation:
    """Run the transformed Barnes–Hut program on the simulated machine."""

    def __init__(
        self,
        particles: list[Particle],
        config: SimulationConfig,
        machine: MachineConfig = SEQUENT_LIKE,
        use_threads: bool = False,
        exploit_subtree_parallelism: bool = False,
    ):
        self.particles = particles
        self.config = config
        self.machine = machine
        self.simulator = MachineSimulator(machine)
        self.head: Particle | None = link_particles(particles)
        self.sequential = BarnesHutSimulation(particles, config)
        self.backend = (
            ThreadPoolExecutorBackend(num_workers=machine.num_pes)
            if use_threads
            else SequentialBackend()
        )
        #: ablation switch — when True, the per-particle force work is divided
        #: across the node's subtrees as if the independent subtree
        #: computations inside compute_force were also run in parallel
        #: (the paper's loss (2): "the parallelism inherent in the independent
        #: subtree computations ... is not yet being exploited")
        self.exploit_subtree_parallelism = exploit_subtree_parallelism
        self._threads_seen: set[str] = set()

    # -- phases ------------------------------------------------------------------
    def _force_phase(self, stats: StepStats, trace: SimulationTrace) -> None:
        """BHL1, strip-mined by the number of processors."""
        pes = self.machine.num_pes
        particles = self.particles
        n = len(particles)
        root = self.sequential.root
        theta = self.config.theta
        gravity = self.config.gravity

        costs: list[float] = [0.0] * n

        def run_one(index: int) -> None:
            p = particles[index]
            interactions = compute_force_on_particle(p, root, theta, gravity)
            costs[index] = float(interactions)

        # execute groups of PEs consecutive iterations (one parallel step each)
        for start in range(0, n, pes):
            group = list(range(start, min(start + pes, n)))
            if isinstance(self.backend, ThreadPoolExecutorBackend):
                self.backend.run([(lambda i=i: run_one(i)) for i in group])
                self._threads_seen |= self.backend.threads_observed
            else:
                for i in group:
                    run_one(i)

        stats.per_particle_force_work = list(costs)
        stats.force_work = sum(costs)
        stats.interactions = int(sum(costs))
        timed_costs = (
            [c / max(1, _mean_subtree_fanout()) for c in costs]
            if self.exploit_subtree_parallelism
            else costs
        )
        self.simulator.simulate_stripmined_pass(timed_costs, trace=trace)

    def _update_phase(self, stats: StepStats, trace: SimulationTrace) -> None:
        """BHL2, strip-mined by the number of processors."""
        pes = self.machine.num_pes
        particles = self.particles
        n = len(particles)
        dt = self.config.dt
        costs: list[float] = [0.0] * n

        def run_one(index: int) -> None:
            costs[index] = compute_new_vel_pos(particles[index], dt)

        for start in range(0, n, pes):
            group = list(range(start, min(start + pes, n)))
            if isinstance(self.backend, ThreadPoolExecutorBackend):
                self.backend.run([(lambda i=i: run_one(i)) for i in group])
                self._threads_seen |= self.backend.threads_observed
            else:
                for i in group:
                    run_one(i)

        stats.per_particle_update_work = list(costs)
        stats.update_work = sum(costs)
        self.simulator.simulate_stripmined_pass(costs, trace=trace)

    def step(self, index: int, trace: SimulationTrace) -> StepStats:
        stats = StepStats(step=index)
        build_stats = self.sequential.build_phase()
        stats.build_work = build_stats.work
        trace.add_sequential(build_stats.work)  # the build is not parallelized
        self._force_phase(stats, trace)
        self._update_phase(stats, trace)
        return stats

    # -- whole runs -------------------------------------------------------------------
    def run(self) -> ParallelRunResult:
        trace = SimulationTrace(config=self.machine)
        result = ParallelRunResult(config=self.config, machine=self.machine, trace=trace)
        for i in range(self.config.steps):
            result.steps.append(self.step(i, trace))
        result.final_states = [p.state() for p in self.particles]
        result.threads_observed = len(self._threads_seen)
        return result


def _mean_subtree_fanout() -> float:
    """Average number of independent subtree computations inside compute_force.

    Used only by the subtree-parallelism ablation: an opened interior node
    recurses into its (up to eight, typically ~4 occupied) children, which
    could be evaluated concurrently.  We use a conservative factor of 2.0 —
    exploiting that parallelism would roughly halve the critical path of a
    single force computation.
    """
    return 2.0
