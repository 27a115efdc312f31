"""Sequential Barnes–Hut driver — the paper's baseline program.

Each time step executes exactly the structure of the paper's pseudo-code::

    root = build_tree(particles);
    while p <> NULL { p->force = compute_force(p, root); p = p->next; }   /* BHL1 */
    while p <> NULL { compute_new_vel_pos(p);           p = p->next; }   /* BHL2 */

and records the per-phase work in the abstract units the machine simulator
consumes (one unit per particle–node interaction, plus the tree-build and
update costs).  :class:`BarnesHutSimulation` is the "seq" row of the paper's
results table; :mod:`repro.nbody.parallel` reuses its phase structure for the
"par" rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.nbody.build import BuildStats, build_tree
from repro.nbody.force import compute_force_on_particle, direct_forces
from repro.nbody.integrate import compute_new_vel_pos
from repro.nbody.particle import Particle, link_particles
from repro.nbody.octree import OctreeNode


@dataclass(frozen=True)
class SimulationConfig:
    """Parameters of one N-body run."""

    n: int = 128
    steps: int = 4
    dt: float = 1.0e-3
    theta: float = 0.5
    distribution: str = "plummer"
    seed: int = 1
    gravity: float = 1.0

    def describe(self) -> str:
        return (
            f"N={self.n}, steps={self.steps}, dt={self.dt}, theta={self.theta}, "
            f"{self.distribution} (seed {self.seed})"
        )


@dataclass
class StepStats:
    """Work accounting of one time step."""

    step: int
    build_work: float = 0.0
    force_work: float = 0.0
    update_work: float = 0.0
    interactions: int = 0
    per_particle_force_work: list[float] = field(default_factory=list)
    per_particle_update_work: list[float] = field(default_factory=list)

    @property
    def total_work(self) -> float:
        return self.build_work + self.force_work + self.update_work


@dataclass
class SequentialRunResult:
    """Result of a sequential run: per-step stats plus the final particle states."""

    config: SimulationConfig
    steps: list[StepStats] = field(default_factory=list)
    final_states: list[tuple] = field(default_factory=list)

    @property
    def total_work(self) -> float:
        return sum(s.total_work for s in self.steps)

    @property
    def build_fraction(self) -> float:
        total = self.total_work
        return sum(s.build_work for s in self.steps) / total if total else 0.0


class BarnesHutSimulation:
    """The sequential Barnes–Hut simulation over a linked particle list."""

    def __init__(self, particles: list[Particle], config: SimulationConfig):
        self.particles = particles
        self.config = config
        self.head: Particle | None = link_particles(particles)
        self.root: OctreeNode | None = None
        self.step_stats: list[StepStats] = []

    # -- one time step, phase by phase ---------------------------------------
    def build_phase(self) -> BuildStats:
        self.root, build_stats = build_tree(self.head)
        return build_stats

    def force_phase(self, stats: StepStats) -> None:
        """BHL1: the pointer-chasing force loop."""
        p = self.head
        while p is not None:
            interactions = compute_force_on_particle(
                p, self.root, self.config.theta, self.config.gravity
            )
            stats.interactions += interactions
            stats.per_particle_force_work.append(float(interactions))
            p = p.next
        stats.force_work = sum(stats.per_particle_force_work)

    def update_phase(self, stats: StepStats) -> None:
        """BHL2: the pointer-chasing velocity/position loop."""
        p = self.head
        while p is not None:
            work = compute_new_vel_pos(p, self.config.dt)
            stats.per_particle_update_work.append(work)
            p = p.next
        stats.update_work = sum(stats.per_particle_update_work)

    def step(self, index: int = 0) -> StepStats:
        stats = StepStats(step=index)
        build_stats = self.build_phase()
        stats.build_work = build_stats.work
        self.force_phase(stats)
        self.update_phase(stats)
        self.step_stats.append(stats)
        return stats

    # -- whole runs ---------------------------------------------------------------
    def run(self) -> SequentialRunResult:
        result = SequentialRunResult(config=self.config)
        for i in range(self.config.steps):
            result.steps.append(self.step(i))
        result.final_states = [p.state() for p in self.particles]
        return result

    # -- baselines / diagnostics ----------------------------------------------------
    def run_direct(self) -> SequentialRunResult:
        """The O(N²) algorithm over the same particles (accuracy baseline)."""
        result = SequentialRunResult(config=self.config)
        for i in range(self.config.steps):
            stats = StepStats(step=i)
            interactions = direct_forces(self.particles, self.config.gravity)
            stats.interactions = interactions
            stats.force_work = float(interactions)
            stats.per_particle_force_work = [float(p.interactions) for p in self.particles]
            self.update_phase(stats)
            result.steps.append(stats)
        result.final_states = [p.state() for p in self.particles]
        return result
