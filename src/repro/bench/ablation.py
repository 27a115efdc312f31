"""Ablation studies: attribute the lost speedup to the paper's four causes.

Under its results table the paper explains the sub-linear speedups by:

1. "simple static scheduling is being used",
2. "the parallelism inherent in the independent subtree computations (within
   compute_force) is not yet being exploited",
3. "synchronization on a Sequent is rather slow",
4. "no attempt is made to optimize the granularity of iterations".

Each ablation below removes exactly one of these costs from the simulated
machine (or schedule) and reports how much speedup returns, on the same
workload as the headline table.  ``loss_attribution`` runs all of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.machine.costmodel import MachineConfig, SEQUENT_LIKE
from repro.machine.simulator import MachineSimulator, SimulationTrace
from repro.nbody.datasets import make_particles
from repro.nbody.simulation import BarnesHutSimulation, SimulationConfig
from repro.bench.tables import DEFAULT_DISTRIBUTION, DEFAULT_SEED, DEFAULT_STEPS, DEFAULT_THETA


@dataclass
class AblationResult:
    """Speedups of one configuration sweep at a fixed N and PE count."""

    name: str
    n: int
    pes: int
    baseline_speedup: float
    variants: dict[str, float] = field(default_factory=dict)

    def improvement(self, variant: str) -> float:
        return self.variants[variant] - self.baseline_speedup

    def render(self) -> str:
        lines = [f"{self.name} (N={self.n}, {self.pes} PEs)"]
        lines.append(f"  baseline (paper configuration): {self.baseline_speedup:.2f}")
        for name, value in self.variants.items():
            delta = value - self.baseline_speedup
            lines.append(f"  {name}: {value:.2f} ({delta:+.2f})")
        return "\n".join(lines)


def _sequential_and_costs(
    n: int, steps: int, theta: float, distribution: str, seed: int
) -> tuple[float, list[list[float]], list[float], float]:
    """Run the sequential simulation once and extract per-step cost vectors.

    Returns (sequential work, per-step force costs, per-step build costs,
    per-particle update cost).
    """
    config = SimulationConfig(n=n, steps=steps, theta=theta, distribution=distribution, seed=seed)
    particles = make_particles(n, distribution, seed=seed)
    seq = BarnesHutSimulation(particles, config).run()
    force_costs = [list(s.per_particle_force_work) for s in seq.steps]
    build_costs = [s.build_work for s in seq.steps]
    update_cost = seq.steps[0].per_particle_update_work[0] if seq.steps[0].per_particle_update_work else 4.0
    return seq.total_work, force_costs, build_costs, update_cost


def _replay(
    machine: MachineConfig,
    force_costs: list[list[float]],
    build_costs: list[float],
    update_cost: float,
    n: int,
    scheduler: str | None = None,
    whole_pass_forkjoin: bool = False,
    parallel_build: bool = False,
    subtree_factor: float = 1.0,
    chunk: int = 1,
) -> float:
    """Replay the recorded per-step costs on a machine variant; returns elapsed."""
    simulator = MachineSimulator(machine)
    trace = SimulationTrace(config=machine)
    for step_force, build in zip(force_costs, build_costs):
        costs = list(step_force)
        if subtree_factor > 1.0:
            # Exploiting the independent subtree computations inside
            # compute_force lets an otherwise-idle PE help with the group's
            # longest iteration: the group's critical path drops toward the
            # group mean (perfect balance), but never below it — the total
            # work is unchanged.
            costs = _balance_groups(costs, machine.num_pes, subtree_factor)
        if chunk > 1:
            costs = [
                sum(costs[i:i + chunk]) for i in range(0, len(costs), chunk)
            ]
        build_time = build / machine.num_pes if parallel_build else build
        trace.add_sequential(build_time)
        updates = [update_cost] * n
        if chunk > 1:
            updates = [
                sum(updates[i:i + chunk]) for i in range(0, len(updates), chunk)
            ]
        if whole_pass_forkjoin:
            simulator.simulate_doall(costs, scheduler_name=scheduler, trace=trace)
            simulator.simulate_doall(updates, scheduler_name=scheduler, trace=trace)
        else:
            simulator.simulate_stripmined_pass(costs, trace=trace)
            simulator.simulate_stripmined_pass(updates, trace=trace)
    return trace.elapsed


def _balance_groups(costs: list[float], pes: int, factor: float) -> list[float]:
    """Rebalance each group of ``pes`` costs as if its critical path shrank.

    The group's slowest iteration is reduced by ``factor`` (its subtrees run
    on idle PEs) but the group's elapsed time can never drop below the mean
    (total work is conserved); every other iteration is left unchanged.
    """
    balanced: list[float] = []
    for start in range(0, len(costs), pes):
        group = list(costs[start:start + pes])
        if not group:
            continue
        mean = sum(group) / len(group)
        longest = max(group)
        new_max = max(longest / factor, mean)
        shaved = longest - new_max
        idx = group.index(longest)
        group[idx] = new_max
        # the shaved work does not disappear: it is redistributed to the
        # other members of the group (the PEs that would otherwise idle)
        others = [i for i in range(len(group)) if i != idx]
        if others and shaved > 0:
            share = shaved / len(others)
            for i in others:
                group[i] += share
        elif shaved > 0:
            group[idx] += shaved
        balanced.extend(group)
    return balanced


def loss_attribution(
    n: int = 512,
    pes: int = 4,
    steps: int = DEFAULT_STEPS,
    theta: float = DEFAULT_THETA,
    distribution: str = DEFAULT_DISTRIBUTION,
    seed: int = DEFAULT_SEED,
    machine: MachineConfig = SEQUENT_LIKE,
) -> AblationResult:
    """Remove each of the paper's four loss causes in turn."""
    seq_work, force_costs, build_costs, update_cost = _sequential_and_costs(
        n, steps, theta, distribution, seed
    )
    m = machine.with_pes(pes)

    def speedup(**kwargs) -> float:
        elapsed = _replay(m, force_costs, build_costs, update_cost, n, **kwargs)
        return seq_work / elapsed

    baseline = speedup()
    result = AblationResult(
        name="speedup-loss attribution", n=n, pes=pes, baseline_speedup=baseline
    )
    # (1) replace static interleaved scheduling with dynamic self-scheduling
    #     over a whole-pass fork/join
    result.variants["dynamic scheduling (one fork/join per pass)"] = speedup(
        scheduler="dynamic", whole_pass_forkjoin=True
    )
    # (2) exploit the independent subtree computations inside compute_force
    result.variants["exploit subtree parallelism (factor 2 critical path)"] = speedup(
        subtree_factor=2.0
    )
    # (3) free synchronization
    free_sync = m.with_sync_cost(0.0)
    result.variants["zero-cost synchronization"] = (
        seq_work
        / _replay(free_sync, force_costs, build_costs, update_cost, n)
    )
    # (4) coarser granularity: each task processes 4 consecutive particles
    result.variants["coarser granularity (4 particles per task)"] = speedup(chunk=4)
    # combined upper bound: everything at once plus a parallel tree build
    combined_machine = m.with_sync_cost(0.0)
    result.variants["all of the above + parallel tree build"] = (
        seq_work
        / _replay(
            combined_machine,
            force_costs,
            build_costs,
            update_cost,
            n,
            scheduler="dynamic",
            whole_pass_forkjoin=True,
            parallel_build=True,
            subtree_factor=2.0,
            chunk=4,
        )
    )
    return result


def scheduling_ablation(
    n: int = 512, pes: int = 7, steps: int = DEFAULT_STEPS
) -> AblationResult:
    """Static interleaved vs. static block vs. dynamic scheduling."""
    seq_work, force_costs, build_costs, update_cost = _sequential_and_costs(
        n, steps, DEFAULT_THETA, DEFAULT_DISTRIBUTION, DEFAULT_SEED
    )
    m = SEQUENT_LIKE.with_pes(pes)
    result = AblationResult(
        name="scheduling policy ablation",
        n=n,
        pes=pes,
        baseline_speedup=seq_work
        / _replay(m, force_costs, build_costs, update_cost, n),
    )
    for scheduler in ("static-block", "dynamic", "dynamic-lpt"):
        result.variants[scheduler] = seq_work / _replay(
            m,
            force_costs,
            build_costs,
            update_cost,
            n,
            scheduler=scheduler,
            whole_pass_forkjoin=True,
        )
    return result


def sync_cost_ablation(
    n: int = 512, pes: int = 4, sync_costs: tuple[float, ...] = (0.0, 5.0, 10.0, 30.0, 100.0)
) -> AblationResult:
    """Sweep the barrier cost to show its effect on the strip-mined schedule."""
    seq_work, force_costs, build_costs, update_cost = _sequential_and_costs(
        n, DEFAULT_STEPS, DEFAULT_THETA, DEFAULT_DISTRIBUTION, DEFAULT_SEED
    )
    base = SEQUENT_LIKE.with_pes(pes)
    result = AblationResult(
        name="synchronization cost ablation",
        n=n,
        pes=pes,
        baseline_speedup=seq_work
        / _replay(base, force_costs, build_costs, update_cost, n),
    )
    for sync in sync_costs:
        m = base.with_sync_cost(sync)
        result.variants[f"sync={sync:g}"] = seq_work / _replay(
            m, force_costs, build_costs, update_cost, n
        )
    return result


def subtree_parallelism_ablation(n: int = 512, pes: int = 7) -> AblationResult:
    """How much the unexploited intra-compute_force parallelism costs."""
    seq_work, force_costs, build_costs, update_cost = _sequential_and_costs(
        n, DEFAULT_STEPS, DEFAULT_THETA, DEFAULT_DISTRIBUTION, DEFAULT_SEED
    )
    m = SEQUENT_LIKE.with_pes(pes)
    result = AblationResult(
        name="subtree-parallelism ablation",
        n=n,
        pes=pes,
        baseline_speedup=seq_work
        / _replay(m, force_costs, build_costs, update_cost, n),
    )
    for factor in (1.5, 2.0, 4.0):
        result.variants[f"critical path / {factor:g}"] = seq_work / _replay(
            m, force_costs, build_costs, update_cost, n, subtree_factor=factor
        )
    return result
