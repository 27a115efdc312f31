"""Regenerate the paper's TIMES and SPEEDUP tables (experiments E1 and E2).

The measured quantity is the simulated elapsed time of the strip-mined
Barnes–Hut program on the Sequent-like machine model, in abstract work units
(one unit = one particle–node interaction).  For the TIMES table the unit
times are rescaled so that the sequential N=128 entry matches the paper's 188
seconds — absolute times on 1990 hardware are not reproducible, but after
this single-point calibration the *relative* times (and hence every speedup)
are genuine outputs of the reproduction.

The default workload is smaller than the paper's 80 time steps so the table
regenerates in seconds on a laptop; per-step work is essentially constant
over short horizons, so speedups are unaffected (pass ``steps=80`` to match
the paper exactly if you have the patience).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bench.expected import PAPER_NS, PAPER_SPEEDUPS
from repro.machine.costmodel import MachineConfig, SEQUENT_LIKE
from repro.nbody.datasets import make_particles
from repro.nbody.parallel import StripMinedParallelSimulation
from repro.nbody.simulation import BarnesHutSimulation, SimulationConfig


#: workload defaults chosen to match the paper's setup qualitatively
DEFAULT_DISTRIBUTION = "uniform"
DEFAULT_THETA = 0.4
DEFAULT_STEPS = 2
DEFAULT_SEED = 3


@dataclass
class SpeedupCell:
    """One (N, PEs) measurement."""

    n: int
    pes: int
    elapsed_units: float
    speedup: float


@dataclass
class SpeedupTable:
    """All measurements of one experiment run."""

    ns: list[int]
    pe_counts: list[int]
    steps: int
    cells: dict[tuple[int, int], SpeedupCell] = field(default_factory=dict)

    def cell(self, n: int, pes: int) -> SpeedupCell:
        return self.cells[(n, pes)]

    def speedup(self, n: int, pes: int) -> float:
        return self.cells[(n, pes)].speedup

    def calibration_scale(self, reference_n: int = 128, reference_seconds: float = 188.0) -> float:
        """Seconds per work unit so that seq(reference_n) == reference_seconds."""
        if (reference_n, 1) not in self.cells:
            reference_n = self.ns[0]
        return reference_seconds / self.cells[(reference_n, 1)].elapsed_units


def run_speedup_experiment(
    ns: tuple[int, ...] = PAPER_NS,
    pe_counts: tuple[int, ...] = (4, 7),
    steps: int = DEFAULT_STEPS,
    theta: float = DEFAULT_THETA,
    distribution: str = DEFAULT_DISTRIBUTION,
    seed: int = DEFAULT_SEED,
    machine: MachineConfig = SEQUENT_LIKE,
) -> SpeedupTable:
    """Run the sequential and strip-mined parallel simulations for every cell."""
    table = SpeedupTable(ns=list(ns), pe_counts=[1] + list(pe_counts), steps=steps)
    for n in ns:
        config = SimulationConfig(
            n=n, steps=steps, theta=theta, distribution=distribution, seed=seed
        )
        particles = make_particles(n, distribution, seed=seed)
        sequential = BarnesHutSimulation(particles, config).run()
        seq_units = sequential.total_work
        table.cells[(n, 1)] = SpeedupCell(n=n, pes=1, elapsed_units=seq_units, speedup=1.0)
        for pes in pe_counts:
            fresh = make_particles(n, distribution, seed=seed)
            parallel = StripMinedParallelSimulation(
                fresh, config, machine.with_pes(pes)
            ).run()
            table.cells[(n, pes)] = SpeedupCell(
                n=n,
                pes=pes,
                elapsed_units=parallel.elapsed,
                speedup=parallel.speedup_against(seq_units),
            )
    return table


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------
def _format_grid(header: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))]
    def fmt(row):
        return " | ".join(str(c).rjust(w) for c, w in zip(row, widths))
    sep = "-+-".join("-" * w for w in widths)
    return "\n".join([fmt(header), sep] + [fmt(r) for r in rows])


def format_times_table(table: SpeedupTable, calibrate: bool = True) -> str:
    """Render the TIMES table (seconds after single-point calibration)."""
    scale = table.calibration_scale() if calibrate else 1.0
    unit = "s" if calibrate else "units"
    header = ["TIMES"] + [f"N = {n}" for n in table.ns]
    rows = []
    for pes in table.pe_counts:
        label = "seq" if pes == 1 else f"par({pes})"
        row = [label]
        for n in table.ns:
            row.append(f"{table.cell(n, pes).elapsed_units * scale:.0f}")
        rows.append(row)
    return f"(measured, {unit})\n" + _format_grid(header, rows)


def format_speedup_table(table: SpeedupTable) -> str:
    """Render the SPEEDUP table."""
    header = ["SPEEDUP"] + [f"N = {n}" for n in table.ns]
    rows = []
    for pes in table.pe_counts:
        label = "seq" if pes == 1 else f"par({pes})"
        row = [label]
        for n in table.ns:
            row.append(f"{table.speedup(n, pes):.1f}")
        rows.append(row)
    return _format_grid(header, rows)


def compare_with_paper(table: SpeedupTable) -> str:
    """Side-by-side paper vs. measured speedups plus the qualitative checks."""
    lines = ["paper vs. measured speedup:"]
    header = ["PEs"] + [f"N={n} paper/ours" for n in table.ns]
    rows = []
    for pes in [p for p in table.pe_counts if p != 1]:
        row = [f"par({pes})"]
        for n in table.ns:
            paper = PAPER_SPEEDUPS.get(pes, {}).get(n)
            ours = table.speedup(n, pes)
            row.append(f"{paper if paper is not None else '—'} / {ours:.2f}")
        rows.append(row)
    lines.append(_format_grid(header, rows))
    lines.append("")
    lines.append("shape checks:")
    for claim, ok in qualitative_checks(table):
        lines.append(f"  [{'ok' if ok else 'FAIL'}] {claim}")
    return "\n".join(lines)


def qualitative_checks(table: SpeedupTable) -> list[tuple[str, bool]]:
    """Evaluate the shape properties the reproduction must preserve."""
    checks: list[tuple[str, bool]] = []
    parallel_counts = [p for p in table.pe_counts if p != 1]
    checks.append(
        (
            "every parallel configuration beats sequential",
            all(table.speedup(n, p) > 1.0 for n in table.ns for p in parallel_counts),
        )
    )
    if len(parallel_counts) >= 2:
        lo, hi = min(parallel_counts), max(parallel_counts)
        checks.append(
            (
                f"par({hi}) beats par({lo}) for every N",
                all(table.speedup(n, hi) > table.speedup(n, lo) for n in table.ns),
            )
        )
    checks.append(
        (
            "speedups are sub-linear",
            all(table.speedup(n, p) < p for n in table.ns for p in parallel_counts),
        )
    )
    checks.append(
        (
            "speedup does not decrease as N grows",
            all(
                table.speedup(table.ns[i + 1], p) >= table.speedup(table.ns[i], p) - 0.05
                for p in parallel_counts
                for i in range(len(table.ns) - 1)
            ),
        )
    )
    if 4 in parallel_counts:
        checks.append(
            (
                "4-PE speedups within ±0.5 of the paper's 2.5–2.8",
                all(
                    abs(table.speedup(n, 4) - PAPER_SPEEDUPS[4][n]) <= 0.5
                    for n in table.ns
                    if n in PAPER_SPEEDUPS[4]
                ),
            )
        )
    if 7 in parallel_counts:
        checks.append(
            (
                "7-PE speedups within ±0.7 of the paper's 3.3–4.3",
                all(
                    abs(table.speedup(n, 7) - PAPER_SPEEDUPS[7][n]) <= 0.7
                    for n in table.ns
                    if n in PAPER_SPEEDUPS[7]
                ),
            )
        )
    return checks
