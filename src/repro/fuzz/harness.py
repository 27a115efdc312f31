"""The differential fuzzing harness: run, diff, shrink, record, replay.

One seed flows through :func:`run_seed`:

1. generate a program (:mod:`repro.fuzz.generator`), parse and typecheck it
   — a front-end failure is a *generator* bug and is reported as
   ``invalid``, loudly, not skipped;
2. run the reference interpreter under generous budgets; a reference run
   that errors or exhausts skips the seed (the generator aims for clean
   programs, and comparing executors below an error is meaningless because
   transformed programs reorder the work preceding the fault);
3. build every applicable executor variant (:mod:`repro.fuzz.executors`)
   and run each under a budget scaled from the reference run;
4. diff each observation against the reference.  Any difference — status,
   return value, printed output, or any field of any heap cell — is a
   divergence; a variant that exhausts its (scaled) budget is recorded as
   ``exhausted`` but never counts as diverged.

Divergent cases can be shrunk (:mod:`repro.fuzz.shrink`) and persisted as
JSON records that replay **from source**, so stored regressions stay
meaningful even as the generator's grammar evolves.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field

from repro.fuzz.executors import REFERENCE, build_plans
from repro.fuzz.generator import GENERATOR_VERSION, generate_program
from repro.fuzz.observation import (
    EXHAUSTED,
    OK,
    Observation,
    diff_observations,
    observe,
)
from repro.lang.errors import LangError
from repro.lang.parser import parse_program
from repro.lang.typecheck import check_program

#: budgets: the reference run is bounded absolutely; every variant gets a
#: budget scaled from the reference's measured step count (strip-mining's
#: skip loops cost O(PEs) extra work per node, so 20x is comfortable)
REFERENCE_MAX_STEPS = 2_000_000
MAX_CALL_DEPTH = 64
VARIANT_BUDGET_FACTOR = 20
VARIANT_BUDGET_FLOOR = 100_000

#: seed statuses
PASS = "pass"
DIVERGENCE = "divergence"
SKIPPED = "skipped"
INVALID = "invalid"


@dataclass
class Divergence:
    """One executor disagreeing with the reference."""

    executor: str
    details: list[str]

    def to_dict(self) -> dict:
        return {"executor": self.executor, "details": list(self.details)}


@dataclass
class FuzzCase:
    """Everything observed for one fuzzed program."""

    source: str
    status: str
    seed: int | None = None
    scenario: str | None = None
    reference: Observation | None = None
    executors: dict[str, str] = field(default_factory=dict)
    divergences: list[Divergence] = field(default_factory=list)
    shrunk_source: str | None = None
    note: str | None = None

    @property
    def diverged(self) -> bool:
        return bool(self.divergences)

    def summary(self) -> str:
        head = f"seed {self.seed}" if self.seed is not None else "source"
        if self.scenario:
            head += f" [{self.scenario}]"
        if self.status == DIVERGENCE:
            parts = [
                f"{d.executor}: {d.details[0] if d.details else '?'}"
                for d in self.divergences
            ]
            return f"{head}: DIVERGENCE — " + "; ".join(parts)
        if self.note:
            return f"{head}: {self.status} ({self.note})"
        return f"{head}: {self.status}"


@dataclass
class FuzzReport:
    """Aggregate outcome of a campaign."""

    cases: list[FuzzCase] = field(default_factory=list)

    def count(self, status: str) -> int:
        return sum(1 for c in self.cases if c.status == status)

    @property
    def failures(self) -> list[FuzzCase]:
        return [c for c in self.cases if c.status in (DIVERGENCE, INVALID)]

    def to_dict(self) -> dict:
        return {
            "generator_version": GENERATOR_VERSION,
            "seeds": len(self.cases),
            "pass": self.count(PASS),
            "skipped": self.count(SKIPPED),
            "divergences": self.count(DIVERGENCE),
            "invalid": self.count(INVALID),
            "failures": [
                {
                    "seed": c.seed,
                    "scenario": c.scenario,
                    "status": c.status,
                    "divergences": [d.to_dict() for d in c.divergences],
                }
                for c in self.failures
            ],
        }

    def describe(self) -> str:
        lines = [
            f"{len(self.cases)} program(s): {self.count(PASS)} pass, "
            f"{self.count(SKIPPED)} skipped, {self.count(DIVERGENCE)} divergence(s), "
            f"{self.count(INVALID)} invalid"
        ]
        exhausted = sum(
            1
            for c in self.cases
            for status in c.executors.values()
            if status == EXHAUSTED
        )
        if exhausted:
            lines.append(f"{exhausted} variant run(s) exhausted their step budget")
        for case in self.failures:
            lines.append("  " + case.summary())
        return "\n".join(lines)


def run_source(
    source: str,
    seed: int | None = None,
    scenario: str | None = None,
    entry: str = "main",
    pes: int = 3,
    unroll_factor: int = 3,
) -> FuzzCase:
    """Differentially execute one source program; never raises."""
    case = FuzzCase(source=source, status=PASS, seed=seed, scenario=scenario)
    try:
        program = parse_program(source)
        check_program(program)
    except LangError as exc:
        case.status = INVALID
        case.note = f"front end rejected the program: {exc}"
        return case

    reference = observe(
        program,
        entry=entry,
        max_steps=REFERENCE_MAX_STEPS,
        max_call_depth=MAX_CALL_DEPTH,
    )
    case.reference = reference
    case.executors[REFERENCE] = reference.status
    if reference.status != OK:
        case.status = SKIPPED
        case.note = f"reference run {reference.status}: {reference.error}"
        return case

    budget = max(VARIANT_BUDGET_FLOOR, VARIANT_BUDGET_FACTOR * reference.steps)
    for plan in build_plans(program, entry=entry, pes=pes, unroll_factor=unroll_factor):
        if plan.name == REFERENCE:
            continue
        outcome = observe(
            plan.program,
            entry=entry,
            entry_args=plan.entry_args,
            max_steps=budget,
            max_call_depth=MAX_CALL_DEPTH,
            attach=plan.attach(),
        )
        case.executors[plan.name] = outcome.status
        details = diff_observations(reference, outcome)
        if details:
            case.divergences.append(Divergence(executor=plan.name, details=details))
    if case.divergences:
        case.status = DIVERGENCE
    return case


def run_seed(seed: int, pes: int = 3, unroll_factor: int = 3) -> FuzzCase:
    """Generate and differentially execute the program for ``seed``."""
    generated = generate_program(seed)
    return run_source(
        generated.source,
        seed=seed,
        scenario=generated.scenario,
        pes=pes,
        unroll_factor=unroll_factor,
    )


def run_campaign(
    seeds,
    pes: int = 3,
    unroll_factor: int = 3,
    shrink: bool = False,
    on_case=None,
) -> FuzzReport:
    """Run a sequence of seeds; optionally shrink each divergent case."""
    from repro.fuzz.shrink import shrink_source

    report = FuzzReport()
    for seed in seeds:
        case = run_seed(seed, pes=pes, unroll_factor=unroll_factor)
        if case.diverged and shrink:
            case.shrunk_source = shrink_source(
                case.source, pes=pes, unroll_factor=unroll_factor
            )
        report.cases.append(case)
        if on_case is not None:
            on_case(case)
    return report


# -- replayable regression records -------------------------------------------
def save_regression(
    case: FuzzCase,
    directory: str | pathlib.Path,
    name: str | None = None,
    description: str | None = None,
) -> pathlib.Path:
    """Persist a divergent case as a replayable JSON record."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    if name is None:
        name = f"seed_{case.seed}" if case.seed is not None else "case"
    if not name.endswith(".json"):
        name += ".json"
    path = directory / name
    record = {
        "generator_version": GENERATOR_VERSION,
        "seed": case.seed,
        "scenario": case.scenario,
        "status": case.status,
        "description": description,
        "source": case.source,
        "shrunk_source": case.shrunk_source,
        "divergences": [d.to_dict() for d in case.divergences],
    }
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return path


def load_regression(path: str | pathlib.Path) -> dict:
    return json.loads(pathlib.Path(path).read_text())


def replay_regression(
    path: str | pathlib.Path, pes: int = 3, unroll_factor: int = 3
) -> FuzzCase:
    """Re-run a stored record from its source (shrunk form if present)."""
    record = load_regression(path)
    source = record.get("shrunk_source") or record["source"]
    return run_source(
        source,
        seed=record.get("seed"),
        scenario=record.get("scenario"),
        pes=pes,
        unroll_factor=unroll_factor,
    )
