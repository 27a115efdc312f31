"""The executor classes a fuzzed program is run through.

Each :class:`ExecutionPlan` pairs a name with a program variant (and the
way to run it):

* ``reference``      — the original program on the plain interpreter; its
  observation is ground truth.
* ``strip-mine``     — every loop the per-function reports mark
  ``strip_mine.applied`` rewritten by
  :func:`~repro.transform.stripmine.strip_mine_program`, run sequentially.
* ``machine-sim``    — the same strip-mined program driven through the
  simulated multiprocessor (:class:`~repro.machine.MachineSimulator`), i.e.
  exactly what ``python -m repro analyze`` replays.
* ``unroll``         — every traversal loop unrolled (legal for any loop, so
  applied regardless of classification).
* ``software-pipeline`` — every DOALL loop software-pipelined.

Variant construction mirrors :func:`repro.driver.pipeline.simulate_program`:
both take the loops to strip-mine from
:func:`~repro.driver.pipeline.function_report` (here over one analysis of
the whole program, with ADDS), and strip-mined functions gain a trailing
processor-count argument, passed at every call site by
:func:`~repro.transform.stripmine.strip_mine_program` (and to the entry
when ``main`` itself was rewritten).  A variant whose transforms all refuse
simply isn't run — refusing is the transforms' way of being correct, and
the unroll and pipelining refusals are recorded in the plan.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from repro.driver.pipeline import PipelineOptions, function_report, strip_mined_loops
from repro.lang.ast_nodes import Program
from repro.machine import SEQUENT_LIKE, MachineSimulator
from repro.pathmatrix.analysis import PathMatrixAnalysis
from repro.transform.dependence import find_while_loops
from repro.transform.pipeline import software_pipeline_loop
from repro.transform.stripmine import TransformError, strip_mine_program
from repro.transform.unroll import unroll_loop

REFERENCE = "reference"


@dataclass
class ExecutionPlan:
    """One runnable program variant."""

    name: str
    program: Program
    entry_args: tuple = ()
    machine_pes: int | None = None  # run under the simulated multiprocessor
    transformed: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)

    def attach(self):
        if self.machine_pes is None:
            return None
        simulator = MachineSimulator(SEQUENT_LIKE.with_pes(self.machine_pes))
        return lambda interp: simulator.attach_to_interpreter(interp)


def _strip_mined(program: Program, entry: str, pes: int) -> list[ExecutionPlan]:
    analysis = PathMatrixAnalysis(program, memoize_results=True)
    options = PipelineOptions(pes=pes, entry=entry)
    reports = {f.name: function_report(analysis, f.name, options) for f in program.functions}
    stripped = strip_mine_program(program, strip_mined_loops(reports), pes)
    transformed, names = stripped.program, stripped.functions
    if not names:
        return []
    entry_args: tuple = (pes,) if entry in names else ()
    return [
        ExecutionPlan(
            name="strip-mine",
            program=transformed,
            entry_args=entry_args,
            transformed=names,
        ),
        ExecutionPlan(
            name="machine-sim",
            program=copy.deepcopy(transformed),
            entry_args=entry_args,
            machine_pes=pes,
            transformed=list(names),
        ),
    ]


def _per_loop_variant(
    program: Program, name: str, transform, **kwargs
) -> ExecutionPlan | None:
    """Apply ``transform(program, function, loop_index)`` to every loop.

    Loops are processed in reverse pre-order so a rewrite never shifts the
    index of a loop still to be processed (copies and replacements only
    appear at or after the rewritten position).
    """
    current = program
    applied: list[str] = []
    skipped: list[str] = []
    for func in program.functions:
        loops = find_while_loops(current, func.name)
        for index in reversed(range(len(loops))):
            try:
                current = transform(
                    current, func.name, loop_index=index, **kwargs
                ).program
            except TransformError as exc:
                skipped.append(f"{func.name} loop #{index}: {exc}")
                continue
            applied.append(f"{func.name}#{index}")
    if not applied:
        return None
    return ExecutionPlan(
        name=name, program=current, transformed=applied, skipped=skipped
    )


def build_plans(
    program: Program, entry: str = "main", pes: int = 3, unroll_factor: int = 3
) -> list[ExecutionPlan]:
    """Every executor applicable to ``program``, the reference plan first."""
    plans = [ExecutionPlan(name=REFERENCE, program=program)]
    plans.extend(_strip_mined(program, entry, pes))
    unrolled = _per_loop_variant(program, "unroll", unroll_loop, factor=unroll_factor)
    if unrolled is not None:
        plans.append(unrolled)
    pipelined = _per_loop_variant(program, "software-pipeline", software_pipeline_loop)
    if pipelined is not None:
        plans.append(pipelined)
    return plans
