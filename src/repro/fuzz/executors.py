"""The executor classes a fuzzed program is run through.

Each :class:`ExecutionPlan` pairs a name with a program variant (and the
way to run it):

* ``reference``      — the original program on the plain interpreter; its
  observation is ground truth.
* ``strip-mine``     — every function rewritten by
  :func:`~repro.transform.stripmine.strip_mine_function`, run sequentially.
* ``machine-sim``    — the same strip-mined program driven through the
  simulated multiprocessor (:class:`~repro.machine.MachineSimulator`), i.e.
  exactly what ``python -m repro analyze`` replays.
* ``unroll``         — every traversal loop unrolled (legal for any loop, so
  applied regardless of classification).
* ``software-pipeline`` — every DOALL loop software-pipelined.

Variant construction mirrors :func:`repro.driver.pipeline.simulate_program`:
strip-mined functions gain a trailing processor-count argument, patched into
every call site (and into the entry call when ``main`` itself was rewritten).
A variant whose transforms all refuse simply isn't run — refusing is the
transforms' way of being correct, and the dependence-analysis reasons for
refusal are recorded in the plan.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from repro.lang.ast_nodes import Call, IntLit, Program
from repro.machine import SEQUENT_LIKE, MachineSimulator
from repro.transform.dependence import find_while_loops
from repro.transform.pipeline import software_pipeline_loop
from repro.transform.stripmine import TransformError, strip_mine_function
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
    transformed = program
    names: list[str] = []
    skipped: list[str] = []
    for func in program.functions:
        if not find_while_loops(program, func.name):
            continue
        try:
            result = strip_mine_function(transformed, func.name, check_dependences=True)
        except TransformError as exc:
            skipped.append(f"{func.name}: {exc}")
            continue
        transformed = result.program
        names.append(func.name)
    if not names:
        return []
    for func in transformed.functions:
        for node in func.body.walk():
            if isinstance(node, Call) and node.func in names:
                node.args.append(IntLit(pes))
    entry_args: tuple = (pes,) if entry in names else ()
    return [
        ExecutionPlan(
            name="strip-mine",
            program=transformed,
            entry_args=entry_args,
            transformed=names,
            skipped=skipped,
        ),
        ExecutionPlan(
            name="machine-sim",
            program=copy.deepcopy(transformed),
            entry_args=entry_args,
            machine_pes=pes,
            transformed=list(names),
            skipped=list(skipped),
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
