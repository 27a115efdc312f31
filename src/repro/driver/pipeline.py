"""The end-to-end per-program pipeline the batch driver runs.

Three layers:

* the **stage functions** (:func:`analysis_payload`, :func:`loops_payload`,
  :func:`transforms_payload`, :func:`assemble_report`) — the fixpoint/
  validation verdict, the loop classes and the transform applicability of
  one function, each with explicit inputs and outputs;
* :func:`function_report` — those stages run back to back on one function
  of an analyzed program, returned as a plain JSON-serializable dict (the
  worker pool and the on-disk store both speak dicts).  A function's report
  follows from its own body, the type declarations and its callees'
  summaries alone, so the staged engine builds it over the analysis of
  its component, and a quarantine replay or the fuzzer over the analysis
  of the whole program;
* :func:`simulate_program` — the whole-program tail of the pipeline, over
  the declarations the staged walk parsed: run the original on the
  reference interpreter, strip-mine the loops the reports mark
  ``strip_mine.applied`` (:func:`strip_mined_loops`; nothing is decided
  again), re-run on the simulated multiprocessor, and report the speedup
  and whether the heaps agree (the paper's semantics-preservation check).

:func:`absolutize_report` moves every source line a report mentions from
one first line of its function to another, so that one stored report
serves byte-identical bodies at any offset, while everything user-facing
stays absolute.
"""

from __future__ import annotations

import re
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.lang.ast_nodes import Program
from repro.lang.errors import InterpreterLimitError, LangError
from repro.lang.interpreter import Interpreter, run_program
from repro.machine import SEQUENT_LIKE, MachineSimulator
from repro.pathmatrix.analysis import AnalysisError, PathMatrixAnalysis
from repro.transform.dependence import classify_loop, find_while_loops
from repro.transform.pipeline import check_software_pipeline
from repro.transform.stripmine import TransformError, check_strip_mine, strip_mine_program
from repro.transform.unroll import check_unroll

if TYPE_CHECKING:
    from repro.driver.stages import _Source


@dataclass(frozen=True)
class PipelineOptions:
    """Everything that changes what the pipeline computes (part of cache keys)."""

    use_adds: bool = True
    pes: int = 4
    entry: str = "main"

    def __post_init__(self) -> None:
        # at no PEs a strip-mined loop never advances: the simulation would
        # run out its step budget instead of measuring anything
        if self.pes < 1:
            raise ValueError(f"pes must be at least 1, got {self.pes}")

    def key(self) -> str:
        return f"adds={self.use_adds};pes={self.pes};entry={self.entry}"


# -- the pipeline stages ------------------------------------------------------
def analysis_payload(analysis: PathMatrixAnalysis, function: str) -> tuple[str, dict]:
    """The fixpoint + ADDS-validation stage: ``(status, analysis-dict)``.

    A *semantic* failure (the analysis rejected the function) comes back as
    ``("error", {"error": ...})`` — distinct from the driver-level failure
    statuses (timeout/crashed/quarantined).
    """
    try:
        result = analysis.analyze_function(function)
        final = result.final_matrix()
    except AnalysisError as exc:
        return "error", {"error": str(exc)}
    return "ok", {
        "iterations": result.iterations,
        "blocks_transferred": result.blocks_transferred,
        "exit_matrix": final.to_table(),
        "violations": [str(v) for v in result.violations()],
        "abstraction_valid": {
            type_name: final.validation.is_valid_for(type_name)
            for type_name in sorted(analysis.adds_types)
        },
        "error": None,
    }


def loops_payload(
    program: Program,
    function: str,
    analysis: PathMatrixAnalysis,
    options: PipelineOptions,
) -> tuple[list[dict], list[int]]:
    """The loop-classification stage.

    Returns the per-loop entries (without transform outcomes — those are the
    next stage's) and the indices of the parallelizable loops the
    transform stage should attempt.
    """
    entries: list[dict] = []
    parallelizable: list[int] = []
    for index, loop in enumerate(find_while_loops(program, function)):
        test = classify_loop(
            program, function, loop, use_adds=options.use_adds, analysis=analysis
        )
        entries.append(
            {
                "index": index,
                "line": loop.line,
                "classification": str(test.classification),
                "traversal_var": test.traversal_var,
                "traversal_field": test.traversal_field,
                "reasons": list(test.reasons),
            }
        )
        if test.parallelizable:
            parallelizable.append(index)
    return entries, parallelizable


def transforms_payload(
    program: Program, function: str, loop_indices: list[int]
) -> dict:
    """The transform-applicability stage, for the given parallelizable loops.

    ``loop_indices`` must be loops :func:`loops_payload` classified
    ``DOALL_AFTER_TRAVERSAL`` on the same program with the same options:
    only the transforms' read-only legality checks run, so nothing is
    copied and the dependence test is not repeated.

    Keyed by the loop index as a string — the report round-trips through
    JSON, where integer keys would silently become strings anyway.
    """
    return {
        str(index): _transform_applicability(program, function, index)
        for index in loop_indices
    }


def assemble_report(
    function: str,
    summary: dict | None,
    status: str,
    analysis_dict: dict,
    loop_entries: list[dict],
    transforms: dict,
) -> dict:
    """Compose the stage outputs into the per-function report."""
    report: dict = {
        "function": function,
        "status": status,
        "summary": summary,
        "analysis": analysis_dict,
        "loops": [],
    }
    if status != "ok":
        return report
    for entry in loop_entries:
        merged = dict(entry)
        merged["transforms"] = transforms.get(str(entry["index"]), {})
        report["loops"].append(merged)
    return report


# -- the per-function report -------------------------------------------------
def function_report(
    analysis: PathMatrixAnalysis, function: str, options: PipelineOptions
) -> dict:
    """Analyze one function of ``analysis.program`` end to end; never raises.

    Fixpoint → ADDS validation → loop classification → transform
    applicability, under the summaries ``analysis`` holds.  Unattended batch
    runs must finish: analysis failures are *reported* (the ``error``
    fields) rather than propagated.
    """
    status, analysis_dict = analysis_payload(analysis, function)
    entries: list[dict] = []
    transforms: dict = {}
    if status == "ok":
        program = analysis.program
        entries, parallelizable = loops_payload(program, function, analysis, options)
        transforms = transforms_payload(program, function, parallelizable)
    summary = analysis.summaries.get(function)
    return assemble_report(
        function,
        summary.to_dict() if summary is not None else None,
        status,
        analysis_dict,
        entries,
        transforms,
    )


def strip_mined_loops(reports: dict[str, dict]) -> list[tuple[str, int]]:
    """The ``(function, loop index)`` pairs whose report says
    ``strip_mine.applied``, in report order: the loops the paper strip-mines
    (section 4.3.3), decided once by :func:`function_report`."""
    return [
        (function, loop["index"])
        for function, report in reports.items()
        for loop in report["loops"]
        if loop["transforms"].get("strip_mine", {}).get("applied")
    ]


def _transform_applicability(program: Program, function: str, index: int) -> dict:
    """Which of the three transformations apply to one parallelizable loop."""
    outcomes: dict = {}
    checks = {
        "strip_mine": lambda: check_strip_mine(program, function, loop_index=index),
        "unroll": lambda: check_unroll(program, function, loop_index=index),
        "software_pipeline": lambda: check_software_pipeline(
            program, function, loop_index=index
        ),
    }
    for name, check in checks.items():
        try:
            notes = check()
        except TransformError as exc:
            outcomes[name] = {"applied": False, "error": str(exc)}
        else:
            outcomes[name] = {"applied": True, "notes": notes}
    return outcomes


# -- moving reports between lines ---------------------------------------------
_LINE_REF_RE = re.compile(r"line (\d+)")

#: dict keys whose integer values are source line numbers
_LINE_KEYS = frozenset({"line", "loop_line"})

#: the parts of a report that can mention a source line; the others hold
#: names, statuses, flags and the summary, which has no lines
_LINE_PARTS = ("analysis", "loops")


def _shift_lines(value, delta: int, key=None):
    if isinstance(value, bool):
        return value
    if isinstance(value, int) and key in _LINE_KEYS:
        return value + delta
    if isinstance(value, str):
        return _LINE_REF_RE.sub(
            lambda m: f"line {int(m.group(1)) + delta}", value
        )
    if isinstance(value, list):
        return [_shift_lines(v, delta, key) for v in value]
    if isinstance(value, dict):
        return {k: _shift_lines(v, delta, k) for k, v in value.items()}
    return value


def _shift_report(report: dict, delta: int) -> dict:
    """``report`` with the lines of its line-holding parts shifted by
    ``delta``; the other parts are shared, not copied."""
    shifted = dict(report)
    for part in _LINE_PARTS:
        shifted[part] = _shift_lines(report[part], delta, part)
    return shifted


def relativize_report(report: dict, base_line: int) -> dict:
    """Rebase every source line in ``report``, computed for a function at
    ``base_line``, to be relative to that line: the report the same
    function would have at line 1.

    Nothing in the engine calls it: the end-to-end benchmark's trace
    (benchmarks/e2e/trace.py) resolves it as a ``driver.relocate`` target.
    """
    return absolutize_report(report, 1, base_line)


def absolutize_report(report: dict, base_line: int, recorded_line: int = 1) -> dict:
    """``report``, computed for a function at ``recorded_line`` (1: a
    line-relative report), moved to the same function at ``base_line``;
    ``report`` itself when the lines are equal."""
    if base_line == recorded_line:
        return report
    return _shift_report(report, base_line - recorded_line)


# -- whole-program simulation -------------------------------------------------
#: resource budgets for unattended whole-program simulation: generous enough
#: for every corpus program, small enough that a runaway loop or unbounded
#: recursion surfaces as a typed ``"limit"`` status in minutes, not a hang
SIMULATION_MAX_STEPS = 20_000_000
SIMULATION_MAX_CALL_DEPTH = 64


def _on_fresh_stack(run):
    """Return ``run()`` computed on a new thread, or raise what it raised.

    CPython 3.11 keeps a thread's frames in 16 KB chunks and frees a chunk
    as soon as the frame at its start returns.  Where the interpreter's
    ~100-frame recursion meets a chunk boundary, every call across it maps
    a chunk and every return unmaps it, and where the boundary falls
    depends on how deep the caller's stack already is.  A new thread starts
    the interpreter at the bottom of a first chunk that is never freed, and
    gives it the same recursion headroom whoever calls (docs/performance.md,
    Simulation).
    """
    outcome: dict = {}

    def target() -> None:
        try:
            outcome["value"] = run()
        except BaseException as exc:  # re-raised below, in the caller
            outcome["error"] = exc

    thread = threading.Thread(target=target, name="simulate", daemon=True)
    thread.start()
    thread.join()
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


def simulate_program(
    src: "_Source", options: PipelineOptions, loops: list[tuple[str, int]]
) -> dict:
    """Replay one program, ``loops`` strip-mined, on the simulated
    multiprocessor.

    ``src`` is the program cut into declarations
    (:class:`~repro.driver.stages._Source`): the declarations the staged
    walk parsed are reused, and only the others are parsed here.
    ``loops`` are the ``(function, loop index)`` pairs the program's
    reports mark ``strip_mine.applied`` (:func:`strip_mined_loops`); a
    program without a parameterless entry or without such a loop is
    decided from the split alone.  The reference interpretation runs
    first, and only its heap snapshot is kept: that interpreter and its
    compiled code are freed before the program is strip-mined and run on
    the simulated machine.  ``heaps_match`` says whether the two runs
    leave equal heaps, cell for cell and field for field
    (:meth:`~repro.lang.heap.Heap.snapshot`).  Returns a report dict;
    the ``status`` field is one of ``"simulated"``, ``"no-entry"``,
    ``"no-parallel-loops"``, ``"limit"`` (a resource budget was exhausted
    — see :data:`SIMULATION_MAX_STEPS`), or ``"error"``.
    """
    entry = src.declarations.get(options.entry)
    if entry is None or entry.takes_parameters():
        return {"status": "no-entry", "entry": options.entry}
    if not loops:
        return {"status": "no-parallel-loops", "entry": options.entry}
    program = Program(
        types=src.types(), functions=[src.function(name) for name in src.declarations]
    )

    def interpret():
        _, original = run_program(
            program,
            entry=options.entry,
            max_steps=SIMULATION_MAX_STEPS,
            max_call_depth=SIMULATION_MAX_CALL_DEPTH,
        )
        reference = original.heap.snapshot()
        del original
        stripped = strip_mine_program(program, loops, options.pes)
        interp = Interpreter(
            stripped.program,
            max_steps=SIMULATION_MAX_STEPS,
            max_call_depth=SIMULATION_MAX_CALL_DEPTH,
        )
        simulator = MachineSimulator(SEQUENT_LIKE.with_pes(options.pes))
        executor = simulator.attach_to_interpreter(interp)
        entry_args: tuple = ()
        if options.entry in stripped.functions:
            entry_args = (options.pes,)
        interp.call_function(options.entry, *entry_args)
        return stripped.functions, executor, interp.heap.snapshot() == reference

    try:
        transformed_functions, executor, heaps_match = _on_fresh_stack(interpret)
    except InterpreterLimitError as exc:
        # exhausted is not diverged: report the budget separately so the CLI
        # (and the fuzzer) never confuse a cut-off run with a wrong one
        return {"status": "limit", "entry": options.entry, "error": str(exc)}
    except LangError as exc:
        return {"status": "error", "entry": options.entry, "error": str(exc)}

    trace = executor.trace
    speedup = (
        executor.sequential_cost / trace.elapsed if trace.elapsed > 0 else 1.0
    )
    return {
        "status": "simulated",
        "entry": options.entry,
        "pes": options.pes,
        "transformed_functions": transformed_functions,
        "parallel_steps": trace.parallel_steps,
        "parallel_elapsed": trace.elapsed,
        "sequential_cost": executor.sequential_cost,
        "speedup": speedup,
        "heaps_match": heaps_match,
    }
