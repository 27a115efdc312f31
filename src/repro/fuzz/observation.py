"""Observation capture and comparison for differential runs.

An :class:`Observation` is everything a program execution can make visible:
its return value, everything it printed, and an **exact** snapshot of the
final heap (:meth:`~repro.lang.heap.Heap.snapshot`) — every cell with every
field, pointer fields included.  Pointer fields are comparable across
executors because every executor in this repo runs iterations in the same
sequential order (the simulated multiprocessor interleaves *costs*, not
effects) and no transformation adds or removes allocations, so reference
numbering is preserved.  The driver compares the same snapshot
(``heaps_match``), but not return values or printed output.

The ``status`` field keeps the paper-side distinction the typed
:class:`~repro.lang.errors.InterpreterLimitError` exists for: a run cut off
by a budget is ``"exhausted"``, never ``"diverged"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.lang.ast_nodes import Program
from repro.lang.errors import InterpreterLimitError, LangError
from repro.lang.heap import normalize
from repro.lang.interpreter import Interpreter

#: observation statuses
OK = "ok"
ERROR = "error"
EXHAUSTED = "exhausted"


@dataclass(frozen=True)
class Observation:
    """The externally visible outcome of one execution."""

    status: str
    result: Any = None
    output: tuple[str, ...] = ()
    heap: tuple = ()
    error: str | None = None
    steps: int = 0

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "result": self.result,
            "output": list(self.output),
            "heap_cells": len(self.heap),
            "error": self.error,
            "steps": self.steps,
        }


def observe(
    program: Program,
    entry: str = "main",
    entry_args: tuple = (),
    max_steps: int | None = None,
    max_call_depth: int | None = None,
    attach: Any = None,
) -> Observation:
    """Run ``entry`` and capture an :class:`Observation`; never raises.

    ``attach`` is an optional callable given the fresh interpreter before the
    run — the machine-simulator executor uses it to install its
    ``ParallelFor`` executor.
    """
    interp = Interpreter(program, max_steps=max_steps, max_call_depth=max_call_depth)
    if attach is not None:
        attach(interp)
    try:
        result = interp.call_function(entry, *entry_args)
    except InterpreterLimitError as exc:
        return Observation(
            status=EXHAUSTED,
            output=tuple(interp.output),
            heap=interp.heap.snapshot(),
            error=str(exc),
            steps=interp.stats.statements + interp.stats.expressions,
        )
    except LangError as exc:
        return Observation(
            status=ERROR,
            output=tuple(interp.output),
            heap=interp.heap.snapshot(),
            error=str(exc),
            steps=interp.stats.statements + interp.stats.expressions,
        )
    return Observation(
        status=OK,
        result=normalize(result),
        output=tuple(interp.output),
        heap=interp.heap.snapshot(),
        steps=interp.stats.statements + interp.stats.expressions,
    )


def diff_observations(reference: Observation, other: Observation) -> list[str]:
    """Human-readable differences of ``other`` against ``reference``.

    Empty list means the observations agree.  An ``exhausted`` run never
    produces a divergence here — callers must treat it separately.
    """
    if other.status == EXHAUSTED:
        return []
    diffs: list[str] = []
    if reference.status != other.status:
        diffs.append(
            f"status: reference {reference.status!r} vs {other.status!r}"
            + (f" ({other.error})" if other.error else "")
        )
        return diffs
    if reference.result != other.result:
        diffs.append(f"result: reference {reference.result!r} vs {other.result!r}")
    if reference.output != other.output:
        limit = min(len(reference.output), len(other.output))
        for i in range(limit):
            if reference.output[i] != other.output[i]:
                diffs.append(
                    f"output[{i}]: reference {reference.output[i]!r} "
                    f"vs {other.output[i]!r}"
                )
                break
        else:
            diffs.append(
                f"output length: reference {len(reference.output)} "
                f"vs {len(other.output)}"
            )
    if reference.heap != other.heap:
        diffs.append(_first_heap_diff(reference.heap, other.heap))
    return diffs


def _first_heap_diff(ref_heap: tuple, other_heap: tuple) -> str:
    if len(ref_heap) != len(other_heap):
        return f"heap size: reference {len(ref_heap)} cell(s) vs {len(other_heap)}"
    for ref_cell, other_cell in zip(ref_heap, other_heap):
        if ref_cell == other_cell:
            continue
        ref, type_name, ref_fields = ref_cell
        _, other_type, other_fields = other_cell
        if type_name != other_type:
            return f"heap cell #{ref}: reference type {type_name} vs {other_type}"
        for (name, rv), (_, ov) in zip(ref_fields, other_fields):
            if rv != ov:
                return (
                    f"heap cell #{ref} ({type_name}).{name}: "
                    f"reference {rv!r} vs {ov!r}"
                )
    return "heap: cells differ"
