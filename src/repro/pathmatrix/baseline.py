"""The conservative baseline: no structure information at all.

This is approach (1) of the paper's section 2.1 — "concentrate on analyzing
arrays, and make overly conservative assumptions for all pointer data
structures".  Every pair of pointer variables may alias, every pair of heap
accesses through pointers may conflict, and no traversal loop can be
parallelized.  The precision experiments (DESIGN.md experiment E5) compare
this oracle against the k-limited baseline and against ADDS + general path
matrix analysis.
"""

from __future__ import annotations

from repro.lang.ast_nodes import Program, collect_pointer_variables
from repro.lang.cfg import build_cfg
from repro.pathmatrix.alias import AliasAnswer, AliasQueries
from repro.pathmatrix.analysis import AnalysisResult, PathMatrixAnalysis
from repro.pathmatrix.matrix import PathMatrix, cellwise_equivalent
from repro.pathmatrix.rules import apply_statement
from repro.pathmatrix.worklist import MAX_FIXPOINT_ITERATIONS, solve_roundrobin


def baseline_roundrobin(
    analysis: PathMatrixAnalysis, function_name: str, initial: PathMatrix | None = None
) -> AnalysisResult:
    """Run the seed's round-robin fixpoint engine on one function.

    This is the reference implementation the worklist engine is validated
    (golden-equivalence tests) and benchmarked against: every block is
    re-transferred on every sweep, statements copy the matrix individually,
    and convergence is detected with the dense cell-by-cell comparison.  It
    runs under the same transfer context and initial matrix as
    ``analysis.analyze_function(function_name, initial)``, but bypasses
    ``analysis``'s result memo and the fixpoint counter.
    """
    func = analysis.program.function_named(function_name)
    if func is None:
        raise KeyError(f"no function named {function_name!r}")
    ctx = analysis.context_for(function_name)
    cfg = build_cfg(func)
    init = initial.copy() if initial is not None else analysis.initial_matrix(func, ctx)

    def transfer(block, state):
        for stmt in block.statements:
            state = apply_statement(state, stmt, ctx)
        return state

    entry, exit_, stats = solve_roundrobin(
        cfg, init, transfer, PathMatrix.join, cellwise_equivalent,
        max_iterations=MAX_FIXPOINT_ITERATIONS,
    )
    return AnalysisResult(
        function=function_name,
        cfg=cfg,
        ctx=ctx,
        entry_matrices=entry,
        exit_matrices=exit_,
        iterations=stats.iterations,
        blocks_transferred=stats.blocks_transferred,
    )


def conservative_matrix(variables: list[str]) -> PathMatrix:
    """A path matrix with ``=?`` in every off-diagonal entry.

    This reproduces the left-hand matrix of the paper's section 3.3.2: if the
    compiler cannot discover that ``next`` traverses the list acyclically, it
    must assume that ``head`` and all values of ``p`` are potential aliases.
    """
    return PathMatrix.conservative(variables)


def conservative_matrix_for(program: Program, function_name: str) -> PathMatrix:
    func = program.function_named(function_name)
    if func is None:
        raise KeyError(f"no function named {function_name!r}")
    pointer_vars = collect_pointer_variables(func, program)
    for p in func.params:
        pointer_vars.add(p.name)
    return conservative_matrix(sorted(pointer_vars))


class ConservativeOracle(AliasQueries):
    """An alias oracle that can never say "no"."""

    name = "conservative"

    def __init__(self, variables: list[str] | None = None):
        self.variables = list(variables or [])

    def alias(self, a: str, b: str) -> AliasAnswer:
        return AliasAnswer.MUST if a == b else AliasAnswer.MAY
