"""Dataflow driver for general path matrix analysis.

:class:`PathMatrixAnalysis` runs the transfer rules of
:mod:`repro.pathmatrix.rules` to a fixed point over a function's CFG and
exposes the resulting matrices per program point; a solve that stops at the
sweep cap without converging raises :class:`AnalysisError`.  It also
implements the *primed-variable* loop analysis the paper uses to argue about
loop-carried dependences: a copy ``p'`` of each pointer variable updated in
the loop body is introduced at the top of the body (aliasing the current
value), one iteration of the body is analyzed — a solve of the body's own
CFG from the loop-header matrix on the same worklist solver, so a nested
loop reaches its own fixpoint — and the resulting entry ``PM[p'][p]`` tells
us how the values of ``p`` in consecutive iterations relate: a definite
acyclic path with no alias possibility means consecutive (and by
transitivity, all distinct) iterations operate on distinct nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.adds.declaration import program_adds_types
from repro.lang.ast_nodes import (
    Assign,
    Block,
    Call,
    ExprStmt,
    FieldAccess,
    FieldAssign,
    For,
    FunctionDecl,
    If,
    Name,
    ParallelFor,
    Program,
    Return,
    Stmt,
    VarDecl,
    While,
    collect_pointer_variables,
    is_traversal_update,
    iter_statements,
    traversal_updates,
)
from repro.lang.callgraph import call_graph, condensed_sccs
from repro.lang.cfg import CFG, build_cfg
from repro.lang.typecheck import check_program
from repro.pathmatrix.interproc import FunctionSummary, summarize_scc
from repro.pathmatrix.matrix import PathMatrix
from repro.pathmatrix.paths import PathEntry
from repro.pathmatrix.rules import TransferContext, apply_block
from repro.pathmatrix.worklist import MAX_FIXPOINT_ITERATIONS, solve_body, solve_worklist


#: process-wide count of function fixpoints actually solved (memo hits and
#: the loop test's body solves excluded).
#: The incremental engine's acceptance test — "editing one leaf re-runs
#: exactly one fixpoint" — asserts against deltas of this counter.
_FIXPOINT_RUNS = 0


def fixpoint_run_count() -> int:
    """Total path-matrix fixpoints solved in this process so far."""
    return _FIXPOINT_RUNS


def _block_transfer(ctx: TransferContext):
    """The block transfer the solvers run under ``ctx``."""

    def transfer(block, state: PathMatrix) -> PathMatrix:
        return apply_block(state, block.statements, ctx)

    return transfer


class AnalysisError(RuntimeError):
    """A path-matrix analysis could not be completed.

    Raised for failures the analysis knows how to classify (e.g. a function
    whose fixpoint diverges past the iteration cap).  Programming errors
    inside the analysis deliberately propagate as their original exception
    types so they surface in tests instead of being swallowed.
    """


@dataclass
class AnalysisResult:
    """Path matrices for one analyzed function."""

    function: str
    cfg: CFG
    ctx: TransferContext
    entry_matrices: dict[int, PathMatrix] = field(default_factory=dict)
    exit_matrices: dict[int, PathMatrix] = field(default_factory=dict)
    #: whole-CFG sweeps until convergence (the worklist engine skips stable
    #: blocks within a sweep — see ``blocks_transferred``)
    iterations: int = 0
    #: total transfer-function applications — comparable across solvers
    blocks_transferred: int = 0

    def matrix_at_entry(self, block_index: int) -> PathMatrix:
        return self.entry_matrices[block_index]

    def final_matrix(self) -> PathMatrix:
        try:
            return self.exit_matrices[self.cfg.exit]
        except KeyError:
            raise AnalysisError(
                f"analysis of {self.function!r} never reached the exit block "
                "(the function may not terminate normally)"
            ) from None

    def matrix_before_loop(self, loop: While) -> PathMatrix:
        """The matrix at the entry of ``loop``'s header block."""
        for block in self.cfg.blocks:
            if block.loop_header_of is loop:
                return self.entry_matrices[block.index]
        raise KeyError(f"loop at line {loop.line} not found in CFG of {self.function}")

    def violations(self) -> list:
        return sorted(set(self.final_matrix().validation.violations), key=str)


class PathMatrixAnalysis:
    """Run general path matrix analysis over the functions of a program."""

    def __init__(
        self,
        program: Program,
        use_adds: bool = True,
        memoize_results: bool = False,
        summaries: dict[str, FunctionSummary] | None = None,
        external_returns: dict[str, str | None] | None = None,
    ):
        self.program = program
        self.use_adds = use_adds
        # memoization is safe while summaries are being refined below because
        # every preserves_abstraction flip invalidates the entries of the
        # flipped function's callers (see refine_preservation).  The batch
        # driver opts in (it re-analyzes the same functions per loop); timing
        # code must NOT (a memo hit would be measured instead of the solver).
        self._result_memo: "dict[str, AnalysisResult] | None" = (
            {} if memoize_results else None
        )
        # ``external_returns``: the inferred return types of callees that
        # ``program`` calls but does not declare — the staged engine analyzes
        # a few functions of a program, their callees known by summary only
        self.check_result = check_program(program, external_returns)
        self.adds_types = program_adds_types(program)
        if summaries is not None:
            # an injected, already-final table: the staged incremental engine
            # resolves summaries itself (from cached artifacts where
            # possible) and hands the finished table in
            self.summaries = summaries
        else:
            self.summaries = {}
            self._resolve_summaries()

    # -- context construction ------------------------------------------------
    def _context_for(self, func: FunctionDecl) -> TransferContext:
        env = self.check_result.environments.get(func.name)
        pointer_vars = collect_pointer_variables(func, self.program)
        if env is not None:
            pointer_vars |= env.pointer_variables()
        # Track parameters that are used as pointers: dereferenced (directly
        # or through a copy — the type environment's backward propagation
        # catches those), or forwarded to a pointer position of a callee.
        # Scalar parameters (the `c` of the scaling loop, `theta`, `dt`) stay
        # out of the matrix, as in the paper's examples.
        summary = self.summaries.get(func.name)
        for i, p in enumerate(func.params):
            if summary is not None and i in summary.pointer_params:
                pointer_vars.add(p.name)
            elif env is not None and env.pointee_record(p.name) is not None:
                pointer_vars.add(p.name)
            elif summary is None and env is None:
                pointer_vars.add(p.name)
        var_types: dict[str, str] = {}
        if env is not None:
            for var in pointer_vars:
                rec = env.pointee_record(var)
                if rec is not None:
                    var_types[var] = rec
        return TransferContext(
            program=self.program,
            adds_types=self.adds_types,
            var_types=var_types,
            pointer_vars=pointer_vars,
            summaries=self.summaries,
            use_adds=self.use_adds,
        )

    def context_for(self, name: str) -> TransferContext:
        """The transfer context ``analyze_function(name)`` would run under."""
        func = self.program.function_named(name)
        if func is None:
            raise KeyError(f"no function named {name!r}")
        return self._context_for(func)

    def initial_matrix(self, func: FunctionDecl, ctx: TransferContext) -> PathMatrix:
        """The matrix assumed on entry to ``func``.

        Pointer parameters may alias each other (``=?``) unless they point to
        different record types; locals start out untracked until assigned.
        """
        params = [p.name for p in func.params if p.name in ctx.pointer_vars]
        pm = PathMatrix(params)
        for i, a in enumerate(params):
            for b in params[i + 1:]:
                ta, tb = ctx.type_of_var(a), ctx.type_of_var(b)
                if ta is not None and tb is not None and ta != tb and "__any__" not in (ta, tb):
                    continue
                pm.set(a, b, PathEntry.possible_alias())
                pm.set(b, a, PathEntry.possible_alias())
        return pm

    # -- the fixed point -----------------------------------------------------
    def analyze_function(
        self, name: str, initial: PathMatrix | None = None
    ) -> AnalysisResult:
        """Run the fixpoint for one function (:func:`solve_worklist`; the
        round-robin reference engine is
        :func:`~repro.pathmatrix.baseline.baseline_roundrobin`)."""
        memoize = initial is None and self._result_memo is not None
        if memoize:
            memoized = self._result_memo.get(name)
            if memoized is not None:
                return memoized
        func = self.program.function_named(name)
        if func is None:
            raise KeyError(f"no function named {name!r}")
        ctx = self._context_for(func)
        cfg = build_cfg(func)
        init = initial.copy() if initial is not None else self.initial_matrix(func, ctx)
        result = AnalysisResult(function=name, cfg=cfg, ctx=ctx)

        entry, exit_, stats = solve_worklist(
            cfg, init, _block_transfer(ctx), PathMatrix.join, PathMatrix.equivalent,
            max_iterations=MAX_FIXPOINT_ITERATIONS,
        )

        global _FIXPOINT_RUNS
        _FIXPOINT_RUNS += 1
        if not stats.converged:
            raise AnalysisError(
                f"analysis of {name!r} did not reach a fixpoint within "
                f"MAX_FIXPOINT_ITERATIONS = {MAX_FIXPOINT_ITERATIONS} sweeps"
            )
        result.iterations = stats.iterations
        result.blocks_transferred = stats.blocks_transferred
        result.entry_matrices = entry
        result.exit_matrices = exit_
        if memoize:
            self._result_memo[name] = result
        return result

    def analyze_all(self) -> dict[str, AnalysisResult]:
        return {f.name: self.analyze_function(f.name) for f in self.program.functions}

    # -- abstraction-preservation of whole functions -----------------------------
    def _resolve_summaries(self) -> None:
        """Resolve transitive summaries bottom-up over the SCC condensation.

        The loop of :func:`summarize_program`, with each component's
        preservation marking settled before the next component: each
        component's summaries (effects *and* ``preserves_abstraction``)
        are final before any caller component is touched.  This is exactly
        the unit the staged incremental engine content-addresses and caches,
        so computing it the same way here keeps the inline and incremental
        paths from drifting apart.
        """
        callees = call_graph(self.program)
        for members in condensed_sccs(callees, list(callees)):
            self.summaries.update(summarize_scc(self.program, members, self.summaries))
            self.refine_preservation(members)

    def refine_preservation(self, members: list[str]) -> None:
        """Settle ``preserves_abstraction`` for one resolved component.

        A function preserves the abstractions if its own path-matrix analysis
        finds no outstanding violation at its exit point.  (Temporary breaks
        inside the body — e.g. the subtree sharing during ``insert_particle``
        — are fine.)  Members start optimistically ``True``; shape-changing
        members are analyzed and flipped to ``False`` when invalid.  Callee
        components below are already final, so only intra-component
        dependencies can cascade, flips are one-directional (a ``False``
        callee flag only ever makes a caller's verdict worse), and the round
        count is bounded by the member count.  An analysis reads only its
        direct callees' flags, so a flip invalidates the memoized results of
        the flipped members' callers alone, and only those are solved again.
        Only :class:`AnalysisError` is treated as "does not preserve";
        unexpected exceptions propagate so real bugs surface.
        """
        for name in members:
            summary = self.summaries.get(name)
            if summary is not None:
                summary.preserves_abstraction = True
        changers = [
            name
            for name in members
            if (s := self.summaries.get(name)) is not None and s.rearranges_shape
        ]
        if not changers:
            return
        self.invalidate_memo(members)
        pending = changers
        for _ in range(len(changers) + 1):
            flipped = set()
            for name in pending:
                summary = self.summaries[name]
                try:
                    result = self.analyze_function(name)
                except AnalysisError:
                    ok = False
                else:
                    ok = result.final_matrix().validation.is_valid()
                if summary.preserves_abstraction != ok:
                    summary.preserves_abstraction = ok
                    flipped.add(name)
            if not flipped:
                break
            stale = [n for n in members if (s := self.summaries.get(n)) and s.callees & flipped]
            self.invalidate_memo(stale)
            pending = [name for name in changers if name in stale]

    def invalidate_memo(self, names) -> None:
        """Drop memoized results for ``names`` — their inputs changed."""
        if self._result_memo is None:
            return
        for name in names:
            self._result_memo.pop(name, None)


# ---------------------------------------------------------------------------
# loop analysis with primed variables
# ---------------------------------------------------------------------------
@dataclass
class LoopDependenceReport:
    """What the analysis concluded about one traversal loop.

    ``induction_vars`` maps each pointer variable updated by the loop to the
    field it traverses; ``independent_vars`` are those proven to point to a
    different node on every iteration (the ``PM[p'][p]`` test).
    ``writes``/``reads`` list the (variable, field) access paths of the body.
    ``carried_dependences`` lists human-readable reasons parallelization
    would be unsafe; an empty list together with a valid abstraction means
    the loop is parallelizable (up to the sequential pointer-chasing itself).
    """

    loop_line: int | None
    induction_vars: dict[str, str] = field(default_factory=dict)
    independent_vars: set[str] = field(default_factory=set)
    writes: list[tuple[str, str]] = field(default_factory=list)
    reads: list[tuple[str, str]] = field(default_factory=list)
    carried_dependences: list[str] = field(default_factory=list)
    abstraction_valid: bool = True
    matrix_at_entry: PathMatrix | None = None
    matrix_after_body: PathMatrix | None = None

    @property
    def parallelizable(self) -> bool:
        return self.abstraction_valid and not self.carried_dependences

    def describe(self) -> str:
        lines = [f"loop at line {self.loop_line}:"]
        for var, fld in self.induction_vars.items():
            status = "independent" if var in self.independent_vars else "possibly repeating"
            lines.append(f"  traversal {var} = {var}->{fld}: {status}")
        lines.append(f"  abstraction valid: {self.abstraction_valid}")
        if self.carried_dependences:
            lines.append("  loop-carried dependences:")
            for dep in self.carried_dependences:
                lines.append(f"    - {dep}")
        else:
            lines.append("  no loop-carried dependences (apart from the traversal itself)")
        lines.append(f"  parallelizable: {self.parallelizable}")
        return "\n".join(lines)


PRIME_SUFFIX = "'"


def _collect_accesses(
    body: Block, summaries: dict[str, FunctionSummary]
) -> tuple[list[tuple[str, str]], list[tuple[str, str]]]:
    """(writes, reads) as (variable, field) pairs, including callee effects,
    each listed once, in first-occurrence order.

    A statement nested ``d`` levels deep is walked as itself and again
    inside each of its ``d`` enclosing statements, so accesses repeat before
    they are deduplicated; a read-modify-write's own read
    (``q->coef = q->coef + 1``) is skipped only where the assignment is
    walked as itself.
    """
    writes: list[tuple[str, str]] = []
    reads: list[tuple[str, str]] = []
    for stmt in iter_statements(body):
        if isinstance(stmt, FieldAssign) and isinstance(stmt.base, Name):
            writes.append((stmt.base.ident, stmt.field))
        for node in stmt.walk():
            if isinstance(node, FieldAccess) and isinstance(node.base, Name):
                is_store_target = (
                    isinstance(stmt, FieldAssign)
                    and node is not None
                    and isinstance(stmt.base, Name)
                    and node.base.ident == stmt.base.ident
                    and node.field == stmt.field
                )
                if not is_store_target:
                    reads.append((node.base.ident, node.field))
            if isinstance(node, Call):
                summary = summaries.get(node.func)
                if summary is None:
                    continue
                for i, arg in enumerate(node.args):
                    if not isinstance(arg, Name):
                        continue
                    if summary.pointer_params and i not in summary.pointer_params:
                        continue  # a scalar argument: no heap accesses through it
                    if i in summary.written_params or summary.writes_through_unknown:
                        # sorted: set order is hash-randomized, and access
                        # order reaches the report (conflict reasons)
                        for fld in sorted(
                            summary.data_fields_written | summary.pointer_fields_written
                        ):
                            writes.append((arg.ident, fld))
                    # fields the callee may read through any reachable node
                    if summary.fields_read:
                        for fld in sorted(summary.fields_read):
                            reads.append((arg.ident, fld))
                    else:
                        reads.append((arg.ident, "*"))
    return list(dict.fromkeys(writes)), list(dict.fromkeys(reads))


def _expr_reads(expr) -> set[str]:
    """Every variable name referenced anywhere inside an expression."""
    return {n.ident for n in expr.walk() if isinstance(n, Name)}


def _scan_scalar_reads(
    statements: list[Stmt],
    priv: set[str],
    tracked: set[str],
    flagged: dict[str, int | None],
) -> set[str]:
    """Walk a statement sequence in execution order, flagging cross-iteration
    scalar reads.

    ``priv`` holds the variables already assigned *unconditionally* earlier
    in the same iteration; a read of a ``tracked`` variable outside ``priv``
    observes the previous iteration's value and is recorded in ``flagged``
    (name -> source line of the first such read).  Returns ``priv`` extended
    with the variables this sequence unconditionally assigns.  Assignments
    under a branch or inside a nested loop never extend the caller's ``priv``
    — the branch may not be taken, the loop may run zero times.
    """

    def flag(reads: set[str], line: int | None) -> None:
        for name in sorted((reads & tracked) - priv):
            flagged.setdefault(name, line)

    for stmt in statements:
        if isinstance(stmt, Assign):
            flag(_expr_reads(stmt.value), stmt.line)
            priv = priv | {stmt.target}
        elif isinstance(stmt, VarDecl):
            if stmt.init is not None:
                flag(_expr_reads(stmt.init), stmt.line)
            priv = priv | {stmt.name}  # an uninitialized declaration resets to NULL
        elif isinstance(stmt, FieldAssign):
            reads = _expr_reads(stmt.base) | _expr_reads(stmt.value)
            if stmt.index is not None:
                reads |= _expr_reads(stmt.index)
            flag(reads, stmt.line)
        elif isinstance(stmt, ExprStmt):
            flag(_expr_reads(stmt.expr), stmt.line)
        elif isinstance(stmt, Return):
            if stmt.value is not None:
                flag(_expr_reads(stmt.value), stmt.line)
        elif isinstance(stmt, Block):
            priv = _scan_scalar_reads(stmt.statements, priv, tracked, flagged)
        elif isinstance(stmt, If):
            flag(_expr_reads(stmt.cond), stmt.line)
            _scan_scalar_reads(stmt.then_body.statements, set(priv), tracked, flagged)
            if stmt.else_body is not None:
                _scan_scalar_reads(stmt.else_body.statements, set(priv), tracked, flagged)
        elif isinstance(stmt, While):
            # straight-line order within the body holds on every inner
            # iteration, so the body is scanned against the outer priv
            flag(_expr_reads(stmt.cond), stmt.line)
            _scan_scalar_reads(stmt.body.statements, set(priv), tracked, flagged)
        elif isinstance(stmt, (For, ParallelFor)):
            reads = _expr_reads(stmt.lo) | _expr_reads(stmt.hi)
            if stmt.step is not None:
                reads |= _expr_reads(stmt.step)
            flag(reads, stmt.line)
            _scan_scalar_reads(
                stmt.body.statements, priv | {stmt.var}, tracked, flagged
            )
        else:
            flag({n.ident for n in stmt.walk() if isinstance(n, Name)}, stmt.line)
    return priv


def _at_line(line: int | None) -> str:
    return f" (line {line})" if line is not None else ""


def _scalar_loop_dependences(
    func: FunctionDecl, loop: While, induction_vars: set[str]
) -> list[str]:
    """Loop-carried dependences through *scalar* frame variables.

    The heap conflict test only sees ``(variable, field)`` accesses, so a
    reduction like ``s = s + p->coef`` is invisible to it — yet the
    strip-mined iteration procedure receives frame variables by value, i.e.
    privatized, and such updates would silently be dropped.  A variable
    assigned in the body is safe only when it is privatizable: every read of
    it in an iteration is dominated by an unconditional assignment earlier
    in the same iteration, and its last value is dead after the loop.  The
    loop's pointer-induction variables (including those of nested loops) are
    exempt — their cross-iteration behaviour is exactly what the
    primed-variable matrix pass decides.
    """
    assigned: set[str] = set()
    for stmt in iter_statements(loop.body):
        if isinstance(stmt, Assign) and not is_traversal_update(stmt):
            assigned.add(stmt.target)
        elif isinstance(stmt, VarDecl):
            assigned.add(stmt.name)
        elif isinstance(stmt, (For, ParallelFor)):
            assigned.add(stmt.var)
    tracked = assigned - induction_vars
    if not tracked:
        return []

    flagged: dict[str, int | None] = {}
    # the condition runs at the top of every iteration, before any
    # assignment of that iteration
    for name in sorted(_expr_reads(loop.cond) & tracked):
        flagged.setdefault(name, loop.line)
    _scan_scalar_reads(loop.body.statements, set(), tracked, flagged)

    deps = [
        f"scalar variable {name!r} carries a value across iterations: "
        f"read{_at_line(line)} before an unconditional assignment"
        for name, line in sorted(flagged.items())
    ]

    # last-value liveness: privatizing a scalar also drops its final value,
    # so a post-loop use of an assigned variable sequentializes the loop
    inside = {id(node) for node in loop.walk()}
    outside_reads = {
        node.ident
        for node in func.body.walk()
        if isinstance(node, Name) and id(node) not in inside
    }
    for name in sorted((tracked - set(flagged)) & outside_reads):
        deps.append(
            f"scalar variable {name!r} is assigned in the loop body and "
            f"referenced after the loop (last-value dependence)"
        )
    return deps


def analyze_loop_dependence(
    program: Program,
    function_name: str,
    loop: While | None = None,
    use_adds: bool = True,
    analysis: "PathMatrixAnalysis | None" = None,
) -> LoopDependenceReport:
    """Analyze a pointer-traversal loop for loop-carried dependences.

    ``loop`` defaults to the first ``while`` loop of the function.  The
    report's :attr:`~LoopDependenceReport.parallelizable` flag is the answer
    to "may the loop's iterations be executed in parallel (modulo the
    sequential traversal)?" — the question the strip-mining transformation
    of section 4.3.3 needs answered.

    Callers that already hold a :class:`PathMatrixAnalysis` of ``program``
    built with the same ``use_adds`` may pass it as ``analysis`` to reuse
    its summaries — and, when it was constructed with
    ``memoize_results=True``, its fixpoint results (the batch driver
    classifies many loops of one program).
    """
    if analysis is None:
        analysis = PathMatrixAnalysis(program, use_adds=use_adds)
    elif analysis.program is not program or analysis.use_adds != use_adds:
        raise ValueError(
            "the supplied analysis was built for a different program object "
            "or use_adds setting than this dependence query"
        )
    func = program.function_named(function_name)
    if func is None:
        raise KeyError(f"no function named {function_name!r}")
    if loop is None:
        loops = [s for s in iter_statements(func.body) if isinstance(s, While)]
        if not loops:
            raise ValueError(f"function {function_name!r} contains no while loop")
        loop = loops[0]

    result = analysis.analyze_function(function_name)
    ctx = result.ctx
    pm_entry = result.matrix_before_loop(loop)

    report = LoopDependenceReport(loop_line=loop.line, matrix_at_entry=pm_entry)
    report.induction_vars = traversal_updates(loop.body)

    # abstraction validity at loop entry, restricted to the types whose ADDS
    # properties the traversal relies on
    relevant_types = set()
    for var in report.induction_vars:
        t = ctx.type_of_var(var)
        if t:
            relevant_types.add(t)
    if not relevant_types:
        relevant_types = set(analysis.adds_types)
    report.abstraction_valid = all(
        pm_entry.validation.is_valid_for(t) for t in relevant_types
    )

    # primed-variable pass: one iteration of the loop body
    pm = pm_entry.copy()
    primes: dict[str, str] = {}
    for var in report.induction_vars:
        primed = var + PRIME_SUFFIX
        primes[var] = primed
        pm.ensure_variable(primed)
        pm.copy_variable(primed, var)
    pm, stats = solve_body(
        loop.body, pm, _block_transfer(ctx), PathMatrix.join, PathMatrix.equivalent,
        max_iterations=MAX_FIXPOINT_ITERATIONS,
    )
    report.matrix_after_body = pm
    if not stats.converged:
        report.carried_dependences.append(
            "the primed-variable pass over the loop body did not reach a fixpoint "
            f"within MAX_FIXPOINT_ITERATIONS = {MAX_FIXPOINT_ITERATIONS} sweeps"
        )

    for var, primed in primes.items():
        if pm.definitely_not_alias(primed, var):
            report.independent_vars.add(var)
        else:
            report.carried_dependences.append(
                f"traversal variable {var!r} may revisit a node "
                f"(PM[{primed}][{var}] allows aliasing)"
            )

    # cross-iteration conflicts between body accesses
    report.writes, report.reads = _collect_accesses(loop.body, analysis.summaries)
    report.carried_dependences.extend(
        _conflicts_across_iterations(pm, primes, report.writes, report.reads, ctx)
    )

    # dependences the heap conflict test cannot see: scalar frame variables
    report.carried_dependences.extend(
        _scalar_loop_dependences(func, loop, set(report.induction_vars))
    )

    # parallel iterations would all run, even those after one that returns
    for stmt in iter_statements(loop.body):
        if isinstance(stmt, Return):
            report.carried_dependences.append(
                f"return statement{_at_line(stmt.line)}: a later iteration runs "
                "only if this one does not return"
            )

    # a write to a field some induction variable chases rewires the very
    # chain the parallel iterations would be distributed over
    traversal_fields = set(report.induction_vars.values())
    for var, fld in sorted({(v, f) for v, f in report.writes if f in traversal_fields}):
        report.carried_dependences.append(
            f"write to traversal field {var}->{fld} may relink the structure "
            f"being traversed"
        )
    if not report.abstraction_valid:
        report.carried_dependences.append(
            "ADDS abstraction not valid at loop entry; traversal properties unusable"
        )
    return report


def _conflicts_across_iterations(
    pm: PathMatrix,
    primes: dict[str, str],
    writes: list[tuple[str, str]],
    reads: list[tuple[str, str]],
    ctx: TransferContext,
) -> list[str]:
    """Write/write and write/read conflicts between different iterations.

    An access through variable ``v`` in the *previous* iteration is modelled
    by ``v`` with every induction variable replaced by its primed copy; a
    conflict exists when the primed access may alias the current one and the
    fields overlap.
    """
    conflicts: list[str] = []

    def primed_of(var: str) -> str:
        return primes.get(var, var)

    def fields_overlap(f1: str, f2: str) -> bool:
        return f1 == "*" or f2 == "*" or f1 == f2

    seen: set[tuple[str, str, str, str, str]] = set()
    for w_var, w_field in writes:
        for o_var, o_field, kind in (
            [(v, f, "write") for v, f in writes] + [(v, f, "read") for v, f in reads]
        ):
            if not fields_overlap(w_field, o_field):
                continue
            # when neither access depends on an induction variable, both refer
            # to loop-invariant nodes: a genuine conflict only if they may
            # alias (and then it is loop-carried as well)
            prev_var = primed_of(o_var)
            if pm.may_alias(w_var, prev_var):
                key = (w_var, w_field, o_var, o_field, kind)
                if key in seen:
                    continue
                seen.add(key)
                conflicts.append(
                    f"write {w_var}->{w_field} may conflict with previous-iteration "
                    f"{kind} {o_var}->{o_field}"
                )
    return conflicts


def analyze_function(
    program: Program, name: str, use_adds: bool = True
) -> AnalysisResult:
    """Convenience wrapper around :class:`PathMatrixAnalysis`."""
    return PathMatrixAnalysis(program, use_adds=use_adds).analyze_function(name)
