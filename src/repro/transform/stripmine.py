"""Strip-mining of pointer traversal loops (paper section 4.3.3).

Given a loop of the shape::

    p = particles;
    while p <> NULL
    { <work using p>;
      p = p->next;
    }

whose iterations are independent apart from the traversal itself, the
transformation produces::

    while p <> NULL
    { for i = 0 to PEs-1 in parallel
        _BHL1_iteration(i, p, <free vars>);
      for i = 0 to PEs-1          /* FOR1 */
        p = p->next;
    }

    procedure _BHL1_iteration(i, p, <free vars>)
    { for k = 1 to i              /* FOR2 */
        p = p->next;
      if p <> NULL
      then <work using p>;
    }

Each parallel step processes ``PEs`` consecutive nodes — PE 0 processes the
node at ``p``, PE 1 the node at ``p->next``, and so on.  The inner ``FOR1`` /
``FOR2`` loops may walk past the end of the list; this is safe because ADDS
structures are *speculatively traversable* (section 3.2), which is why the
transformed code contains no extra NULL checks inside the skip loops.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from repro.lang.ast_nodes import (
    Assign,
    BinOp,
    Block,
    Call,
    Expr,
    ExprStmt,
    FieldAccess,
    For,
    FunctionDecl,
    If,
    IntLit,
    Name,
    NullLit,
    ParallelFor,
    Param,
    Program,
    Stmt,
    VarDecl,
    While,
    is_traversal_update,
    iter_statements,
)
from repro.transform.dependence import DependenceTest, LoopClassification, classify_loop, find_while_loops


class TransformError(Exception):
    """Raised when a requested transformation cannot be applied."""


@dataclass
class StripMineResult:
    """The outcome of strip-mining one loop."""

    program: Program
    function_name: str
    iteration_procedure: str
    traversal_var: str
    traversal_field: str
    pes_param: str
    dependence: DependenceTest | None = None
    notes: list[str] = field(default_factory=list)

    def describe(self) -> str:
        lines = [
            f"strip-mined loop in {self.function_name}:",
            f"  traversal: {self.traversal_var} = "
            f"{self.traversal_var}->{self.traversal_field}",
            f"  iteration procedure: {self.iteration_procedure}",
            f"  processors parameter: {self.pes_param}",
        ]
        lines.extend(f"  note: {n}" for n in self.notes)
        return "\n".join(lines)


def _find_traversal_update(body: Block) -> tuple[int, str, str] | None:
    """Locate the last top-level ``p = p->f`` statement in ``body``.

    Returns (index, variable, field) or None.
    """
    for idx in range(len(body.statements) - 1, -1, -1):
        stmt = body.statements[idx]
        if is_traversal_update(stmt):
            return idx, stmt.target, stmt.value.field
    return None


def _is_null_check(cond: Expr, var: str) -> bool:
    """``var <> NULL`` or ``NULL <> var`` — the only exit test the skip loops
    of the transformed code can reproduce."""
    if not (isinstance(cond, BinOp) and cond.op == "<>"):
        return False
    left, right = cond.left, cond.right
    return (
        isinstance(left, Name) and left.ident == var and isinstance(right, NullLit)
    ) or (
        isinstance(right, Name) and right.ident == var and isinstance(left, NullLit)
    )


def _check_traversal_shape(loop: While, update_idx: int, traversal_var: str) -> None:
    """Structural preconditions shared by strip-mining and pipelining.

    Both transforms assume the canonical traversal shape the paper works
    with: the chain advances exactly once per iteration, as the *last* thing
    the iteration does, and the loop exits exactly at the end of the chain.
    Anything else silently changes meaning — work placed after the update
    belongs to the *next* node, a second top-level update advances a pointer
    the skip loops know nothing about, and a non-NULL exit test cannot be
    evaluated by the processor-local skip loops.
    """
    if update_idx != len(loop.body.statements) - 1:
        raise TransformError(
            "the traversal update must be the last statement of the loop "
            "body; statements after it operate on the next node"
        )
    top_updates = [
        i for i, s in enumerate(loop.body.statements) if is_traversal_update(s)
    ]
    if top_updates != [update_idx]:
        raise TransformError(
            "loop body must contain exactly one top-level pointer-induction "
            "update; additional updates advance pointers the transformed "
            "code cannot track"
        )
    update = loop.body.statements[update_idx]
    for stmt in iter_statements(loop.body):
        if isinstance(stmt, Assign) and stmt.target == traversal_var and stmt is not update:
            raise TransformError(
                f"traversal variable {traversal_var!r} is reassigned inside "
                f"the loop body"
            )
    if not _is_null_check(loop.cond, traversal_var):
        raise TransformError(
            f"loop condition must be exactly {traversal_var!r} <> NULL: the "
            f"transformed code tests only for end-of-chain"
        )


def _free_names(statements: list[Stmt], bound: set[str], program: Program) -> list[str]:
    """Names referenced by ``statements`` that are not locally bound.

    Function names and names declared by nested VarDecls are excluded.
    """
    function_names = {f.name for f in program.functions}
    declared = set(bound)
    for stmt in statements:
        for inner in _iter_with_self(stmt):
            if isinstance(inner, VarDecl):
                declared.add(inner.name)
            if isinstance(inner, (For, ParallelFor)):
                declared.add(inner.var)
    used: list[str] = []
    for stmt in statements:
        for node in stmt.walk():
            if isinstance(node, Name):
                if node.ident in declared or node.ident in function_names:
                    continue
                if node.ident not in used:
                    used.append(node.ident)
            elif isinstance(node, Assign):
                if node.target not in declared and node.target not in used:
                    used.append(node.target)
    return used


def _iter_with_self(stmt: Stmt):
    yield stmt
    for child in stmt.walk():
        yield child


def _fresh_name(base: str, taken: set[str]) -> str:
    name = base
    while name in taken:
        name = name + "_"
    return name


def _require_doall(
    program: Program, function_name: str, loop: While, refusal: str, use_adds: bool
) -> DependenceTest:
    """The path-matrix dependence gate shared by strip-mining and pipelining."""
    dependence = classify_loop(program, function_name, loop, use_adds=use_adds)
    if dependence.classification is not LoopClassification.DOALL_AFTER_TRAVERSAL:
        raise TransformError(f"{refusal}: " + "; ".join(dependence.reasons))
    return dependence


def _declares_outside(func: FunctionDecl, name: str, loop: While) -> bool:
    """Whether ``name`` is a parameter of ``func`` or declared by a ``var``
    statement outside ``loop``'s body (which strip-mining moves away)."""
    if name in {p.name for p in func.params}:
        return True
    moved = {id(s) for s in iter_statements(loop.body)}
    return any(
        isinstance(s, VarDecl) and s.name == name and id(s) not in moved
        for s in iter_statements(func.body)
    )


def _strip_mine_legality(
    program: Program,
    function_name: str,
    loop_index: int,
    pes_param: str,
    check_dependences: bool,
    use_adds: bool,
) -> tuple[DependenceTest | None, tuple[int, str, str], bool]:
    """Every refusal of :func:`strip_mine_loop`, decided on ``program`` itself.

    Returns the dependence test (``None`` when skipped), the traversal
    update as ``(index in the loop body, variable, field)`` — still valid on
    a deep copy — and whether the function needs ``pes_param`` added.
    """
    original_loops = find_while_loops(program, function_name)
    if loop_index >= len(original_loops):
        raise TransformError(
            f"{function_name} has {len(original_loops)} while loop(s); "
            f"index {loop_index} out of range"
        )
    loop = original_loops[loop_index]

    dependence: DependenceTest | None = None
    if check_dependences:
        dependence = _require_doall(
            program, function_name, loop, "loop is not parallelizable", use_adds=use_adds
        )

    found = _find_traversal_update(loop.body)
    if found is None:
        raise TransformError("loop body has no top-level traversal update p = p->f")
    update_idx, traversal_var, _field = found
    _check_traversal_shape(loop, update_idx, traversal_var)
    if len(loop.body.statements) == 1:
        raise TransformError("loop body consists only of the traversal update")

    func = program.function_named(function_name)
    return dependence, found, not _declares_outside(func, pes_param, loop)


def _strip_mine_notes(function_name: str, pes_param: str, add_pes_param: bool) -> list[str]:
    notes: list[str] = []
    if add_pes_param:
        notes.append(
            f"added parameter {pes_param!r} to {function_name} (number of processors)"
        )
    notes.append(
        "inner FOR1/FOR2 loops rely on speculative traversability to walk past NULL"
    )
    return notes


def check_strip_mine(program: Program, function_name: str, loop_index: int = 0) -> list[str]:
    """The legality check of :func:`strip_mine_loop`, without the rewrite.

    For a loop already classified ``DOALL_AFTER_TRAVERSAL``: the dependence
    test is not repeated.  Raises the :class:`TransformError`
    ``strip_mine_loop(..., check_dependences=False)`` would raise and
    otherwise returns the notes it would attach; ``program`` is neither
    copied nor modified.
    """
    _, _, add_pes_param = _strip_mine_legality(
        program, function_name, loop_index, "PEs", False, True
    )
    return _strip_mine_notes(function_name, "PEs", add_pes_param)


def strip_mine_loop(
    program: Program,
    function_name: str,
    loop_index: int = 0,
    pes_param: str = "PEs",
    label: str | None = None,
    check_dependences: bool = True,
    use_adds: bool = True,
) -> StripMineResult:
    """Strip-mine the ``loop_index``-th while loop of ``function_name``.

    The transformation is applied to a **copy** of ``program``; the original
    AST is left untouched.  With ``check_dependences=True`` (the default) the
    loop is first classified with the path-matrix dependence test and the
    transformation refuses to proceed unless the loop is a
    ``DOALL_AFTER_TRAVERSAL``.  The copy is made only once every check has
    passed.
    """
    legality = _strip_mine_legality(
        program, function_name, loop_index, pes_param, check_dependences, use_adds
    )
    return _rewrite(
        copy.deepcopy(program), function_name, loop_index, pes_param, label, legality
    )


def _rewrite(
    new_program: Program,
    function_name: str,
    loop_index: int,
    pes_param: str,
    label: str | None,
    legality: tuple[DependenceTest | None, tuple[int, str, str], bool],
) -> StripMineResult:
    """The rewrite of :func:`strip_mine_loop`, made in place on
    ``new_program``; ``legality`` is what :func:`_strip_mine_legality`
    returned for the loop."""
    dependence, (update_idx, traversal_var, traversal_field), add_pes_param = legality
    func = new_program.function_named(function_name)
    assert func is not None
    loop = find_while_loops(new_program, function_name)[loop_index]
    work = [s for i, s in enumerate(loop.body.statements) if i != update_idx]

    taken_names = {p.name for p in func.params} | {
        s.name for s in iter_statements(func.body) if isinstance(s, VarDecl)
    } | {traversal_var}
    i_var = _fresh_name("i", taken_names)
    k_var = _fresh_name("k", taken_names | {i_var})

    # free variables of the work become parameters of the iteration procedure
    frees = _free_names(work, bound={traversal_var, i_var, k_var}, program=new_program)

    label = label or function_name
    proc_name = _fresh_name(f"_{label}_iteration", {f.name for f in new_program.functions})

    # --- the iteration procedure -------------------------------------------
    skip_loop = For(
        var=k_var,
        lo=IntLit(1),
        hi=Name(i_var),
        body=Block(
            statements=[
                Assign(
                    target=traversal_var,
                    value=FieldAccess(base=Name(traversal_var), field=traversal_field),
                )
            ]
        ),
    )
    guarded_work = If(
        cond=BinOp(op="<>", left=Name(traversal_var), right=NullLit()),
        then_body=Block(statements=copy.deepcopy(work)),
    )
    iteration_proc = FunctionDecl(
        name=proc_name,
        params=[Param(name=i_var), Param(name=traversal_var)]
        + [Param(name=v) for v in frees],
        body=Block(statements=[skip_loop, guarded_work]),
        is_procedure=True,
    )
    new_program.functions.append(iteration_proc)

    # --- the transformed loop body --------------------------------------------
    pes_expr = Name(pes_param)
    parallel = ParallelFor(
        var=i_var,
        lo=IntLit(0),
        hi=BinOp(op="-", left=pes_expr, right=IntLit(1)),
        body=Block(
            statements=[
                ExprStmt(
                    expr=Call(
                        func=proc_name,
                        args=[Name(i_var), Name(traversal_var)] + [Name(v) for v in frees],
                    )
                )
            ]
        ),
        label="parallel-iterations",
    )
    skip_ahead = For(
        var=i_var,
        lo=IntLit(0),
        hi=BinOp(op="-", left=copy.deepcopy(pes_expr), right=IntLit(1)),
        body=Block(
            statements=[
                Assign(
                    target=traversal_var,
                    value=FieldAccess(base=Name(traversal_var), field=traversal_field),
                )
            ]
        ),
        label="FOR1",
    )
    loop.body = Block(statements=[parallel, skip_ahead], line=loop.body.line)

    # make sure the processors count is available in the enclosing function
    if add_pes_param:
        func.params.append(Param(name=pes_param))

    return StripMineResult(
        program=new_program,
        function_name=function_name,
        iteration_procedure=proc_name,
        traversal_var=traversal_var,
        traversal_field=traversal_field,
        pes_param=pes_param,
        dependence=dependence,
        notes=_strip_mine_notes(function_name, pes_param, add_pes_param),
    )


@dataclass
class StripMinedProgram:
    """The outcome of strip-mining the given loops of a program."""

    program: Program
    #: the functions with at least one strip-mined loop, in program order;
    #: each takes the processor count as a new trailing parameter, which
    #: every call of it in ``program`` already passes
    functions: list[str]


def strip_mine_program(
    program: Program, loops: list[tuple[str, int]], pes: int
) -> StripMinedProgram:
    """Strip-mine the given ``(function, loop index)`` pairs of ``program``.

    The pairs are loops already shown DOALL and strip-minable (the reports'
    ``strip_mine.applied``: the paper decides on the analyzed program,
    section 4.3.3), so no analysis is built and the dependence test is not
    repeated.  The program is deep-copied once, and each loop rewritten in
    the copy as :func:`strip_mine_loop` would rewrite it.  Functions go in
    program order and the loops of each in pre-order, every rewrite
    applying to the result of the earlier ones.  A rewrite moves the loops
    nested in the strip-mined body into its iteration procedure, so those
    are skipped and the later loops of the function move up as many
    indices: a loop's label comes from its index when it is reached.  Every
    call of a strip-mined function gets ``pes`` as its new trailing
    argument.  ``program`` is never modified, and is returned itself when
    no loop is strip-mined.
    """
    chosen = set(loops)
    current: Program | None = None
    functions: list[str] = []
    for func in program.functions:
        moved: set[int] = set()
        for index, loop in enumerate(find_while_loops(program, func.name)):
            if id(loop) in moved or (func.name, index) not in chosen:
                continue
            if current is None:
                current = copy.deepcopy(program)
            current_index = index - len(moved)
            legality = _strip_mine_legality(
                current, func.name, current_index, "PEs", False, True
            )
            label = f"{func.name}_L{current_index + 1}"
            _rewrite(current, func.name, current_index, "PEs", label, legality)
            moved.update(id(s) for s in iter_statements(loop.body) if isinstance(s, While))
            if func.name not in functions:
                functions.append(func.name)
    if current is None:
        return StripMinedProgram(program=program, functions=[])
    for func in current.functions:
        for node in func.body.walk():
            if isinstance(node, Call) and node.func in functions:
                node.args.append(IntLit(pes))
    return StripMinedProgram(program=current, functions=functions)
