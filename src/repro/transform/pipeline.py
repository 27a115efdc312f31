"""Software pipelining of traversal loops (cited from [HHN92]).

Software pipelining overlaps the *traversal* of node ``i+1`` with the *work*
on node ``i``.  For a pointer loop this means hoisting the pointer-chasing
load above the work::

    while p <> NULL              p = head;
    { work(p);                   if p <> NULL
      p = p->next;        =>     { next_p = p->next;        /* prologue  */
    }                              while next_p <> NULL
                                   { work(p);                /* steady    */
                                     p = next_p;             /* state     */
                                     next_p = p->next;       /* kernel    */
                                   }
                                   work(p);                  /* epilogue  */
                                 }

The legality argument is the one the paper makes for BHL1: ``p->next`` never
aliases the node being worked on (ADDS acyclic traversal), so the load can
move above the work.  The speculative-traversability property additionally
allows ``next_p = p->next`` to be issued even when ``p`` is the last node.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from repro.lang.ast_nodes import (
    Assign,
    BinOp,
    Block,
    FieldAccess,
    FieldAssign,
    If,
    Name,
    NullLit,
    Program,
    VarDecl,
    While,
    iter_statements,
)
from repro.transform.dependence import DependenceTest, find_while_loops
from repro.transform.stripmine import (
    TransformError,
    _check_traversal_shape,
    _find_traversal_update,
    _fresh_name,
    _require_doall,
)


#: the notes an applied software pipeline carries
_NOTES = (
    "the prefetch of p->next above the work is legal because ADDS shows "
    "the next node is never the node being written",
    "the prologue prefetch relies on speculative traversability when the "
    "list has exactly one node",
)


@dataclass
class PipelineResult:
    """Outcome of software-pipelining one traversal loop."""

    program: Program
    function_name: str
    traversal_var: str
    traversal_field: str
    lookahead_var: str
    dependence: DependenceTest | None = None
    notes: list[str] = field(default_factory=list)

    def describe(self) -> str:
        return (
            f"software-pipelined loop in {self.function_name}: lookahead variable "
            f"{self.lookahead_var} prefetches {self.traversal_var}->{self.traversal_field}"
        )


def _pipeline_legality(
    program: Program, function_name: str, loop_index: int, check_dependences: bool
) -> tuple[DependenceTest | None, tuple[int, str, str]]:
    """Every refusal of :func:`software_pipeline_loop`, decided on ``program``.

    Returns the dependence test (``None`` when skipped) and the traversal
    update as ``(index in the loop body, variable, field)`` — still valid on
    a deep copy.
    """
    loops = find_while_loops(program, function_name)
    if loop_index >= len(loops):
        raise TransformError(f"loop index {loop_index} out of range")
    loop = loops[loop_index]

    dependence: DependenceTest | None = None
    if check_dependences:
        dependence = _require_doall(
            program, function_name, loop, "loop is not pipelineable", use_adds=True
        )

    found = _find_traversal_update(loop.body)
    if found is None:
        raise TransformError("loop body has no traversal update p = p->f")
    update_idx, traversal_var, traversal_field = found
    _check_traversal_shape(loop, update_idx, traversal_var)
    work = [s for i, s in enumerate(loop.body.statements) if i != update_idx]
    if not work:
        raise TransformError("loop body consists only of the traversal update")
    # the kernel loads p->next *before* the work runs; a store to the
    # traversal field would make the prefetched link stale
    for stmt in work:
        for node in stmt.walk():
            if isinstance(node, FieldAssign) and node.field == traversal_field:
                raise TransformError(
                    f"loop body writes the traversal field {traversal_field!r}; "
                    f"the prefetched link would be stale"
                )
    return dependence, found


def check_software_pipeline(
    program: Program, function_name: str, loop_index: int = 0
) -> list[str]:
    """The legality check of :func:`software_pipeline_loop`, without the rewrite.

    For a loop already classified ``DOALL_AFTER_TRAVERSAL``: the dependence
    test is not repeated, so on such a loop this raises exactly the
    :class:`TransformError` the transform would raise and otherwise returns
    the notes it would attach; ``program`` is neither copied nor modified.
    """
    _pipeline_legality(program, function_name, loop_index, False)
    return list(_NOTES)


def software_pipeline_loop(
    program: Program, function_name: str, loop_index: int = 0
) -> PipelineResult:
    """Software-pipeline the ``loop_index``-th while loop of ``function_name``.

    The loop must pass the path-matrix dependence test and the shape checks
    of :func:`check_software_pipeline`; only then is ``program`` copied.
    """
    dependence, (update_idx, traversal_var, traversal_field) = _pipeline_legality(
        program, function_name, loop_index, True
    )

    new_program = copy.deepcopy(program)
    func = new_program.function_named(function_name)
    assert func is not None
    loop = find_while_loops(new_program, function_name)[loop_index]
    work = [s for i, s in enumerate(loop.body.statements) if i != update_idx]

    taken = {p.name for p in func.params} | {
        s.name for s in iter_statements(func.body) if isinstance(s, VarDecl)
    }
    lookahead = _fresh_name(f"next_{traversal_var}", taken)

    def load_next(into: str) -> Assign:
        return Assign(
            target=into,
            value=FieldAccess(base=Name(traversal_var), field=traversal_field),
        )

    steady_state = While(
        cond=BinOp(op="<>", left=Name(lookahead), right=NullLit()),
        body=Block(
            statements=copy.deepcopy(work)
            + [Assign(target=traversal_var, value=Name(lookahead)), load_next(lookahead)]
        ),
        line=loop.line,
    )
    pipelined = If(
        cond=BinOp(op="<>", left=Name(traversal_var), right=NullLit()),
        then_body=Block(
            statements=[
                VarDecl(name=lookahead),
                load_next(lookahead),           # prologue: prefetch the next node
                steady_state,                   # kernel
                Block(statements=copy.deepcopy(work)),  # epilogue: last node's work
            ]
        ),
        line=loop.line,
    )

    # splice the pipelined structure in place of the original loop
    _replace_statement(func.body, loop, pipelined)

    return PipelineResult(
        program=new_program,
        function_name=function_name,
        traversal_var=traversal_var,
        traversal_field=traversal_field,
        lookahead_var=lookahead,
        dependence=dependence,
        notes=list(_NOTES),
    )


def _replace_statement(block: Block, old, new) -> bool:
    """Replace ``old`` (by identity) with ``new`` anywhere inside ``block``."""
    from repro.lang.ast_nodes import For, If as IfStmt, ParallelFor, While as WhileStmt

    for i, stmt in enumerate(block.statements):
        if stmt is old:
            block.statements[i] = new
            return True
        if isinstance(stmt, Block):
            if _replace_statement(stmt, old, new):
                return True
        elif isinstance(stmt, IfStmt):
            if _replace_statement(stmt.then_body, old, new):
                return True
            if stmt.else_body is not None and _replace_statement(stmt.else_body, old, new):
                return True
        elif isinstance(stmt, (WhileStmt, For, ParallelFor)):
            if _replace_statement(stmt.body, old, new):
                return True
    return False
