"""Loop unrolling for pointer traversal loops (cited from [HG92]).

Unrolling a traversal loop by a factor ``k`` replicates the body ``k`` times,
renaming nothing but letting the traversal update carry the pointer forward
between copies::

    while p <> NULL              while p <> NULL
    { work(p);                   { work(p);
      p = p->next;        =>       p = p->next;
    }                              if p <> NULL { work(p); p = p->next; }
                                   ... (k-1 guarded copies)
                                 }

The guards on the 2nd..k-th copies are required because the list length need
not be a multiple of ``k``; each guard repeats the loop's *own* condition —
guarding with a mere NULL check would run the extra copies for a loop such
as ``while p->coef > 0`` past its actual exit point.  When the structure is
speculatively traversable *and* the work is known to be harmless on a NULL
node the guards could be dropped; we keep them for a semantics-preserving
transformation.

The transformation is legal for any loop (it does not reorder work between
iterations), but it is *useful* — exposes instruction-level parallelism —
exactly when the dependence test shows the per-node work of consecutive
iterations to be independent, which is the property ADDS establishes.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from repro.lang.ast_nodes import Block, Call, If, New, Program
from repro.transform.dependence import find_while_loops
from repro.transform.stripmine import TransformError, _find_traversal_update


@dataclass
class UnrollResult:
    """Outcome of unrolling one traversal loop."""

    program: Program
    function_name: str
    factor: int
    traversal_var: str
    traversal_field: str
    notes: list[str] = field(default_factory=list)

    def describe(self) -> str:
        return (
            f"unrolled loop in {self.function_name} by factor {self.factor} "
            f"(traversal {self.traversal_var}->{self.traversal_field})"
        )


#: the note an applied unroll carries
_NOTE = (
    "copies 2..k are guarded by the loop's own condition because the "
    "trip count need not be a multiple of the unroll factor"
)


def _unroll_legality(
    program: Program, function_name: str, loop_index: int
) -> tuple[str, str]:
    """Every refusal of :func:`unroll_loop` but a bad factor, decided on
    ``program`` itself.

    Returns the loop's traversal variable and field.
    """
    loops = find_while_loops(program, function_name)
    if loop_index >= len(loops):
        raise TransformError(f"loop index {loop_index} out of range")
    loop = loops[loop_index]
    found = _find_traversal_update(loop.body)
    if found is None:
        raise TransformError("loop body has no traversal update p = p->f")
    # the guards re-evaluate the loop condition between body copies, so the
    # condition must be pure — a call could observe the extra evaluation
    if any(isinstance(n, (Call, New)) for n in loop.cond.walk()):
        raise TransformError(
            "loop condition contains a call or allocation; unrolling would "
            "re-evaluate its side effects"
        )
    _idx, traversal_var, traversal_field = found
    return traversal_var, traversal_field


def check_unroll(program: Program, function_name: str, loop_index: int = 0) -> list[str]:
    """The legality check of :func:`unroll_loop`, without the rewrite.

    Raises the :class:`TransformError` the transform would raise for any
    factor of at least 2 and otherwise returns the notes it would attach;
    ``program`` is neither copied nor modified.
    """
    _unroll_legality(program, function_name, loop_index)
    return [_NOTE]


def unroll_loop(
    program: Program, function_name: str, factor: int = 4, loop_index: int = 0
) -> UnrollResult:
    """Unroll the ``loop_index``-th while loop of ``function_name`` ``factor`` times.

    The copy is made only once :func:`check_unroll`'s checks have passed.
    """
    if factor < 2:
        raise TransformError("unroll factor must be at least 2")
    traversal_var, traversal_field = _unroll_legality(program, function_name, loop_index)

    new_program = copy.deepcopy(program)
    loop = find_while_loops(new_program, function_name)[loop_index]

    original_body = list(loop.body.statements)
    new_statements = list(copy.deepcopy(original_body))
    for _ in range(factor - 1):
        guarded = If(
            # the loop's own condition, not just `p <> NULL`: the 2nd..k-th
            # copies must stop exactly where the original loop would have
            cond=copy.deepcopy(loop.cond),
            then_body=Block(statements=copy.deepcopy(original_body)),
        )
        new_statements.append(guarded)
    loop.body = Block(statements=new_statements, line=loop.body.line)

    return UnrollResult(
        program=new_program,
        function_name=function_name,
        factor=factor,
        traversal_var=traversal_var,
        traversal_field=traversal_field,
        notes=[_NOTE],
    )
