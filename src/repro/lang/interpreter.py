"""Reference interpreter for the toy pointer language.

The interpreter serves three purposes in the reproduction:

1. **Semantics oracle** — the parallelizing transformations
   (:mod:`repro.transform`) must be semantics preserving; tests run the
   original and the transformed program on the same inputs and compare the
   resulting heaps.
2. **Dynamic ADDS checking** — the heap it builds can be validated against an
   ADDS declaration by :mod:`repro.adds.runtime_check`.
3. **Cost accounting** — it counts executed operations, which the simulated
   multiprocessor (:mod:`repro.machine`) uses as the work metric when
   replaying strip-mined schedules.

A function is compiled on its first call into one closure per AST node
(:func:`_compiler`).  Each closure counts its node in
:class:`ExecutionStats`, tests the step budget and then does its node's
work, so a node executed costs one Python frame, and every counter and the
step at which ``max_steps`` raises are those of a node-by-node walk.

Speculative traversability (paper section 3.2) is supported: following a
*pointer field* of NULL yields NULL instead of faulting, exactly as the
transformed Barnes–Hut loops require (the ``FOR1``/``FOR2`` loops may walk
past the end of the particle list without using the result).
Reading a *data* field of NULL is still an error.
"""

from __future__ import annotations

import math
import operator
import weakref
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple, NoReturn, Optional

from repro.lang.ast_nodes import (
    ArrayLit,
    Assign,
    BinOp,
    Block,
    BoolLit,
    Call,
    Expr,
    ExprStmt,
    FieldAccess,
    FieldAssign,
    FloatLit,
    For,
    FunctionDecl,
    If,
    IndexAccess,
    IntLit,
    Name,
    New,
    NullLit,
    ParallelFor,
    Program,
    Return,
    Stmt,
    StringLit,
    TypeDecl,
    UnaryOp,
    VarDecl,
    While,
)
from repro.lang.errors import (
    InterpreterLimitError,
    RuntimeLangError,
    SpeculativeTraversalError,
)
from repro.lang.heap import Heap, NULL_REF
from repro.lang.types import scalar_type


def _both_ints(left: Any, right: Any) -> bool:
    """True ints on both sides (bools are their own type in the toy language)."""
    return (
        isinstance(left, int) and not isinstance(left, bool)
        and isinstance(right, int) and not isinstance(right, bool)
    )


class _ReturnSignal(Exception):
    """Internal control-flow signal used to unwind from ``return``."""

    def __init__(self, value: Any):
        self.value = value
        super().__init__()


@dataclass
class ExecutionStats:
    """Operation counts collected during interpretation."""

    statements: int = 0
    expressions: int = 0
    allocations: int = 0
    field_reads: int = 0
    field_writes: int = 0
    calls: int = 0
    loop_iterations: int = 0
    parallel_loops: int = 0

    def total_operations(self) -> int:
        return (
            self.statements
            + self.expressions
            + self.field_reads
            + self.field_writes
            + self.calls
        )

    def merge(self, other: "ExecutionStats") -> None:
        self.statements += other.statements
        self.expressions += other.expressions
        self.allocations += other.allocations
        self.field_reads += other.field_reads
        self.field_writes += other.field_writes
        self.calls += other.calls
        self.loop_iterations += other.loop_iterations
        self.parallel_loops += other.parallel_loops


@dataclass
class Frame:
    """One activation record: local variable bindings."""

    function: str
    locals: dict[str, Any] = field(default_factory=dict)


#: a compiled statement, block or expression: ``code(locals)`` runs it over
#: the running function's variables (and returns an expression's value)
Code = Callable[[dict], Any]


class Interpreter:
    """Execute programs of the toy language over an explicit heap.

    Each function is compiled on its first call (:func:`_compiler`), with
    the ``max_steps`` and ``speculative_traversal`` given here.  The
    compiled code and the compile rules reach the interpreter only through
    a weak reference, so an interpreter dropped by its last user is freed
    at once, with its code, its rules and its heap.
    """

    def __init__(
        self,
        program: Program,
        speculative_traversal: bool = True,
        max_steps: int | None = None,
        max_call_depth: int | None = None,
    ):
        self.program = program
        self.heap = Heap()
        self.stats = ExecutionStats()
        self.speculative_traversal = speculative_traversal
        self.max_steps = max_steps
        self.max_call_depth = max_call_depth
        self._call_depth = 0
        self.builtins: dict[str, Callable[..., Any]] = {}
        self.output: list[str] = []
        self._type_decls: dict[str, TypeDecl] = {t.name: t for t in program.types}
        self._functions: dict[str, FunctionDecl] = {f.name: f for f in program.functions}
        self._parallel_executor: Optional[
            Callable[["Interpreter", ParallelFor, Frame], None]
        ] = None
        #: function name -> its parameter names and compiled body
        self._compiled: dict[str, tuple[tuple[str, ...], Code]] = {}
        #: ``id(block)`` -> the block, held so that its id stays its own, and
        #: its compiled code
        self._blocks: dict[int, tuple[Block, Code]] = {}
        self._register_default_builtins()
        self._rules = _compiler(self)

    # -- configuration ----------------------------------------------------
    def register_builtin(self, name: str, func: Callable[..., Any]) -> None:
        """Expose a Python callable to interpreted code under ``name``."""
        self.builtins[name] = func

    def set_parallel_executor(
        self, executor: Callable[["Interpreter", ParallelFor, Frame], None]
    ) -> None:
        """Install a custom executor for ``ParallelFor`` loops.

        The machine simulator uses this hook to schedule iterations onto
        simulated processing elements; by default iterations run sequentially
        (which is the correct reference semantics of a doall loop whose
        iterations are independent).  The executor gets the loop's frame,
        whose ``locals`` are the running function's variables.
        """
        self._parallel_executor = executor

    def _register_default_builtins(self) -> None:
        output = self.output  # not a bound method: no cycle through ``self``
        self.builtins["print"] = lambda *args: output.append(" ".join(str(a) for a in args))
        self.builtins["abs"] = abs
        self.builtins["min"] = min
        self.builtins["max"] = max
        self.builtins["sqrt"] = lambda x: float(x) ** 0.5
        self.builtins["floor"] = lambda x: int(x // 1)
        self.builtins["float_of"] = float
        self.builtins["int_of"] = int

    # -- entry points -------------------------------------------------------
    def call_function(self, name: str, *args: Any) -> Any:
        """Call the interpreted function ``name`` with already-evaluated args."""
        compiled = self._compiled.get(name)
        if compiled is None:
            func = self._functions.get(name)
            if func is None:
                builtin = self.builtins.get(name)
                if builtin is not None:
                    return builtin(*args)
                raise RuntimeLangError(f"call to undefined function {name!r}")
            compiled = self._compiled[name] = (
                tuple(param.name for param in func.params),
                self._block_code(func.body, name),
            )
        params, body = compiled
        if len(args) != len(params):
            raise RuntimeLangError(
                f"{name} expects {len(params)} arguments, got {len(args)}"
            )
        local_vars = dict(zip(params, args))
        self.stats.calls += 1
        if self.max_call_depth is not None and self._call_depth >= self.max_call_depth:
            raise InterpreterLimitError(
                f"call depth budget of {self.max_call_depth} exhausted "
                f"(calling {name!r})",
                kind="depth",
            )
        self._call_depth += 1
        try:
            body(local_vars)
        except _ReturnSignal as ret:
            return ret.value
        except RecursionError:
            # unbounded interpreted recursion must surface as a typed,
            # catchable budget error, never as the host's RecursionError
            raise InterpreterLimitError(
                f"host recursion limit reached while calling {name!r}; "
                "set max_call_depth to budget recursion explicitly",
                kind="depth",
            ) from None
        finally:
            self._call_depth -= 1
        return None

    def execute_block(self, block: Block, frame: Frame) -> None:
        """Run ``block``'s statements in ``frame``."""
        self._block_code(block, frame.function)(frame.locals)

    def run_counted_loop(
        self, stmt: For | ParallelFor, frame: Frame, body=None
    ) -> None:
        """The shared reference semantics of both counted-loop forms.

        ``body`` replaces the plain body execution of one iteration — the
        machine simulator's parallel executor wraps it in cost measurement.
        Routing every executor through this one loop is what guarantees a
        simulated run can never diverge from the reference interpreter on
        step handling, descending bounds, or the loop-variable re-read.
        """
        if body is None:
            iteration = self._block_code(stmt.body, frame.function)
        else:
            def iteration(local_vars: dict) -> None:
                body()
        self._rules.counted_loop(stmt, frame.function)(frame.locals, iteration)

    def _block_code(self, block: Block, function: str) -> Code:
        """``block`` compiled, once per interpreter, as part of ``function``
        (which names it in undefined-variable errors)."""
        entry = self._blocks.get(id(block))
        if entry is None:
            entry = self._blocks[id(block)] = (block, self._rules.block(block, function))
        return entry[1]

    # -- allocation ------------------------------------------------------------
    def default_field_value(self, type_name: str, is_pointer: bool, array_size: int | None) -> Any:
        if array_size is not None:
            return [NULL_REF if is_pointer else self.default_field_value(type_name, False, None)
                    for _ in range(array_size)]
        if is_pointer:
            return NULL_REF
        scalar = scalar_type(type_name)
        if scalar is None:
            return NULL_REF
        name = str(scalar)
        if name == "int":
            return 0
        if name == "float":
            return 0.0
        if name == "bool":
            return False
        if name == "string":
            return ""
        return None

    def allocate(self, type_name: str) -> int:
        decl = self._type_decls.get(type_name)
        if decl is None:
            raise RuntimeLangError(f"allocation of unknown type {type_name!r}")
        fields = {
            f.name: self.default_field_value(f.type_name, f.is_pointer, f.array_size)
            for f in decl.fields
        }
        self.stats.allocations += 1
        return self.heap.allocate(type_name, fields)


def _truthy(value: Any) -> bool:
    if isinstance(value, bool):
        return value
    if value is None:
        return False
    if isinstance(value, (int, float)):
        return value != 0
    return bool(value)


def _nothing(local_vars: dict) -> None:
    """The code of an empty block."""


#: a binary operator that evaluates both operands and applies one function
_BINARY: dict[str, Callable[[Any, Any], Any]] = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "==": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


class _Compiler(NamedTuple):
    """The compile rules of one interpreter (see :func:`_compiler`)."""

    #: ``block(block, function)`` -> the code of a function's block
    block: Callable[[Block, str], Code]
    #: ``counted_loop(loop, function)`` -> ``run(locals, iteration)``, the
    #: iterations of a ``for`` loop, each one ``iteration(locals)``
    counted_loop: Callable[[For | ParallelFor, str], Callable[[dict, Code], None]]
    #: node class -> its compile rule
    statements: dict[type, Callable[[Any, str], Code]]
    expressions: dict[type, Callable[[Any, str], Code]]


def _compiler(interp: Interpreter) -> _Compiler:
    """Compile rules that turn each AST node into one closure.

    A compiled node is ``code(locals)``, over the running function's
    variables.  It counts itself in ``interp.stats`` and tests the step
    budget inline, then does its work, calling the codes of its children:
    one Python frame per node executed.  The rules are closures of this one
    call, so every code they make shares its cells for the interpreter's
    state (the counters, the budget, the heap) instead of holding copies.
    They reach the interpreter itself (to call a function, allocate a
    record, run a ``ParallelFor`` or find a rule) through a weak reference:
    the interpreter holds its code and its rules, and a strong reference
    back would make a cycle that only the garbage collector frees.
    """
    stats = interp.stats
    # statements + expressions together bound every loop shape: a
    # `while true { }` body executes no statements, but its condition is
    # re-evaluated every iteration and burns expression steps
    max_steps = interp.max_steps
    limit = max_steps if max_steps is not None else math.inf
    speculative = interp.speculative_traversal
    load = interp.heap.load
    store = interp.heap.store
    owner = weakref.ref(interp)

    def exhausted() -> NoReturn:
        raise InterpreterLimitError(f"step budget of {max_steps} exhausted", kind="steps")

    def block(node: Block, function: str) -> Code:
        codes = tuple(statement(s, function) for s in node.statements)
        if not codes:
            return _nothing
        if len(codes) == 1:
            return codes[0]

        def run(local_vars: dict) -> None:
            for code in codes:
                code(local_vars)
        return run

    # the rule tables are reached through the interpreter too: tables held
    # here would hold the rules that call these two, a cycle
    def statement(node: Stmt, function: str) -> Code:
        rule = owner()._rules.statements.get(type(node), unknown_statement)
        return rule(node, function)

    def expression(node: Expr, function: str) -> Code:
        rule = owner()._rules.expressions.get(type(node), unknown_expression)
        return rule(node, function)

    # -- statements ---------------------------------------------------------
    def unknown_statement(node: Stmt, function: str) -> Code:
        kind = type(node).__name__

        def run(local_vars: dict) -> None:
            stats.statements += 1
            if stats.statements + stats.expressions > limit:
                exhausted()
            raise RuntimeLangError(f"cannot execute statement {kind}")
        return run

    def var_decl(node: VarDecl, function: str) -> Code:
        name = node.name
        if node.init is None:
            def run(local_vars: dict) -> None:
                stats.statements += 1
                if stats.statements + stats.expressions > limit:
                    exhausted()
                local_vars[name] = NULL_REF
            return run
        init = expression(node.init, function)

        def run(local_vars: dict) -> None:
            stats.statements += 1
            if stats.statements + stats.expressions > limit:
                exhausted()
            local_vars[name] = init(local_vars)
        return run

    def assign(node: Assign, function: str) -> Code:
        target = node.target
        value = expression(node.value, function)

        def run(local_vars: dict) -> None:
            stats.statements += 1
            if stats.statements + stats.expressions > limit:
                exhausted()
            local_vars[target] = value(local_vars)
        return run

    def expr_stmt(node: ExprStmt, function: str) -> Code:
        expr = expression(node.expr, function)

        def run(local_vars: dict) -> None:
            stats.statements += 1
            if stats.statements + stats.expressions > limit:
                exhausted()
            expr(local_vars)
        return run

    def return_stmt(node: Return, function: str) -> Code:
        value = expression(node.value, function) if node.value is not None else None

        def run(local_vars: dict) -> None:
            stats.statements += 1
            if stats.statements + stats.expressions > limit:
                exhausted()
            raise _ReturnSignal(value(local_vars) if value is not None else None)
        return run

    def block_stmt(node: Block, function: str) -> Code:
        body = block(node, function)

        def run(local_vars: dict) -> None:
            stats.statements += 1
            if stats.statements + stats.expressions > limit:
                exhausted()
            body(local_vars)
        return run

    def if_stmt(node: If, function: str) -> Code:
        cond = expression(node.cond, function)
        then_body = block(node.then_body, function)
        else_body = block(node.else_body, function) if node.else_body is not None else None

        def run(local_vars: dict) -> None:
            stats.statements += 1
            if stats.statements + stats.expressions > limit:
                exhausted()
            test = cond(local_vars)
            if test is True or (test is not False and _truthy(test)):
                then_body(local_vars)
            elif else_body is not None:
                else_body(local_vars)
        return run

    def while_stmt(node: While, function: str) -> Code:
        cond = expression(node.cond, function)
        body = block(node.body, function)

        def run(local_vars: dict) -> None:
            stats.statements += 1
            if stats.statements + stats.expressions > limit:
                exhausted()
            test = cond(local_vars)
            while test is True or (test is not False and _truthy(test)):
                stats.loop_iterations += 1
                body(local_vars)
                test = cond(local_vars)
        return run

    def field_assign(node: FieldAssign, function: str) -> Code:
        base = expression(node.base, function)
        value = expression(node.value, function)
        name = node.field
        line = node.line
        if node.index is None:
            def run(local_vars: dict) -> None:
                stats.statements += 1
                if stats.statements + stats.expressions > limit:
                    exhausted()
                ref = base(local_vars)
                if ref == NULL_REF:
                    raise RuntimeLangError("field store through NULL pointer", line)
                stored = value(local_vars)
                stats.field_writes += 1
                store(ref, name, stored)
            return run
        index = expression(node.index, function)

        def run(local_vars: dict) -> None:
            stats.statements += 1
            if stats.statements + stats.expressions > limit:
                exhausted()
            ref = base(local_vars)
            if ref == NULL_REF:
                raise RuntimeLangError("field store through NULL pointer", line)
            stored = value(local_vars)
            stats.field_writes += 1
            at = index(local_vars)
            array = load(ref, name)
            if not isinstance(array, list):
                raise RuntimeLangError(f"indexed store to non-array field {name!r}", line)
            if not (0 <= at < len(array)):
                raise RuntimeLangError(
                    f"array index {at} out of bounds for field {name!r}", line
                )
            array[at] = stored
        return run

    def counted_loop(node: For | ParallelFor, function: str) -> Callable[[dict, Code], None]:
        lo = expression(node.lo, function)
        hi = expression(node.hi, function)
        step = expression(node.step, function) if node.step is not None else None
        var = node.var
        line = node.line

        def run(local_vars: dict, iteration: Code) -> None:
            i = lo(local_vars)
            end = hi(local_vars)
            by = step(local_vars) if step is not None else 1
            if by == 0:
                raise RuntimeLangError("for-loop step of zero", line)
            while (by > 0 and i <= end) or (by < 0 and i >= end):
                local_vars[var] = i
                stats.loop_iterations += 1
                iteration(local_vars)
                i = local_vars[var] + by
        return run

    def for_stmt(node: For, function: str) -> Code:
        loop = counted_loop(node, function)
        body = block(node.body, function)

        def run(local_vars: dict) -> None:
            stats.statements += 1
            if stats.statements + stats.expressions > limit:
                exhausted()
            loop(local_vars, body)
        return run

    def parallel_for(node: ParallelFor, function: str) -> Code:
        loop = counted_loop(node, function)
        # an executor runs the body through ``execute_block``, which finds it
        body = owner()._block_code(node.body, function)

        def run(local_vars: dict) -> None:
            stats.statements += 1
            if stats.statements + stats.expressions > limit:
                exhausted()
            stats.parallel_loops += 1
            interpreter = owner()
            executor = interpreter._parallel_executor
            if executor is not None:
                executor(interpreter, node, Frame(function, local_vars))
            else:
                # Reference semantics: a doall loop whose iterations are
                # independent computes the same result when run sequentially
                # — with exactly the ``for`` semantics
                loop(local_vars, body)
        return run

    # -- expressions ------------------------------------------------------------
    def unknown_expression(node: Expr, function: str) -> Code:
        kind = type(node).__name__

        def run(local_vars: dict) -> Any:
            stats.expressions += 1
            if stats.statements + stats.expressions > limit:
                exhausted()
            raise RuntimeLangError(f"cannot evaluate expression {kind}")
        return run

    def literal(node: IntLit | FloatLit | BoolLit | StringLit | NullLit, function: str) -> Code:
        value = NULL_REF if isinstance(node, NullLit) else node.value

        def run(local_vars: dict) -> Any:
            stats.expressions += 1
            if stats.statements + stats.expressions > limit:
                exhausted()
            return value
        return run

    def name(node: Name, function: str) -> Code:
        ident = node.ident

        def run(local_vars: dict) -> Any:
            stats.expressions += 1
            if stats.statements + stats.expressions > limit:
                exhausted()
            try:
                return local_vars[ident]
            except KeyError:
                raise RuntimeLangError(
                    f"use of undefined variable {ident!r} in {function}"
                ) from None
        return run

    def new(node: New, function: str) -> Code:
        type_name = node.type_name

        def run(local_vars: dict) -> Any:
            stats.expressions += 1
            if stats.statements + stats.expressions > limit:
                exhausted()
            return owner().allocate(type_name)
        return run

    def call_expr(node: Call, function: str) -> Code:
        callee = node.func
        args = tuple(expression(a, function) for a in node.args)

        def run(local_vars: dict) -> Any:
            stats.expressions += 1
            if stats.statements + stats.expressions > limit:
                exhausted()
            values = []
            for arg in args:
                values.append(arg(local_vars))
            return owner().call_function(callee, *values)
        return run

    def array_lit(node: ArrayLit, function: str) -> Code:
        elements = tuple(expression(e, function) for e in node.elements)

        def run(local_vars: dict) -> Any:
            stats.expressions += 1
            if stats.statements + stats.expressions > limit:
                exhausted()
            values = []
            for element in elements:
                values.append(element(local_vars))
            return values
        return run

    def field_access(node: FieldAccess, function: str) -> Code:
        base = expression(node.base, function)
        name = node.field
        line = node.line

        def run(local_vars: dict) -> Any:
            stats.expressions += 1
            if stats.statements + stats.expressions > limit:
                exhausted()
            ref = base(local_vars)
            if ref == NULL_REF:
                if speculative:
                    # Speculative traversability: a pointer-field load through
                    # NULL yields NULL; any other load is still an error.
                    return NULL_REF
                raise SpeculativeTraversalError(
                    f"field read {name!r} through NULL pointer", line
                )
            stats.field_reads += 1
            return load(ref, name)
        return run

    def index_access(node: IndexAccess, function: str) -> Code:
        base = expression(node.base, function)
        index = expression(node.index, function)
        line = node.line

        def run(local_vars: dict) -> Any:
            stats.expressions += 1
            if stats.statements + stats.expressions > limit:
                exhausted()
            array = base(local_vars)
            at = index(local_vars)
            if isinstance(array, list):
                if not (0 <= at < len(array)):
                    raise RuntimeLangError(f"array index {at} out of bounds", line)
                return array[at]
            if array == NULL_REF and speculative:
                return NULL_REF
            raise RuntimeLangError("indexing a non-array value", line)
        return run

    def binop(node: BinOp, function: str) -> Code:
        op = node.op
        left = expression(node.left, function)
        right = expression(node.right, function)
        line = node.line
        apply = _BINARY.get(op)
        if apply is not None:
            def run(local_vars: dict) -> Any:
                stats.expressions += 1
                if stats.statements + stats.expressions > limit:
                    exhausted()
                return apply(left(local_vars), right(local_vars))
        elif op == "and":
            def run(local_vars: dict) -> Any:
                stats.expressions += 1
                if stats.statements + stats.expressions > limit:
                    exhausted()
                return _truthy(left(local_vars)) and _truthy(right(local_vars))
        elif op == "or":
            def run(local_vars: dict) -> Any:
                stats.expressions += 1
                if stats.statements + stats.expressions > limit:
                    exhausted()
                return _truthy(left(local_vars)) or _truthy(right(local_vars))
        elif op == "/":
            def run(local_vars: dict) -> Any:
                stats.expressions += 1
                if stats.statements + stats.expressions > limit:
                    exhausted()
                dividend = left(local_vars)
                divisor = right(local_vars)
                if _both_ints(dividend, divisor):
                    if divisor == 0:
                        raise RuntimeLangError("integer division by zero", line)
                    # C-style: truncate toward zero (Python's // floors
                    # instead, so -7 / 2 must be -3, not -4)
                    if (dividend < 0) != (divisor < 0):
                        return -(-dividend // divisor)
                    return dividend // divisor
                if divisor == 0:
                    raise RuntimeLangError("division by zero", line)
                return dividend / divisor
        elif op == "%":
            def run(local_vars: dict) -> Any:
                stats.expressions += 1
                if stats.statements + stats.expressions > limit:
                    exhausted()
                dividend = left(local_vars)
                divisor = right(local_vars)
                if divisor == 0:
                    raise RuntimeLangError("modulo by zero", line)
                if _both_ints(dividend, divisor):
                    # C-style remainder: sign of the dividend, consistent
                    # with truncating division (l == (l / r) * r + l % r)
                    rem = abs(dividend) % abs(divisor)
                    return -rem if dividend < 0 else rem
                return dividend % divisor
        else:
            def run(local_vars: dict) -> Any:
                stats.expressions += 1
                if stats.statements + stats.expressions > limit:
                    exhausted()
                left(local_vars)
                right(local_vars)
                raise RuntimeLangError(f"unknown binary operator {op!r}", line)
        return run

    def unaryop(node: UnaryOp, function: str) -> Code:
        op = node.op
        operand = expression(node.operand, function)
        line = node.line

        def run(local_vars: dict) -> Any:
            stats.expressions += 1
            if stats.statements + stats.expressions > limit:
                exhausted()
            value = operand(local_vars)
            if op == "-":
                return -value
            if op == "not":
                return not _truthy(value)
            raise RuntimeLangError(f"unknown unary operator {op!r}", line)
        return run

    # No concrete AST class subclasses another, so ``type(node)`` alone
    # picks the rule.
    statement_rules: dict[type, Callable[[Any, str], Code]] = {
        VarDecl: var_decl,
        Assign: assign,
        FieldAssign: field_assign,
        ExprStmt: expr_stmt,
        Return: return_stmt,
        Block: block_stmt,
        If: if_stmt,
        While: while_stmt,
        For: for_stmt,
        ParallelFor: parallel_for,
    }
    expression_rules: dict[type, Callable[[Any, str], Code]] = {
        IntLit: literal,
        FloatLit: literal,
        BoolLit: literal,
        StringLit: literal,
        NullLit: literal,
        Name: name,
        New: new,
        FieldAccess: field_access,
        IndexAccess: index_access,
        BinOp: binop,
        UnaryOp: unaryop,
        Call: call_expr,
        ArrayLit: array_lit,
    }
    return _Compiler(block, counted_loop, statement_rules, expression_rules)


def run_program(
    program: Program,
    entry: str = "main",
    args: tuple[Any, ...] = (),
    speculative_traversal: bool = True,
    builtins: dict[str, Callable[..., Any]] | None = None,
    max_steps: int | None = None,
    max_call_depth: int | None = None,
) -> tuple[Any, Interpreter]:
    """Convenience wrapper: interpret ``entry`` and return (result, interpreter)."""
    interp = Interpreter(
        program,
        speculative_traversal=speculative_traversal,
        max_steps=max_steps,
        max_call_depth=max_call_depth,
    )
    if builtins:
        for name, func in builtins.items():
            interp.register_builtin(name, func)
    result = interp.call_function(entry, *args)
    return result, interp
