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

Speculative traversability (paper section 3.2) is supported: following a
*pointer field* of NULL yields NULL instead of faulting, exactly as the
transformed Barnes–Hut loops require (the ``FOR1``/``FOR2`` loops may walk
past the end of the particle list without using the result).
Reading a *data* field of NULL is still an error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, NoReturn, Optional

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

    def get(self, name: str) -> Any:
        if name not in self.locals:
            raise RuntimeLangError(f"use of undefined variable {name!r} in {self.function}")
        return self.locals[name]

    def set(self, name: str, value: Any) -> None:
        self.locals[name] = value


class Interpreter:
    """Execute programs of the toy language over an explicit heap."""

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
        self._register_default_builtins()

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
        iterations are independent).
        """
        self._parallel_executor = executor

    def _register_default_builtins(self) -> None:
        self.builtins["print"] = self._builtin_print
        self.builtins["abs"] = abs
        self.builtins["min"] = min
        self.builtins["max"] = max
        self.builtins["sqrt"] = lambda x: float(x) ** 0.5
        self.builtins["floor"] = lambda x: int(x // 1)
        self.builtins["float_of"] = float
        self.builtins["int_of"] = int

    def _builtin_print(self, *args: Any) -> None:
        self.output.append(" ".join(str(a) for a in args))

    # -- entry points -------------------------------------------------------
    def call_function(self, name: str, *args: Any) -> Any:
        """Call the interpreted function ``name`` with already-evaluated args."""
        func = self._functions.get(name)
        if func is None:
            builtin = self.builtins.get(name)
            if builtin is not None:
                return builtin(*args)
            raise RuntimeLangError(f"call to undefined function {name!r}")
        if len(args) != len(func.params):
            raise RuntimeLangError(
                f"{name} expects {len(func.params)} arguments, got {len(args)}"
            )
        frame = Frame(function=name)
        for param, value in zip(func.params, args):
            frame.set(param.name, value)
        self.stats.calls += 1
        if self.max_call_depth is not None and self._call_depth >= self.max_call_depth:
            raise InterpreterLimitError(
                f"call depth budget of {self.max_call_depth} exhausted "
                f"(calling {name!r})",
                kind="depth",
            )
        self._call_depth += 1
        try:
            self.execute_block(func.body, frame)
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

    # -- statements ---------------------------------------------------------
    def execute_block(self, block: Block, frame: Frame) -> None:
        for stmt in block.statements:
            self.execute_statement(stmt, frame)

    def _steps_exhausted(self) -> NoReturn:
        raise InterpreterLimitError(f"step budget of {self.max_steps} exhausted", kind="steps")

    def execute_statement(self, stmt: Stmt, frame: Frame) -> None:
        stats = self.stats
        stats.statements += 1
        # statements + expressions together bound every loop shape: a
        # `while true { }` body executes no statements, but its condition is
        # re-evaluated every iteration and burns expression steps.  The test
        # is inline here and in ``evaluate``: a call per step would cost a
        # Python frame per step.
        if self.max_steps is not None and stats.statements + stats.expressions > self.max_steps:
            self._steps_exhausted()
        execute = _EXECUTE.get(type(stmt))
        if execute is None:
            raise RuntimeLangError(f"cannot execute statement {type(stmt).__name__}")
        execute(self, stmt, frame)

    def _execute_var_decl(self, stmt: VarDecl, frame: Frame) -> None:
        value = self.evaluate(stmt.init, frame) if stmt.init is not None else NULL_REF
        frame.set(stmt.name, value)

    def _execute_assign(self, stmt: Assign, frame: Frame) -> None:
        frame.set(stmt.target, self.evaluate(stmt.value, frame))

    def _execute_expr_stmt(self, stmt: ExprStmt, frame: Frame) -> None:
        self.evaluate(stmt.expr, frame)

    def _execute_return(self, stmt: Return, frame: Frame) -> None:
        value = self.evaluate(stmt.value, frame) if stmt.value is not None else None
        raise _ReturnSignal(value)

    def _execute_if(self, stmt: If, frame: Frame) -> None:
        if self._truthy(self.evaluate(stmt.cond, frame)):
            self.execute_block(stmt.then_body, frame)
        elif stmt.else_body is not None:
            self.execute_block(stmt.else_body, frame)

    def _execute_while(self, stmt: While, frame: Frame) -> None:
        while self._truthy(self.evaluate(stmt.cond, frame)):
            self.stats.loop_iterations += 1
            self.execute_block(stmt.body, frame)

    def _execute_field_assign(self, stmt: FieldAssign, frame: Frame) -> None:
        base = self.evaluate(stmt.base, frame)
        if base == NULL_REF:
            raise RuntimeLangError("field store through NULL pointer", stmt.line)
        value = self.evaluate(stmt.value, frame)
        self.stats.field_writes += 1
        if stmt.index is not None:
            index = self.evaluate(stmt.index, frame)
            array = self.heap.load(base, stmt.field)
            if not isinstance(array, list):
                raise RuntimeLangError(
                    f"indexed store to non-array field {stmt.field!r}", stmt.line
                )
            if not (0 <= index < len(array)):
                raise RuntimeLangError(
                    f"array index {index} out of bounds for field {stmt.field!r}", stmt.line
                )
            array[index] = value
        else:
            self.heap.store(base, stmt.field, value)

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
            def body() -> None:
                self.execute_block(stmt.body, frame)
        lo = self.evaluate(stmt.lo, frame)
        hi = self.evaluate(stmt.hi, frame)
        step = self.evaluate(stmt.step, frame) if stmt.step is not None else 1
        if step == 0:
            raise RuntimeLangError("for-loop step of zero", stmt.line)
        i = lo
        while (step > 0 and i <= hi) or (step < 0 and i >= hi):
            frame.set(stmt.var, i)
            self.stats.loop_iterations += 1
            body()
            i = frame.get(stmt.var) + step

    def _execute_parallel_for(self, stmt: ParallelFor, frame: Frame) -> None:
        self.stats.parallel_loops += 1
        if self._parallel_executor is not None:
            self._parallel_executor(self, stmt, frame)
            return
        # Reference semantics: a doall loop whose iterations are independent
        # computes the same result when run sequentially — with exactly the
        # ``for`` semantics (step, descending bounds, loop variable re-read
        # after the body).
        self.run_counted_loop(stmt, frame)

    # -- expressions ------------------------------------------------------------
    def evaluate(self, expr: Expr, frame: Frame) -> Any:
        stats = self.stats
        stats.expressions += 1
        if self.max_steps is not None and stats.statements + stats.expressions > self.max_steps:
            self._steps_exhausted()
        evaluate = _EVALUATE.get(type(expr))
        if evaluate is None:
            raise RuntimeLangError(f"cannot evaluate expression {type(expr).__name__}")
        return evaluate(self, expr, frame)

    def _evaluate_literal(
        self, expr: IntLit | FloatLit | BoolLit | StringLit, frame: Frame
    ) -> Any:
        return expr.value

    def _evaluate_null(self, expr: NullLit, frame: Frame) -> Any:
        return NULL_REF

    def _evaluate_name(self, expr: Name, frame: Frame) -> Any:
        return frame.get(expr.ident)

    def _evaluate_new(self, expr: New, frame: Frame) -> Any:
        return self.allocate(expr.type_name)

    def _evaluate_call(self, expr: Call, frame: Frame) -> Any:
        args = [self.evaluate(a, frame) for a in expr.args]
        return self.call_function(expr.func, *args)

    def _evaluate_array_lit(self, expr: ArrayLit, frame: Frame) -> Any:
        return [self.evaluate(e, frame) for e in expr.elements]

    def _evaluate_field_access(self, expr: FieldAccess, frame: Frame) -> Any:
        base = self.evaluate(expr.base, frame)
        if base == NULL_REF:
            if self.speculative_traversal:
                # Speculative traversability: a pointer-field load through
                # NULL yields NULL; any other load is still an error.
                return NULL_REF
            raise SpeculativeTraversalError(
                f"field read {expr.field!r} through NULL pointer", expr.line
            )
        self.stats.field_reads += 1
        return self.heap.load(base, expr.field)

    def _evaluate_index_access(self, expr: IndexAccess, frame: Frame) -> Any:
        base = self.evaluate(expr.base, frame)
        index = self.evaluate(expr.index, frame)
        if isinstance(base, list):
            if not (0 <= index < len(base)):
                raise RuntimeLangError(f"array index {index} out of bounds", expr.line)
            return base[index]
        if base == NULL_REF and self.speculative_traversal:
            return NULL_REF
        raise RuntimeLangError("indexing a non-array value", expr.line)

    def _evaluate_binop(self, expr: BinOp, frame: Frame) -> Any:
        op = expr.op
        if op == "and":
            return self._truthy(self.evaluate(expr.left, frame)) and self._truthy(
                self.evaluate(expr.right, frame)
            )
        if op == "or":
            return self._truthy(self.evaluate(expr.left, frame)) or self._truthy(
                self.evaluate(expr.right, frame)
            )
        left = self.evaluate(expr.left, frame)
        right = self.evaluate(expr.right, frame)
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if _both_ints(left, right):
                if right == 0:
                    raise RuntimeLangError("integer division by zero", expr.line)
                # C-style: truncate toward zero (Python's // floors instead,
                # so -7 / 2 must be -3, not -4)
                return -(-left // right) if (left < 0) != (right < 0) else left // right
            if right == 0:
                raise RuntimeLangError("division by zero", expr.line)
            return left / right
        if op == "%":
            if right == 0:
                raise RuntimeLangError("modulo by zero", expr.line)
            if _both_ints(left, right):
                # C-style remainder: sign of the dividend, consistent with
                # truncating division (l == (l / r) * r + l % r)
                rem = abs(left) % abs(right)
                return -rem if left < 0 else rem
            return left % right
        if op == "==":
            return left == right
        if op == "<>":
            return left != right
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
        raise RuntimeLangError(f"unknown binary operator {op!r}", expr.line)

    def _evaluate_unaryop(self, expr: UnaryOp, frame: Frame) -> Any:
        value = self.evaluate(expr.operand, frame)
        if expr.op == "-":
            return -value
        if expr.op == "not":
            return not self._truthy(value)
        raise RuntimeLangError(f"unknown unary operator {expr.op!r}", expr.line)

    @staticmethod
    def _truthy(value: Any) -> bool:
        if isinstance(value, bool):
            return value
        if value is None:
            return False
        if isinstance(value, (int, float)):
            return value != 0
        return bool(value)


# Handlers by exact node class.  No concrete AST class subclasses another, so
# ``type(node)`` alone picks the handler; every count and budget check stays
# in ``execute_statement``/``evaluate``, before the handler runs.
_EXECUTE: dict[type, Callable[[Interpreter, Any, Frame], None]] = {
    VarDecl: Interpreter._execute_var_decl,
    Assign: Interpreter._execute_assign,
    FieldAssign: Interpreter._execute_field_assign,
    ExprStmt: Interpreter._execute_expr_stmt,
    Return: Interpreter._execute_return,
    Block: Interpreter.execute_block,
    If: Interpreter._execute_if,
    While: Interpreter._execute_while,
    For: Interpreter.run_counted_loop,
    ParallelFor: Interpreter._execute_parallel_for,
}

_EVALUATE: dict[type, Callable[[Interpreter, Any, Frame], Any]] = {
    IntLit: Interpreter._evaluate_literal,
    FloatLit: Interpreter._evaluate_literal,
    BoolLit: Interpreter._evaluate_literal,
    StringLit: Interpreter._evaluate_literal,
    NullLit: Interpreter._evaluate_null,
    Name: Interpreter._evaluate_name,
    New: Interpreter._evaluate_new,
    FieldAccess: Interpreter._evaluate_field_access,
    IndexAccess: Interpreter._evaluate_index_access,
    BinOp: Interpreter._evaluate_binop,
    UnaryOp: Interpreter._evaluate_unaryop,
    Call: Interpreter._evaluate_call,
    ArrayLit: Interpreter._evaluate_array_lit,
}


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
