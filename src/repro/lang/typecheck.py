"""A lightweight static checker / type inferencer for the toy language.

Local variables and parameters are declared without types (as in the paper's
pseudo-code), so this pass performs a simple flow-insensitive inference:

* a variable assigned ``new T`` or ``q->f`` (where ``f`` is a pointer field of
  a known record) is a pointer to the appropriate record type;
* a variable assigned another pointer variable inherits its type;
* variables only used with arithmetic are numeric.

A call's type is the callee's inferred return type, so functions are
inferred bottom-up over the call graph's strongly connected components
(callees first, the members of one component in name order).  A function's
environment then depends only on its own body, the type declarations and
its callees' return types — not on where the functions sit in the source —
and a checker handed the return types of callees declared elsewhere
(``external_returns``) infers a subset of a program's functions exactly as
it would infer them within the whole program.

The result — a :class:`TypeEnvironment` per function — is consumed by the
path-matrix analysis (to know which variables are pointer variables and to
which record type they point) and by the interpreter (for diagnostics only;
execution itself is dynamically typed).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lang.ast_nodes import (
    ArrayLit,
    Assign,
    BinOp,
    BoolLit,
    Call,
    Expr,
    FieldAccess,
    FieldAssign,
    FloatLit,
    For,
    FunctionDecl,
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
    iter_statements,
)
from repro.lang.callgraph import condensed_sccs
from repro.lang.errors import TypeCheckError
from repro.lang.types import (
    BOOL,
    FLOAT,
    INT,
    NULL_POINTER,
    STRING,
    ArrayType,
    PointerType,
    RecordType,
    Type,
    scalar_type,
    type_from_name,
    type_from_string,
)


@dataclass
class TypeEnvironment:
    """Inferred types of locals/params for one function."""

    function: str
    types: dict[str, Type] = field(default_factory=dict)

    def pointer_variables(self) -> set[str]:
        return {name for name, ty in self.types.items() if ty.is_pointer()}

    def pointee_record(self, name: str) -> str | None:
        ty = self.types.get(name)
        if isinstance(ty, PointerType):
            return ty.target.name
        return None

    def get(self, name: str) -> Type | None:
        return self.types.get(name)


@dataclass
class CheckResult:
    """Output of :func:`check_program`."""

    program: Program
    environments: dict[str, TypeEnvironment] = field(default_factory=dict)
    #: the checker that produced this result (answers return-type queries)
    checker: "TypeChecker | None" = field(default=None, repr=False, compare=False)

    def env(self, function: str) -> TypeEnvironment:
        return self.environments[function]


class TypeChecker:
    """Checks declarations for consistency and infers variable types."""

    def __init__(
        self, program: Program, external_returns: dict[str, str | None] | None = None
    ):
        self.program = program
        self.result = CheckResult(program=program, checker=self)
        self._functions: dict[str, FunctionDecl] = {}
        for func in program.functions:
            self._functions.setdefault(func.name, func)
        #: return types (as ``str(type)``) of callees declared outside
        #: ``program``, as :func:`inferred_return_type` reports them
        self._external = {
            name: None if text is None else type_from_string(text)
            for name, text in (external_returns or {}).items()
        }
        self._owners: dict[str, list[str]] = {}
        #: return types of functions whose environment is final
        self._returns: dict[str, Type | None] = {}

    # -- declaration-level checks -------------------------------------------
    def check(self) -> CheckResult:
        self._check_type_decls()
        self._check_function_names()
        order = [f.name for f in self.program.functions]
        scans = {name: self._scan(func) for name, func in self._functions.items()}
        callees = {name: scan[2] for name, scan in scans.items()}
        environments = self.result.environments
        for members in condensed_sccs(callees, order):
            for name in members:
                statements, dereferences, _ = scans[name]
                environments[name] = self._infer_function(
                    name, statements, dereferences
                )
        # report the environments in declaration order
        self.result.environments = {name: environments[name] for name in order}
        return self.result

    def _check_type_decls(self) -> None:
        seen: set[str] = set()
        for decl in self.program.types:
            if decl.name in seen:
                raise TypeCheckError(f"duplicate type declaration {decl.name!r}", decl.line)
            seen.add(decl.name)
        known = seen | {"int", "float", "bool", "string", "void"}
        for decl in self.program.types:
            field_names: set[str] = set()
            for f in decl.fields:
                if f.name in field_names:
                    raise TypeCheckError(
                        f"duplicate field {f.name!r} in type {decl.name!r}", f.line
                    )
                field_names.add(f.name)
                if f.type_name not in known:
                    raise TypeCheckError(
                        f"field {decl.name}.{f.name} has unknown type {f.type_name!r}",
                        f.line,
                    )
                if f.is_pointer and scalar_type(f.type_name) is not None:
                    raise TypeCheckError(
                        f"field {decl.name}.{f.name}: pointers to scalars are not supported",
                        f.line,
                    )
                if f.adds is not None and not f.is_pointer:
                    raise TypeCheckError(
                        f"field {decl.name}.{f.name}: ADDS annotations only apply to pointer fields",
                        f.line,
                    )
            self._check_adds(decl)

    @staticmethod
    def _check_adds(decl: TypeDecl) -> None:
        """The ADDS rules of section 3.1, which the analysis trusts every
        declaration it models to keep."""
        dimensions = set(decl.adds_dimensions())
        for a, b in decl.independences:
            if a == b:
                raise TypeCheckError(
                    f"type {decl.name}: independence {a}||{b} must relate two "
                    "distinct dimensions",
                    decl.line,
                )
            for d in (a, b):
                if d not in dimensions:
                    raise TypeCheckError(
                        f"type {decl.name}: independence {a}||{b} names "
                        f"undeclared dimension {d!r}",
                        decl.line,
                    )
        for f in decl.fields:
            spec = f.adds
            if spec is not None and spec.dimension not in dimensions:
                raise TypeCheckError(
                    f"field {decl.name}.{f.name} traverses undeclared dimension "
                    f"{spec.dimension!r}",
                    f.line,
                )
            if spec is not None and spec.unique and spec.direction != "forward":
                raise TypeCheckError(
                    f"field {decl.name}.{f.name}: 'uniquely' applies only to "
                    f"'forward', not {spec.direction!r}",
                    f.line,
                )
            if f.is_pointer and f.type_name == decl.name and f.array_size == 0:
                raise TypeCheckError(
                    f"field {decl.name}.{f.name}: a pointer array needs at least "
                    "one element",
                    f.line,
                )

    def _check_function_names(self) -> None:
        seen: set[str] = set()
        for func in self.program.functions:
            if func.name in seen:
                raise TypeCheckError(f"duplicate function {func.name!r}", func.line)
            seen.add(func.name)
            param_names: set[str] = set()
            for p in func.params:
                if p.name in param_names:
                    raise TypeCheckError(
                        f"duplicate parameter {p.name!r} in {func.name}", p.line
                    )
                param_names.add(p.name)

    # -- inference -----------------------------------------------------------
    def _field_owners(self, field_name: str) -> list[str]:
        """Record types declaring a field named ``field_name``."""
        owners = self._owners.get(field_name)
        if owners is None:
            owners = self._owners[field_name] = [
                t.name for t in self.program.types if t.field_named(field_name) is not None
            ]
        return owners

    def _scan(
        self, func: FunctionDecl
    ) -> tuple[list[Stmt], list[list[tuple[str, str]]], set[str]]:
        """One walk over ``func``: its statements, each one's ``v->f``
        dereferences in order, and the functions of the program it calls."""
        statements = list(iter_statements(func.body))
        dereferences: list[list[tuple[str, str]]] = []
        callees: set[str] = set()
        for stmt in statements:
            nodes = list(stmt.walk())
            if isinstance(stmt, FieldAssign):
                nodes.append(FieldAccess(base=stmt.base, field=stmt.field))
            pairs: list[tuple[str, str]] = []
            for node in nodes:
                if isinstance(node, FieldAccess) and isinstance(node.base, Name):
                    pairs.append((node.base.ident, node.field))
                elif isinstance(node, Call) and node.func in self._functions:
                    callees.add(node.func)
            dereferences.append(pairs)
        return statements, dereferences, callees

    def _infer_function(
        self,
        name: str,
        statements: list[Stmt],
        dereferences: list[list[tuple[str, str]]],
    ) -> TypeEnvironment:
        env = TypeEnvironment(function=name)
        # iterate to a (small) fixed point: pointer-ness propagates through copies
        for _ in range(6):
            changed = False
            for stmt, pairs in zip(statements, dereferences):
                changed |= self._infer_statement(stmt, env)
                changed |= self._infer_from_dereferences(pairs, env)
            if not changed:
                break
        return env

    def _infer_from_dereferences(
        self, pairs: list[tuple[str, str]], env: TypeEnvironment
    ) -> bool:
        """Mark variables used as ``v->f`` as pointers to the field's owner type.

        When exactly one declared record type has a field named ``f`` the
        pointee is unambiguous; otherwise the variable is still recorded as a
        pointer, but to an unknown record (``__any__``).
        """
        changed = False
        for name, field_name in pairs:
            current = env.types.get(name)
            if isinstance(current, PointerType) and current.target.name not in (
                "__null__",
                "__any__",
            ):
                continue
            owners = self._field_owners(field_name)
            if len(owners) == 1:
                changed |= self._force(env, name, PointerType(RecordType(owners[0])))
            else:
                changed |= self._force(env, name, PointerType(RecordType("__any__")))
        return changed

    def _force(self, env: TypeEnvironment, name: str, ty: Type) -> bool:
        current = env.types.get(name)
        if current == ty:
            return False
        if isinstance(current, PointerType) and current.target.name not in (
            "__null__",
            "__any__",
        ):
            if isinstance(ty, PointerType) and ty.target.name == "__any__":
                return False
        env.types[name] = ty
        return True

    def _record_field_type(self, record_name: str, field_name: str) -> Type | None:
        decl = self.program.type_named(record_name)
        if decl is None:
            return None
        fdecl = decl.field_named(field_name)
        if fdecl is None:
            return None
        return type_from_name(fdecl.type_name, fdecl.is_pointer, fdecl.array_size)

    def _expr_type(self, expr: Expr, env: TypeEnvironment) -> Type | None:
        if isinstance(expr, IntLit):
            return INT
        if isinstance(expr, FloatLit):
            return FLOAT
        if isinstance(expr, BoolLit):
            return BOOL
        if isinstance(expr, StringLit):
            return STRING
        if isinstance(expr, NullLit):
            return NULL_POINTER
        if isinstance(expr, Name):
            return env.types.get(expr.ident)
        if isinstance(expr, New):
            return PointerType(RecordType(expr.type_name))
        if isinstance(expr, FieldAccess):
            base_ty = self._expr_type(expr.base, env)
            if isinstance(base_ty, PointerType):
                return self._record_field_type(base_ty.target.name, expr.field)
            return None
        if isinstance(expr, IndexAccess):
            base_ty = self._expr_type(expr.base, env)
            if isinstance(base_ty, ArrayType):
                return base_ty.element
            return None
        if isinstance(expr, BinOp):
            if expr.op in ("==", "<>", "<", "<=", ">", ">=", "and", "or"):
                return BOOL
            lt = self._expr_type(expr.left, env)
            rt = self._expr_type(expr.right, env)
            if FLOAT in (lt, rt):
                return FLOAT
            if lt is not None:
                return lt
            return rt
        if isinstance(expr, UnaryOp):
            if expr.op == "not":
                return BOOL
            return self._expr_type(expr.operand, env)
        if isinstance(expr, Call):
            return self._call_return_type(expr, env)
        if isinstance(expr, ArrayLit):
            if expr.elements:
                el = self._expr_type(expr.elements[0], env)
                if el is not None:
                    return ArrayType(el, len(expr.elements))
            return None
        return None

    def _call_return_type(self, call: Call, env: TypeEnvironment) -> Type | None:
        callee = self._functions.get(call.func)
        if callee is None:
            return self._external.get(call.func)
        return self.return_type(callee)

    def return_type(self, callee: FunctionDecl) -> Type | None:
        """The type of a call to ``callee``: its first return value whose type
        is known, read in the callee's environment once that is inferred
        (one level, no recursion)."""
        if callee.name in self._returns:
            return self._returns[callee.name]
        callee_env = self.result.environments.get(callee.name)
        ty = self._first_return_type(callee, callee_env)
        if callee_env is not None:
            self._returns[callee.name] = ty
        return ty

    def _first_return_type(
        self, callee: FunctionDecl, callee_env: TypeEnvironment | None
    ) -> Type | None:
        for stmt in iter_statements(callee.body):
            if isinstance(stmt, Return) and stmt.value is not None:
                if callee_env is not None:
                    ty = self._expr_type(stmt.value, callee_env)
                    if ty is not None:
                        return ty
                if isinstance(stmt.value, New):
                    return PointerType(RecordType(stmt.value.type_name))
        return None

    def _merge(self, env: TypeEnvironment, name: str, ty: Type | None) -> bool:
        if ty is None:
            return False
        current = env.types.get(name)
        if current is None or current == NULL_POINTER:
            if current != ty:
                env.types[name] = ty
                return True
            return False
        if isinstance(current, PointerType) and isinstance(ty, PointerType):
            if current.target.name == "__null__" and ty.target.name != "__null__":
                env.types[name] = ty
                return True
        return False

    def _infer_statement(self, stmt: Stmt, env: TypeEnvironment) -> bool:
        changed = False
        if isinstance(stmt, VarDecl):
            if stmt.init is not None:
                changed |= self._merge(env, stmt.name, self._expr_type(stmt.init, env))
            elif stmt.name not in env.types:
                pass  # type unknown until first assignment
        elif isinstance(stmt, Assign):
            changed |= self._merge(env, stmt.target, self._expr_type(stmt.value, env))
            # backward propagation through pointer copies: in ``p = head`` a
            # pointer-typed ``p`` implies ``head`` is a pointer of the same type
            if isinstance(stmt.value, Name):
                target_ty = env.types.get(stmt.target)
                if isinstance(target_ty, PointerType) and target_ty.target.name not in (
                    "__null__",
                ):
                    changed |= self._merge(env, stmt.value.ident, target_ty)
        elif isinstance(stmt, (For, ParallelFor)):
            changed |= self._merge(env, stmt.var, INT)
        elif isinstance(stmt, FieldAssign):
            base_ty = self._expr_type(stmt.base, env)
            if base_ty is None and isinstance(stmt.base, Name):
                # dereferencing implies pointer-hood; record type unknown
                pass
        return changed


def check_program(
    program: Program, external_returns: dict[str, str | None] | None = None
) -> CheckResult:
    """Run declaration checks and type inference over ``program``.

    ``external_returns`` gives the inferred return types of functions that
    ``program`` calls but does not declare (see :class:`TypeChecker`).
    """
    return TypeChecker(program, external_returns).check()


def inferred_return_type(
    program: Program, result: CheckResult, name: str
) -> str | None:
    """The type a call to ``name`` is inferred to have, as a stable string.

    This is the one ingredient of a caller's analysis that flows from a
    callee *without* passing through its effect summary: ``_call_return_type``
    reads the callee's return statements, so the callee's return type shapes
    the caller's type environment.  The incremental engine therefore folds
    this value into the callee's content-addressed summary artifact — an
    edit that changes it must invalidate callers even when the effect summary
    is untouched.  Returns ``None`` when nothing can be inferred (matching a
    call site's inference result).
    """
    checker = result.checker
    if checker is None:
        checker = TypeChecker(program)
        checker.result = result
    func = checker._functions.get(name)
    if func is None:
        return None
    ty = checker.return_type(func)
    return None if ty is None else str(ty)
