"""Abstract syntax tree for the toy pointer language.

Nodes are plain dataclasses.  Every node carries an optional source line so
that analysis results (e.g. "the abstraction is broken at line 12") can be
reported against the original program text.

The AST intentionally mirrors the statement forms the paper's pointer rules
distinguish (section 3.3):

* ``p = q``                    — :class:`Assign` with a :class:`Name` rhs
* ``p = q->f``                 — :class:`Assign` with a :class:`FieldAccess` rhs
* ``p->f = q``                 — :class:`FieldAssign`
* ``p = new T`` / ``p = NULL`` — :class:`Assign` with :class:`New` / :class:`NullLit`
* traversal loops, conditionals, calls, returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Union


# ---------------------------------------------------------------------------
# base classes
# ---------------------------------------------------------------------------
@dataclass
class Node:
    """Common base for all AST nodes."""

    def children(self) -> Iterator["Node"]:
        """Yield directly contained AST nodes (used by generic walkers)."""
        return iter(())

    def walk(self) -> Iterator["Node"]:
        """Pre-order traversal of this subtree including ``self``."""
        yield self
        for child in self.children():
            yield from child.walk()


@dataclass
class Expr(Node):
    """Base class for expressions."""

    def __str__(self) -> str:
        """The expression as source text (:func:`repro.lang.pretty.unparse`)."""
        from repro.lang.pretty import unparse

        return unparse(self)


@dataclass
class Stmt(Node):
    """Base class for statements."""


# ---------------------------------------------------------------------------
# expressions
# ---------------------------------------------------------------------------
@dataclass
class Name(Expr):
    """A reference to a variable or parameter."""

    ident: str
    line: int | None = None


@dataclass
class IntLit(Expr):
    value: int
    line: int | None = None


@dataclass
class FloatLit(Expr):
    value: float
    line: int | None = None


@dataclass
class BoolLit(Expr):
    value: bool
    line: int | None = None


@dataclass
class StringLit(Expr):
    value: str
    line: int | None = None


@dataclass
class NullLit(Expr):
    """The ``NULL`` pointer literal."""

    line: int | None = None


@dataclass
class FieldAccess(Expr):
    """``base->field`` (pointer dereference followed by field selection)."""

    base: Expr
    field: str
    line: int | None = None

    def children(self) -> Iterator[Node]:
        yield self.base


@dataclass
class IndexAccess(Expr):
    """``base[index]`` — used for the octree's ``subtrees[8]`` field arrays."""

    base: Expr
    index: Expr
    line: int | None = None

    def children(self) -> Iterator[Node]:
        yield self.base
        yield self.index


@dataclass
class BinOp(Expr):
    """Binary operation: arithmetic, comparison, or boolean connective."""

    op: str
    left: Expr
    right: Expr
    line: int | None = None

    def children(self) -> Iterator[Node]:
        yield self.left
        yield self.right


@dataclass
class UnaryOp(Expr):
    op: str
    operand: Expr
    line: int | None = None

    def children(self) -> Iterator[Node]:
        yield self.operand


@dataclass
class Call(Expr):
    """A function or procedure call (also usable as a statement)."""

    func: str
    args: list[Expr] = field(default_factory=list)
    line: int | None = None

    def children(self) -> Iterator[Node]:
        yield from self.args


@dataclass
class New(Expr):
    """``new T`` — allocate a fresh record of type ``T`` on the heap."""

    type_name: str
    line: int | None = None


@dataclass
class ArrayLit(Expr):
    """A literal list of expressions, ``[e1, e2, ...]``."""

    elements: list[Expr] = field(default_factory=list)
    line: int | None = None

    def children(self) -> Iterator[Node]:
        yield from self.elements


# ---------------------------------------------------------------------------
# statements
# ---------------------------------------------------------------------------
@dataclass
class VarDecl(Stmt):
    """``var x;`` or ``var x = expr;`` — declare a local variable."""

    name: str
    type_name: str | None = None
    init: Expr | None = None
    line: int | None = None

    def children(self) -> Iterator[Node]:
        if self.init is not None:
            yield self.init


@dataclass
class Assign(Stmt):
    """``target = value;`` where target is a plain variable."""

    target: str
    value: Expr
    line: int | None = None

    def children(self) -> Iterator[Node]:
        yield self.value


@dataclass
class FieldAssign(Stmt):
    """``base->field = value;`` or ``base->field[index] = value;``.

    This is the statement form the paper singles out as potentially changing
    a data structure's shape (section 3.3.1).
    """

    base: Expr
    field: str
    value: Expr
    index: Expr | None = None
    line: int | None = None

    def children(self) -> Iterator[Node]:
        yield self.base
        if self.index is not None:
            yield self.index
        yield self.value


@dataclass
class Block(Stmt):
    """A ``{ ... }`` sequence of statements."""

    statements: list[Stmt] = field(default_factory=list)
    line: int | None = None

    def children(self) -> Iterator[Node]:
        yield from self.statements

    def __iter__(self) -> Iterator[Stmt]:
        return iter(self.statements)

    def __len__(self) -> int:
        return len(self.statements)


@dataclass
class If(Stmt):
    cond: Expr
    then_body: Block
    else_body: Block | None = None
    line: int | None = None

    def children(self) -> Iterator[Node]:
        yield self.cond
        yield self.then_body
        if self.else_body is not None:
            yield self.else_body


@dataclass
class While(Stmt):
    cond: Expr
    body: Block
    line: int | None = None
    label: str | None = None

    def children(self) -> Iterator[Node]:
        yield self.cond
        yield self.body


@dataclass
class For(Stmt):
    """``for i = lo to hi [step s] { ... }`` — counted loop."""

    var: str
    lo: Expr
    hi: Expr
    body: Block
    step: Expr | None = None
    line: int | None = None
    label: str | None = None

    def children(self) -> Iterator[Node]:
        yield self.lo
        yield self.hi
        if self.step is not None:
            yield self.step
        yield self.body


@dataclass
class ParallelFor(Stmt):
    """``for i = lo to hi [step s] in parallel { ... }`` — a doall loop.

    The strip-mining transformation of section 4.3.3 emits this construct;
    the interpreter executes it either sequentially (reference semantics) or
    via the simulated multiprocessor.
    """

    var: str
    lo: Expr
    hi: Expr
    body: Block
    step: Expr | None = None
    line: int | None = None
    label: str | None = None

    def children(self) -> Iterator[Node]:
        yield self.lo
        yield self.hi
        if self.step is not None:
            yield self.step
        yield self.body


@dataclass
class Return(Stmt):
    value: Expr | None = None
    line: int | None = None

    def children(self) -> Iterator[Node]:
        if self.value is not None:
            yield self.value


@dataclass
class ExprStmt(Stmt):
    """An expression evaluated for its side effects (typically a call)."""

    expr: Expr
    line: int | None = None

    def children(self) -> Iterator[Node]:
        yield self.expr


# ---------------------------------------------------------------------------
# declarations
# ---------------------------------------------------------------------------
@dataclass
class AddsFieldSpec:
    """ADDS annotation attached to a pointer field declaration.

    ``direction`` is one of ``"forward"``, ``"backward"``, ``"unknown"``;
    ``unique`` records the ``uniquely`` qualifier; ``dimension`` names the
    ADDS dimension the field traverses.
    """

    dimension: str
    direction: str = "unknown"
    unique: bool = False

    def __str__(self) -> str:
        uniq = "uniquely " if self.unique else ""
        return f"is {uniq}{self.direction} along {self.dimension}"


@dataclass
class FieldDecl(Node):
    """One field of a record type declaration.

    Several names may share a declaration (``Octree *left, *right is ...``);
    the parser expands them into one :class:`FieldDecl` per name but keeps a
    shared ``group`` identifier so the ADDS layer can recover the "listed
    together" disjointness hint from section 3.1.3.
    """

    name: str
    type_name: str
    is_pointer: bool = False
    array_size: int | None = None
    adds: AddsFieldSpec | None = None
    group: int | None = None
    line: int | None = None


#: the one dimension of a record type that declares none
DEFAULT_DIMENSION = "D"


@dataclass
class TypeDecl(Node):
    """A record type declaration, optionally carrying ADDS dimensions.

    ``dimensions`` lists the declared ADDS dimension names (empty for plain
    records); ``independences`` lists pairs of dimension names declared
    independent via the ``where A||B`` clause.
    """

    name: str
    fields: list[FieldDecl] = field(default_factory=list)
    dimensions: list[str] = field(default_factory=list)
    independences: list[tuple[str, str]] = field(default_factory=list)
    line: int | None = None

    def field_named(self, name: str) -> FieldDecl | None:
        for f in self.fields:
            if f.name == name:
                return f
        return None

    def adds_dimensions(self) -> list[str]:
        """The declared dimensions; a record declaring none has the one
        default dimension ``D`` (the paper's defaulting rule)."""
        return self.dimensions or [DEFAULT_DIMENSION]

    def pointer_fields(self) -> list[FieldDecl]:
        return [f for f in self.fields if f.is_pointer]

    def recursive_pointer_fields(self) -> list[FieldDecl]:
        return [f for f in self.fields if f.is_pointer and f.type_name == self.name]

    def children(self) -> Iterator[Node]:
        yield from self.fields


@dataclass
class Param(Node):
    """A function parameter (untyped by default; type optional)."""

    name: str
    type_name: str | None = None
    line: int | None = None


@dataclass
class FunctionDecl(Node):
    """A function or procedure definition."""

    name: str
    params: list[Param] = field(default_factory=list)
    body: Block = field(default_factory=Block)
    is_procedure: bool = False
    return_type: str | None = None
    line: int | None = None

    def children(self) -> Iterator[Node]:
        yield from self.params
        yield self.body


@dataclass
class Program(Node):
    """A whole translation unit: type declarations plus functions."""

    types: list[TypeDecl] = field(default_factory=list)
    functions: list[FunctionDecl] = field(default_factory=list)

    def children(self) -> Iterator[Node]:
        yield from self.types
        yield from self.functions

    def type_named(self, name: str) -> TypeDecl | None:
        for t in self.types:
            if t.name == name:
                return t
        return None

    def function_named(self, name: str) -> FunctionDecl | None:
        for f in self.functions:
            if f.name == name:
                return f
        return None


# ---------------------------------------------------------------------------
# helpers used across the analysis code
# ---------------------------------------------------------------------------
LValue = Union[Name, FieldAccess, IndexAccess]


def is_traversal_update(stmt: Stmt) -> bool:
    """True for the pointer-chasing update ``p = p->f``."""
    return (
        isinstance(stmt, Assign)
        and isinstance(stmt.value, FieldAccess)
        and isinstance(stmt.value.base, Name)
        and stmt.value.base.ident == stmt.target
    )


def traversal_updates(body: Block) -> dict[str, str]:
    """The updates ``p = p->f`` anywhere in ``body``: each traversal
    variable mapped to the field it follows."""
    return {
        stmt.target: stmt.value.field
        for stmt in iter_statements(body)
        if is_traversal_update(stmt)
    }


def iter_statements(block: Block) -> Iterator[Stmt]:
    """Yield every statement nested anywhere inside ``block`` (pre-order)."""
    for stmt in block.statements:
        yield stmt
        if isinstance(stmt, Block):
            yield from iter_statements(stmt)
        elif isinstance(stmt, If):
            yield from iter_statements(stmt.then_body)
            if stmt.else_body is not None:
                yield from iter_statements(stmt.else_body)
        elif isinstance(stmt, (While, For, ParallelFor)):
            yield from iter_statements(stmt.body)


def collect_pointer_variables(func: FunctionDecl, program: Program) -> set[str]:
    """Heuristically collect names used as pointers inside ``func``.

    A variable counts as a pointer if it is dereferenced (``v->f``), assigned
    NULL, assigned an allocation, assigned from another pointer expression,
    or passed where a record is built.  The analysis layers refine this with
    the type checker's results when available.
    """
    pointers: set[str] = set()
    # source -> targets of the copies ``target = source``
    copies: dict[str, list[str]] = {}
    for node in func.body.walk():
        if isinstance(node, FieldAccess) and isinstance(node.base, Name):
            pointers.add(node.base.ident)
        elif isinstance(node, Assign):
            if isinstance(node.value, (NullLit, New, FieldAccess, IndexAccess)):
                pointers.add(node.target)
            elif isinstance(node.value, Name):
                copies.setdefault(node.value.ident, []).append(node.target)
    # a copy of a pointer is a pointer
    pending = list(pointers)
    while pending:
        for target in copies.get(pending.pop(), ()):
            if target not in pointers:
                pointers.add(target)
                pending.append(target)
    return pointers
