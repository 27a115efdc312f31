"""Pretty-printer (unparser) for the toy language.

``unparse(parse_program(src))`` produces text that parses back to an
equivalent AST — a property exercised by round-trip tests.  The transformation
passes also use it to show before/after program text in reports.
"""

from __future__ import annotations

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
    FieldDecl,
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


class PrettyPrinter:
    """Render AST nodes back to surface syntax."""

    def __init__(self, indent: str = "  "):
        self.indent_unit = indent

    # -- program ------------------------------------------------------------
    def program(self, program: Program) -> str:
        parts: list[str] = []
        for decl in program.types:
            parts.append(self.type_decl(decl))
        for func in program.functions:
            parts.append(self.function(func))
        return "\n\n".join(parts) + "\n"

    def type_decl(self, decl: TypeDecl) -> str:
        dims = "".join(f"[{d}]" for d in decl.dimensions)
        header = f"type {decl.name} {dims}".rstrip()
        if decl.independences:
            clauses = ", ".join(f"{a}||{b}" for a, b in decl.independences)
            header += f" where {clauses}"
        lines = [header, "{"]
        for f in self._grouped_fields(decl):
            lines.append(self.indent_unit + f)
        lines.append("};")
        return "\n".join(lines)

    def _grouped_fields(self, decl: TypeDecl) -> list[str]:
        """Re-group fields declared together (sharing a ``group`` id)."""
        rendered: list[str] = []
        i = 0
        fields = decl.fields
        while i < len(fields):
            f = fields[i]
            group = [f]
            if f.group is not None:
                j = i + 1
                while j < len(fields) and fields[j].group == f.group:
                    group.append(fields[j])
                    j += 1
                i = j
            else:
                i += 1
            rendered.append(self._field_group(group))
        return rendered

    def _field_group(self, group: list[FieldDecl]) -> str:
        first = group[0]
        names = []
        for f in group:
            star = "*" if f.is_pointer else ""
            size = f"[{f.array_size}]" if f.array_size is not None else ""
            names.append(f"{star}{f.name}{size}")
        text = f"{first.type_name} {', '.join(names)}"
        if first.adds is not None:
            text += f" {first.adds}"
        return text + ";"

    def function(self, func: FunctionDecl) -> str:
        kw = "procedure" if func.is_procedure else "function"
        params = ", ".join(p.name for p in func.params)
        header = f"{kw} {func.name}({params})"
        return header + "\n" + self.block(func.body, 0)

    # -- statements ------------------------------------------------------------
    def block(self, block: Block, level: int) -> str:
        pad = self.indent_unit * level
        lines = [pad + "{"]
        for stmt in block.statements:
            lines.append(self.statement(stmt, level + 1))
        lines.append(pad + "}")
        return "\n".join(lines)

    def statement(self, stmt: Stmt, level: int) -> str:
        pad = self.indent_unit * level
        if isinstance(stmt, VarDecl):
            if stmt.init is not None:
                return f"{pad}var {stmt.name} = {self.expr(stmt.init)};"
            return f"{pad}var {stmt.name};"
        if isinstance(stmt, Assign):
            return f"{pad}{stmt.target} = {self.expr(stmt.value)};"
        if isinstance(stmt, FieldAssign):
            index = f"[{self.expr(stmt.index)}]" if stmt.index is not None else ""
            return (
                f"{pad}{self.expr(stmt.base)}->{stmt.field}{index} = "
                f"{self.expr(stmt.value)};"
            )
        if isinstance(stmt, ExprStmt):
            return f"{pad}{self.expr(stmt.expr)};"
        if isinstance(stmt, Return):
            if stmt.value is not None:
                return f"{pad}return {self.expr(stmt.value)};"
            return f"{pad}return;"
        if isinstance(stmt, Block):
            return self.block(stmt, level)
        if isinstance(stmt, If):
            text = f"{pad}if {self.expr(stmt.cond)} then\n" + self.block(stmt.then_body, level)
            if stmt.else_body is not None:
                text += f"\n{pad}else\n" + self.block(stmt.else_body, level)
            return text
        if isinstance(stmt, While):
            return f"{pad}while {self.expr(stmt.cond)}\n" + self.block(stmt.body, level)
        if isinstance(stmt, For):
            step = f" step {self.expr(stmt.step)}" if stmt.step is not None else ""
            return (
                f"{pad}for {stmt.var} = {self.expr(stmt.lo)} to {self.expr(stmt.hi)}{step}\n"
                + self.block(stmt.body, level)
            )
        if isinstance(stmt, ParallelFor):
            step = f" step {self.expr(stmt.step)}" if stmt.step is not None else ""
            return (
                f"{pad}for {stmt.var} = {self.expr(stmt.lo)} to {self.expr(stmt.hi)}{step}"
                f" in parallel\n" + self.block(stmt.body, level)
            )
        return f"{pad}/* <unprintable {type(stmt).__name__}> */"

    # -- expressions ---------------------------------------------------------
    def expr(self, expr: Expr) -> str:
        if isinstance(expr, IntLit):
            return str(expr.value)
        if isinstance(expr, FloatLit):
            return repr(expr.value)
        if isinstance(expr, BoolLit):
            return "true" if expr.value else "false"
        if isinstance(expr, StringLit):
            escaped = expr.value.replace("\\", "\\\\").replace('"', '\\"')
            return f'"{escaped}"'
        if isinstance(expr, NullLit):
            return "NULL"
        if isinstance(expr, Name):
            return expr.ident
        if isinstance(expr, New):
            return f"new {expr.type_name}"
        if isinstance(expr, FieldAccess):
            return f"{self.expr(expr.base)}->{expr.field}"
        if isinstance(expr, IndexAccess):
            return f"{self.expr(expr.base)}[{self.expr(expr.index)}]"
        if isinstance(expr, Call):
            return f"{expr.func}({', '.join(self.expr(a) for a in expr.args)})"
        if isinstance(expr, BinOp):
            return f"({self.expr(expr.left)} {expr.op} {self.expr(expr.right)})"
        if isinstance(expr, UnaryOp):
            if expr.op == "not":
                return f"(not {self.expr(expr.operand)})"
            return f"({expr.op}{self.expr(expr.operand)})"
        if isinstance(expr, ArrayLit):
            return "[" + ", ".join(self.expr(e) for e in expr.elements) + "]"
        return f"/* <unprintable {type(expr).__name__}> */"


def unparse(node: Program | TypeDecl | FunctionDecl | Stmt | Expr) -> str:
    """Render ``node`` back to source text."""
    printer = PrettyPrinter()
    if isinstance(node, Program):
        return printer.program(node)
    if isinstance(node, TypeDecl):
        return printer.type_decl(node)
    if isinstance(node, FunctionDecl):
        return printer.function(node)
    if isinstance(node, Stmt):
        return printer.statement(node, 0)
    return printer.expr(node)
