"""Recursive-descent parser for the toy pointer language.

Grammar (informally)::

    program     := (type_decl | func_decl)*
    type_decl   := 'type' IDENT dim* where? '{' field_decl* '}' ';'?
    dim         := '[' IDENT ']'
    where       := 'where' IDENT '||' IDENT (',' IDENT '||' IDENT)*
    field_decl  := type_name declarator (',' declarator)* adds_spec? ';'
    declarator  := '*'? IDENT ('[' INT ']')?
    adds_spec   := 'is' 'uniquely'? ('forward'|'backward'|'unknown') 'along' IDENT

    func_decl   := ('function'|'procedure') IDENT '(' param_list ')' block
    block       := '{' stmt* '}'
    stmt        := var_decl | assign | field_assign | if | while | for
                 | return | call ';' | block
    var_decl    := 'var' IDENT ('=' expr)? ';'
    assign      := IDENT '=' expr ';'
    field_assign:= postfix '->' IDENT ('[' expr ']')? '=' expr ';'
    if          := 'if' expr 'then'? stmt_or_block ('else' stmt_or_block)?
    while       := 'while' expr stmt_or_block
    for         := 'for' IDENT '=' expr 'to' expr ('step' expr)?
                   ('in' 'parallel')? stmt_or_block

Expressions use the usual precedence: or < and < comparison < additive <
multiplicative < unary < postfix ('->' field access, '[...]' indexing,
call) < primary.
"""

from __future__ import annotations

from repro.lang.ast_nodes import (
    AddsFieldSpec,
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
    Param,
    Program,
    Return,
    Stmt,
    StringLit,
    TypeDecl,
    UnaryOp,
    VarDecl,
    While,
)
from repro.lang.errors import ParseError
from repro.lang.lexer import tokenize
from repro.lang.tokens import Token, TokenKind as K


_SCALAR_KEYWORDS = {
    K.KW_INT: "int",
    K.KW_FLOAT: "float",
    K.KW_BOOL: "bool",
    K.KW_STRING: "string",
    K.KW_VOID: "void",
}


class Parser:
    """Parse a token stream into a :class:`Program`."""

    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self._group_counter = 0

    # -- token helpers -----------------------------------------------------
    def _peek(self, offset: int = 0) -> Token:
        idx = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[idx]

    def _at(self, kind: K, offset: int = 0) -> bool:
        return self._peek(offset).kind is kind

    def _advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not K.EOF:
            self.pos += 1
        return tok

    def _expect(self, kind: K, what: str | None = None) -> Token:
        tok = self._peek()
        if tok.kind is not kind:
            expected = what or kind.name
            raise ParseError(
                f"expected {expected}, found {tok.text!r}", tok.line, tok.col
            )
        return self._advance()

    def _match(self, *kinds: K) -> Token | None:
        if self._peek().kind in kinds:
            return self._advance()
        return None

    # -- program level -----------------------------------------------------
    def parse_program(self) -> Program:
        program = Program()
        while not self._at(K.EOF):
            if self._at(K.KW_TYPE):
                program.types.append(self.parse_type_decl())
            elif self._at(K.KW_FUNCTION) or self._at(K.KW_PROCEDURE):
                program.functions.append(self.parse_function())
            else:
                tok = self._peek()
                raise ParseError(
                    f"expected 'type', 'function' or 'procedure', found {tok.text!r}",
                    tok.line,
                    tok.col,
                )
        return program

    # -- type declarations ---------------------------------------------------
    def parse_type_decl(self) -> TypeDecl:
        start = self._expect(K.KW_TYPE)
        name = self._expect(K.IDENT, "type name").text
        dims: list[str] = []
        while self._at(K.LBRACKET):
            self._advance()
            dims.append(self._expect(K.IDENT, "dimension name").text)
            self._expect(K.RBRACKET)
        independences: list[tuple[str, str]] = []
        if self._match(K.KW_WHERE):
            independences.append(self._parse_independence())
            while self._match(K.COMMA):
                independences.append(self._parse_independence())
        self._expect(K.LBRACE)
        fields: list[FieldDecl] = []
        while not self._at(K.RBRACE):
            fields.extend(self.parse_field_decl())
        self._expect(K.RBRACE)
        self._match(K.SEMI)
        return TypeDecl(
            name=name,
            fields=fields,
            dimensions=dims,
            independences=independences,
            line=start.line,
        )

    def _parse_independence(self) -> tuple[str, str]:
        a = self._expect(K.IDENT, "dimension name").text
        self._expect(K.INDEP, "'||'")
        b = self._expect(K.IDENT, "dimension name").text
        return (a, b)

    def _parse_type_name(self) -> str:
        tok = self._peek()
        if tok.kind in _SCALAR_KEYWORDS:
            self._advance()
            return _SCALAR_KEYWORDS[tok.kind]
        return self._expect(K.IDENT, "type name").text

    def parse_field_decl(self) -> list[FieldDecl]:
        line = self._peek().line
        type_name = self._parse_type_name()
        self._group_counter += 1
        group = self._group_counter
        declarators: list[tuple[str, bool, int | None]] = []
        declarators.append(self._parse_declarator())
        while self._match(K.COMMA):
            declarators.append(self._parse_declarator())
        adds: AddsFieldSpec | None = None
        if self._at(K.KW_IS):
            adds = self._parse_adds_spec()
        self._expect(K.SEMI)
        fields = []
        for fname, is_ptr, size in declarators:
            fields.append(
                FieldDecl(
                    name=fname,
                    type_name=type_name,
                    is_pointer=is_ptr,
                    array_size=size,
                    adds=adds,
                    group=group if len(declarators) > 1 else None,
                    line=line,
                )
            )
        return fields

    def _parse_declarator(self) -> tuple[str, bool, int | None]:
        is_pointer = self._match(K.STAR) is not None
        name = self._expect(K.IDENT, "field name").text
        size: int | None = None
        if self._match(K.LBRACKET):
            size_tok = self._expect(K.INT_LIT, "array size")
            size = int(size_tok.text)
            self._expect(K.RBRACKET)
        return (name, is_pointer, size)

    def _parse_adds_spec(self) -> AddsFieldSpec:
        self._expect(K.KW_IS)
        unique = self._match(K.KW_UNIQUELY) is not None
        tok = self._peek()
        if tok.kind is K.KW_FORWARD:
            direction = "forward"
        elif tok.kind is K.KW_BACKWARD:
            direction = "backward"
        elif tok.kind is K.KW_UNKNOWN:
            direction = "unknown"
        else:
            raise ParseError(
                f"expected 'forward', 'backward' or 'unknown', found {tok.text!r}",
                tok.line,
                tok.col,
            )
        self._advance()
        self._expect(K.KW_ALONG, "'along'")
        dimension = self._expect(K.IDENT, "dimension name").text
        return AddsFieldSpec(dimension=dimension, direction=direction, unique=unique)

    # -- functions -----------------------------------------------------------
    def parse_function(self) -> FunctionDecl:
        kw = self._advance()  # function | procedure
        is_procedure = kw.kind is K.KW_PROCEDURE
        name = self._expect(K.IDENT, "function name").text
        self._expect(K.LPAREN)
        params: list[Param] = []
        if not self._at(K.RPAREN):
            params.append(self._parse_param())
            while self._match(K.COMMA):
                params.append(self._parse_param())
        self._expect(K.RPAREN)
        body = self.parse_block()
        return FunctionDecl(
            name=name,
            params=params,
            body=body,
            is_procedure=is_procedure,
            line=kw.line,
        )

    def _parse_param(self) -> Param:
        tok = self._expect(K.IDENT, "parameter name")
        type_name: str | None = None
        # optional trailing ": Type" annotation
        if self._at(K.IDENT) and self._peek().text == ":":  # pragma: no cover
            pass
        return Param(name=tok.text, type_name=type_name, line=tok.line)

    # -- statements ------------------------------------------------------------
    def parse_block(self) -> Block:
        lbrace = self._expect(K.LBRACE)
        stmts: list[Stmt] = []
        while not self._at(K.RBRACE):
            stmts.append(self.parse_statement())
        self._expect(K.RBRACE)
        return Block(statements=stmts, line=lbrace.line)

    def _parse_stmt_or_block(self) -> Block:
        if self._at(K.LBRACE):
            return self.parse_block()
        stmt = self.parse_statement()
        return Block(statements=[stmt], line=stmt.line)

    def parse_statement(self) -> Stmt:
        tok = self._peek()
        if tok.kind is K.KW_VAR:
            return self._parse_var_decl()
        if tok.kind is K.KW_IF:
            return self._parse_if()
        if tok.kind is K.KW_WHILE:
            return self._parse_while()
        if tok.kind is K.KW_FOR:
            return self._parse_for()
        if tok.kind is K.KW_RETURN:
            return self._parse_return()
        if tok.kind is K.LBRACE:
            return self.parse_block()
        return self._parse_assign_or_call()

    def _parse_var_decl(self) -> VarDecl:
        kw = self._expect(K.KW_VAR)
        name = self._expect(K.IDENT, "variable name").text
        init: Expr | None = None
        if self._match(K.ASSIGN):
            init = self.parse_expression()
        self._expect(K.SEMI)
        return VarDecl(name=name, init=init, line=kw.line)

    def _parse_if(self) -> If:
        kw = self._expect(K.KW_IF)
        cond = self.parse_expression()
        self._match(K.KW_THEN)
        then_body = self._parse_stmt_or_block()
        else_body: Block | None = None
        if self._match(K.KW_ELSE):
            else_body = self._parse_stmt_or_block()
        return If(cond=cond, then_body=then_body, else_body=else_body, line=kw.line)

    def _parse_while(self) -> While:
        kw = self._expect(K.KW_WHILE)
        cond = self.parse_expression()
        body = self._parse_stmt_or_block()
        return While(cond=cond, body=body, line=kw.line)

    def _parse_for(self) -> Stmt:
        kw = self._expect(K.KW_FOR)
        var = self._expect(K.IDENT, "loop variable").text
        self._expect(K.ASSIGN)
        lo = self.parse_expression()
        self._expect(K.KW_TO, "'to'")
        hi = self.parse_expression()
        step: Expr | None = None
        if self._match(K.KW_STEP):
            step = self.parse_expression()
        parallel = False
        if self._match(K.KW_IN):
            self._expect(K.KW_PARALLEL, "'parallel'")
            parallel = True
        body = self._parse_stmt_or_block()
        if parallel:
            return ParallelFor(var=var, lo=lo, hi=hi, body=body, step=step, line=kw.line)
        return For(var=var, lo=lo, hi=hi, body=body, step=step, line=kw.line)

    def _parse_return(self) -> Return:
        kw = self._expect(K.KW_RETURN)
        value: Expr | None = None
        if not self._at(K.SEMI):
            value = self.parse_expression()
        self._expect(K.SEMI)
        return Return(value=value, line=kw.line)

    def _parse_assign_or_call(self) -> Stmt:
        line = self._peek().line
        lhs = self.parse_postfix()
        if self._match(K.ASSIGN):
            value = self.parse_expression()
            self._expect(K.SEMI)
            return self._make_assignment(lhs, value, line)
        # statement expression — must be a call to be meaningful
        self._expect(K.SEMI)
        return ExprStmt(expr=lhs, line=line)

    def _make_assignment(self, lhs: Expr, value: Expr, line: int) -> Stmt:
        if isinstance(lhs, Name):
            return Assign(target=lhs.ident, value=value, line=line)
        if isinstance(lhs, FieldAccess):
            return FieldAssign(base=lhs.base, field=lhs.field, value=value, line=line)
        if isinstance(lhs, IndexAccess) and isinstance(lhs.base, FieldAccess):
            return FieldAssign(
                base=lhs.base.base,
                field=lhs.base.field,
                value=value,
                index=lhs.index,
                line=line,
            )
        raise ParseError(f"invalid assignment target: {lhs}", line)

    # -- expressions -------------------------------------------------------------
    def parse_expression(self) -> Expr:
        return self._parse_or()

    def _parse_or(self) -> Expr:
        left = self._parse_and()
        while self._at(K.KW_OR):
            tok = self._advance()
            right = self._parse_and()
            left = BinOp(op="or", left=left, right=right, line=tok.line)
        return left

    def _parse_and(self) -> Expr:
        left = self._parse_not()
        while self._at(K.KW_AND):
            tok = self._advance()
            right = self._parse_not()
            left = BinOp(op="and", left=left, right=right, line=tok.line)
        return left

    def _parse_not(self) -> Expr:
        if self._at(K.KW_NOT):
            tok = self._advance()
            operand = self._parse_not()
            return UnaryOp(op="not", operand=operand, line=tok.line)
        return self._parse_comparison()

    _COMPARISONS = {
        K.EQ: "==",
        K.NEQ: "<>",
        K.LT: "<",
        K.LE: "<=",
        K.GT: ">",
        K.GE: ">=",
    }

    def _parse_comparison(self) -> Expr:
        left = self._parse_additive()
        while self._peek().kind in self._COMPARISONS:
            tok = self._advance()
            op = self._COMPARISONS[tok.kind]
            right = self._parse_additive()
            left = BinOp(op=op, left=left, right=right, line=tok.line)
        return left

    def _parse_additive(self) -> Expr:
        left = self._parse_multiplicative()
        while self._peek().kind in (K.PLUS, K.MINUS):
            tok = self._advance()
            op = "+" if tok.kind is K.PLUS else "-"
            right = self._parse_multiplicative()
            left = BinOp(op=op, left=left, right=right, line=tok.line)
        return left

    def _parse_multiplicative(self) -> Expr:
        left = self._parse_unary()
        while self._peek().kind in (K.STAR, K.SLASH, K.PERCENT):
            tok = self._advance()
            op = {"*": "*", "/": "/", "%": "%"}[tok.text]
            right = self._parse_unary()
            left = BinOp(op=op, left=left, right=right, line=tok.line)
        return left

    def _parse_unary(self) -> Expr:
        if self._at(K.MINUS):
            tok = self._advance()
            operand = self._parse_unary()
            return UnaryOp(op="-", operand=operand, line=tok.line)
        return self.parse_postfix()

    def parse_postfix(self) -> Expr:
        expr = self._parse_primary()
        while True:
            if self._at(K.ARROW):
                tok = self._advance()
                fname = self._expect(K.IDENT, "field name").text
                expr = FieldAccess(base=expr, field=fname, line=tok.line)
            elif self._at(K.DOT):
                tok = self._advance()
                fname = self._expect(K.IDENT, "field name").text
                expr = FieldAccess(base=expr, field=fname, line=tok.line)
            elif self._at(K.LBRACKET):
                tok = self._advance()
                index = self.parse_expression()
                self._expect(K.RBRACKET)
                expr = IndexAccess(base=expr, index=index, line=tok.line)
            elif self._at(K.LPAREN) and isinstance(expr, Name):
                tok = self._advance()
                args: list[Expr] = []
                if not self._at(K.RPAREN):
                    args.append(self.parse_expression())
                    while self._match(K.COMMA):
                        args.append(self.parse_expression())
                self._expect(K.RPAREN)
                expr = Call(func=expr.ident, args=args, line=tok.line)
            else:
                break
        return expr

    def _parse_primary(self) -> Expr:
        tok = self._peek()
        if tok.kind is K.IDENT:
            self._advance()
            return Name(ident=tok.text, line=tok.line)
        if tok.kind is K.INT_LIT:
            self._advance()
            return IntLit(value=int(tok.text), line=tok.line)
        if tok.kind is K.FLOAT_LIT:
            self._advance()
            return FloatLit(value=float(tok.text), line=tok.line)
        if tok.kind is K.STRING_LIT:
            self._advance()
            return StringLit(value=tok.text, line=tok.line)
        if tok.kind is K.KW_TRUE:
            self._advance()
            return BoolLit(value=True, line=tok.line)
        if tok.kind is K.KW_FALSE:
            self._advance()
            return BoolLit(value=False, line=tok.line)
        if tok.kind is K.KW_NULL:
            self._advance()
            return NullLit(line=tok.line)
        if tok.kind is K.KW_NEW:
            self._advance()
            type_name_tok = self._peek()
            if type_name_tok.kind in _SCALAR_KEYWORDS:
                self._advance()
                type_name = _SCALAR_KEYWORDS[type_name_tok.kind]
            else:
                type_name = self._expect(K.IDENT, "type name").text
            return New(type_name=type_name, line=tok.line)
        if tok.kind is K.LPAREN:
            self._advance()
            expr = self.parse_expression()
            self._expect(K.RPAREN)
            return expr
        if tok.kind is K.LBRACKET:
            self._advance()
            elements: list[Expr] = []
            if not self._at(K.RBRACKET):
                elements.append(self.parse_expression())
                while self._match(K.COMMA):
                    elements.append(self.parse_expression())
            self._expect(K.RBRACKET)
            return ArrayLit(elements=elements, line=tok.line)
        raise ParseError(f"unexpected token {tok.text!r}", tok.line, tok.col)


def parse_program(source: str, first_line: int = 1) -> Program:
    """Tokenize and parse ``source`` into a :class:`Program`.

    ``first_line`` numbers the source's first line, so one declaration
    cut out of a file (see :func:`repro.lang.split.split_declarations`)
    parses at the lines it has in that file.
    """
    return Parser(tokenize(source, first_line)).parse_program()


def parse_expression(source: str) -> Expr:
    """Parse a single expression (useful in tests)."""
    parser = Parser(tokenize(source))
    expr = parser.parse_expression()
    parser._expect(K.EOF)
    return expr
