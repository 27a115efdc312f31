"""Token kinds and the token record for the toy language lexer."""

from __future__ import annotations

from enum import Enum, auto
from typing import NamedTuple


class TokenKind(Enum):
    """Every terminal the grammar distinguishes."""

    # literals and identifiers
    IDENT = auto()
    INT_LIT = auto()
    FLOAT_LIT = auto()
    STRING_LIT = auto()

    # keywords
    KW_TYPE = auto()
    KW_FUNCTION = auto()
    KW_PROCEDURE = auto()
    KW_VAR = auto()
    KW_IF = auto()
    KW_THEN = auto()
    KW_ELSE = auto()
    KW_WHILE = auto()
    KW_FOR = auto()
    KW_TO = auto()
    KW_STEP = auto()
    KW_IN = auto()
    KW_PARALLEL = auto()
    KW_RETURN = auto()
    KW_NULL = auto()
    KW_NEW = auto()
    KW_TRUE = auto()
    KW_FALSE = auto()
    KW_INT = auto()
    KW_FLOAT = auto()
    KW_BOOL = auto()
    KW_VOID = auto()
    KW_STRING = auto()
    KW_AND = auto()
    KW_OR = auto()
    KW_NOT = auto()
    # ADDS keywords (section 3.1 of the paper)
    KW_IS = auto()
    KW_UNIQUELY = auto()
    KW_FORWARD = auto()
    KW_BACKWARD = auto()
    KW_UNKNOWN = auto()
    KW_ALONG = auto()
    KW_WHERE = auto()

    # punctuation / operators
    LBRACE = auto()
    RBRACE = auto()
    LPAREN = auto()
    RPAREN = auto()
    LBRACKET = auto()
    RBRACKET = auto()
    SEMI = auto()
    COMMA = auto()
    STAR = auto()
    ARROW = auto()          # ->
    DOT = auto()
    ASSIGN = auto()         # =
    PLUS = auto()
    MINUS = auto()
    SLASH = auto()
    PERCENT = auto()
    EQ = auto()             # ==
    NEQ = auto()            # <> or !=
    LT = auto()
    LE = auto()
    GT = auto()
    GE = auto()
    INDEP = auto()          # || : dimension independence in ADDS where-clauses

    EOF = auto()


KEYWORDS: dict[str, TokenKind] = {
    "type": TokenKind.KW_TYPE,
    "function": TokenKind.KW_FUNCTION,
    "procedure": TokenKind.KW_PROCEDURE,
    "var": TokenKind.KW_VAR,
    "if": TokenKind.KW_IF,
    "then": TokenKind.KW_THEN,
    "else": TokenKind.KW_ELSE,
    "while": TokenKind.KW_WHILE,
    "for": TokenKind.KW_FOR,
    "to": TokenKind.KW_TO,
    "step": TokenKind.KW_STEP,
    "in": TokenKind.KW_IN,
    "parallel": TokenKind.KW_PARALLEL,
    "return": TokenKind.KW_RETURN,
    "NULL": TokenKind.KW_NULL,
    "null": TokenKind.KW_NULL,
    "new": TokenKind.KW_NEW,
    "true": TokenKind.KW_TRUE,
    "false": TokenKind.KW_FALSE,
    "int": TokenKind.KW_INT,
    "float": TokenKind.KW_FLOAT,
    "bool": TokenKind.KW_BOOL,
    "boolean": TokenKind.KW_BOOL,
    "void": TokenKind.KW_VOID,
    "string": TokenKind.KW_STRING,
    "and": TokenKind.KW_AND,
    "or": TokenKind.KW_OR,
    "not": TokenKind.KW_NOT,
    "is": TokenKind.KW_IS,
    "uniquely": TokenKind.KW_UNIQUELY,
    "forward": TokenKind.KW_FORWARD,
    "backward": TokenKind.KW_BACKWARD,
    "unknown": TokenKind.KW_UNKNOWN,
    "along": TokenKind.KW_ALONG,
    "where": TokenKind.KW_WHERE,
}


class Token(NamedTuple):
    """A single lexical token with its source position."""

    kind: TokenKind
    text: str
    line: int
    col: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind.name}, {self.text!r}, {self.line}:{self.col})"
