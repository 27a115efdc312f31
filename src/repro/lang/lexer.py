"""Regular-expression lexer for the toy pointer language.

The surface syntax follows the paper's examples closely, e.g.::

    type OneWayList [X]
    { int data;
      OneWayList *next is uniquely forward along X;
    };

    function scale (head, c)
    { var p;
      p = head;
      while p <> NULL
      { p->coef = p->coef * c;
        p = p->next;
      }
      return head;
    }

One compiled master pattern scans the source: every token, whitespace run
and comment is one match, and the group that matched says what it is.  An
identifier starts with a letter (``str.isalpha``) or ``_`` and goes on with
``str.isalnum`` characters or ``_``; a number is made of ``str.isdigit``
characters.  On ASCII text these are the regex classes ``\\w`` and ``\\d``.
Elsewhere they differ (``²`` is a digit to ``str.isdigit`` but not to
``\\d``), so a source with non-ASCII characters is scanned by the same
pattern over exact classes, built the first time one is lexed.
"""

from __future__ import annotations

import functools
import re
import sys

from repro.lang.errors import LexError
from repro.lang.tokens import KEYWORDS, Token, TokenKind

_OPERATORS: dict[str, TokenKind] = {
    "->": TokenKind.ARROW,
    "==": TokenKind.EQ,
    "<>": TokenKind.NEQ,
    "!=": TokenKind.NEQ,
    "<=": TokenKind.LE,
    ">=": TokenKind.GE,
    "||": TokenKind.INDEP,
    "&&": TokenKind.KW_AND,
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "[": TokenKind.LBRACKET,
    "]": TokenKind.RBRACKET,
    ";": TokenKind.SEMI,
    ",": TokenKind.COMMA,
    "*": TokenKind.STAR,
    ".": TokenKind.DOT,
    "=": TokenKind.ASSIGN,
    "+": TokenKind.PLUS,
    "-": TokenKind.MINUS,
    "/": TokenKind.SLASH,
    "%": TokenKind.PERCENT,
    "<": TokenKind.LT,
    ">": TokenKind.GT,
    "!": TokenKind.KW_NOT,
}

_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)


def _master(letter: str, digit: str) -> re.Pattern:
    """The master pattern over ``letter`` (what starts an identifier) and
    ``digit``, both the inside of a character class.  Comments come before
    the operators, which would take their ``/``; an unnamed group is
    whitespace or a comment without a line end."""
    operators = "|".join(
        re.escape(op) for op in sorted(_OPERATORS, key=len, reverse=True)
    )
    number = f"[{digit}]+"
    exponent = f"[eE][+-]?{number}"
    return re.compile(
        rf"""
        (?P<newline>\n[ \t\r]*)
        | [ \t\r]+ | //[^\n]* | \#[^\n]*
        | (?P<comment>/\*.*?\*/)
        | (?P<open_comment>/\*)
        | (?P<ident>[{letter}]\w*)
        | (?P<float>{number}(?:\.{number}(?:{exponent})?|{exponent}))
        | (?P<int>{number})
        | (?P<string>"(?:[^"\\]|\\.)*")
        | (?P<open_string>")
        | (?P<operator>{operators})
        | (?P<error>.)
        """,
        re.VERBOSE | re.DOTALL,
    )


#: exact on ASCII text, where every letter, digit and ``\w`` character is ASCII
_ASCII = _master(r"^\W\d", r"\d")


@functools.cache
def _unicode() -> re.Pattern:
    """The master pattern over ``str.isalpha`` and ``str.isdigit``: ``\\w``
    less ``\\d`` and the other numeric characters, and ``\\d`` with the
    digits it leaves out."""
    numeric = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isnumeric()]

    def escaped(chars: list[str]) -> str:
        return "".join(f"\\U{ord(c):08x}" for c in chars)

    other = escaped([c for c in numeric if not c.isalpha() and not c.isdecimal()])
    digits = escaped([c for c in numeric if c.isdigit() and not c.isdecimal()])
    return _master(rf"^\W\d{other}", rf"\d{digits}")


def tokenize(source: str, first_line: int = 1) -> list[Token]:
    """Tokenize ``source`` and return the token list (ending with EOF).

    ``first_line`` is the line number of the source's first line: a
    declaration cut out of a larger file lexes at its true lines.  Columns
    count characters from 1; a tab or a ``\\r`` is one column.
    """
    pattern = _ASCII if source.isascii() else _unicode()
    # ``tuple.__new__`` builds a Token without the Python frame of its
    # generated constructor
    new = tuple.__new__
    keywords = KEYWORDS
    operators = _OPERATORS
    ident = TokenKind.IDENT
    tokens: list[Token] = []
    append = tokens.append
    line = first_line
    line_start = 0  # index of the current line's first character
    for match in pattern.finditer(source):
        group = match.lastgroup
        if group is None:
            continue
        start = match.start()
        text = match.group()
        if group == "ident":
            append(new(Token, (keywords.get(text, ident), text, line, start - line_start + 1)))
        elif group == "operator":
            append(new(Token, (operators[text], text, line, start - line_start + 1)))
        elif group == "newline":
            line += 1
            line_start = start + 1
        elif group == "int":
            append(new(Token, (TokenKind.INT_LIT, text, line, start - line_start + 1)))
        elif group == "float":
            append(new(Token, (TokenKind.FLOAT_LIT, text, line, start - line_start + 1)))
        elif group == "string" or group == "comment":
            if group == "string":
                value = text[1:-1]
                if "\\" in value:
                    value = _ESCAPE.sub(lambda m: _ESCAPES.get(m[1], m[1]), value)
                append(new(Token, (TokenKind.STRING_LIT, value, line, start - line_start + 1)))
            breaks = text.count("\n")
            if breaks:
                line += breaks
                line_start = start + text.rindex("\n") + 1
        elif group == "open_string":
            raise LexError("unterminated string literal", line, start - line_start + 1)
        elif group == "open_comment":
            raise LexError("unterminated block comment", line)
        else:
            raise LexError(f"unexpected character {text!r}", line, start - line_start + 1)
    append(new(Token, (TokenKind.EOF, "", line, len(source) - line_start + 1)))
    return tokens
