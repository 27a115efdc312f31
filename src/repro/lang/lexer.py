"""Hand-written lexer for the toy pointer language.

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
"""

from __future__ import annotations

from repro.lang.errors import LexError
from repro.lang.tokens import KEYWORDS, Token, TokenKind


class Lexer:
    """Convert source text into a list of :class:`Token`."""

    def __init__(self, source: str, first_line: int = 1):
        self.source = source
        self.pos = 0
        self.line = first_line
        self.col = 1
        self.tokens: list[Token] = []

    # -- low-level helpers -------------------------------------------------
    def _peek(self, offset: int = 0) -> str:
        idx = self.pos + offset
        if idx < len(self.source):
            return self.source[idx]
        return "\0"

    def _advance(self) -> str:
        ch = self.source[self.pos]
        self.pos += 1
        if ch == "\n":
            self.line += 1
            self.col = 1
        else:
            self.col += 1
        return ch

    def _at_end(self) -> bool:
        return self.pos >= len(self.source)

    def _add(self, kind: TokenKind, text: str, line: int, col: int) -> None:
        self.tokens.append(Token(kind, text, line, col))

    # -- main loop ---------------------------------------------------------
    def tokenize(self) -> list[Token]:
        while not self._at_end():
            self._skip_whitespace_and_comments()
            if self._at_end():
                break
            line, col = self.line, self.col
            ch = self._peek()
            if ch.isalpha() or ch == "_":
                self._lex_ident(line, col)
            elif ch.isdigit():
                self._lex_number(line, col)
            elif ch == '"':
                self._lex_string(line, col)
            else:
                self._lex_operator(line, col)
        self._add(TokenKind.EOF, "", self.line, self.col)
        return self.tokens

    def _skip_whitespace_and_comments(self) -> None:
        while not self._at_end():
            ch = self._peek()
            if ch in " \t\r\n":
                self._advance()
            elif ch == "/" and self._peek(1) == "*":
                start_line = self.line
                self._advance()
                self._advance()
                while not self._at_end() and not (self._peek() == "*" and self._peek(1) == "/"):
                    self._advance()
                if self._at_end():
                    raise LexError("unterminated block comment", start_line)
                self._advance()
                self._advance()
            elif ch == "/" and self._peek(1) == "/":
                while not self._at_end() and self._peek() != "\n":
                    self._advance()
            elif ch == "#":
                while not self._at_end() and self._peek() != "\n":
                    self._advance()
            else:
                return

    def _lex_ident(self, line: int, col: int) -> None:
        start = self.pos
        while not self._at_end() and (self._peek().isalnum() or self._peek() == "_"):
            self._advance()
        text = self.source[start:self.pos]
        kind = KEYWORDS.get(text, TokenKind.IDENT)
        self._add(kind, text, line, col)

    def _lex_number(self, line: int, col: int) -> None:
        start = self.pos
        is_float = False
        while not self._at_end() and self._peek().isdigit():
            self._advance()
        if self._peek() == "." and self._peek(1).isdigit():
            is_float = True
            self._advance()
            while not self._at_end() and self._peek().isdigit():
                self._advance()
        if self._peek() in "eE" and (self._peek(1).isdigit() or
                                     (self._peek(1) in "+-" and self._peek(2).isdigit())):
            is_float = True
            self._advance()
            if self._peek() in "+-":
                self._advance()
            while not self._at_end() and self._peek().isdigit():
                self._advance()
        text = self.source[start:self.pos]
        kind = TokenKind.FLOAT_LIT if is_float else TokenKind.INT_LIT
        self._add(kind, text, line, col)

    def _lex_string(self, line: int, col: int) -> None:
        self._advance()  # opening quote
        chars: list[str] = []
        while not self._at_end() and self._peek() != '"':
            ch = self._advance()
            if ch == "\\" and not self._at_end():
                esc = self._advance()
                chars.append({"n": "\n", "t": "\t", '"': '"', "\\": "\\"}.get(esc, esc))
            else:
                chars.append(ch)
        if self._at_end():
            raise LexError("unterminated string literal", line, col)
        self._advance()  # closing quote
        self._add(TokenKind.STRING_LIT, "".join(chars), line, col)

    _TWO_CHAR = {
        "->": TokenKind.ARROW,
        "==": TokenKind.EQ,
        "<>": TokenKind.NEQ,
        "!=": TokenKind.NEQ,
        "<=": TokenKind.LE,
        ">=": TokenKind.GE,
        "||": TokenKind.INDEP,
        "&&": TokenKind.KW_AND,
    }

    _ONE_CHAR = {
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

    def _lex_operator(self, line: int, col: int) -> None:
        two = self._peek() + self._peek(1)
        if two in self._TWO_CHAR:
            self._advance()
            self._advance()
            self._add(self._TWO_CHAR[two], two, line, col)
            return
        one = self._peek()
        if one in self._ONE_CHAR:
            self._advance()
            self._add(self._ONE_CHAR[one], one, line, col)
            return
        raise LexError(f"unexpected character {one!r}", line, col)


def tokenize(source: str, first_line: int = 1) -> list[Token]:
    """Tokenize ``source`` and return the token list (ending with EOF).

    ``first_line`` is the line number of the source's first line: a
    declaration cut out of a larger file lexes at its true lines.
    """
    return Lexer(source, first_line).tokenize()
