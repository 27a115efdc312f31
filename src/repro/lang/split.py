"""Cut a program's source into its top-level declarations without parsing it.

A program is a sequence of ``type`` and ``function``/``procedure``
declarations.  :func:`split_declarations` finds them with one scan that
tracks brace depth and skips comments (``/* */``, ``//``, ``#``) and
string literals the way the lexer does, so the incremental driver can tell
which declarations an edit touched by comparing their text, and parse only
those (:func:`repro.lang.parser.parse_program` takes the first line a
declaration has in its file).

The scan is deliberately lenient inside declarations: a malformed body is
the parser's business.  It raises :class:`~repro.lang.errors.ParseError`
only where the declarations cannot be delimited at all (text between
declarations, unbalanced braces, an unterminated comment or string).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.lang.errors import ParseError

#: whitespace and comments, as the lexer skips them between tokens
_GAP = re.compile(r"(?:\s+|/\*.*?\*/|//[^\n]*|#[^\n]*)*", re.S)
_KEYWORD = re.compile(r"(type|function|procedure)(?!\w)")
_NAME = re.compile(r"[^\W\d]\w*")
#: inside a declaration: comments and strings are skipped whole, braces
#: counted; a lone ``/*`` or ``"`` is an unterminated comment or string
_BODY = re.compile(r'/\*.*?\*/|//[^\n]*|#[^\n]*|"(?:[^"\\]|\\.)*"|[{}]|/\*|"', re.S)
_COMMENT = re.compile(r"/\*.*?\*/|//[^\n]*|#[^\n]*", re.S)
_NO_PARAMS = re.compile(r"\(\s*\)\s*$")


@dataclass(frozen=True)
class Declaration:
    """One top-level declaration of a program's source."""

    #: ``"type"`` or ``"function"`` (procedures included)
    kind: str
    name: str
    #: the line of its keyword
    line: int
    #: the exact source text, from the keyword through the closing brace
    #: (and a type's optional ``;``)
    text: str

    def takes_parameters(self) -> bool:
        """Whether a function declaration lists any parameter."""
        header = _COMMENT.sub(" ", self.text).split("{", 1)[0]
        return _NO_PARAMS.search(header) is None


def split_declarations(source: str) -> list[Declaration]:
    """The top-level declarations of ``source``, in source order."""
    declarations: list[Declaration] = []
    pos = 0
    line = 1
    end = len(source)
    while True:
        start = _GAP.match(source, pos).end()
        line += source.count("\n", pos, start)
        if start >= end:
            return declarations
        keyword = _KEYWORD.match(source, start)
        if keyword is None:
            raise ParseError(
                "expected 'type', 'function' or 'procedure' at top level", line
            )
        name = _NAME.match(source, _GAP.match(source, keyword.end()).end())
        if name is None:
            raise ParseError(f"expected a name after {keyword.group()!r}", line)
        depth = 0
        for token in _BODY.finditer(source, name.end()):
            text = token.group()
            if text == "{":
                depth += 1
            elif text == "}":
                depth -= 1
                if depth <= 0:
                    break
            elif text in ('"', "/*"):
                raise ParseError("unterminated string or comment", line)
        else:
            raise ParseError(f"unbalanced braces in {name.group()!r}", line)
        if depth < 0:
            raise ParseError(f"unbalanced braces in {name.group()!r}", line)
        pos = token.end()
        kind = "function" if keyword.group() != "type" else "type"
        if kind == "type":
            after = _GAP.match(source, pos).end()
            if source.startswith(";", after):
                pos = after + 1
        declarations.append(
            Declaration(kind, name.group(), line, source[start:pos])
        )
        line += source.count("\n", start, pos)

