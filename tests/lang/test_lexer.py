"""Unit tests for the toy-language lexer."""

import hashlib
import random

import pytest

from repro.adds.library import standard_source
from repro.bench.stress import (
    call_web_program_source,
    deep_program_source,
    random_program_source,
    wide_program_source,
)
from repro.driver.corpus import corpus_named
from repro.fuzz.generator import generate_program
from repro.lang.errors import LexError
from repro.lang.lexer import tokenize
from repro.lang.split import split_declarations
from repro.lang.tokens import TokenKind as K


def kinds(source: str) -> list[K]:
    return [t.kind for t in tokenize(source)]


def texts(source: str) -> list[str]:
    return [t.text for t in tokenize(source) if t.kind is not K.EOF]


class TestBasicTokens:
    def test_empty_source_yields_only_eof(self):
        assert kinds("") == [K.EOF]

    def test_identifiers_and_keywords_are_distinguished(self):
        toks = tokenize("type while foo forward along bar")
        assert [t.kind for t in toks[:-1]] == [
            K.KW_TYPE, K.KW_WHILE, K.IDENT, K.KW_FORWARD, K.KW_ALONG, K.IDENT,
        ]

    def test_integer_and_float_literals(self):
        toks = tokenize("42 3.5 1e3 2.5e-2 7")
        assert [t.kind for t in toks[:-1]] == [
            K.INT_LIT, K.FLOAT_LIT, K.FLOAT_LIT, K.FLOAT_LIT, K.INT_LIT,
        ]

    def test_string_literal_with_escapes(self):
        toks = tokenize(r'"hello\nworld"')
        assert toks[0].kind is K.STRING_LIT
        assert toks[0].text == "hello\nworld"

    def test_unterminated_string_raises(self):
        with pytest.raises(LexError):
            tokenize('"oops')

    def test_unexpected_character_raises(self):
        with pytest.raises(LexError):
            tokenize("a $ b")


class TestOperators:
    def test_arrow_versus_minus(self):
        assert kinds("p->next")[:3] == [K.IDENT, K.ARROW, K.IDENT]
        assert kinds("a - b")[:3] == [K.IDENT, K.MINUS, K.IDENT]

    def test_comparison_operators(self):
        assert kinds("a <> b == c <= d >= e < f > g")[1:-1:2] == [
            K.NEQ, K.EQ, K.LE, K.GE, K.LT, K.GT,
        ]

    def test_independence_operator(self):
        assert K.INDEP in kinds("sub||down")

    def test_null_keyword_case_variants(self):
        assert kinds("NULL null")[:2] == [K.KW_NULL, K.KW_NULL]


class TestCommentsAndPositions:
    def test_block_and_line_comments_are_skipped(self):
        source = "a /* comment \n spanning lines */ b // trailing\n c # hash\n d"
        assert texts(source) == ["a", "b", "c", "d"]

    def test_unterminated_block_comment_raises(self):
        with pytest.raises(LexError):
            tokenize("a /* never closed")

    def test_line_numbers_advance(self):
        toks = tokenize("a\nb\n  c")
        assert [t.line for t in toks[:-1]] == [1, 2, 3]
        assert toks[2].col == 3

    def test_paper_adds_declaration_tokenizes(self):
        source = """
        type OneWayList [X]
        { int data;
          OneWayList *next is uniquely forward along X;
        };
        """
        token_kinds = kinds(source)
        assert K.KW_UNIQUELY in token_kinds
        assert K.KW_FORWARD in token_kinds
        assert K.KW_ALONG in token_kinds


def _stream(source: str, first_line: int = 1) -> list[tuple]:
    return [(t.kind.name, t.text, t.line, t.col) for t in tokenize(source, first_line)]


def _pinned_sources():
    """Every corpus program, the end-to-end benchmark's ``cold_bench`` and
    ``kernel_fixpoint`` inputs at seed 11 (``benchmarks/e2e/workloads.py``:
    ``bench_corpus(11, 60)`` and ``kernel_corpus(11)``), and 300 generated
    programs."""
    for name in ("builtin", "examples", "stress", "paper", "bench"):
        for item in corpus_named(name):
            yield item.source
    prefix = standard_source("ListNode")
    for item in corpus_named("bench")[:-1]:
        yield item.source
    yield prefix + call_web_program_source(60, 11, prefix="bw")
    rng = random.Random(11)
    for n in (60, 80, 100):
        yield prefix + wide_program_source(n)
    for depth in (4, 5):
        yield prefix + deep_program_source(depth, 6, 50)
    for _ in range(6):
        yield prefix + random_program_source(
            random.Random(rng.getrandbits(32)), num_vars=8, num_statements=40, max_depth=3
        )
    for seed in range(300):
        yield generate_program(seed).source


#: SHA-256 of every token ``(kind, text, line, col)`` of every declaration
#: of :func:`_pinned_sources`, each lexed at its own first line
PINNED_STREAMS = "79905fccdf4e5dea29446c94b0572c64b428aee2a100a992d0c8e36699e258ba"

#: source -> its token stream, or the ``LexError`` text and position
PINNED_EDGES = {
    '"oops': ("unterminated string literal (line 1, col 1)", 1, 1),
    'x\n"never': ("unterminated string literal (line 2, col 1)", 2, 1),
    "a /* open": ("unterminated block comment (line 1)", 1, None),
    "a $ b": ("unexpected character '$' (line 1, col 3)", 1, 3),
    "a & b": ("unexpected character '&' (line 1, col 3)", 1, 3),
    "a | b": ("unexpected character '|' (line 1, col 3)", 1, 3),
    "½": ("unexpected character '½' (line 1, col 1)", 1, 1),
    "Ⅻ": ("unexpected character 'Ⅻ' (line 1, col 1)", 1, 1),
    "\xa0x": ("unexpected character '\\xa0' (line 1, col 1)", 1, 1),
    "a\x0cb": ("unexpected character '\\x0c' (line 1, col 2)", 1, 2),
    "\ufeffx": ("unexpected character '\\ufeff' (line 1, col 1)", 1, 1),
    "x\u2028y": ("unexpected character '\\u2028' (line 1, col 2)", 1, 2),
    "1e": [("INT_LIT", "1", 1, 1), ("IDENT", "e", 1, 2), ("EOF", "", 1, 3)],
    "1.": [("INT_LIT", "1", 1, 1), ("DOT", ".", 1, 2), ("EOF", "", 1, 3)],
    "1.5e+": [
        ("FLOAT_LIT", "1.5", 1, 1), ("IDENT", "e", 1, 4), ("PLUS", "+", 1, 5),
        ("EOF", "", 1, 6),
    ],
    "1e+5 2E-3 3e5.5": [
        ("FLOAT_LIT", "1e+5", 1, 1), ("FLOAT_LIT", "2E-3", 1, 6),
        ("FLOAT_LIT", "3e5", 1, 11), ("DOT", ".", 1, 14), ("INT_LIT", "5", 1, 15),
        ("EOF", "", 1, 16),
    ],
    "1.e5": [
        ("INT_LIT", "1", 1, 1), ("DOT", ".", 1, 2), ("IDENT", "e5", 1, 3),
        ("EOF", "", 1, 5),
    ],
    "1..2": [
        ("INT_LIT", "1", 1, 1), ("DOT", ".", 1, 2), ("DOT", ".", 1, 3),
        ("INT_LIT", "2", 1, 4), ("EOF", "", 1, 5),
    ],
    "0x1F": [("INT_LIT", "0", 1, 1), ("IDENT", "x1F", 1, 2), ("EOF", "", 1, 5)],
    ".5": [("DOT", ".", 1, 1), ("INT_LIT", "5", 1, 2), ("EOF", "", 1, 3)],
    # non-ASCII letters and digits: str.isalpha/isdigit/isalnum decide,
    # which differ from the regex classes \d and \w on characters such as ²
    "é1": [("IDENT", "é1", 1, 1), ("EOF", "", 1, 3)],
    "ǅx": [("IDENT", "ǅx", 1, 1), ("EOF", "", 1, 3)],
    "x²": [("IDENT", "x²", 1, 1), ("EOF", "", 1, 3)],
    "a½": [("IDENT", "a½", 1, 1), ("EOF", "", 1, 3)],
    "aⅫ": [("IDENT", "aⅫ", 1, 1), ("EOF", "", 1, 3)],
    "²": [("INT_LIT", "²", 1, 1), ("EOF", "", 1, 2)],
    "1²": [("INT_LIT", "1²", 1, 1), ("EOF", "", 1, 3)],
    "٣": [("INT_LIT", "٣", 1, 1), ("EOF", "", 1, 2)],
    "٣٤.٥": [("FLOAT_LIT", "٣٤.٥", 1, 1), ("EOF", "", 1, 5)],
    "١e٢": [("FLOAT_LIT", "١e٢", 1, 1), ("EOF", "", 1, 4)],
    # tabs and carriage returns are one column each; only \n ends a line
    "a\tb\t\tc": [
        ("IDENT", "a", 1, 1), ("IDENT", "b", 1, 3), ("IDENT", "c", 1, 6),
        ("EOF", "", 1, 7),
    ],
    "a\r\nb\r\n  c": [
        ("IDENT", "a", 1, 1), ("IDENT", "b", 2, 1), ("IDENT", "c", 3, 3),
        ("EOF", "", 3, 4),
    ],
    '"a\\"b\\\\" c': [("STRING_LIT", 'a"b\\', 1, 1), ("IDENT", "c", 1, 10), ("EOF", "", 1, 11)],
    '"line\nbreak" x': [
        ("STRING_LIT", "line\nbreak", 1, 1), ("IDENT", "x", 2, 8), ("EOF", "", 2, 9),
    ],
    "/* a\n b */ c": [("IDENT", "c", 2, 7), ("EOF", "", 2, 8)],
    "// only\n#hash\nd": [("IDENT", "d", 3, 1), ("EOF", "", 3, 2)],
    "!x != y": [
        ("KW_NOT", "!", 1, 1), ("IDENT", "x", 1, 2), ("NEQ", "!=", 1, 4),
        ("IDENT", "y", 1, 7), ("EOF", "", 1, 8),
    ],
}


class TestPinnedStreams:
    """The token streams, positions and errors every input gets."""

    def test_every_corpus_and_generated_declaration(self):
        digest = hashlib.sha256()
        for source in _pinned_sources():
            for decl in split_declarations(source):
                for token in _stream(decl.text, decl.line):
                    digest.update(repr(token).encode())
        assert digest.hexdigest() == PINNED_STREAMS

    @pytest.mark.parametrize("source", list(PINNED_EDGES))
    def test_malformed_and_non_ascii_inputs(self, source):
        expected = PINNED_EDGES[source]
        if isinstance(expected, list):
            assert _stream(source) == expected
            return
        with pytest.raises(LexError) as raised:
            tokenize(source)
        assert (str(raised.value), raised.value.line, raised.value.col) == expected
