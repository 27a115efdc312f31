"""Cutting a source into declarations, parsing one at its true lines, and
inferring types independently of declaration order."""

import pytest

from repro.driver.corpus import CORPORA, corpus_named
from repro.fuzz.generator import generate_program
from repro.lang.errors import LangError, ParseError
from repro.lang.parser import parse_program
from repro.lang.pretty import unparse
from repro.lang.split import split_declarations
from repro.lang.typecheck import check_program, inferred_return_type
from repro.lang.types import (
    BOOL,
    FLOAT,
    INT,
    NULL_POINTER,
    STRING,
    ArrayType,
    PointerType,
    RecordType,
    type_from_string,
)

SOURCE = """/* header { not a brace } */
type ListNode [X]
{ int coef;   // a comment with a }
  ListNode *next is uniquely forward along X;
}
;

# hash comment {
function walk(p)
{ var s;
  s = "a } string with \\" an escaped quote {";
  while p <> NULL
  { p = p->next; }
  return s;
}
procedure  /* gap */ touch ( q /* the list */ )
{ q->coef = 1; }
type Plain { int v; }
function main() { return walk(NULL); }
"""


class TestSplit:
    def test_kinds_names_lines_and_exact_text(self):
        decls = split_declarations(SOURCE)
        assert [(d.kind, d.name, d.line) for d in decls] == [
            ("type", "ListNode", 2),
            ("function", "walk", 9),
            ("function", "touch", 16),
            ("type", "Plain", 18),
            ("function", "main", 19),
        ]
        # a type's ``;`` belongs to it, even on its own line
        assert decls[0].text.startswith("type ListNode [X]\n{")
        assert decls[0].text.endswith("}\n;")
        assert decls[3].text == "type Plain { int v; }"
        assert decls[1].text.endswith("return s;\n}")
        assert decls[4].text == "function main() { return walk(NULL); }"

    def test_every_declaration_parses_alone_at_its_lines(self):
        whole = parse_program(SOURCE)
        parts = [parse_program(d.text, d.line) for d in split_declarations(SOURCE)]
        types = [t for p in parts for t in p.types]
        functions = [f for p in parts for f in p.functions]
        assert [unparse(t) for t in types] == [unparse(t) for t in whole.types]
        assert [unparse(f) for f in functions] == [unparse(f) for f in whole.functions]
        assert [f.line for f in functions] == [f.line for f in whole.functions]
        loop = functions[0].body.statements[2]
        assert loop.line == whole.functions[0].body.statements[2].line == 12

    def test_parameters_are_read_from_the_header(self):
        decls = {d.name: d for d in split_declarations(SOURCE)}
        assert decls["touch"].takes_parameters()
        assert not decls["main"].takes_parameters()
        (braced,) = split_declarations("function main(/* { */) { return 0; }")
        assert not braced.takes_parameters()

    @pytest.mark.parametrize(
        "source",
        [
            "var x;",
            "function f() { return 1; } ;",
            "function f() { return 1; ",
            "function f() } {",
            "function f() { /* never closed }",
            'function f() { s = "never closed; }',
            "function { }",
        ],
    )
    def test_undelimitable_sources_are_rejected(self, source):
        with pytest.raises(ParseError):
            split_declarations(source)

    def test_split_agrees_with_the_parser_on_every_corpus_and_generated_program(self):
        sources = [
            item.source for name in sorted(CORPORA) for item in corpus_named(name)
        ]
        sources += [generate_program(seed).source for seed in range(40)]
        for source in sources:
            try:
                program = parse_program(source)
            except LangError:
                continue
            decls = [d for d in split_declarations(source) if d.kind == "function"]
            assert [(d.name, d.line) for d in decls] == [
                (f.name, f.line) for f in program.functions
            ]
            for decl, func in zip(decls, program.functions):
                alone = parse_program(decl.text, decl.line).functions[0]
                assert unparse(alone) == unparse(func)


class TestTypeStrings:
    @pytest.mark.parametrize(
        "ty",
        [
            INT,
            FLOAT,
            BOOL,
            STRING,
            NULL_POINTER,
            RecordType("Node"),
            PointerType(RecordType("Node")),
            ArrayType(PointerType(RecordType("Cell")), 8),
            ArrayType(INT, None),
        ],
    )
    def test_round_trip(self, ty):
        assert type_from_string(str(ty)) == ty


TYPES = "type ListNode [X] { int coef; ListNode *next is uniquely forward along X; };\n"
F = "function f(n) { var x; var y; x = g(n); y = x; return y; }\n"
G = "function g(n) { var q; q = new ListNode; q->coef = n; return q; }\n"


class TestInferenceOrder:
    def test_a_callers_environment_does_not_depend_on_declaration_order(self):
        before = check_program(parse_program(TYPES + F + G)).env("f").types
        after = check_program(parse_program(TYPES + G + F)).env("f").types
        assert before == after
        assert str(before["x"]) == str(before["y"]) == "ListNode*"

    def test_environments_are_reported_in_declaration_order(self):
        result = check_program(parse_program(TYPES + F + G))
        assert list(result.environments) == ["f", "g"]

    def test_a_function_alone_infers_as_in_its_program(self):
        whole = check_program(parse_program(TYPES + F + G))
        returned = inferred_return_type(whole.program, whole, "g")
        alone = check_program(parse_program(TYPES + F), external_returns={"g": returned})
        assert alone.env("f").types == whole.env("f").types
        assert inferred_return_type(alone.program, alone, "f") == inferred_return_type(
            whole.program, whole, "f"
        )
