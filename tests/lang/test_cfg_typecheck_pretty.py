"""Tests for the CFG builder, the type inferencer and the pretty-printer."""

import pytest

from repro.lang.ast_nodes import Assign, While
from repro.lang.cfg import build_cfg
from repro.lang.errors import TypeCheckError
from repro.lang.interpreter import run_program
from repro.lang.parser import parse_program
from repro.lang.pretty import unparse
from repro.lang.typecheck import check_program


class TestCFG:
    def test_straight_line_code_is_one_block_plus_exit(self):
        program = parse_program("function f(x) { var y; y = x + 1; return y; }")
        cfg = build_cfg(program.functions[0])
        assert cfg.block(cfg.entry).statements
        assert cfg.reverse_postorder()[0] == cfg.entry

    def test_while_loop_creates_back_edge(self, scale_program):
        cfg = build_cfg(scale_program.function_named("scale"))
        headers = cfg.loop_headers()
        assert len(headers) == 1
        header = cfg.block(headers[0])
        assert isinstance(header.loop_header_of, While)
        # the header has two successors: body and exit path
        assert len(header.successors) == 2

    def test_if_produces_join_block(self):
        program = parse_program(
            "function f(x) { var y; if x > 0 then y = 1; else y = 2; return y; }"
        )
        cfg = build_cfg(program.functions[0])
        joins = [b for b in cfg.blocks if b.label == "if.join"]
        assert len(joins) == 1
        assert len(joins[0].predecessors) == 2

    def test_for_loop_is_lowered_with_induction_update(self):
        program = parse_program("function f(n) { var s; s = 0; for i = 1 to n { s = s + i; } return s; }")
        cfg = build_cfg(program.functions[0])
        # the init assignment i = 1 must appear in some block
        inits = [
            s for b in cfg.blocks for s in b.statements
            if isinstance(s, Assign) and s.target == "i"
        ]
        assert len(inits) >= 2  # init plus increment

    def test_statement_count_matches_blocks(self, bh_program):
        for func in bh_program.functions:
            cfg = build_cfg(func)
            assert cfg.statement_count() >= 0
            assert cfg.exit == cfg.blocks[cfg.exit].index


class TestTypeInference:
    def test_pointer_variables_are_found(self, scale_program):
        result = check_program(scale_program)
        env = result.env("scale")
        assert "p" in env.pointer_variables()
        assert env.pointee_record("p") == "ListNode"
        assert "head" in env.pointer_variables()  # via backward propagation

    def test_scalar_parameters_stay_scalar(self, scale_program):
        env = check_program(scale_program).env("scale")
        assert env.pointee_record("c") is None

    def test_duplicate_type_declaration_rejected(self):
        with pytest.raises(TypeCheckError):
            check_program(parse_program("type T { int v; }; type T { int w; };"))

    def test_duplicate_field_rejected(self):
        with pytest.raises(TypeCheckError):
            check_program(parse_program("type T { int v; int v; };"))

    def test_unknown_field_type_rejected(self):
        with pytest.raises(TypeCheckError):
            check_program(parse_program("type T { Unknown *u; };"))

    def test_adds_on_data_field_rejected(self):
        with pytest.raises(TypeCheckError):
            check_program(
                parse_program("type T [X] { int v is forward along X; T *n; };")
            )

    def test_allocation_gives_pointer_type(self):
        program = parse_program(
            "type T { int v; T *n; }; function f() { var p; p = new T; return p; }"
        )
        env = check_program(program).env("f")
        assert env.pointee_record("p") == "T"


class TestPrettyPrinterRoundTrip:
    def test_scale_program_round_trips(self, scale_program):
        text = unparse(scale_program)
        reparsed = parse_program(text)
        r1, i1 = run_program(scale_program)
        r2, i2 = run_program(reparsed)
        assert i1.heap.snapshot() == i2.heap.snapshot()

    def test_barnes_hut_round_trips(self, bh_program):
        text = unparse(bh_program)
        reparsed = parse_program(text)
        assert {f.name for f in reparsed.functions} == {f.name for f in bh_program.functions}
        r1, i1 = run_program(bh_program)
        r2, i2 = run_program(reparsed)
        assert len(i1.heap) == len(i2.heap)

    def test_adds_annotations_survive_round_trip(self):
        source = (
            "type OrthList [X] [Y]\n{ int data;\n  OrthList *across is uniquely forward along X;\n};"
        )
        reparsed = parse_program(unparse(parse_program(source)))
        field = reparsed.types[0].field_named("across")
        assert field.adds.unique and field.adds.dimension == "X"

    def test_independences_survive_round_trip(self):
        from repro.adds.library import RANGE_TREE_2D_SRC

        reparsed = parse_program(unparse(parse_program(RANGE_TREE_2D_SRC)))
        assert set(map(tuple, reparsed.types[0].independences)) == {
            ("sub", "down"), ("sub", "leaves"),
        }
