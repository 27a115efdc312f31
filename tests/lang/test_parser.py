"""Unit tests for the toy-language parser, including the ADDS extensions."""

import pytest

from repro.adds.library import ORTH_LIST_SRC, RANGE_TREE_2D_SRC
from repro.lang.ast_nodes import (
    Assign,
    BinOp,
    Call,
    FieldAccess,
    FieldAssign,
    For,
    If,
    IndexAccess,
    NullLit,
    ParallelFor,
    Return,
    While,
    is_traversal_update,
)
from repro.lang.errors import ParseError
from repro.lang.parser import parse_expression, parse_program


class TestTypeDeclarations:
    def test_simple_adds_declaration(self):
        program = parse_program(
            "type OneWayList [X] { int data; OneWayList *next is uniquely forward along X; };"
        )
        decl = program.types[0]
        assert decl.name == "OneWayList"
        assert decl.dimensions == ["X"]
        next_field = decl.field_named("next")
        assert next_field.is_pointer
        assert next_field.adds.direction == "forward"
        assert next_field.adds.unique
        assert next_field.adds.dimension == "X"
        assert decl.field_named("data").adds is None

    def test_plain_declaration_without_dimensions(self):
        program = parse_program("type Node { int v; Node *next; };")
        decl = program.types[0]
        assert decl.dimensions == []
        assert decl.field_named("next").adds is None

    def test_grouped_fields_share_group_and_spec(self):
        program = parse_program(
            "type BinTree [down] { int data; BinTree *left, *right is uniquely forward along down; };"
        )
        decl = program.types[0]
        left, right = decl.field_named("left"), decl.field_named("right")
        assert left.group == right.group and left.group is not None
        assert left.adds == right.adds

    def test_independence_clause(self):
        program = parse_program(RANGE_TREE_2D_SRC)
        decl = program.types[0]
        assert ("sub", "down") in decl.independences
        assert ("sub", "leaves") in decl.independences

    def test_array_of_pointers_field(self):
        program = parse_program(
            "type Octree [down] { Octree *subtrees[8] is uniquely forward along down; };"
        )
        field = program.types[0].field_named("subtrees")
        assert field.array_size == 8
        assert field.is_pointer

    def test_orthogonal_list_has_four_directed_fields(self):
        decl = parse_program(ORTH_LIST_SRC).types[0]
        assert {f.name for f in decl.recursive_pointer_fields()} == {
            "across", "back", "down", "up",
        }
        assert decl.field_named("back").adds.direction == "backward"

    def test_backward_field_direction(self):
        program = parse_program(
            "type L [X] { L *next is forward along X; L *prev is backward along X; };"
        )
        assert program.types[0].field_named("prev").adds.direction == "backward"
        assert not program.types[0].field_named("next").adds.unique


class TestStatements:
    def test_while_with_null_test(self):
        program = parse_program(
            "function f(p) { while p <> NULL { p = p->next; } return p; }"
        )
        body = program.functions[0].body.statements
        assert isinstance(body[0], While)
        assert isinstance(body[0].cond, BinOp) and body[0].cond.op == "<>"
        assert isinstance(body[0].cond.right, NullLit)
        assert isinstance(body[1], Return)

    def test_field_assignment_forms(self):
        program = parse_program(
            "procedure f(p, q) { p->next = q; p->subtrees[3] = q; p->data = 1 + 2; }"
        )
        stmts = program.functions[0].body.statements
        assert all(isinstance(s, FieldAssign) for s in stmts)
        assert stmts[1].index is not None
        assert stmts[0].field == "next"

    def test_for_and_parallel_for(self):
        program = parse_program(
            "procedure f(n) { for i = 0 to n - 1 { g(i); } for j = 0 to n - 1 in parallel { g(j); } }"
        )
        stmts = program.functions[0].body.statements
        assert isinstance(stmts[0], For)
        assert isinstance(stmts[1], ParallelFor)

    def test_if_then_else(self):
        program = parse_program(
            "function f(x) { if x > 0 then return 1; else return 0 - 1; }"
        )
        stmt = program.functions[0].body.statements[0]
        assert isinstance(stmt, If)
        assert stmt.else_body is not None

    def test_nested_calls_and_field_chains(self):
        expr = parse_expression("compute_force(p->next, root)->mass")
        assert isinstance(expr, FieldAccess)
        assert isinstance(expr.base, Call)
        assert isinstance(expr.base.args[0], FieldAccess)

    def test_index_access_expression(self):
        expr = parse_expression("node->subtrees[i + 1]")
        assert isinstance(expr, IndexAccess)
        assert isinstance(expr.base, FieldAccess)

    def test_operator_precedence(self):
        expr = parse_expression("1 + 2 * 3")
        assert isinstance(expr, BinOp) and expr.op == "+"
        assert isinstance(expr.right, BinOp) and expr.right.op == "*"

    def test_boolean_connectives(self):
        expr = parse_expression("a < b and not c or d == e")
        assert isinstance(expr, BinOp) and expr.op == "or"

    def test_traversal_update_is_exactly_p_gets_p_field(self):
        """``p = p->f`` is the pointer-chasing step every loop test keys on;
        any other base, a store, a plain copy or an indexed load is not."""
        program = parse_program(
            "procedure f(p, q) { p = p->next; p = q->next; p->next = p; p = p; "
            "p = g(p)->next; p = p->subtrees[0]; q = q->down; }"
        )
        stmts = program.functions[0].body.statements
        assert [is_traversal_update(s) for s in stmts] == [
            True, False, False, False, False, False, True,
        ]


class TestErrors:
    def test_missing_semicolon_is_an_error(self):
        with pytest.raises(ParseError):
            parse_program("function f() { return 1 }")

    def test_bad_adds_direction_is_an_error(self):
        with pytest.raises(ParseError):
            parse_program("type T [X] { T *n is sideways along X; };")

    def test_assignment_to_literal_is_an_error(self):
        with pytest.raises(ParseError):
            parse_program("function f() { 3 = 4; }")

    def test_top_level_garbage_is_an_error(self):
        with pytest.raises(ParseError):
            parse_program("banana")


class TestWholePrograms:
    def test_scale_program_parses(self, scale_program):
        assert scale_program.type_named("ListNode") is not None
        assert {f.name for f in scale_program.functions} == {"build", "scale", "main"}

    def test_barnes_hut_toy_program_parses(self, bh_program):
        assert bh_program.type_named("Octree") is not None
        assert bh_program.function_named("build_tree") is not None
        assert bh_program.function_named("compute_force") is not None
