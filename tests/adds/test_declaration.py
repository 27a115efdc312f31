"""Tests for the ADDS semantic model and the standard declaration library."""

import pytest

from repro.adds.declaration import Direction, from_type_decl, program_adds_types
from repro.adds.library import (
    declaration,
    standard_declarations,
    standard_program,
    standard_source,
)
from repro.adds.properties import derive_properties
from repro.lang.errors import TypeCheckError
from repro.lang.parser import parse_program
from repro.lang.typecheck import check_program


class TestFromTypeDecl:
    def test_one_way_list_model(self):
        adds = declaration("OneWayList")
        assert list(adds.dimensions) == ["X"]
        spec = adds.field_spec("next")
        assert spec.direction is Direction.FORWARD
        assert spec.unique
        assert adds.is_acyclic_field("next")
        assert adds.data_fields == ["data"]

    def test_default_dimension_for_plain_types(self):
        adds = declaration("PlainListNode")
        assert list(adds.dimensions) == ["D"]
        assert adds.field_spec("next").direction is Direction.UNKNOWN
        assert not adds.has_adds_info()

    def test_octree_dimensions_and_fanout(self):
        adds = declaration("Octree")
        assert set(adds.dimensions) == {"down", "leaves"}
        assert adds.field_spec("subtrees").fanout == 8
        assert adds.field_spec("next").dimension == "leaves"
        assert adds.dependent("down", "leaves")  # dependent by default

    def test_range_tree_independences(self):
        adds = declaration("TwoDRangeTree")
        assert adds.independent("sub", "down")
        assert adds.independent("down", "sub")  # symmetric
        assert adds.independent("sub", "leaves")
        assert not adds.independent("down", "leaves")
        assert not adds.independent("down", "down")

    def test_two_way_list_opposite_directions(self):
        adds = declaration("TwoWayList")
        assert adds.opposite_directions("next", "prev")
        assert not adds.opposite_directions("next", "next")

    def test_program_adds_types_covers_all_declarations(self):
        program = standard_program("OneWayList", "BinTree", "Octree")
        types = program_adds_types(program)
        assert set(types) == {"OneWayList", "BinTree", "Octree"}

    def test_external_pointer_fields_are_separated(self):
        program = parse_program(
            "type Other { int v; }; type T [X] { Other *payload; T *next is forward along X; };"
        )
        adds = from_type_decl(program.types[1])
        assert adds.external_pointer_fields == ["payload"]
        assert list(adds.fields) == ["next"]


class TestStandardLibrary:
    def test_every_standard_source_type_checks(self):
        for name in standard_declarations():
            check_program(parse_program(standard_source(name)))

    def test_sources_round_trip_through_parser(self):
        for name in ("OneWayList", "OrthList", "TwoDRangeTree", "Octree"):
            assert parse_program(standard_source(name)).types[0].name == name

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            standard_source("NoSuchStructure")

    def test_tournament_list_is_not_unique(self):
        adds = declaration("TournamentList")
        assert adds.field_spec("next").direction is Direction.FORWARD
        assert not adds.field_spec("next").unique

    def test_describe_mentions_every_field(self):
        text = declaration("OrthList").describe()
        for field in ("across", "back", "down", "up"):
            assert field in text


class TestDerivedProperties:
    def test_one_way_list_traversal_properties(self):
        props = derive_properties(declaration("OneWayList"))
        assert props.traversal_never_revisits("next")
        assert props.unique_inbound("next")
        assert props.subtrees_disjoint("next")
        assert not props.may_form_cycle("next")

    def test_plain_list_is_conservative(self):
        props = derive_properties(declaration("PlainListNode"))
        assert not props.traversal_never_revisits("next")
        assert props.may_form_cycle("next")

    def test_bintree_siblings_disjoint(self):
        props = derive_properties(declaration("BinTree"))
        assert props.siblings_disjoint("left", "right")

    def test_octree_array_field_self_disjoint(self):
        props = derive_properties(declaration("Octree"))
        assert props.siblings_disjoint("subtrees", "subtrees")

    def test_needless_cycle_pairs_for_two_way_list(self):
        props = derive_properties(declaration("TwoWayList"))
        assert ("next", "prev") in props.needless_cycle_pairs() or (
            "prev", "next"
        ) in props.needless_cycle_pairs()

    def test_range_tree_field_independence(self):
        props = derive_properties(declaration("TwoDRangeTree"))
        assert props.fields_independent("subtree", "left")
        assert props.fields_independent("subtree", "next")
        assert not props.fields_independent("left", "next")  # dependent dims
        assert not props.fields_independent("left", "right")  # same dim

    def test_summary_is_printable(self):
        text = derive_properties(declaration("Octree")).summary()
        assert "acyclic" in text


def _type_error(source: str) -> TypeCheckError:
    with pytest.raises(TypeCheckError) as caught:
        check_program(parse_program(source))
    return caught.value


class TestDeclarationRules:
    """A declaration that breaks an ADDS rule is a type error at its line:
    the field's, or the type's for a ``where`` clause."""

    def test_a_field_traverses_a_declared_dimension(self):
        error = _type_error("type T [X]\n{ int v;\n  T *n is forward along Y; };")
        assert error.line == 3
        assert "undeclared dimension 'Y'" in str(error)

    def test_a_type_without_dimensions_has_only_d(self):
        check_program(parse_program("type T { T *n is forward along D; };"))
        error = _type_error("type T { T *n is forward along X; };")
        assert error.line == 1 and "undeclared dimension 'X'" in str(error)

    def test_independence_names_declared_dimensions(self):
        error = _type_error("type T [X]\n  where X||Z\n{ T *n is forward along X; };")
        assert error.line == 1
        assert "undeclared dimension 'Z'" in str(error)

    def test_independence_relates_distinct_dimensions(self):
        error = _type_error("type T [X] [Y] where X||X\n{ T *n is forward along X; };")
        assert error.line == 1 and "two distinct dimensions" in str(error)

    def test_uniquely_goes_only_with_forward(self):
        error = _type_error("type T [X]\n{ T *p is uniquely backward along X; };")
        assert error.line == 2 and "'uniquely'" in str(error)
        check_program(parse_program("type T [X] { T *n is uniquely forward along X; };"))

    def test_a_pointer_array_to_its_own_type_has_an_element(self):
        error = _type_error("type T [X]\n{ int v;\n  T *kids[0] is forward along X; };")
        assert error.line == 3 and "at least one element" in str(error)
