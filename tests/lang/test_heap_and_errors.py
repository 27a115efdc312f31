"""Additional coverage: the heap model, error formatting, type helpers."""

import pytest

from repro.lang.errors import LangError, LexError, ParseError, TypeCheckError
from repro.lang.heap import Heap, NULL_REF, _pointer_values
from repro.lang.errors import RuntimeLangError
from repro.lang.types import (
    BOOL,
    FLOAT,
    INT,
    NULL_POINTER,
    PointerType,
    RecordType,
    ArrayType,
    compatible,
    type_from_name,
)


class TestHeapModel:
    def test_allocate_and_access(self):
        heap = Heap()
        ref = heap.allocate("Node", {"v": 1, "next": NULL_REF})
        assert heap.is_valid(ref)
        assert heap.load(ref, "v") == 1
        heap.store(ref, "v", 2)
        assert heap.cell(ref).fields["v"] == 2
        assert len(heap) == 1 and heap.allocation_count == 1

    def test_null_and_dangling_dereference(self):
        heap = Heap()
        with pytest.raises(RuntimeLangError):
            heap.cell(NULL_REF)
        with pytest.raises(RuntimeLangError):
            heap.cell(999)

    def test_unknown_field_access(self):
        heap = Heap()
        ref = heap.allocate("Node", {"v": 1})
        with pytest.raises(RuntimeLangError):
            heap.load(ref, "w")
        with pytest.raises(RuntimeLangError):
            heap.store(ref, "w", 0)

    def test_reachability_and_edges(self):
        heap = Heap()
        a = heap.allocate("Node", {"next": NULL_REF})
        b = heap.allocate("Node", {"next": NULL_REF})
        c = heap.allocate("Node", {"next": NULL_REF})
        heap.store(a, "next", b)
        heap.store(b, "next", c)
        assert heap.reachable_from(a, fields={"next"}) == {a, b, c}
        assert heap.reachable_from(b, fields={"next"}) == {b, c}
        edges = list(heap.edges(fields={"next"}))
        assert (a, "next", b) in edges and (b, "next", c) in edges

    def test_pointer_arrays_are_followed(self):
        heap = Heap()
        child = heap.allocate("Node", {"kids": [NULL_REF, NULL_REF]})
        parent = heap.allocate("Node", {"kids": [child, NULL_REF]})
        assert heap.reachable_from(parent, fields={"kids"}) == {parent, child}

    def test_cells_of_type_and_snapshot(self):
        heap = Heap()
        heap.allocate("A", {"v": 1})
        heap.allocate("B", {"v": 2})
        assert len(heap.cells_of_type("A")) == 1
        assert heap.snapshot() == ((1, "A", (("v", 1),)), (2, "B", (("v", 2),)))

    def test_pointer_values_skips_bools(self):
        assert list(_pointer_values(True)) == []
        assert list(_pointer_values(7)) == [7]
        assert list(_pointer_values([3, True, 5])) == [3, 5]


class TestTypeHelpers:
    def test_type_from_name(self):
        assert type_from_name("int", False) is INT
        assert isinstance(type_from_name("Node", True), PointerType)
        arr = type_from_name("Node", True, 4)
        assert isinstance(arr, ArrayType) and arr.size == 4

    def test_compatibility_rules(self):
        node_ptr = PointerType(RecordType("Node"))
        other_ptr = PointerType(RecordType("Other"))
        assert compatible(INT, FLOAT)
        assert compatible(node_ptr, NULL_POINTER)
        assert compatible(NULL_POINTER, node_ptr)
        assert not compatible(node_ptr, other_ptr)
        assert not compatible(BOOL, node_ptr)

    def test_string_forms(self):
        assert str(PointerType(RecordType("Node"))) == "Node*"
        assert str(ArrayType(INT, 8)) == "int[8]"


class TestErrorFormatting:
    def test_positions_in_messages(self):
        assert "line 3" in str(LangError("boom", 3))
        assert "col 7" in str(ParseError("boom", 3, 7))
        assert str(LexError("bad")) == "bad"
        assert issubclass(TypeCheckError, LangError)
