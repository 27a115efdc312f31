"""An explicit heap model for the toy-language interpreter.

The heap is a map from integer references to :class:`HeapCell` records.  The
model exists for two reasons:

1. the interpreter needs somewhere to store dynamically allocated records,
2. the ADDS *runtime checker* (:mod:`repro.adds.runtime_check`) inspects a
   concrete heap to decide whether a structure actually satisfies its
   declared shape (acyclicity per dimension, uniqueness of inbound edges,
   dimension independence) — the dynamic analogue of abstraction validation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.lang.errors import RuntimeLangError


#: The NULL reference.  Reference 0 is reserved and never allocated.
NULL_REF = 0


@dataclass
class HeapCell:
    """One dynamically allocated record."""

    ref: int
    type_name: str
    fields: dict[str, Any] = field(default_factory=dict)

    def get(self, name: str) -> Any:
        if name not in self.fields:
            raise RuntimeLangError(
                f"record of type {self.type_name!r} has no field {name!r}"
            )
        return self.fields[name]

    def set(self, name: str, value: Any) -> None:
        if name not in self.fields:
            raise RuntimeLangError(
                f"record of type {self.type_name!r} has no field {name!r}"
            )
        self.fields[name] = value


class Heap:
    """A growable store of :class:`HeapCell` addressed by integer references."""

    def __init__(self):
        self._cells: dict[int, HeapCell] = {}
        self._next_ref = 1
        self.allocation_count = 0

    def allocate(self, type_name: str, field_names: dict[str, Any]) -> int:
        """Allocate a record of ``type_name`` with the given initial fields."""
        ref = self._next_ref
        self._next_ref += 1
        self._cells[ref] = HeapCell(ref=ref, type_name=type_name, fields=dict(field_names))
        self.allocation_count += 1
        return ref

    def cell(self, ref: int) -> HeapCell:
        if ref == NULL_REF:
            raise RuntimeLangError("NULL pointer dereference")
        cell = self._cells.get(ref)
        if cell is None:
            raise RuntimeLangError(f"dangling reference {ref}")
        return cell

    def is_valid(self, ref: int) -> bool:
        return ref != NULL_REF and ref in self._cells

    def load(self, ref: int, field_name: str) -> Any:
        return self.cell(ref).get(field_name)

    def store(self, ref: int, field_name: str, value: Any) -> None:
        self.cell(ref).set(field_name, value)

    def __len__(self) -> int:
        return len(self._cells)

    def __iter__(self) -> Iterator[HeapCell]:
        return iter(self._cells.values())

    def cells_of_type(self, type_name: str) -> list[HeapCell]:
        return [c for c in self._cells.values() if c.type_name == type_name]

    # -- reachability utilities (used by the ADDS runtime checker) ----------
    def reachable_from(self, ref: int, fields: set[str] | None = None) -> set[int]:
        """Return the refs reachable from ``ref`` following pointer fields.

        If ``fields`` is given only those field names are followed.  Pointer
        values stored in field arrays (lists) are followed element-wise.
        """
        seen: set[int] = set()
        stack = [ref]
        while stack:
            cur = stack.pop()
            if cur == NULL_REF or cur in seen or cur not in self._cells:
                continue
            seen.add(cur)
            cell = self._cells[cur]
            for fname, value in cell.fields.items():
                if fields is not None and fname not in fields:
                    continue
                for target in _pointer_values(value):
                    if target not in seen:
                        stack.append(target)
        return seen

    def edges(self, fields: set[str] | None = None) -> Iterator[tuple[int, str, int]]:
        """Yield ``(source_ref, field, target_ref)`` for every non-NULL pointer edge."""
        for cell in self._cells.values():
            for fname, value in cell.fields.items():
                if fields is not None and fname not in fields:
                    continue
                for target in _pointer_values(value):
                    if target != NULL_REF and target in self._cells:
                        yield (cell.ref, fname, target)

    def snapshot(self) -> tuple:
        """Every cell with every field, pointer fields included, in
        reference order: two heaps hold the same structure and data exactly
        when their snapshots are equal."""
        return tuple(
            (
                cell.ref,
                cell.type_name,
                tuple((name, normalize(value)) for name, value in sorted(cell.fields.items())),
            )
            for cell in self._cells.values()
        )


def normalize(value: Any) -> Any:
    """``value`` as a snapshot holds it: hashable (a list becomes a tuple),
    with floats rounded to 12 places so that its repr round-trips."""
    if isinstance(value, list):
        return tuple(normalize(v) for v in value)
    if isinstance(value, float):
        return round(value, 12)
    return value


def _pointer_values(value: Any) -> Iterator[int]:
    """Yield the heap references contained in a field value."""
    if isinstance(value, bool):
        return
    if isinstance(value, int):
        yield value
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, int) and not isinstance(item, bool):
                yield item
