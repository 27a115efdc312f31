"""Semantic model of ADDS declarations.

This module translates the syntactic ADDS annotations attached to a
:class:`repro.lang.ast_nodes.TypeDecl` into the semantic objects the
analyses operate on: :class:`AddsType`, :class:`Dimension`,
:class:`FieldSpec` and :class:`Direction`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field as dc_field

from repro.lang.ast_nodes import Program, TypeDecl


class Direction(enum.Enum):
    """The direction a pointer field traverses along its dimension.

    ``FORWARD``/``BACKWARD`` declare acyclic movement away from / toward the
    dimension's origin; ``UNKNOWN`` is the conservative default that permits
    cycles (the paper: "all recursive pointer fields traverse D in an
    'unknown' (i.e. possibly cyclic) direction").
    """

    FORWARD = "forward"
    BACKWARD = "backward"
    UNKNOWN = "unknown"

    @property
    def is_acyclic(self) -> bool:
        return self is not Direction.UNKNOWN

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class FieldSpec:
    """ADDS facts about one recursive pointer field.

    ``group`` ties together fields declared in the same declarator list
    (e.g. ``Octree *left, *right is uniquely forward along down``); the paper
    uses co-declaration to express that left/right traversals are disjoint.
    ``fanout`` is the number of pointers held by the field (1 for a scalar
    pointer, k for a ``subtrees[k]`` array).
    """

    name: str
    dimension: str
    direction: Direction = Direction.UNKNOWN
    unique: bool = False
    group: int | None = None
    fanout: int = 1

    @property
    def is_acyclic(self) -> bool:
        return self.direction.is_acyclic

    @property
    def is_uniquely_forward(self) -> bool:
        return self.unique and self.direction is Direction.FORWARD

    def describe(self) -> str:
        uniq = "uniquely " if self.unique else ""
        return f"{self.name} is {uniq}{self.direction} along {self.dimension}"


@dataclass
class Dimension:
    """One declared dimension with the fields that traverse it."""

    name: str
    forward_fields: list[FieldSpec] = dc_field(default_factory=list)
    backward_fields: list[FieldSpec] = dc_field(default_factory=list)
    unknown_fields: list[FieldSpec] = dc_field(default_factory=list)

    def all_fields(self) -> list[FieldSpec]:
        return self.forward_fields + self.backward_fields + self.unknown_fields

    @property
    def is_acyclic(self) -> bool:
        """A dimension is acyclic iff no field traverses it in an unknown direction."""
        return not self.unknown_fields


@dataclass
class AddsType:
    """The ADDS view of one record type.

    ``independences`` holds unordered pairs of dimension names declared
    independent; every other pair is dependent (the conservative default,
    see footnote 3 of the paper).
    """

    name: str
    dimensions: dict[str, Dimension] = dc_field(default_factory=dict)
    fields: dict[str, FieldSpec] = dc_field(default_factory=dict)
    independences: set[frozenset[str]] = dc_field(default_factory=set)
    #: non-ADDS data fields (payload), kept for completeness
    data_fields: list[str] = dc_field(default_factory=list)
    #: pointer fields to *other* record types (not part of the recursive shape)
    external_pointer_fields: list[str] = dc_field(default_factory=list)

    # -- queries used throughout the analysis --------------------------------
    def has_adds_info(self) -> bool:
        """True when the programmer actually declared dimensions (not defaulted)."""
        return any(
            spec.direction is not Direction.UNKNOWN or spec.unique
            for spec in self.fields.values()
        ) and bool(self.dimensions)

    def field_spec(self, field_name: str) -> FieldSpec | None:
        return self.fields.get(field_name)

    def dimension_of(self, field_name: str) -> str | None:
        spec = self.fields.get(field_name)
        return spec.dimension if spec is not None else None

    def direction_of(self, field_name: str) -> Direction:
        spec = self.fields.get(field_name)
        return spec.direction if spec is not None else Direction.UNKNOWN

    def is_acyclic_field(self, field_name: str) -> bool:
        """True when following ``field_name`` can never close a cycle.

        A field is acyclic if it is declared ``forward`` or ``backward``
        along its dimension *and* no other field traverses the same dimension
        in an unknown direction.  (Forward and backward along the same
        dimension do form 2-cycles — e.g. ``next``/``prev`` — but each field
        on its own never revisits a node; that per-field property is what the
        analysis needs for traversal loops.)
        """
        spec = self.fields.get(field_name)
        return spec is not None and spec.is_acyclic

    def independent(self, dim_a: str, dim_b: str) -> bool:
        """True when the two dimensions were declared independent (``A||B``)."""
        if dim_a == dim_b:
            return False
        return frozenset((dim_a, dim_b)) in self.independences

    def dependent(self, dim_a: str, dim_b: str) -> bool:
        return dim_a != dim_b and not self.independent(dim_a, dim_b)

    def fields_along(self, dimension: str) -> list[FieldSpec]:
        dim = self.dimensions.get(dimension)
        return dim.all_fields() if dim is not None else []

    def same_dimension(self, field_a: str, field_b: str) -> bool:
        da, db = self.dimension_of(field_a), self.dimension_of(field_b)
        return da is not None and da == db

    def opposite_directions(self, field_a: str, field_b: str) -> bool:
        """True for e.g. ``next``/``prev``: same dimension, forward vs backward."""
        if not self.same_dimension(field_a, field_b):
            return False
        dirs = {self.direction_of(field_a), self.direction_of(field_b)}
        return dirs == {Direction.FORWARD, Direction.BACKWARD}

    def describe(self) -> str:
        """Human-readable summary (used in reports and examples)."""
        lines = [f"ADDS type {self.name}"]
        dims = ", ".join(self.dimensions) or "(single default dimension)"
        lines.append(f"  dimensions: {dims}")
        for pair in sorted(tuple(sorted(p)) for p in self.independences):
            lines.append(f"  independent: {pair[0]} || {pair[1]}")
        for spec in self.fields.values():
            lines.append(f"  {spec.describe()}")
        if self.data_fields:
            lines.append(f"  data fields: {', '.join(self.data_fields)}")
        return "\n".join(lines)


def from_type_decl(decl: TypeDecl) -> AddsType:
    """Build the :class:`AddsType` semantic model of a declaration the type
    checker accepted (:mod:`repro.lang.typecheck` enforces the ADDS rules).

    Follows the paper's defaulting rule: a structure with no declared
    dimensions has one dimension ``D`` traversed by every recursive pointer
    field in an unknown (possibly cyclic) direction.
    """
    adds = AddsType(name=decl.name)
    declared_dims = decl.adds_dimensions()
    for dim_name in declared_dims:
        adds.dimensions[dim_name] = Dimension(name=dim_name)
    for a, b in decl.independences:
        adds.independences.add(frozenset((a, b)))

    for f in decl.fields:
        if not f.is_pointer:
            adds.data_fields.append(f.name)
            continue
        if f.type_name != decl.name:
            adds.external_pointer_fields.append(f.name)
            continue
        if f.adds is not None:
            dim_name = f.adds.dimension
            direction = Direction(f.adds.direction)
            unique = f.adds.unique
        else:
            dim_name = declared_dims[0]
            direction = Direction.UNKNOWN
            unique = False
        spec = FieldSpec(
            name=f.name,
            dimension=dim_name,
            direction=direction,
            unique=unique,
            group=f.group,
            fanout=f.array_size if f.array_size is not None else 1,
        )
        adds.fields[f.name] = spec
        dim = adds.dimensions[dim_name]
        if direction is Direction.FORWARD:
            dim.forward_fields.append(spec)
        elif direction is Direction.BACKWARD:
            dim.backward_fields.append(spec)
        else:
            dim.unknown_fields.append(spec)
    return adds


def program_adds_types(program: Program) -> dict[str, AddsType]:
    """Build the ADDS model for every record type declared in ``program``."""
    return {decl.name: from_type_decl(decl) for decl in program.types}
