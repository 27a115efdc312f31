"""ADDS — Abstract Description of Data Structures (paper section 3).

An ADDS declaration augments a recursive record type with:

* **dimensions** — named "axes" of the structure (a one-way list has one
  dimension, an orthogonal list two, a 2-D range tree three),
* per pointer field, the **direction** it traverses along one dimension
  (``forward`` — one unit away from the origin, ``backward`` — one unit
  toward it, or ``unknown`` — possibly cyclic),
* per pointer field, whether the forward traversal is **unique** (every node
  has at most one inbound edge along that dimension — the "uniquely forward"
  qualifier),
* pairwise **independence** between dimensions (``where A||B``) — a node
  reachable forward along ``A`` is not reachable forward along ``B``;
  dimensions are *dependent* by default (the conservative assumption).

The type checker (:mod:`repro.lang.typecheck`) enforces the declaration
rules: every ``along D`` and ``A||B`` names a declared dimension, ``A||B``
relates two distinct ones, ``uniquely`` goes only with ``forward``, and a
pointer array to its own type has an element.  A declaration that breaks
one is a type error at its line.

The subpackage provides:

* :mod:`repro.adds.declaration` — the semantic model (:class:`AddsType`)
  of a checked declaration,
* :mod:`repro.adds.library` — the paper's example declarations
  (OneWayList, TwoWayList, BinTree, OrthList, TwoDRangeTree, Octree, ...),
* :mod:`repro.adds.runtime_check` — dynamic validation of a concrete heap
  against a declaration (the runtime analogue of abstraction validation),
* :mod:`repro.adds.properties` — derived facts the analysis consumes
  (acyclic fields, disjointness, "never visits the same node twice").
"""

from repro.adds.declaration import (
    Direction,
    Dimension,
    FieldSpec,
    AddsType,
    from_type_decl,
    program_adds_types,
)
from repro.adds.library import (
    ONE_WAY_LIST_SRC,
    TWO_WAY_LIST_SRC,
    BIN_TREE_SRC,
    ORTH_LIST_SRC,
    RANGE_TREE_2D_SRC,
    OCTREE_SRC,
    QUADTREE_SRC,
    standard_declarations,
    standard_source,
    declaration,
)
from repro.adds.runtime_check import (
    ShapeViolation,
    RuntimeShapeChecker,
    check_heap_against_declaration,
)
from repro.adds.properties import DerivedProperties, derive_properties

__all__ = [
    "Direction",
    "Dimension",
    "FieldSpec",
    "AddsType",
    "from_type_decl",
    "program_adds_types",
    "ONE_WAY_LIST_SRC",
    "TWO_WAY_LIST_SRC",
    "BIN_TREE_SRC",
    "ORTH_LIST_SRC",
    "RANGE_TREE_2D_SRC",
    "OCTREE_SRC",
    "QUADTREE_SRC",
    "standard_declarations",
    "standard_source",
    "declaration",
    "ShapeViolation",
    "RuntimeShapeChecker",
    "check_heap_against_declaration",
    "DerivedProperties",
    "derive_properties",
]
