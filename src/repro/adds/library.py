"""The paper's example ADDS declarations, as reusable source snippets.

Section 3 of the paper develops ADDS declarations for a series of scientific
pointer data structures; this module reproduces each of them verbatim (up to
surface-syntax details of the toy language) and exposes both the source text
and the parsed :class:`~repro.adds.declaration.AddsType` model.

=================  =========================================================
Declaration        Paper reference
=================  =========================================================
OneWayList         section 3.1.1 (bignums, polynomials)
TwoWayList         section 2.2 (implicit-information example)
BinTree            section 2.2 / 3.1.3
OrthList           section 3.1.3, Figure 3 (sparse matrices)
TwoDRangeTree      section 3.1.3, Figure 4 (computational geometry)
Octree             section 4.3.1, Figure 5 (Barnes–Hut N-body)
QuadTree           section 1 (quadtrees as motivating structure; 2-D analogue
                   of the octree, used in examples/tests)
TournamentList     Figure 1 — a *shared* list built from ListNode; included
                   so precision experiments can show ADDS + analysis
                   distinguishing it from a OneWayList
=================  =========================================================
"""

from __future__ import annotations

from functools import lru_cache

from repro.adds.declaration import AddsType, from_type_decl
from repro.lang.ast_nodes import Program, TypeDecl
from repro.lang.parser import parse_program


ONE_WAY_LIST_SRC = """
type OneWayList [X]
{ int data;
  OneWayList *next is uniquely forward along X;
};
"""

#: The polynomial/bignum node of section 3.1.1, with an explicit ADDS shape.
LIST_NODE_SRC = """
type ListNode [X]
{ int coef;
  int exp;
  ListNode *next is uniquely forward along X;
};
"""

TWO_WAY_LIST_SRC = """
type TwoWayList [X]
{ int data;
  TwoWayList *next is uniquely forward along X;
  TwoWayList *prev is backward along X;
};
"""

BIN_TREE_SRC = """
type BinTree [down]
{ int data;
  BinTree *left, *right is uniquely forward along down;
};
"""

ORTH_LIST_SRC = """
type OrthList [X] [Y]
{ int data;
  OrthList *across is uniquely forward along X;
  OrthList *back is backward along X;
  OrthList *down is uniquely forward along Y;
  OrthList *up is backward along Y;
};
"""

RANGE_TREE_2D_SRC = """
type TwoDRangeTree [down] [sub] [leaves] where sub||down, sub||leaves
{ int data;
  TwoDRangeTree *left, *right is uniquely forward along down;
  TwoDRangeTree *subtree is uniquely forward along sub;
  TwoDRangeTree *next is uniquely forward along leaves;
  TwoDRangeTree *prev is backward along leaves;
};
"""

OCTREE_SRC = """
type Octree [down] [leaves]
{ float mass;
  float x;
  float y;
  float z;
  float half;
  float force;
  float vx;
  float vy;
  float vz;
  bool node_type;
  Octree *subtrees[8] is uniquely forward along down;
  Octree *next is uniquely forward along leaves;
};
"""

QUADTREE_SRC = """
type QuadTree [down] [leaves]
{ float mass;
  float x;
  float y;
  bool node_type;
  QuadTree *subtrees[4] is uniquely forward along down;
  QuadTree *next is uniquely forward along leaves;
};
"""

#: A ListNode-shaped type *without* ADDS information — the compiler's default
#: view (one unknown-direction dimension).  Used as the conservative baseline.
PLAIN_LIST_NODE_SRC = """
type PlainListNode
{ int coef;
  int exp;
  PlainListNode *next;
};
"""

#: The "tournament" list of Figure 1: nodes may be pointed to by more than one
#: other node along X, so ``next`` is forward but *not* uniquely forward.
TOURNAMENT_LIST_SRC = """
type TournamentList [X]
{ int data;
  TournamentList *next is forward along X;
};
"""

_ALL_SOURCES: dict[str, str] = {
    "OneWayList": ONE_WAY_LIST_SRC,
    "ListNode": LIST_NODE_SRC,
    "TwoWayList": TWO_WAY_LIST_SRC,
    "BinTree": BIN_TREE_SRC,
    "OrthList": ORTH_LIST_SRC,
    "TwoDRangeTree": RANGE_TREE_2D_SRC,
    "Octree": OCTREE_SRC,
    "QuadTree": QUADTREE_SRC,
    "PlainListNode": PLAIN_LIST_NODE_SRC,
    "TournamentList": TOURNAMENT_LIST_SRC,
}


def standard_source(name: str) -> str:
    """Return the source snippet of the standard declaration ``name``."""
    if name not in _ALL_SOURCES:
        raise KeyError(
            f"no standard ADDS declaration named {name!r}; "
            f"available: {', '.join(sorted(_ALL_SOURCES))}"
        )
    return _ALL_SOURCES[name]


@lru_cache(maxsize=None)
def _parsed(name: str) -> TypeDecl:
    program = parse_program(standard_source(name))
    return program.types[0]


def type_decl(name: str) -> TypeDecl:
    """The parsed :class:`TypeDecl` of the standard declaration ``name``."""
    return _parsed(name)


def declaration(name: str) -> AddsType:
    """The :class:`AddsType` semantic model of the standard declaration ``name``."""
    return from_type_decl(_parsed(name))


def standard_declarations() -> dict[str, AddsType]:
    """All standard declarations keyed by type name."""
    return {name: declaration(name) for name in _ALL_SOURCES}


def standard_program(*names: str) -> Program:
    """Parse a program containing the requested standard type declarations."""
    selected = names or tuple(_ALL_SOURCES)
    source = "\n".join(standard_source(n) for n in selected)
    return parse_program(source)


def merged_into(program_source: str, *names: str) -> Program:
    """Parse ``program_source`` with the named standard declarations prepended."""
    prefix = "\n".join(standard_source(n) for n in names)
    return parse_program(prefix + "\n" + program_source)
