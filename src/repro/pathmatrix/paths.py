"""Relation values stored in path matrix entries.

An entry ``PM[r][s]`` is a :class:`PathEntry`: a (small, immutable) set of
:class:`Relation` values.  The relations mirror the notations used in the
paper's worked examples:

=========  ================================================================
notation    meaning
=========  ================================================================
``=``       definite alias — r and s point to the same node
``=?``      possible alias
``f``       a path of exactly one ``f`` link from r's node to s's node
``f+``      a path of one or more ``f`` links
``f?`` etc  the same, but only *possibly* present (after a control-flow join)
(empty)     no known relationship; in particular r and s are **not** aliases
=========  ================================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Tuple


#: Safety valve for the intern/memo tables.  The relation universe of a real
#: program is tiny (kinds x fields x 2 x 2), so in practice the caches stay
#: far below this; the cap only guards against pathological generated inputs.
_MEMO_LIMIT = 1 << 18


@dataclass(frozen=True, order=True)
class Relation:
    """A single relationship between two pointer variables.

    ``kind`` is ``"alias"`` or ``"path"``.  For paths, ``field`` names the
    link field and ``plus`` records whether the path may be longer than one
    link.  ``definite`` distinguishes facts that hold on every execution path
    reaching the program point from facts that hold on some of them.
    """

    kind: str                    # "alias" | "path"
    field: str = ""              # for kind == "path"
    plus: bool = False           # path of length >= 1 (rather than exactly 1)
    definite: bool = True

    # -- constructors --------------------------------------------------------
    @staticmethod
    def make(kind: str, field: str = "", plus: bool = False, definite: bool = True) -> "Relation":
        """Interned constructor: one canonical object per distinct relation."""
        key = (kind, field, plus, definite)
        cached = _RELATION_CACHE.get(key)
        if cached is None:
            cached = Relation(kind=kind, field=field, plus=plus, definite=definite)
            if len(_RELATION_CACHE) < _MEMO_LIMIT:
                _RELATION_CACHE[key] = cached
        return cached

    @staticmethod
    def alias(definite: bool = True) -> "Relation":
        return Relation.make("alias", definite=definite)

    @staticmethod
    def path(field: str, plus: bool = False, definite: bool = True) -> "Relation":
        return Relation.make("path", field=field, plus=plus, definite=definite)

    # -- queries -------------------------------------------------------------
    @property
    def is_alias(self) -> bool:
        return self.kind == "alias"

    @property
    def is_path(self) -> bool:
        return self.kind == "path"

    def weakened(self) -> "Relation":
        """The same relation, but only possibly holding."""
        if not self.definite:
            return self
        return Relation.make(self.kind, self.field, self.plus, definite=False)

    def extended(self) -> "Relation":
        """A path extended by one more link of the same field (f -> f+)."""
        if self.is_path:
            return Relation.make("path", self.field, plus=True, definite=self.definite)
        return self

    def __reduce__(self):
        # re-intern on unpickle so cross-process results keep the canonical
        # one-object-per-relation property the memo tables rely on
        return (Relation.make, (self.kind, self.field, self.plus, self.definite))

    def __str__(self) -> str:
        if self.is_alias:
            return "=" if self.definite else "=?"
        text = self.field + ("+" if self.plus else "")
        return text if self.definite else text + "?"


#: intern table for :class:`Relation` (see :meth:`Relation.make`)
_RELATION_CACHE: Dict[Tuple[str, str, bool, bool], Relation] = {}


class PathEntry:
    """An immutable, *interned* set of :class:`Relation` values (one matrix cell).

    Entries are canonical: constructing a ``PathEntry`` from the same set of
    relations returns the same object, so equality is usually a pointer
    comparison and entries can be shared freely between matrices.  The
    interning invariant — **entries must never be mutated in place** — is
    upheld by every operation returning a (possibly cached) new entry.
    """

    __slots__ = ("relations", "_hash")

    _intern: Dict[FrozenSet[Relation], "PathEntry"] = {}

    def __new__(cls, relations: Iterable[Relation] = ()):
        rels = relations if type(relations) is frozenset else frozenset(relations)
        cached = cls._intern.get(rels)
        if cached is not None:
            return cached
        self = object.__new__(cls)
        self.relations = rels
        self._hash = hash(rels)
        if len(cls._intern) < _MEMO_LIMIT:
            cls._intern[rels] = self
        return self

    def __init__(self, relations: Iterable[Relation] = ()):
        # all state is set in __new__ (which may return a cached instance)
        pass

    # -- constructors ---------------------------------------------------------
    @staticmethod
    def empty() -> "PathEntry":
        return EMPTY_ENTRY

    @staticmethod
    def definite_alias() -> "PathEntry":
        return _DEFINITE_ALIAS_ENTRY

    @staticmethod
    def possible_alias() -> "PathEntry":
        return _POSSIBLE_ALIAS_ENTRY

    @staticmethod
    def single_path(field: str, plus: bool = False, definite: bool = True) -> "PathEntry":
        return PathEntry([Relation.path(field, plus=plus, definite=definite)])

    # -- queries ----------------------------------------------------------------
    def is_empty(self) -> bool:
        return not self.relations

    @property
    def may_alias(self) -> bool:
        """True when the entry allows the two pointers to name the same node."""
        return any(r.is_alias for r in self.relations)

    @property
    def must_alias(self) -> bool:
        return any(r.is_alias and r.definite for r in self.relations)

    @property
    def has_path(self) -> bool:
        return any(r.is_path for r in self.relations)

    def path_fields(self) -> set[str]:
        return {r.field for r in self.relations if r.is_path}

    def paths(self) -> list[Relation]:
        return sorted(r for r in self.relations if r.is_path)

    def guarantees_not_alias(self) -> bool:
        """The paper: an empty entry (or a pure-path entry) guarantees no alias."""
        return not self.may_alias

    # -- algebra ---------------------------------------------------------------
    def add(self, relation: Relation) -> "PathEntry":
        if relation in self.relations:
            return self
        return PathEntry(self.relations | {relation})

    def union(self, other: "PathEntry") -> "PathEntry":
        if not other.relations:
            return self
        if not self.relations:
            return other
        if self is other:
            return self
        key = (self.relations, other.relations)
        cached = _UNION_MEMO.get(key)
        if cached is None:
            cached = PathEntry(self.relations | other.relations)
            _memo_store(_UNION_MEMO, key, cached)
        return cached

    def join(self, other: "PathEntry") -> "PathEntry":
        """Control-flow join of two entries (least upper bound).

        Relations present on both sides keep their strength (a definite
        relation joined with the same definite relation stays definite);
        relations present on only one side are weakened to "possible".
        An empty entry on one side therefore weakens everything from the
        other side — including downgrading ``=`` to ``=?``.
        """
        if self.relations == other.relations:
            return self
        key = (self.relations, other.relations)
        cached = _JOIN_MEMO.get(key)
        if cached is not None:
            return cached
        result: set[Relation] = set()
        mine = {self._key(r): r for r in self.relations}
        theirs = {self._key(r): r for r in other.relations}
        for rel_key in set(mine) | set(theirs):
            a, b = mine.get(rel_key), theirs.get(rel_key)
            if a is not None and b is not None:
                definite = a.definite and b.definite
                base = a if a.definite else b
                result.add(Relation.make(base.kind, base.field, base.plus, definite))
            else:
                present = a if a is not None else b
                assert present is not None
                result.add(present.weakened())
        joined = PathEntry(result)
        _memo_store(_JOIN_MEMO, key, joined)
        return joined

    def weakened(self) -> "PathEntry":
        """Every relation becomes merely possible."""
        cached = _WEAKEN_MEMO.get(self.relations)
        if cached is None:
            cached = PathEntry(r.weakened() for r in self.relations)
            _memo_store(_WEAKEN_MEMO, self.relations, cached)
        return cached

    @staticmethod
    def _key(relation: Relation) -> tuple:
        return (relation.kind, relation.field, relation.plus)

    # -- pickling ---------------------------------------------------------------
    def __reduce__(self):
        # Default __slots__ pickling would call ``PathEntry.__new__(cls)`` —
        # which returns the interned EMPTY_ENTRY singleton — and then write
        # slot state onto it, corrupting the canonical empty entry for the
        # whole process.  Reconstructing through the constructor instead
        # re-interns the entry (pointer-equality comparisons keep working on
        # unpickled matrices).
        return (PathEntry, (self.relations,))

    # -- presentation --------------------------------------------------------------
    def __str__(self) -> str:
        if not self.relations:
            return ""
        return ",".join(str(r) for r in sorted(self.relations))

    def __repr__(self) -> str:  # pragma: no cover
        return f"PathEntry({sorted(self.relations)})"

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return isinstance(other, PathEntry) and self.relations == other.relations

    def __hash__(self) -> int:
        return self._hash


def _memo_store(memo: dict, key, value) -> None:
    if len(memo) >= _MEMO_LIMIT:
        memo.clear()
    memo[key] = value


_JOIN_MEMO: Dict[Tuple[FrozenSet[Relation], FrozenSet[Relation]], PathEntry] = {}
_UNION_MEMO: Dict[Tuple[FrozenSet[Relation], FrozenSet[Relation]], PathEntry] = {}
_WEAKEN_MEMO: Dict[FrozenSet[Relation], PathEntry] = {}
#: the traversal rule's new cell, keyed by its two input cells, field and acyclicity
_FIELD_LOAD_MEMO: Dict[tuple, PathEntry] = {}

#: The canonical empty entry ("no known relationship; definitely not aliases").
EMPTY_ENTRY = PathEntry()
_DEFINITE_ALIAS_ENTRY = PathEntry([Relation.alias(definite=True)])
_POSSIBLE_ALIAS_ENTRY = PathEntry([Relation.alias(definite=False)])
