"""Abstraction validation bookkeeping (paper section 3.3.1).

Imperative programs routinely break their declared abstractions *temporarily*
— the canonical example being the subtree move::

    p1->left = p2->left;   /* left is uniquely forward: now shared! */
    p2->left = NULL;       /* sharing removed: abstraction valid again */

Such a break is not an error.  The analysis records it as a
:class:`Violation` inside the path matrix state; while any violation touching
a type is outstanding, transformations relying on that type's ADDS properties
must not be applied.  A later statement that removes the offending edge (for
example overwriting or nulling the old parent's field) repairs the violation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import FrozenSet, Iterable

#: suffix marking a violation parent whose variable was reassigned before the
#: violation was repaired; no source-level variable can ever carry this name,
#: so name-keyed repairs cannot match it
STALE_MARKER = "#stale"


@dataclass(frozen=True)
class Violation:
    """One outstanding break in a declared abstraction.

    ``kind`` is one of:

    * ``"sharing"`` — a node acquired two inbound edges along a uniquely
      forward field (DAG-ness where a tree was declared),
    * ``"cycle"``   — a store may have closed a cycle through a field
      declared forward/backward (acyclic),
    * ``"unknown_store"`` — a store through a pointer whose relationships are
      unknown, so the shape effect cannot be bounded.

    ``new_parent`` / ``old_parent`` name the pointer variables whose nodes
    hold the competing edges (for sharing); ``field`` is the pointer field
    involved; ``type_name`` the ADDS type whose declaration is violated.
    """

    kind: str
    type_name: str
    field: str
    new_parent: str = ""
    old_parent: str = ""
    line: int | None = None

    def describe(self) -> str:
        if self.kind == "sharing":
            return (
                f"sharing of {self.type_name}.{self.field}: nodes of "
                f"{self.new_parent!r} and {self.old_parent!r} share a {self.field} target"
            )
        if self.kind == "cycle":
            return (
                f"possible cycle through acyclic field {self.type_name}.{self.field} "
                f"created at {self.new_parent!r}"
            )
        return f"unbounded store through {self.new_parent!r}->{self.field}"

    def __str__(self) -> str:
        loc = f" (line {self.line})" if self.line is not None else ""
        return self.describe() + loc


class ValidationState:
    """The set of outstanding violations carried alongside a path matrix."""

    def __init__(self, violations: Iterable[Violation] = ()):
        self.violations: FrozenSet[Violation] = frozenset(violations)

    def copy(self) -> "ValidationState":
        return ValidationState(self.violations)

    # -- updates --------------------------------------------------------------
    def add(self, violation: Violation) -> None:
        self.violations = self.violations | {violation}

    def discard_where(self, predicate) -> None:
        self.violations = frozenset(v for v in self.violations if not predicate(v))

    def repair_parent_edge(self, parent_vars: Iterable[str], field: str) -> None:
        """An edge ``x->field`` was overwritten for every x in ``parent_vars``.

        Any sharing violation whose *old* parent is one of those variables is
        repaired (the competing edge no longer exists).  Cycle violations
        created by one of those variables through the same field are also
        repaired.
        """
        parents = set(parent_vars)
        self.discard_where(
            lambda v: v.field == field
            and (
                (v.kind == "sharing" and v.old_parent in parents)
                or (v.kind in ("cycle", "unknown_store") and v.new_parent in parents)
            )
        )

    def retarget_variable(self, var: str, replacement: str | None = None) -> None:
        """``var`` is being reassigned: it will name a *different* node.

        Violations are keyed by the variable names that held the competing
        edges, so a later repair through the reassigned ``var`` (now pointing
        elsewhere) must not match.  Each violation mentioning ``var`` is
        rewritten to ``replacement`` — another variable still naming the old
        node — when the caller found one; otherwise to an opaque stale name
        no repair can ever match, which keeps the violation outstanding (the
        sound direction: the offending edge still exists, we merely lost the
        name of its source node).
        """
        if not self.violations:
            return
        stale = replacement if replacement is not None else var + STALE_MARKER
        updated = set()
        for v in self.violations:
            if v.old_parent == var:
                v = replace(v, old_parent=stale)
            if v.new_parent == var:
                v = replace(v, new_parent=stale)
            updated.add(v)
        self.violations = frozenset(updated)

    # -- queries -----------------------------------------------------------------
    def is_valid(self) -> bool:
        return not self.violations

    def is_valid_for(self, type_name: str) -> bool:
        return not any(v.type_name == type_name for v in self.violations)

    # -- lattice --------------------------------------------------------------------
    def join(self, other: "ValidationState") -> "ValidationState":
        """At a control-flow merge a violation outstanding on either path remains."""
        return ValidationState(self.violations | other.violations)

    def equivalent(self, other: "ValidationState") -> bool:
        return self.violations == other.violations

    def __str__(self) -> str:
        if not self.violations:
            return "valid"
        return "; ".join(str(v) for v in sorted(self.violations, key=str))

    def __len__(self) -> int:
        return len(self.violations)
