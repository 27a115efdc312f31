"""The :class:`PathMatrix` container.

A path matrix holds one :class:`~repro.pathmatrix.paths.PathEntry` per
ordered pair of tracked pointer variables, plus the set of variables known
to be nil (NULL) and the current abstraction-validation state.  Matrices are
mutable value objects: the transfer rules copy them before updating, and the
dataflow analysis joins them at control-flow merge points.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.pathmatrix.paths import EMPTY_ENTRY, PathEntry
from repro.pathmatrix.validation import ValidationState


class PathMatrix:
    """Pairwise relationships between live pointer variables at one program point.

    Internally the matrix is sparse: ``_entries`` maps ``(row, col)`` pairs to
    non-empty interned :class:`PathEntry` values.  Invariants: no diagonal
    keys, no empty entries, no entries involving a nil variable, and every
    key's variables appear in :attr:`variables`.  The last one bounds a
    variable's row and column by :attr:`variables`, so killing a variable,
    copying it and rebuilding its column each take O(V) dict operations
    without scanning the other entries.
    """

    __slots__ = ("variables", "_var_set", "_entries", "nil_vars", "validation")

    def __init__(self, variables: Iterable[str] = ()):
        self.variables: list[str] = list(dict.fromkeys(variables))
        self._var_set: set[str] = set(self.variables)
        self._entries: dict[tuple[str, str], PathEntry] = {}
        #: variables currently known to be NULL (their rows/columns are empty)
        self.nil_vars: set[str] = set()
        #: abstraction-validation bookkeeping (shared shape violations)
        self.validation = ValidationState()

    # -- structural operations ---------------------------------------------
    def copy(self) -> "PathMatrix":
        new = PathMatrix.__new__(PathMatrix)
        new.variables = list(self.variables)
        new._var_set = set(self._var_set)
        new._entries = dict(self._entries)
        new.nil_vars = set(self.nil_vars)
        new.validation = self.validation.copy()
        return new

    def ensure_variable(self, name: str) -> None:
        if name not in self._var_set:
            self.variables.append(name)
            self._var_set.add(name)

    def remove_variable(self, name: str) -> None:
        if name in self._var_set:
            self.variables.remove(name)
            self._var_set.discard(name)
        self.nil_vars.discard(name)
        self.clear_row_and_column(name)

    # -- entry accessors -------------------------------------------------------
    def get(self, row: str, col: str) -> PathEntry:
        if row == col:
            # The diagonal is the definite self-alias unless the variable is nil.
            if row in self.nil_vars:
                return EMPTY_ENTRY
            return PathEntry.definite_alias()
        return self._entries.get((row, col), EMPTY_ENTRY)

    def set(self, row: str, col: str, entry: PathEntry) -> None:
        self.ensure_variable(row)
        self.ensure_variable(col)
        if row == col:
            return
        if entry.is_empty():
            self._entries.pop((row, col), None)
        else:
            self._entries[(row, col)] = entry

    def clear_row_and_column(self, name: str) -> None:
        """Remove every relationship involving ``name`` (used when killing a var).

        Every key names two members of :attr:`variables`, so probing ``name``
        against each of them finds its whole row and column.
        """
        entries = self._entries
        if not entries:
            return
        pop = entries.pop
        for other in self.variables:
            pop((name, other), None)
            pop((other, name), None)

    def set_nil(self, name: str) -> None:
        self.ensure_variable(name)
        self.clear_row_and_column(name)
        self.nil_vars.add(name)

    def set_fresh(self, name: str) -> None:
        """``name`` now points to a newly allocated node unrelated to everything."""
        self.ensure_variable(name)
        self.clear_row_and_column(name)
        self.nil_vars.discard(name)

    def copy_variable(self, dst: str, src: str) -> None:
        """Make ``dst`` an exact alias of ``src`` (the ``p = q`` rule)."""
        self.ensure_variable(dst)
        self.clear_row_and_column(dst)
        if src in self.nil_vars:
            self.nil_vars.add(dst)
            return
        self.nil_vars.discard(dst)
        self.ensure_variable(src)
        entries = self._entries
        for other in self.variables:
            if other != dst and other != src:
                if (entry := entries.get((src, other))) is not None:
                    entries[(dst, other)] = entry
                if (entry := entries.get((other, src))) is not None:
                    entries[(other, dst)] = entry
        entries[(dst, src)] = entries[(src, dst)] = PathEntry.definite_alias()

    # -- queries -----------------------------------------------------------------
    def may_alias(self, a: str, b: str) -> bool:
        if a == b:
            return a not in self.nil_vars
        if a in self.nil_vars or b in self.nil_vars:
            return False
        if a not in self._var_set or b not in self._var_set:
            return True  # unknown variables: be conservative
        return self.get(a, b).may_alias or self.get(b, a).may_alias

    def must_alias(self, a: str, b: str) -> bool:
        # A "must" answer is a proof, so unknown or nil operands yield False
        # (mirroring may_alias, which is conservative in the other direction).
        if a in self.nil_vars or b in self.nil_vars:
            return False
        if a not in self._var_set or b not in self._var_set:
            return False
        if a == b:
            return True
        return self.get(a, b).must_alias or self.get(b, a).must_alias

    def definitely_not_alias(self, a: str, b: str) -> bool:
        return not self.may_alias(a, b)

    def is_nil(self, name: str) -> bool:
        return name in self.nil_vars

    def pointers_reaching(self, target: str) -> list[str]:
        """Variables with a known path or alias to ``target``."""
        result = []
        for var in self.variables:
            if var == target:
                continue
            entry = self.get(var, target)
            if not entry.is_empty():
                result.append(var)
        return result

    def entries(self) -> Iterator[tuple[str, str, PathEntry]]:
        for (row, col), entry in self._entries.items():
            yield row, col, entry

    # -- lattice operations ---------------------------------------------------------
    def join(self, other: "PathMatrix") -> "PathMatrix":
        """Control-flow join (least upper bound) of two matrices.

        Only the union of the two sparse entry sets is visited: a cell empty
        on both sides joins to the empty entry, so the dense double loop over
        all variable pairs is unnecessary.  A matrix joined with itself is
        returned as is: the solvers treat matrices as immutable values, and
        a fresh join would rebuild the same content in the same order.
        """
        if other is self:
            return self
        result = PathMatrix(dict.fromkeys(self.variables + other.variables))
        # a variable is nil only if nil on both incoming paths
        result.nil_vars = self.nil_vars & other.nil_vars
        half_nil = (self.nil_vars | other.nil_vars) - result.nil_vars
        mine = self._entries
        theirs = other._entries
        entries = result._entries
        theirs_get = theirs.get
        for key, ea in mine.items():
            eb = theirs_get(key)
            if eb is ea:  # interned entries: identical cells join to themselves
                joined = ea
            elif eb is not None:
                joined = ea.join(eb)
            else:
                joined = ea.join(EMPTY_ENTRY)
            # a variable nil on one path only: its relations are merely possible
            if half_nil and (key[0] in half_nil or key[1] in half_nil):
                joined = joined.weakened()
            if joined.relations:
                entries[key] = joined
        for key, eb in theirs.items():
            if key in mine:
                continue
            joined = EMPTY_ENTRY.join(eb)
            if half_nil and (key[0] in half_nil or key[1] in half_nil):
                joined = joined.weakened()
            if joined.relations:
                entries[key] = joined
        result.validation = self.validation.join(other.validation)
        return result

    def equivalent(self, other: "PathMatrix") -> bool:
        """Same facts at this program point (cheap structural comparison).

        Because ``_entries`` is normalized (sparse, no empties, no diagonal)
        and entries are interned, comparing the dicts directly is equivalent
        to the dense cell-by-cell scan but runs in O(stored entries) with
        pointer-equality on each cell.
        """
        if self._var_set != other._var_set:
            return False
        if self.nil_vars != other.nil_vars:
            return False
        if not self.validation.equivalent(other.validation):
            return False
        return self._entries == other._entries

    # -- pickling ---------------------------------------------------------------
    def __getstate__(self):
        # entries re-intern on load because PathEntry reconstructs through
        # its interning constructor
        return {
            "variables": self.variables,
            "entries": self._entries,
            "nil_vars": self.nil_vars,
            "violations": tuple(self.validation.violations),
        }

    def __setstate__(self, state):
        self.variables = list(state["variables"])
        self._var_set = set(self.variables)
        self._entries = dict(state["entries"])
        self.nil_vars = set(state["nil_vars"])
        self.validation = ValidationState(state["violations"])

    # -- conservative construction ----------------------------------------------
    @staticmethod
    def conservative(variables: Iterable[str]) -> "PathMatrix":
        """The matrix with ``=?`` everywhere — what a compiler must assume
        when it has no structure information (paper section 3.3.2)."""
        pm = PathMatrix(variables)
        for row in pm.variables:
            for col in pm.variables:
                if row != col:
                    pm.set(row, col, PathEntry.possible_alias())
        return pm

    # -- presentation ------------------------------------------------------------
    def to_table(self, order: list[str] | None = None) -> str:
        """Render the matrix in the paper's tabular style."""
        vars_order = order or self.variables
        width = max([len(v) for v in vars_order] + [4]) + 2
        header = " " * width + "".join(v.ljust(width) for v in vars_order)
        lines = [header]
        # render and pad each distinct entry once, then look it up per cell
        distinct = {entry.relations: entry for entry in self._entries.values()}
        distinct[EMPTY_ENTRY.relations] = EMPTY_ENTRY
        padded = {rels: str(entry).ljust(width) for rels, entry in distinct.items()}
        get = self._entries.get
        for row in vars_order:
            cells = [row.ljust(width)]
            for col in vars_order:
                if row == col:
                    cells.append(("=" if row not in self.nil_vars else "nil").ljust(width))
                else:
                    cells.append(padded[get((row, col), EMPTY_ENTRY).relations])
            lines.append("".join(cells))
        if self.validation.violations:
            lines.append(
                "violations: "
                + "; ".join(str(v) for v in sorted(self.validation.violations, key=str))
            )
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.to_table()

    def __repr__(self) -> str:  # pragma: no cover
        return f"PathMatrix(vars={self.variables}, entries={len(self._entries)})"


def cellwise_equivalent(a: PathMatrix, b: PathMatrix) -> bool:
    """The seed's dense O(V^2) equivalence scan, retained verbatim.

    The round-robin baseline solver uses this comparison so that benchmark
    numbers against it reflect the original engine's costs; it must always
    agree with the fast :meth:`PathMatrix.equivalent`.
    """
    if set(a.variables) != set(b.variables):
        return False
    if a.nil_vars != b.nil_vars:
        return False
    if not a.validation.equivalent(b.validation):
        return False
    for row in a.variables:
        for col in a.variables:
            if row == col:
                continue
            if a.get(row, col) != b.get(row, col):
                return False
    return True
