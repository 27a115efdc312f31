"""Alias-query interface over path matrix analysis results.

Transformation passes ask questions like "may ``p->force`` and ``q->mass``
refer to the same memory location?".  :class:`AliasOracle` answers them from
a :class:`~repro.pathmatrix.matrix.PathMatrix`, falling back to conservative
answers for variables the matrix does not track.  The baselines
(:mod:`repro.pathmatrix.baseline`, :mod:`repro.pathmatrix.klimited`) answer
the same :class:`AliasQueries` so precision comparisons can swap oracles.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.pathmatrix.matrix import PathMatrix


class AliasAnswer(enum.Enum):
    """Three-valued answer to an alias query."""

    NO = "no"
    MAY = "may"
    MUST = "must"

    @property
    def possible(self) -> bool:
        return self is not AliasAnswer.NO

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class AccessPath:
    """A memory access of the form ``var`` or ``var->field``."""

    var: str
    field: str | None = None

    def __str__(self) -> str:
        return self.var if self.field is None else f"{self.var}->{self.field}"


class AliasQueries:
    """The queries every alias oracle answers the same way.

    An oracle supplies :meth:`alias` and ``variables``, the variables its
    precision report ranges over; every other query derives from those two.
    """

    variables: list[str]

    def alias(self, a: str, b: str) -> AliasAnswer:
        raise NotImplementedError

    # -- variable-level queries ----------------------------------------------
    def may_alias(self, a: str, b: str) -> bool:
        return self.alias(a, b).possible

    def must_alias(self, a: str, b: str) -> bool:
        return self.alias(a, b) is AliasAnswer.MUST

    # -- access-path queries -----------------------------------------------------
    def access_conflict(self, a: AccessPath, b: AccessPath) -> AliasAnswer:
        """Could the two accesses touch the same memory location?

        ``var->f`` and ``var2->g`` conflict only when the fields are the same
        (or one is the wildcard ``*``) and the base pointers may alias.
        A bare variable access (``var``) conflicts with nothing on the heap —
        it is a register/stack access.
        """
        if a.field is None or b.field is None:
            # plain variable accesses never overlap heap fields and two plain
            # variables are distinct storage locations unless textually equal
            if a.field is None and b.field is None:
                return AliasAnswer.MUST if a.var == b.var else AliasAnswer.NO
            return AliasAnswer.NO
        if a.field != "*" and b.field != "*" and a.field != b.field:
            return AliasAnswer.NO
        return self.alias(a.var, b.var)

    def may_conflict(self, a: AccessPath, b: AccessPath) -> bool:
        return self.access_conflict(a, b).possible

    # -- reporting ------------------------------------------------------------------
    def not_aliased_pairs(self) -> list[tuple[str, str]]:
        """All variable pairs proven non-aliasing (used by precision reports)."""
        pairs = []
        variables = self.variables
        for i, a in enumerate(variables):
            for b in variables[i + 1:]:
                if not self.may_alias(a, b):
                    pairs.append((a, b))
        return pairs

    def precision_score(self) -> float:
        """Fraction of distinct variable pairs proven non-aliasing (0..1)."""
        count = len(self.variables)
        total = count * (count - 1) // 2
        return len(self.not_aliased_pairs()) / total if total else 1.0


class AliasOracle(AliasQueries):
    """Answer alias queries from a path matrix."""

    name = "adds+gpm"

    def __init__(self, matrix: PathMatrix):
        self.matrix = matrix

    @property
    def variables(self) -> list[str]:
        """The matrix's variables, less the analysis's ``@`` temporaries."""
        return [v for v in self.matrix.variables if not v.startswith("@")]

    def alias(self, a: str, b: str) -> AliasAnswer:
        if a == b:
            return AliasAnswer.MUST if not self.matrix.is_nil(a) else AliasAnswer.NO
        if a not in self.matrix.variables or b not in self.matrix.variables:
            return AliasAnswer.MAY
        if self.matrix.must_alias(a, b):
            return AliasAnswer.MUST
        if self.matrix.may_alias(a, b):
            return AliasAnswer.MAY
        return AliasAnswer.NO
