"""Facts derived from an ADDS declaration that the analyses consume.

The paper uses an ADDS declaration to justify two kinds of claims during
analysis and transformation (sections 3.3 and 4.3.2):

1. *traversal properties* — "traversing forward along X never visits the
   same node twice", which removes the false loop-carried dependence of
   ``p = p->next`` loops;
2. *disjointness properties* — "all subtrees of a node are disjoint along
   down", "forward traversals along sub cannot reach nodes reachable along
   down" (independence), which allow parallel processing of subtrees.

:func:`derive_properties` packages these into a :class:`DerivedProperties`
object with a query API; :mod:`repro.pathmatrix` and :mod:`repro.transform`
ask it questions instead of re-deriving facts from the raw declaration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.adds.declaration import AddsType, Direction


@dataclass
class DerivedProperties:
    """Queryable facts about one ADDS type."""

    adds: AddsType
    #: fields whose repeated traversal never revisits a node
    acyclic_fields: set[str] = field(default_factory=set)
    #: fields with at most one inbound edge per node along their dimension
    unique_fields: set[str] = field(default_factory=set)
    #: dimension name -> True when every field along it is acyclic
    acyclic_dimensions: dict[str, bool] = field(default_factory=dict)
    #: unordered independent dimension pairs
    independent_pairs: set[frozenset[str]] = field(default_factory=set)

    # -- traversal ----------------------------------------------------------
    def traversal_never_revisits(self, field_name: str) -> bool:
        """True when a ``p = p->f`` loop is guaranteed to visit distinct nodes.

        This is the key property behind parallelizing BHL1/BHL2: a forward
        (or backward) field along its dimension moves monotonically away from
        (toward) the origin, so the loop body instances touch distinct nodes.
        """
        return field_name in self.acyclic_fields

    def unique_inbound(self, field_name: str) -> bool:
        return field_name in self.unique_fields

    # -- disjointness -------------------------------------------------------
    def subtrees_disjoint(self, field_name: str) -> bool:
        """True when distinct ``f``-successors of distinct nodes are disjoint.

        Holds for uniquely-forward fields: if every node has at most one
        inbound ``f`` edge, then the structures hanging off two different
        nodes via ``f`` cannot share a node reachable by ``f`` traversals.
        """
        return field_name in self.unique_fields and field_name in self.acyclic_fields

    def siblings_disjoint(self, field_a: str, field_b: str) -> bool:
        """True when ``n->a`` and ``n->b`` subtrees are disjoint for any node n.

        The paper encodes this by declaring the fields together
        (``*left, *right is uniquely forward along down``).
        """
        spec_a = self.adds.field_spec(field_a)
        spec_b = self.adds.field_spec(field_b)
        if spec_a is None or spec_b is None:
            return False
        if field_a == field_b:
            # a single uniquely-forward field with fanout > 1 (subtrees[8])
            # has pairwise-disjoint targets
            return spec_a.is_uniquely_forward and spec_a.fanout > 1
        same_group = spec_a.group is not None and spec_a.group == spec_b.group
        both_unique = spec_a.is_uniquely_forward and spec_b.is_uniquely_forward
        same_dim = spec_a.dimension == spec_b.dimension
        return both_unique and same_dim and (same_group or True)

    def dimensions_independent(self, dim_a: str, dim_b: str) -> bool:
        return frozenset((dim_a, dim_b)) in self.independent_pairs

    def fields_independent(self, field_a: str, field_b: str) -> bool:
        """True when forward traversals along the two fields cannot meet.

        Requires the fields to traverse *independent* dimensions.  Dependent
        dimensions (the default) may lead to a common node — e.g. ``down``
        and ``leaves`` in the octree both reach the particles.
        """
        da = self.adds.dimension_of(field_a)
        db = self.adds.dimension_of(field_b)
        if da is None or db is None or da == db:
            return False
        return self.dimensions_independent(da, db)

    # -- cycles --------------------------------------------------------------
    def may_form_cycle(self, field_name: str) -> bool:
        """Conservative: can repeated traversal of ``field_name`` revisit a node?"""
        return field_name not in self.acyclic_fields

    def needless_cycle_pairs(self) -> list[tuple[str, str]]:
        """Field pairs whose combination closes only *benign* 2-cycles.

        E.g. ``next``/``prev`` of a two-way list: the combination forms
        cycles, but ADDS tells us they are the forward/backward pair of a
        single dimension, so structure estimation need not merge nodes —
        this is exactly the "freed from estimating needless cycles" benefit
        claimed in section 3.3.
        """
        pairs: list[tuple[str, str]] = []
        names = list(self.adds.fields)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                if self.adds.opposite_directions(a, b):
                    pairs.append((a, b))
        return pairs

    def summary(self) -> str:
        lines = [f"Derived properties for {self.adds.name}:"]
        lines.append(f"  acyclic fields: {sorted(self.acyclic_fields) or '(none)'}")
        lines.append(f"  uniquely-forward fields: {sorted(self.unique_fields) or '(none)'}")
        for dim, ok in sorted(self.acyclic_dimensions.items()):
            lines.append(f"  dimension {dim}: {'acyclic' if ok else 'possibly cyclic'}")
        for pair in sorted(tuple(sorted(p)) for p in self.independent_pairs):
            lines.append(f"  independent: {pair[0]} || {pair[1]}")
        return "\n".join(lines)


def derive_properties(adds: AddsType) -> DerivedProperties:
    """Compute :class:`DerivedProperties` from a declaration."""
    props = DerivedProperties(adds=adds)
    for name, spec in adds.fields.items():
        if spec.direction in (Direction.FORWARD, Direction.BACKWARD):
            props.acyclic_fields.add(name)
        if spec.is_uniquely_forward:
            props.unique_fields.add(name)
    for dim_name, dim in adds.dimensions.items():
        props.acyclic_dimensions[dim_name] = dim.is_acyclic
    props.independent_pairs = set(adds.independences)
    return props
