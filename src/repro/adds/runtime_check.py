"""Dynamic validation of a concrete heap against an ADDS declaration.

The paper notes (section 2.2) that one positive side effect of ADDS is "the
compiler's ability to generate run-time checks for the proper use of dynamic
data structures".  This module is that checker: given a heap built by the
interpreter (or by the native data-structure library via an adapter) and an
:class:`~repro.adds.declaration.AddsType`, it verifies

* **acyclicity** — no cycle among edges of the fields declared
  forward/backward along each dimension,
* **uniqueness** — every node has at most one inbound edge along a
  ``uniquely forward`` field (per dimension),
* **direction consistency** — a backward field must invert some forward
  field of the same dimension (e.g. ``prev`` edges must be the reverse of
  ``next`` edges) whenever both exist,
* **independence** — for dimensions declared independent, a node reachable
  by forward traversal along one dimension from some origin is not reachable
  by forward traversal along the other (excluding the origin itself).

Violations are reported as :class:`ShapeViolation` records; an empty list
means the structure currently satisfies its declaration (the dynamic
counterpart of "the abstraction is valid at this program point").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.adds.declaration import AddsType, Direction
from repro.lang.heap import Heap, NULL_REF


@dataclass(frozen=True)
class ShapeViolation:
    """One way in which the concrete heap contradicts the declaration."""

    kind: str          # "cycle" | "uniqueness" | "direction" | "independence"
    type_name: str
    dimension: str
    message: str
    nodes: tuple[int, ...] = ()

    def __str__(self) -> str:
        return f"[{self.kind}] {self.type_name}.{self.dimension}: {self.message}"


class RuntimeShapeChecker:
    """Check the cells of one record type in ``heap`` against ``adds``."""

    def __init__(self, heap: Heap, adds: AddsType):
        self.heap = heap
        self.adds = adds
        self._cells = heap.cells_of_type(adds.name)
        self._refs = {c.ref for c in self._cells}

    # -- edge extraction -----------------------------------------------------
    def _edges_of_field(self, field_name: str) -> list[tuple[int, int]]:
        """All ``(src, dst)`` pointer edges stored in ``field_name``."""
        edges: list[tuple[int, int]] = []
        for cell in self._cells:
            value = cell.fields.get(field_name)
            if value is None:
                continue
            if isinstance(value, list):
                targets = [v for v in value if isinstance(v, int) and not isinstance(v, bool)]
            elif isinstance(value, int) and not isinstance(value, bool):
                targets = [value]
            else:
                targets = []
            for dst in targets:
                if dst != NULL_REF and dst in self._refs:
                    edges.append((cell.ref, dst))
        return edges

    def _dimension_edges(self, dimension: str, directions: Iterable[Direction]) -> list[tuple[int, int]]:
        edges: list[tuple[int, int]] = []
        for spec in self.adds.fields_along(dimension):
            if spec.direction in directions:
                edges.extend(self._edges_of_field(spec.name))
        return edges

    # -- individual checks -----------------------------------------------------
    def check_acyclicity(self) -> list[ShapeViolation]:
        """Forward edges (and, separately, backward edges) per dimension must be acyclic."""
        violations: list[ShapeViolation] = []
        for dim_name, dim in self.adds.dimensions.items():
            for label, directions in (
                ("forward", (Direction.FORWARD,)),
                ("backward", (Direction.BACKWARD,)),
            ):
                specs = [s for s in dim.all_fields() if s.direction in directions]
                if not specs:
                    continue
                edges = self._dimension_edges(dim_name, directions)
                cycle = _find_cycle(self._refs, edges)
                if cycle:
                    violations.append(
                        ShapeViolation(
                            kind="cycle",
                            type_name=self.adds.name,
                            dimension=dim_name,
                            message=(
                                f"{label} traversal along {dim_name} revisits a node "
                                f"(cycle of length {len(cycle)})"
                            ),
                            nodes=tuple(cycle),
                        )
                    )
        return violations

    def check_uniqueness(self) -> list[ShapeViolation]:
        """Uniquely-forward fields: at most one inbound edge per node per dimension."""
        violations: list[ShapeViolation] = []
        for dim_name, dim in self.adds.dimensions.items():
            unique_specs = [s for s in dim.forward_fields if s.unique]
            if not unique_specs:
                continue
            inbound: dict[int, int] = {}
            offenders: set[int] = set()
            for spec in unique_specs:
                for _src, dst in self._edges_of_field(spec.name):
                    inbound[dst] = inbound.get(dst, 0) + 1
                    if inbound[dst] > 1:
                        offenders.add(dst)
            if offenders:
                violations.append(
                    ShapeViolation(
                        kind="uniqueness",
                        type_name=self.adds.name,
                        dimension=dim_name,
                        message=(
                            f"{len(offenders)} node(s) have more than one inbound edge "
                            f"along uniquely-forward dimension {dim_name}"
                        ),
                        nodes=tuple(sorted(offenders)),
                    )
                )
        return violations

    def check_directions(self) -> list[ShapeViolation]:
        """Backward fields must point against some forward edge of the same dimension."""
        violations: list[ShapeViolation] = []
        for dim_name, dim in self.adds.dimensions.items():
            if not dim.forward_fields or not dim.backward_fields:
                continue
            forward = set(self._dimension_edges(dim_name, (Direction.FORWARD,)))
            for spec in dim.backward_fields:
                bad: list[int] = []
                for src, dst in self._edges_of_field(spec.name):
                    if (dst, src) not in forward:
                        bad.append(src)
                if bad:
                    violations.append(
                        ShapeViolation(
                            kind="direction",
                            type_name=self.adds.name,
                            dimension=dim_name,
                            message=(
                                f"backward field {spec.name!r} has {len(bad)} edge(s) that do "
                                f"not invert any forward edge along {dim_name}"
                            ),
                            nodes=tuple(bad),
                        )
                    )
        return violations

    def check_independence(self) -> list[ShapeViolation]:
        """Independent dimensions must not reach common nodes by forward traversal."""
        violations: list[ShapeViolation] = []
        for pair in self.adds.independences:
            dim_a, dim_b = sorted(pair)
            fwd_a = _adjacency(self._dimension_edges(dim_a, (Direction.FORWARD,)))
            fwd_b = _adjacency(self._dimension_edges(dim_b, (Direction.FORWARD,)))
            overlap: set[int] = set()
            for origin in self._refs:
                reach_a = _reachable(origin, fwd_a) - {origin}
                reach_b = _reachable(origin, fwd_b) - {origin}
                both = reach_a & reach_b
                if both:
                    overlap |= both
            if overlap:
                violations.append(
                    ShapeViolation(
                        kind="independence",
                        type_name=self.adds.name,
                        dimension=f"{dim_a}||{dim_b}",
                        message=(
                            f"{len(overlap)} node(s) reachable by forward traversal along "
                            f"both {dim_a} and {dim_b}, which were declared independent"
                        ),
                        nodes=tuple(sorted(overlap)),
                    )
                )
        return violations

    def check(self) -> list[ShapeViolation]:
        """Run every check and return the concatenated violation list."""
        return (
            self.check_acyclicity()
            + self.check_uniqueness()
            + self.check_directions()
            + self.check_independence()
        )


def check_heap_against_declaration(heap: Heap, adds: AddsType) -> list[ShapeViolation]:
    """Convenience wrapper: check ``heap``'s cells of ``adds.name`` against ``adds``."""
    return RuntimeShapeChecker(heap, adds).check()


# ---------------------------------------------------------------------------
# small graph helpers
# ---------------------------------------------------------------------------
def _adjacency(edges: Iterable[tuple[int, int]]) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {}
    for src, dst in edges:
        adj.setdefault(src, []).append(dst)
    return adj


def _reachable(origin: int, adj: dict[int, list[int]]) -> set[int]:
    seen: set[int] = set()
    stack = [origin]
    while stack:
        cur = stack.pop()
        if cur in seen:
            continue
        seen.add(cur)
        stack.extend(adj.get(cur, ()))
    return seen


def _find_cycle(nodes: Iterable[int], edges: Iterable[tuple[int, int]]) -> list[int]:
    """Return the nodes of one cycle in the directed graph, or [] when acyclic."""
    adj = _adjacency(edges)
    WHITE, GRAY, BLACK = 0, 1, 2
    color: dict[int, int] = {n: WHITE for n in nodes}
    parent: dict[int, int] = {}

    for start in list(color):
        if color.get(start, WHITE) != WHITE:
            continue
        stack: list[tuple[int, int]] = [(start, 0)]
        while stack:
            node, idx = stack[-1]
            if idx == 0:
                color[node] = GRAY
            succs = adj.get(node, [])
            if idx < len(succs):
                stack[-1] = (node, idx + 1)
                nxt = succs[idx]
                if color.get(nxt, WHITE) == GRAY:
                    # reconstruct the cycle nxt -> ... -> node -> nxt
                    cycle = [nxt]
                    for frame_node, _ in reversed(stack):
                        cycle.append(frame_node)
                        if frame_node == nxt:
                            break
                    return list(dict.fromkeys(cycle))
                if color.get(nxt, WHITE) == WHITE:
                    parent[nxt] = node
                    stack.append((nxt, 0))
            else:
                color[node] = BLACK
                stack.pop()
    return []
