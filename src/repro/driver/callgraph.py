"""Call graphs, strongly connected components, and bottom-up schedules.

The paper validates Barnes–Hut *bottom-up over its call graph*: leaf helpers
first, then their callers, so every call site is analyzed with its callees'
summaries already settled.  The batch driver generalizes that discipline to
arbitrary programs: functions are grouped into strongly connected components
(mutual recursion analyzes as a unit), summaries are resolved over the
condensation bottom-up, and components with no ordering constraint between
them share a *wave* of the bottom-up schedule each report shows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lang.ast_nodes import Program
from repro.lang.callgraph import called_functions, condensed_sccs


@dataclass
class CallGraph:
    """Who calls whom, restricted to functions defined in the program."""

    functions: list[str]
    #: caller -> set of defined callees
    edges: dict[str, set[str]] = field(default_factory=dict)

    def callees(self, name: str) -> set[str]:
        return self.edges.get(name, set())

    def transitive_callees(self, name: str) -> set[str]:
        """Every defined function reachable from ``name`` (excluding itself
        unless it is recursive)."""
        seen: set[str] = set()
        stack = list(self.callees(name))
        while stack:
            callee = stack.pop()
            if callee in seen:
                continue
            seen.add(callee)
            stack.extend(self.callees(callee))
        return seen


def build_call_graph(program: Program) -> CallGraph:
    """The defined-functions call graph of ``program`` (builtins excluded)."""
    defined = {f.name for f in program.functions}
    graph = CallGraph(functions=[f.name for f in program.functions])
    for func in program.functions:
        graph.edges[func.name] = called_functions(func, defined)
    return graph


def strongly_connected_components(graph: CallGraph) -> list[list[str]]:
    """Tarjan's SCCs, iteratively (stress programs nest deeply), emitted
    bottom-up: every component appears before any component that calls it."""
    return condensed_sccs(graph.edges, graph.functions)


@dataclass
class Condensation:
    """The SCC condensation of a call graph, components bottom-up."""

    #: components bottom-up (every component before any component calling it)
    sccs: list[list[str]]
    #: function name -> index into ``sccs``
    component_of: dict[str, int] = field(default_factory=dict)
    #: component -> distinct callee components (excluding itself)
    callee_components: dict[int, set[int]] = field(default_factory=dict)

    def bottom_up_depth(self) -> dict[int, int]:
        """Longest callee-chain length per component (0 for leaves)."""
        depth: dict[int, int] = {}
        for i in range(len(self.sccs)):  # bottom-up, so callee depths exist
            callees = self.callee_components[i]
            depth[i] = 1 + max((depth[c] for c in callees), default=-1)
        return depth

    def waves(self) -> list[list[list[str]]]:
        """Components grouped by bottom-up depth (the reports' schedule view)."""
        depth = self.bottom_up_depth()
        waves: list[list[list[str]]] = []
        for i, scc in enumerate(self.sccs):
            d = depth[i]
            while len(waves) <= d:
                waves.append([])
            waves[d].append(scc)
        return waves


def condense(graph: CallGraph) -> Condensation:
    """Build the bottom-up SCC condensation with its callee edges."""
    sccs = strongly_connected_components(graph)
    cond = Condensation(sccs=sccs)
    for i, scc in enumerate(sccs):
        for name in scc:
            cond.component_of[name] = i
    for i, scc in enumerate(sccs):
        callees = {
            cond.component_of[callee]
            for name in scc
            for callee in graph.callees(name)
        }
        callees.discard(i)
        cond.callee_components[i] = callees
    return cond


def bottom_up_waves(graph: CallGraph) -> list[list[list[str]]]:
    """Group SCCs into waves: wave ``k`` holds the components whose callees
    all live in waves ``< k``.  Components within one wave are independent
    of each other (the human-readable schedule the reports show)."""
    return condense(graph).waves()
