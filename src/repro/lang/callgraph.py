"""Who calls whom among a program's functions, and in which order to visit them.

The paper validates Barnes–Hut *bottom-up over its call graph*: leaf helpers
first, then their callers, so every call site is analyzed with its callees'
summaries already settled.  The type checker, the summary pass and the batch
driver all work that way over the call graph's strongly connected
components: callees before their callers, mutually recursive functions as
one unit.  This module holds the one implementation they share, and the
grouping of components into the *waves* of the bottom-up schedule each
report shows.
"""

from __future__ import annotations

from repro.lang.ast_nodes import Call, FunctionDecl, Program, iter_statements


def called_functions(func: FunctionDecl, defined) -> set[str]:
    """The functions of ``defined`` that ``func`` calls (builtins excluded)."""
    callees: set[str] = set()
    for stmt in iter_statements(func.body):
        for node in stmt.walk():
            if isinstance(node, Call) and node.func in defined:
                callees.add(node.func)
    return callees


def call_graph(program: Program) -> dict[str, set[str]]:
    """Each function of ``program``, in declaration order, with the
    functions of ``program`` it calls."""
    defined = {f.name for f in program.functions}
    return {f.name: called_functions(f, defined) for f in program.functions}


def reachable(edges: dict[str, set[str]], roots) -> set[str]:
    """Every node reached from ``roots`` by following one or more ``edges``;
    a root counts only when it is reached that way too."""
    seen: set[str] = set()
    stack = [node for root in roots for node in edges[root]]
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            stack.extend(edges[node])
    return seen


def condensed_sccs(callees: dict[str, set[str]], order: list[str]) -> list[list[str]]:
    """Bottom-up strongly connected components of a callee graph.

    ``order`` fixes the DFS root order (normally program declaration order);
    every component appears before any component that calls into it, and the
    members of each component come back sorted.
    """
    index_of: dict[str, int] = {}
    lowlink: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = 0
    defined = set(order)

    def edges(name: str):
        return iter(sorted(callees.get(name, set()) & defined))

    for root in order:
        if root in index_of:
            continue
        work = [(root, edges(root))]
        index_of[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for callee in it:
                if callee not in index_of:
                    index_of[callee] = lowlink[callee] = counter
                    counter += 1
                    stack.append(callee)
                    on_stack.add(callee)
                    work.append((callee, edges(callee)))
                    advanced = True
                    break
                if callee in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[callee])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index_of[node]:
                component: list[str] = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(sorted(component))
    return sccs


def bottom_up_waves(
    sccs: list[list[str]], callees: dict[str, set[str]]
) -> list[list[list[str]]]:
    """Group bottom-up components into waves: wave ``k`` holds the
    components whose longest chain of callee components has length ``k``,
    so every callee lives in an earlier wave (or in the caller's own
    component) and the components of one wave are independent."""
    component_of = {name: i for i, scc in enumerate(sccs) for name in scc}
    depth: list[int] = []
    waves: list[list[list[str]]] = []
    for i, scc in enumerate(sccs):
        below = {
            component_of[callee]
            for name in scc
            for callee in callees.get(name, ())
            if callee in component_of
        }
        below.discard(i)
        d = 1 + max((depth[c] for c in below), default=-1)
        depth.append(d)
        if d == len(waves):
            waves.append([])
        waves[d].append(scc)
    return waves
