"""Who calls whom among a program's functions, and in which order to visit them.

The type checker, the summary pass and the batch driver all work bottom-up
over the call graph's strongly connected components: callees before their
callers, mutually recursive functions as one unit.  This module holds the
one implementation they share.
"""

from __future__ import annotations

from repro.lang.ast_nodes import Call, FunctionDecl, iter_statements


def called_functions(func: FunctionDecl, defined) -> set[str]:
    """The functions of ``defined`` that ``func`` calls (builtins excluded)."""
    callees: set[str] = set()
    for stmt in iter_statements(func.body):
        for node in stmt.walk():
            if isinstance(node, Call) and node.func in defined:
                callees.add(node.func)
    return callees


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
