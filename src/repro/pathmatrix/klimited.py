"""A k-limited storage-graph analysis, after Jones & Muchnick [JM81].

This is the structure-estimation baseline the paper criticizes in section
2.1: dynamically allocated structures are approximated by a finite graph in
which every node further than ``k`` links away from a program variable is
merged into a *summary node*.  The summary node's outgoing edges point back
at itself, so any list or tree longer/deeper than ``k`` acquires an abstract
cycle — "making it difficult to distinguish list or tree-like data
structures from data structures that truly contain cycles".  As a result a
traversal ``p = p->next`` over a long list cannot be proven to visit distinct
nodes, and the traversal loops of the Barnes–Hut program cannot be
parallelized from this abstraction alone.

The implementation is an abstract interpretation over the same CFGs used by
the path-matrix analysis:

* abstract locations are allocation sites (plus one summary location),
* variables map to sets of abstract locations,
* heap edges map (location, field) to sets of locations,
* after every transfer step the graph is re-limited to depth ``k``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lang.ast_nodes import (
    Assign,
    Expr,
    FieldAccess,
    FieldAssign,
    FunctionDecl,
    IndexAccess,
    Name,
    New,
    NullLit,
    Program,
    Stmt,
    VarDecl,
    While,
    collect_pointer_variables,
    iter_statements,
    traversal_updates,
)
from repro.lang.cfg import build_cfg
from repro.pathmatrix.alias import AccessPath, AliasAnswer
from repro.pathmatrix.worklist import MAX_FIXPOINT_ITERATIONS, solve_body, solve_worklist


#: the single summary location all k-limited nodes collapse into
SUMMARY = "<summary>"
#: abstract location representing "some node we know nothing about"
UNKNOWN = "<unknown>"


@dataclass
class StorageGraph:
    """One abstract storage graph (the analysis state at a program point)."""

    k: int = 2
    #: variable -> set of abstract locations (empty set == definitely NULL)
    var_targets: dict[str, frozenset[str]] = field(default_factory=dict)
    #: (location, field) -> set of abstract locations
    edges: dict[tuple[str, str], frozenset[str]] = field(default_factory=dict)

    # -- basic operations -----------------------------------------------------
    def copy(self) -> "StorageGraph":
        return StorageGraph(k=self.k, var_targets=dict(self.var_targets), edges=dict(self.edges))

    def targets(self, var: str) -> frozenset[str]:
        return self.var_targets.get(var, frozenset({UNKNOWN}))

    def set_var(self, var: str, locations: frozenset[str]) -> None:
        self.var_targets[var] = locations

    def successors(self, location: str, field_name: str) -> frozenset[str]:
        if location in (SUMMARY, UNKNOWN):
            # the summary node's fields point anywhere the summary covers,
            # including itself — this is exactly where spurious cycles appear
            return frozenset({SUMMARY})
        return self.edges.get((location, field_name), frozenset())

    def add_edge(self, location: str, field_name: str, targets: frozenset[str]) -> None:
        if location in (SUMMARY, UNKNOWN):
            return
        key = (location, field_name)
        self.edges[key] = self.edges.get(key, frozenset()) | targets

    def strong_update(self, location: str, field_name: str, targets: frozenset[str]) -> None:
        if location in (SUMMARY, UNKNOWN):
            return
        self.edges[(location, field_name)] = targets

    # -- k-limiting ----------------------------------------------------------------
    def limit(self) -> None:
        """Merge every location deeper than ``k`` links from a variable into SUMMARY."""
        depth: dict[str, int] = {}
        frontier: list[tuple[str, int]] = []
        for locs in self.var_targets.values():
            for loc in locs:
                if loc not in (SUMMARY, UNKNOWN) and depth.get(loc, self.k + 1) > 0:
                    depth[loc] = 0
                    frontier.append((loc, 0))
        while frontier:
            loc, d = frontier.pop()
            if d >= self.k:
                continue
            for (src, _fld), targets in list(self.edges.items()):
                if src != loc:
                    continue
                for t in targets:
                    if t in (SUMMARY, UNKNOWN):
                        continue
                    if depth.get(t, self.k + 2) > d + 1:
                        depth[t] = d + 1
                        frontier.append((t, d + 1))
        keep = {loc for loc, d in depth.items() if d <= self.k}

        def remap(locations: frozenset[str]) -> frozenset[str]:
            return frozenset(loc if loc in keep or loc in (SUMMARY, UNKNOWN) else SUMMARY
                             for loc in locations)

        self.var_targets = {v: remap(locs) for v, locs in self.var_targets.items()}
        new_edges: dict[tuple[str, str], frozenset[str]] = {}
        for (src, fld), targets in self.edges.items():
            if src not in keep:
                continue  # edges out of summarized nodes are implicit self-loops
            new_edges[(src, fld)] = remap(targets)
        self.edges = new_edges

    # -- lattice -----------------------------------------------------------------
    def join(self, other: "StorageGraph") -> "StorageGraph":
        result = StorageGraph(k=self.k)
        for var in set(self.var_targets) | set(other.var_targets):
            mine = self.var_targets.get(var)
            theirs = other.var_targets.get(var)
            if mine is None:
                result.var_targets[var] = theirs or frozenset()
            elif theirs is None:
                result.var_targets[var] = mine
            else:
                result.var_targets[var] = mine | theirs
        for key in set(self.edges) | set(other.edges):
            result.edges[key] = self.edges.get(key, frozenset()) | other.edges.get(
                key, frozenset()
            )
        result.limit()
        return result

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, StorageGraph)
            and self.var_targets == other.var_targets
            and self.edges == other.edges
        )

    # -- alias queries ----------------------------------------------------------
    def may_alias(self, a: str, b: str) -> bool:
        if a == b:
            return bool(self.targets(a))
        ta, tb = self.targets(a), self.targets(b)
        if not ta or not tb:
            return False
        if UNKNOWN in ta or UNKNOWN in tb:
            return True
        common = ta & tb
        if common:
            return True
        # two pointers into the summary region may refer to the same node
        return SUMMARY in ta and SUMMARY in tb

    def must_alias(self, a: str, b: str) -> bool:
        if a == b:
            return bool(self.targets(a))
        ta, tb = self.targets(a), self.targets(b)
        return (
            len(ta) == 1
            and ta == tb
            and SUMMARY not in ta
            and UNKNOWN not in ta
        )

    def describe(self) -> str:
        lines = ["storage graph:"]
        for var, locs in sorted(self.var_targets.items()):
            lines.append(f"  {var} -> {{{', '.join(sorted(locs)) or 'NULL'}}}")
        for (src, fld), targets in sorted(self.edges.items()):
            lines.append(f"  {src}.{fld} -> {{{', '.join(sorted(targets))}}}")
        return "\n".join(lines)


class KLimitedAnalysis:
    """Run the k-limited storage-graph analysis over one function."""

    def __init__(self, program: Program, k: int = 2):
        self.program = program
        self.k = k

    def _pointer_vars(self, func: FunctionDecl) -> set[str]:
        pointer_vars = collect_pointer_variables(func, self.program)
        for p in func.params:
            pointer_vars.add(p.name)
        return pointer_vars

    def initial_state(self, func: FunctionDecl) -> StorageGraph:
        state = StorageGraph(k=self.k)
        for p in func.params:
            state.set_var(p.name, frozenset({UNKNOWN}))
        return state

    # -- transfer ---------------------------------------------------------------
    def transfer(self, state: StorageGraph, stmt: Stmt, pointer_vars: set[str]) -> StorageGraph:
        result = state.copy()
        if isinstance(stmt, VarDecl):
            if stmt.init is not None and stmt.name in pointer_vars:
                self._assign(result, stmt.name, stmt.init, stmt.line)
            elif stmt.name in pointer_vars:
                result.set_var(stmt.name, frozenset())
        elif isinstance(stmt, Assign):
            if stmt.target in pointer_vars:
                self._assign(result, stmt.target, stmt.value, stmt.line)
        elif isinstance(stmt, FieldAssign):
            self._store(result, stmt, pointer_vars)
        result.limit()
        return result

    def _assign(self, state: StorageGraph, target: str, value: Expr, line: int | None) -> None:
        if isinstance(value, NullLit):
            state.set_var(target, frozenset())
            return
        if isinstance(value, New):
            site = f"alloc@{line if line is not None else 'x'}:{value.type_name}"
            state.set_var(target, frozenset({site}))
            return
        if isinstance(value, Name):
            state.set_var(target, state.targets(value.ident))
            return
        load = _as_field_load(value)
        if load is not None and isinstance(load[0], Name):
            base, field_name = load[0].ident, load[1]
            targets: set[str] = set()
            for loc in state.targets(base):
                targets |= state.successors(loc, field_name)
            state.set_var(target, frozenset(targets) if targets else frozenset({SUMMARY}))
            return
        # calls and arbitrary expressions: unknown result
        state.set_var(target, frozenset({UNKNOWN}))

    def _store(self, state: StorageGraph, stmt: FieldAssign, pointer_vars: set[str]) -> None:
        if not isinstance(stmt.base, Name):
            return
        base_locs = state.targets(stmt.base.ident)
        value = stmt.value
        if isinstance(value, NullLit):
            new_targets: frozenset[str] = frozenset()
        elif isinstance(value, Name) and value.ident in pointer_vars:
            new_targets = state.targets(value.ident)
        elif isinstance(value, New):
            site = f"alloc@{stmt.line if stmt.line is not None else 'x'}:{value.type_name}"
            new_targets = frozenset({site})
        else:
            load = _as_field_load(value)
            if load is not None and isinstance(load[0], Name):
                collected: set[str] = set()
                for loc in state.targets(load[0].ident):
                    collected |= state.successors(loc, load[1])
                new_targets = frozenset(collected) if collected else frozenset({SUMMARY})
            else:
                # storing a non-pointer value: not a heap edge
                return
        concrete = [loc for loc in base_locs if loc not in (SUMMARY, UNKNOWN)]
        if len(base_locs) == 1 and len(concrete) == 1:
            state.strong_update(concrete[0], stmt.field, new_targets)
        else:
            for loc in concrete:
                state.add_edge(loc, stmt.field, new_targets)

    # -- fixed point ----------------------------------------------------------------
    def _block_transfer(self, pointer_vars: set[str]):
        def transfer(block, state: StorageGraph) -> StorageGraph:
            for stmt in block.statements:
                state = self.transfer(state, stmt, pointer_vars)
            return state

        return transfer

    def _function(self, name: str) -> FunctionDecl:
        func = self.program.function_named(name)
        if func is None:
            raise KeyError(f"no function named {name!r}")
        return func

    def _solve(self, func: FunctionDecl):
        """``(cfg, entry states, exit states)`` of ``func``'s fixpoint."""
        cfg = build_cfg(func)
        entry, exit_, _stats = solve_worklist(
            cfg,
            self.initial_state(func),
            self._block_transfer(self._pointer_vars(func)),
            StorageGraph.join,
            StorageGraph.__eq__,
            max_iterations=MAX_FIXPOINT_ITERATIONS,
        )
        return cfg, entry, exit_

    def analyze_function(self, name: str) -> dict[int, StorageGraph]:
        """Return the storage graph at every basic-block exit.

        Driven by the shared worklist engine (see
        :mod:`repro.pathmatrix.worklist`): only blocks whose inputs changed
        are re-transferred.
        """
        return self._solve(self._function(name))[2]

    def final_state(self, name: str) -> StorageGraph:
        func = self._function(name)
        cfg, _entry, exit_ = self._solve(func)
        return exit_.get(cfg.exit, self.initial_state(func))

    def state_before_loop(self, name: str, loop: While | None = None) -> StorageGraph:
        """The solver's entry state at the header of the first (or given)
        while loop of ``name``."""
        func = self._function(name)
        if loop is None:
            loops = [s for s in iter_statements(func.body) if isinstance(s, While)]
            if not loops:
                raise ValueError(f"function {name!r} contains no while loop")
            loop = loops[0]
        cfg, entry, exit_ = self._solve(func)
        for block in cfg.blocks:
            if block.loop_header_of is loop and block.index in entry:
                return entry[block.index]
        return exit_.get(cfg.exit, self.initial_state(func))

    def loop_traversal_independent(self, name: str, loop: While | None = None) -> bool:
        """Can the analysis prove ``p = p->f`` visits a new node each iteration?

        One iteration of the loop body, with a primed copy of each traversal
        variable, is solved on the body's own CFG.  With k-limiting the
        answer is "no" as soon as the traversal reaches the summary region —
        the limitation the paper's approach removes.
        """
        func = self._function(name)
        if loop is None:
            loops = [s for s in iter_statements(func.body) if isinstance(s, While)]
            if not loops:
                return True
            loop = loops[0]
        updates = traversal_updates(loop.body)
        if not updates:
            return True
        sim = self.state_before_loop(name, loop).copy()
        primes = {var: var + "'" for var in updates}
        for var, primed in primes.items():
            sim.set_var(primed, sim.targets(var))
        sim, stats = solve_body(
            loop.body,
            sim,
            self._block_transfer(self._pointer_vars(func) | set(primes.values())),
            StorageGraph.join,
            StorageGraph.__eq__,
            max_iterations=MAX_FIXPOINT_ITERATIONS,
        )
        return stats.converged and all(
            not sim.may_alias(primed, var) for var, primed in primes.items()
        )


class KLimitedOracle:
    """Alias oracle backed by a k-limited storage graph."""

    name = "k-limited"

    def __init__(self, state: StorageGraph):
        self.state = state

    def alias(self, a: str, b: str) -> AliasAnswer:
        if self.state.must_alias(a, b):
            return AliasAnswer.MUST
        if self.state.may_alias(a, b):
            return AliasAnswer.MAY
        return AliasAnswer.NO

    def may_alias(self, a: str, b: str) -> bool:
        return self.state.may_alias(a, b)

    def must_alias(self, a: str, b: str) -> bool:
        return self.state.must_alias(a, b)

    def access_conflict(self, a: AccessPath, b: AccessPath) -> AliasAnswer:
        if a.field is None and b.field is None:
            return AliasAnswer.MUST if a.var == b.var else AliasAnswer.NO
        if a.field is None or b.field is None:
            return AliasAnswer.NO
        if a.field != "*" and b.field != "*" and a.field != b.field:
            return AliasAnswer.NO
        return self.alias(a.var, b.var)

    def may_conflict(self, a: AccessPath, b: AccessPath) -> bool:
        return self.access_conflict(a, b).possible

    def not_aliased_pairs(self) -> list[tuple[str, str]]:
        variables = [v for v in self.state.var_targets if not v.endswith("'")]
        pairs = []
        for i, a in enumerate(variables):
            for b in variables[i + 1:]:
                if not self.may_alias(a, b):
                    pairs.append((a, b))
        return pairs

    def precision_score(self) -> float:
        variables = [v for v in self.state.var_targets if not v.endswith("'")]
        total = 0
        proven = 0
        for i, a in enumerate(variables):
            for b in variables[i + 1:]:
                total += 1
                if not self.may_alias(a, b):
                    proven += 1
        return proven / total if total else 1.0


def _as_field_load(value: Expr):
    if isinstance(value, FieldAccess):
        return value.base, value.field
    if isinstance(value, IndexAccess) and isinstance(value.base, FieldAccess):
        return value.base.base, value.base.field
    return None
