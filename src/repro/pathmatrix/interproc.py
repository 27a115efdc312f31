"""Interprocedural side-effect summaries.

The paper analyzes the Barnes–Hut program interprocedurally: ``build_tree``
(and its helpers) are validated bottom-up, ``compute_force`` is shown to be
read-only with respect to the octree reachable from ``root``, and
``compute_new_vel_pos`` writes only data fields of its argument.  This module
computes the per-function summaries that make those arguments possible at
call sites:

* which *data* fields a call may write (transitively),
* which *pointer* fields a call may write — i.e. whether it can rearrange a
  structure's shape,
* whether the function allocates, returns a freshly built structure, may
  return one of its parameters, or may return NULL,
* which parameters' reachable structure it may write through.

Summaries are computed to a transitive fixed point over the (possibly
recursive) call graph one strongly connected component at a time
(:func:`summarize_scc`), bottom-up: a component's summaries depend only on
its members' bodies and on the already-final summaries of external callees,
so they can be content-addressed and reused across edits.
:func:`summarize_program`,
:class:`~repro.pathmatrix.analysis.PathMatrixAnalysis` and the staged
incremental engine all resolve them this way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lang.ast_nodes import (
    Assign,
    Call,
    Expr,
    FieldAccess,
    FieldAssign,
    FunctionDecl,
    IndexAccess,
    Name,
    New,
    NullLit,
    Program,
    Return,
    iter_statements,
)
from repro.lang.callgraph import condensed_sccs


@dataclass
class FunctionSummary:
    """Side effects of one function, transitively including its callees."""

    name: str
    #: data (non-pointer) fields possibly written, by field name
    data_fields_written: set[str] = field(default_factory=set)
    #: pointer fields possibly written, by field name
    pointer_fields_written: set[str] = field(default_factory=set)
    #: fields possibly read (data and pointer alike), by field name
    fields_read: set[str] = field(default_factory=set)
    #: indices of parameters through which writes may occur
    written_params: set[int] = field(default_factory=set)
    #: True when some store goes through a non-parameter pointer, so the
    #: written structure cannot be attributed to a specific parameter
    writes_through_unknown: bool = False
    #: indices of parameters the return value may alias / reach
    may_return_params: set[int] = field(default_factory=set)
    #: indices of parameters actually used as pointers (dereferenced, stored
    #: through, or forwarded to a pointer position of a callee)
    pointer_params: set[int] = field(default_factory=set)
    allocates: bool = False
    returns_fresh: bool = False
    returns_null: bool = False
    callees: set[str] = field(default_factory=set)
    #: True when the function writes pointer fields (may change shapes)
    rearranges_shape: bool = False
    #: set by the validation pass when the function provably restores every
    #: ADDS abstraction it breaks before returning
    preserves_abstraction: bool = False

    @property
    def is_read_only(self) -> bool:
        """No field of any reachable structure is written."""
        return not self.data_fields_written and not self.pointer_fields_written

    # -- export / import (the driver's on-disk cache stores these) ------------
    def to_dict(self) -> dict:
        """A JSON-serializable, deterministic snapshot of this summary."""
        return {
            "name": self.name,
            "data_fields_written": sorted(self.data_fields_written),
            "pointer_fields_written": sorted(self.pointer_fields_written),
            "fields_read": sorted(self.fields_read),
            "written_params": sorted(self.written_params),
            "writes_through_unknown": self.writes_through_unknown,
            "may_return_params": sorted(self.may_return_params),
            "pointer_params": sorted(self.pointer_params),
            "allocates": self.allocates,
            "returns_fresh": self.returns_fresh,
            "returns_null": self.returns_null,
            "callees": sorted(self.callees),
            "rearranges_shape": self.rearranges_shape,
            "preserves_abstraction": self.preserves_abstraction,
        }

    @staticmethod
    def from_dict(payload: dict) -> "FunctionSummary":
        return FunctionSummary(
            name=payload["name"],
            data_fields_written=set(payload["data_fields_written"]),
            pointer_fields_written=set(payload["pointer_fields_written"]),
            fields_read=set(payload["fields_read"]),
            written_params=set(payload["written_params"]),
            writes_through_unknown=payload["writes_through_unknown"],
            may_return_params=set(payload["may_return_params"]),
            pointer_params=set(payload["pointer_params"]),
            allocates=payload["allocates"],
            returns_fresh=payload["returns_fresh"],
            returns_null=payload["returns_null"],
            callees=set(payload["callees"]),
            rearranges_shape=payload["rearranges_shape"],
            preserves_abstraction=payload["preserves_abstraction"],
        )

    def digest(self) -> str:
        """A stable content hash of the summary (a cache-key ingredient)."""
        import hashlib
        import json

        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def describe(self) -> str:
        parts = [f"summary of {self.name}:"]
        parts.append(f"  data fields written: {sorted(self.data_fields_written) or '(none)'}")
        parts.append(
            f"  pointer fields written: {sorted(self.pointer_fields_written) or '(none)'}"
        )
        parts.append(f"  allocates: {self.allocates}, returns fresh: {self.returns_fresh}")
        parts.append(f"  rearranges shape: {self.rearranges_shape}")
        parts.append(f"  preserves abstraction: {self.preserves_abstraction}")
        return "\n".join(parts)


def summaries_from_payloads(payloads) -> dict[str, FunctionSummary]:
    """Re-intern summary payloads (``to_dict`` dicts) into live summaries.

    The batch driver's workers ship results across process boundaries as
    plain dicts — never as pickled analysis objects — and the coordinator
    rebuilds :class:`FunctionSummary` instances exactly once, here, for
    report rendering and scheduling bookkeeping.  ``None`` entries (functions
    whose analysis failed before a summary existed) are skipped.
    """
    summaries: dict[str, FunctionSummary] = {}
    for payload in payloads:
        if payload is None:
            continue
        summaries[payload["name"]] = FunctionSummary.from_dict(payload)
    return summaries


def _pointer_field_names(program: Program) -> set[str]:
    """Names of all pointer fields declared by any record type (precomputed
    once per program instead of rescanning the type list per statement)."""
    names: set[str] = set()
    for decl in program.types:
        for fdecl in decl.fields:
            if fdecl.is_pointer:
                names.add(fdecl.name)
    return names


def _summarize_one(
    program: Program, func: FunctionDecl, pointer_fields: set[str] | None = None
) -> FunctionSummary:
    """Direct (non-transitive) effects of ``func``."""
    if pointer_fields is None:
        pointer_fields = _pointer_field_names(program)
    summary = FunctionSummary(name=func.name)
    param_names = {p.name: i for i, p in enumerate(func.params)}
    returns_values: list[Expr] = []
    locally_fresh: set[str] = set()

    for stmt in iter_statements(func.body):
        if isinstance(stmt, FieldAssign):
            if stmt.field in pointer_fields:
                summary.pointer_fields_written.add(stmt.field)
            else:
                summary.data_fields_written.add(stmt.field)
            if isinstance(stmt.base, Name) and stmt.base.ident in param_names:
                summary.written_params.add(param_names[stmt.base.ident])
            else:
                summary.writes_through_unknown = True
        if isinstance(stmt, FieldAssign) and isinstance(stmt.base, Name):
            if stmt.base.ident in param_names:
                summary.pointer_params.add(param_names[stmt.base.ident])
        # single AST walk collecting both field accesses and calls
        for node in stmt.walk():
            if isinstance(node, FieldAccess):
                is_store_target = (
                    isinstance(stmt, FieldAssign)
                    and node.base is stmt.base
                    and node.field == stmt.field
                )
                if not is_store_target:
                    summary.fields_read.add(node.field)
                if isinstance(node.base, Name) and node.base.ident in param_names:
                    summary.pointer_params.add(param_names[node.base.ident])
            elif isinstance(node, Call):
                summary.callees.add(node.func)
        if isinstance(stmt, Assign):
            if isinstance(stmt.value, New):
                summary.allocates = True
                locally_fresh.add(stmt.target)
            elif isinstance(stmt.value, Name) and stmt.value.ident in locally_fresh:
                locally_fresh.add(stmt.target)
            elif stmt.target in locally_fresh and not isinstance(stmt.value, New):
                # reassigned from something else: no longer certainly fresh
                if not (isinstance(stmt.value, Name) and stmt.value.ident in locally_fresh):
                    locally_fresh.discard(stmt.target)
        if isinstance(stmt, Return) and stmt.value is not None:
            returns_values.append(stmt.value)

    # classify the return value
    if returns_values:
        all_null = all(isinstance(v, NullLit) for v in returns_values)
        summary.returns_null = all_null
        for value in returns_values:
            if isinstance(value, New):
                summary.returns_fresh = True
            elif isinstance(value, Name):
                if value.ident in param_names:
                    summary.may_return_params.add(param_names[value.ident])
                elif value.ident in locally_fresh:
                    summary.returns_fresh = True
                else:
                    # unknown local: may reach any pointer parameter
                    summary.may_return_params |= set(param_names.values())
            elif isinstance(value, (FieldAccess, IndexAccess, Call)):
                summary.may_return_params |= set(param_names.values())
    summary.rearranges_shape = bool(summary.pointer_fields_written)
    return summary


def _call_argument_map(program: Program) -> dict[str, list[tuple[str, dict[int, int]]]]:
    """For each function, the calls it makes with a callee-param -> caller-param map."""
    result: dict[str, list[tuple[str, dict[int, int]]]] = {}
    for func in program.functions:
        param_names = {p.name: i for i, p in enumerate(func.params)}
        edges: list[tuple[str, dict[int, int]]] = []
        for stmt in iter_statements(func.body):
            for node in stmt.walk():
                if isinstance(node, Call):
                    mapping: dict[int, int] = {}
                    for j, arg in enumerate(node.args):
                        if isinstance(arg, Name) and arg.ident in param_names:
                            mapping[j] = param_names[arg.ident]
                    edges.append((node.func, mapping))
        result[func.name] = edges
    return result


def direct_summaries(program: Program) -> dict[str, FunctionSummary]:
    """Direct (non-transitive) effect summaries of every function."""
    pointer_fields = _pointer_field_names(program)
    return {
        f.name: _summarize_one(program, f, pointer_fields) for f in program.functions
    }


def summarize_scc(
    program: Program,
    members: list[str],
    external: dict[str, FunctionSummary],
    direct: dict[str, FunctionSummary] | None = None,
    call_maps: dict[str, list[tuple[str, dict[int, int]]]] | None = None,
) -> dict[str, FunctionSummary]:
    """Transitive summaries of one call-graph component, given its callees'.

    ``members`` are the component's function names (one function, or a group
    of mutually recursive ones); ``external`` holds the final summaries of
    every function below the component in the bottom-up order.  Callees found
    in neither (builtins) are skipped.  The result depends on nothing outside
    the component but ``external`` — which is what lets summaries be
    computed (and cached) one component at a time.

    ``direct`` may supply precomputed :func:`direct_summaries` entries for
    the members (they are refined in place); ``call_maps`` may supply a
    precomputed :func:`_call_argument_map` so per-component calls do not
    rescan the whole program.
    """
    if call_maps is None:
        call_maps = _call_argument_map(program)
    pointer_fields = None
    summaries: dict[str, FunctionSummary] = {}
    for name in members:
        if direct is not None and name in direct:
            summaries[name] = direct[name]
            continue
        func = program.function_named(name)
        if func is None:
            raise KeyError(f"no function named {name!r}")
        if pointer_fields is None:
            pointer_fields = _pointer_field_names(program)
        summaries[name] = _summarize_one(program, func, pointer_fields)

    def lookup(callee_name: str) -> FunctionSummary | None:
        local = summaries.get(callee_name)
        if local is not None:
            return local
        return external.get(callee_name)

    changed = True
    iterations = 0
    while changed and iterations < len(members) + 5:
        changed = False
        iterations += 1
        for name in members:
            caller = summaries[name]
            for callee_name, mapping in call_maps.get(name, ()):
                callee = lookup(callee_name)
                if callee is None:
                    continue
                for callee_idx, caller_idx in mapping.items():
                    if (
                        callee_idx in callee.pointer_params
                        and caller_idx not in caller.pointer_params
                    ):
                        caller.pointer_params.add(caller_idx)
                        changed = True
        for name in members:
            summary = summaries[name]
            for callee_name in sorted(summary.callees):
                callee = lookup(callee_name)
                if callee is None:
                    continue  # builtin
                before = (
                    len(summary.data_fields_written),
                    len(summary.pointer_fields_written),
                    len(summary.fields_read),
                    summary.allocates,
                    summary.rearranges_shape,
                )
                summary.data_fields_written |= callee.data_fields_written
                summary.pointer_fields_written |= callee.pointer_fields_written
                summary.fields_read |= callee.fields_read
                summary.allocates = summary.allocates or callee.allocates
                summary.rearranges_shape = (
                    summary.rearranges_shape or callee.rearranges_shape
                )
                if not callee.is_read_only:
                    summary.writes_through_unknown = True
                after = (
                    len(summary.data_fields_written),
                    len(summary.pointer_fields_written),
                    len(summary.fields_read),
                    summary.allocates,
                    summary.rearranges_shape,
                )
                if before != after:
                    changed = True
    return summaries


def summarize_program(program: Program) -> dict[str, FunctionSummary]:
    """Transitive side-effect summaries of every function: :func:`summarize_scc`
    over the call graph's components, bottom-up (without the preservation
    refinement :class:`~repro.pathmatrix.analysis.PathMatrixAnalysis` adds)."""
    direct = direct_summaries(program)
    call_maps = _call_argument_map(program)
    order = [f.name for f in program.functions]
    summaries: dict[str, FunctionSummary] = {}
    for members in condensed_sccs({n: set(direct[n].callees) for n in order}, order):
        summaries.update(
            summarize_scc(program, members, summaries, direct=direct, call_maps=call_maps)
        )
    return {name: summaries[name] for name in order}
