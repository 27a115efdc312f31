"""Pointer transfer rules of general path matrix analysis.

Each rule consumes a :class:`~repro.pathmatrix.matrix.PathMatrix` and a
statement and produces the matrix holding *after* the statement.  The rules
follow section 3.3 of the paper (and Hendren's original path matrix rules)
and are parameterized by the ADDS declarations: an acyclic field enables the
precise rule, an unknown-direction field falls back to the conservative one.

Statement forms handled (the paper's classification):

=======================  ====================================================
``p = NULL``             ``p`` becomes nil; every relationship involving it
                         disappears.
``p = new T``            ``p`` points to a fresh node unrelated to all others.
``p = q``                ``p`` becomes a definite alias of ``q`` and inherits
                         its row and column.
``p = q->f``             the *traversal* rule.  With an acyclic ``f`` the new
                         node is strictly downstream, so upstream pointers are
                         provably not aliases; with an unknown-direction ``f``
                         every non-nil pointer may alias the result.
``p->f = q`` (et al.)    the *shape-changing* rule.  Adds the ``f`` path from
                         ``p`` to ``q`` and performs abstraction validation:
                         possible cycles through acyclic fields and sharing
                         through uniquely-forward fields are recorded as
                         violations; overwriting an edge repairs violations
                         that depended on it.
calls                    handled via function side-effect summaries
                         (:mod:`repro.pathmatrix.interproc`).
=======================  ====================================================

A **soundness note** exploited throughout: a store ``p->f = q`` never changes
which node any *variable* points to, so variable-pair aliasing is unaffected
by stores; only path facts and the validation state need updating.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

from repro.adds.declaration import AddsType
from repro.adds.properties import DerivedProperties, derive_properties
from repro.lang.ast_nodes import (
    Assign,
    Call,
    Expr,
    ExprStmt,
    FieldAccess,
    FieldAssign,
    IndexAccess,
    Name,
    New,
    NullLit,
    Program,
    Return,
    Stmt,
    VarDecl,
)
from repro.pathmatrix.matrix import PathMatrix
from repro.pathmatrix.paths import EMPTY_ENTRY, PathEntry, Relation
from repro.pathmatrix.paths import _FIELD_LOAD_MEMO, _memo_store
from repro.pathmatrix.validation import Violation


@dataclass
class TransferContext:
    """Static information the transfer rules need.

    ``adds_types`` maps record-type names to their ADDS model;
    ``properties`` caches the derived properties; ``var_types`` maps pointer
    variables to the record type they point to (when known);
    ``summaries`` maps function names to side-effect summaries (optional —
    without them calls are treated conservatively).
    """

    program: Program
    adds_types: dict[str, AddsType] = dc_field(default_factory=dict)
    properties: dict[str, DerivedProperties] = dc_field(default_factory=dict)
    var_types: dict[str, str] = dc_field(default_factory=dict)
    pointer_vars: set[str] = dc_field(default_factory=set)
    summaries: dict[str, "object"] = dc_field(default_factory=dict)
    #: when False, ADDS information is ignored and every rule is conservative
    use_adds: bool = True
    _temp_counter: int = 0
    #: memoized statement-relevance verdicts: id(stmt) -> (stmt, verdict).
    #: Each entry holds its statement, so the id cannot be recycled while the
    #: context lives: a loop body's CFG synthesizes a ``for`` loop's init and
    #: step assignments afresh on every build.
    _relevance: dict = dc_field(default_factory=dict)
    _field_owner_cache: dict = dc_field(default_factory=dict)
    _temp_names: dict = dc_field(default_factory=dict)

    # -- pickling ---------------------------------------------------------------
    def __getstate__(self):
        # ``_relevance`` and ``_temp_names`` are keyed by ``id(stmt)`` of the
        # AST that produced them; after unpickling the AST is a fresh object
        # graph, so stale ids could collide with new ones and return wrong
        # cached verdicts.  Drop every derived cache and let it rebuild.
        state = self.__dict__.copy()
        state["_relevance"] = {}
        state["_temp_names"] = {}
        state["_field_owner_cache"] = {}
        state["properties"] = {}
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)

    # -- lookup helpers -----------------------------------------------------
    def properties_of(self, type_name: str) -> DerivedProperties | None:
        if type_name in self.properties:
            return self.properties[type_name]
        adds = self.adds_types.get(type_name)
        if adds is None:
            return None
        props = derive_properties(adds)
        self.properties[type_name] = props
        return props

    def field_owner(self, field_name: str) -> str | None:
        """The unique record type declaring ``field_name`` (None if ambiguous)."""
        if field_name in self._field_owner_cache:
            return self._field_owner_cache[field_name]
        owners = [
            t.name for t in self.program.types if t.field_named(field_name) is not None
        ]
        owner = owners[0] if len(owners) == 1 else None
        self._field_owner_cache[field_name] = owner
        return owner

    def type_of_var(self, var: str) -> str | None:
        return self.var_types.get(var)

    def field_info(self, base_var: str | None, field_name: str):
        """Resolve (type_name, DerivedProperties, is_pointer_field) for a field use."""
        type_name = None
        if base_var is not None:
            type_name = self.type_of_var(base_var)
        if type_name is None or type_name in ("__any__", "__null__"):
            type_name = self.field_owner(field_name)
        if type_name is None:
            return None, None, False
        decl = self.program.type_named(type_name)
        fdecl = decl.field_named(field_name) if decl is not None else None
        is_ptr = fdecl is not None and fdecl.is_pointer
        props = self.properties_of(type_name) if self.use_adds else None
        return type_name, props, is_ptr

    def is_tracked(self, var: str) -> bool:
        return var in self.pointer_vars

    def temp_for(self, node) -> str:
        """A temp name that is stable across re-applications of ``node``.

        Fixpoint solvers apply the same statement many times; minting a fresh
        temp per application would make the transfer non-idempotent (the
        matrix never stops changing, because each application introduces a
        new variable name), so temps are keyed by the AST node.
        """
        key = id(node)
        name = self._temp_names.get(key)
        if name is None:
            self._temp_counter += 1
            name = f"@t{self._temp_counter}"
            self._temp_names[key] = name
        return name


# ---------------------------------------------------------------------------
# the main dispatcher
# ---------------------------------------------------------------------------
def apply_statement(
    pm: PathMatrix, stmt: Stmt, ctx: TransferContext, copy: bool = True
) -> PathMatrix:
    """Return the path matrix holding after executing ``stmt``.

    With ``copy=False`` the input matrix is updated in place and returned —
    callers own the matrix and are threading it through a statement sequence
    (see :func:`apply_block`).  The default keeps the original value
    semantics: the input is never modified.
    """
    result = pm.copy() if copy else pm
    if isinstance(stmt, VarDecl):
        if stmt.init is not None and ctx.is_tracked(stmt.name):
            _apply_pointer_assign(result, stmt.name, stmt.init, ctx, stmt.line)
        elif ctx.is_tracked(stmt.name):
            result.set_nil(stmt.name)
        return result
    if isinstance(stmt, Assign):
        if ctx.is_tracked(stmt.target):
            _apply_pointer_assign(result, stmt.target, stmt.value, ctx, stmt.line)
        else:
            _apply_calls_in_expr(result, stmt.value, ctx, stmt.line)
        return result
    if isinstance(stmt, FieldAssign):
        _apply_field_store(result, stmt, ctx)
        return result
    if isinstance(stmt, ExprStmt):
        _apply_calls_in_expr(result, stmt.expr, ctx, stmt.line)
        return result
    if isinstance(stmt, Return):
        if stmt.value is not None:
            _apply_calls_in_expr(result, stmt.value, ctx, stmt.line)
        return result
    # Structured statements are lowered by the CFG before analysis; anything
    # else leaves the matrix unchanged.
    return result


def _contains_call(expr: Expr) -> bool:
    return any(isinstance(node, Call) for node in expr.walk())


def _compute_relevance(stmt: Stmt, ctx: TransferContext) -> bool:
    if isinstance(stmt, VarDecl):
        return ctx.is_tracked(stmt.name)
    if isinstance(stmt, Assign):
        return ctx.is_tracked(stmt.target) or _contains_call(stmt.value)
    if isinstance(stmt, FieldAssign):
        if _contains_call(stmt.value):
            return True
        base_var = stmt.base.ident if isinstance(stmt.base, Name) else None
        type_name, _props, is_ptr = ctx.field_info(base_var, stmt.field)
        # mirrors _apply_field_store: data-field stores (and stores into
        # fields of unknown types) never change the matrix
        return bool(is_ptr and type_name is not None)
    if isinstance(stmt, ExprStmt):
        return _contains_call(stmt.expr)
    if isinstance(stmt, Return):
        return stmt.value is not None and _contains_call(stmt.value)
    return False


def statement_touches_matrix(stmt: Stmt, ctx: TransferContext) -> bool:
    """Can ``stmt`` change any path matrix at all under ``ctx``?

    Conservative (False only for provable no-ops) and memoized per context,
    so the fixpoint solver asks once per statement rather than once per
    (statement, iteration).
    """
    key = id(stmt)
    cached = ctx._relevance.get(key)
    if cached is None:
        cached = (stmt, _compute_relevance(stmt, ctx))
        ctx._relevance[key] = cached
    return cached[1]


def apply_block(pm: PathMatrix, statements: list, ctx: TransferContext) -> PathMatrix:
    """Transfer a straight-line statement sequence with copy-on-first-write.

    Statements that provably cannot touch the matrix are skipped outright;
    the input matrix is copied only once, just before the first statement
    that can.  A block of pure scalar code therefore returns the input
    matrix itself (callers must treat matrices as immutable values, which
    the solvers do).
    """
    result = pm
    copied = False
    for stmt in statements:
        if not statement_touches_matrix(stmt, ctx):
            continue
        if not copied:
            result = result.copy()
            copied = True
        result = apply_statement(result, stmt, ctx, copy=False)
    return result


# ---------------------------------------------------------------------------
# assignments to pointer variables
# ---------------------------------------------------------------------------
def _retarget_stale_violations(pm: PathMatrix, var: str) -> None:
    """Before ``var`` is reassigned, re-key violations that name its old node.

    Repairs are matched by parent-variable name (:meth:`ValidationState.
    repair_parent_edge`), so a violation whose parent variable gets
    reassigned between break and repair would wrongly be repaired by a later
    store through the *new* node.  Hand the violation to another definite
    alias of the old node when one exists; otherwise mark it stale
    (unrepairable by name, hence conservatively outstanding).
    """
    violations = pm.validation.violations
    if not violations:
        return
    if not any(var in (v.old_parent, v.new_parent) for v in violations):
        return
    replacement = None
    for other in pm.variables:
        if other != var and pm.must_alias(var, other):
            replacement = other
            break
    pm.validation.retarget_variable(var, replacement)


def _apply_pointer_assign(
    pm: PathMatrix, target: str, value: Expr, ctx: TransferContext, line: int | None
) -> None:
    if isinstance(value, Name) and value.ident == target:
        return  # ``q = q`` leaves ``q`` naming the node it named
    if not (isinstance(value, Name) and pm.must_alias(target, value.ident)):
        # the assignment makes ``target`` name a (possibly) different node —
        # unless it copies a variable already proven to alias it
        _retarget_stale_violations(pm, target)
    if isinstance(value, NullLit):
        pm.set_nil(target)
        return
    if isinstance(value, New):
        pm.set_fresh(target)
        return
    if isinstance(value, Name):
        if ctx.is_tracked(value.ident):
            pm.copy_variable(target, value.ident)
        else:
            _assign_unknown(pm, target, ctx)
        return
    base_field = _as_field_load(value)
    if base_field is not None:
        base_expr, field_name = base_field
        if isinstance(base_expr, Name) and ctx.is_tracked(base_expr.ident):
            _apply_field_load(pm, target, base_expr.ident, field_name, ctx)
        else:
            _assign_unknown(pm, target, ctx)
        return
    if isinstance(value, Call):
        _apply_calls_in_expr(pm, value, ctx, line)
        _apply_call_result(pm, target, value, ctx)
        return
    # arithmetic or other non-pointer expression assigned to a tracked var:
    # the variable no longer holds a pointer we can reason about
    _assign_unknown(pm, target, ctx)


def _as_field_load(value: Expr) -> Optional[tuple[Expr, str]]:
    """Decompose ``q->f`` or ``q->f[i]`` into (base expression, field name)."""
    if isinstance(value, FieldAccess):
        return value.base, value.field
    if isinstance(value, IndexAccess) and isinstance(value.base, FieldAccess):
        return value.base.base, value.base.field
    return None


def _assign_unknown(pm: PathMatrix, target: str, ctx: TransferContext) -> None:
    """``target`` receives a pointer we know nothing about: may alias anything."""
    pm.ensure_variable(target)
    pm.clear_row_and_column(target)
    pm.nil_vars.discard(target)
    for other in pm.variables:
        if other == target or pm.is_nil(other):
            continue
        pm.set(target, other, pm.get(target, other).add(Relation.alias(definite=False)))


def _apply_field_load(
    pm: PathMatrix, target: str, source: str, field_name: str, ctx: TransferContext
) -> None:
    """The traversal rule for ``target = source->field``."""
    type_name, props, is_ptr_field = ctx.field_info(source, field_name)
    if not is_ptr_field:
        # loading a data field into a tracked variable: nothing useful known
        _assign_unknown(pm, target, ctx)
        return

    if pm.is_nil(source):
        # speculative traversal of NULL yields NULL
        pm.set_nil(target)
        return

    acyclic = props is not None and props.traversal_never_revisits(field_name)

    # PM[v][target] afterwards depends only on PM[v][source] and
    # PM[source][v] before, so each distinct pair is answered once.  The
    # column is built before the kill, because when target == source the
    # assignment overwrites the source's row and column.
    entries = pm._entries
    get = entries.get
    nil_vars = pm.nil_vars
    memo = _FIELD_LOAD_MEMO
    column = {}
    for var in pm.variables:
        if var == target or var == source or var in nil_vars:
            continue  # the source gets the direct-link entry below
        to_source = get((var, source), EMPTY_ENTRY)
        from_source = get((source, var), EMPTY_ENTRY)
        key = (to_source.relations, from_source.relations, field_name, acyclic)
        cell = memo.get(key)
        if cell is None:
            cell = _loaded_cell(to_source, from_source, field_name, acyclic)
            _memo_store(memo, key, cell)
        column[(var, target)] = cell

    pm.ensure_variable(target)
    pm.clear_row_and_column(target)
    nil_vars.discard(target)
    entries.update(column)

    if target == source:
        return
    # direct predecessor: one f link from source to target
    pm.ensure_variable(source)
    link = PathEntry.single_path(field_name, plus=False)
    if not acyclic:
        link = link.add(Relation.alias(definite=False))
    entries[(source, target)] = link


def _loaded_cell(
    to_source: PathEntry, from_source: PathEntry, field_name: str, acyclic: bool
) -> PathEntry:
    """``PM[v][p]`` after ``p = q->field_name``, from the old ``PM[v][q]``
    (``to_source``) and ``PM[q][v]`` (``from_source``): a pure function."""
    must_alias_source = to_source.must_alias or from_source.must_alias
    may_alias_source = to_source.may_alias or from_source.may_alias
    along_field = [rel for rel in to_source.paths() if rel.field == field_name]
    upstream_definite = must_alias_source or any(rel.definite for rel in along_field)

    relations = []
    # path facts from var to the new target
    if must_alias_source:
        relations.append(Relation.path(field_name, plus=False, definite=True))
    elif upstream_definite:
        relations.append(Relation.path(field_name, plus=True, definite=True))
    elif along_field or may_alias_source:
        relations.append(Relation.path(field_name, plus=True, definite=False))

    # alias facts between var and the new target
    if acyclic:
        # Upstream of the source along an acyclic field (or equal to the
        # source) implies the loaded node is strictly downstream of var,
        # hence provably not an alias.  Anything else — a possible alias
        # with the source, a downstream position, or simply an unknown
        # relationship — cannot exclude aliasing.
        if not upstream_definite:
            relations.append(Relation.alias(definite=False))
    else:
        # unknown-direction field: the loaded node may be anything
        # reachable, including the node var points to
        relations.append(Relation.alias(definite=False))
    return PathEntry(relations)


# ---------------------------------------------------------------------------
# stores through pointers (shape changes + abstraction validation)
# ---------------------------------------------------------------------------
def _apply_field_store(pm: PathMatrix, stmt: FieldAssign, ctx: TransferContext) -> None:
    base = stmt.base
    if not isinstance(base, Name):
        # store through a complex expression: validate conservatively
        type_name, props, is_ptr = ctx.field_info(None, stmt.field)
        if is_ptr and type_name is not None:
            pm.validation.add(
                Violation(
                    kind="unknown_store",
                    type_name=type_name,
                    field=stmt.field,
                    new_parent=str(base),
                    line=stmt.line,
                )
            )
        _apply_calls_in_expr(pm, stmt.value, ctx, stmt.line)
        return

    base_var = base.ident
    type_name, props, is_ptr_field = ctx.field_info(base_var, stmt.field)
    _apply_calls_in_expr(pm, stmt.value, ctx, stmt.line)

    if not is_ptr_field or type_name is None:
        # writing a data field never changes the structure's shape
        return

    base_aliases = _definite_aliases(pm, base_var)

    # The store overwrites whatever edge ``base->field`` held before: any
    # violation that depended on that edge is repaired.
    pm.validation.repair_parent_edge(base_aliases, stmt.field)

    # Work out the variable naming the stored node, if any.
    value = stmt.value
    stored_var: str | None = None
    if isinstance(value, NullLit):
        # removing an edge: old path facts out of base via this field are dropped
        _drop_field_paths(pm, base_aliases, stmt.field)
        return
    if isinstance(value, New):
        _drop_field_paths(pm, base_aliases, stmt.field)
        # a fresh node cannot be shared or close a cycle
        for alias in base_aliases:
            pm.set(alias, alias, pm.get(alias, alias))
        return
    if isinstance(value, Name) and ctx.is_tracked(value.ident):
        stored_var = value.ident
    else:
        load = _as_field_load(value)
        if load is not None and isinstance(load[0], Name) and ctx.is_tracked(load[0].ident):
            # p->f = q->g : materialize the loaded node as a temporary so the
            # sharing check below can see its existing parent.
            temp = ctx.temp_for(stmt)
            pm.ensure_variable(temp)
            _apply_field_load(pm, temp, load[0].ident, load[1], ctx)
            stored_var = temp

    _drop_field_paths(pm, base_aliases, stmt.field)

    if stored_var is None:
        # storing an unknown pointer: we cannot bound the shape effect
        if ctx.use_adds and props is not None and (
            props.traversal_never_revisits(stmt.field) or props.unique_inbound(stmt.field)
        ):
            pm.validation.add(
                Violation(
                    kind="unknown_store",
                    type_name=type_name,
                    field=stmt.field,
                    new_parent=base_var,
                    line=stmt.line,
                )
            )
        return

    if pm.is_nil(stored_var):
        # equivalent to storing NULL
        return

    # record the new edge as a path fact
    for alias in base_aliases:
        pm.set(
            alias,
            stored_var,
            pm.get(alias, stored_var).add(Relation.path(stmt.field, plus=False, definite=True)),
        )

    if not ctx.use_adds or props is None:
        return

    # --- abstraction validation -------------------------------------------
    # (1) cycles through an acyclic field: if the stored node reaches the base
    #     node, the new edge closes a cycle.
    if props.traversal_never_revisits(stmt.field):
        reaches_base = pm.get(stored_var, base_var)
        if stored_var == base_var or not reaches_base.is_empty() or reaches_base.may_alias:
            pm.validation.add(
                Violation(
                    kind="cycle",
                    type_name=type_name,
                    field=stmt.field,
                    new_parent=base_var,
                    old_parent=stored_var,
                    line=stmt.line,
                )
            )

    # (2) sharing through a uniquely-forward field: some other node already
    #     points to the stored node via the same field.
    if props.unique_inbound(stmt.field):
        for other in pm.variables:
            if other in base_aliases or other == stored_var or pm.is_nil(other):
                continue
            entry = pm.get(other, stored_var)
            if any(rel.field == stmt.field and not rel.plus for rel in entry.paths()):
                pm.validation.add(
                    Violation(
                        kind="sharing",
                        type_name=type_name,
                        field=stmt.field,
                        new_parent=base_var,
                        old_parent=other,
                        line=stmt.line,
                    )
                )


def _definite_aliases(pm: PathMatrix, var: str) -> list[str]:
    """``var`` plus every variable that definitely points to the same node."""
    aliases = [var]
    for other in pm.variables:
        if other != var and pm.must_alias(var, other):
            aliases.append(other)
    return aliases


def _drop_field_paths(pm: PathMatrix, sources: list[str], field_name: str) -> None:
    """Remove single-link ``field_name`` path facts emanating from ``sources``.

    Dropping a path fact is always safe for aliasing purposes: alias claims
    are carried by explicit alias relations, never by the absence of a path.
    """
    for src in sources:
        for other in list(pm.variables):
            if other == src:
                continue
            entry = pm.get(src, other)
            if not entry.has_path:
                continue
            kept = [
                rel
                for rel in entry.relations
                if not (rel.is_path and rel.field == field_name and not rel.plus)
            ]
            pm.set(src, other, PathEntry(kept))


# ---------------------------------------------------------------------------
# calls
# ---------------------------------------------------------------------------
def _apply_calls_in_expr(
    pm: PathMatrix, expr: Expr, ctx: TransferContext, line: int | None
) -> None:
    """Apply the side effects of every call contained in ``expr``."""
    for node in expr.walk():
        if isinstance(node, Call):
            _apply_call_effects(pm, node, ctx, line)


def _apply_call_effects(
    pm: PathMatrix, call: Call, ctx: TransferContext, line: int | None
) -> None:
    summary = ctx.summaries.get(call.func)
    pointer_args = [
        a.ident for a in call.args if isinstance(a, Name) and ctx.is_tracked(a.ident)
    ]
    if summary is None:
        if ctx.program.function_named(call.func) is None:
            # builtin (sqrt, print, ...): no pointer side effects
            return
        # unknown user function: assume it may rearrange anything reachable
        for var in pointer_args:
            type_name = ctx.type_of_var(var)
            if type_name and type_name in ctx.adds_types and ctx.use_adds:
                pm.validation.add(
                    Violation(
                        kind="unknown_store",
                        type_name=type_name,
                        field="*",
                        new_parent=var,
                        line=line,
                    )
                )
        return
    # summary-driven handling (see interproc.FunctionSummary)
    if getattr(summary, "rearranges_shape", False) and not getattr(
        summary, "preserves_abstraction", False
    ):
        if not ctx.use_adds:
            return
        # the callee rewires pointer fields and cannot be shown to restore the
        # declarations it touches: every ADDS type owning one of those fields
        # must be considered invalid after the call
        affected_types: set[str] = set()
        for field_name in getattr(summary, "pointer_fields_written", set()):
            owner = ctx.field_owner(field_name)
            if owner is not None and owner in ctx.adds_types:
                affected_types.add(owner)
        for var in pointer_args:
            type_name = ctx.type_of_var(var)
            if type_name and type_name in ctx.adds_types:
                affected_types.add(type_name)
        culprit = pointer_args[0] if pointer_args else call.func
        for type_name in sorted(affected_types):
            pm.validation.add(
                Violation(
                    kind="unknown_store",
                    type_name=type_name,
                    field="*",
                    new_parent=culprit,
                    line=line,
                )
            )


def _apply_call_result(
    pm: PathMatrix, target: str, call: Call, ctx: TransferContext
) -> None:
    """Handle ``p = f(...)`` for a tracked ``p``."""
    summary = ctx.summaries.get(call.func)
    pointer_args = [
        a.ident for a in call.args if isinstance(a, Name) and ctx.is_tracked(a.ident)
    ]
    if summary is not None and getattr(summary, "returns_fresh", False):
        pm.set_fresh(target)
        return
    if summary is not None and getattr(summary, "returns_null", False):
        pm.set_nil(target)
        return
    # the result may alias (or reach / be reached from) any pointer argument
    pm.ensure_variable(target)
    pm.clear_row_and_column(target)
    pm.nil_vars.discard(target)
    candidates = pointer_args
    if summary is not None:
        may_return = getattr(summary, "may_return_params", None)
        if may_return is not None:
            candidates = [
                a.ident
                for i, a in enumerate(call.args)
                if isinstance(a, Name) and ctx.is_tracked(a.ident) and i in may_return
            ]
    for var in candidates:
        if pm.is_nil(var):
            continue
        pm.set(var, target, pm.get(var, target).add(Relation.alias(definite=False)))
    if summary is None and not candidates:
        _assign_unknown(pm, target, ctx)
