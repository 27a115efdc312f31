"""The transfer kernel against the kernel it replaced.

The golden-equivalence suite compares two solvers that share the transfer
rules, so it cannot catch a fault in a rule.  This module keeps the previous
kernel verbatim: the traversal rule ``_apply_field_load`` with its snapshot
dicts, and a :class:`PathMatrix` whose ``clear_row_and_column`` kills through
a lazily built adjacency index (with the index upkeep in ``copy`` and
``set``), whose ``copy_variable`` goes through ``get`` and ``set``, whose
``join`` always builds a new matrix and whose ``to_table`` renders every
cell.  Each input is analyzed under the current kernel and again with the
previous one patched in, and every function's entry and exit matrices,
tables and work counts, every loop-dependence pass and every summary must
come out the same.
"""

from __future__ import annotations

import random

import pytest

from repro.adds.library import standard_source
from repro.bench.stress import (
    deep_program_source,
    random_program_source,
    wide_program_source,
)
from repro.driver.corpus import corpus_named
from repro.lang.ast_nodes import While, iter_statements
from repro.lang.parser import parse_program
from repro.pathmatrix import analysis as analysis_module
from repro.pathmatrix import rules as rules_module
from repro.pathmatrix import worklist as worklist_module
from repro.pathmatrix.analysis import (
    AnalysisError,
    PathMatrixAnalysis,
    analyze_loop_dependence,
)
from repro.pathmatrix.matrix import PathMatrix as KernelPathMatrix
from repro.pathmatrix.paths import EMPTY_ENTRY, PathEntry, Relation
from repro.pathmatrix.rules import TransferContext, _assign_unknown


# ---------------------------------------------------------------------------
# the previous kernel, verbatim
# ---------------------------------------------------------------------------
class PathMatrix(KernelPathMatrix):
    """The previous matrix: an adjacency index serves repeated kills."""

    __slots__ = ("_index", "_kills")

    def __init__(self, variables=()):
        super().__init__(variables)
        self._index = None
        self._kills = 0

    def copy(self) -> "PathMatrix":
        new = PathMatrix.__new__(PathMatrix)
        new.variables = list(self.variables)
        new._var_set = set(self._var_set)
        new._entries = dict(self._entries)
        # the copy re-materializes the index on demand; copying it eagerly
        # would often be wasted work (e.g. copies consumed only by queries)
        new._index = None
        new._kills = 0
        new.nil_vars = set(self.nil_vars)
        new.validation = self.validation.copy()
        return new

    def _materialized_index(self) -> dict[str, set[tuple[str, str]]]:
        index = self._index
        if index is None:
            index = {}
            for key in self._entries:
                index.setdefault(key[0], set()).add(key)
                index.setdefault(key[1], set()).add(key)
            self._index = index
        return index

    def set(self, row: str, col: str, entry: PathEntry) -> None:
        self.ensure_variable(row)
        self.ensure_variable(col)
        if row == col:
            return
        key = (row, col)
        index = self._index
        if entry.is_empty():
            if self._entries.pop(key, None) is not None and index is not None:
                index[row].discard(key)
                index[col].discard(key)
        else:
            if index is not None and key not in self._entries:
                index.setdefault(row, set()).add(key)
                index.setdefault(col, set()).add(key)
            self._entries[key] = entry

    def clear_row_and_column(self, name: str) -> None:
        """Remove every relationship involving ``name`` (used when killing a var).

        The first kill on a freshly copied matrix uses a direct scan (cheaper
        than building the adjacency index for a single use); repeated kills
        materialize the index once and then run in O(degree).
        """
        entries = self._entries
        if not entries:
            return
        index = self._index
        if index is None:
            if self._kills == 0:
                self._kills = 1
                dead = [key for key in entries if key[0] == name or key[1] == name]
                for key in dead:
                    del entries[key]
                return
            index = self._materialized_index()
        keys = index.pop(name, None)
        if not keys:
            return
        for key in keys:
            del entries[key]
            other = key[1] if key[0] == name else key[0]
            bucket = index.get(other)
            if bucket is not None:
                bucket.discard(key)

    def copy_variable(self, dst: str, src: str) -> None:
        """Make ``dst`` an exact alias of ``src`` (the ``p = q`` rule)."""
        self.ensure_variable(dst)
        self.clear_row_and_column(dst)
        if src in self.nil_vars:
            self.nil_vars.add(dst)
            return
        self.nil_vars.discard(dst)
        for other in self.variables:
            if other in (dst, src):
                continue
            self.set(dst, other, self.get(src, other))
            self.set(other, dst, self.get(other, src))
        self.set(dst, src, PathEntry.definite_alias())
        self.set(src, dst, PathEntry.definite_alias())

    def join(self, other: "PathMatrix") -> "PathMatrix":
        """Control-flow join (least upper bound) of two matrices.

        Only the union of the two sparse entry sets is visited: a cell empty
        on both sides joins to the empty entry, so the dense double loop over
        all variable pairs is unnecessary.
        """
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

    def to_table(self, order: list[str] | None = None) -> str:
        """Render the matrix in the paper's tabular style."""
        vars_order = order or self.variables
        width = max([len(v) for v in vars_order] + [4]) + 2
        header = " " * width + "".join(v.ljust(width) for v in vars_order)
        lines = [header]
        for row in vars_order:
            cells = []
            for col in vars_order:
                if row == col:
                    cell = "=" if row not in self.nil_vars else "nil"
                else:
                    cell = str(self.get(row, col))
                cells.append(cell.ljust(width))
            lines.append(row.ljust(width) + "".join(cells))
        if self.validation.violations:
            lines.append(
                "violations: "
                + "; ".join(str(v) for v in sorted(self.validation.violations, key=str))
            )
        return "\n".join(lines)


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

    # snapshot the old relations of every variable to/from the *source's* node,
    # because when target == source the assignment overwrites it
    old_to_source = {var: pm.get(var, source) for var in pm.variables}
    old_from_source = {var: pm.get(source, var) for var in pm.variables}
    source_was_target = target == source

    pm.ensure_variable(target)
    pm.clear_row_and_column(target)
    pm.nil_vars.discard(target)

    for var in pm.variables:
        if var == target or pm.is_nil(var):
            continue
        if var == source:
            # treated below via the direct-link entry (source_was_target means
            # the old node has no remaining name, so nothing to record)
            continue
        to_source = old_to_source.get(var, PathEntry.empty())
        from_source = old_from_source.get(var, PathEntry.empty())

        entry = PathEntry.empty()
        must_alias_source = to_source.must_alias or from_source.must_alias
        may_alias_source = to_source.may_alias or from_source.may_alias
        upstream_definite = must_alias_source or any(
            rel.field == field_name and rel.definite for rel in to_source.paths()
        )
        upstream_possible = any(rel.field == field_name for rel in to_source.paths())
        downstream_along_f = any(rel.field == field_name for rel in from_source.paths())

        # path facts from var to the new target
        if must_alias_source:
            entry = entry.add(Relation.path(field_name, plus=False, definite=True))
        elif upstream_definite:
            entry = entry.add(Relation.path(field_name, plus=True, definite=True))
        elif upstream_possible or may_alias_source:
            entry = entry.add(Relation.path(field_name, plus=True, definite=False))

        # alias facts between var and the new target
        if acyclic:
            # Upstream of the source along an acyclic field (or equal to the
            # source) implies the loaded node is strictly downstream of var,
            # hence provably not an alias.  Anything else — a possible alias
            # with the source, a downstream position, or simply an unknown
            # relationship — cannot exclude aliasing.
            provably_distinct = must_alias_source or upstream_definite
            if not provably_distinct:
                entry = entry.add(Relation.alias(definite=False))
        else:
            # unknown-direction field: the loaded node may be anything
            # reachable, including the node var points to
            entry = entry.add(Relation.alias(definite=False))
        pm.set(var, target, entry)

    if source_was_target:
        return
    # direct predecessor: one f link from source to target
    if not pm.is_nil(source):
        link = PathEntry.single_path(field_name, plus=False)
        if not acyclic:
            link = link.add(Relation.alias(definite=False))
        pm.set(source, target, link)


# ---------------------------------------------------------------------------
# what an analysis computes, in comparable form
# ---------------------------------------------------------------------------
def _matrix_view(pm) -> tuple:
    return (
        list(pm.variables),
        set(pm.nil_vars),
        dict(pm._entries),
        pm.validation.violations,
        pm.to_table(),
    )


def _solve_view(entry: dict, exits: dict, iterations: int, blocks: int) -> tuple:
    matrices = {
        (side, idx): _matrix_view(pm)
        for side, states in (("entry", entry), ("exit", exits))
        for idx, pm in states.items()
    }
    return (iterations, blocks, matrices)


def _function_view(analysis: PathMatrixAnalysis, name: str) -> tuple:
    try:
        result = analysis.analyze_function(name)
    except AnalysisError as exc:
        return ("error", str(exc))
    return _solve_view(
        result.entry_matrices,
        result.exit_matrices,
        result.iterations,
        result.blocks_transferred,
    )


def _loop_views(analysis: PathMatrixAnalysis, name: str, body_solves: list) -> list:
    """Each loop's primed-variable pass: every matrix and work count of its
    body solves (``body_solves`` collects them), and the report built on it."""
    func = analysis.program.function_named(name)
    views = []
    for loop in iter_statements(func.body):
        if not isinstance(loop, While):
            continue
        body_solves.clear()
        try:
            report = analyze_loop_dependence(
                analysis.program, name, loop, analysis.use_adds, analysis
            )
        except AnalysisError as exc:
            views.append(("error", str(exc)))
            continue
        views.append(
            (
                report.loop_line,
                sorted(report.independent_vars),
                report.carried_dependences,
                report.abstraction_valid,
                _matrix_view(report.matrix_after_body),
                [
                    _solve_view(entry, exits, stats.iterations, stats.blocks_transferred)
                    for entry, exits, stats in body_solves
                ],
            )
        )
    return views


def _program_view(source: str, use_adds: bool, patch) -> dict:
    # a loop body is solved through the worklist module's own solve_worklist
    # (function solves call the name analysis.py imported), so recording it
    # catches exactly the loop-dependence passes
    body_solves = []
    solve = worklist_module.solve_worklist

    def recording(*args, **kwargs):
        solved = solve(*args, **kwargs)
        body_solves.append(solved)
        return solved

    patch.setattr(worklist_module, "solve_worklist", recording)
    program = parse_program(source)
    analysis = PathMatrixAnalysis(program, use_adds=use_adds, memoize_results=True)
    view = {
        name: summary.to_dict() for name, summary in sorted(analysis.summaries.items())
    }
    for func in program.functions:
        view[func.name, "analysis"] = _function_view(analysis, func.name)
        view[func.name, "loops"] = _loop_views(analysis, func.name, body_solves)
    return view


def assert_kernels_agree(monkeypatch, sources) -> None:
    for source in sources:
        for use_adds in (True, False):
            with monkeypatch.context() as patch:
                current = _program_view(source, use_adds, patch)
            with monkeypatch.context() as patch:
                patch.setattr(analysis_module, "PathMatrix", PathMatrix)
                patch.setattr(rules_module, "_apply_field_load", _apply_field_load)
                previous = _program_view(source, use_adds, patch)
            assert current.keys() == previous.keys()
            for key, value in current.items():
                assert value == previous[key], (key, use_adds, source[:200])


# ---------------------------------------------------------------------------
# the inputs
# ---------------------------------------------------------------------------
def _kernel_sources() -> list[str]:
    """The wide and deep programs of the e2e benchmark's kernel workload."""
    prefix = standard_source("ListNode")
    return [prefix + wide_program_source(n) for n in (60, 80, 100)] + [
        prefix + deep_program_source(depth, 6, 50) for depth in (4, 5)
    ]


def test_reference_kernel_is_in_use(monkeypatch):
    """The patch reaches the solver: analyses run on the indexed matrix."""
    source = _kernel_sources()[0]
    with monkeypatch.context() as patch:
        patch.setattr(analysis_module, "PathMatrix", PathMatrix)
        program = parse_program(source)
        result = PathMatrixAnalysis(program).analyze_function("stress")
    matrices = list(result.entry_matrices.values()) + list(result.exit_matrices.values())
    assert matrices and all(type(pm) is PathMatrix for pm in matrices)
    assert any(pm._index is not None for pm in matrices)


@pytest.mark.parametrize("corpus", ["builtin", "examples", "paper", "stress", "bench"])
def test_corpus(monkeypatch, corpus):
    assert_kernels_agree(monkeypatch, [item.source for item in corpus_named(corpus)])


def test_kernel_workload_programs(monkeypatch):
    assert_kernels_agree(monkeypatch, _kernel_sources())


@pytest.mark.parametrize("first_seed", range(0, 200, 50))
def test_random_programs(monkeypatch, first_seed):
    """The generator's default size: 4 variables, 14 statements, depth 2."""
    prefix = standard_source("ListNode")
    assert_kernels_agree(
        monkeypatch,
        [
            prefix + random_program_source(random.Random(seed))
            for seed in range(first_seed, first_seed + 50)
        ],
    )


def test_random_programs_of_the_kernel_workload_size(monkeypatch):
    """8 variables, 40 statements, depth 3, as the e2e kernel workload draws."""
    prefix = standard_source("ListNode")
    assert_kernels_agree(
        monkeypatch,
        [
            prefix
            + random_program_source(
                random.Random(seed), num_vars=8, num_statements=40, max_depth=3
            )
            for seed in range(20)
        ],
    )
