"""The staged, summary-firewalled incremental analysis engine.

This is the batch driver's one execution engine, at every ``--jobs``:
:func:`run_program` runs one corpus program through it, inline or on a
pool worker.  The engine is a two-phase walk over the call graph's SCC
condensation that stores two content-addressed artifacts: one ``summary``
per component and one ``report`` per function (see
:mod:`repro.driver.cache` for the store and docs/incremental.md for the
soundness argument):

**Phase 1 — bottom-up summary resolution.**  For each component (callees
first), probe the ``summary`` stage under a key covering the members'
unparsed bodies and the *artifact digests* of their already-resolved
external callees.  On a hit the summaries (effects,
``preserves_abstraction``, inferred return type) are reinterned without
running anything; on a miss they are recomputed with
:func:`~repro.pathmatrix.interproc.summarize_scc` + preservation refinement
and stored.  Either way each member gets an **artifact digest** — the hash
of its summary payload — which is the only thing callers may key on.

**Phase 2 — per-function reports.**  A function's ``report`` key covers
its own declaration text, its own summary artifact, and its direct
callees' artifact digests — *not* their bodies.  That indirection is the
early-cutoff firewall: an edit that leaves a callee's summary artifact
byte-identical leaves every caller's keys untouched, so callers are reused
unrun.  On a report miss the report is computed whole
(:func:`~repro.driver.pipeline.function_report`: fixpoint, validation,
loop classes, transform applicability) and stored as the function's only
artifact; a lost or corrupt report costs one recompute of its function.

Two-phase commit: phase 1 settles *every* summary artifact of a component
before any phase-2 (or caller phase-1) key is formed, so a changed
function's new summary digest is always compared against its callers' cached
inputs — there is no window where a caller could be firewalled against a
stale summary.

**One walk over declarations.**  The per-program ``manifest`` records the
last run: the source digest, the type declarations' digest, the function
order and schedule, and per function its declaration-text digest, direct
callees, ``summary`` key and artifact digest, ``report`` key and first line.
A byte-identical source is served whole from the named ``report`` artifacts
(:meth:`StagedEngine.serve_unchanged`).  Otherwise the source is cut into
declarations (:func:`~repro.lang.split.split_declarations`), each parsed at
its own lines the first time the walk needs it, and the walk *reopens* the
components an edit can reach: those whose text changed, and the callers a
moved summary digest reopens.  Every other function is served from its
recorded ``report`` key at its new first line, and each reopened component
is typechecked and analyzed over its own members, knowing its callees by
summary and return type only.  A cold run is this walk with nothing
recorded.  Whatever the record cannot decide (no usable manifest, a changed
set of names or types, a missing artifact) reopens every component on the
same walk.  A source that does not split, parse or typecheck reports the
whole source's first diagnostic.

Stored payloads are line-relative (see
:func:`~repro.driver.pipeline.relativize_report`); everything the engine
returns to the report is absolute, and lists functions in declaration order.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.lang.ast_nodes import FunctionDecl, Program, TypeDecl
from repro.lang.callgraph import (
    bottom_up_waves,
    called_functions,
    condensed_sccs,
    reachable,
)
from repro.lang.errors import LangError, ParseError, TypeCheckError
from repro.lang.parser import parse_program
from repro.lang.pretty import unparse
from repro.lang.split import Declaration, split_declarations
from repro.lang.typecheck import check_program, inferred_return_type
from repro.pathmatrix.analysis import PathMatrixAnalysis, fixpoint_run_count
from repro.pathmatrix.interproc import FunctionSummary, summarize_scc

from repro.driver.cache import (
    CACHE_VERSION,
    ResultCache,
    _sha,
    payload_digest,
    program_digest,
)
from repro.driver.faults import SIMULATE_TOKEN
from repro.driver.pipeline import (
    PipelineOptions,
    absolutize_report,
    function_report,
    relativize_report,
    simulate_program,
    strip_mined_loops,
)


@dataclass
class IncrementalStats:
    """What one staged run reused, recomputed, and firewalled."""

    #: functions served from a stored report, without running a fixpoint
    reused: int = 0
    #: reused functions some *transitive callee body* of which changed — a
    #: key on callee bodies instead of summaries would have re-analyzed these
    firewalled: int = 0
    #: functions whose fixpoint/validation stage actually ran
    recomputed: int = 0
    #: functions whose declaration text changed since the last run (per the
    #: manifest)
    dirty: int = 0
    summaries_reused: int = 0
    summaries_recomputed: int = 0
    #: path-matrix fixpoints solved during the run (refinement + analysis)
    fixpoints_run: int = 0
    #: programs served whole from their manifest, unparsed
    programs_unchanged: int = 0
    #: simulations served from the ``sim`` stage
    simulations_reused: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ProgramRun:
    """What one program's run produced: :meth:`StagedEngine.run` fills the
    walk's fields, :func:`run_program` the simulation's.  It is the batch
    report's record of the program; :meth:`to_dict` is its JSON."""

    name: str
    #: function name -> report (absolute lines), in declaration order
    functions: dict[str, dict]
    stats: IncrementalStats
    #: the bottom-up schedule (:func:`~repro.lang.callgraph.bottom_up_waves`)
    schedule: list
    simulation: dict | None = None
    #: why the program could not be analyzed (it does not parse or
    #: typecheck, or every task of it died)
    error: str | None = None
    #: the walk's split and parsed declarations, which the simulation
    #: reuses; :func:`run_program` drops them, so that parsed ASTs never
    #: leave the process that parsed them
    split: _Source | None = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "functions": self.functions,
            "schedule": self.schedule,
            "simulation": self.simulation,
            "error": self.error,
        }


class ProgramError(Exception):
    """The program does not split, parse or typecheck; the message is the
    report's ``error``."""


def _program_error(source: str, found: LangError) -> ProgramError:
    """The error of a program whose walk found ``found`` in one declaration
    or component: the whole source's first diagnostic, so that it does not
    depend on which walk found it (``found`` when the source has none)."""
    try:
        check_program(parse_program(source))
    except LangError as exc:
        found = exc
    kind = "type" if isinstance(found, TypeCheckError) else "parse"
    return ProgramError(f"{kind} error: {found}")


class _ReopenAll(Exception):
    """The manifest cannot serve a function it names: reopen everything."""


@dataclass
class _Source:
    """One program cut into declarations, each parsed the first time the
    walk needs it."""

    source: str
    #: function name -> declaration, in source order
    declarations: dict[str, Declaration]
    type_declarations: list[Declaration]
    #: function name -> declaration, for the functions parsed so far
    parsed: dict[str, FunctionDecl] = field(default_factory=dict)
    _types: list[TypeDecl] | None = None
    _types_src: str | None = None

    @classmethod
    def split(cls, source: str) -> "_Source":
        try:
            declarations = split_declarations(source)
        except LangError as exc:
            raise _program_error(source, exc) from None
        functions = {d.name: d for d in declarations if d.kind == "function"}
        types = [d for d in declarations if d.kind == "type"]
        if len(functions) + len(types) != len(declarations):
            raise _program_error(source, TypeCheckError("a function is declared twice"))
        return cls(source, functions, types)

    def types_digest(self) -> str:
        return _sha("types", *(d.text for d in self.type_declarations))

    def types(self) -> list[TypeDecl]:
        if self._types is None:
            self._types = [self._parse(d) for d in self.type_declarations]
        return self._types

    def types_source(self) -> str:
        """The unparsed type declarations: an ingredient of every key."""
        if self._types_src is None:
            self._types_src = "\n".join(unparse(t) for t in self.types())
        return self._types_src

    def function(self, name: str) -> FunctionDecl:
        if name not in self.parsed:
            self.parsed[name] = self._parse(self.declarations[name])
        return self.parsed[name]

    def _parse(self, decl: Declaration) -> TypeDecl | FunctionDecl:
        """One declaration, parsed at its lines."""
        try:
            program = parse_program(decl.text, decl.line)
        except LangError as exc:
            raise _program_error(self.source, exc) from None
        nodes = program.types + program.functions
        if [node.name for node in nodes] != [decl.name]:
            error = ParseError(f"cannot delimit {decl.name!r}", decl.line)
            raise _program_error(self.source, error)
        return nodes[0]


#: what the manifest records per function (reopening less needs all of it)
_MANIFEST_FIELDS = frozenset({"text", "callees", "skey", "summary", "report", "line"})


def _usable_record(manifest: dict | None, src: _Source) -> dict[str, dict]:
    """The manifest's per-function record when it can decide what an edit
    reopens (every field recorded, the same function names and type
    declarations); else nothing, which reopens every component."""
    try:
        recorded, order, types = manifest["functions"], manifest["order"], manifest["types"]
    except (KeyError, TypeError):
        return {}
    if (
        all(_MANIFEST_FIELDS <= entry.keys() for entry in recorded.values())
        and set(src.declarations) == set(order)
        and src.types_digest() == types
    ):
        return recorded
    return {}


def _artifact(name: str, summary: dict, return_type: str | None) -> str:
    return payload_digest({"function": name, "summary": summary, "return_type": return_type})


class StagedEngine:
    """Run the staged pipeline for one program against an artifact store."""

    def __init__(self, cache: ResultCache, options: PipelineOptions):
        self.cache = cache
        self.options = options

    def _manifest_key(self, name: str) -> str:
        return _sha("manifest", str(CACHE_VERSION), self.options.key(), name)

    def serve_unchanged(self, name: str, source: str) -> ProgramRun | None:
        """Serve a program whose source is byte-identical to its manifest's
        from the named ``report`` artifacts, unparsed; ``None`` when there is
        no such manifest or one of its reports is missing or corrupt."""
        manifest = self.cache.get(self._manifest_key(name), stage="manifest")
        return self._serve(name, manifest, source)

    def run(
        self,
        name: str,
        source: str,
        reuse: bool = True,
        failed: dict[str, dict] | None = None,
        before=None,
    ) -> ProgramRun:
        """Every function's report, served or computed, with the counters.

        ``reuse=False`` neither reads nor writes the program's manifest (a
        corpus that gives two programs one name): every function counts
        dirty.  ``failed`` maps a function to the failure payload reported
        in place of computing it, which is never stored.  ``before(fn)`` is
        called before each report is computed.  Raises
        :class:`ProgramError` when the source does not split, parse or
        typecheck.
        """
        record = self._manifest_key(name) if reuse else None
        manifest = self.cache.get(record, stage="manifest") if reuse else None
        served = self._serve(name, manifest, source)
        if served is not None:
            return served
        src = _Source.split(source)
        recorded = manifest.get("functions", {}) if manifest is not None else {}
        failed = failed or {}
        try:
            if not src.declarations:  # no component parses or checks the types
                check_program(Program(types=src.types(), functions=[]))
            try:
                return self._walk(
                    name, src, recorded, _usable_record(manifest, src), record, failed, before
                )
            except _ReopenAll:
                return self._walk(name, src, recorded, {}, record, failed, before)
        except TypeCheckError as exc:
            raise _program_error(source, exc) from None

    def _serve(self, name: str, manifest: dict | None, source: str) -> ProgramRun | None:
        if manifest is None or manifest.get("source") != _sha("source", source):
            return None
        served: dict[str, dict] = {}
        for fn in manifest["order"]:
            entry = manifest["functions"][fn]
            cached = self.cache.get(entry["report"], stage="report")
            if cached is None:
                return None
            served[fn] = absolutize_report(cached, entry["line"])
        stats = IncrementalStats(
            reused=len(served), summaries_reused=len(served), programs_unchanged=1
        )
        return ProgramRun(name, served, stats, manifest["schedule"])

    # -- the walk --------------------------------------------------------------
    def _walk(
        self,
        name: str,
        src: _Source,
        recorded: dict[str, dict],
        known: dict[str, dict],
        record: str | None,
        failed: dict[str, dict],
        before,
    ) -> ProgramRun:
        """Both phases over ``src``.  ``recorded`` is the manifest's
        per-function record, which counts the dirty functions; ``known`` is
        the part of it the walk may trust (nothing: every component is
        reopened and every function probed).  Nothing is written until the
        walk can no longer give up; the manifest goes under ``record``
        (``None``: none is written)."""
        stats = IncrementalStats()
        opts = self.options.key()
        version = str(CACHE_VERSION)
        names = list(src.declarations)
        text_digest = {n: _sha("text", d.text) for n, d in src.declarations.items()}
        dirty = {n for n in names if recorded.get(n, {}).get("text") != text_digest[n]}
        stats.dirty = len(dirty)
        # the functions the record does not vouch for: parsed for their callees
        stale = {n for n in names if known.get(n, {}).get("text") != text_digest[n]}
        callees = {
            n: called_functions(src.function(n), src.declarations)
            if n in stale
            else set(known[n]["callees"])
            for n in names
        }
        sccs = condensed_sccs(callees, names)
        schedule = bottom_up_waves(sccs, callees)
        callers: dict[str, set[str]] = {n: set() for n in names}
        for caller in names:
            for callee in callees[caller]:
                callers[callee].add(caller)

        table: dict[str, FunctionSummary] = {}
        returns: dict[str, str | None] = {}
        art_digest: dict[str, str] = {}
        summary_key: dict[str, str] = {}
        moved: set[str] = set()
        pending_puts: list[tuple[str, dict]] = []
        fixpoints_before = fixpoint_run_count()
        analyses: dict[int, PathMatrixAnalysis] = {}

        def externals_of(members: list[str]) -> list[str]:
            member_set = set(members)
            return sorted(
                {c for n in members for c in callees[n] if c not in member_set}
            )

        def load_summaries(function: str) -> None:
            """Reintern an unreopened component's summaries from its artifact."""
            if function in table:
                return
            cached = self.cache.get(known[function]["skey"], stage="summary")
            if cached is None:
                raise _ReopenAll
            for member, entry in cached["functions"].items():
                table[member] = FunctionSummary.from_dict(entry["summary"])
                returns[member] = entry["return_type"]

        def component_analysis(component: int) -> PathMatrixAnalysis:
            """The analysis a component's members run under: over the
            members alone, knowing their callees by summary and return type."""
            if component not in analyses:
                members = sccs[component]
                externals = externals_of(members)
                for callee in externals:
                    load_summaries(callee)
                analyses[component] = PathMatrixAnalysis(
                    Program(types=src.types(), functions=[src.function(n) for n in members]),
                    use_adds=self.options.use_adds,
                    memoize_results=True,
                    summaries=table,
                    external_returns={c: returns[c] for c in externals},
                )
            return analyses[component]

        group_size: dict[str, int] = {}
        for entry in known.values():
            group_size[entry["skey"]] = group_size.get(entry["skey"], 0) + 1

        def reopened(members: list[str], externals: list[str]) -> bool:
            if any(n in stale for n in members) or any(c in moved for c in externals):
                return True
            # the component gained or lost members since the last run
            keys = {known[n]["skey"] for n in members}
            return len(keys) != 1 or group_size[keys.pop()] != len(members)

        # -- phase 1: bottom-up summary resolution over the condensation -----
        for component, members in enumerate(sccs):
            externals = externals_of(members)
            if not reopened(members, externals):
                for n in members:
                    art_digest[n] = known[n]["summary"]
                    summary_key[n] = known[n]["skey"]
                stats.summaries_reused += len(members)
                continue
            scc_blob = ";".join(
                f"{n}={_sha('body', unparse(src.function(n)))}" for n in members
            )
            ext_blob = ";".join(f"{c}={art_digest[c]}" for c in externals)
            skey = _sha(
                "summary", version, opts, src.types_source(), scc_blob, ext_blob
            )
            cached = self.cache.get(skey, stage="summary")
            if cached is not None:
                for n in members:
                    entry = cached["functions"][n]
                    table[n] = FunctionSummary.from_dict(entry["summary"])
                    returns[n] = entry["return_type"]
                    art_digest[n] = _artifact(n, entry["summary"], returns[n])
                stats.summaries_reused += len(members)
            else:
                analysis = component_analysis(component)
                table.update(summarize_scc(analysis.program, members, table))
                analysis.refine_preservation(members)
                payload: dict = {"functions": {}}
                for n in members:
                    returns[n] = inferred_return_type(
                        analysis.program, analysis.check_result, n
                    )
                    summary_dict = table[n].to_dict()
                    payload["functions"][n] = {
                        "summary": summary_dict,
                        "return_type": returns[n],
                    }
                    art_digest[n] = _artifact(n, summary_dict, returns[n])
                pending_puts.append((skey, payload))
                stats.summaries_recomputed += len(members)
            for n in members:
                summary_key[n] = skey
                if known.get(n, {}).get("summary") != art_digest[n]:
                    moved.add(n)

        # the functions whose report key can have moved; the rest are served
        # from the keys the manifest names
        probed = stale | moved
        for n in moved:
            probed |= callers[n]
        served: dict[str, dict] = {}
        for n in names:
            if n not in probed:
                cached = self.cache.get(known[n]["report"], stage="report")
                if cached is None:
                    raise _ReopenAll
                served[n] = cached
        for members in sccs:
            if any(n in probed for n in members):
                for callee in externals_of(members):
                    load_summaries(callee)

        # -- commit: from here on the walk cannot give up --------------------
        for skey, payload in pending_puts:
            self.cache.put(skey, payload, stage="summary")

        # reused functions a dirty function is reachable from (one reverse
        # walk instead of one transitive-callee set per function)
        reaches_dirty = reachable(callers, dirty)

        def count_reused(fn: str) -> None:
            stats.reused += 1
            if fn not in dirty and fn in reaches_dirty:
                stats.firewalled += 1

        # -- phase 2: per-function report probe / compute -------------------
        reports: dict[str, dict] = {}
        report_key: dict[str, str] = {}
        for component, members in enumerate(sccs):
            for fn in members:
                decl = src.declarations[fn]
                if fn in served:
                    reports[fn] = absolutize_report(served[fn], decl.line)
                    report_key[fn] = known[fn]["report"]
                    count_reused(fn)
                    continue
                callee_blob = ";".join(
                    f"{c}={art_digest[c]}" for c in sorted(callees[fn])
                )
                rkey = report_key[fn] = _sha(
                    "report",
                    version,
                    opts,
                    src.types_source(),
                    decl.text,
                    art_digest[fn],
                    callee_blob,
                )
                cached = self.cache.get(rkey, stage="report")
                if cached is not None:
                    reports[fn] = absolutize_report(cached, decl.line)
                    count_reused(fn)
                elif fn in failed:
                    reports[fn] = failed[fn]
                else:
                    if before is not None:
                        before(fn)
                    report = function_report(component_analysis(component), fn, self.options)
                    reports[fn] = report
                    self.cache.put(rkey, relativize_report(report, decl.line), stage="report")
                    stats.recomputed += 1

        # commit the manifest: the next run's dirty accounting and reopening,
        # and what serves this program unparsed if it is unchanged
        if record is not None:
            self.cache.put(
                record,
                {
                    "source": _sha("source", src.source),
                    "types": src.types_digest(),
                    "order": names,
                    "schedule": schedule,
                    "functions": {
                        n: {
                            "text": text_digest[n],
                            "callees": sorted(callees[n]),
                            "skey": summary_key[n],
                            "summary": art_digest[n],
                            "report": report_key[n],
                            "line": src.declarations[n].line,
                        }
                        for n in sorted(names)
                    },
                },
                stage="manifest",
            )
        stats.fixpoints_run = fixpoint_run_count() - fixpoints_before
        return ProgramRun(name, {n: reports[n] for n in names}, stats, schedule, split=src)


def run_program(
    engine: StagedEngine,
    name: str,
    source: str,
    reuse: bool,
    simulate: bool,
    failed: dict[str, dict] | None = None,
    before=None,
) -> ProgramRun:
    """One corpus program end to end: the engine's walk, then the
    simulation of the loops its reports strip-mine, served from the ``sim``
    stage when it is cached.

    Every ``--jobs`` runs programs through this call: ``--jobs 1`` inline,
    a pool worker on its own engine over the same store.  ``failed`` maps
    a function, or :data:`~repro.driver.faults.SIMULATE_TOKEN` for the
    simulation, to the failure payload reported in its place;
    ``before(token)`` is called before each report is computed and before
    the simulation runs.  A simulation run while a failure payload stands
    in for some report is reported but never stored: the payload hides
    that function's loops.  The simulation takes the declarations the walk
    parsed; a program served whole from its manifest is split for it.
    """
    failed = failed or {}
    try:
        run = engine.run(name, source, reuse, failed, before)
    except ProgramError as exc:
        return ProgramRun(name, {}, IncrementalStats(), [], error=str(exc))
    split, run.split = run.split, None
    if simulate:
        key = program_digest(source, engine.options.key())
        run.simulation = engine.cache.get(key, stage="sim")
        run.stats.simulations_reused = int(run.simulation is not None)
        if run.simulation is None:
            run.simulation = failed.get(SIMULATE_TOKEN)
        if run.simulation is None:
            if before is not None:
                before(SIMULATE_TOKEN)
            loops = strip_mined_loops(run.functions)
            if split is None:
                split = _Source.split(source)
            run.simulation = simulate_program(split, engine.options, loops)
            if not any(report is failed.get(fn) for fn, report in run.functions.items()):
                engine.cache.put(key, run.simulation, stage="sim")
    return run
