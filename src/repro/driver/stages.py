"""The staged, summary-firewalled incremental analysis engine.

This is the batch driver's one execution engine, at every ``--jobs``:
:func:`run_program` runs one corpus program through it, inline or on a
pool worker.  The engine is a two-phase walk over the call graph's SCC
condensation that keeps two content-addressed artifacts: one ``summary``
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
and kept.  Either way each member gets an **artifact digest** — the hash
of its summary payload — which is the only thing callers may key on.

**Phase 2 — per-function reports.**  A function's ``report`` key covers
its own declaration text, its own summary artifact, and its direct
callees' artifact digests — *not* their bodies.  That indirection is the
early-cutoff firewall: an edit that leaves a callee's summary artifact
byte-identical leaves every caller's keys untouched, so callers are reused
unrun.  On a report miss the report is computed whole
(:func:`~repro.driver.pipeline.function_report`: fixpoint, validation,
loop classes, transform applicability) and kept as the function's only
artifact; a lost report costs one recompute of its function.

Two-phase commit: phase 1 settles *every* summary artifact of a component
before any phase-2 (or caller phase-1) key is formed, so a changed
function's new summary digest is always compared against its callers' cached
inputs — there is no window where a caller could be firewalled against a
stale summary.

**One record per program.**  The store holds one checksummed record per
program (see :mod:`repro.driver.cache`): its ``manifest``, the summaries
and reports the manifest names — each report at the lines the run
reported — and its simulation, plus the artifacts the record's previous
version named and this one does not (one generation, so that a reverted
edit is reused).  The engine reads a program's record once per process and
indexes every artifact of every record it reads under the artifact's own
key; a key no record read so far holds makes the process read the
records published since it last looked, each once, so that programs,
runs and pool workers share artifacts.  After the simulation
:func:`run_program` publishes the program's new record, only when
something changed; a task that dies before that publishes nothing.

**One walk over declarations.**  The ``manifest`` records the last run:
the source digest, the type declarations' digest, the function order and
schedule, the simulation's key, and per function its declaration-text
digest, direct callees, ``summary`` key and artifact digest, ``report`` key
and first line.  A byte-identical source is served whole from its own
record, unparsed and unmoved (:meth:`StagedEngine.serve_whole`).
Otherwise the source is cut into
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

A report found for a function at other lines than it was recorded at is
moved by the difference (:func:`~repro.driver.pipeline.absolutize_report`);
everything the engine returns is absolute, and lists functions in
declaration order.
"""

from __future__ import annotations

import json
import os
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
    canonical_json,
    payload_digest,
    program_digest,
)
from repro.driver.faults import SIMULATE_TOKEN
from repro.driver.pipeline import (
    PipelineOptions,
    absolutize_report,
    function_report,
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
    #: programs served whole from their record, unparsed
    programs_unchanged: int = 0
    #: simulations served from a record
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
    #: the walk's new manifest (``None``: served whole, or no record kept),
    #: which :func:`run_program` publishes and then drops
    manifest: dict | None = None

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


#: the artifact stages a record holds, each a map from key to artifact:
#: a summary as its payload's canonical JSON text (decoded only when a walk
#: needs it), a report with the first line of the function it was
#: recorded for, a simulation as it is reported
_ARTIFACTS = ("summary", "report", "sim")


def _named(manifest: dict | None) -> list[tuple[str, str]]:
    """The artifacts ``manifest`` names, as ``(stage, key)`` pairs."""
    if manifest is None:
        return []
    named = [
        (stage, entry.get(field))
        for entry in manifest.get("functions", {}).values()
        for stage, field in (("summary", "skey"), ("report", "report"))
    ]
    named.append(("sim", manifest.get("simulation")))
    return [(stage, key) for stage, key in named if key is not None]


class StagedEngine:
    """Run the staged pipeline for one program against an artifact store.

    The engine reads each program's record at most once per process, and
    another program's only at a key no record read so far holds, and
    indexes the artifacts of every record it reads or publishes, and of
    every artifact it computes, under the artifacts' own keys.
    """

    def __init__(self, cache: ResultCache, options: PipelineOptions):
        self.cache = cache
        self.options = options
        #: record key -> the record read (``None``: none) or last published
        self._records: dict[str, dict | None] = {}
        #: (stage, key) -> artifact, in a record's form (see _ARTIFACTS)
        self._index: dict[tuple[str, str], object] = {}
        #: summary key -> its decoded payload
        self._summaries: dict[str, dict] = {}
        #: the record directory's modification time when it was last
        #: listed (``None``: never, or there was no directory)
        self._listed: int | None = None
        #: whether computed artifacts are indexed (a disabled store keeps
        #: nothing, so every run computes every artifact)
        self._keeps = cache.directory is not None

    def record_key(self, name: str) -> str:
        """The key of program ``name``'s record: the cache version, the
        options and the name."""
        return _sha("manifest", str(CACHE_VERSION), self.options.key(), name)

    # -- the records -------------------------------------------------------------
    def _read(self, key: str) -> dict | None:
        if key not in self._records:
            record = self.cache.get(key, stage="program")
            self._records[key] = record
            if record is not None:
                self._add(record, replace=True)
        return self._records[key]

    def _add(self, record: dict, replace: bool) -> None:
        for stage in _ARTIFACTS:
            for key, artifact in record.get(stage, {}).items():
                if replace:
                    self._index[(stage, key)] = artifact
                else:
                    self._index.setdefault((stage, key), artifact)

    def _find(self, stage: str, key: str):
        """The artifact under ``key``: from the records read so far, else
        from the records published since the process last looked."""
        found = self._index.get((stage, key))
        if found is None and self._read_new_records():
            found = self._index.get((stage, key))
        return found

    def _read_new_records(self) -> bool:
        """Read every record in the store that the process has not read;
        ``False`` when there is none.  The directory is listed again only
        when it has changed since the last listing (a publish renames into
        it), so a run's many misses cost one ``stat`` each."""
        if not self._keeps:
            return False
        try:
            listed = os.stat(self.cache.live / "program").st_mtime_ns
        except OSError:
            return False
        if listed == self._listed:
            return False
        self._listed = listed
        new = [key for key in self.cache.keys("program") if key not in self._records]
        for key in new:
            record = self._records[key] = self.cache.get(key, stage="program")
            if record is not None:
                self._add(record, replace=False)
        return bool(new)

    def _summary(self, key: str) -> dict | None:
        payload = self._summaries.get(key)
        if payload is None:
            text = self._find("summary", key)
            if text is None:
                return None
            payload = self._summaries[key] = json.loads(text)
        return payload

    def _report(self, key: str, line: int) -> dict | None:
        """The report under ``key``, moved to a function at ``line``."""
        found = self._find("report", key)
        if found is None:
            return None
        return absolutize_report(found["report"], line, found["line"])

    def simulation(self, key: str) -> dict | None:
        """The simulation under ``key`` that some record holds."""
        return self._find("sim", key)

    def publish(self, name: str, run: ProgramRun, sim_key: str | None, failed: dict) -> None:
        """Write program ``name``'s new record, when it differs from the
        last one: the walk's manifest, the artifacts it names — every report
        but a failure payload, and the simulation under ``sim_key``
        (``None``: none to keep) — and those the last record named and this
        one does not.  A program served whole keeps its record, and only a
        new simulation is added to it."""
        if not self._keeps:
            return
        key = self.record_key(name)
        previous = self._records.get(key) or {}
        if run.manifest is None:
            if sim_key is None or sim_key in previous.get("sim", {}):
                return
            record = dict(previous, sim={**previous.get("sim", {}), sim_key: run.simulation})
            record["manifest"] = dict(previous["manifest"], simulation=sim_key)
        else:
            record = self._compose(run, sim_key, failed, previous)
            if record == previous:
                return
        self.cache.put(key, record, stage="program")
        self._records[key] = record
        self._add(record, replace=True)

    def _compose(self, run: ProgramRun, sim_key: str | None, failed: dict, previous: dict) -> dict:
        manifest = dict(run.manifest, simulation=sim_key)
        record: dict = {"manifest": manifest, "summary": {}, "report": {}, "sim": {}}
        for fn, entry in manifest["functions"].items():
            text = self._index.get(("summary", entry["skey"]))
            if text is not None:
                record["summary"][entry["skey"]] = text
            report = run.functions[fn]
            if report is not failed.get(fn):
                record["report"][entry["report"]] = {"line": entry["line"], "report": report}
        if sim_key is not None:
            record["sim"][sim_key] = run.simulation
        # one generation: what the last record named and this one does not
        for stage, named in _named(previous.get("manifest")):
            kept = previous.get(stage, {}).get(named)
            if kept is not None:
                record[stage].setdefault(named, kept)
        return record

    # -- serving and walking -----------------------------------------------------
    def serve_whole(self, name: str, source: str, simulate: bool) -> ProgramRun | None:
        """Serve a program whose source is byte-identical to its record's,
        with its simulation when ``simulate``, from that record alone and
        unparsed; ``None`` when the record cannot."""
        record = self._read(self.record_key(name))
        run = self._serve(name, record, source)
        if run is not None and simulate:
            sim_key = program_digest(source, self.options.key())
            run.simulation = record.get("sim", {}).get(sim_key)
            if run.simulation is None:
                return None
            run.stats.simulations_reused = 1
        return run

    def run(
        self,
        name: str,
        source: str,
        reuse: bool = True,
        failed: dict[str, dict] | None = None,
        before=None,
    ) -> ProgramRun:
        """Every function's report, served or computed, with the counters.

        ``reuse=False`` neither reads the program's record nor makes a
        manifest for one (a corpus that gives two programs one name): every
        function counts dirty.  ``failed`` maps a function to the failure
        payload reported in place of computing it, which is never kept.
        ``before(fn)`` is called before each report is computed.  Raises
        :class:`ProgramError` when the source does not split, parse or
        typecheck.
        """
        record = self._read(self.record_key(name)) if reuse else None
        served = self._serve(name, record, source)
        if served is not None:
            return served
        manifest = (record or {}).get("manifest")
        src = _Source.split(source)
        recorded = manifest.get("functions", {}) if manifest is not None else {}
        failed = failed or {}
        try:
            if not src.declarations:  # no component parses or checks the types
                check_program(Program(types=src.types(), functions=[]))
            try:
                return self._walk(
                    name, src, recorded, _usable_record(manifest, src), reuse, failed, before
                )
            except _ReopenAll:
                return self._walk(name, src, recorded, {}, reuse, failed, before)
        except TypeCheckError as exc:
            raise _program_error(source, exc) from None

    def _serve(self, name: str, record: dict | None, source: str) -> ProgramRun | None:
        manifest = (record or {}).get("manifest")
        if manifest is None or manifest.get("source") != _sha("source", source):
            return None
        reports = record.get("report", {})
        served: dict[str, dict] = {}
        for fn in manifest["order"]:
            entry = manifest["functions"][fn]
            stored = reports.get(entry["report"])
            if stored is None:
                return None
            served[fn] = absolutize_report(stored["report"], entry["line"], stored["line"])
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
        keep: bool,
        failed: dict[str, dict],
        before,
    ) -> ProgramRun:
        """Both phases over ``src``.  ``recorded`` is the manifest's
        per-function record, which counts the dirty functions; ``known`` is
        the part of it the walk may trust (nothing: every component is
        reopened and every function probed).  Nothing is indexed until the
        walk can no longer give up; with ``keep`` the run carries the new
        manifest."""
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
        pending: list[tuple[str, dict]] = []
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
            cached = self._summary(known[function]["skey"])
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
            cached = self._summary(skey)
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
                pending.append((skey, payload))
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
                cached = self._report(known[n]["report"], src.declarations[n].line)
                if cached is None:
                    raise _ReopenAll
                served[n] = cached
        for members in sccs:
            if any(n in probed for n in members):
                for callee in externals_of(members):
                    load_summaries(callee)

        # -- commit: from here on the walk cannot give up --------------------
        if self._keeps:
            for skey, payload in pending:
                self._index[("summary", skey)] = canonical_json(payload)
                self._summaries[skey] = payload

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
                    reports[fn] = served[fn]
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
                cached = self._report(rkey, decl.line)
                if cached is not None:
                    reports[fn] = cached
                    count_reused(fn)
                elif fn in failed:
                    reports[fn] = failed[fn]
                else:
                    if before is not None:
                        before(fn)
                    report = function_report(component_analysis(component), fn, self.options)
                    reports[fn] = report
                    if self._keeps:
                        self._index[("report", rkey)] = {"line": decl.line, "report": report}
                    stats.recomputed += 1

        # the manifest: the next run's dirty accounting and reopening, and
        # what serves this program unparsed if it is unchanged
        manifest = None
        if keep:
            manifest = {
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
            }
        stats.fixpoints_run = fixpoint_run_count() - fixpoints_before
        return ProgramRun(
            name,
            {n: reports[n] for n in names},
            stats,
            schedule,
            split=src,
            manifest=manifest,
        )


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
    simulation of the loops its reports strip-mine, served from a record
    when one holds it, then the program's new record.

    Every ``--jobs`` runs programs through this call: ``--jobs 1`` inline,
    a pool worker on its own engine over the same store.  ``failed`` maps
    a function, or :data:`~repro.driver.faults.SIMULATE_TOKEN` for the
    simulation, to the failure payload reported in its place;
    ``before(token)`` is called before each report is computed and before
    the simulation runs.  A simulation run while a failure payload stands
    in for some report is reported but never kept: the payload hides
    that function's loops.  The simulation takes the declarations the walk
    parsed; a program served whole from its record is split for it.
    With ``reuse`` the program's record is published last, so a task that
    dies before the end publishes nothing.
    """
    failed = failed or {}
    try:
        run = engine.run(name, source, reuse, failed, before)
    except ProgramError as exc:
        return ProgramRun(name, {}, IncrementalStats(), [], error=str(exc))
    split, run.split = run.split, None
    sim_key = None
    if simulate:
        key = program_digest(source, engine.options.key())
        run.simulation = engine.simulation(key)
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
        if run.simulation is not failed.get(SIMULATE_TOKEN) and not any(
            report is failed.get(fn) for fn, report in run.functions.items()
        ):
            sim_key = key
    if reuse:
        engine.publish(name, run, sim_key, failed)
    run.manifest = None
    return run
