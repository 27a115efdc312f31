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
edit is reused).  Each artifact is kept as the canonical JSON text it was
encoded as when it was made, and decoded only when the walk asks for it.
A program is served only from its own record, which the engine reads at
most once per process, and from the artifacts its own walk computes: no
program reads another's record, so what a run computes does not depend on
which programs, runs or pool workers came before it.  After the
simulation :func:`run_program` publishes the program's new record, only
when something changed, copying the texts of the artifacts it keeps and
encoding only those the walk made; a task that dies before that publishes
nothing.

**One walk over declarations.**  The ``manifest`` records the last run:
the source digest, the type declarations' digest, the function order and
schedule, the simulation's key, and per function its declaration-text
digest, direct callees, ``summary`` key and artifact digest, ``report`` key
and first line, and the facts the text report and the exit status read of
its report (:func:`~repro.driver.pipeline.report_facts`).  A
byte-identical source is served whole from its own record, unparsed,
unmoved and undecoded (:meth:`StagedEngine.serve_whole`): its reports stay
the texts the record holds, which ``--output`` splices in as they are.
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

A report found for a function at other lines than it was recorded at (a
declaration above it grew or shrank) is moved by the difference
(:func:`~repro.driver.pipeline.absolutize_report`);
everything the engine returns is absolute, and lists functions in
declaration order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

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
    Record,
    ResultCache,
    _sha,
    canonical_json,
    canonical_object,
    payload_digest,
    program_digest,
)
from repro.driver.faults import SIMULATE_TOKEN
from repro.driver.pipeline import (
    NO_FACTS,
    PipelineOptions,
    absolutize_report,
    function_report,
    report_facts,
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
        return dict(vars(self))  # int fields: asdict without its deep copy


@dataclass
class ProgramRun:
    """What one program's run produced: :meth:`StagedEngine.run` fills the
    walk's fields, :func:`run_program` the simulation's.  It is the batch
    report's record of the program; :meth:`to_dict` is its JSON and
    :meth:`to_json` that JSON's canonical text."""

    name: str
    #: function name -> report (absolute lines), in declaration order, or
    #: ``None`` until :attr:`functions` decodes the :attr:`stored` reports
    _functions: dict[str, dict] | None
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
    #: summary key -> payload of each summary the walk computed, which
    #: :func:`run_program` publishes with the manifest and then drops
    summaries: dict[str, dict] | None = None
    #: served whole: function name -> its report's canonical JSON, as the
    #: record holds it
    stored: dict[str, str] | None = None
    #: function name -> :func:`~repro.driver.pipeline.report_facts` of its
    #: report (served whole: as the manifest keeps them)
    facts: dict[str, dict] | None = None

    @property
    def functions(self) -> dict[str, dict]:
        """Function name -> report, in declaration order; a program served
        whole decodes its stored reports at the first use."""
        if self._functions is None:
            self._functions = {fn: json.loads(text) for fn, text in self.stored.items()}
        return self._functions

    def function_facts(self) -> dict[str, dict]:
        """Function name -> what the text report and the exit status read of
        its report, in declaration order."""
        if self.facts is None:
            self.facts = {fn: report_facts(report) for fn, report in self.functions.items()}
        return self.facts

    def _members(self) -> dict:
        """:meth:`to_dict` but its ``functions``."""
        return {
            "name": self.name,
            "schedule": self.schedule,
            "simulation": self.simulation,
            "error": self.error,
        }

    def to_dict(self) -> dict:
        return {**self._members(), "functions": self.functions}

    def to_json(self) -> str:
        """:func:`~repro.driver.cache.canonical_json` of :meth:`to_dict`; a
        program served whole splices its stored reports in undecoded."""
        if self.stored is None:
            return canonical_json(self.to_dict())
        texts = {key: canonical_json(value) for key, value in self._members().items()}
        texts["functions"] = canonical_object(self.stored)
        return canonical_object(texts)


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


def _stored_facts(report: dict) -> dict:
    """:func:`~repro.driver.pipeline.report_facts` of ``report`` as a
    manifest keeps them: those that differ from
    :data:`~repro.driver.pipeline.NO_FACTS`."""
    return {
        name: fact
        for name, fact in report_facts(report).items()
        if name not in NO_FACTS or fact != NO_FACTS[name]
    }


def _report_at(text: str | None, line: int) -> dict | None:
    """A stored report's text (``<line> <canonical JSON>``, ``line`` the
    first line of the function it was computed for), decoded and moved to
    a function at ``line``."""
    if text is None:
        return None
    recorded, _, report = text.partition(" ")
    return absolutize_report(json.loads(report), line, int(recorded))


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

    A program's walk looks artifacts up only in the program's own record,
    which the engine reads at most once per process, and in the artifacts
    the walk computes.  A stored artifact is the text its record holds it
    as: a summary's or simulation's canonical JSON, and a report's as
    ``<line> <canonical JSON>``, where ``line`` is the first line of the
    function it was computed for.  The engine keeps no state between
    programs but the records it read or published.
    """

    def __init__(self, cache: ResultCache, options: PipelineOptions):
        self.cache = cache
        self.options = options
        #: record key -> the record read (``None``: none) or last published
        self._records: dict[str, Record | None] = {}

    def record_key(self, name: str) -> str:
        """The key of program ``name``'s record: the cache version, the
        options and the name."""
        return _sha("manifest", str(CACHE_VERSION), self.options.key(), name)

    # -- the records -------------------------------------------------------------
    def record(self, name: str) -> Record | None:
        """Program ``name``'s record, read at most once per process, or the
        one this process last published for it."""
        key = self.record_key(name)
        if key not in self._records:
            self._records[key] = self.cache.get(key, stage="program")
        return self._records[key]

    def adopt(self, name: str, record: Record | None) -> None:
        """Take ``record`` as program ``name``'s, as another process of the
        run read it (a pool task carries the coordinator's read), instead
        of reading it again."""
        self._records[self.record_key(name)] = record

    def forget(self, name: str) -> None:
        """Drop program ``name``'s record, which another process of the run
        (a pool worker) may have replaced, so that it is read afresh."""
        self._records.pop(self.record_key(name), None)

    def publish(self, name: str, run: ProgramRun, sim_key: str | None, failed: dict) -> None:
        """Write program ``name``'s new record, when it differs from the
        last one: the walk's manifest, the artifacts it names — every report
        but a failure payload, and the simulation under ``sim_key``
        (``None``: none to keep) — and those the last record named and this
        one does not.  A program served whole keeps its record, and only a
        new simulation is added to it.  A disabled store encodes nothing."""
        if self.cache.directory is None:
            return
        key = self.record_key(name)
        previous = self._records.get(key)
        if run.manifest is None:
            if sim_key is None or ("sim", sim_key) in previous.artifacts:
                return
            record = Record(
                dict(previous.manifest, simulation=sim_key),
                {**previous.artifacts, ("sim", sim_key): canonical_json(run.simulation)},
            )
        else:
            record = self._compose(run, sim_key, failed, previous)
            if record == previous:
                return
        self.cache.put(key, record, stage="program")
        self._records[key] = record

    @staticmethod
    def _compose(
        run: ProgramRun, sim_key: str | None, failed: dict, previous: Record | None
    ) -> Record:
        """The record of a walked program: each artifact the previous record
        holds as it holds it, and only a summary the walk computed, a report
        computed or moved to other lines, and a new simulation encoded."""
        stored = previous.artifacts if previous is not None else {}
        record = Record(dict(run.manifest, simulation=sim_key))
        artifacts = record.artifacts
        for skey, payload in run.summaries.items():
            artifacts["summary", skey] = canonical_json(payload)
        for fn, entry in record.manifest["functions"].items():
            summary = stored.get(("summary", entry["skey"]))
            if summary is not None:
                artifacts["summary", entry["skey"]] = summary
            report = run.functions[fn]
            if report is not failed.get(fn):
                text = stored.get(("report", entry["report"]))
                if text is None or not text.startswith(f"{entry['line']} "):
                    text = f"{entry['line']} {canonical_json(report)}"
                artifacts["report", entry["report"]] = text
        if sim_key is not None:
            artifacts["sim", sim_key] = stored.get(("sim", sim_key)) or canonical_json(
                run.simulation
            )
        # one generation: what the last record named and this one does not
        for named in _named(previous.manifest if previous is not None else None):
            kept = stored.get(named)
            if kept is not None:
                artifacts.setdefault(named, kept)
        return record

    # -- serving and walking -----------------------------------------------------
    def serve_whole(self, name: str, source: str, simulate: bool) -> ProgramRun | None:
        """Serve a program whose source is byte-identical to its record's,
        with its simulation when ``simulate``, from that record alone and
        unparsed; ``None`` when the record cannot."""
        record = self.record(name)
        run = self._serve(name, record, source)
        if run is not None and simulate:
            sim_key = program_digest(source, self.options.key())
            text = record.artifacts.get(("sim", sim_key))
            if text is None:
                return None
            run.simulation = json.loads(text)
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
        record = self.record(name) if reuse else None
        served = self._serve(name, record, source)
        if served is not None:
            return served
        manifest = record.manifest if record is not None else None
        src = _Source.split(source)
        failed = failed or {}
        try:
            if not src.declarations:  # no component parses or checks the types
                check_program(Program(types=src.types(), functions=[]))
            try:
                return self._walk(
                    name, src, record, _usable_record(manifest, src), reuse, failed, before
                )
            except _ReopenAll:
                return self._walk(name, src, record, {}, reuse, failed, before)
        except TypeCheckError as exc:
            raise _program_error(source, exc) from None

    def _serve(self, name: str, record: Record | None, source: str) -> ProgramRun | None:
        """The program served whole from ``record``, each report the text
        the record holds at the function's lines, and its facts the
        manifest's; ``None`` when the record cannot."""
        if record is None or record.manifest.get("source") != _sha("source", source):
            return None
        manifest = record.manifest
        stored: dict[str, str] = {}
        facts: dict[str, dict] = {}
        for fn in manifest["order"]:
            entry = manifest["functions"][fn]
            text = record.artifacts.get(("report", entry["report"]), "")
            recorded, _, stored[fn] = text.partition(" ")
            if recorded != str(entry["line"]):
                return None
            facts[fn] = {**NO_FACTS, **entry["facts"]}
        stats = IncrementalStats(
            reused=len(stored), summaries_reused=len(stored), programs_unchanged=1
        )
        return ProgramRun(
            name, None, stats, manifest["schedule"], stored=stored, facts=facts
        )

    # -- the walk --------------------------------------------------------------
    def _walk(
        self,
        name: str,
        src: _Source,
        record: Record | None,
        known: dict[str, dict],
        keep: bool,
        failed: dict[str, dict],
        before,
    ) -> ProgramRun:
        """Both phases over ``src``, looking artifacts up in the program's
        ``record`` alone.  Its manifest's per-function record counts the
        dirty functions; ``known`` is the part of it the walk may trust
        (nothing: every component is reopened and every function probed).
        A walk that gives up keeps nothing it computed; with ``keep`` the
        run carries the new manifest and the summaries the walk computed."""
        recorded = record.manifest.get("functions", {}) if record is not None else {}
        stored = record.artifacts if record is not None else {}
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
        made: dict[str, dict] = {}
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
            text = stored.get(("summary", known[function]["skey"]))
            if text is None:
                raise _ReopenAll
            for member, entry in json.loads(text)["functions"].items():
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
            text = stored.get(("summary", skey))
            if text is not None:
                cached = json.loads(text)
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
                made[skey] = payload
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
                cached = _report_at(
                    stored.get(("report", known[n]["report"])), src.declarations[n].line
                )
                if cached is None:
                    raise _ReopenAll
                served[n] = cached
        for members in sccs:
            if any(n in probed for n in members):
                for callee in externals_of(members):
                    load_summaries(callee)

        # -- from here on the walk cannot give up -----------------------------
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
                cached = _report_at(stored.get(("report", rkey)), decl.line)
                if cached is not None:
                    reports[fn] = cached
                    count_reused(fn)
                elif fn in failed:
                    reports[fn] = failed[fn]
                else:
                    if before is not None:
                        before(fn)
                    reports[fn] = function_report(component_analysis(component), fn, self.options)
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
                        "facts": _stored_facts(reports[n]),
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
            summaries=made,
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
    simulation of the loops its reports strip-mine, served from the
    program's record when it holds it, then the program's new record.

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
        record = engine.record(name) if reuse else None
        text = record.artifacts.get(("sim", key)) if record is not None else None
        run.simulation = json.loads(text) if text is not None else None
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
            run.functions.get(fn) is payload for fn, payload in failed.items()
        ):
            sim_key = key
    if reuse:
        engine.publish(name, run, sim_key, failed)
    run.manifest = run.summaries = None
    return run
