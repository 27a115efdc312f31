"""The staged, summary-firewalled incremental analysis engine.

This is the inline (``jobs=1``) execution path of the batch driver, rebuilt
as a two-phase walk over the call graph's SCC condensation that stores two
content-addressed artifacts: one ``summary`` per component and one
``report`` per function (see :mod:`repro.driver.cache` for the store and
docs/incremental.md for the soundness argument):

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

**Declaration-level reuse.**  The per-program ``manifest`` records the last
run: the source digest, the type declarations' digest, the function order
and schedule, and per function its declaration-text digest, direct callees,
``summary`` key and artifact digest, ``report`` key and first line.  A
byte-identical source is served whole from the named ``report`` artifacts.
Otherwise the source is cut into declarations
(:func:`~repro.lang.split.split_declarations`) and only the *recompute
cone* is parsed: the type declarations, the functions whose text changed,
and the callers a moved summary digest reopens.  Every other function is
served from its recorded ``report`` key at its new first line, and the
cone's functions are typechecked and analyzed one component at a time over
a partial program that knows their callees by summary only.  Whatever the
cone cannot decide (no usable manifest, a changed set of names or types, a
declaration that does not parse, a missing artifact) takes the full path:
every declaration parsed and every key probed.

Stored payloads are line-relative (see
:func:`~repro.driver.pipeline.relativize_report`); everything the engine
returns to the report is absolute.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

from repro.lang.ast_nodes import FunctionDecl, Program, TypeDecl
from repro.lang.callgraph import called_functions
from repro.lang.errors import LangError
from repro.lang.parser import parse_program
from repro.lang.pretty import unparse
from repro.lang.split import Declaration, function_texts, split_declarations
from repro.lang.typecheck import inferred_return_type
from repro.pathmatrix.analysis import PathMatrixAnalysis, fixpoint_run_count
from repro.pathmatrix.interproc import (
    FunctionSummary,
    _call_argument_map,
    direct_summaries,
    summarize_scc,
)

from repro.driver.cache import CACHE_VERSION, ResultCache, _sha, payload_digest
from repro.driver.callgraph import CallGraph, build_call_graph, condense
from repro.driver.pipeline import (
    PipelineOptions,
    absolutize_report,
    function_report,
    relativize_report,
)


@dataclass
class IncrementalStats:
    """What one staged run reused, recomputed, and firewalled."""

    #: functions served from a stored report, without running a fixpoint
    reused: int = 0
    #: reused functions some *transitive callee body* of which changed — the
    #: legacy body-keyed scheme would have re-analyzed these
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

    def merge(self, other: "IncrementalStats") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class ProgramRun:
    """What :meth:`StagedEngine.run` did for one program."""

    stats: IncrementalStats
    #: the bottom-up schedule (``Condensation.waves``)
    schedule: list
    #: the whole program when the run parsed all of it, else ``None``
    program: Program | None = None


class ParseFailure(Exception):
    """The program does not parse; ``error`` is the parser's diagnostic."""

    def __init__(self, error: LangError):
        super().__init__(str(error))
        self.error = error


class _ConeUndecidable(Exception):
    """The recompute cone cannot be served from the store: take the full path."""


@dataclass
class _Source:
    """One program as the walk sees it; the cone parses declarations only
    when the walk first needs them."""

    #: function name -> the text its stage keys cover, in source order
    texts: dict[str, str]
    #: function name -> first line
    lines: dict[str, int]
    graph: CallGraph
    #: function name -> declaration, for the functions parsed so far
    parsed: dict[str, FunctionDecl]
    #: digest of the type declarations' text (``None``: not known)
    types_digest: str | None
    #: the whole program (full path only)
    program: Program | None = None
    #: the unparsed declarations (cone only)
    declarations: dict[str, Declaration] | None = None
    type_declarations: list[Declaration] | None = None
    _types: list[TypeDecl] | None = None
    _types_src: str | None = None

    def types(self) -> list[TypeDecl]:
        if self._types is None:
            self._types = (
                self.program.types
                if self.program is not None
                else [_parse_declaration(d) for d in self.type_declarations]
            )
        return self._types

    def types_source(self) -> str:
        """The unparsed type declarations: an ingredient of every key."""
        if self._types_src is None:
            self._types_src = "\n".join(unparse(t) for t in self.types())
        return self._types_src

    def function(self, name: str) -> FunctionDecl:
        if name not in self.parsed:
            self.parsed[name] = _parse_declaration(self.declarations[name])
        return self.parsed[name]


def _parse_declaration(decl: Declaration) -> TypeDecl | FunctionDecl:
    """Parse one declaration at its lines, or raise :class:`_ConeUndecidable`."""
    try:
        program = parse_program(decl.text, decl.line)
    except LangError:
        raise _ConeUndecidable from None
    nodes = program.types + program.functions
    if len(nodes) != 1 or nodes[0].name != decl.name:
        raise _ConeUndecidable
    return nodes[0]


#: what the manifest records per function (the cone needs all of it)
_MANIFEST_FIELDS = frozenset({"text", "callees", "skey", "summary", "report", "line"})


def _artifact(name: str, summary: dict, return_type: str | None) -> str:
    return payload_digest({"function": name, "summary": summary, "return_type": return_type})


class StagedEngine:
    """Run the staged pipeline for one program against an artifact store."""

    def __init__(self, cache: ResultCache, options: PipelineOptions):
        self.cache = cache
        self.options = options

    def _manifest_key(self, name: str) -> str:
        return _sha("manifest", str(CACHE_VERSION), self.options.key(), name)

    def run(
        self,
        name: str,
        source: str,
        functions_out: dict[str, dict],
        on_reused=None,
        on_recomputed=None,
        reuse: bool = True,
    ) -> ProgramRun:
        """Fill ``functions_out`` with per-function reports (absolute lines).

        ``on_reused``/``on_recomputed`` are per-function callbacks for the
        batch driver's counters (``cache_hits``/``analyses_executed``).
        ``reuse=False`` ignores the manifest's record of the last run except
        for dirty accounting (a corpus that gives two programs one name).
        Raises :class:`ParseFailure` when the source does not parse.
        """
        manifest = self.cache.get(self._manifest_key(name), stage="manifest")
        usable = reuse and manifest is not None
        if usable and manifest.get("source") == _sha("source", source):
            served = self._serve(manifest, functions_out, on_reused)
            if served is not None:
                return served
        try:
            declarations = split_declarations(source)
        except LangError:
            declarations = None
        if usable and declarations is not None:
            try:
                cone = self._cone_source(manifest, declarations)
                return self._walk(
                    name, source, cone, manifest, functions_out, on_reused, on_recomputed
                )
            except _ConeUndecidable:
                pass
        return self._walk(
            name,
            source,
            self._whole_source(source, declarations),
            manifest,
            functions_out,
            on_reused,
            on_recomputed,
        )

    # -- the three ways into a program ---------------------------------------
    def _serve(self, manifest: dict, functions_out: dict, on_reused) -> ProgramRun | None:
        """Serve a program whose source is byte-identical to its manifest's
        from the named ``report`` artifacts; ``None`` if one is missing or
        fails its checksum."""
        served: dict[str, dict] = {}
        for fn, entry in manifest["functions"].items():
            cached = self.cache.get(entry["report"], stage="report")
            if cached is None:
                return None
            served[fn] = absolutize_report(cached, entry["line"])
        functions_out.update(served)
        if on_reused is not None:
            for fn in served:
                on_reused(fn)
        stats = IncrementalStats(
            reused=len(served), summaries_reused=len(served), programs_unchanged=1
        )
        return ProgramRun(stats, manifest["schedule"])

    def _whole_source(self, source: str, declarations: list[Declaration] | None) -> _Source:
        """The full path: parse every declaration in one go."""
        try:
            program = parse_program(source)
        except LangError as exc:
            raise ParseFailure(exc) from exc
        texts = function_texts(program, declarations)
        types_digest = None
        if texts is None:
            texts = {f.name: unparse(f) for f in program.functions}
        else:
            types_digest = _sha("types", *(d.text for d in declarations if d.kind == "type"))
        return _Source(
            texts=texts,
            lines={f.name: f.line or 1 for f in program.functions},
            graph=build_call_graph(program),
            parsed={f.name: f for f in program.functions},
            types_digest=types_digest,
            program=program,
        )

    def _cone_source(self, manifest: dict, declarations: list[Declaration]) -> _Source:
        """The declaration-level path: parse the types and the functions whose
        text changed; everything else is known from the manifest."""
        try:
            recorded = manifest["functions"]
            order = manifest["order"]
            types_digest = manifest["types"]
        except (KeyError, TypeError):
            raise _ConeUndecidable from None
        if not all(_MANIFEST_FIELDS <= entry.keys() for entry in recorded.values()):
            raise _ConeUndecidable
        functions = {d.name: d for d in declarations if d.kind == "function"}
        type_decls = [d for d in declarations if d.kind == "type"]
        if (
            len(functions) != len(declarations) - len(type_decls)
            or set(functions) != set(order)
            or _sha("types", *(d.text for d in type_decls)) != types_digest
        ):
            raise _ConeUndecidable
        parsed: dict[str, FunctionDecl] = {}
        edges: dict[str, set[str]] = {}
        for fn, decl in functions.items():
            if _sha("text", decl.text) == recorded[fn]["text"]:
                edges[fn] = set(recorded[fn]["callees"])
            else:
                parsed[fn] = _parse_declaration(decl)
                edges[fn] = called_functions(parsed[fn], functions)
        return _Source(
            texts={fn: d.text for fn, d in functions.items()},
            lines={fn: d.line for fn, d in functions.items()},
            graph=CallGraph(functions=list(functions), edges=edges),
            parsed=parsed,
            types_digest=types_digest,
            declarations=functions,
            type_declarations=type_decls,
        )

    # -- the walk --------------------------------------------------------------
    def _walk(
        self,
        name: str,
        source: str,
        src: _Source,
        manifest: dict | None,
        functions_out: dict[str, dict],
        on_reused,
        on_recomputed,
    ) -> ProgramRun:
        """Both phases over ``src``.  On the full path (``src.program``
        set) every component is resolved and every function probed; on the
        cone only what a change can reach.  Nothing is written, and no
        function reported, until the cone can no longer give up."""
        stats = IncrementalStats()
        opts = self.options.key()
        version = str(CACHE_VERSION)
        full = src.program is not None
        recorded = manifest.get("functions", {}) if manifest is not None else {}
        text_digest = {n: _sha("text", t) for n, t in src.texts.items()}
        dirty = {
            n for n in src.texts if recorded.get(n, {}).get("text") != text_digest[n]
        }
        stats.dirty = len(dirty)
        graph = src.graph
        cond = condense(graph)
        callers: dict[str, set[str]] = {n: set() for n in src.texts}
        for caller in src.texts:
            for callee in graph.callees(caller):
                callers[callee].add(caller)

        table: dict[str, FunctionSummary] = {}
        returns: dict[str, str | None] = {}
        art_digest: dict[str, str] = {}
        summary_key: dict[str, str] = {}
        moved: set[str] = set()
        pending_puts: list[tuple[str, dict]] = []
        fixpoints_before = fixpoint_run_count()

        if full:
            shared = PathMatrixAnalysis(
                src.program,
                use_adds=self.options.use_adds,
                memoize_results=True,
                summaries=table,
            )
            direct = direct_summaries(src.program)
            call_maps = _call_argument_map(src.program)
        analyses: dict[int, PathMatrixAnalysis] = {}

        def externals_of(members: list[str]) -> list[str]:
            member_set = set(members)
            return sorted(
                {c for n in members for c in graph.callees(n) if c not in member_set}
            )

        def load_summaries(function: str) -> None:
            """Reintern an unreopened component's summaries from its artifact."""
            if function in table:
                return
            cached = self.cache.get(recorded[function]["skey"], stage="summary")
            if cached is None:
                raise _ConeUndecidable
            for member, entry in cached["functions"].items():
                table[member] = FunctionSummary.from_dict(entry["summary"])
                returns[member] = entry["return_type"]

        def analysis_for(component: int) -> PathMatrixAnalysis:
            """The analysis a component's members run under: the whole
            program's, or (cone) one over the members alone that knows
            their callees by summary and return type."""
            if full:
                return shared
            if component not in analyses:
                members = cond.sccs[component]
                externals = externals_of(members)
                for callee in externals:
                    load_summaries(callee)
                analyses[component] = PathMatrixAnalysis(
                    Program(types=src.types(), functions=[src.parsed[n] for n in members]),
                    use_adds=self.options.use_adds,
                    memoize_results=True,
                    summaries=table,
                    external_returns={c: returns[c] for c in externals},
                )
            return analyses[component]

        def reopened(members: list[str], externals: list[str]) -> bool:
            if full or any(n in dirty for n in members):
                return True
            if any(c in moved for c in externals):
                return True
            # the component gained or lost members since the last run
            keys = {recorded[n]["skey"] for n in members}
            return len(keys) != 1 or group_size[keys.pop()] != len(members)

        group_size: dict[str, int] = {}
        if not full:
            for entry in recorded.values():
                group_size[entry["skey"]] = group_size.get(entry["skey"], 0) + 1

        # -- phase 1: bottom-up summary resolution over the condensation -----
        for component, members in enumerate(cond.sccs):
            externals = externals_of(members)
            if not reopened(members, externals):
                for n in members:
                    art_digest[n] = recorded[n]["summary"]
                    summary_key[n] = recorded[n]["skey"]
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
                analysis = analysis_for(component)
                if full:
                    resolved = summarize_scc(
                        src.program, members, table, direct=direct, call_maps=call_maps
                    )
                else:
                    resolved = summarize_scc(analysis.program, members, table)
                table.update(resolved)
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
                if recorded.get(n, {}).get("summary") != art_digest[n]:
                    moved.add(n)

        # the functions whose report key can have moved; the rest are served
        # from the keys the manifest names
        if full:
            probed = set(src.texts)
        else:
            probed = dirty | moved
            for n in moved:
                probed |= callers[n]
        served: dict[str, dict] = {}
        for n in src.texts:
            if n not in probed:
                cached = self.cache.get(recorded[n]["report"], stage="report")
                if cached is None:
                    raise _ConeUndecidable
                served[n] = cached
        for members in cond.sccs:
            if not full and any(n in probed for n in members):
                for callee in externals_of(members):
                    load_summaries(callee)

        # -- commit: from here on the walk cannot give up --------------------
        for skey, payload in pending_puts:
            self.cache.put(skey, payload, stage="summary")

        # reused functions a dirty function is reachable from (one reverse
        # walk instead of one transitive-callee set per function)
        reaches_dirty: set[str] = set()
        stack = list(dirty)
        while stack:
            for caller in callers[stack.pop()]:
                if caller not in reaches_dirty:
                    reaches_dirty.add(caller)
                    stack.append(caller)

        def count_reused(fn: str) -> None:
            stats.reused += 1
            if fn not in dirty and fn in reaches_dirty:
                stats.firewalled += 1
            if on_reused is not None:
                on_reused(fn)

        # -- phase 2: per-function report probe / compute -------------------
        report_key: dict[str, str] = {}
        for component, members in enumerate(cond.sccs):
            for fn in members:
                line = src.lines[fn]
                if fn in served:
                    functions_out[fn] = absolutize_report(served[fn], line)
                    report_key[fn] = recorded[fn]["report"]
                    count_reused(fn)
                    continue
                callee_blob = ";".join(
                    f"{c}={art_digest[c]}" for c in sorted(graph.callees(fn))
                )
                rkey = report_key[fn] = _sha(
                    "report",
                    version,
                    opts,
                    src.types_source(),
                    src.texts[fn],
                    art_digest[fn],
                    callee_blob,
                )
                cached = self.cache.get(rkey, stage="report")
                if cached is not None:
                    functions_out[fn] = absolutize_report(cached, line)
                    count_reused(fn)
                    continue
                report = function_report(analysis_for(component), fn, self.options)
                functions_out[fn] = report
                self.cache.put(rkey, relativize_report(report, line), stage="report")
                stats.recomputed += 1
                if on_recomputed is not None:
                    on_recomputed(fn)

        # commit the manifest: the next run's dirty accounting and cone, and
        # what serves this program unparsed if it is unchanged
        self.cache.put(
            self._manifest_key(name),
            {
                "source": _sha("source", source),
                "types": src.types_digest,
                "order": list(src.texts),
                "schedule": cond.waves(),
                "functions": {
                    n: {
                        "text": text_digest[n],
                        "callees": sorted(graph.callees(n)),
                        "skey": summary_key[n],
                        "summary": art_digest[n],
                        "report": report_key[n],
                        "line": src.lines[n],
                    }
                    for n in sorted(src.texts)
                },
            },
            stage="manifest",
        )
        stats.fixpoints_run = fixpoint_run_count() - fixpoints_before
        return ProgramRun(stats, cond.waves(), src.program)
