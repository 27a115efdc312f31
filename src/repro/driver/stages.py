"""The staged, summary-firewalled incremental analysis engine.

This is the inline (``jobs=1``) execution path of the batch driver, rebuilt
as a two-phase walk over the call graph's SCC condensation in which every
pipeline stage is a separately content-addressed artifact (see
:mod:`repro.driver.cache` for the store and docs/incremental.md for the
soundness argument):

**Phase 1 — bottom-up summary resolution.**  For each component (callees
first), probe the ``summary`` stage under a key covering the members' bodies
and the *artifact digests* of their already-resolved external callees.  On a
hit the summaries (effects, ``preserves_abstraction``, inferred return type)
are reinterned without running anything; on a miss they are recomputed with
:func:`~repro.pathmatrix.interproc.summarize_scc` + preservation refinement
and stored.  Either way each member gets an **artifact digest** — the hash
of its summary payload — which is the only thing callers may key on.

**Phase 2 — per-function stage assembly.**  A function's stage keys cover
its own body, its own summary artifact, and its direct callees' artifact
digests — *not* their bodies.  That indirection is the early-cutoff
firewall: an edit that leaves a callee's summary artifact byte-identical
leaves every caller's keys untouched, so callers are reused unrun.  The
``report`` stage caches the assembled legacy report; on a report miss the
``analysis`` (fixpoint + validation), ``loops`` (classification), and
``transforms`` (applicability) stages are probed individually, so e.g. an
evicted report is reassembled from intact stage artifacts without solving
anything.

Two-phase commit: phase 1 settles *every* summary artifact of a component
before any phase-2 (or caller phase-1) key is formed, so a changed
function's new summary digest is always compared against its callers' cached
inputs — there is no window where a caller could be firewalled against a
stale summary.

**Unchanged programs.**  The per-program ``manifest`` records the last
run: the source digest, the schedule, and each function's body and summary
digests, ``report`` key and first line.  :meth:`StagedEngine.serve` serves
a program whose source is byte-identical to that record straight from the
named ``report`` artifacts, before anything is parsed; any miss (another
source, an older manifest, a missing or corrupt report) leaves the program
to :meth:`StagedEngine.run`, which probes the same keys.

Stored payloads are line-relative (see
:func:`~repro.driver.pipeline.relativize_report`); everything the engine
returns to the report is absolute.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

from repro.lang.ast_nodes import Program
from repro.lang.pretty import unparse
from repro.lang.typecheck import inferred_return_type
from repro.pathmatrix.analysis import PathMatrixAnalysis, fixpoint_run_count
from repro.pathmatrix.interproc import (
    FunctionSummary,
    _call_argument_map,
    direct_summaries,
    summarize_scc,
)

from repro.driver.cache import CACHE_VERSION, ResultCache, _sha, payload_digest
from repro.driver.callgraph import CallGraph, Condensation
from repro.driver.pipeline import (
    PipelineOptions,
    absolutize_report,
    analysis_payload,
    assemble_report,
    loops_payload,
    relativize_report,
    transforms_payload,
)


@dataclass
class IncrementalStats:
    """What one staged run reused, recomputed, and firewalled."""

    #: functions served without running a fixpoint (report hit or reassembled)
    reused: int = 0
    #: reused functions some *transitive callee body* of which changed — the
    #: legacy body-keyed scheme would have re-analyzed these
    firewalled: int = 0
    #: functions whose fixpoint/validation stage actually ran
    recomputed: int = 0
    #: functions whose own body changed since the last run (per the manifest)
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


class StagedEngine:
    """Run the staged pipeline for one program against an artifact store."""

    def __init__(self, cache: ResultCache, options: PipelineOptions):
        self.cache = cache
        self.options = options

    def _manifest_key(self, name: str) -> str:
        return _sha("manifest", str(CACHE_VERSION), self.options.key(), name)

    def serve(
        self, name: str, source: str, functions_out: dict[str, dict]
    ) -> tuple[IncrementalStats, list] | None:
        """Serve a program whose source is byte-identical to its manifest's.

        Fills ``functions_out`` from the ``report`` artifacts the manifest
        names, absolutized at the recorded lines, and returns the counters
        of an unchanged program plus the recorded schedule.  Returns
        ``None`` and leaves ``functions_out`` alone when the manifest is
        missing, records another source or none (written before source
        digests), or names a ``report`` artifact that is missing or fails
        its checksum; :meth:`run` then probes those same keys.
        """
        manifest = self.cache.get(self._manifest_key(name), stage="manifest")
        if manifest is None or manifest.get("source") != _sha("source", source):
            return None
        served: dict[str, dict] = {}
        for fn, entry in manifest["functions"].items():
            cached = self.cache.get(entry["report"], stage="report")
            if cached is None:
                return None
            served[fn] = absolutize_report(cached, entry["line"])
        functions_out.update(served)
        stats = IncrementalStats(
            reused=len(served), summaries_reused=len(served), programs_unchanged=1
        )
        return stats, manifest["schedule"]

    def run(
        self,
        name: str,
        source: str,
        program: Program,
        graph: CallGraph,
        cond: Condensation,
        functions_out: dict[str, dict],
        on_reused=None,
        on_recomputed=None,
    ) -> IncrementalStats:
        """Fill ``functions_out`` with per-function reports (absolute lines).

        ``program`` is ``source`` parsed; the manifest records the source's
        digest for :meth:`serve`.  ``on_reused``/``on_recomputed`` are
        per-function callbacks for the batch driver's counters
        (``cache_hits``/``analyses_executed``).
        """
        stats = IncrementalStats()
        opts = self.options.key()
        version = str(CACHE_VERSION)
        types_src = "\n".join(unparse(t) for t in program.types)
        bodies = {f.name: unparse(f) for f in program.functions}
        body_digest = {n: _sha("body", src) for n, src in bodies.items()}
        base_line = {f.name: (f.line or 1) for f in program.functions}
        report_key: dict[str, str] = {}

        # the manifest of the previous run, for dirty accounting
        manifest_key = self._manifest_key(name)
        old_manifest = self.cache.get(manifest_key, stage="manifest")
        if old_manifest is None:
            dirty = set(bodies)
        else:
            previous = old_manifest.get("functions", {})
            dirty = {
                n
                for n in bodies
                if previous.get(n, {}).get("body") != body_digest[n]
            }
        stats.dirty = len(dirty)

        def touches_dirty(function: str) -> bool:
            return function not in dirty and bool(
                graph.transitive_callees(function) & dirty
            )

        # -- phase 1: bottom-up summary resolution over the condensation -----
        table: dict[str, FunctionSummary] = {}
        analysis = PathMatrixAnalysis(
            program,
            use_adds=self.options.use_adds,
            memoize_results=True,
            summaries=table,
        )
        direct = direct_summaries(program)
        call_maps = _call_argument_map(program)
        art_digest: dict[str, str] = {}
        fixpoints_before = fixpoint_run_count()

        def artifact(n: str, summary_dict: dict, rt: str | None) -> str:
            return payload_digest(
                {"function": n, "summary": summary_dict, "return_type": rt}
            )

        for members in cond.sccs:
            scc_blob = ";".join(f"{n}={body_digest[n]}" for n in members)
            member_set = set(members)
            externals = sorted(
                {
                    c
                    for n in members
                    for c in graph.callees(n)
                    if c not in member_set
                }
            )
            ext_blob = ";".join(f"{c}={art_digest[c]}" for c in externals)
            skey = _sha("summary", version, opts, types_src, scc_blob, ext_blob)
            cached = self.cache.get(skey, stage="summary")
            if cached is not None:
                for n in members:
                    entry = cached["functions"][n]
                    table[n] = FunctionSummary.from_dict(entry["summary"])
                    art_digest[n] = artifact(n, entry["summary"], entry["return_type"])
                stats.summaries_reused += len(members)
                continue
            resolved = summarize_scc(
                program, members, table, direct=direct, call_maps=call_maps
            )
            table.update(resolved)
            analysis.refine_preservation(members)
            payload: dict = {"functions": {}}
            for n in members:
                rt = inferred_return_type(program, analysis.check_result, n)
                summary_dict = table[n].to_dict()
                payload["functions"][n] = {
                    "summary": summary_dict,
                    "return_type": rt,
                }
                art_digest[n] = artifact(n, summary_dict, rt)
            self.cache.put(skey, payload, stage="summary")
            stats.summaries_recomputed += len(members)

        # -- phase 2: per-function stage probe / compute / assemble -----------
        for members in cond.sccs:
            for fn in members:
                callee_blob = ";".join(
                    f"{c}={art_digest[c]}" for c in sorted(graph.callees(fn))
                )
                base = (
                    version,
                    opts,
                    types_src,
                    bodies[fn],
                    art_digest[fn],
                    callee_blob,
                )
                line = base_line[fn]
                rkey = report_key[fn] = _sha("report", *base)
                cached_report = self.cache.get(rkey, stage="report")
                if cached_report is not None:
                    functions_out[fn] = absolutize_report(cached_report, line)
                    stats.reused += 1
                    if touches_dirty(fn):
                        stats.firewalled += 1
                    if on_reused is not None:
                        on_reused(fn)
                    continue

                computed_fixpoint = False
                akey = _sha("analysis", *base)
                cached_a = self.cache.get(akey, stage="analysis")
                if cached_a is not None:
                    verdict = absolutize_report(cached_a, line)
                    status, analysis_dict = verdict["status"], verdict["analysis"]
                else:
                    status, analysis_dict = analysis_payload(
                        analysis, fn, self.options
                    )
                    self.cache.put(
                        akey,
                        relativize_report(
                            {"status": status, "analysis": analysis_dict}, line
                        ),
                        stage="analysis",
                    )
                    computed_fixpoint = True

                entries: list = []
                transforms: dict = {}
                if status == "ok":
                    lkey = _sha("loops", *base)
                    cached_l = self.cache.get(lkey, stage="loops")
                    if cached_l is not None:
                        classified = absolutize_report(cached_l, line)
                        entries = classified["loops"]
                        parallelizable = classified["parallelizable"]
                    else:
                        entries, parallelizable = loops_payload(
                            program, fn, analysis, self.options
                        )
                        self.cache.put(
                            lkey,
                            relativize_report(
                                {
                                    "loops": entries,
                                    "parallelizable": parallelizable,
                                },
                                line,
                            ),
                            stage="loops",
                        )
                    xkey = _sha("transforms", *base)
                    cached_x = self.cache.get(xkey, stage="transforms")
                    if cached_x is not None:
                        transforms = absolutize_report(cached_x, line)["transforms"]
                    else:
                        transforms = transforms_payload(program, fn, parallelizable)
                        self.cache.put(
                            xkey,
                            relativize_report({"transforms": transforms}, line),
                            stage="transforms",
                        )

                summary_payload = table[fn].to_dict() if fn in table else None
                assembled = assemble_report(
                    fn,
                    self.options,
                    summary_payload,
                    status,
                    analysis_dict,
                    entries,
                    transforms,
                )
                functions_out[fn] = assembled
                self.cache.put(
                    rkey, relativize_report(assembled, line), stage="report"
                )
                if computed_fixpoint:
                    stats.recomputed += 1
                    if on_recomputed is not None:
                        on_recomputed(fn)
                else:
                    # reassembled from intact stage artifacts — no solve ran
                    stats.reused += 1
                    if touches_dirty(fn):
                        stats.firewalled += 1
                    if on_reused is not None:
                        on_reused(fn)

        # commit the manifest: the next run's dirty accounting, and what
        # `serve` needs to return this program unparsed if it is unchanged
        self.cache.put(
            manifest_key,
            {
                "source": _sha("source", source),
                "schedule": cond.waves(),
                "functions": {
                    n: {
                        "body": body_digest[n],
                        "summary": art_digest[n],
                        "report": report_key[n],
                        "line": base_line[n],
                    }
                    for n in sorted(bodies)
                },
            },
            stage="manifest",
        )
        stats.fixpoints_run = fixpoint_run_count() - fixpoints_before
        return stats
