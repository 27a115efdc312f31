"""The benchmark's inputs, its four workloads, and the checks on their outputs.

Every workload is a closed loop with one client: operations run back to
back, each one ``repro analyze`` in a fresh forked process (:mod:`ops`).
Inputs come from ``repro``'s corpus generators.  Operations are driven and
checked only through the CLI's argv and the JSON report's fields
``programs[].functions[].{status,summary,analysis,loops}``,
``programs[].simulation``, ``stats.incremental`` and
``stats.profile.totals``, so refactors of the pipeline cannot break them.

The amount of work is fixed by ``--seconds`` (cold reps per
:data:`SECONDS_PER_REP`, :data:`EDITS_PER_SECOND` edits), not by a clock,
so two commits always run the same operations.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from . import trace
from .ops import OpRunner

WORKLOADS = ("cold_bench", "cold_pool2", "kernel_fixpoint", "edit_session")
#: seconds of ``--seconds`` per cold rep
SECONDS_PER_REP = 2.5
EDITS_PER_SECOND = 3.0
#: warm re-runs after every cold rep (the ``noop_s`` samples)
NOOPS_PER_REP = 2
#: fresh-interpreter imports (and input generations) timed for ``setup_s``
SETUP_REPS = 7
#: functions in the ``bench`` corpus's call web
BENCH_WEB_SIZE = 200
#: functions in the workloads' call web: a cold run of the ``bench`` corpus
#: with the full web takes 6-13 s on a shared 2-vCPU VM, too long to repeat
#: within a run; at 60 functions it takes 2-4 s
WEB_SIZE = 60
DEFAULT_SEED = 11
EDIT_KINDS = ("noop", "preserving", "invalidating")
#: estimated cascade costs of successive invalidating edits (see
#: :meth:`CallWeb.cascade_cost`): one function, then about one, two and
#: four loop functions with their neighbours
CASCADE_COSTS = (1, 50, 100, 200)
LOOP_COST = 40
#: one block of the edit mix; its order is shuffled per block
EDIT_BLOCK = ("noop", "preserving", "preserving", "invalidating", "invalidating")
DATA_FIELDS = ("coef", "exp")
POINTER_FIELDS = ("next",)
FAILED_STATUSES = frozenset({"timeout", "crashed", "quarantined", "error"})
#: simulation statuses that mean "nothing to simulate", not a failure
UNSIMULATED = frozenset({"no-entry", "no-parallel-loops"})


# -- inputs ------------------------------------------------------------------
def bench_corpus(seed: int, web_size: int = BENCH_WEB_SIZE) -> list[tuple[str, str]]:
    """The ``bench`` corpus with a call web of ``web_size`` functions
    generated from ``seed``.

    Seed 11 with the default size is byte-identical to ``--corpus bench``.
    """
    from repro.adds.library import standard_source
    from repro.bench.stress import call_web_program_source
    from repro.driver.corpus import corpus_named

    *fixed, _web = corpus_named("bench")
    web = standard_source("ListNode") + call_web_program_source(
        web_size, seed, prefix="bw"
    )
    return [(item.name, item.source) for item in fixed] + [
        (f"stress/callweb_{web_size}", web)
    ]


def kernel_corpus(seed: int) -> list[tuple[str, str]]:
    """Single-function programs where the path-matrix fixpoint dominates.

    The wide and deep programs are fixed so that every seed costs about the
    same; the seed draws the random statement mixes.
    """
    from repro.adds.library import standard_source
    from repro.bench.stress import (
        deep_program_source,
        random_program_source,
        wide_program_source,
    )

    prefix = standard_source("ListNode")
    rng = random.Random(seed)
    items = [(f"kernel/wide_{n}", prefix + wide_program_source(n)) for n in (60, 80, 100)]
    items += [
        (f"kernel/deep_{d}", prefix + deep_program_source(d, 6, 50)) for d in (4, 5)
    ]
    items += [
        (
            f"kernel/random_{i}",
            prefix
            + random_program_source(
                random.Random(rng.getrandbits(32)),
                num_vars=8,
                num_statements=40,
                max_depth=3,
            ),
        )
        for i in range(6)
    ]
    return items


def write_corpus(directory: Path, corpus: list[tuple[str, str]]) -> list[str]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, source in corpus:
        path = directory / f"{name.rsplit('/', 1)[-1]}.ptr"
        path.write_text(source)
        paths.append(str(path))
    return paths


class CallWeb:
    """The ``bw*`` call web as editable per-function source blocks.

    It tracks which fields each function writes, directly or through its
    callees, from the source text alone, so the edit script depends only on
    the seed and never on the program's output.
    """

    def __init__(self, source: str):
        self.prefix, sep, web = source.partition("function ")
        first, *rest = (sep + web).split("\nfunction ")
        self.blocks = [first] + ["function " + block for block in rest]
        self.callees = [
            {int(j) for j in re.findall(r"\bbw(\d+)\(", block.split("\n", 1)[1])} - {i}
            for i, block in enumerate(self.blocks)
        ]
        self.callers = [
            {i for i, callees in enumerate(self.callees) if j in callees}
            for j in range(len(self.blocks))
        ]
        self._direct = [set(re.findall(r"->(\w+) =", block)) for block in self.blocks]

    def source(self) -> str:
        return self.prefix + "\n".join(self.blocks)

    def writes(self) -> list[set[str]]:
        """Fields each function may write, its callees' writes included."""
        writes = [set(d) for d in self._direct]
        changed = True
        while changed:
            changed = False
            for i, callees in enumerate(self.callees):
                for j in callees:
                    if not writes[j] <= writes[i]:
                        writes[i] |= writes[j]
                        changed = True
        return writes

    def cascade_cost(self, i: int, fld: str, writes: list[set[str]]) -> int:
        """Estimated cost of re-analysis after a new write of ``fld`` in
        function ``i``.

        The re-analyzed functions are those whose writes gain ``fld`` (``i``
        and the callers reaching it through functions that lack ``fld``) plus
        their direct callers.  One with a loop costs :data:`LOOP_COST`,
        because each loop transform re-analyzes the whole program.
        """
        gained = {i}
        stack = [i]
        while stack:
            for caller in self.callers[stack.pop()]:
                if caller not in gained and fld not in writes[caller]:
                    gained.add(caller)
                    stack.append(caller)
        redone = gained.union(*(self.callers[g] for g in gained))
        return sum(LOOP_COST if "while" in self.blocks[f] else 1 for f in redone)

    def insert_var(self, i: int, var: str) -> None:
        head, rest = self.blocks[i].split("{\n", 1)
        self.blocks[i] = f"{head}{{\n  var {var};\n{rest}"

    def append_write(self, i: int, fld: str, value: int) -> None:
        rhs = "NULL" if fld in POINTER_FIELDS else str(value)
        body, tail = self.blocks[i].rsplit("  return p;", 1)
        self.blocks[i] = f"{body}  p->{fld} = {rhs};\n  return p;{tail}"
        self._direct[i].add(fld)


@dataclass(frozen=True)
class Edit:
    kind: str
    function: str | None
    source: str


def edit_script(seed: int, web_source: str, count: int) -> list[Edit]:
    """``count`` cumulative single-function edits to the call web.

    * ``noop`` changes nothing;
    * ``preserving`` inserts an unused ``var`` (the summary cannot change);
    * ``invalidating`` appends a data- or pointer-field write that the
      function does not yet make, directly or through a callee.  Targets
      follow :data:`CASCADE_COSTS`, so every seed pays for cascades of
      about the same cost.
    """
    rng = random.Random(f"edit-session:{seed}")
    web = CallWeb(web_source)
    kinds: list[str] = []
    while len(kinds) < count:
        block = list(EDIT_BLOCK)
        rng.shuffle(block)
        kinds += block
    edits = []
    cascades = itertools.cycle(CASCADE_COSTS)
    for k, kind in enumerate(kinds[:count]):
        target = None
        if kind == "preserving":
            target = rng.randrange(len(web.blocks))
            web.insert_var(target, f"e{k}")
        elif kind == "invalidating":
            writes = web.writes()
            wanted = math.log(next(cascades))
            distance = {
                (i, fld): abs(math.log(web.cascade_cost(i, fld, writes)) - wanted)
                for i in range(len(web.blocks))
                for fld in DATA_FIELDS + POINTER_FIELDS
                if fld not in writes[i]
            }
            nearest = min(distance.values())
            target, fld = rng.choice([c for c, d in distance.items() if d == nearest])
            web.append_write(target, fld, k + 1)
        name = None if target is None else f"bw{target}"
        edits.append(Edit(kind, name, web.source()))
    return edits


# -- report checks -----------------------------------------------------------
def programs_view(report: dict) -> list:
    """What must not depend on how a result was computed."""
    return [(p["name"], p["functions"], p["simulation"]) for p in report["programs"]]


def dir_bytes(path: Path) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, names in os.walk(path)
        for name in names
    )


@dataclass
class Outcome:
    """Everything one workload run measured and checked."""

    setup_s: float = 0.0
    #: wall-time samples by kind: ``wall`` (the main operation: a cold run,
    #: or a summary-preserving edit), ``noop``, ``traced_wall``,
    #: ``noop_untraced`` and ``edit.<kind>``
    samples: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    maxrss_kb: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    #: per-layer raw sums over the traced ops
    layer: Counter = field(default_factory=Counter)
    traced_ops: int = 0
    fixpoints_by_stage: Counter = field(default_factory=Counter)
    absent: set[str] = field(default_factory=set)
    events: list[dict] = field(default_factory=list)
    store_bytes: int = 0
    sim_speedups: list[float] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


class Bench:
    """One workload run: its scratch directory, op runner and outcome."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: float,
                 traced: bool, web_size: int = WEB_SIZE):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.root = root
        self.workload = workload
        self.seed = seed
        self.traced = traced
        self.reps = max(1, round(seconds / SECONDS_PER_REP))
        self.edits = max(len(EDIT_BLOCK), round(seconds * EDITS_PER_SECOND))
        self.web_size = web_size
        self.work = root / ".e2e" / f"work-{workload}-{os.getpid()}"
        self.report_path = str(self.work / "report.json")
        self.out = Outcome()
        self.origin = time.perf_counter()
        self._ops = 0

    # -- set-up --------------------------------------------------------------
    def setup(self, generate):
        """Time :data:`SETUP_REPS` fresh-interpreter imports of the CLI plus
        input generation; return the last inputs and the median time."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(self.root / "src"), env.get("PYTHONPATH")) if p
        )
        times = []
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            subprocess.run(
                [sys.executable, "-c", "import repro.driver.cli"], env=env, check=True
            )
            inputs = generate()
            times.append(time.perf_counter() - start)
        return inputs, statistics.median(times)

    # -- one operation ---------------------------------------------------------
    def op(self, runner: OpRunner, argv: list[str], label: str, traced=False):
        """Run one ``repro analyze``; check and return its report (or None)."""
        self._ops += 1
        spans_path = str(self.work / "spans.json")
        for stale in (self.report_path, spans_path):
            if os.path.exists(stale):
                os.remove(stale)
        result = runner.run(
            argv + ["--output", self.report_path], spans_path if traced else None
        )
        out = self.out
        out.maxrss_kb = max(out.maxrss_kb, result.maxrss_kb)
        detail = f" ({result.error.strip().splitlines()[-1]})" if result.error else ""
        out.check(result.rc == 0, f"{label}: exit code {result.rc}{detail}")
        report = None
        if os.path.exists(self.report_path):
            with open(self.report_path) as handle:
                report = json.load(handle)
            self._check_report(report, label)
        if traced and os.path.exists(spans_path):
            jobs = int(argv[argv.index("--jobs") + 1])
            self._record_layers(spans_path, report, result.wall_s, jobs, label)
        return result, report

    def _check_report(self, report: dict, label: str) -> None:
        out = self.out
        for program in report["programs"]:
            name = program["name"]
            out.check(program["error"] is None, f"{label}: {name}: {program['error']}")
            for fn, payload in program["functions"].items():
                status = payload.get("status", "ok")
                out.check(status not in FAILED_STATUSES, f"{label}: {name}/{fn}: {status}")
            sim = program["simulation"]
            if sim is not None and sim.get("status") not in UNSIMULATED:
                out.check(
                    sim.get("status") == "simulated" and sim.get("heaps_match") is True,
                    f"{label}: {name}: simulation {sim.get('status')}, "
                    f"heaps_match={sim.get('heaps_match')}",
                )

    def _record_layers(
        self, spans_path: str, report: dict | None, wall: float, jobs: int, label: str
    ) -> None:
        out = self.out
        spans, absent = trace.load_spans(spans_path)
        out.absent.update(absent)
        out.traced_ops += 1
        layer = out.layer
        own = trace.self_times(spans)
        for i, span in enumerate(spans):
            layer[f"self:{span.label}"] += own[i]
            layer[f"calls:{span.label}"] += 1
            layer[f"none:{span.label}"] += span.returned_none
            if span.counted:
                layer["fixpoints"] += span.counted
                out.fixpoints_by_stage[trace.stage_of(spans, i)] += span.counted
        out.events.append(
            {"name": "process_name", "ph": "M", "pid": self._ops, "args": {"name": label}}
        )
        out.events += trace.chrome_events(spans, self._ops, self.origin)
        if report is None:
            return
        stats = report["stats"]
        for key, value in (stats.get("incremental") or {}).items():
            layer[f"inc:{key}"] += value
        totals = (stats.get("profile") or {}).get("totals")
        if totals and jobs > 1:
            for key, value in totals.items():
                layer[f"exec:{key}"] += value
            layer["exec:capacity_s"] += jobs * wall
        speedups = []
        for program in report["programs"]:
            for payload in program["functions"].values():
                analysis = payload.get("analysis") or {}
                layer["iterations"] += analysis.get("iterations") or 0
                layer["blocks_transferred"] += analysis.get("blocks_transferred") or 0
                for loop in payload.get("loops", []):
                    for name, outcome in loop.get("transforms", {}).items():
                        layer["transform_outcomes"] += 1
                        layer["transform_applied"] += bool(outcome.get("applied"))
                        if name == "strip_mine":
                            layer["parallelized"] += bool(outcome.get("applied"))
            sim = program["simulation"] or {}
            if sim.get("status") == "simulated":
                speedups.append(sim["speedup"])
        out.sim_speedups = speedups

    def store_size(self, store: Path) -> None:
        self.out.store_bytes = max(self.out.store_bytes, dir_bytes(store))

    # -- workloads ---------------------------------------------------------------
    def run(self) -> Outcome:
        workload = self.workload
        self.work.mkdir(parents=True, exist_ok=True)
        try:
            with OpRunner(str(self.work / "reply.json")) as runner:
                if workload == "edit_session":
                    self.edit_session(runner)
                elif workload == "kernel_fixpoint":
                    self.cold(runner, lambda: [kernel_corpus(self.seed)], 1, False)
                elif workload == "cold_bench":
                    self.cold(runner, lambda: [bench_corpus(self.seed, self.web_size)], 1, True)
                else:
                    # the pool's wall time varies by up to 1.5x with the
                    # call web's shape, so its reps spread over several webs
                    seeds = [self.seed] + [
                        random.Random(f"web:{self.seed}:{rep}").randrange(2**32)
                        for rep in range(1, self.reps)
                    ]
                    self.cold(
                        runner, lambda: [bench_corpus(s, self.web_size) for s in seeds], 2, True
                    )
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        return self.out

    def cold(self, runner: OpRunner, corpora, jobs: int, simulate: bool) -> None:
        """Cold runs into an empty store, each followed by warm re-runs.

        ``corpora()`` generates the inputs, one or more corpora; rep ``r``
        analyzes corpus ``r`` modulo their number.  A traced run uses the
        first corpus only, so traced and untraced reps compare like with like.
        """
        out = self.out

        def generate():
            return [
                write_corpus(self.work / f"inputs-{i}", corpus)
                for i, corpus in enumerate(corpora())
            ]

        inputs, out.setup_s = self.setup(generate)
        if self.traced:
            inputs = inputs[:1]
        flags = [] if simulate else ["--no-simulate"]
        references: dict[int, tuple[list, str]] = {}
        if jobs > 1:
            argv = ["analyze", *inputs[0], *flags, "--jobs", "1", "--no-cache"]
            _, report = self.op(runner, argv, "serial reference")
            if report is not None:
                references[0] = programs_view(report), "the serial run"
        # a traced run alternates traced and untraced reps for the overhead
        reps = max(self.reps, 2) if self.traced else self.reps
        for rep in range(reps):
            which = rep % len(inputs)
            store = self.work / f"store-{rep}"
            argv = ["analyze", *inputs[which], *flags, "--jobs", str(jobs)]
            argv += ["--cache-dir", str(store)]
            traced = self.traced and rep % 2 == 0
            result, report = self.op(runner, argv, f"rep {rep}", traced=traced)
            out.samples["traced_wall" if traced else "wall"].append(result.wall_s)
            self.store_size(store)
            if report is None:
                continue
            view = programs_view(report)
            if which not in references:
                references[which] = view, f"rep {rep}"
            else:
                reference, reference_from = references[which]
                out.check(view == reference, f"rep {rep}: programs differ from {reference_from}")
            for i in range(NOOPS_PER_REP):
                result, warm = self.op(runner, argv, f"rep {rep} noop {i}")
                out.samples["noop"].append(result.wall_s)
                # the pooled path's body-keyed report cache stores absolute
                # line numbers, so a warm pooled run serves a duplicated
                # function (tree `insert`) with the other copy's lines; that
                # known bug is left to the one-engine refactor (README.md)
                if warm is not None and jobs == 1:
                    out.check(
                        programs_view(warm) == view,
                        f"rep {rep} noop {i}: warm programs differ from the cold run",
                    )
            shutil.rmtree(store)

    def edit_session(self, runner: OpRunner) -> None:
        """One store, primed cold, then the seeded edit script."""
        out = self.out

        def generate():
            corpus = bench_corpus(self.seed, self.web_size)
            paths = write_corpus(self.work / "inputs", corpus)
            return paths, edit_script(self.seed, corpus[-1][1], self.edits)

        (inputs, script), setup_s = self.setup(generate)
        web_path = Path(inputs[-1])
        web_name = web_path.stem
        store = self.work / "store"
        argv = ["analyze", *inputs, "--jobs", "1", "--cache-dir", str(store)]
        result, primed = self.op(runner, argv, "priming run")
        out.setup_s = setup_s + result.wall_s
        if primed is None:
            return

        def web_functions(report: dict) -> dict:
            return next(p for p in report["programs"] if p["name"] == web_name)["functions"]

        summaries = {n: f["summary"] for n, f in web_functions(primed).items()}
        report = primed
        for k, edit in enumerate(script):
            web_path.write_text(edit.source)
            label = f"edit {k} ({edit.kind} {edit.function or ''})".rstrip()
            result, report = self.op(runner, argv, label, traced=self.traced)
            out.samples[f"edit.{edit.kind}"].append(result.wall_s)
            if edit.kind == "preserving":
                out.samples["wall"].append(result.wall_s)
            elif edit.kind == "noop":
                out.samples["noop"].append(result.wall_s)
                if self.traced:
                    result, _ = self.op(runner, argv, f"edit {k} untraced noop")
                    out.samples["noop_untraced"].append(result.wall_s)
            self.store_size(store)
            if report is None:
                continue
            recomputed = (report["stats"].get("incremental") or {}).get("recomputed")
            if edit.kind == "noop":
                out.check(recomputed == 0, f"{label}: recomputed {recomputed}, expected 0")
            elif edit.kind == "preserving":
                out.check(recomputed == 1, f"{label}: recomputed {recomputed}, expected 1")
            now = {n: f["summary"] for n, f in web_functions(report).items()}
            if edit.kind == "invalidating":
                out.check(
                    now[edit.function] != summaries[edit.function],
                    f"{label}: the edited function's summary did not change",
                )
            summaries = now
        if report is None:
            return
        # the incremental result must equal a from-scratch run of the final
        # sources; the unedited programs must equal the primed (cold) run
        _, scratch = self.op(
            runner, ["analyze", str(web_path), "--jobs", "1", "--no-cache"], "from-scratch check"
        )
        if scratch is not None:
            out.check(
                web_functions(report) == web_functions(scratch),
                "final call web differs from a from-scratch run",
            )
        unedited = [v for v in programs_view(report) if v[0] != web_name]
        out.check(
            unedited == [v for v in programs_view(primed) if v[0] != web_name],
            "unedited programs differ from the primed run",
        )


# -- metrics -----------------------------------------------------------------
def _median(values):
    return statistics.median(values) if values else None


def _edit_walls(out: Outcome) -> list[float]:
    return [w for kind in EDIT_KINDS for w in out.samples[f"edit.{kind}"]]


def end_to_end(out: Outcome) -> dict[str, tuple[float, int]]:
    """``name -> (value, sample count)`` for the untraced metrics.

    Every timing is a mean over the run: other tenants of a shared host slow
    operations in phases of seconds to minutes, and the mean spreads least
    over runs (see README.md, Host noise).

    * ``wall_s``: the workload's main operation: a cold run (in
      ``cold_pool2`` one per call web), or in ``edit_session`` a
      summary-preserving edit;
    * ``wall_mean_s``: every timed operation, so in ``edit_session`` the
      cascades of summary-changing edits count; on the cold workloads it
      equals ``wall_s``;
    * ``noop_s``: a re-run with nothing changed.
    """
    samples = out.samples
    metrics = {
        "setup_s": (out.setup_s, SETUP_REPS),
        "peak_rss_mb": (out.maxrss_kb / 1024, 1),
    }
    timed = _edit_walls(out) or samples["wall"]
    for name, values in (
        ("wall_s", samples["wall"]),
        ("wall_mean_s", timed),
        ("noop_s", samples["noop"]),
    ):
        if values:
            metrics[name] = (statistics.fmean(values), len(values))
    return metrics


#: per-layer metric -> span labels whose self time it sums
SELF_TIME = {
    "lang.parse_s": ("lang.parse",),
    "lang.typecheck_s": ("lang.typecheck",),
    "lang.interpret_s": ("lang.interpret",),
    "pathmatrix.summaries_s": ("pathmatrix.analysis_init",),
    "pathmatrix.summarize_scc_s": ("pathmatrix.summarize_scc",),
    "pathmatrix.refine_preservation_s": ("pathmatrix.refine_preservation",),
    "pathmatrix.solve_s": ("pathmatrix.solve",),
    "pathmatrix.loop_dependence_s": ("pathmatrix.loop_dependence",),
    "transform.classify_loop_s": ("transform.classify_loop",),
    "transform.strip_mine_s": ("transform.strip_mine",),
    "transform.unroll_s": ("transform.unroll",),
    "transform.software_pipeline_s": ("transform.software_pipeline",),
    "machine.simulate_s": ("machine.simulate",),
    "driver.engine_self_s": ("driver.engine",),
    "driver.batch_self_s": ("driver.analyze_corpus",),
    "driver.key_s": ("driver.key",),
    "driver.relocate_s": ("driver.relocate",),
    "driver.store_get_s": ("driver.store_get",),
    "driver.store_put_s": ("driver.store_put",),
    "cli.self_s": ("cli.main",),
}

#: per-layer metric -> span labels whose call count it sums
CALLS = {
    "lang.typecheck_calls": ("lang.typecheck",),
    "pathmatrix.analysis_inits": ("pathmatrix.analysis_init",),
    "pathmatrix.refine_preservation_calls": ("pathmatrix.refine_preservation",),
    "driver.store_gets": ("driver.store_get",),
    "driver.store_puts": ("driver.store_put",),
    "transform.attempts": (
        "transform.strip_mine",
        "transform.unroll",
        "transform.software_pipeline",
    ),
}

#: fixpoints attributed to the pipeline stage that caused them
FIXPOINT_STAGES = {
    "pathmatrix.fixpoints_refine": ("pathmatrix.refine_preservation",),
    "pathmatrix.fixpoints_transform": (
        "transform.strip_mine",
        "transform.unroll",
        "transform.software_pipeline",
    ),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(out: Outcome) -> dict[str, tuple[float, int]]:
    """``name -> (value, traced ops)``: per traced op unless a ratio."""
    n = out.traced_ops
    if not n:
        return {}
    layer = out.layer
    absent_labels = {
        t.label for t in trace.TARGETS if f"{t.module}.{t.attribute}" in out.absent
    }
    metrics: dict[str, float] = {}

    def traced(labels) -> bool:
        return not absent_labels.intersection(labels)

    for name, labels in SELF_TIME.items():
        if traced(labels):
            metrics[name] = sum(layer[f"self:{label}"] for label in labels) / n
    for name, labels in CALLS.items():
        if traced(labels):
            metrics[name] = sum(layer[f"calls:{label}"] for label in labels) / n
    if traced(("pathmatrix.solve",)):
        metrics["pathmatrix.fixpoints"] = layer["fixpoints"] / n
        for name, stages in FIXPOINT_STAGES.items():
            metrics[name] = sum(out.fixpoints_by_stage[s] for s in stages) / n
    if traced(("driver.store_get",)):
        gets = layer["calls:driver.store_get"]
        metrics["driver.store_hit_ratio"] = _ratio(gets - layer["none:driver.store_get"], gets)
    metrics["driver.store_bytes"] = float(out.store_bytes)
    metrics["pathmatrix.iterations"] = layer["iterations"] / n
    metrics["pathmatrix.blocks_transferred"] = layer["blocks_transferred"] / n
    metrics["pathmatrix.fixpoints_per_recomputed"] = _ratio(
        layer["inc:fixpoints_run"], layer["inc:recomputed"]
    )
    for key in ("reused", "firewalled", "recomputed", "dirty"):
        metrics[f"driver.{key}"] = layer[f"inc:{key}"] / n
    metrics["driver.firewall_ratio"] = _ratio(
        layer["inc:firewalled"], layer["inc:firewalled"] + layer["inc:recomputed"]
    )
    metrics["transform.applied_ratio"] = _ratio(
        layer["transform_applied"], layer["transform_outcomes"]
    )
    metrics["transform.parallelized_loops"] = layer["parallelized"] / n
    metrics["machine.sim_speedup_geomean"] = (
        math.exp(statistics.fmean(math.log(s) for s in out.sim_speedups))
        if out.sim_speedups
        else 0.0
    )
    for key, name in (
        ("tasks", "executor.tasks"),
        ("queue_wait_s", "executor.queue_wait_s"),
        ("parse_s", "executor.worker_parse_s"),
        ("analyze_s", "executor.worker_analyze_s"),
        ("transfer_s", "executor.transfer_s"),
        ("overhead_fraction", "executor.overhead_fraction"),
    ):
        metrics[name] = layer[f"exec:{key}"] / n
    metrics["executor.busy_fraction"] = _ratio(
        layer["exec:analyze_s"], layer["exec:capacity_s"]
    )
    samples = out.samples
    for kind in EDIT_KINDS:
        metrics[f"edit.{kind}_p50_s"] = _median(samples[f"edit.{kind}"]) or 0.0
    metrics["edit.total_s"] = sum(_edit_walls(out))
    if samples["noop_untraced"]:
        base, traced_walls = samples["noop_untraced"], samples["edit.noop"]
    else:
        base, traced_walls = samples["wall"], samples["traced_wall"]
    if base and traced_walls:
        metrics["trace.overhead_fraction"] = _median(traced_walls) / _median(base) - 1
    return {name: (value, n) for name, value in metrics.items()}
