"""Span tracing installed from outside the program under test.

The benchmark never edits ``src/``: it wraps public callables of the
``repro`` package in the forked operation process, just before calling the
CLI.  Each wrapper appends one span ``(label, start, end, parent)`` to an
in-memory list; the list is written out once the operation ends.

A target names a callable by module and attribute (``"func"`` or
``"Class.method"``).  A function target is rebound *everywhere* it is bound:
every ``repro.*`` module attribute that ``is`` the original object, so calls
through ``from module import func`` bindings are traced as well.  A target
marked ``local`` is rebound only in its own module (``unparse`` and ``_sha``
count as cache-key work only when the staged engine calls them).  A target
that no longer exists is reported as absent and its metrics are left out,
so a refactor can never break the untraced benchmark.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import NamedTuple


class Target(NamedTuple):
    label: str
    module: str
    attribute: str
    local: bool = False
    #: ``"module:function"`` of a zero-argument counter whose increase over
    #: the span is recorded with it
    counter: str | None = None


TARGETS: tuple[Target, ...] = (
    Target("cli.main", "repro.driver.cli", "main"),
    Target("driver.analyze_corpus", "repro.driver.batch", "BatchDriver.analyze_corpus"),
    Target("driver.engine", "repro.driver.stages", "StagedEngine.run"),
    Target("driver.key", "repro.driver.stages", "unparse", local=True),
    Target("driver.key", "repro.driver.stages", "_sha", local=True),
    Target("driver.key", "repro.driver.stages", "payload_digest", local=True),
    Target("driver.key", "repro.driver.batch", "function_digests", local=True),
    Target("driver.key", "repro.driver.batch", "program_digest", local=True),
    Target("driver.relocate", "repro.driver.pipeline", "relativize_report"),
    Target("driver.relocate", "repro.driver.pipeline", "absolutize_report"),
    Target("driver.store_get", "repro.driver.cache", "ResultCache.get"),
    Target("driver.store_put", "repro.driver.cache", "ResultCache.put"),
    Target("lang.parse", "repro.lang.parser", "parse_program"),
    Target("lang.typecheck", "repro.lang.typecheck", "check_program"),
    Target("lang.interpret", "repro.lang.interpreter", "run_program"),
    Target(
        "pathmatrix.analysis_init",
        "repro.pathmatrix.analysis",
        "PathMatrixAnalysis.__init__",
    ),
    Target("pathmatrix.summarize_scc", "repro.pathmatrix.interproc", "summarize_scc"),
    Target(
        "pathmatrix.refine_preservation",
        "repro.pathmatrix.analysis",
        "PathMatrixAnalysis.refine_preservation",
    ),
    Target(
        "pathmatrix.solve",
        "repro.pathmatrix.analysis",
        "PathMatrixAnalysis.analyze_function",
        counter="repro.pathmatrix.analysis:fixpoint_run_count",
    ),
    Target(
        "pathmatrix.loop_dependence",
        "repro.pathmatrix.analysis",
        "analyze_loop_dependence",
    ),
    Target("transform.classify_loop", "repro.transform.dependence", "classify_loop"),
    Target("transform.strip_mine", "repro.transform.stripmine", "strip_mine_loop"),
    Target("transform.unroll", "repro.transform.unroll", "unroll_loop"),
    Target(
        "transform.software_pipeline",
        "repro.transform.pipeline",
        "software_pipeline_loop",
    ),
    Target("machine.simulate", "repro.driver.pipeline", "simulate_program"),
)


class Span(NamedTuple):
    label: str
    start: float
    end: float
    #: index of the enclosing span in the same list, -1 at the top
    parent: int
    #: the callable returned ``None`` (a store miss, for ``ResultCache.get``)
    returned_none: bool
    #: increase of the target's counter over the span (0 without one)
    counted: int


class Tracer:
    """Collects spans of one process in memory."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self._stack: list[int] = []

    def wrap(self, label: str, func, counter=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            before = counter() if counter is not None else 0
            value = None
            start = clock()
            try:
                value = func(*args, **kwargs)
                return value
            finally:
                end = clock()
                stack.pop()
                counted = counter() - before if counter is not None else 0
                spans[index] = Span(label, start, end, parent, value is None, counted)

        return traced

    def dump(self, path: str, absent: list[str]) -> None:
        """Write the spans (and the absent targets) as compact JSON; call it
        once every span has closed."""
        labels: dict[str, int] = {}
        rows = []
        for span in self.spans:
            index = labels.setdefault(span.label, len(labels))
            rows.append(
                [index, span.start, span.end, span.parent, span.returned_none, span.counted]
            )
        with open(path, "w") as handle:
            json.dump({"labels": list(labels), "spans": rows, "absent": absent}, handle)


def _resolve(dotted: str):
    module_name, _, attribute = dotted.partition(":")
    return getattr(importlib.import_module(module_name), attribute)


def install(tracer: Tracer) -> list[str]:
    """Wrap every target; return the ``module.attribute`` names not found."""
    absent: list[str] = []
    for target in TARGETS:
        try:
            module = importlib.import_module(target.module)
            owner = module
            *path, name = target.attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, name)
            counter = _resolve(target.counter) if target.counter else None
        except (ImportError, AttributeError):
            absent.append(f"{target.module}.{target.attribute}")
            continue
        wrapper = tracer.wrap(target.label, original, counter)
        setattr(owner, name, wrapper)
        if path or target.local:
            continue
        for module_name, other in list(sys.modules.items()):
            if other is None or module_name.split(".")[0] != "repro":
                continue
            for attribute, value in list(vars(other).items()):
                if value is original:
                    setattr(other, attribute, wrapper)
    return absent


# -- reading spans back ---------------------------------------------------------
def load_spans(path: str) -> tuple[list[Span], list[str]]:
    with open(path) as handle:
        data = json.load(handle)
    labels = data["labels"]
    spans = [Span(labels[row[0]], *row[1:]) for row in data["spans"]]
    return spans, data["absent"]


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Spans of one thread nest, so the direct children of a span never
    overlap and their durations can simply be subtracted.
    """
    own = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.end - span.start
    return own


#: spans whose direct children are pipeline stages
STAGE_ROOTS = frozenset({"driver.engine", "driver.analyze_corpus"})


def stage_of(spans: list[Span], index: int) -> str:
    """The label of the outermost span below a :data:`STAGE_ROOTS` span that
    encloses span ``index``: the pipeline stage that caused the work."""
    stage = spans[index].label
    parent = spans[index].parent
    while parent >= 0 and spans[parent].label not in STAGE_ROOTS:
        stage = spans[parent].label
        parent = spans[parent].parent
    return stage


def chrome_events(spans: list[Span], pid: int, origin: float) -> list[dict]:
    """Chrome trace-event records (``ph: "X"``), times in microseconds."""
    return [
        {
            "name": span.label,
            "ph": "X",
            "ts": round((span.start - origin) * 1e6, 3),
            "dur": round((span.end - span.start) * 1e6, 3),
            "pid": pid,
            "tid": 0,
            "args": {"id": i, "parent": span.parent},
        }
        for i, span in enumerate(spans)
    ]
