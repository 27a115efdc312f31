"""Declaration-level reuse in the staged engine: an edit parses, typechecks
and re-keys only the declarations it touched, every fallback reopens every
component on the same walk a cold run takes, and whatever a run reopens,
its report equals a from-scratch run's.
"""

import random
import shutil
import sys
import time
from pathlib import Path

import pytest

from repro.adds.library import standard_source
from repro.bench.stress import call_web_program_source
from repro.driver import pipeline as pipeline_module
from repro.driver import stages as stages_module
from repro.driver.batch import BatchDriver
from repro.driver.cache import RECORD_SUFFIX, ResultCache, decode_record, encode_record
from repro.driver.corpus import CorpusItem, corpus_named
from repro.lang import parser as parser_module
from repro.lang.split import split_declarations
from repro.pathmatrix import analysis as analysis_module

TYPES = standard_source("ListNode")
EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "corpus"


def _web(size: int, seed: int = 3) -> str:
    return TYPES + call_web_program_source(size, seed, prefix="w")


def _pad(source: str, function: str, line: str = "  var pad;\n") -> str:
    """Insert ``line`` at the top of ``function``'s body."""
    head = f"function {function}(h)\n{{\n"
    assert head in source
    return source.replace(head, head + line, 1)


def _run(source, store, jobs=1, simulate=False, name="web"):
    driver = BatchDriver(jobs=jobs, cache_dir=store, simulate=simulate)
    return driver.analyze_corpus([CorpusItem(name=name, source=source)])


def _view(report) -> list:
    """What may not depend on how a result was computed."""
    return [(p.name, p.functions, p.schedule, p.error) for p in report.programs]


def _record_parses(monkeypatch) -> list:
    """Record every text ``parse_program`` parses, through whichever
    ``repro`` module calls it."""
    parsed: list = []
    real = parser_module.parse_program

    def recording(source, first_line=1):
        parsed.append(source)
        return real(source, first_line)

    for module in list(sys.modules.values()):
        if module is not None and module.__name__.split(".")[0] == "repro":
            if vars(module).get("parse_program") is real:
                monkeypatch.setattr(module, "parse_program", recording)
    return parsed


def _record_typechecks(monkeypatch) -> list:
    checked: list = []
    real = analysis_module.check_program

    def recording(program, external_returns=None):
        checked.append([f.name for f in program.functions])
        return real(program, external_returns)

    monkeypatch.setattr(analysis_module, "check_program", recording)
    return checked


def _declaration_texts(source: str) -> list:
    return sorted(d.text for d in split_declarations(source))


def _records(store) -> list:
    """The store's record files, one per program."""
    return sorted((ResultCache(store).live / "program").glob(f"*{RECORD_SUFFIX}"))


def _rewrite(store, change) -> None:
    """Apply ``change`` to each record of ``store`` and store it back with
    a valid checksum."""
    for path in _records(store):
        record = decode_record(path.read_bytes())
        change(record)
        path.write_bytes(encode_record(record))


def _distrust_manifests(store) -> None:
    """Make each record's manifest record other type declarations than its
    program has: the next run reopens every component, and counts dirty
    only the functions whose text changed."""

    def distrust(record):
        if record.manifest:
            record.manifest["types"] = "other type declarations"

    _rewrite(store, distrust)


class TestWorkCounts:
    @pytest.mark.parametrize("size", [50, 400])
    def test_a_preserving_edit_parses_checks_and_solves_one_function(
        self, size, tmp_path, monkeypatch
    ):
        source = _web(size)
        _run(source, tmp_path)
        edited = _pad(source, "w10")
        parsed = _record_parses(monkeypatch)
        checked = _record_typechecks(monkeypatch)
        started = time.perf_counter()
        warm = _run(edited, tmp_path)
        elapsed = time.perf_counter() - started

        declarations = split_declarations(edited)
        expected = [d.text for d in declarations if d.kind == "type" or d.name == "w10"]
        assert sorted(parsed) == sorted(expected)
        assert len(parsed) == 2  # one type, one function, at 50 and at 400
        assert checked == [["w10"]]
        inc = warm.incremental
        assert (inc["dirty"], inc["recomputed"], inc["fixpoints_run"]) == (1, 1, 1)
        assert inc["reused"] == size - 1
        # wall time is reported, not asserted (docs/performance.md, Edits)
        print(f"edit of a {size}-function web: {elapsed:.4f} s")

    def test_a_summary_changing_edit_parses_only_its_cascade(self, tmp_path, monkeypatch):
        source = _web(50)
        _run(source, tmp_path)
        edited = source.replace(
            "function w3(h)\n{\n", "function w3(h)\n{\n  h->next = NULL;\n", 1
        )
        parsed = _record_parses(monkeypatch)
        warm = _run(edited, tmp_path)
        inc = warm.incremental
        assert edited not in parsed
        # every parsed function is the edited one or recomputed/re-summarized
        reparsed = {
            d.name
            for d in split_declarations(edited)
            if d.kind == "function" and d.text in parsed
        }
        assert "w3" in reparsed
        # the cascade: callers whose summaries moved, not the whole web
        assert inc["recomputed"] > 1
        assert len(reparsed) <= inc["summaries_recomputed"] < 50
        assert _view(warm) == _view(_run(edited, None))


#: a second type, so that edits can change the type declarations
EXTRA_TYPE = "type Pair { int left; int right; };\n"


def _sequence(seed: int) -> list[str]:
    """A seeded sequence of sources, one per edit kind, each step building on
    the last (a revert goes back to an earlier step)."""
    rng = random.Random(seed)
    decls = [d.text for d in split_declarations(EXTRA_TYPE + _web(10, seed))]
    versions: list[str] = []

    def functions() -> list[int]:
        return [i for i, text in enumerate(decls) if text.startswith("function")]

    def emit() -> None:
        versions.append("\n\n".join(decls) + "\n")

    def body_insert(line: str) -> None:
        i = rng.choice(functions())
        head, _, rest = decls[i].partition("{\n")
        decls[i] = f"{head}{{\n{line}{rest}"

    emit()
    body_insert(f"  var pad{seed};\n")  # summary-preserving
    emit()
    i = rng.choice(functions())  # summary-changing: a new field write
    decls[i] = decls[i].replace("  return p;", "  p->next = NULL;\n  return p;")
    emit()
    body_insert("\n")  # layout only
    emit()
    a, b = rng.sample(functions(), 2)  # swap two functions
    decls[a], decls[b] = decls[b], decls[a]
    emit()
    decls.append("function extra(h)\n{ var t;\n  t = h;\n  return t;\n}")  # uncalled
    emit()
    decls.pop()
    emit()
    decls[0] = "type Pair { int left; int right; int spare; };"  # a type edit
    emit()
    # a type edit that changes verdicts: the list loses its ADDS annotation
    decls[1] = decls[1].replace(" is uniquely forward along X", "")
    emit()
    versions.append(versions[2])  # revert
    return versions


class TestSeededEditSequence:
    @pytest.mark.parametrize("seed", [5, 8, 13])
    def test_every_step_equals_a_from_scratch_run(self, seed, tmp_path):
        for step, source in enumerate(_sequence(seed)):
            expected = _view(_run(source, None))
            inline = _run(source, tmp_path / "inline")
            pooled = _run(source, tmp_path / "pooled", jobs=2)
            assert _view(inline) == expected, f"--jobs 1, step {step}"
            assert list(inline.programs[0].functions) == list(expected[0][1])
            assert _view(pooled) == expected, f"--jobs 2, step {step}"
            # one engine: the same work, counted the same way, in one order
            assert pooled.incremental == inline.incremental, f"step {step}"
            assert list(pooled.programs[0].functions) == list(expected[0][1])
            if step == 3:  # the layout-only edit re-solves its function
                assert inline.incremental["dirty"] == 1
                assert inline.incremental["recomputed"] == 1


class TestDeclarationOrder:
    """A report lists its functions in declaration order, however they were
    obtained: computed, served whole, through the cone, or by a worker."""

    # declared neither in name order nor callees first
    SOURCE = TYPES + (
        "function zeta(h)\n{\n  return alpha(h);\n}\n\n"
        "function mid(h)\n{\n  var t;\n  t = h;\n  return t;\n}\n\n"
        "function alpha(h)\n{\n  return h;\n}\n"
    )
    ORDER = ["zeta", "mid", "alpha"]

    @pytest.mark.parametrize("path", ["cold", "served", "cone", "pooled"])
    def test_functions_are_listed_in_declaration_order(self, path, tmp_path):
        source = self.SOURCE
        report = _run(source, tmp_path, jobs=2 if path == "pooled" else 1)
        if path == "served":
            report = _run(source, tmp_path)
            assert report.incremental["programs_unchanged"] == 1
        elif path == "cone":
            source = _pad(source, "mid")
            report = _run(source, tmp_path)
            assert report.incremental["recomputed"] == 1
        assert report.programs[0].schedule[0] == [["alpha"], ["mid"]]
        assert list(report.programs[0].functions) == self.ORDER
        assert _view(report) == _view(_run(source, None))


class TestFallbacks:
    """Each fallback reopens every component, with the counters of a run
    whose manifest cannot decide what to reopen, and a from-scratch
    report; each declaration is parsed once."""

    def _compare(self, tmp_path, monkeypatch, before, after, damage=None):
        """Run ``before`` then ``after`` on one store, and on a copy of it
        whose manifest records other type declarations; return the normal
        run's report and what it parsed."""
        _run(before, tmp_path / "store")
        if damage is not None:
            damage(tmp_path / "store")
        shutil.copytree(tmp_path / "store", tmp_path / "copy")
        _distrust_manifests(tmp_path / "copy")
        parsed = _record_parses(monkeypatch)
        report = _run(after, tmp_path / "store")
        parsed = list(parsed)
        reference = _run(after, tmp_path / "copy")
        assert report.incremental == reference.incremental
        assert _view(report) == _view(reference) == _view(_run(after, None))
        return report, parsed

    def test_missing_manifest(self, tmp_path, monkeypatch):
        """A record that holds its artifacts but an empty manifest: every
        function counts dirty, and every artifact is still served."""
        source = _web(12)
        edited = _pad(source, "w4")

        def drop_manifest(store):
            _rewrite(store, lambda record: setattr(record, "manifest", {}))

        report, parsed = self._compare(tmp_path, monkeypatch, source, edited, drop_manifest)
        assert sorted(parsed) == _declaration_texts(edited)
        assert report.incremental["dirty"] == 12
        assert report.incremental["recomputed"] == 1

    def test_parse_error_in_an_edited_declaration(self, tmp_path, monkeypatch):
        source = _web(12)
        broken = _pad(source, "w4", "  var ;\n")
        report, parsed = self._compare(tmp_path, monkeypatch, source, broken)
        assert report.programs[0].error.startswith("parse error:")
        assert report.incremental == stages_module.IncrementalStats().to_dict()
        # the diagnostic is the whole source's, which is parsed for it
        assert parsed[-1] == broken
        # the store is intact: the fixed source reopens one function again
        healed = _run(_pad(source, "w4"), tmp_path / "store")
        assert healed.incremental["recomputed"] == 1

    def test_changed_set_of_function_names(self, tmp_path, monkeypatch):
        source = _web(12)
        renamed = source.replace("function w11(h)", "function w11b(h)")
        report, parsed = self._compare(tmp_path, monkeypatch, source, renamed)
        assert sorted(parsed) == _declaration_texts(renamed)
        assert report.incremental["dirty"] == 1

    def test_type_edit(self, tmp_path, monkeypatch):
        source = _web(12)
        edited = source.replace("  int exp;\n", "  int exp;\n  int spare;\n")
        report, parsed = self._compare(tmp_path, monkeypatch, source, edited)
        assert sorted(parsed) == _declaration_texts(edited)
        assert report.incremental["dirty"] == 0

    @pytest.mark.parametrize("stage", ["summary", "report"])
    def test_missing_artifact_in_the_cone(self, stage, tmp_path, monkeypatch):
        source = _web(12)
        edited = _pad(source, "w4")

        lost: list = []  # the functions whose artifact is dropped

        def drop_artifact(store):
            def drop(record):
                entries = record.manifest["functions"]
                if stage == "summary":
                    # a callee's: the edited function's summary is recomputed
                    # from its callees' summary artifacts
                    (callee, *_) = entries["w4"]["callees"]
                    key = entries[callee]["skey"]
                    lost.extend(n for n, entry in entries.items() if entry["skey"] == key)
                else:
                    key = entries["w0"]["report"]  # a function served unparsed
                    lost.append("w0")
                del record.artifacts[stage, key]

            _rewrite(store, drop)

        report, parsed = self._compare(tmp_path, monkeypatch, source, edited, drop_artifact)
        # every declaration parsed once: those the first try parsed are kept
        assert sorted(parsed) == _declaration_texts(edited)
        assert report.incremental["dirty"] == 1
        # the lost artifact costs itself (a summary its component's members),
        # besides the edited function's own
        inc = report.incremental
        if stage == "summary":
            assert (inc["summaries_recomputed"], inc["recomputed"]) == (1 + len(lost), 1)
        else:
            assert (inc["summaries_recomputed"], inc["recomputed"]) == (1, 1 + len(lost))


class TestOneWalk:
    """A cold run is the walk with nothing recorded: each declaration is
    parsed on its own, and every fixpoint solved is the engine's."""

    def test_a_cold_run_parses_each_declaration_once(self, tmp_path, monkeypatch):
        """The simulation included: it runs on the declarations the walk
        parsed."""
        items = corpus_named("builtin")
        parsed = _record_parses(monkeypatch)
        report = BatchDriver(jobs=1, cache_dir=tmp_path).analyze_corpus(items)
        assert not [p.error for p in report.programs if p.error]
        assert [p.simulation["status"] for p in report.programs].count("simulated") == 4
        expected = [text for item in items for text in _declaration_texts(item.source)]
        assert sorted(parsed) == sorted(expected)
        assert not {item.source for item in items} & set(parsed)

    def test_the_simulation_solves_no_fixpoint(self, tmp_path):
        """It replays the reports' loop verdicts instead of deciding again."""
        before = analysis_module.fixpoint_run_count()
        report = BatchDriver(jobs=1, cache_dir=tmp_path).analyze_corpus(corpus_named("builtin"))
        solved = analysis_module.fixpoint_run_count() - before
        assert solved == report.incremental["fixpoints_run"] > 0
        assert [p.simulation["status"] for p in report.programs].count("simulated") == 4


class TestTypeErrors:
    def test_an_edit_that_breaks_one_function_through_the_cone(self, tmp_path):
        source = _web(12)
        _run(source, tmp_path)
        (record,) = _records(tmp_path)
        recorded = record.read_text()
        edited = source.replace("function w4(h)", "function w4(h, h)")
        report = _run(edited, tmp_path)
        line = next(d.line for d in split_declarations(edited) if d.name == "w4")
        error = f"type error: duplicate parameter 'h' in w4 (line {line})"
        assert report.programs[0].error == error
        assert report.programs[0].functions == {}
        assert _view(report) == _view(_run(edited, None)) == _view(_run(edited, tmp_path, jobs=2))
        # no record holds the broken source: the original is still served
        assert record.read_text() == recorded
        assert _run(source, tmp_path).incremental["programs_unchanged"] == 1


class TestSimulation:
    def test_an_edited_program_without_main_is_not_parsed_to_simulate(
        self, tmp_path, monkeypatch
    ):
        source = _web(12)
        _run(source, tmp_path, simulate=True)
        edited = _pad(source, "w4")
        parsed = _record_parses(monkeypatch)
        report = _run(edited, tmp_path, simulate=True)
        assert report.programs[0].simulation == {"status": "no-entry", "entry": "main"}
        assert edited not in parsed
        assert len(parsed) == 2  # the type and w4

    def test_an_entry_with_parameters_is_decided_from_the_split(self, monkeypatch):
        parsed = _record_parses(monkeypatch)
        source = TYPES + "function main(n)\n{ return n; }\n"
        options = pipeline_module.PipelineOptions()
        split = stages_module._Source.split(source)
        sim = pipeline_module.simulate_program(split, options, [("main", 0)])
        assert sim == {"status": "no-entry", "entry": "main"}
        assert parsed == []


class TestStaleWarmResults:
    """Two ways a warm store used to serve a result a from-scratch run does
    not give."""

    ORDER_TYPES = (
        "type ListNode [X] { int coef; ListNode *next is uniquely forward along X; };\n"
    )
    F = "function f(n) { var x; var y; x = g(n); y = x; return y; }\n"
    G = "function g(n) { var q; q = new ListNode; q->coef = n; return q; }\n"

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_swapping_a_caller_and_its_callee(self, jobs, tmp_path):
        """``f``'s environment used to track ``x``/``y`` only when ``g`` was
        declared first, and no key covered the order."""
        _run(self.ORDER_TYPES + self.F + self.G, tmp_path, jobs=jobs)
        swapped = self.ORDER_TYPES + self.G + self.F
        warm = _run(swapped, tmp_path, jobs=jobs)
        scratch = _run(swapped, None)
        assert _view(warm) == _view(scratch)
        matrix = warm.programs[0].functions["f"]["analysis"]["exit_matrix"]
        assert matrix.split("\n")[0].split() == ["x", "y"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_blank_line_inside_a_function(self, jobs, tmp_path):
        """Stage keys covered the unparsed body, which has no line layout,
        while payloads are relative to the function's first line."""
        source = (EXAMPLES / "list_sum.ptr").read_text()
        _run(source, tmp_path, jobs=jobs)
        edited = source.replace("  s = 0;\n", "  s = 0;\n\n", 1)
        warm = _run(edited, tmp_path, jobs=jobs)
        scratch = _run(edited, None)
        assert _view(warm) == _view(scratch)
        (loop,) = warm.programs[0].functions["total"]["loops"]
        assert loop["line"] == 30
        # one function re-solved; its callers stay firewalled behind the
        # unchanged summary (the summary key covers the unparsed body)
        inc = warm.incremental
        assert (inc["dirty"], inc["recomputed"], inc["firewalled"]) == (1, 1, 1)
        assert inc["summaries_recomputed"] == 0
