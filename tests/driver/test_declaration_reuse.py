"""Declaration-level reuse in the staged engine: an edit parses, typechecks
and re-keys only the declarations it touched, every fallback takes the full
path with the full path's counters, and whatever path a run takes, its
report equals a from-scratch run's.
"""

import random
import shutil
import time
from pathlib import Path

import pytest

from repro.adds.library import standard_source
from repro.bench.stress import call_web_program_source
from repro.driver import pipeline as pipeline_module
from repro.driver import stages as stages_module
from repro.driver.batch import BatchDriver
from repro.driver.cache import decode_entry
from repro.driver.corpus import CorpusItem
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
    parsed: list = []
    real = stages_module.parse_program

    def recording(source, first_line=1):
        parsed.append(source)
        return real(source, first_line)

    monkeypatch.setattr(stages_module, "parse_program", recording)
    return parsed


def _record_typechecks(monkeypatch) -> list:
    checked: list = []
    real = analysis_module.check_program

    def recording(program, external_returns=None):
        checked.append([f.name for f in program.functions])
        return real(program, external_returns)

    monkeypatch.setattr(analysis_module, "check_program", recording)
    return checked


def _full_path_only(monkeypatch) -> None:
    """Make every run take the full path, as the engine did before
    declaration-level reuse."""

    def undecidable(self, manifest, declarations):
        raise stages_module._ConeUndecidable

    monkeypatch.setattr(stages_module.StagedEngine, "_cone_source", undecidable)


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
        assert warm.analyses_executed == 1
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
    """Each fallback gives the counters of the full path (what every run
    computed before declaration-level reuse) and a from-scratch report."""

    def _compare(self, tmp_path, monkeypatch, before, after, damage=None):
        """Run ``before`` then ``after`` on one store, and on a copy of it
        with the cone disabled; return the normal run's report."""
        _run(before, tmp_path / "store")
        if damage is not None:
            damage(tmp_path / "store")
        shutil.copytree(tmp_path / "store", tmp_path / "copy")
        parsed = _record_parses(monkeypatch)
        report = _run(after, tmp_path / "store")
        parsed = list(parsed)
        with monkeypatch.context() as m:
            _full_path_only(m)
            reference = _run(after, tmp_path / "copy")
        assert report.incremental == reference.incremental
        assert report.cache_hits == reference.cache_hits
        assert report.analyses_executed == reference.analyses_executed
        assert _view(report) == _view(reference) == _view(_run(after, None))
        return report, parsed

    def test_missing_manifest(self, tmp_path, monkeypatch):
        source = _web(12)
        edited = _pad(source, "w4")

        def drop_manifest(store):
            shutil.rmtree(store / "manifest")

        report, parsed = self._compare(tmp_path, monkeypatch, source, edited, drop_manifest)
        assert parsed == [edited]
        assert report.incremental["dirty"] == 12

    def test_parse_error_in_an_edited_declaration(self, tmp_path, monkeypatch):
        source = _web(12)
        broken = _pad(source, "w4", "  var ;\n")
        report, _ = self._compare(tmp_path, monkeypatch, source, broken)
        assert report.programs[0].error.startswith("parse error:")
        assert report.incremental == stages_module.IncrementalStats().to_dict()
        # the store is intact: the fixed source takes the cone again
        healed = _run(_pad(source, "w4"), tmp_path / "store")
        assert healed.incremental["recomputed"] == 1

    def test_changed_set_of_function_names(self, tmp_path, monkeypatch):
        source = _web(12)
        renamed = source.replace("function w11(h)", "function w11b(h)")
        report, parsed = self._compare(tmp_path, monkeypatch, source, renamed)
        assert parsed == [renamed]

    def test_type_edit(self, tmp_path, monkeypatch):
        source = _web(12)
        edited = source.replace("  int exp;\n", "  int exp;\n  int spare;\n")
        report, parsed = self._compare(tmp_path, monkeypatch, source, edited)
        assert parsed == [edited]

    @pytest.mark.parametrize("stage", ["summary", "report"])
    def test_missing_artifact_in_the_cone(self, stage, tmp_path, monkeypatch):
        source = _web(12)
        edited = _pad(source, "w4")

        def drop_artifact(store):
            (path,) = (store / "manifest").glob("*.json")
            entries = decode_entry(path.read_text())["functions"]
            if stage == "summary":
                # a callee's: the edited function's summary is recomputed
                # from its callees' summary artifacts
                (callee, *_) = entries["w4"]["callees"]
                key = entries[callee]["skey"]
            else:
                key = entries["w0"]["report"]  # a function served unparsed
            (store / stage / f"{key}.json").unlink()

        report, parsed = self._compare(tmp_path, monkeypatch, source, edited, drop_artifact)
        assert edited in parsed  # the full path ran
        assert report.incremental["dirty"] == 1


class TestSimulation:
    def test_an_edited_program_without_main_is_not_parsed_to_simulate(
        self, tmp_path, monkeypatch
    ):
        source = _web(12)
        _run(source, tmp_path, simulate=True)
        edited = _pad(source, "w4")
        parsed = _record_parses(monkeypatch)
        real = pipeline_module.parse_program

        def recording(text, first_line=1):
            parsed.append(text)
            return real(text, first_line)

        monkeypatch.setattr(pipeline_module, "parse_program", recording)
        report = _run(edited, tmp_path, simulate=True)
        assert report.programs[0].simulation == {"status": "no-entry", "entry": "main"}
        assert edited not in parsed
        assert len(parsed) == 2  # the type and w4

    def test_an_entry_with_parameters_is_decided_from_the_split(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("parsed to find the entry")

        monkeypatch.setattr(pipeline_module, "parse_program", forbidden)
        source = TYPES + "function main(n)\n{ return n; }\n"
        sim = pipeline_module.simulate_program(source, pipeline_module.PipelineOptions())
        assert sim == {"status": "no-entry", "entry": "main"}


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
