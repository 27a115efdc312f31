"""Batch driver acceptance tests: caching, parallel fan-out, fidelity.

The headline guarantees:

* the driver's per-function reports match the single-function API
  **bit-for-bit** on the paper examples,
* a warm second run over the same corpus executes **zero** analyses
  (everything is served from the on-disk cache),
* a parallel run produces exactly the serial run's reports.
"""

import json
import re
from pathlib import Path

import pytest

import repro.lang.typecheck
import repro.pathmatrix.analysis
from repro.driver import executor
from repro.driver.batch import BatchDriver
from repro.driver.cache import ResultCache, function_digests
from repro.driver.cli import main
from repro.driver.corpus import CorpusItem, corpus_named, load_source_file, paper_corpus
from repro.driver.pipeline import (
    PipelineOptions,
    absolutize_report,
    analysis_payload,
    loops_payload,
    relativize_report,
    simulate_program,
    strip_mined_loops,
    transforms_payload,
)
from repro.driver.stages import _Source
from repro.fuzz.generator import generate_program
from repro.lang.parser import parse_program
from repro.lang.split import split_declarations
from repro.pathmatrix import PathMatrixAnalysis
from repro.pathmatrix.analysis import fixpoint_run_count
from repro.transform import software_pipeline_loop, strip_mine_loop, unroll_loop
from repro.transform.stripmine import TransformError


@pytest.fixture(scope="module")
def paper_items():
    return paper_corpus()


def _function_payloads(report):
    """Only the per-function dicts, for whole-run equality comparisons."""
    return {p.name: p.functions for p in report.programs}


def _loops(source, options=PipelineOptions()):
    """The loops ``source``'s reports strip-mine, as the simulation takes them."""
    driver = BatchDriver(jobs=1, cache_dir=None, options=options, simulate=False)
    batch = driver.analyze_corpus([CorpusItem(name="program", source=source)])
    return strip_mined_loops(batch.programs[0].functions)


class TestFidelity:
    def test_driver_matches_single_function_api_bit_for_bit(self, paper_items):
        driver = BatchDriver(jobs=1, cache_dir=None, simulate=False)
        batch = driver.analyze_corpus(paper_items)
        for item in paper_items:
            program = parse_program(item.source)
            analysis = PathMatrixAnalysis(program)
            functions = batch.program(item.name).functions
            assert set(functions) == {f.name for f in program.functions}
            for func in program.functions:
                direct = analysis.analyze_function(func.name)
                reported = functions[func.name]["analysis"]
                assert reported["error"] is None
                assert reported["exit_matrix"] == direct.final_matrix().to_table()
                assert reported["iterations"] == direct.iterations
                assert reported["blocks_transferred"] == direct.blocks_transferred
                assert reported["violations"] == [str(v) for v in direct.violations()]

    def test_bhl_loops_classified_parallelizable(self, paper_items):
        driver = BatchDriver(jobs=1, cache_dir=None, simulate=False)
        batch = driver.analyze_corpus(paper_items)
        functions = batch.program("paper/barnes_hut").functions
        for name in ("bh_force_pass", "bh_update_pass"):
            (loop,) = functions[name]["loops"]
            assert loop["classification"] == "doall-after-traversal"
            assert loop["transforms"]["strip_mine"]["applied"]

    def test_reported_summaries_match_the_whole_program_analysis(self):
        """The engine summarizes one call-graph component at a time; each
        reported summary still equals the whole-program analysis's, for
        every function of every builtin program."""
        items = corpus_named("builtin")
        batch = BatchDriver(jobs=1, cache_dir=None, simulate=False).analyze_corpus(items)
        for item in items:
            summaries = PathMatrixAnalysis(parse_program(item.source)).summaries
            functions = batch.program(item.name).functions
            assert set(functions) == set(summaries), item.name
            for name, function in functions.items():
                assert function["summary"] == summaries[name].to_dict(), (item.name, name)


def _full_transform_applicability(program, function, index):
    """The transform stage as the three full transforms compute it: each
    re-runs the dependence test (with ADDS) and rewrites a copy."""
    attempts = {
        "strip_mine": lambda: strip_mine_loop(program, function, loop_index=index),
        "unroll": lambda: unroll_loop(program, function, factor=4, loop_index=index),
        "software_pipeline": lambda: software_pipeline_loop(
            program, function, loop_index=index
        ),
    }
    outcomes = {}
    for name, attempt in attempts.items():
        try:
            outcomes[name] = {"applied": True, "notes": attempt().notes}
        except TransformError as exc:
            outcomes[name] = {"applied": False, "error": str(exc)}
    return outcomes


@pytest.fixture(scope="module", params=[True, False], ids=["adds", "no-adds"])
def parallelizable_loops(request):
    """``(program, function, loop indices)`` for every function of the
    builtin corpus and of 50 fuzz programs with a loop the loop
    classification classifies parallelizable."""
    options = PipelineOptions(use_adds=request.param)
    sources = [item.source for item in corpus_named("builtin")]
    sources += [generate_program(seed).source for seed in range(50)]
    found = []
    for source in sources:
        program = parse_program(source)
        analysis = PathMatrixAnalysis(
            program, use_adds=options.use_adds, memoize_results=True
        )
        for func in program.functions:
            status, _ = analysis_payload(analysis, func.name)
            if status != "ok":
                continue
            _, indices = loops_payload(program, func.name, analysis, options)
            if indices:
                found.append((program, func.name, indices))
    assert found
    return found


class TestTransformStage:
    def test_checks_match_the_full_transforms(self, parallelizable_loops):
        for program, function, indices in parallelizable_loops:
            assert transforms_payload(program, function, indices) == {
                str(i): _full_transform_applicability(program, function, i)
                for i in indices
            }, function

    def test_no_fixpoint_and_no_typecheck(self, parallelizable_loops, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the transform stage typechecked a program")

        monkeypatch.setattr(repro.lang.typecheck, "check_program", forbidden)
        monkeypatch.setattr(repro.pathmatrix.analysis, "check_program", forbidden)
        before = fixpoint_run_count()
        for program, function, indices in parallelizable_loops:
            transforms_payload(program, function, indices)
        assert fixpoint_run_count() == before


class TestCaching:
    def test_warm_run_executes_no_analyses(self, tmp_path, paper_items):
        cold = BatchDriver(jobs=1, cache_dir=tmp_path).analyze_corpus(paper_items)
        assert cold.incremental["recomputed"] > 0

        warm_driver = BatchDriver(jobs=1, cache_dir=tmp_path)
        warm = warm_driver.analyze_corpus(paper_items)
        # the acceptance criterion: strictly fewer analyses on the warm run —
        # in fact none at all, and every simulation is served from cache too
        assert warm.incremental["recomputed"] < cold.incremental["recomputed"]
        assert warm.incremental["recomputed"] == 0
        assert warm.incremental["reused"] == (
            cold.incremental["recomputed"] + cold.incremental["reused"]
        )
        assert warm.incremental["simulations_reused"] == len(paper_items)
        assert _function_payloads(warm) == _function_payloads(cold)
        for item in paper_items:
            assert warm.program(item.name).simulation == cold.program(item.name).simulation

    def _digests(self, src):
        from repro.adds.library import standard_source

        program = parse_program(standard_source("ListNode") + src)
        return function_digests(program, PipelineOptions().key())

    BASE = """
    function leaf(p) { return p->next; }
    function caller(p) { return leaf(p); }
    function unrelated(q) { q->coef = 1; return q; }
    """

    def test_summary_changing_edit_invalidates_the_caller(self):
        edited = self.BASE.replace(
            "function leaf(p) { return p->next; }",
            "function leaf(p) { p->exp = 0; return p->next; }",
        )
        before, after = self._digests(self.BASE), self._digests(edited)
        assert before["leaf"] != after["leaf"]
        assert before["caller"] != after["caller"]  # callee body changed
        assert before["unrelated"] == after["unrelated"]

    def test_summary_preserving_edit_still_invalidates_callers(self):
        """Content digests are body-transitive: editing a callee changes its
        callers' digests even when the effect summary is unchanged, because
        they carry no summary digest to firewall on.  (The staged engine's
        keys do better — see tests/driver/test_incremental.py.)  Unrelated
        functions keep theirs."""
        edited = self.BASE.replace("return p->next;", "return p->next->next;")
        before, after = self._digests(self.BASE), self._digests(edited)
        assert before["leaf"] != after["leaf"]  # its own AST changed
        assert before["caller"] != after["caller"]  # callee body changed
        assert before["unrelated"] == after["unrelated"]

    def test_an_edit_two_calls_down_invalidates_every_caller(self):
        """A digest covers the function's whole callee closure: editing
        ``leaf`` changes ``top``, which reaches it only through ``caller``."""
        source = self.BASE + "function top(p) { return caller(p); }\n"
        edited = source.replace("return p->next; }", "return p->next->next; }", 1)
        before, after = self._digests(source), self._digests(edited)
        assert before["leaf"] != after["leaf"]
        assert before["caller"] != after["caller"]
        assert before["top"] != after["top"]
        assert before["unrelated"] == after["unrelated"]

    def test_identical_text_at_different_lines_shares_keys(self):
        """Cached payloads are stored line-relative (absolute lines are
        restored at probe time), so the same helper pasted into two files at
        different offsets shares one cache entry per function."""
        shifted = "\n\n\n\n" + self.BASE
        before, after = self._digests(self.BASE), self._digests(shifted)
        assert before == after

    def test_warm_pooled_run_equals_cold(self, tmp_path):
        """``insert`` is byte-identical in two example programs at different
        offsets, so both share one ``report`` artifact; a warm run must still
        report each copy at its own lines."""
        items = corpus_named("builtin")
        cold = BatchDriver(jobs=2, cache_dir=tmp_path).analyze_corpus(items)
        warm = BatchDriver(jobs=2, cache_dir=tmp_path).analyze_corpus(items)
        assert warm.incremental["recomputed"] == 0
        assert warm.to_dict()["programs"] == cold.to_dict()["programs"]
        insert = warm.program("examples/tree_insert").functions["insert"]
        violations = " ".join(insert["analysis"]["violations"])
        assert set(re.findall(r"line (\d+)", violations)) == {"18", "20"}

    def test_relocation_equals_a_whole_report_walk(self):
        """Relocation walks only the report parts that can hold a line
        (``analysis`` and ``loops``); on every report of the ``bench`` corpus
        it agrees with a walk over the whole report."""

        def shift_everywhere(value, delta, key=None):
            if isinstance(value, bool):
                return value
            if isinstance(value, int) and key in ("line", "loop_line"):
                return value + delta
            if isinstance(value, str):
                return re.sub(
                    r"line (\d+)", lambda m: f"line {int(m.group(1)) + delta}", value
                )
            if isinstance(value, list):
                return [shift_everywhere(v, delta, key) for v in value]
            if isinstance(value, dict):
                return {k: shift_everywhere(v, delta, k) for k, v in value.items()}
            return value

        items = corpus_named("bench")
        batch = BatchDriver(jobs=1, cache_dir=None, simulate=False).analyze_corpus(items)
        checked = relocated = 0
        for item, program in zip(items, batch.programs, strict=True):
            first_lines = {
                d.name: d.line for d in split_declarations(item.source) if d.kind == "function"
            }
            for name, report in program.functions.items():
                base = first_lines[name]
                relative = relativize_report(report, base)
                assert relative == shift_everywhere(report, 1 - base), (program.name, name)
                assert absolutize_report(relative, base) == report
                checked += 1
                relocated += relative != report
        assert checked == batch.function_count()
        assert relocated

    def test_options_partition_the_cache(self, tmp_path, paper_items):
        item = [paper_items[0]]
        a = BatchDriver(jobs=1, cache_dir=tmp_path).analyze_corpus(item)
        b = BatchDriver(
            jobs=1,
            cache_dir=tmp_path,
            options=PipelineOptions(use_adds=False),
        ).analyze_corpus(item)
        # different options must not reuse each other's entries
        assert a.incremental["recomputed"] > 0 and b.incremental["recomputed"] > 0
        assert b.incremental["reused"] == 0

    def test_disabled_cache_always_recomputes(self, paper_items):
        driver = BatchDriver(jobs=1, cache_dir=None)
        first = driver.analyze_corpus([paper_items[0]])
        second = driver.analyze_corpus([paper_items[0]])
        assert first.incremental["recomputed"] == second.incremental["recomputed"] > 0


#: the table of ``stats`` keys in docs/driver.md
DRIVER_DOC = Path(__file__).resolve().parents[2] / "docs" / "driver.md"


def _stats_paths(stats: dict, prefix: str = "") -> set[str]:
    """Every key of ``stats`` as a dotted path; the stage names under
    ``store.stages`` and the fields of ``profile.tasks`` rows are left out."""
    paths = set()
    for key, value in stats.items():
        path = prefix + key
        paths.add(path)
        if isinstance(value, dict) and path != "store.stages":
            paths |= _stats_paths(value, path + ".")
    return paths


def _documented_paths() -> list[str]:
    """The dotted paths the ``| key | block | type | ...`` table names, one
    per row."""
    lines = DRIVER_DOC.read_text().splitlines()
    start = lines.index("| key | block | type | what it counts |") + 2
    paths = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        key, block = (cell.strip().strip("`") for cell in line.split("|")[1:3])
        paths.append(key if block == "—" else f"{block}.{key}")
    return paths


class TestStatsRecord:
    def test_every_stats_key_has_one_row_in_the_driver_doc(self, tmp_path, paper_items):
        emitted = set()
        for jobs in (1, 2):
            driver = BatchDriver(jobs=jobs, cache_dir=tmp_path / f"jobs{jobs}")
            emitted |= _stats_paths(driver.analyze_corpus(paper_items).stats())
        assert "profile.totals.overhead_fraction" in emitted  # the pooled run's
        documented = _documented_paths()
        assert len(documented) == len(set(documented))
        assert emitted == set(documented)


class TestParallelExecution:
    def test_parallel_run_matches_serial(self, paper_items):
        serial = BatchDriver(jobs=1, cache_dir=None, simulate=False)
        parallel = BatchDriver(jobs=2, cache_dir=None, simulate=False)
        assert _function_payloads(parallel.analyze_corpus(paper_items)) == (
            _function_payloads(serial.analyze_corpus(paper_items))
        )

    @pytest.fixture(scope="class")
    def builtin_serial(self):
        items = corpus_named("builtin")
        return items, BatchDriver(jobs=1, cache_dir=None).analyze_corpus(items)

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_full_corpus_bit_identical_under_both_start_methods(
        self, builtin_serial, start_method, monkeypatch
    ):
        """The headline fidelity guarantee: over the whole built-in corpus a
        pooled run reproduces the serial reports bit for bit — including the
        simulation stage — whether workers inherit state (fork) or rebuild
        it from the shipped sources (spawn)."""
        import multiprocessing

        if start_method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"{start_method} unavailable on this platform")
        items, serial = builtin_serial
        monkeypatch.setattr(executor, "preferred_start_method", lambda: start_method)
        parallel = BatchDriver(jobs=4, cache_dir=None).analyze_corpus(items)
        assert parallel.start_method == start_method
        assert not any(p.error for p in parallel.programs)
        assert parallel.function_count() >= 30
        assert _function_payloads(parallel) == _function_payloads(serial)
        for item in items:
            assert parallel.program(item.name).simulation == (
                serial.program(item.name).simulation
            ), item.name

    def test_work_stealing_still_lands_components_bottom_up(self, tmp_path):
        """With one slow program and one fast one sharing the pool, programs
        complete in an order unrelated to submission; the per-function
        reports must still equal a serial run (callees settled first)."""
        items = [
            i
            for i in corpus_named("builtin")
            if i.name in ("stress/callweb_48", "examples/list_sum")
        ]
        assert len(items) == 2
        serial = BatchDriver(jobs=1, cache_dir=None, simulate=False).analyze_corpus(items)
        parallel = BatchDriver(jobs=3, cache_dir=None, simulate=False).analyze_corpus(items)
        assert _function_payloads(parallel) == _function_payloads(serial)


class TestSimulationStage:
    def test_polynomial_program_simulates_with_speedup(self, paper_items, monkeypatch):
        item = next(i for i in paper_items if i.name == "paper/polynomial_scale")
        loops = _loops(item.source)

        def forbidden(*args, **kwargs):
            raise AssertionError("the simulation built an analysis")

        # it replays the reports' verdicts: no typecheck, no analysis
        monkeypatch.setattr(repro.pathmatrix.analysis, "check_program", forbidden)
        sim = simulate_program(_Source.split(item.source), PipelineOptions(), loops)
        assert sim["status"] == "simulated"
        assert sim["heaps_match"]
        assert sim["speedup"] > 1.0
        assert "scale" in sim["transformed_functions"]

    def test_barnes_hut_costs_are_pinned(self, paper_items):
        """Per-iteration costs are interpreter operation counts: the
        simulated schedule must not move when the interpreter changes."""
        item = next(i for i in paper_items if i.name == "paper/barnes_hut")
        sim = simulate_program(_Source.split(item.source), PipelineOptions(), _loops(item.source))
        assert sim["transformed_functions"] == ["bh_force_pass", "bh_update_pass"]
        assert (sim["sequential_cost"], sim["parallel_steps"]) == (122288.0, 16)
        assert sim["parallel_elapsed"] == pytest.approx(34018.16)
        assert sim["heaps_match"]

    @pytest.mark.parametrize(
        "tail, status, error",
        [
            ("while true { i = i + 1; }", "limit", "step budget of 2000 exhausted"),
            ("return down(100);", "limit", "call depth budget of 64 exhausted"),
            ("return 1 / 0;", "error", "integer division by zero"),
        ],
    )
    def test_failures_in_the_simulated_run_are_reported(
        self, monkeypatch, tail, status, error
    ):
        """The interpretations run on their own thread: what they raise must
        still come back as the report's status, whatever the caller's stack
        depth."""
        from repro.adds.library import standard_source
        from repro.driver import pipeline

        monkeypatch.setattr(pipeline, "SIMULATION_MAX_STEPS", 2000)
        source = standard_source("ListNode") + f"""
        function down(n) {{ if n == 0 then return 0; return down(n - 1) + 1; }}
        function scale(head, c)
        {{ var p;
          p = head;
          while p <> NULL
          {{ p->coef = p->coef * c;
            p = p->next;
          }}
          return head;
        }}
        function main()
        {{ var h; var i;
          h = NULL;
          i = 0;
          while i < 4
          {{ var q; q = new ListNode; q->next = h; h = q; i = i + 1; }}
          h = scale(h, 2);
          {tail}
        }}
        """

        loops = _loops(source)
        assert loops == [("scale", 0)]

        def nested(depth):
            if depth:
                return nested(depth - 1)
            return simulate_program(_Source.split(source), PipelineOptions(), loops)

        for depth in (0, 700):
            sim = nested(depth)
            assert sim["status"] == status, sim
            assert sim["error"].startswith(error), sim

    def test_heaps_that_differ_in_a_pointer_field_do_not_match(self, monkeypatch):
        """``heaps_match`` compares every field of every cell: a transformed
        run that computes the same data but links the list differently
        leaves another heap."""
        from repro.adds.library import standard_source
        from repro.driver import pipeline
        from repro.lang.ast_nodes import FieldAssign, Name, NullLit

        source = standard_source("ListNode") + """
        function scale(head, c)
        { var p;
          p = head;
          while p <> NULL
          { p->coef = p->coef * c;
            p = p->next;
          }
          return head;
        }
        function main()
        { var h; var i;
          h = NULL;
          i = 0;
          while i < 4
          { var q; q = new ListNode; q->coef = i; q->next = h; h = q; i = i + 1; }
          h = scale(h, 2);
        }
        """
        loops = _loops(source)
        assert simulate_program(_Source.split(source), PipelineOptions(), loops)["heaps_match"]
        strip_mine_program = pipeline.strip_mine_program

        def unlinking(program, loops, pes):
            stripped = strip_mine_program(program, loops, pes)
            main = stripped.program.function_named("main")
            main.body.statements.append(
                FieldAssign(base=Name("h"), field="next", value=NullLit())
            )
            return stripped

        monkeypatch.setattr(pipeline, "strip_mine_program", unlinking)
        sim = simulate_program(_Source.split(source), PipelineOptions(), loops)
        assert sim["status"] == "simulated"
        assert not sim["heaps_match"]

    def test_program_without_entry_reports_no_entry(self, paper_items):
        item = next(i for i in paper_items if i.name == "paper/subtree_move")
        sim = simulate_program(_Source.split(item.source), PipelineOptions(), _loops(item.source))
        assert sim["status"] == "no-entry"

    def test_program_without_parallel_loops(self):
        from repro.adds.library import standard_source

        source = standard_source("ListNode") + (
            "function main() { var p; p = new ListNode; p->coef = 1; return p; }"
        )
        assert _loops(source) == []
        sim = simulate_program(_Source.split(source), PipelineOptions(), [])
        assert sim["status"] == "no-parallel-loops"

    @pytest.mark.parametrize("use_adds", [True, False], ids=["adds", "no-adds"])
    def test_simulation_strip_mines_what_the_report_applies(self, use_adds):
        """The simulated program is rewritten under the run's own ADDS
        setting: exactly the functions with a loop whose report entry says
        strip-mining applies."""
        driver = BatchDriver(
            jobs=1, cache_dir=None, options=PipelineOptions(use_adds=use_adds)
        )
        batch = driver.analyze_corpus(corpus_named("builtin"))
        simulated = 0
        for program in batch.programs:
            if program.simulation["status"] == "no-entry":
                continue
            simulated += 1
            applied = sorted(
                name
                for name, payload in program.functions.items()
                if any(
                    loop["transforms"].get("strip_mine", {}).get("applied")
                    for loop in payload["loops"]
                )
            )
            transformed = program.simulation.get("transformed_functions", [])
            assert sorted(transformed) == applied, program.name
        assert simulated == 7


class TestRobustness:
    def test_parse_error_is_reported_not_raised(self, tmp_path):
        items = [CorpusItem(name="bad", source="function { nope")]
        batch = BatchDriver(jobs=1, cache_dir=tmp_path).analyze_corpus(items)
        report = batch.program("bad")
        assert report.error is not None and "parse" in report.error

    def test_a_type_declaration_that_does_not_parse_is_reported(self, tmp_path):
        """Even in a program without functions, where no component parses
        the type declarations."""
        items = [CorpusItem(name="bad", source="type T { int ; };\n")]
        batch = BatchDriver(jobs=1, cache_dir=tmp_path).analyze_corpus(items)
        assert batch.program("bad").error == (
            "parse error: expected field name, found ';' (line 1, col 14)"
        )

    def test_bad_program_does_not_abort_the_batch(self, paper_items):
        items = [CorpusItem(name="bad", source="type T {")] + [paper_items[0]]
        batch = BatchDriver(jobs=1, cache_dir=None).analyze_corpus(items)
        assert batch.program("bad").error is not None
        assert batch.program(paper_items[0].name).functions

    #: a program that does not typecheck, one way for each declaration check
    TYPE_ERRORS = {
        "function": ("function f() { return 1; }\nfunction f() { return 2; }\n",
                     "duplicate function 'f' (line 2)"),
        "type": ("type T { int a; };\ntype T { int b; };\nfunction f() { return 1; }\n",
                 "duplicate type declaration 'T' (line 2)"),
        "field": ("type T { int a;\n int a; };\nfunction f() { return 1; }\n",
                  "duplicate field 'a' in type 'T' (line 2)"),
        "parameter": ("function f(a,\n a) { return a; }\n",
                      "duplicate parameter 'a' in f (line 2)"),
        "unknown field type": ("type T { U *next; };\nfunction f() { return 1; }\n",
                               "field T.next has unknown type 'U' (line 1)"),
        "pointer to a scalar": ("type T { int *a; };\nfunction f() { return 1; }\n",
                                "field T.a: pointers to scalars are not supported (line 1)"),
        "ADDS on a scalar": ("type T [X] { int a is forward along X; };\n"
                             "function f() { return 1; }\n",
                             "field T.a: ADDS annotations only apply to pointer fields (line 1)"),
        "types only": ("type T { int a; };\ntype T { int b; };\n",
                       "duplicate type declaration 'T' (line 2)"),
    }

    @pytest.mark.parametrize("kind", sorted(TYPE_ERRORS))
    def test_type_error_is_reported_not_raised(self, kind, tmp_path):
        source, error = self.TYPE_ERRORS[kind]
        items = [CorpusItem(name="bad", source=source)]
        batch = BatchDriver(jobs=1, cache_dir=tmp_path).analyze_corpus(items)
        assert batch.program("bad").error == f"type error: {error}"
        assert batch.program("bad").functions == {}
        assert ResultCache(tmp_path).entry_count("program") == 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_type_error_does_not_abort_the_batch(self, jobs, tmp_path):
        """The program's error is the whole source's first diagnostic; every
        other program completes, no record holds the broken one, and the
        CLI exits 1."""
        bad = tmp_path / "dup.ptr"
        bad.write_text(
            "function f() { var x; x = 1; }\n"
            "function f() { var y; y = 2; }\n"
            "function main() { f(); }\n"
        )
        good = Path(__file__).resolve().parents[2] / "examples" / "corpus" / "list_sum.ptr"
        store, output = tmp_path / "store", tmp_path / "report.json"
        argv = ["analyze", str(bad), str(good), "--jobs", str(jobs)]
        argv += ["--cache-dir", str(store), "--output", str(output)]
        assert main(argv) == 1
        programs = json.loads(output.read_text())["programs"]
        assert [p["name"] for p in programs] == ["dup", "list_sum"]
        assert programs[0]["error"] == "type error: duplicate function 'f' (line 2)"
        alone = BatchDriver(jobs=1, cache_dir=None).analyze_corpus([load_source_file(good)])
        assert programs[1] == json.loads(json.dumps(alone.programs[0].to_dict()))
        assert programs[1]["simulation"]["status"] == "simulated"
        assert ResultCache(store).entry_count("program") == 1
