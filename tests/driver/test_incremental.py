"""The staged engine's incremental guarantees: summary-digest firewalling
(early cutoff), soundness of the firewall (summary- and return-type-changing
edits must invalidate callers), unchanged programs served whole from their
manifest and every fallback from that shortcut, line-relative artifact
sharing across offsets, and one store shared by every ``--jobs``.

The acceptance property throughout: an incremental run's report is
**bit-identical** to the same analysis from scratch — incrementality may
never change an answer, only skip work.
"""

import json
import shutil

import pytest

from repro.driver import stages as stages_module
from repro.driver.batch import BatchDriver
from repro.driver.cache import ResultCache, decode_entry, encode_entry
from repro.driver.cli import main
from repro.driver.corpus import CorpusItem, corpus_named
from repro.driver.pipeline import PipelineOptions
from repro.lang.split import split_declarations

TYPES = """
type ListNode [X]
{ int coef;
  int exp;
  ListNode *next is uniquely forward along X;
};
"""

BASE = TYPES + """
function leaf(p)
{ var s;
  s = 0;
  while p <> NULL
  { s = s + p->coef;
    p = p->next;
  }
  return s;
}

function caller(h)
{ var t;
  t = 0;
  while h <> NULL
  { t = t + leaf(h);
    h = h->next;
  }
  return t;
}

function unrelated(n)
{ var i;
  i = n + 1;
  return i;
}
"""


OTHER = TYPES + """
function reverse(p)
{ var r; var n;
  r = NULL;
  while p <> NULL
  { n = p->next;
    p->next = r;
    r = p;
    p = n;
  }
  return r;
}
"""


def _run(source, tmp_path, name="prog", jobs=1):
    driver = BatchDriver(jobs=jobs, cache_dir=tmp_path, simulate=False)
    report = driver.analyze_corpus([CorpusItem(name=name, source=source)])
    return report


def _scratch(source, name="prog"):
    """The same analysis with no cache at all — the reference answer."""
    driver = BatchDriver(jobs=1, cache_dir=None, simulate=False)
    report = driver.analyze_corpus([CorpusItem(name=name, source=source)])
    return {p.name: p.functions for p in report.programs}


class TestEarlyCutoff:
    def test_summary_preserving_edit_firewalls_callers(self, tmp_path):
        cold = _run(BASE, tmp_path)
        assert cold.analyses_executed == 3
        assert cold.incremental["dirty"] == 3

        # a body edit that leaves leaf's effect summary, preservation
        # verdict, and return type untouched
        edited = BASE.replace("function leaf(p)\n{ var s;",
                              "function leaf(p)\n{ var s; var pad;")
        assert edited != BASE
        warm = _run(edited, tmp_path)
        inc = warm.incremental

        # exactly ONE fixpoint reruns: the edited leaf itself
        assert warm.analyses_executed == 1
        assert inc["recomputed"] == 1
        assert inc["dirty"] == 1
        assert inc["fixpoints_run"] == 1
        # caller is served from cache despite its callee's body changing —
        # that is the summary-digest firewall
        assert inc["reused"] == 2
        assert inc["firewalled"] == 1
        assert inc["summaries_recomputed"] == 1  # leaf's SCC only

        # and the firewalled report is bit-identical to a from-scratch run
        assert {p.name: p.functions for p in warm.programs} == _scratch(edited)

    def test_summary_changing_edit_invalidates_callers(self, tmp_path):
        _run(BASE, tmp_path)
        # leaf now writes a data field: its effect summary (hence artifact
        # digest) changes, so caller must re-analyze
        edited = BASE.replace("s = s + p->coef;",
                              "p->exp = 0;\n    s = s + p->coef;")
        warm = _run(edited, tmp_path)
        inc = warm.incremental

        assert inc["dirty"] == 1  # only leaf's body changed...
        assert inc["recomputed"] == 2  # ...but leaf AND caller rerun
        assert inc["firewalled"] == 0
        assert inc["reused"] == 1  # unrelated
        assert {p.name: p.functions for p in warm.programs} == _scratch(edited)

    def test_return_type_change_invalidates_callers(self, tmp_path):
        # identical *effect* summaries (allocate + return fresh) that differ
        # only in the record type returned: the caller's environment is
        # inferred from the callee's return type, so firewalling on effects
        # alone would serve a stale caller verdict
        two_types = TYPES + """
type TreeNode [Y]
{ int coef;
  int exp;
  TreeNode *next is uniquely forward along Y;
};

function mk()
{ var p;
  p = new ListNode;
  return p;
}

function use()
{ var q;
  q = mk();
  q->coef = 1;
  return q;
}
"""
        _run(two_types, tmp_path, name="rt")
        edited = two_types.replace("p = new ListNode;", "p = new TreeNode;")
        warm = _run(edited, tmp_path, name="rt")
        inc = warm.incremental

        assert inc["dirty"] == 1
        assert inc["recomputed"] == 2  # mk AND use — no stale firewall
        assert inc["firewalled"] == 0
        assert {p.name: p.functions for p in warm.programs} == _scratch(
            edited, name="rt"
        )


    def test_adding_an_uncalled_function_recomputes_only_it(self, tmp_path):
        """No stage keys on the program's function-name set: a new function
        that nobody calls leaves every other report key untouched."""
        _run(BASE, tmp_path)
        edited = BASE + """
function extra(q)
{ var c;
  c = 0;
  while q <> NULL
  { q->coef = c;
    q = q->next;
  }
  return c;
}
"""
        driver = BatchDriver(jobs=1, cache_dir=tmp_path, simulate=False)
        warm = driver.analyze_corpus([CorpusItem(name="prog", source=edited)])
        inc = warm.incremental

        assert inc["dirty"] == 1
        assert inc["recomputed"] == 1
        assert inc["reused"] == 3
        assert driver.cache.stage_counters["report"]["hits"] == 3
        assert driver.cache.stage_counters["report"]["writes"] == 1
        assert {p.name: p.functions for p in warm.programs} == _scratch(edited)
        loop = warm.program("prog").functions["extra"]["loops"][0]
        assert loop["transforms"]["strip_mine"]["applied"]


#: a padding edit to ``leaf``: its body changes, its summary does not
PADDED = BASE.replace("function leaf(p)\n{ var s;", "function leaf(p)\n{ var s; var pad;")

#: the counters of a program served whole, one entry per function of BASE
SERVED_BASE = {
    "reused": 3,
    "summaries_reused": 3,
    "programs_unchanged": 1,
    "firewalled": 0,
    "recomputed": 0,
    "dirty": 0,
    "summaries_recomputed": 0,
    "fixpoints_run": 0,
}


def _count_parses(monkeypatch) -> list:
    """Record every source text the staged engine parses: whole programs and
    single declarations."""
    parsed: list = []
    real = stages_module.parse_program

    def counting(source, first_line=1):
        parsed.append(source)
        return real(source, first_line)

    monkeypatch.setattr(stages_module, "parse_program", counting)
    return parsed


def _declaration_texts(source, *names) -> list:
    """The text of ``source``'s type declarations and of the named functions,
    in source order."""
    return [
        d.text
        for d in split_declarations(source)
        if d.kind == "type" or d.name in names
    ]


def _functions(report) -> list:
    return [p.functions for p in report.programs]


class TestUnchangedPrograms:
    """A run serves a program whose source is byte-identical to its
    manifest's record straight from the named ``report`` artifacts, and
    falls through to the full path on every kind of mismatch."""

    def test_unchanged_program_is_served_unparsed_and_untypechecked(
        self, tmp_path, monkeypatch
    ):
        cold = _run(BASE, tmp_path)

        def forbidden(*args, **kwargs):
            raise AssertionError("an unchanged program was parsed or typechecked")

        monkeypatch.setattr(stages_module, "parse_program", forbidden)
        monkeypatch.setattr("repro.pathmatrix.analysis.check_program", forbidden)
        warm = _run(BASE, tmp_path)

        assert warm.program("prog").to_dict() == cold.program("prog").to_dict()
        assert json.dumps(warm.to_dict()["programs"], sort_keys=True) == json.dumps(
            cold.to_dict()["programs"], sort_keys=True
        )
        assert warm.incremental == SERVED_BASE
        assert warm.cache_hits == 3
        assert warm.analyses_executed == 0

    def test_edit_serves_the_untouched_program_whole(self, tmp_path, monkeypatch):
        items = [CorpusItem(name="prog", source=BASE), CorpusItem(name="other", source=OTHER)]
        driver = BatchDriver(jobs=1, cache_dir=tmp_path, simulate=False)
        driver.analyze_corpus(items)

        parsed = _count_parses(monkeypatch)
        items[0] = CorpusItem(name="prog", source=PADDED)
        warm = BatchDriver(jobs=1, cache_dir=tmp_path, simulate=False).analyze_corpus(items)
        inc = warm.incremental

        # only the edited declaration (and the types its keys cover)
        assert sorted(parsed) == sorted(_declaration_texts(PADDED, "leaf"))
        assert inc["programs_unchanged"] == 1
        assert inc["recomputed"] == 1
        assert inc["dirty"] == 1
        assert inc["fixpoints_run"] == 1
        assert inc["firewalled"] == 1
        assert inc["reused"] == 2 + 1  # prog's callers + other's one function
        scratch = BatchDriver(jobs=1, cache_dir=None, simulate=False).analyze_corpus(items)
        assert _functions(warm) == _functions(scratch)
        assert [p.schedule for p in warm.programs] == [p.schedule for p in scratch.programs]

    def test_reverted_edit_is_not_served_whole(self, tmp_path):
        """A -> B -> A: the manifest records B, so the third run takes the
        full path and counts exactly what the engine always counted."""
        _run(BASE, tmp_path)
        _run(PADDED, tmp_path)
        reverted = _run(BASE, tmp_path)
        assert reverted.incremental == {
            "reused": 3,
            "firewalled": 1,
            "recomputed": 0,
            "dirty": 1,
            "summaries_reused": 3,
            "summaries_recomputed": 0,
            "fixpoints_run": 0,
            "programs_unchanged": 0,
        }
        assert _functions(reverted) == [_scratch(BASE)["prog"]]
        assert _run(BASE, tmp_path).incremental == SERVED_BASE

    def test_garbled_report_is_evicted_once_and_falls_through(self, tmp_path, monkeypatch):
        cold = _run(BASE, tmp_path)
        victim = sorted((tmp_path / "report").glob("*.json"))[0]
        victim.write_text("garbage {{{")

        parsed = _count_parses(monkeypatch)
        healed = _run(BASE, tmp_path)
        assert parsed == [BASE]
        assert healed.resilience.cache_evictions == 1
        assert healed.incremental == dict(
            SERVED_BASE, programs_unchanged=0, reused=2, recomputed=1, fixpoints_run=1
        )
        assert json.dumps(_functions(healed), sort_keys=True) == json.dumps(
            _functions(cold), sort_keys=True
        )
        # the full path rewrote the report: served whole again
        assert _run(BASE, tmp_path).incremental == SERVED_BASE

    def test_missing_report_falls_through(self, tmp_path):
        cold = _run(BASE, tmp_path)
        sorted((tmp_path / "report").glob("*.json"))[-1].unlink()
        healed = _run(BASE, tmp_path)
        assert healed.resilience.cache_evictions == 0
        assert healed.incremental == dict(
            SERVED_BASE, programs_unchanged=0, reused=2, recomputed=1, fixpoints_run=1
        )
        assert json.dumps(_functions(healed), sort_keys=True) == json.dumps(
            _functions(cold), sort_keys=True
        )
        assert _run(BASE, tmp_path).incremental == SERVED_BASE

    def test_manifest_without_source_digest_falls_through_and_is_rewritten(
        self, tmp_path, monkeypatch
    ):
        cold = _run(BASE, tmp_path)
        (manifest_path,) = (tmp_path / "manifest").glob("*.json")
        manifest = decode_entry(manifest_path.read_text())
        # a record as earlier versions wrote it: no source digest, and no
        # declaration digests, callees or summary keys to build a cone from
        older = {
            "functions": {
                name: {"summary": entry["summary"], "report": entry["report"]}
                for name, entry in manifest["functions"].items()
            }
        }
        manifest_path.write_text(encode_entry(older))

        parsed = _count_parses(monkeypatch)
        warm = _run(BASE, tmp_path)
        assert parsed == [BASE]
        # with no declaration digests recorded, every function counts dirty
        assert warm.incremental == dict(SERVED_BASE, programs_unchanged=0, dirty=3)
        assert _functions(warm) == _functions(cold)
        assert decode_entry(manifest_path.read_text()) == manifest

        assert _run(BASE, tmp_path).incremental == SERVED_BASE
        assert parsed == [BASE]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_programs_sharing_a_name_are_never_served_each_others_reports(
        self, tmp_path, jobs
    ):
        expected = [_scratch(BASE)["prog"], _scratch(OTHER)["prog"]]
        items = [CorpusItem(name="prog", source=BASE), CorpusItem(name="prog", source=OTHER)]
        for _ in range(3):
            driver = BatchDriver(jobs=jobs, cache_dir=tmp_path, simulate=False)
            report = driver.analyze_corpus(items)
            assert _functions(report) == expected
            # one name, one manifest: a shared name neither reads nor writes
            # it, so it is never served whole and every function is dirty
            assert report.incremental["programs_unchanged"] == 0
            assert report.incremental["dirty"] == 3 + 1
        assert not (tmp_path / "manifest").exists()

        # alone, a program is served only from a record of its own source
        base = _run(BASE, tmp_path)
        assert base.incremental["programs_unchanged"] == 0
        assert _functions(base) == [expected[0]]
        assert _run(BASE, tmp_path).incremental["programs_unchanged"] == 1
        other = _run(OTHER, tmp_path)
        assert other.incremental["programs_unchanged"] == 0
        assert _functions(other) == [expected[1]]

    def test_options_partition_the_manifest(self, tmp_path):
        _run(BASE, tmp_path)
        driver = BatchDriver(
            jobs=1,
            cache_dir=tmp_path,
            simulate=False,
            options=PipelineOptions(use_adds=False),
        )
        report = driver.analyze_corpus([CorpusItem(name="prog", source=BASE)])
        assert report.incremental["programs_unchanged"] == 0
        no_adds = BatchDriver(
            jobs=1, cache_dir=None, simulate=False, options=PipelineOptions(use_adds=False)
        ).analyze_corpus([CorpusItem(name="prog", source=BASE)])
        assert _functions(report) == _functions(no_adds)

    def test_pooled_run_serves_an_unchanged_program_without_a_pool(
        self, tmp_path, monkeypatch
    ):
        cold = _run(BASE, tmp_path)

        def forbidden(*args, **kwargs):
            raise AssertionError("an unchanged program was parsed")

        monkeypatch.setattr(stages_module, "parse_program", forbidden)
        warm = _run(BASE, tmp_path, jobs=2)
        assert warm.incremental == SERVED_BASE
        assert warm.effective_jobs == 1
        assert warm.start_method is None
        assert _functions(warm) == _functions(cold)

    def test_resimulation_of_a_served_program_keeps_the_profile(self, tmp_path):
        """A run that re-simulated but recomputed no function still reports
        its timing (it used to read flags the simulation had cleared)."""
        item = CorpusItem(name="prog", source=BASE + "\nfunction main()\n{ return 0; }\n")
        BatchDriver(jobs=1, cache_dir=tmp_path).analyze_corpus([item])
        shutil.rmtree(tmp_path / "sim")
        report = BatchDriver(jobs=1, cache_dir=tmp_path).analyze_corpus([item])
        assert report.simulation_cache_hits == 0
        assert report.analyses_executed == 0
        assert report.program("prog").simulation is not None
        assert report.profile is not None
        assert report.profile["totals"]["tasks"] == 1
        assert report.profile["totals"]["functions"] == 0
        assert report.incremental["programs_unchanged"] == 1

    def test_served_programs_are_counted_in_both_report_lines(self, tmp_path, capsys):
        source = tmp_path / "prog.ptr"
        source.write_text(BASE)
        store = str(tmp_path / "store")
        argv = ["analyze", str(source), "--jobs", "1", "--no-simulate", "--cache-dir", store]
        assert main(argv) == 0
        assert "0 program(s) served unchanged" in capsys.readouterr().out
        assert main(argv) == 0
        assert "1 program(s) served unchanged" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", store]) == 0
        last_run = [
            line
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("last run:") and "reused" in line
        ]
        assert last_run == [
            "last run: 3 reused, 0 firewalled (firewall rate 0.0%), 0 recomputed, "
            "0 fixpoint(s), 1 program(s) served unchanged"
        ]


class TestRetiredStages:
    """The ``parse`` and ``typecheck`` stages were written and never read;
    ``analysis``, ``loops`` and ``transforms`` were read only to rebuild a
    lost report."""

    def test_cold_run_writes_no_parse_or_typecheck_artifacts(self, tmp_path):
        _run(BASE, tmp_path)
        assert (tmp_path / "report").is_dir()
        assert not (tmp_path / "parse").exists()
        assert not (tmp_path / "typecheck").exists()

    def test_cold_run_writes_one_report_per_function_and_nothing_else(self, tmp_path):
        # five functions, each its own component; both programs record a
        # simulation (BASE's says it has no entry)
        items = [
            CorpusItem(name="prog", source=BASE),
            CorpusItem(name="other", source=OTHER + "\nfunction main()\n{ return 0; }\n"),
        ]
        driver = BatchDriver(jobs=1, cache_dir=tmp_path)
        report = driver.analyze_corpus(items)
        assert report.incremental["recomputed"] == 5
        stages = {p.parent.name for p in tmp_path.rglob("*.json") if p.parent != tmp_path}
        assert stages == {"summary", "report", "sim", "manifest"}
        written = {
            stage: counters["writes"]
            for stage, counters in driver.cache.stage_counters.items()
        }
        assert written == {"summary": 5, "report": 5, "sim": 2, "manifest": 2}
        for stage, count in written.items():
            assert len(list((tmp_path / stage).glob("*.json"))) == count, stage

    @pytest.mark.parametrize(
        "retired", ["parse", "typecheck", "analysis", "loops", "transforms"]
    )
    def test_clear_empties_a_store_that_has_them(self, tmp_path, capsys, retired):
        _run(BASE, tmp_path)
        stage_dir = tmp_path / retired
        stage_dir.mkdir(exist_ok=True)
        (stage_dir / "0123.json").write_text(encode_entry({"body": "x"}))
        assert ResultCache(tmp_path).verify()["corrupt"] == []
        before = ResultCache(tmp_path).entry_count()

        assert main(["cache", "--clear", "--cache-dir", str(tmp_path)]) == 0
        assert f"removed {before} cached result(s)" in capsys.readouterr().out
        assert list(tmp_path.rglob("*.json")) == []


class TestLineRelativeSharing:
    def test_shifted_program_reuses_every_artifact(self, tmp_path):
        cold = _run(BASE, tmp_path, name="orig")
        # the same bytes four lines further down, as a *different* program
        shifted = "\n\n\n\n" + BASE
        warm = _run(shifted, tmp_path, name="shifted")

        # nothing re-runs: every stage key is offset-independent
        assert warm.analyses_executed == 0
        assert warm.incremental["recomputed"] == 0
        assert warm.incremental["fixpoints_run"] == 0
        assert warm.cache_hits == 3

        # but the probed reports carry correct *absolute* diagnostics
        assert {p.name: p.functions for p in warm.programs} == _scratch(
            shifted, name="shifted"
        )
        orig_fns = {p.name: p.functions for p in cold.programs}["orig"]
        warm_fns = {p.name: p.functions for p in warm.programs}["shifted"]
        for fn in ("leaf", "caller"):
            (orig_loop,) = orig_fns[fn]["loops"]
            (shift_loop,) = warm_fns[fn]["loops"]
            assert shift_loop["line"] == orig_loop["line"] + 4

    def test_edit_in_one_function_leaves_shifted_neighbors_cached(self, tmp_path):
        """Inserting a line in ``leaf`` shifts every function below it; the
        neighbors' artifacts must still hit (this was PR 7's cache-miss bug,
        worked around then by keying on the offset)."""
        _run(BASE, tmp_path)
        edited = BASE.replace("function leaf(p)\n{ var s;",
                              "function leaf(p)\n{ var s;\n  var pad;")
        assert edited.count("\n") == BASE.count("\n") + 1
        warm = _run(edited, tmp_path)
        assert warm.incremental["dirty"] == 1
        assert warm.incremental["reused"] == 2
        assert {p.name: p.functions for p in warm.programs} == _scratch(edited)


class TestOneStoreAtEveryJobs:
    """Every ``--jobs`` runs the same engine over the same keys, so a run
    at one job count reuses everything a run at another wrote."""

    @pytest.mark.parametrize("first, second", [(1, 2), (2, 1)])
    def test_a_rerun_at_another_job_count_analyzes_nothing(
        self, tmp_path, first, second
    ):
        items = corpus_named("builtin")
        cold = BatchDriver(jobs=first, cache_dir=tmp_path).analyze_corpus(items)
        warm = BatchDriver(jobs=second, cache_dir=tmp_path).analyze_corpus(items)
        assert warm.analyses_executed == 0
        assert warm.incremental["fixpoints_run"] == 0
        assert warm.incremental["programs_unchanged"] == len(items)
        assert warm.effective_jobs == 1  # no pool started
        assert warm.to_dict()["programs"] == cold.to_dict()["programs"]

    def test_an_edit_after_a_pooled_run_is_firewalled(self, tmp_path):
        _run(BASE, tmp_path, jobs=2)
        warm = _run(PADDED, tmp_path)
        inc = warm.incremental
        assert (inc["dirty"], inc["recomputed"], inc["fixpoints_run"], inc["firewalled"]) == (
            1, 1, 1, 1,
        )
        assert _functions(warm) == [_scratch(PADDED)["prog"]]

    def test_a_pooled_cold_run_writes_what_a_serial_one_writes(self, tmp_path):
        """Pool workers write summaries, reports, simulations and manifests
        themselves; the ledger counts their writes."""
        items = [
            CorpusItem(name="prog", source=BASE),
            CorpusItem(name="other", source=OTHER + "\nfunction main()\n{ return 0; }\n"),
        ]
        writes = {}
        for jobs in (1, 2):
            store = tmp_path / f"jobs{jobs}"
            BatchDriver(jobs=jobs, cache_dir=store).analyze_corpus(items)
            ledger = ResultCache(store).read_ledger()
            writes[jobs] = {stage: c["writes"] for stage, c in ledger["stages"].items()}
        assert writes[2] == writes[1] == {"summary": 5, "report": 5, "sim": 2, "manifest": 2}
