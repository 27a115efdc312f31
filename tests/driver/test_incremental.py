"""The staged engine's incremental guarantees: summary-digest firewalling
(early cutoff), soundness of the firewall (summary- and return-type-changing
edits must invalidate callers), unchanged programs served whole from their
record and every fallback from that shortcut, artifact sharing across
offsets within a program, one record per program whatever else the store
holds, one store shared by every ``--jobs``, and the store files each kind
of run reads and writes.

The acceptance property throughout: an incremental run's report is
**bit-identical** to the same analysis from scratch — incrementality may
never change an answer, only skip work.
"""

import hashlib
import json
import pathlib
import re

import pytest

from repro.driver import stages as stages_module
from repro.driver.batch import BatchDriver
from repro.driver.cache import (
    CACHE_VERSION,
    RECORD_SUFFIX,
    Record,
    ResultCache,
    decode_record,
    encode_record,
)
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


def _records(store) -> list:
    """The store's record files, one per program."""
    return sorted((ResultCache(store).live / "program").glob(f"*{RECORD_SUFFIX}"))


def _read(path) -> Record:
    return decode_record(path.read_bytes())


def _rewrite(path, change) -> Record:
    """Apply ``change`` to the record at ``path`` and store it back with a
    valid checksum; return the record as it was."""
    record = _read(path)
    changed = _read(path)
    change(changed)
    path.write_bytes(encode_record(changed))
    return record


def _v13_entry(payload: dict) -> str:
    """A store file as cache versions 11 to 13 wrote it: one JSON checksum
    wrapper around the payload's canonical JSON."""
    canonical = json.dumps(payload, sort_keys=True)
    digest = hashlib.sha256(canonical.encode()).hexdigest()
    return json.dumps({"payload": payload, "sha256": digest}, sort_keys=True)


def _stage(record: Record, stage: str) -> dict[str, str]:
    """Key -> text of the record's artifacts of ``stage``."""
    return {key: text for (kind, key), text in record.artifacts.items() if kind == stage}


class TestEarlyCutoff:
    def test_summary_preserving_edit_firewalls_callers(self, tmp_path):
        cold = _run(BASE, tmp_path)
        assert cold.incremental["recomputed"] == 3
        assert cold.incremental["dirty"] == 3

        # a body edit that leaves leaf's effect summary, preservation
        # verdict, and return type untouched
        edited = BASE.replace("function leaf(p)\n{ var s;",
                              "function leaf(p)\n{ var s; var pad;")
        assert edited != BASE
        warm = _run(edited, tmp_path)
        inc = warm.incremental

        # exactly ONE fixpoint reruns: the edited leaf itself
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
        (path,) = _records(tmp_path)
        before = _stage(_read(path), "report")
        driver = BatchDriver(jobs=1, cache_dir=tmp_path, simulate=False)
        warm = driver.analyze_corpus([CorpusItem(name="prog", source=edited)])
        inc = warm.incremental

        assert inc["dirty"] == 1
        assert inc["recomputed"] == 1
        assert inc["reused"] == 3
        # one record read and one written, which holds the three reports the
        # last one held and the new function's
        assert driver.cache.stage_counters == {"program": {"hits": 1, "misses": 0, "writes": 1}}
        after = _stage(_read(path), "report")
        assert len(after) == 4
        assert all(after.get(key) == entry for key, entry in before.items())
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
    "simulations_reused": 0,
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
    record's straight from the reports the record holds, and falls through
    to the walk on every kind of mismatch, which reopens every component
    when the record cannot serve what its manifest names."""

    def test_unchanged_program_is_served_unparsed_and_untypechecked(
        self, tmp_path, monkeypatch
    ):
        cold = _run(BASE, tmp_path)
        (path,) = _records(tmp_path)
        summaries = set(_stage(_read(path), "summary").values())
        assert len(summaries) == 3

        def forbidden(*args, **kwargs):
            raise AssertionError("an unchanged program was parsed, typechecked or summarized")

        monkeypatch.setattr(stages_module, "parse_program", forbidden)
        monkeypatch.setattr("repro.pathmatrix.analysis.check_program", forbidden)
        # nor is a summary decoded: the record keeps each one as its text
        decodes = _Decodes(monkeypatch)
        warm = _run(BASE, tmp_path)
        assert not summaries & set(decodes.texts)

        assert warm.program("prog").to_dict() == cold.program("prog").to_dict()
        assert json.dumps(warm.to_dict()["programs"], sort_keys=True) == json.dumps(
            cold.to_dict()["programs"], sort_keys=True
        )
        assert warm.incremental == SERVED_BASE

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
        """A -> B -> A: the manifest records B, so the third run walks the
        declarations and counts exactly what the engine always counted."""
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
            "simulations_reused": 0,
        }
        assert _functions(reverted) == [_scratch(BASE)["prog"]]
        assert _run(BASE, tmp_path).incremental == SERVED_BASE

    def test_a_new_simulation_keeps_the_carried_generation(self, tmp_path):
        """A -> B, then B simulated: the record only gains B's simulation,
        so it still carries A's reports and the revert to A reuses them."""
        _run(BASE, tmp_path)
        _run(PADDED, tmp_path)
        simulated = BatchDriver(jobs=1, cache_dir=tmp_path).analyze_corpus(
            [CorpusItem(name="prog", source=PADDED)]
        )
        assert simulated.incremental["programs_unchanged"] == 1
        assert simulated.store["stages"]["program"]["writes"] == 1
        reverted = _run(BASE, tmp_path)
        assert (reverted.incremental["recomputed"], reverted.incremental["reused"]) == (0, 3)

    def test_garbled_record_is_evicted_once_and_costs_its_own_program(
        self, tmp_path, monkeypatch
    ):
        items = [CorpusItem(name="prog", source=BASE), CorpusItem(name="other", source=OTHER)]
        driver = BatchDriver(jobs=1, cache_dir=tmp_path, simulate=False)
        cold = driver.analyze_corpus(items)
        victim = (
            ResultCache(tmp_path).live
            / "program"
            / f"{driver.engine.record_key('prog')}{RECORD_SUFFIX}"
        )
        victim.write_text("garbage {{{")

        parsed = _count_parses(monkeypatch)
        healed = BatchDriver(jobs=1, cache_dir=tmp_path, simulate=False).analyze_corpus(items)
        # prog's walk started from nothing: each declaration parsed once
        assert sorted(parsed) == sorted(_declaration_texts(BASE, "leaf", "caller", "unrelated"))
        assert healed.store["evictions"] == 1
        assert healed.store["stages"]["program"] == {"hits": 1, "misses": 1, "writes": 1}
        # every function of prog is recomputed; other is served whole
        assert healed.incremental == dict(
            SERVED_BASE,
            reused=1,
            summaries_reused=1,
            recomputed=3,
            dirty=3,
            summaries_recomputed=3,
            fixpoints_run=cold.incremental["fixpoints_run"] - 1,
        )
        assert json.dumps(_functions(healed), sort_keys=True) == json.dumps(
            _functions(cold), sort_keys=True
        )
        # the walk rewrote the record: both programs are served whole again
        again = BatchDriver(jobs=1, cache_dir=tmp_path, simulate=False).analyze_corpus(items)
        assert again.incremental["programs_unchanged"] == 2

    def test_a_record_without_a_report_recomputes_that_function(self, tmp_path):
        cold = _run(BASE, tmp_path)
        (path,) = _records(tmp_path)

        def drop_report(record):
            del record.artifacts["report", record.manifest["functions"]["leaf"]["report"]]

        _rewrite(path, drop_report)
        healed = _run(BASE, tmp_path)
        assert healed.store["evictions"] == 0
        # leaf's summary is still served; its report alone is recomputed
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
        (path,) = _records(tmp_path)

        def older(record):
            # a manifest as earlier versions wrote it: no source digest, and
            # no declaration digests, callees or summary keys to build a
            # cone from
            record.manifest = {
                "functions": {
                    name: {"summary": entry["summary"], "report": entry["report"]}
                    for name, entry in record.manifest["functions"].items()
                }
            }

        original = _rewrite(path, older)

        parsed = _count_parses(monkeypatch)
        warm = _run(BASE, tmp_path)
        every_declaration = sorted(_declaration_texts(BASE, "leaf", "caller", "unrelated"))
        assert sorted(parsed) == every_declaration
        # with no declaration digests recorded, every function counts dirty
        assert warm.incremental == dict(SERVED_BASE, programs_unchanged=0, dirty=3)
        assert _functions(warm) == _functions(cold)
        assert _read(path) == original

        assert _run(BASE, tmp_path).incremental == SERVED_BASE
        assert sorted(parsed) == every_declaration

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
            # one name, one record: a shared name neither reads nor writes
            # it, so it is never served whole and every function is dirty
            assert report.incremental["programs_unchanged"] == 0
            assert report.incremental["dirty"] == 3 + 1
        assert _records(tmp_path) == []

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
        (path,) = _records(tmp_path)

        def drop_simulations(record):
            record.artifacts = {
                named: text for named, text in record.artifacts.items() if named[0] != "sim"
            }

        _rewrite(path, drop_simulations)
        report = BatchDriver(jobs=1, cache_dir=tmp_path).analyze_corpus([item])
        assert report.incremental["simulations_reused"] == 0
        assert report.incremental["recomputed"] == 0
        assert report.program("prog").simulation is not None
        assert report.incremental["programs_unchanged"] == 1
        # the new simulation joined the record, which is otherwise unchanged
        before = _read(path)
        again = BatchDriver(jobs=1, cache_dir=tmp_path).analyze_corpus([item])
        assert again.incremental["simulations_reused"] == 1
        assert again.store["stages"]["program"]["writes"] == 0
        assert _read(path) == before
        assert [json.loads(text) for text in _stage(before, "sim").values()] == [
            report.program("prog").simulation
        ]

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


class _Decodes:
    """Every text ``json.loads`` decodes while it is installed."""

    def __init__(self, monkeypatch):
        self.texts: list[str] = []
        real = json.loads

        def loads(text, *args, **kwargs):
            self.texts.append(text)
            return real(text, *args, **kwargs)

        monkeypatch.setattr(json, "loads", loads)


class TestServedWholeUndecoded:
    """A program served whole decodes its manifest and its simulation and
    nothing else: ``--output`` splices its reports in as the record holds
    them, and its text report and exit status come from the facts its
    manifest keeps."""

    @pytest.mark.parametrize("corpus", ["builtin", "bench", "paper", "examples", "stress"])
    def test_a_served_batch_decodes_no_report_and_no_summary(
        self, tmp_path, monkeypatch, capsys, corpus
    ):
        store = tmp_path / "store"

        def analyze(jobs: str, output) -> int:
            return main(
                ["analyze", "--corpus", corpus, "--jobs", jobs, "--cache-dir", str(store)]
                + ["--output", str(output)]
            )

        cold_rc = analyze("1", tmp_path / "cold.json")
        cold_text = capsys.readouterr().out
        artifacts = set()
        for path in _records(store):
            for (stage, _), text in _read(path).artifacts.items():
                if stage == "summary":
                    artifacts.add(text)
                elif stage == "report":
                    artifacts.add(text.partition(" ")[2])
        programs = len(corpus_named(corpus))
        assert len(_records(store)) == programs

        for jobs in ("1", "2"):
            output = tmp_path / f"warm{jobs}.json"
            with monkeypatch.context() as patch:
                decodes = _Decodes(patch)
                warm_rc = analyze(jobs, output)
            warm_text = capsys.readouterr().out
            assert warm_rc == cold_rc
            # each program's manifest was decoded; no report and no summary was
            assert len(decodes.texts) >= programs
            assert not artifacts & set(decodes.texts)

            cold, warm = json.loads((tmp_path / "cold.json").read_text()), json.loads(
                output.read_text()
            )
            assert warm["stats"]["incremental"]["programs_unchanged"] == programs
            assert output.read_text() == json.dumps(warm, sort_keys=True)
            assert json.dumps(warm["programs"], sort_keys=True) == json.dumps(
                cold["programs"], sort_keys=True
            )
            # the text report: the programs' sections are the cold run's
            sections = [text.rsplit("\n\n", 1)[0] for text in (cold_text, warm_text)]
            assert sections[1] == sections[0]


class TestStoreLayout:
    """Runs read and write only this store version's records, one per
    program; whatever else the store holds is stale, which the cache
    commands list apart and ``--clear`` removes."""

    def test_cold_run_writes_no_parse_or_typecheck_artifacts(self, tmp_path):
        _run(BASE, tmp_path)
        assert len(_records(tmp_path)) == 1
        assert not (tmp_path / "parse").exists()
        assert not (tmp_path / "typecheck").exists()

    def test_cold_run_writes_one_record_per_program_and_nothing_else(self, tmp_path):
        # five functions, each its own component; both programs record a
        # simulation (BASE's says it has no entry)
        items = [
            CorpusItem(name="prog", source=BASE),
            CorpusItem(name="other", source=OTHER + "\nfunction main()\n{ return 0; }\n"),
        ]
        driver = BatchDriver(jobs=1, cache_dir=tmp_path)
        report = driver.analyze_corpus(items)
        assert report.incremental["recomputed"] == 5
        files = {p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file()}
        assert files == {"last-run.json"} | {
            f"v{CACHE_VERSION}/program/{driver.engine.record_key(item.name)}{RECORD_SUFFIX}"
            for item in items
        }
        assert driver.cache.stage_counters == {"program": {"hits": 0, "misses": 2, "writes": 2}}
        # each record: one summary per component, one report per function,
        # the simulation, and the manifest that names them
        live = ResultCache(tmp_path).live / "program"
        for name, functions in (("prog", 3), ("other", 2)):
            record = _read(live / f"{driver.engine.record_key(name)}{RECORD_SUFFIX}")
            assert {stage for stage, _ in record.artifacts} == {"summary", "report", "sim"}
            assert tuple(len(_stage(record, stage)) for stage in ("summary", "report", "sim")) == (
                functions, functions, 1,
            )
            assert len(record.manifest["functions"]) == functions

    @pytest.mark.parametrize(
        "retired",
        [
            "parse", "typecheck", "analysis", "loops", "transforms",
            "summary", "report", "sim", "manifest",
        ],
    )
    def test_clear_empties_a_store_that_has_them(self, tmp_path, capsys, retired):
        _run(BASE, tmp_path)
        stage_dir = tmp_path / retired
        stage_dir.mkdir(exist_ok=True)
        (stage_dir / "0123.json").write_text(_v13_entry({"body": "x"}))
        cache = ResultCache(tmp_path)
        assert cache.verify()["corrupt"] == []
        assert cache.entry_count() == 1
        assert set(cache.stale()) == {retired}

        assert main(["cache", "--clear", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 1 cached result(s) and 1 stale file(s)" in capsys.readouterr().out
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []

    def test_older_store_versions_are_stale_not_cached(self, tmp_path, capsys):
        """A store a version 12 run filled (one tree per stage), older
        retired stages, a version 13 run's records, another version's
        records and a flat pre-version-6 entry: none of it is counted or
        audited as a cached result, each is listed as stale with its files
        and bytes, and ``--clear`` removes all of it and this version's
        records, and leaves ``quarantine/``."""
        _run(BASE, tmp_path)
        stale = {
            stage: [tmp_path / stage / f"{i:064x}.json" for i in range(2)]
            for stage in ("summary", "report", "sim", "manifest", "parse")
        }
        stale["v13"] = [tmp_path / "v13" / "program" / f"{i:064x}.json" for i in range(2)]
        stale["v99"] = [tmp_path / "v99" / "program" / f"{0:064x}{RECORD_SUFFIX}"]
        stale["0123.json"] = [tmp_path / "0123.json"]
        for paths in stale.values():
            for path in paths:
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(_v13_entry({"stale": path.name}))
        quarantined = tmp_path / "quarantine" / "prog.json"
        quarantined.parent.mkdir()
        quarantined.write_text("{}")

        cache = ResultCache(tmp_path)
        assert cache.entry_count() == 1
        assert cache.verify() == {"checked": 1, "ok": 1, "corrupt": [], "evicted": 0}
        assert cache.stale() == {
            name: (len(paths), sum(p.stat().st_size for p in paths))
            for name, paths in stale.items()
        }
        store = str(tmp_path)
        for argv, live in (
            (["cache"], f"{store}: 1 cached result(s)"),
            (["cache", "stats"], f"{store}: 1 record(s)"),
            (["cache", "verify"], f"{store}: 1 entr(ies) checked, 1 ok, 0 corrupt"),
        ):
            assert main(argv + ["--cache-dir", store]) == 0
            out = capsys.readouterr().out
            assert live in out, argv
            for name, paths in stale.items():
                assert re.search(rf"stale {re.escape(name)} +{len(paths)} file\(s\)", out), name

        assert main(["cache", "--clear", "--cache-dir", store]) == 0
        stale_files = sum(len(paths) for paths in stale.values())
        assert f"removed 1 cached result(s) and {stale_files} stale file(s)" in (
            capsys.readouterr().out
        )
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == [quarantined]
        assert ResultCache(tmp_path).stale() == {}


class TestLineRelativeSharing:
    def test_shifted_program_reuses_every_artifact(self, tmp_path):
        cold = _run(BASE, tmp_path)
        # the same program four lines further down
        shifted = "\n\n\n\n" + BASE
        warm = _run(shifted, tmp_path)

        # nothing re-runs: every stage key is offset-independent
        assert warm.incremental["programs_unchanged"] == 0
        assert warm.incremental["dirty"] == 0
        assert warm.incremental["recomputed"] == 0
        assert warm.incremental["fixpoints_run"] == 0
        assert warm.incremental["reused"] == 3

        # but the served reports carry correct *absolute* diagnostics
        assert _functions(warm) == [_scratch(shifted)["prog"]]
        orig_fns = cold.program("prog").functions
        warm_fns = warm.program("prog").functions
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
        assert warm.incremental["recomputed"] == 0
        assert warm.incremental["fixpoints_run"] == 0
        assert warm.incremental["programs_unchanged"] == len(items)
        assert warm.effective_jobs == 1  # no pool started
        assert warm.to_dict()["programs"] == cold.to_dict()["programs"]

    def test_a_pooled_driver_serves_its_own_last_run_whole(self, tmp_path):
        """A worker publishes the records of the programs it runs, so the
        coordinator does not keep the records it read of them: the same
        driver's next run reads them afresh and serves every program whole,
        without a pool."""
        items = [CorpusItem(name="prog", source=BASE), CorpusItem(name="other", source=OTHER)]
        driver = BatchDriver(jobs=2, cache_dir=tmp_path, simulate=False)
        cold = driver.analyze_corpus(items)
        warm = driver.analyze_corpus(items)
        assert warm.incremental["programs_unchanged"] == 2
        assert warm.incremental["recomputed"] == 0
        assert warm.effective_jobs == 1
        assert _functions(warm) == _functions(cold)

    def test_an_edit_after_a_pooled_run_is_firewalled(self, tmp_path):
        _run(BASE, tmp_path, jobs=2)
        warm = _run(PADDED, tmp_path)
        inc = warm.incremental
        assert (inc["dirty"], inc["recomputed"], inc["fixpoints_run"], inc["firewalled"]) == (
            1, 1, 1, 1,
        )
        assert _functions(warm) == [_scratch(PADDED)["prog"]]

    @pytest.mark.parametrize("same_engine", [True, False])
    def test_a_copy_under_another_name_reads_only_its_own_record(self, tmp_path, same_engine):
        """One program, one record: a copy of a program under another name
        reads no record but its own, which does not exist yet, so it
        recomputes every function, on the engine that just ran the original
        as on another engine over the same store (as two pool workers are)."""
        first = BatchDriver(jobs=1, cache_dir=tmp_path, simulate=False)
        cold = first.analyze_corpus([CorpusItem(name="prog", source=BASE)])
        driver = first if same_engine else BatchDriver(jobs=1, cache_dir=tmp_path, simulate=False)
        before = driver.cache.counters()
        copy = driver.analyze_corpus([CorpusItem(name="prog copy", source=BASE)])
        assert driver.cache.counters(since=before)["stages"]["program"] == {
            "hits": 0, "misses": 1, "writes": 1,
        }
        assert copy.incremental == cold.incremental
        assert copy.incremental["recomputed"] == 3
        assert _functions(copy) == _functions(cold) == [_scratch(BASE)["prog"]]
        assert len(_records(tmp_path)) == 2

    @pytest.mark.parametrize("use_adds", [True, False], ids=["adds", "no-adds"])
    @pytest.mark.parametrize("corpus", ["two programs", "examples", "builtin"])
    def test_a_pooled_cold_run_writes_what_a_serial_one_writes(
        self, tmp_path, corpus, use_adds
    ):
        """Pool workers publish their programs' records themselves; the
        run's ``stats`` counts their writes.  A program is served only from
        its own record, so a pooled cold run computes, reads and writes
        exactly what a serial one does, also on corpora whose programs share
        a function (``examples`` and ``builtin`` hold two copies of
        ``insert``).  Both runs emit one ``stats`` shape (the pooled run
        adds its ``profile``), and the store's ``last-run.json`` is that
        ``stats``."""
        if corpus == "two programs":
            items = [
                CorpusItem(name="prog", source=BASE),
                CorpusItem(name="other", source=OTHER + "\nfunction main()\n{ return 0; }\n"),
            ]
        else:
            items = corpus_named(corpus)
        options = PipelineOptions(use_adds=use_adds)
        stats, analyzed = {}, {}
        for jobs in (1, 2):
            store = tmp_path / f"jobs{jobs}"
            report = BatchDriver(jobs=jobs, cache_dir=store, options=options).analyze_corpus(items)
            stats[jobs] = report.stats()
            assert ResultCache(store).read_ledger() == stats[jobs]
            analyzed[jobs] = sum(p.error is None for p in report.programs)
        assert stats[2]["incremental"] == stats[1]["incremental"]
        assert stats[2]["incremental"]["reused"] == 0
        assert stats[2]["store"] == stats[1]["store"]
        assert stats[1]["store"]["stages"] == {
            "program": {"hits": 0, "misses": len(items), "writes": analyzed[1]}
        }
        shapes = {
            jobs: {k: sorted(v) if isinstance(v, dict) else None for k, v in s.items()}
            for jobs, s in stats.items()
        }
        assert shapes[2].pop("profile") == ["tasks", "totals"]
        assert shapes[2] == shapes[1]


class _StoreTraffic:
    """The store files a run reads (opens that find a file) and those it
    publishes (an atomic rename publishes every store file and the ledger),
    relative to the store, recorded in this process."""

    def __init__(self, monkeypatch, store):
        self.read: list[str] = []
        self.published: list[str] = []
        real_open, real_replace = pathlib.Path.open, pathlib.Path.replace

        def opening(path, mode="r", *args, **kwargs):
            handle = real_open(path, mode, *args, **kwargs)  # a miss raises here
            if "r" in mode and store in path.parents:
                self.read.append(path.relative_to(store).as_posix())
            return handle

        def replacing(path, target):
            if store in pathlib.Path(target).parents:
                self.published.append(pathlib.Path(target).relative_to(store).as_posix())
            return real_replace(path, target)

        monkeypatch.setattr(pathlib.Path, "open", opening)
        monkeypatch.setattr(pathlib.Path, "replace", replacing)

    def take(self) -> tuple[list[str], list[str]]:
        """What was read and published since the last call, sorted."""
        taken = sorted(self.read), sorted(self.published)
        self.read.clear()
        self.published.clear()
        return taken


class TestStoreFiles:
    """The store is one file per program: on the ``bench`` corpus a cold
    run publishes one record per program and the ledger, a no-op reads one
    record per program and publishes only the ledger, a summary-preserving
    edit of one program publishes that program's record, and a pooled cold
    run writes the records a serial one writes."""

    def test_one_file_per_program_on_the_bench_corpus(self, tmp_path, monkeypatch):
        items = corpus_named("bench")
        store = tmp_path / "serial"
        driver = BatchDriver(jobs=1, cache_dir=store)
        record = {
            item.name: f"v{CACHE_VERSION}/program/{driver.engine.record_key(item.name)}"
            f"{RECORD_SUFFIX}"
            for item in items
        }
        records = sorted(record.values())
        assert len(records) == len(items) == 15
        traffic = _StoreTraffic(monkeypatch, store)

        driver.analyze_corpus(items)
        assert traffic.take() == ([], sorted(records + ["last-run.json"]))
        files = sorted(p.relative_to(store).as_posix() for p in store.rglob("*") if p.is_file())
        assert files == sorted(records + ["last-run.json"])

        noop = BatchDriver(jobs=1, cache_dir=store).analyze_corpus(items)
        assert noop.incremental["programs_unchanged"] == len(items)
        assert traffic.take() == (records, ["last-run.json"])

        web = items[-1]
        head = "function bw9(h)\n{\n"
        assert head in web.source
        edited = [
            *items[:-1],
            CorpusItem(name=web.name, source=web.source.replace(head, head + "  var pad;\n", 1)),
        ]
        edit = BatchDriver(jobs=1, cache_dir=store).analyze_corpus(edited)
        assert (edit.incremental["dirty"], edit.incremental["recomputed"]) == (1, 1)
        assert edit.incremental["summaries_recomputed"] == 1
        assert traffic.take() == (records, sorted([record[web.name], "last-run.json"]))
        assert edit.store["stages"] == {"program": {"hits": 15, "misses": 0, "writes": 1}}

        pooled = tmp_path / "pooled"
        BatchDriver(jobs=2, cache_dir=pooled).analyze_corpus(items)
        assert [p.name for p in _records(pooled)] == [p.name for p in _records(store)]
