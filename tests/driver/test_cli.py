"""Tests for the ``python -m repro`` command line."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.driver.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]
LIST_SUM = REPO_ROOT / "examples" / "corpus" / "list_sum.ptr"

#: a program whose ADDS declaration breaks a rule: ``along`` names an
#: undeclared dimension, or ``where`` does
_BAD_DECLARATION = (
    "type Node [X]{where}\n"
    "{{ int v;\n"
    "  Node *next is uniquely forward along {along};\n"
    "}};\n"
    "function walk(h) {{ var p; p = h;"
    " while p <> NULL {{ p->v = p->v + 1; p = p->next; }} return h; }}\n"
)


@pytest.fixture(scope="module")
def list_sum_alone(tmp_path_factory):
    """``list_sum.ptr``'s report entry from a run of that program alone."""
    output = tmp_path_factory.mktemp("alone") / "report.json"
    assert main(["analyze", str(LIST_SUM), "--no-cache", "--output", str(output)]) == 0
    (entry,) = json.loads(output.read_text())["programs"]
    return entry


class TestAnalyzeCommand:
    def test_paper_corpus_text_report(self, tmp_path, capsys):
        code = main(
            ["analyze", "--corpus", "paper", "--cache-dir", str(tmp_path / "cache")]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "paper/barnes_hut" in out
        assert "doall-after-traversal" in out
        assert "simulated on 4 PEs" in out

    def test_json_report_round_trips(self, tmp_path, capsys):
        output = tmp_path / "report.json"
        code = main(
            [
                "analyze",
                "--corpus",
                "paper",
                "--no-cache",
                "--no-simulate",
                "--format",
                "json",
                "--output",
                str(output),
            ]
        )
        assert code == 0
        printed_text = capsys.readouterr().out
        printed = json.loads(printed_text)
        written = json.loads(output.read_text())
        assert printed == written
        assert written["stats"]["programs"] == 3
        assert written["stats"]["incremental"]["recomputed"] > 0
        # the file is compact canonical JSON; standard output stays indented
        assert output.read_text() == json.dumps(written, sort_keys=True)
        assert printed_text == json.dumps(written, indent=2, sort_keys=True) + "\n"

    def test_warm_output_rerun_never_enters_the_pure_python_encoder(
        self, tmp_path, monkeypatch, capsys
    ):
        output = tmp_path / "report.json"
        argv = [
            "analyze", "--corpus", "paper",
            "--cache-dir", str(tmp_path / "cache"), "--output", str(output),
        ]
        assert main(argv) == 0
        cold = json.loads(output.read_text())

        def refuse(*args, **kwargs):
            raise AssertionError("the pure-Python JSON encoder ran")

        monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
        assert main(argv) == 0
        warm = json.loads(output.read_text())
        assert warm["stats"]["incremental"]["programs_unchanged"] == 3
        assert warm["programs"] == cold["programs"]

    def test_source_file_arguments(self, tmp_path, capsys):
        code = main(["analyze", str(LIST_SUM), "--no-cache"])
        assert code == 0
        assert "list_sum" in capsys.readouterr().out

    def test_no_inputs_is_a_usage_error(self, capsys):
        assert main(["analyze"]) == 2
        assert "no inputs" in capsys.readouterr().err

    def test_missing_file_is_a_usage_error(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "absent.ptr")]) == 2

    def test_parse_error_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.ptr"
        bad.write_text("function { nope")
        assert main(["analyze", str(bad), "--no-cache"]) == 1
        assert "ERROR" in capsys.readouterr().out

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize(
        "where, along, line", [("", "Y", 3), (" where X||Z", "X", 1)],
        ids=["field-dimension", "independence"],
    )
    def test_a_malformed_adds_declaration_costs_only_its_program(
        self, tmp_path, capsys, list_sum_alone, jobs, where, along, line
    ):
        bad = tmp_path / "bad.ptr"
        bad.write_text(_BAD_DECLARATION.format(where=where, along=along))
        output = tmp_path / "report.json"
        argv = ["analyze", str(bad), str(LIST_SUM), "--no-cache", "--jobs", jobs]
        assert main(argv + ["--output", str(output)]) == 1
        bad_report, list_sum = json.loads(output.read_text())["programs"]
        assert bad_report["name"] == "bad"
        assert bad_report["error"].startswith("type error: ")
        assert bad_report["error"].endswith(f"(line {line})")
        assert list_sum == list_sum_alone

    def test_jobs_defaults_to_capped_cpu_count(self):
        from repro.driver.cli import _build_parser
        from repro.driver.executor import default_jobs

        args = _build_parser().parse_args(["analyze", "--corpus", "paper"])
        assert args.jobs == default_jobs()
        assert 1 <= args.jobs <= 8

    def test_pooled_report_carries_the_task_breakdown(self, capsys):
        code = main(
            ["analyze", "--corpus", "paper", "--no-cache", "--no-simulate",
             "--jobs", "2", "--format", "json"]
        )
        profile = json.loads(capsys.readouterr().out)["stats"]["profile"]
        assert code == 0
        assert profile["totals"]["tasks"] == 3
        assert sorted(t["program"] for t in profile["tasks"]) == [
            "paper/barnes_hut", "paper/polynomial_scale", "paper/subtree_move",
        ]

    def test_profile_totals_shown_without_detail_by_default(self, capsys):
        code = main(
            ["analyze", "--corpus", "paper", "--no-cache", "--no-simulate",
             "--jobs", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "profile:" in out  # totals are always aggregated
        assert "queue-wait" in out
        assert "task " not in out  # the per-task rows are in the JSON only

    def test_explicit_start_method_spawn(self, capsys, monkeypatch):
        import multiprocessing

        from repro.driver import executor

        if "spawn" not in multiprocessing.get_all_start_methods():
            pytest.skip("spawn unavailable")
        monkeypatch.setattr(executor, "preferred_start_method", lambda: "spawn")
        code = main(
            ["analyze", "--corpus", "paper", "--no-cache", "--no-simulate",
             "--jobs", "2", "--format", "json"]
        )
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["stats"]["start_method"] == "spawn"


#: each bounded numeric option: its command, a value below the bound and
#: the bound itself
BOUNDED_OPTIONS = [
    ("analyze", "--pes", "0", "1"),
    ("analyze", "--pes", "-1", "1"),
    ("analyze", "--jobs", "0", "1"),
    ("analyze", "--max-retries", "-3", "0"),
    ("analyze", "--max-respawns", "-1", "0"),
    ("fuzz", "--pes", "0", "1"),
    ("fuzz", "--unroll-factor", "1", "2"),
]

#: the arguments a bounded option is tried beside (pooled, so that the
#: retry and respawn budgets are live)
_BESIDE = {
    "analyze": ["--corpus", "paper", "--no-cache", "--jobs", "2"],
    "fuzz": ["--seeds", "2"],
}


class TestOptionBounds:
    """An out-of-range value is a usage error at parse time, instead of a
    silent clamp or a run that cannot do what it was asked."""

    @pytest.mark.parametrize("command, option, bad, edge", BOUNDED_OPTIONS)
    def test_a_value_below_the_bound_is_a_usage_error(
        self, capsys, command, option, bad, edge
    ):
        with pytest.raises(SystemExit) as exited:
            main([command, *_BESIDE[command], option, bad])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert f"argument {option}: must be at least {edge}, got {bad}" in err

    @pytest.mark.parametrize(
        "command, option, edge", sorted({(c, o, e) for c, o, _, e in BOUNDED_OPTIONS})
    )
    def test_the_bound_itself_runs(self, capsys, command, option, edge):
        assert main([command, *_BESIDE[command], option, edge]) == 0

    def test_pipeline_options_refuse_no_processors(self):
        from repro.driver.pipeline import PipelineOptions

        with pytest.raises(ValueError, match="pes must be at least 1"):
            PipelineOptions(pes=0)


class TestFaultFlags:
    def test_bad_inject_faults_spec_is_a_usage_error(self, capsys):
        code = main(
            ["analyze", "--corpus", "paper", "--no-cache",
             "--inject-faults", "explode:rate=1"]
        )
        assert code == 2
        assert "bad --inject-faults spec" in capsys.readouterr().err

    def test_inject_faults_sets_env_for_workers(self, monkeypatch, capsys):
        import os

        from repro.driver.faults import FAULTS_ENV_VAR

        # setenv (not delenv) so monkeypatch restores the variable after the
        # CLI mutates os.environ in-process — otherwise the spec leaks into
        # every later test in the session
        monkeypatch.setenv(FAULTS_ENV_VAR, "")
        code = main(
            ["analyze", "--corpus", "paper", "--no-cache", "--no-simulate",
             "--jobs", "2", "--inject-faults", "crash:rate=1.0,times=1",
             "--format", "json"]
        )
        assert os.environ[FAULTS_ENV_VAR] == "crash:rate=1.0,times=1"
        report = json.loads(capsys.readouterr().out)
        # transient crashes: everything retried to success, exit stays 0
        assert code == 0
        assert report["stats"]["resilience"]["worker_crashes"] > 0
        assert report["stats"]["resilience"]["retries"] > 0

    def test_task_timeout_zero_disables_watchdog(self):
        from repro.driver.cli import _build_parser

        args = _build_parser().parse_args(
            ["analyze", "--corpus", "paper", "--task-timeout", "0"]
        )
        assert args.task_timeout == 0  # _cmd_analyze maps <=0 to None


class TestQuarantineCommand:
    def _write_record(self, tmp_path):
        from repro.adds.library import standard_source
        from repro.driver.faults import write_quarantine_record
        from repro.driver.pipeline import PipelineOptions

        source = standard_source("ListNode") + "function f(p) { return p; }\n"
        return write_quarantine_record(
            tmp_path, "prog", source, ["f"], 3, 13, PipelineOptions()
        )

    def test_list_empty_directory(self, tmp_path, capsys):
        assert main(["quarantine", "--dir", str(tmp_path)]) == 0
        assert "no quarantine records" in capsys.readouterr().out

    def test_list_records(self, tmp_path, capsys):
        self._write_record(tmp_path)
        assert main(["quarantine", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "prog" in out and "killed 3 worker(s)" in out

    def test_replay_healthy_record_exits_zero(self, tmp_path, capsys):
        path = self._write_record(tmp_path)
        assert main(["quarantine", "--replay", str(path)]) == 0
        assert "f: ok" in capsys.readouterr().out

    def test_replay_missing_records_is_a_usage_error(self, tmp_path, capsys):
        assert main(["quarantine", "--replay", str(tmp_path)]) == 2

    def test_v1_record_is_unreadable_not_replayed(self, tmp_path, capsys):
        """A v1 record stored its options as an opaque key: it is listed as
        unreadable instead of being replayed under guessed options."""
        path = self._write_record(tmp_path)
        record = json.loads(path.read_text())
        record["schema"] = "driver-quarantine-v1"
        record["options"] = "solver=worklist;adds=False;pes=8;entry=main"
        path.write_text(json.dumps(record))

        assert main(["quarantine", "--dir", str(tmp_path)]) == 0
        assert "unreadable record" in capsys.readouterr().out
        assert main(["quarantine", "--replay", str(path)]) == 1
        out = capsys.readouterr().out
        assert "unreadable record" in out and "f: ok" not in out


class TestOtherCommands:
    def test_corpus_listing(self, capsys):
        assert main(["corpus"]) == 0
        out = capsys.readouterr().out
        assert "paper/barnes_hut" in out
        assert "stress/" in out
        assert "examples/list_sum" in out

    def test_cache_info_and_clear(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        main(["analyze", "--corpus", "paper", "--no-simulate",
              "--cache-dir", str(cache_dir)])
        capsys.readouterr()
        assert main(["cache", "--cache-dir", str(cache_dir)]) == 0
        assert "cached result(s)" in capsys.readouterr().out
        assert main(["cache", "--cache-dir", str(cache_dir), "--clear"]) == 0
        assert not list(cache_dir.glob("*.json"))

    def test_cache_verify_detects_then_evicts(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        main(["analyze", "--corpus", "paper", "--no-simulate",
              "--cache-dir", str(cache_dir)])
        capsys.readouterr()
        assert main(["cache", "verify", "--cache-dir", str(cache_dir)]) == 0
        assert "0 corrupt" in capsys.readouterr().out
        victim = sorted(cache_dir.rglob("*.json"))
        victim = [p for p in victim if p.parent != cache_dir][0]
        victim.write_text("garbage")
        # detection without --evict leaves the file and exits 1
        assert main(["cache", "verify", "--cache-dir", str(cache_dir)]) == 1
        assert "corrupt:" in capsys.readouterr().out
        assert victim.exists()
        # --evict removes it and exits 0
        assert main(
            ["cache", "verify", "--cache-dir", str(cache_dir), "--evict"]
        ) == 0
        assert not victim.exists()
        assert main(["cache", "verify", "--cache-dir", str(cache_dir)]) == 0


class TestModuleEntryPoint:
    def test_python_dash_m_repro(self, tmp_path):
        """The acceptance command: a real subprocess through ``-m repro``."""
        env_path = str(REPO_ROOT / "src")
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "analyze",
                "--corpus",
                "paper",
                "--jobs",
                "2",
                "--cache-dir",
                str(tmp_path / "cache"),
            ],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": env_path, "PATH": "/usr/bin:/bin"},
            cwd=str(REPO_ROOT),
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "incremental: 0 reused" in proc.stdout

    def test_cli_import_loads_a_pinned_module_count(self):
        """Every CLI start imports ``repro.driver.cli``, so every module it
        pulls in is start-up cost.  The count is pinned: a change that adds
        or removes an import on that path updates the number here."""
        expected = 51
        code = (
            "import sys\n"
            "import repro.driver.cli\n"
            "print(sum(1 for m in sys.modules if m == 'repro' or m.startswith('repro.')))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
            cwd=str(REPO_ROOT),
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        loaded = int(proc.stdout)
        assert loaded == expected, (
            f"a fresh `import repro.driver.cli` loads {loaded} repro modules, "
            f"not {expected}; if the change is intended, update `expected` in "
            f"this test"
        )

    def test_the_paper_corpus_loads_only_the_toy_program(self):
        """``--corpus paper`` (and ``builtin`` and ``bench``, which include
        it) needs one source text from :mod:`repro.nbody`, not the whole
        Barnes–Hut simulator."""
        code = (
            "import sys\n"
            "import repro.driver.cli\n"
            "def loaded():\n"
            "    return {m for m in sys.modules if m.split('.')[0] == 'repro'}\n"
            "before = loaded()\n"
            "from repro.driver.corpus import corpus_named\n"
            "corpus_named('paper')\n"
            "print(' '.join(sorted(loaded() - before)))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
            cwd=str(REPO_ROOT),
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["repro.nbody", "repro.nbody.toy_program"]
