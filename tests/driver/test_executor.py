"""Tests for the persistent-worker executor: defaults, up-front dispatch of
every program the store cannot serve, the profiling layer, and crash
surfacing.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.adds.library import standard_source
from repro.driver.batch import BatchDriver
from repro.driver.corpus import CorpusItem
from repro.driver.executor import (
    MAX_DEFAULT_JOBS,
    PersistentExecutor,
    default_jobs,
    preferred_start_method,
)

REPO_ROOT = Path(__file__).resolve().parents[2]

CHAIN_SRC = standard_source("ListNode") + """
function tiny(p) { return p; }
function mid(p) { p->coef = 1; return tiny(p); }
function big(h)
{ var p; var q; var r;
  p = h;
  q = h;
  r = h;
  while p <> NULL
  { p->coef = p->coef + 1;
    q = q->next;
    r = q;
    p = p->next;
  }
  return mid(r);
}
"""


class TestDefaults:
    def test_default_jobs_is_cpu_count_capped(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 32)
        assert default_jobs() == MAX_DEFAULT_JOBS
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert default_jobs() == 3

    def test_default_jobs_never_oversubscribes_a_constrained_host(self, monkeypatch):
        # BENCH_driver.json came from a host_cpus=1 box where extra workers
        # were ~89% queue-wait overhead: the default must stay at 1 there
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert default_jobs() == 1
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert default_jobs() == 2

    def test_default_jobs_floor_is_one(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert default_jobs() == 1

    def test_preferred_start_method_is_valid(self):
        import multiprocessing

        assert preferred_start_method() in multiprocessing.get_all_start_methods()


class TestUpFrontDispatch:
    """Each program the store cannot serve whole is one task, and every one
    is submitted, largest source first, before the first result is polled."""

    def test_every_unserved_program_is_submitted_before_the_first_poll(
        self, monkeypatch, tmp_path
    ):
        submitted: list = []
        before_first_poll: list = []
        real_submit = PersistentExecutor.submit
        real_poll = PersistentExecutor.poll

        def submit(self, task):
            submitted.append(task)
            real_submit(self, task)

        def poll(self):
            if not before_first_poll:
                before_first_poll.extend(submitted)
            return real_poll(self)

        served = CorpusItem(name="served", source=standard_source("ListNode"))
        BatchDriver(jobs=1, cache_dir=tmp_path, simulate=False).analyze_corpus([served])
        items = [
            served,
            CorpusItem(name="tiny", source="function f(n) { return n; }\n"),
            CorpusItem(name="chain", source=CHAIN_SRC),
        ]
        monkeypatch.setattr(PersistentExecutor, "submit", submit)
        monkeypatch.setattr(PersistentExecutor, "poll", poll)
        driver = BatchDriver(jobs=2, cache_dir=tmp_path, simulate=False)
        report = driver.analyze_corpus(items)
        assert [t.name for t in before_first_poll] == ["chain", "tiny"]
        assert [t.name for t in submitted] == ["chain", "tiny"]
        assert report.incremental["programs_unchanged"] == 1
        assert sorted(report.program("chain").functions) == ["big", "mid", "tiny"]
        assert not report.failed_functions()


class TestProfileLayer:
    def _items(self):
        return [CorpusItem(name="chain", source=CHAIN_SRC)]

    def test_parallel_profile_records_task_breakdown(self):
        driver = BatchDriver(jobs=2, cache_dir=None, simulate=False)
        report = driver.analyze_corpus(self._items())
        profile = report.profile
        assert profile is not None
        totals = profile["totals"]
        assert set(totals) == {
            "tasks", "queue_wait_s", "analyze_s", "transfer_s", "overhead_fraction",
        }
        assert totals["tasks"] == 1
        assert 0.0 <= totals["overhead_fraction"] <= 1.0
        tasks = profile["tasks"]
        assert tasks and all(t["worker_pid"] > 0 for t in tasks)
        assert [(t["program"], t["functions"]) for t in tasks] == [("chain", 3)]

    def test_report_stats_carry_start_method(self):
        driver = BatchDriver(jobs=2, cache_dir=None, simulate=False)
        stats = driver.analyze_corpus(self._items()).to_dict()["stats"]
        assert stats["start_method"] == preferred_start_method()
        inline = BatchDriver(jobs=1, cache_dir=None, simulate=False)
        assert inline.analyze_corpus(self._items()).to_dict()["stats"]["start_method"] is None

    def test_report_stats_carry_effective_jobs_and_host_cpus(self):
        driver = BatchDriver(jobs=2, cache_dir=None, simulate=False)
        stats = driver.analyze_corpus(self._items()).to_dict()["stats"]
        assert stats["jobs"] == 2
        assert stats["effective_jobs"] == 2
        assert stats["host_cpus"] == os.cpu_count()
        assert stats["resilience"]["retries"] == 0
        inline = BatchDriver(jobs=1, cache_dir=None, simulate=False)
        assert inline.analyze_corpus(self._items()).to_dict()["stats"]["effective_jobs"] == 1


class TestCrashSurfacing:
    """A worker hard-dying mid-task (OOM kill, segfault), injected with
    ``--inject-faults``: the tests assert the CLI's exits, not the worker's
    exit code."""

    CRASH_MID = "crash:function=mid,times=99"

    def _run_cli(self, source_path, *extra):
        env = {
            "PYTHONPATH": str(REPO_ROOT / "src"),
            "PATH": "/usr/bin:/bin",
        }
        return subprocess.run(
            [
                sys.executable, "-m", "repro", "analyze", str(source_path),
                "--jobs", "2", "--no-cache", "--no-simulate",
                "--inject-faults", self.CRASH_MID, *extra,
            ],
            capture_output=True,
            text=True,
            env=env,
            cwd=str(REPO_ROOT),
            timeout=300,
        )

    def test_worker_death_completes_with_quarantine(self, tmp_path):
        """The completed-with-failures exit, with the poison function
        quarantined and every healthy function analyzed — not a hang, not
        an abort."""
        source = tmp_path / "chain.ptr"
        source.write_text(CHAIN_SRC)
        proc = self._run_cli(source)
        assert proc.returncode == 4, (proc.stdout, proc.stderr)
        assert "mid: QUARANTINED" in proc.stdout
        # the rest of its program still completed
        assert "tiny:" in proc.stdout and "big:" in proc.stdout

    def test_respawn_budget_exhaustion_is_unrecoverable_exit_3(self, tmp_path):
        """With a zero respawn budget the first worker death makes the pool
        unrecoverable: the hard exit 3 is reserved for exactly this."""
        source = tmp_path / "chain.ptr"
        source.write_text(CHAIN_SRC)
        proc = self._run_cli(source, "--max-respawns", "0")
        assert proc.returncode == 3, (proc.stdout, proc.stderr)
        assert "batch execution failed" in proc.stderr
