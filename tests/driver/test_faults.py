"""Fault-injection harness + fault-tolerance policy tests.

Covers the spec grammar, the determinism of injection decisions, and — via
real multi-process batch runs with injected faults — every rung of the
driver's escalation ladder, charged to the dead task's suspect: retry with
backoff, quarantine (with replayable records), deadline timeouts, and a
death before the first note.  Every attempt runs on the pool.
The convergence tests pin the acceptance property: a run that survives
transient faults is bit-identical to a run that never saw them.
"""

import json
import multiprocessing
import os

import pytest

from repro.adds.library import standard_source
from repro.driver import batch, executor, stages
from repro.driver.batch import BatchDriver
from repro.driver.cli import _report_partial
from repro.driver.corpus import CorpusItem, paper_corpus
from repro.driver.executor import preferred_start_method
from repro.driver import pipeline
from repro.driver.faults import (
    FAULT_CRASH_EXIT,
    FAULTS_ENV_VAR,
    NO_FAULTS,
    FaultSpecError,
    load_quarantine_record,
    parse_fault_spec,
    replay_quarantine_record,
    write_quarantine_record,
)
from repro.driver.pipeline import PipelineOptions

CHAIN_SRC = standard_source("ListNode") + """
function tiny(p) { return p; }
function mid(p) { p->coef = 1; return tiny(p); }
function big(h)
{ var p;
  p = h;
  while p <> NULL
  { p->coef = p->coef + 1;
    p = p->next;
  }
  return mid(h);
}
"""


class TestSpecGrammar:
    def test_empty_spec_is_no_faults(self):
        assert parse_fault_spec("") == NO_FAULTS
        assert not NO_FAULTS.enabled

    def test_full_clause_round_trip(self):
        plan = parse_fault_spec(
            "crash:rate=0.25,seed=7,times=2;hang:function=scale,seconds=9;"
            "slow:seconds=0.5;cache:rate=0.1,writes=3;io:rate=1.0,times=2"
        )
        assert plan.crash_rate == 0.25
        assert plan.crash_seed == 7
        assert plan.crash_times == 2
        assert plan.hang_function == "scale"
        assert plan.hang_seconds == 9.0
        assert plan.slow_seconds == 0.5
        assert plan.cache_corrupt_rate == 0.1
        assert plan.cache_corrupt_writes == 3
        assert plan.io_error_rate == 1.0
        assert plan.io_error_times == 2
        assert plan.enabled

    @pytest.mark.parametrize(
        "bad",
        [
            "explode:rate=1",  # unknown kind
            "crash:",  # no parameters
            "crash:rate",  # no value
            "crash:seed=x",  # unconvertible
            "crash:rate=1.5",  # out of range
            "hang:rate=0.5",  # wrong key for kind
            "crash:rate=0.1,seed=4;crash:function=mid,times=99",  # repeated kind
            "crash:rate=0.1,rate=0.9",  # repeated key
        ],
    )
    def test_nonsense_specs_raise(self, bad):
        with pytest.raises(FaultSpecError):
            parse_fault_spec(bad)

    def test_whitespace_and_empty_clauses_tolerated(self):
        plan = parse_fault_spec("  crash: rate = 0.5 ; ; slow: seconds = 1 ")
        assert plan.crash_rate == 0.5
        assert plan.slow_seconds == 1.0


class TestDeterminism:
    def test_decisions_are_pure_functions_of_spec_and_point(self):
        a = parse_fault_spec("crash:rate=0.5,seed=3")
        b = parse_fault_spec("crash:rate=0.5,seed=3")
        for name in ("alpha", "beta", "gamma", "delta"):
            assert a.should_crash(name, 0) == b.should_crash(name, 0)

    def test_rate_roughly_matches_over_many_points(self):
        plan = parse_fault_spec("crash:rate=0.3,seed=11")
        hits = sum(plan.should_crash(f"fn{i}", 0) for i in range(2000))
        assert 450 <= hits <= 750  # ~600 expected

    def test_times_makes_faults_transient(self):
        plan = parse_fault_spec("crash:rate=1.0,times=2")
        assert plan.should_crash("f", 0)
        assert plan.should_crash("f", 1)
        assert not plan.should_crash("f", 2)

    def test_named_function_overrides_rate(self):
        plan = parse_fault_spec("crash:function=mid")
        assert plan.should_crash("mid", 0)
        assert not plan.should_crash("tiny", 0)

    def test_seed_changes_the_victim_set(self):
        a = parse_fault_spec("crash:rate=0.5,seed=1")
        b = parse_fault_spec("crash:rate=0.5,seed=2")
        names = [f"fn{i}" for i in range(200)]
        assert [a.should_crash(n, 0) for n in names] != [
            b.should_crash(n, 0) for n in names
        ]


def _run_batch(items, faults, monkeypatch, **kwargs):
    if faults is None:
        monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
    else:
        monkeypatch.setenv(FAULTS_ENV_VAR, faults)
    monkeypatch.setattr(batch, "RETRY_BACKOFF_BASE_S", 0.01)
    driver = BatchDriver(cache_dir=None, **kwargs)
    return driver.analyze_corpus(items)


def _function_dicts(report):
    return {p.name: p.functions for p in report.programs}


class TestCrashRecovery:
    """Injected worker crashes exercised through real multi-process runs."""

    def _items(self):
        return [CorpusItem(name="chain", source=CHAIN_SRC)]

    @pytest.mark.parametrize(
        "start_method",
        sorted({preferred_start_method(), "spawn"}),
    )
    def test_transient_crash_converges_bit_identical(self, monkeypatch, start_method):
        """Satellite: a batch that succeeds after injected transient crashes
        must be bit-identical to an uninjected run — under fork AND spawn
        (the spawn path re-imports everything in the worker, so its crash
        and retry machinery is genuinely distinct)."""
        monkeypatch.setattr(executor, "preferred_start_method", lambda: start_method)
        clean = _run_batch(self._items(), None, monkeypatch, jobs=2, simulate=False)
        faulted = _run_batch(
            self._items(), "crash:rate=1.0,times=1", monkeypatch, jobs=2, simulate=False
        )
        assert faulted.start_method == start_method
        assert faulted.resilience.worker_crashes > 0
        assert faulted.resilience.retries > 0
        assert not faulted.failed_functions()
        clean_dict = _function_dicts(clean)
        faulted_dict = _function_dicts(faulted)
        assert clean_dict == faulted_dict
        # bit-identical, not just structurally equal
        assert json.dumps(clean_dict, sort_keys=True) == json.dumps(
            faulted_dict, sort_keys=True
        )

    def test_poison_function_is_quarantined_with_record(self, monkeypatch, tmp_path):
        qdir = tmp_path / "quarantine"
        report = _run_batch(
            self._items(), "crash:function=mid,times=99", monkeypatch,
            jobs=2, simulate=False, max_retries=1, quarantine_dir=qdir,
        )
        payload = report.program("chain").functions["mid"]
        assert payload["status"] == "quarantined"
        assert payload["summary"] is None
        assert "poison" in payload["fault"]
        assert report.resilience.quarantined == 1
        # healthy functions completed despite sharing a program with the poison
        assert report.program("chain").functions["tiny"].get("status") == "ok"
        assert report.program("chain").functions["big"].get("status") == "ok"
        # the record replays: without the fault env the analysis is healthy
        (record_path,) = sorted(qdir.glob("*.json"))
        record = load_quarantine_record(record_path)
        assert record["functions"] == ["mid"]
        assert record["worker_exitcode"] == FAULT_CRASH_EXIT
        monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
        assert replay_quarantine_record(record_path) == {"mid": "ok"}

    def test_every_attempt_of_a_poison_function_runs_on_the_pool(
        self, monkeypatch, tmp_path
    ):
        """With ``max_retries=1``, ``mid`` is quarantined after its second
        pool death: its record says two attempts, and the run starts no
        process beyond the pool's workers and their respawns."""
        started = []
        real_start = multiprocessing.process.BaseProcess.start

        def start(process):
            started.append(process.name)
            real_start(process)

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", start)
        report = _run_batch(
            self._items(), "crash:function=mid,times=99", monkeypatch,
            jobs=2, simulate=False, max_retries=1, quarantine_dir=tmp_path,
        )
        assert report.program("chain").functions["mid"]["status"] == "quarantined"
        assert report.resilience.worker_crashes == 2
        assert report.resilience.worker_respawns == 2
        (record_path,) = sorted(tmp_path.glob("*.json"))
        assert load_quarantine_record(record_path)["attempts"] == 2
        assert len(started) == 2 + report.resilience.worker_respawns

    def test_death_before_the_first_note_is_charged_to_the_program(self, monkeypatch):
        """A worker that dies in parse, typecheck or summary resolution has
        sent no note: once the retries run out, the program reports an error
        naming the crash, and the run is partial, not failed."""
        monkeypatch.setattr(stages, "parse_program", lambda *args: os._exit(7))
        # forked workers inherit the patched parse
        monkeypatch.setattr(executor, "preferred_start_method", lambda: "fork")
        report = _run_batch(
            self._items(), None, monkeypatch, jobs=2, simulate=False, max_retries=1
        )
        (program,) = report.programs
        assert program.error == (
            "crashed before its first report: worker died (exit 7); "
            "retries exhausted after 2 attempt(s)"
        )
        assert program.functions == {}
        assert report.resilience.worker_crashes == 2
        assert report.resilience.retries == 1
        assert _report_partial(report)


class TestQuarantineRecords:
    def test_replay_runs_under_the_recorded_options(self, tmp_path, monkeypatch):
        options = PipelineOptions(use_adds=False, pes=8)
        path = write_quarantine_record(
            tmp_path, "chain", CHAIN_SRC, ["mid", "big"], 2, FAULT_CRASH_EXIT, options
        )
        assert load_quarantine_record(path)["options"] == {
            "use_adds": False, "pes": 8, "entry": "main",
        }
        seen = []
        real = pipeline.function_report

        def spy(analysis, function, run_options):
            seen.append((function, run_options, analysis.use_adds))
            return real(analysis, function, run_options)

        monkeypatch.setattr(pipeline, "function_report", spy)
        assert replay_quarantine_record(path) == {"mid": "ok", "big": "ok"}
        assert seen == [("mid", options, False), ("big", options, False)]


class TestDeadlines:
    def _items(self):
        return [CorpusItem(name="chain", source=CHAIN_SRC)]

    def test_hung_task_is_killed_and_marked_timeout(self, monkeypatch):
        report = _run_batch(
            self._items(), "hang:function=mid,times=99,seconds=600", monkeypatch,
            jobs=2, simulate=False, task_timeout=1.5, max_retries=1,
        )
        payload = report.program("chain").functions["mid"]
        assert payload["status"] == "timeout"
        assert report.resilience.timeouts >= 2  # initial attempt + retry
        # the rest of the hung function's program was not lost
        assert report.program("chain").functions["tiny"].get("status") == "ok"
        assert report.program("chain").functions["big"].get("status") == "ok"

    def test_transient_hang_is_survived_by_a_retry(self, monkeypatch):
        """A hang that fires only once costs a timeout event, then the
        re-dispatched task completes: no failure statuses."""
        report = _run_batch(
            self._items(), "hang:function=mid,times=1,seconds=600", monkeypatch,
            jobs=2, simulate=False, task_timeout=1.5,
        )
        assert not report.failed_functions()
        assert report.resilience.timeouts >= 1

    def test_the_deadline_restarts_at_every_note(self, monkeypatch):
        """The deadline bounds one function's report, not a whole program:
        three reports of 0.4 s each fit a 1 s deadline."""
        report = _run_batch(
            self._items(), "slow:seconds=0.4", monkeypatch,
            jobs=2, simulate=False, task_timeout=1.0,
        )
        assert report.resilience.timeouts == 0
        assert not report.failed_functions()
        assert report.incremental["recomputed"] == 3


class TestSimulationFaults:
    def _items(self):
        # polynomial_scale has a main entry, so it actually simulates
        return [item for item in paper_corpus() if "polynomial" in item.name]

    def test_transient_simulate_crash_retries_to_success(self, monkeypatch):
        report = _run_batch(
            self._items(), "crash:function=@simulate,times=1", monkeypatch,
            jobs=2,
        )
        sim = report.programs[0].simulation
        assert sim["status"] == "simulated"
        assert report.resilience.worker_crashes >= 1

    def test_a_simulation_beside_a_failure_payload_is_never_stored(
        self, tmp_path, monkeypatch
    ):
        """``scale`` crashes every time, so a failure payload stands in for
        its report and the simulation cannot strip-mine its loop.  That
        simulation is reported but not stored: the next clean run simulates
        again, to the clean baseline."""
        items = self._items()
        baseline = BatchDriver(jobs=1, cache_dir=None).analyze_corpus(items)
        clean_sim = baseline.programs[0].simulation
        assert "scale" in clean_sim["transformed_functions"]
        monkeypatch.setenv(FAULTS_ENV_VAR, "crash:function=scale,times=99")
        monkeypatch.setattr(batch, "RETRY_BACKOFF_BASE_S", 0.01)
        faulty = BatchDriver(jobs=2, cache_dir=tmp_path, max_retries=1).analyze_corpus(items)
        assert faulty.programs[0].functions["scale"]["status"] == "quarantined"
        assert faulty.programs[0].simulation != clean_sim
        assert not list((tmp_path / "sim").glob("*.json"))

        monkeypatch.delenv(FAULTS_ENV_VAR)
        healed = BatchDriver(jobs=1, cache_dir=tmp_path).analyze_corpus(items)
        assert healed.incremental["simulations_reused"] == 0
        assert healed.to_dict()["programs"] == baseline.to_dict()["programs"]
        assert len(list((tmp_path / "sim").glob("*.json"))) == 1

    def test_permanent_simulate_crash_reports_crashed_status(self, monkeypatch):
        report = _run_batch(
            self._items(), "crash:function=@simulate,times=99", monkeypatch,
            jobs=2, max_retries=1,
        )
        sim = report.programs[0].simulation
        assert sim["status"] == "crashed"
        assert "worker died" in sim["error"]
        # per-function analyses were unaffected
        assert not report.failed_functions()
