"""The acceptance scenario from the robustness issue, end to end.

With fault injection enabled — ~10% worker-crash rate, one permanently hung
task, one corrupted cache write — a full paper-corpus run must *complete*,
report per-function statuses, exit with the completed-with-failures code,
and a subsequent uninjected warm run must converge to all-ok results
bit-identical to a clean baseline.
"""

import json
import subprocess
import sys
from pathlib import Path

from repro.driver import batch
from repro.driver.batch import BatchDriver
from repro.driver.cache import ResultCache
from repro.driver.cli import EXIT_PARTIAL
from repro.driver.corpus import paper_corpus
from repro.driver.faults import FAULTS_ENV_VAR

REPO_ROOT = Path(__file__).resolve().parents[2]

#: ~10% of functions crash their worker once (transient), the polynomial
#: corpus's ``scale`` hangs on every attempt, and each writing process's
#: first cache write lands corrupted on disk
CHAOS_SPEC = "crash:rate=0.1,seed=4;hang:function=scale,times=99,seconds=600;cache:writes=1"


def _snapshot(report):
    """Everything semantically observable about a batch run, JSON-canonical."""
    return json.dumps(
        {
            p.name: {"functions": p.functions, "simulation": p.simulation}
            for p in report.programs
        },
        sort_keys=True,
    )


class TestChaosConvergence:
    def test_faulted_run_completes_and_warm_run_converges(self, tmp_path, monkeypatch):
        items = paper_corpus()

        # clean baseline: separate cache, no faults
        monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
        baseline = BatchDriver(
            jobs=2, cache_dir=tmp_path / "baseline-cache"
        ).analyze_corpus(items)
        assert not baseline.failed_functions()

        # the chaos run: crashes + a permanent hang + a torn cache write
        monkeypatch.setenv(FAULTS_ENV_VAR, CHAOS_SPEC)
        monkeypatch.setattr(batch, "RETRY_BACKOFF_BASE_S", 0.01)
        chaos_cache = tmp_path / "chaos-cache"
        chaos = BatchDriver(
            jobs=2,
            cache_dir=chaos_cache,
            task_timeout=1.5,
            max_retries=1,
            quarantine_dir=tmp_path / "quarantine",
        ).analyze_corpus(items)

        # it completed, with explicit statuses instead of an abort
        assert chaos.resilience.worker_crashes > 0
        assert chaos.resilience.timeouts > 0
        statuses = {
            payload.get("status", "ok")
            for p in chaos.programs
            for payload in p.functions.values()
        }
        assert "ok" in statuses
        assert "timeout" in statuses  # the hung `scale`
        failed = chaos.failed_functions()
        assert ("paper/polynomial_scale", "scale", "timeout") in failed
        # every function is accounted for — failure stubs, not holes
        assert chaos.function_count() == baseline.function_count()

        # every pool worker tears its own first write
        torn = len(ResultCache(chaos_cache).verify()["corrupt"])
        assert torn >= 1

        # uninjected warm run over the chaos cache: the torn writes it reads
        # are evicted, the failed functions re-analyze, everything converges
        monkeypatch.delenv(FAULTS_ENV_VAR)
        warm = BatchDriver(jobs=2, cache_dir=chaos_cache).analyze_corpus(items)
        assert not warm.failed_functions()
        assert _snapshot(warm) == _snapshot(baseline)
        # each torn entry is evicted exactly once: by the warm run, or by the
        # audit when no run reads it
        evicted = ResultCache(chaos_cache).verify(evict=True)["evicted"]
        assert warm.store["evictions"] + evicted == torn

        # and a second warm run does no work at all
        settled = BatchDriver(jobs=2, cache_dir=chaos_cache).analyze_corpus(items)
        assert settled.incremental["recomputed"] == 0
        assert settled.effective_jobs == 1  # pool never started
        assert _snapshot(settled) == _snapshot(baseline)

    def test_failure_stubs_are_never_cached(self, tmp_path, monkeypatch):
        items = [item for item in paper_corpus() if "polynomial" in item.name]
        monkeypatch.setenv(FAULTS_ENV_VAR, "hang:function=scale,times=99,seconds=600")
        cache_dir = tmp_path / "cache"
        chaos = BatchDriver(
            jobs=2,
            cache_dir=cache_dir,
            simulate=False,
            task_timeout=1.0,
            max_retries=0,
        ).analyze_corpus(items)
        assert chaos.program(items[0].name).functions["scale"]["status"] == "timeout"
        monkeypatch.delenv(FAULTS_ENV_VAR)
        warm = BatchDriver(jobs=2, cache_dir=cache_dir, simulate=False).analyze_corpus(items)
        assert warm.program(items[0].name).functions["scale"].get("status") == "ok"
        assert warm.incremental["recomputed"] == 1  # only the previously failed one


class TestChaosExitCode:
    def test_cli_reports_partial_failure_exit(self, tmp_path):
        """The CLI-level half of the acceptance criterion: the chaos run
        exits with the completed-with-failures code and prints statuses."""
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "analyze",
                "--corpus", "paper",
                "--jobs", "2",
                "--cache-dir", str(tmp_path / "cache"),
                "--quarantine-dir", str(tmp_path / "quarantine"),
                "--task-timeout", "1.5",
                "--max-retries", "1",
                "--inject-faults", CHAOS_SPEC,
            ],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
            cwd=str(REPO_ROOT),
            timeout=300,
        )
        assert proc.returncode == EXIT_PARTIAL, (proc.stdout, proc.stderr)
        assert "scale: TIMEOUT" in proc.stdout
        assert "resilience:" in proc.stdout
        assert "failed: paper/polynomial_scale/scale (timeout)" in proc.stdout
