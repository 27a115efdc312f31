"""Smoke test of the end-to-end benchmark at toy size (a 20-function web)."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

from e2e.workloads import WORKLOADS, bench_corpus

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: one cold rep and nine edits
SMALL = ["--web-size", "20", "--seconds", "3"]


def _run(cwd: Path, *args: str, env=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "e2e" / "run.py"), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def _check(stdout: str, section: list[dict]) -> None:
    line = json.loads(stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert "failed_fraction 0 " in stdout
    for metric in section:
        name, unit = metric["name"], metric["unit"]
        assert line["metrics"][name]["unit"] == unit
        assert re.search(rf"^  {re.escape(name)} +\S+  {re.escape(unit)} ", stdout, re.M), name


def test_untraced_run_prints_every_end_to_end_metric(tmp_path):
    proc = _run(ROOT, *SMALL, "--workload", "edit_session", "--out", str(tmp_path / "r.json"))
    assert proc.returncode == 0, proc.stderr
    _check(proc.stdout, SPEC["end_to_end"])


def test_traced_run_prints_every_per_layer_metric(tmp_path):
    out = tmp_path / "r.json"
    proc = _run(ROOT, *SMALL, "--workload", "cold_pool2", "--trace", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    _check(proc.stdout, SPEC["per_layer"])
    events = json.loads(out.with_suffix(".trace.json").read_text())["traceEvents"]
    assert any(e["ph"] == "X" and e["name"] == "cli.main" for e in events)


def test_spec_names_the_benchmarks_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_seed_11_reproduces_the_bench_corpus():
    from repro.driver.corpus import corpus_named

    assert bench_corpus(11) == [(i.name, i.source) for i in corpus_named("bench")]


def _result(path: Path, failed: int, skip: str | None = None) -> Path:
    metrics = {m["name"]: {"value": 1.0} for m in SPEC["end_to_end"] if m["name"] != skip}
    record = {"workloads": {"cold_bench": {"failed": failed, "attempted": 10, "metrics": metrics}}}
    path.write_text(json.dumps(record))
    return path


def test_compare_flags_missing_metrics_and_new_failures(tmp_path, capsys):
    from e2e.run import main

    base = _result(tmp_path / "base.json", failed=0)
    assert main(["compare", str(base), str(base)]) == 0
    worse = _result(tmp_path / "new.json", failed=1, skip="noop_s")
    assert main(["compare", str(base), str(worse)]) == 1
    rows = capsys.readouterr().out.splitlines()
    assert any("failed_fraction" in row and row.endswith("regressed") for row in rows)
    assert any("noop_s" in row and row.endswith("missing") for row in rows)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("__pycache__")
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = _run(tmp_path, "--workload", "cold_bench", "--seconds", "1", env=env)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
