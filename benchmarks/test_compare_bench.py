"""Tests for the benchmark snapshot differ (``compare_bench.py``).

A PR that adds or retires a benchmark must still be able to diff its
snapshot against the previous one: scenarios present in only one file are
reported as added/removed, never treated as a comparison failure.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "compare_bench", Path(__file__).parent / "compare_bench.py"
)
compare_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_bench)


def _snapshot(path: Path, **scenarios: float) -> str:
    payload = {
        "scenarios": [
            {"scenario": name, "worklist_s": value} for name, value in scenarios.items()
        ]
    }
    path.write_text(json.dumps(payload))
    return str(path)


def test_identical_snapshots_pass(tmp_path, capsys):
    old = _snapshot(tmp_path / "old.json", wide=1.0, deep=2.0)
    assert compare_bench.main([old, old]) == 0
    assert "OK" in capsys.readouterr().out


def test_added_and_removed_scenarios_do_not_fail(tmp_path, capsys):
    old = _snapshot(tmp_path / "old.json", wide=1.0, retired=4.0)
    new = _snapshot(tmp_path / "new.json", wide=1.0, brand_new=0.5)
    assert compare_bench.main([old, new]) == 0
    out = capsys.readouterr().out
    assert "added: brand_new" in out
    assert "removed: retired" in out
    assert "OK" in out


def test_disjoint_snapshots_still_succeed(tmp_path):
    """The degenerate case that used to make the diff unusable: a PR whose
    snapshot shares no scenario with the baseline."""
    old = _snapshot(tmp_path / "old.json", a=1.0)
    new = _snapshot(tmp_path / "new.json", b=1.0)
    assert compare_bench.main([old, new]) == 0


def test_regression_detected(tmp_path, capsys):
    old = _snapshot(tmp_path / "old.json", wide=1.0)
    new = _snapshot(tmp_path / "new.json", wide=1.5, extra=9.9)
    assert compare_bench.main([old, new]) == 1
    out = capsys.readouterr().out
    assert "REGRESSION" in out
    assert "added: extra" in out  # the new scenario is reported, not blamed


def test_speedup_is_not_a_regression(tmp_path):
    old = _snapshot(tmp_path / "old.json", wide=2.0)
    new = _snapshot(tmp_path / "new.json", wide=1.0)
    assert compare_bench.main([old, new]) == 0


def test_unreadable_file_exits_2(tmp_path):
    bad = tmp_path / "missing.json"
    good = _snapshot(tmp_path / "good.json", wide=1.0)
    with pytest.raises(SystemExit) as exc:
        compare_bench.main([str(bad), good])
    assert exc.value.code == 2


# -- scaling mode --------------------------------------------------------------
def _driver_snapshot(path: Path, ratio: float, host_cpus: int) -> str:
    payload = {
        "schema": 2,
        "host_cpus": host_cpus,
        "scaling": {
            "parallel_2_vs_serial": ratio,
            "parallel_4_vs_serial": ratio,
            "parallel_8_vs_serial": ratio,
        },
    }
    path.write_text(json.dumps(payload))
    return str(path)


def test_scaling_floor_is_host_aware():
    assert compare_bench.scaling_floor({"host_cpus": 8}, None) == 1.0
    assert compare_bench.scaling_floor({"host_cpus": 1}, None) == 0.85
    assert compare_bench.scaling_floor({}, None) == 0.85  # missing → assume 1 cpu
    assert compare_bench.scaling_floor({"host_cpus": 8}, 2.5) == 2.5


def test_scaling_pass_on_single_core_parity(tmp_path, capsys):
    snap = _driver_snapshot(tmp_path / "b.json", ratio=0.95, host_cpus=1)
    assert compare_bench.main(["--check-scaling", snap]) == 0
    assert "OK" in capsys.readouterr().out


def test_scaling_collapse_fails_even_on_single_core(tmp_path, capsys):
    snap = _driver_snapshot(tmp_path / "b.json", ratio=0.5, host_cpus=1)
    assert compare_bench.main(["--check-scaling", snap]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_scaling_multi_core_requires_speedup_floor(tmp_path):
    # 0.95x is fine on one core but a failure on a real multi-core host
    snap = _driver_snapshot(tmp_path / "b.json", ratio=0.95, host_cpus=8)
    assert compare_bench.main(["--check-scaling", snap]) == 1


def test_scaling_min_ratio_override(tmp_path):
    snap = _driver_snapshot(tmp_path / "b.json", ratio=2.6, host_cpus=8)
    assert compare_bench.main(["--check-scaling", snap, "--min-ratio", "2.5"]) == 0
    assert compare_bench.main(["--check-scaling", snap, "--min-ratio", "3.0"]) == 1


def test_scaling_missing_section_exits_2(tmp_path):
    path = tmp_path / "old-schema.json"
    path.write_text(json.dumps({"schema": 1, "scenarios": []}))
    assert compare_bench.main(["--check-scaling", str(path)]) == 2


def test_scaling_mode_rejects_positional_snapshots(tmp_path):
    snap = _driver_snapshot(tmp_path / "b.json", ratio=1.0, host_cpus=1)
    assert compare_bench.main(["--check-scaling", snap, snap]) == 2


# -- counts mode ---------------------------------------------------------------
def _counted(path: Path, **scenarios: dict) -> str:
    payload = {
        "scenarios": [{"scenario": name, **row} for name, row in scenarios.items()]
    }
    path.write_text(json.dumps(payload))
    return str(path)


_ROW = {"worklist_s": 0.03, "worklist_blocks_transferred": 13, "worklist_iterations": 4}


def test_counts_equal_pass_whatever_the_timings(tmp_path, capsys):
    committed = _counted(tmp_path / "c.json", wide=_ROW)
    new = _counted(tmp_path / "n.json", wide=dict(_ROW, worklist_s=0.09))
    assert compare_bench.main(["--counts", committed, new]) == 0
    assert "OK: 2 count(s) equal" in capsys.readouterr().out


def test_a_count_that_rose_fails(tmp_path, capsys):
    committed = _counted(tmp_path / "c.json", wide=_ROW)
    new = _counted(tmp_path / "n.json", wide=dict(_ROW, worklist_iterations=5))
    assert compare_bench.main(["--counts", committed, new]) == 1
    out = capsys.readouterr().out
    assert "1 count(s) rose" in out
    assert "wide: worklist_iterations 4 -> 5" in out


def test_a_count_that_fell_fails_and_asks_for_the_new_snapshot(tmp_path, capsys):
    committed = _counted(tmp_path / "c.json", wide=_ROW)
    new = _counted(tmp_path / "n.json", wide=dict(_ROW, worklist_blocks_transferred=9))
    assert compare_bench.main(["--counts", committed, new]) == 1
    out = capsys.readouterr().out
    assert "1 count(s) fell; commit the new snapshot" in out
    assert "wide: worklist_blocks_transferred 13 -> 9" in out


def test_counts_one_level_down_are_compared(tmp_path, capsys):
    """``BENCH_incremental.json`` keeps its work counts in an object."""
    def row(**incremental):
        counters = {"fixpoints_run": 298, "dirty": 298, "ratio": 0.5, **incremental}
        return dict(_ROW, incremental=counters)

    committed = _counted(tmp_path / "c.json", cold=row())
    same = _counted(tmp_path / "s.json", cold=row(ratio=0.9))
    assert compare_bench.main(["--counts", committed, same]) == 0
    assert "OK: 4 count(s) equal" in capsys.readouterr().out
    rose = _counted(tmp_path / "n.json", cold=row(fixpoints_run=312))
    assert compare_bench.main(["--counts", committed, rose]) == 1
    assert "cold: incremental.fixpoints_run 298 -> 312" in capsys.readouterr().out


def test_floats_and_bools_are_not_counts(tmp_path):
    committed = _counted(tmp_path / "c.json", wide=dict(_ROW, speedup=5.0, quick=True))
    new = _counted(tmp_path / "n.json", wide=dict(_ROW, speedup=2.0, quick=False))
    assert compare_bench.main(["--counts", committed, new]) == 0


def test_scenarios_in_one_file_only_are_listed_not_failed(tmp_path, capsys):
    committed = _counted(tmp_path / "c.json", wide=_ROW, retired=_ROW)
    new = _counted(tmp_path / "n.json", wide=_ROW, brand_new=dict(_ROW, worklist_iterations=99))
    assert compare_bench.main(["--counts", committed, new]) == 0
    out = capsys.readouterr().out
    assert "retired: only in the committed snapshot" in out
    assert "brand_new: only in the new snapshot" in out


def test_counts_mode_rejects_positional_snapshots(tmp_path):
    snap = _counted(tmp_path / "c.json", wide=_ROW)
    assert compare_bench.main(["--counts", snap, snap, snap]) == 2
