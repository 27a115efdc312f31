"""Cache integrity tests: checksummed entries, corruption detection/eviction,
the verify audit, and transient-I/O retry — including the injected-fault
convergence property (a run whose cache writes were corrupted re-analyzes and
converges on the next run instead of serving garbage).
"""

import hashlib
import json

import pytest

from repro.adds.library import standard_source
from repro.driver.batch import BatchDriver
from repro.driver.cache import (
    CorruptEntryError,
    ResultCache,
    decode_entry,
    encode_entry,
    payload_digest,
)
from repro.driver.corpus import CorpusItem
from repro.driver.faults import FAULTS_ENV_VAR

SRC = standard_source("ListNode") + """
function touch(p) { p->coef = 1; return p; }
"""


def _stage_entries(root):
    """All checksummed artifacts under the staged store (the top-level
    ledger is unchecksummed and not part of the audit surface)."""
    return sorted(p for p in root.rglob("*.json") if p.parent != root)


class TestChecksumCodec:
    def test_round_trip(self):
        payload = {"function": "f", "loops": [1, 2], "nested": {"a": None}}
        assert decode_entry(encode_entry(payload)) == payload

    def test_truncated_entry_is_detected(self):
        text = encode_entry({"function": "f"})
        with pytest.raises(CorruptEntryError):
            decode_entry(text[: len(text) // 2])

    def test_garbage_is_detected(self):
        with pytest.raises(CorruptEntryError, match="not valid JSON"):
            decode_entry("}}} total garbage")

    def test_legacy_unwrapped_entry_is_detected(self):
        # pre-checksum cache files were the bare payload: must read as corrupt
        # (and be evicted), never as a valid report
        with pytest.raises(CorruptEntryError, match="checksum wrapper"):
            decode_entry(json.dumps({"function": "f", "loops": []}))

    def test_bit_flip_is_detected(self):
        text = encode_entry({"function": "f", "iterations": 3})
        flipped = text.replace('"iterations": 3', '"iterations": 4')
        with pytest.raises(CorruptEntryError, match="checksum mismatch"):
            decode_entry(flipped)


def _no_json_encoder(monkeypatch):
    """Make every ``json`` encoder call, C or pure Python, raise."""

    def refuse(*args, **kwargs):
        raise AssertionError("a JSON encoder ran")

    monkeypatch.setattr(json.JSONEncoder, "encode", refuse)
    monkeypatch.setattr(json.JSONEncoder, "iterencode", refuse)


class TestOneEncoding:
    """An entry is encoded once: its payload bytes are the bytes its checksum
    covers, so a read hashes what it found and parses it once."""

    PAYLOAD = {"function": "f", "loops": [{"line": 3, "reasons": ["a"]}], "iterations": 3}

    def test_entry_is_the_canonical_json_of_its_wrapper(self):
        text = encode_entry(self.PAYLOAD)
        canonical = json.dumps(self.PAYLOAD, sort_keys=True)
        assert text == json.dumps(
            {"payload": self.PAYLOAD, "sha256": payload_digest(self.PAYLOAD)}, sort_keys=True
        )
        assert canonical in text
        assert payload_digest(self.PAYLOAD) == hashlib.sha256(canonical.encode()).hexdigest()

    def test_store_read_calls_no_json_encoder(self, tmp_path, monkeypatch):
        ResultCache(tmp_path).put("k1", self.PAYLOAD, stage="report")
        _no_json_encoder(monkeypatch)
        fresh = ResultCache(tmp_path)
        assert fresh.get("k1", stage="report") == self.PAYLOAD
        assert fresh.verify()["ok"] == 1

    def test_reindented_payload_fails_the_checksum(self):
        text = encode_entry(self.PAYLOAD)
        canonical = json.dumps(self.PAYLOAD, sort_keys=True)
        reindented = text.replace(canonical, json.dumps(self.PAYLOAD, sort_keys=True, indent=2))
        assert reindented != text
        assert json.loads(reindented) == json.loads(text)
        with pytest.raises(CorruptEntryError, match="checksum mismatch"):
            decode_entry(reindented)

    def test_reformatted_wrapper_fails_the_checksum(self):
        # what an entry written before cache version 11 looks like: an
        # indented wrapper whose checksum covers a compact encoding
        legacy = json.dumps(
            {
                "payload": self.PAYLOAD,
                "sha256": hashlib.sha256(
                    json.dumps(self.PAYLOAD, sort_keys=True, separators=(",", ":")).encode()
                ).hexdigest(),
            },
            indent=1,
            sort_keys=True,
        )
        with pytest.raises(CorruptEntryError, match="checksum mismatch"):
            decode_entry(legacy)


class TestCorruptionRecovery:
    def _seed(self, tmp_path, **kwargs):
        driver = BatchDriver(jobs=1, cache_dir=tmp_path, simulate=False, **kwargs)
        items = [CorpusItem(name="one", source=SRC)]
        return driver, items, driver.analyze_corpus(items)

    def test_corrupt_entry_is_evicted_and_reanalyzed(self, tmp_path):
        _, items, seeded = self._seed(tmp_path)
        assert seeded.incremental["recomputed"] == 1
        for entry in _stage_entries(tmp_path):
            entry.write_text("garbage {{{")
        driver = BatchDriver(jobs=1, cache_dir=tmp_path, simulate=False)
        report = driver.analyze_corpus(items)
        assert report.incremental["reused"] == 0
        assert report.incremental["recomputed"] == 1
        assert report.store["evictions"] >= 1
        # the rewritten entries are whole again
        driver = BatchDriver(jobs=1, cache_dir=tmp_path, simulate=False)
        warm = driver.analyze_corpus(items)
        assert warm.incremental["reused"] == 1
        assert warm.store["evictions"] == 0

    def test_corrupt_and_clean_reports_are_identical(self, tmp_path):
        _, items, seeded = self._seed(tmp_path)
        clean = {p.name: p.functions for p in seeded.programs}
        for entry in _stage_entries(tmp_path):
            entry.write_text(entry.read_text()[:40])
        recovered = BatchDriver(jobs=1, cache_dir=tmp_path, simulate=False).analyze_corpus(items)
        assert {p.name: p.functions for p in recovered.programs} == clean

    def test_corrupt_report_heals_from_stage_artifacts(self, tmp_path):
        # the report is the only per-function artifact: losing it costs one
        # recompute of its function (its summary is still served), and the
        # rewritten report serves the next run whole
        _, items, seeded = self._seed(tmp_path)
        clean = {p.name: p.functions for p in seeded.programs}
        for entry in (tmp_path / "report").glob("*.json"):
            entry.write_text("garbage {{{")
        driver = BatchDriver(jobs=1, cache_dir=tmp_path, simulate=False)
        report = driver.analyze_corpus(items)
        assert json.dumps(
            {p.name: p.functions for p in report.programs}, sort_keys=True
        ) == json.dumps(clean, sort_keys=True)
        assert report.incremental["reused"] == 0
        assert report.store["evictions"] == 1
        assert report.incremental["recomputed"] == 1
        assert report.incremental["fixpoints_run"] == 1
        assert report.incremental["summaries_reused"] == 1
        warm = BatchDriver(jobs=1, cache_dir=tmp_path, simulate=False).analyze_corpus(items)
        assert warm.incremental["programs_unchanged"] == 1
        assert warm.incremental["recomputed"] == 0

    def test_injected_write_corruption_converges(self, tmp_path, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, "cache:writes=99")
        _, items, seeded = self._seed(tmp_path)
        clean = {p.name: p.functions for p in seeded.programs}
        monkeypatch.delenv(FAULTS_ENV_VAR)
        # first uninjected run detects the torn writes, evicts, re-analyzes
        driver = BatchDriver(jobs=1, cache_dir=tmp_path, simulate=False)
        healed = driver.analyze_corpus(items)
        assert healed.store["evictions"] >= 1
        assert healed.incremental["recomputed"] == 1
        assert {p.name: p.functions for p in healed.programs} == clean
        # second uninjected run is fully warm
        warm = BatchDriver(jobs=1, cache_dir=tmp_path, simulate=False).analyze_corpus(items)
        assert warm.incremental["reused"] == 1
        assert warm.incremental["recomputed"] == 0


class TestVerify:
    def _seeded_cache(self, tmp_path):
        driver = BatchDriver(jobs=1, cache_dir=tmp_path, simulate=False)
        driver.analyze_corpus([CorpusItem(name="one", source=SRC)])
        return ResultCache(tmp_path)

    def test_verify_clean_cache(self, tmp_path):
        cache = self._seeded_cache(tmp_path)
        audit = cache.verify()
        assert audit["checked"] == audit["ok"] == len(_stage_entries(tmp_path))
        assert audit["checked"] >= 1
        assert audit["corrupt"] == []

    def test_verify_reports_without_evicting(self, tmp_path):
        cache = self._seeded_cache(tmp_path)
        entry = _stage_entries(tmp_path)[0]
        entry.write_text("nope")
        audit = cache.verify()
        assert len(audit["corrupt"]) == 1
        assert audit["evicted"] == 0
        assert entry.exists()

    def test_verify_evicts_on_request(self, tmp_path):
        cache = self._seeded_cache(tmp_path)
        entry = _stage_entries(tmp_path)[0]
        entry.write_text("nope")
        audit = cache.verify(evict=True)
        assert audit["evicted"] == 1
        assert cache.evictions == 1
        assert not entry.exists()

    def test_verify_on_missing_directory(self, tmp_path):
        cache = ResultCache(tmp_path / "never-created")
        assert cache.verify() == {"checked": 0, "ok": 0, "corrupt": [], "evicted": 0}


class TestTransientIO:
    def test_io_error_is_retried_once_and_counted(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        cache.put("k1", {"function": "f"}, stage="report")
        monkeypatch.setenv(FAULTS_ENV_VAR, "io:rate=1.0,times=1")
        fresh = ResultCache(tmp_path)
        assert fresh.get("k1", stage="report") == {"function": "f"}
        assert fresh.io_retries == 1
        assert fresh.stage_counters["report"]["hits"] == 1

    def test_persistent_io_error_degrades_to_miss(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        cache.put("k1", {"function": "f"}, stage="report")
        monkeypatch.setenv(FAULTS_ENV_VAR, "io:rate=1.0,times=99")
        fresh = ResultCache(tmp_path)
        assert fresh.get("k1", stage="report") is None  # a miss, not an exception
        assert fresh.stage_counters["report"]["misses"] == 1
