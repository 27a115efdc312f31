"""Cache integrity tests: checksummed records, corruption detection/eviction,
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
    RECORD_SUFFIX,
    CorruptEntryError,
    Record,
    ResultCache,
    decode_record,
    encode_record,
)
from repro.driver.corpus import CorpusItem
from repro.driver.faults import FAULTS_ENV_VAR

SRC = standard_source("ListNode") + """
function touch(p) { p->coef = 1; return p; }
"""


def _stage_entries(root):
    """All checksummed records under the store — one per program (the
    top-level ledger is unchecksummed and not part of the audit surface)."""
    return sorted(root.rglob(f"*{RECORD_SUFFIX}"))


def _record(report: dict) -> Record:
    """A record whose manifest names one report and one summary."""
    return Record(
        {"functions": {"f": {"report": "r1", "line": 3}}, "order": ["f"]},
        {
            ("report", "r1"): "3 " + json.dumps(report, sort_keys=True),
            ("summary", "s1"): json.dumps({"functions": {"f": {"return_type": None}}}),
        },
    )


class TestChecksumCodec:
    def test_round_trip(self):
        record = _record({"function": "f", "loops": [1, 2], "nested": {"a": None}})
        assert decode_record(encode_record(record)) == record

    def test_truncated_record_is_detected(self):
        data = encode_record(_record({"function": "f"}))
        with pytest.raises(CorruptEntryError, match="checksum mismatch"):
            decode_record(data[: len(data) // 2])

    def test_garbage_is_detected(self):
        with pytest.raises(CorruptEntryError, match="no checksum line"):
            decode_record(b"}}} total garbage")

    def test_a_version_13_entry_is_detected(self):
        # until cache version 13 a store file was one JSON checksum wrapper:
        # it must read as corrupt (and be evicted), never as a record
        legacy = json.dumps({"payload": {"function": "f"}, "sha256": "0" * 64}, sort_keys=True)
        with pytest.raises(CorruptEntryError, match="no checksum line"):
            decode_record(legacy.encode())

    def test_bit_flip_is_detected(self):
        data = encode_record(_record({"function": "f", "iterations": 3}))
        flipped = data.replace(b'"iterations": 3', b'"iterations": 4')
        assert flipped != data
        with pytest.raises(CorruptEntryError, match="checksum mismatch"):
            decode_record(flipped)

    def test_a_checksummed_file_that_is_no_record_is_detected(self):
        body = b"{}\nreport-without-a-key\n"
        data = hashlib.sha256(body).hexdigest().encode() + b"\n" + body
        with pytest.raises(CorruptEntryError, match="not a record"):
            decode_record(data)


def _no_json_encoder(monkeypatch):
    """Make every ``json`` encoder call, C or pure Python, raise."""

    def refuse(*args, **kwargs):
        raise AssertionError("a JSON encoder ran")

    monkeypatch.setattr(json.JSONEncoder, "encode", refuse)
    monkeypatch.setattr(json.JSONEncoder, "iterencode", refuse)


class TestOneEncoding:
    """A record is its lines of canonical JSON: the bytes its checksum covers
    are the manifest's canonical JSON and each artifact's text as it was
    encoded, so a read hashes what it found, decodes the manifest once and
    leaves every artifact the text it read."""

    REPORT = {"function": "f", "loops": [{"line": 3, "reasons": ["a"]}], "iterations": 3}

    def test_each_line_is_canonical_json_under_the_checksum(self):
        record = _record(self.REPORT)
        data = encode_record(record)
        digest, manifest, *artifacts, end = data.decode().split("\n")
        assert end == ""
        assert digest == hashlib.sha256(data[len(digest) + 1 :]).hexdigest()
        assert manifest == json.dumps(record.manifest, sort_keys=True)
        assert artifacts == [
            f"{stage} {key} {text}" for (stage, key), text in sorted(record.artifacts.items())
        ]
        # an artifact is stored once, as the text it was given: no escaping
        canonical = json.dumps(self.REPORT, sort_keys=True)
        assert f"report r1 3 {canonical}" in artifacts

    def test_store_read_calls_no_json_encoder(self, tmp_path, monkeypatch):
        record = _record(self.REPORT)
        ResultCache(tmp_path).put("k1", record, stage="program")
        _no_json_encoder(monkeypatch)
        fresh = ResultCache(tmp_path)
        assert fresh.get("k1", stage="program") == record
        assert fresh.verify()["ok"] == 1

    def test_reformatted_manifest_fails_the_checksum(self):
        record = _record(self.REPORT)
        data = encode_record(record)
        canonical = json.dumps(record.manifest, sort_keys=True)
        compact = json.dumps(record.manifest, sort_keys=True, separators=(",", ":"))
        reformatted = data.replace(canonical.encode(), compact.encode())
        assert reformatted != data
        assert json.loads(compact) == json.loads(canonical)
        with pytest.raises(CorruptEntryError, match="checksum mismatch"):
            decode_record(reformatted)

    def test_a_checksum_over_another_encoding_fails(self):
        # the same record with its checksum taken over a compact encoding of
        # the manifest: the lines are canonical, the checksum is not theirs
        record = _record(self.REPORT)
        data = encode_record(record)
        compact = data[65:].replace(
            json.dumps(record.manifest, sort_keys=True).encode(),
            json.dumps(record.manifest, sort_keys=True, separators=(",", ":")).encode(),
        )
        forged = hashlib.sha256(compact).hexdigest().encode() + data[64:]
        with pytest.raises(CorruptEntryError, match="checksum mismatch"):
            decode_record(forged)


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

    def test_a_record_without_a_report_heals_from_its_summary(self, tmp_path):
        # the report is the only per-function artifact: a record that lacks
        # one (rewritten with a valid checksum) costs one recompute of its
        # function (its summary is still served), and the republished record
        # serves the next run whole
        _, items, seeded = self._seed(tmp_path)
        clean = {p.name: p.functions for p in seeded.programs}
        (entry,) = _stage_entries(tmp_path)
        record = decode_record(entry.read_bytes())
        record.artifacts = {
            named: text for named, text in record.artifacts.items() if named[0] != "report"
        }
        entry.write_bytes(encode_record(record))
        driver = BatchDriver(jobs=1, cache_dir=tmp_path, simulate=False)
        report = driver.analyze_corpus(items)
        assert json.dumps(
            {p.name: p.functions for p in report.programs}, sort_keys=True
        ) == json.dumps(clean, sort_keys=True)
        assert report.incremental["reused"] == 0
        assert report.store["evictions"] == 0
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
        cache.put("k1", _record({"function": "f"}), stage="program")
        monkeypatch.setenv(FAULTS_ENV_VAR, "io:rate=1.0,times=1")
        fresh = ResultCache(tmp_path)
        assert fresh.get("k1", stage="program") == _record({"function": "f"})
        assert fresh.io_retries == 1
        assert fresh.stage_counters["program"]["hits"] == 1

    def test_persistent_io_error_degrades_to_miss(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        cache.put("k1", _record({"function": "f"}), stage="program")
        monkeypatch.setenv(FAULTS_ENV_VAR, "io:rate=1.0,times=99")
        fresh = ResultCache(tmp_path)
        assert fresh.get("k1", stage="program") is None  # a miss, not an exception
        assert fresh.stage_counters["program"]["misses"] == 1
