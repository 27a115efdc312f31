"""On-disk, content-addressed artifact store for the staged analysis engine.

The store holds four stages, one subdirectory each
(``<dir>/<stage>/<digest>.json``): one ``summary`` per call-graph
component, one ``report`` per function, one ``sim`` (simulation report) and
one ``manifest`` (the record of its last run) per program.  A stage's
digest covers everything that can influence its output: the cache version,
the analysis options, the program's type declarations (ADDS information
changes verdicts), the function's own declaration text — and, per the
bottom-up interprocedural discipline, the *artifact digests* of its direct
callees' summary stage rather than their bodies.  That indirection is the
early-cutoff firewall: editing a leaf in a way that leaves its summary
artifact byte-identical leaves every caller's keys untouched, so callers are
reused without being re-analyzed.

Stored payloads are *line-relative* (diagnostic line numbers are rebased to
the function's first line), so byte-identical function bodies at different
file offsets share one entry; the driver re-absolutizes on probe.

Each entry is encoded once: the file is the JSON object ``{"payload": P,
"sha256": H}`` whose ``P`` is, byte for byte, the payload's canonical JSON
(:func:`canonical_json`) and ``H`` the SHA-256 of those bytes.  A read
hashes the bytes it found and parses them once; it never re-encodes.  A
truncated, garbled, re-formatted or bit-flipped file — crashed writer, bad
sector, an overeager ``sed`` — is therefore *detected* at read time, evicted
from disk, and counted, and the stage is simply recomputed (a lost
``report`` costs one recompute of its function); it can never feed a
corrupt artifact into a batch.  Reads that raise :class:`OSError` (flaky
network filesystems) are retried once before being treated as a miss.
``verify()`` audits every stage directory on demand (the ``repro cache
verify`` subcommand).
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from repro.lang.ast_nodes import Program
from repro.lang.callgraph import call_graph, reachable
from repro.lang.pretty import unparse

from repro.driver.faults import active_plan

#: bump when the per-function report schema or analysis semantics change
#: (2: parallel-for gained the sequential for's step/descending/re-read
#: semantics, so cached simulation reports from version 1 may be stale)
CACHE_VERSION = 12  # v12: a self-assignment ``q = q`` keeps q's matrix row and column

#: stage namespaces of the artifact store, one subdirectory each
STAGES = ("summary", "report", "sim", "manifest")

#: stages earlier versions wrote and nothing reads: the maintenance
#: commands (info, stats, verify, clear) still walk them
RETIRED_STAGES = ("parse", "typecheck", "analysis", "loops", "transforms")

#: name of the (unchecksummed) per-run counter ledger at the store top level
LEDGER_NAME = "last-run.json"

#: the store-wide counters a :class:`ResultCache` keeps besides the per-stage ones
_COUNTERS = ("evictions", "io_retries")


def _sha(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\x00")
    return h.hexdigest()


def program_digest(source: str, options_key: str) -> str:
    """Cache key for whole-program stages (the simulation report)."""
    return _sha("program", str(CACHE_VERSION), options_key, source)


def function_digests(
    program: Program, options_key: str, texts: dict[str, str] | None = None
) -> dict[str, str]:
    """Per-function content digests: own declaration text + transitive
    callee body hashes.

    No store key uses these: the staged engine's keys (see
    :mod:`repro.driver.stages`) cover callee summary artifacts, not bodies.
    They remain a content-identity oracle: two functions with equal digests
    share every input of their report.  ``texts`` maps each function
    to its exact declaration text (its
    :func:`~repro.lang.split.split_declarations` entry's);
    stored payloads are line-relative to the function's first line, so the
    key must fix the lines *inside* the function — a blank line added to a
    body moves its loops — while the file offset is deliberately *not* an
    ingredient: byte-identical declarations at different offsets share one
    entry.  Without ``texts`` the unparsed function stands in.
    """
    types_src = "\n".join(unparse(t) for t in program.types)
    unparsed = {f.name: unparse(f) for f in program.functions}
    if texts is None:
        texts = unparsed
    body_digests = {name: _sha("body", src) for name, src in unparsed.items()}
    callees = call_graph(program)
    digests: dict[str, str] = {}
    for func in program.functions:
        callee_part = ";".join(
            f"{c}:{body_digests.get(c, '?')}"
            for c in sorted(reachable(callees, [func.name]))
        )
        digests[func.name] = _sha(
            "function",
            str(CACHE_VERSION),
            options_key,
            types_src,
            texts[func.name],
            callee_part,
        )
    return digests


class CorruptEntryError(ValueError):
    """A cache file failed its integrity check."""


def canonical_json(payload: dict) -> str:
    """The one canonical JSON text of ``payload``: sorted keys, the default
    separators, no indentation (so the C encoder writes it)."""
    return json.dumps(payload, sort_keys=True)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def payload_digest(payload: dict) -> str:
    """SHA-256 of :func:`canonical_json` of ``payload``.

    Doubles as the integrity checksum of stored entries and as the artifact
    digest callers fold into their own stage keys (the firewall test is
    "is the callee's artifact byte-identical?" — i.e. digest-identical).
    """
    return _sha256(canonical_json(payload))


#: an entry is ``_HEAD + canonical payload + _MID + checksum + _TAIL``, which
#: is also the canonical JSON of ``{"payload": ..., "sha256": ...}``
_HEAD = '{"payload": '
_MID = ', "sha256": "'
_TAIL = '"}'
_DIGEST_LEN = 64


def encode_entry(payload: dict) -> str:
    """Wrap ``payload`` with its checksum for on-disk storage."""
    canonical = canonical_json(payload)
    return f"{_HEAD}{canonical}{_MID}{_sha256(canonical)}{_TAIL}"


def decode_entry(text: str) -> dict:
    """Unwrap a stored entry, raising :class:`CorruptEntryError` if it is
    truncated, not a checksum wrapper, or fails the checksum.

    An intact entry is hashed as read and parsed once.  Anything else is
    parsed whole only to say what is wrong with it; a wrapper whose payload
    bytes are not the ones its checksum covers (re-indented, or written
    before :data:`CACHE_VERSION` 11) fails the checksum.
    """
    payload_end = len(text) - len(_MID) - _DIGEST_LEN - len(_TAIL)
    if (
        payload_end >= len(_HEAD)
        and text.startswith(_HEAD)
        and text.startswith(_MID, payload_end)
        and text.endswith(_TAIL)
    ):
        canonical = text[len(_HEAD) : payload_end]
        if _sha256(canonical) == text[payload_end + len(_MID) : -len(_TAIL)]:
            try:
                return json.loads(canonical)
            except json.JSONDecodeError as exc:
                raise CorruptEntryError(f"not valid JSON ({exc})") from None
    try:
        wrapper = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CorruptEntryError(f"not valid JSON ({exc})") from None
    if not isinstance(wrapper, dict) or set(wrapper) != {"payload", "sha256"}:
        raise CorruptEntryError("missing checksum wrapper")
    raise CorruptEntryError("checksum mismatch")


class ResultCache:
    """A per-stage tree of ``<stage>/<digest>.json`` checksummed payloads.

    ``directory=None`` disables the store (every lookup misses, nothing is
    written) so the driver code has a single code path.  Every read/write
    names its ``stage`` namespace.
    """

    def __init__(self, directory: str | Path | None):
        self.directory = Path(directory) if directory is not None else None
        self.evictions = 0  # corrupt entries detected and removed
        self.io_retries = 0  # reads that failed once and were retried
        #: per-stage {"hits", "misses", "writes"} counters
        self.stage_counters: dict[str, dict[str, int]] = {}
        #: payloads already read (or written) this run, keyed (stage, key)
        self._memory: dict[tuple[str, str], dict] = {}
        #: per-key read-attempt counts (drives deterministic transient-I/O
        #: fault injection; harmless bookkeeping otherwise)
        self._read_attempts: dict[tuple[str, str], int] = {}

    def _counters(self, stage: str) -> dict[str, int]:
        counters = self.stage_counters.get(stage)
        if counters is None:
            counters = self.stage_counters[stage] = {
                "hits": 0, "misses": 0, "writes": 0,
            }
        return counters

    def _path(self, key: str, stage: str) -> Path:
        assert self.directory is not None
        return self.directory / stage / f"{key}.json"

    def _load(self, key: str, stage: str) -> dict | None:
        """Read + integrity-check one entry: transient ``OSError`` reads are
        retried once; a corrupt entry is evicted from disk; both (and a
        missing file) come back as ``None`` — i.e. a miss, recompute."""
        path = self._path(key, stage)
        plan = active_plan()
        for final in (False, True):
            attempt = self._read_attempts.get((stage, key), 0)
            self._read_attempts[(stage, key)] = attempt + 1
            try:
                if plan.should_io_error(key, attempt):
                    raise OSError(f"injected transient I/O error reading {path.name}")
                text = path.read_text()
            except FileNotFoundError:
                return None
            except OSError:
                if final:
                    return None
                self.io_retries += 1
                continue
            try:
                return decode_entry(text)
            except CorruptEntryError:
                self.evictions += 1
                path.unlink(missing_ok=True)
                return None
        return None

    def get(self, key: str, stage: str) -> dict | None:
        counters = self._counters(stage)
        if self.directory is None:
            counters["misses"] += 1
            return None
        cached = self._memory.get((stage, key))
        if cached is not None:
            counters["hits"] += 1
            return cached
        payload = self._load(key, stage)
        if payload is None:
            counters["misses"] += 1
            return None
        self._memory[(stage, key)] = payload
        counters["hits"] += 1
        return payload

    def put(self, key: str, payload: dict, stage: str) -> None:
        if self.directory is None:
            return
        self._memory[(stage, key)] = payload
        path = self._path(key, stage)
        path.parent.mkdir(parents=True, exist_ok=True)
        text = encode_entry(payload)
        # ``cache:writes=N`` counts this process's own writes, every stage's
        writes = sum(counters["writes"] for counters in self.stage_counters.values())
        if active_plan().should_corrupt_cache(key, writes):
            # simulate a torn write: publish a truncated, garbled entry (the
            # in-memory copy above stays good — corruption bites the *next*
            # process, exactly like the real failure)
            text = text[: max(8, len(text) // 2)] + '"<<torn write>>'
        # per-process tmp name: two processes (pool workers, concurrent
        # runs) racing on the same key must not share a scratch file, or one
        # publishes the other's torn write
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(text)
        try:
            tmp.replace(path)  # atomic publish: concurrent runs see full files
        except OSError:
            # a concurrent `cache --clear` swept our scratch file; the cache
            # is best-effort, so losing one write must not abort the batch
            return
        self._counters(stage)["writes"] += 1

    # -- counters across processes -------------------------------------------
    def counters(self, since: dict | None = None) -> dict:
        """Every counter: ``stages`` (per stage ``hits``, ``misses`` and
        ``writes``), ``evictions`` and ``io_retries``, less the ``since``
        snapshot when one is given."""
        base = since or {"stages": {}}
        snapshot = {name: getattr(self, name) - base.get(name, 0) for name in _COUNTERS}
        snapshot["stages"] = {
            stage: {k: v - base["stages"].get(stage, {}).get(k, 0) for k, v in counts.items()}
            for stage, counts in self.stage_counters.items()
        }
        return snapshot

    def add_counters(self, counters: dict) -> None:
        """Add counters another process's store kept (a pool worker's task)."""
        for name in _COUNTERS:
            setattr(self, name, getattr(self, name) + counters[name])
        for stage, counts in counters["stages"].items():
            mine = self._counters(stage)
            for key, value in counts.items():
                mine[key] += value

    # -- maintenance ---------------------------------------------------------
    def _stage_dirs(self):
        """Existing stage subdirectories, retired ones included (quarantine/
        and the ledger are not checksummed artifacts and must not be audited
        as such)."""
        if self.directory is None:
            return
        for stage in STAGES + RETIRED_STAGES:
            stage_dir = self.directory / stage
            if stage_dir.is_dir():
                yield stage, stage_dir

    def verify(self, evict: bool = False) -> dict:
        """Audit every artifact on disk against its checksum.

        Returns ``{"checked", "ok", "corrupt": [{"file", "error"}, ...],
        "evicted"}``; with ``evict=True`` corrupt files are also removed (and
        counted in :attr:`evictions`) so the next run recomputes them.
        """
        report: dict = {"checked": 0, "ok": 0, "corrupt": [], "evicted": 0}
        for stage, stage_dir in self._stage_dirs():
            for path in sorted(stage_dir.glob("*.json")):
                report["checked"] += 1
                try:
                    decode_entry(path.read_text())
                except (OSError, CorruptEntryError) as exc:
                    report["corrupt"].append(
                        {"file": f"{stage}/{path.name}", "error": str(exc)}
                    )
                    if evict:
                        path.unlink(missing_ok=True)
                        self._memory.pop((stage, path.stem), None)
                        self.evictions += 1
                        report["evicted"] += 1
                else:
                    report["ok"] += 1
        return report

    def clear(self) -> int:
        """Delete every cached artifact; returns the number removed."""
        self._memory.clear()
        if self.directory is None or not self.directory.exists():
            return 0
        removed = 0
        for _, stage_dir in self._stage_dirs():
            for path in stage_dir.glob("*.json"):
                path.unlink(missing_ok=True)
                removed += 1
            # scratch files orphaned by a crashed writer (pid-suffixed, so a
            # later run never reuses them)
            for tmp in stage_dir.glob("*.tmp"):
                tmp.unlink(missing_ok=True)
        # pre-v6 flat entries and the counter ledger live at the top level
        for path in self.directory.glob("*.json"):
            path.unlink(missing_ok=True)
            if path.name != LEDGER_NAME:
                removed += 1
        for tmp in self.directory.glob("*.tmp"):
            tmp.unlink(missing_ok=True)
        return removed

    def entry_count(self, stage: str | None = None) -> int:
        """Artifacts on disk, in one ``stage`` or across all stages."""
        total = 0
        for name, stage_dir in self._stage_dirs():
            if stage is not None and name != stage:
                continue
            total += sum(1 for _ in stage_dir.glob("*.json"))
        return total

    def disk_usage(self, stage: str | None = None) -> int:
        """Bytes on disk, in one ``stage`` or across all stages."""
        total = 0
        for name, stage_dir in self._stage_dirs():
            if stage is not None and name != stage:
                continue
            for path in stage_dir.glob("*.json"):
                try:
                    total += path.stat().st_size
                except OSError:
                    continue
        return total

    # -- the run ledger (for `repro cache stats`) ----------------------------
    def write_ledger(self, stats: dict) -> None:
        """Persist a run's ``stats`` to the store as canonical JSON.

        Best-effort and unchecksummed — the ledger is informational (what
        ``repro cache stats`` says of the last run), never an input to
        analysis.
        """
        if self.directory is None:
            return
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            tmp = self.directory / f"{LEDGER_NAME}.{os.getpid()}.tmp"
            tmp.write_text(canonical_json(stats))
            tmp.replace(self.directory / LEDGER_NAME)
        except OSError:
            return

    def read_ledger(self) -> dict | None:
        if self.directory is None:
            return None
        try:
            return json.loads((self.directory / LEDGER_NAME).read_text())
        except (OSError, json.JSONDecodeError):
            return None
