"""On-disk, content-addressed artifact store for the staged analysis engine.

The store holds one checksummed **record** per program, under the live
directory of this :data:`CACHE_VERSION`::

    <dir>/v<CACHE_VERSION>/program/<key>.rec   one record per program
    <dir>/last-run.json                        the last run's counters
    <dir>/quarantine/                          poison-task records

A record holds the program's manifest (what its last run found), the
``summary`` artifacts (one per call-graph component) and ``report``
artifacts (one per function) that the manifest names, and the program's
simulation; :mod:`repro.driver.stages` serves a program only from its own
record.  An artifact's key covers everything that can influence it: the
cache version, the analysis options, the program's type declarations (ADDS
information changes verdicts), the function's own declaration text — and,
per the bottom-up interprocedural discipline, the *artifact digests* of its
direct callees' summaries rather than their bodies.  That indirection is
the early-cutoff firewall: editing a leaf in a way that leaves its summary
artifact byte-identical leaves every caller's keys untouched, so callers
are reused without being re-analyzed.  Report keys do not cover the file
offset, so a function that an edit above it moved keeps its report; the
driver moves the report to the function's new lines.

A record file is lines of text (:func:`encode_record`): the SHA-256 of
everything after the first line, the manifest's canonical JSON
(:func:`canonical_json`), and one line ``<stage> <key> <text>`` per
artifact, whose text is the artifact as it was encoded when it was made.
A read hashes the bytes it found and decodes the manifest alone; every
artifact stays the text it was read as until someone asks for it, and a
publish copies the lines it does not change.  A truncated, garbled,
re-formatted or bit-flipped file — crashed writer, bad sector, an
overeager ``sed`` — is therefore *detected* at read time, evicted from
disk, and counted, and what it held is simply recomputed (a lost record
costs its own program's functions); it can never feed a corrupt artifact
into a batch.  Reads that raise :class:`OSError` (flaky network
filesystems) are retried once before being treated as a miss.
``verify()`` audits the live directory on demand (the ``repro cache
verify`` subcommand); everything else in the store but the ledger and
``quarantine/`` is *stale* — what other store versions wrote — which runs
never read and ``clear()`` removes.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path

from repro.lang.ast_nodes import Program
from repro.lang.callgraph import call_graph, reachable
from repro.lang.pretty import unparse

from repro.driver.faults import active_plan

#: bump when the per-function report schema, the store layout or analysis
#: semantics change; each version keeps its records in its own directory
CACHE_VERSION = 14  # v14: a record keeps each artifact as its one line of text

#: the suffix of a record file, which is lines of text, not one JSON document
RECORD_SUFFIX = ".rec"

#: the stage namespaces runs read and write, one subdirectory each of the
#: live directory: one ``program`` record per program
STAGES = ("program",)

#: name of the (unchecksummed) per-run counter ledger at the store top level
LEDGER_NAME = "last-run.json"

#: the quarantine records' directory at the store top level, which is not
#: part of the store: the maintenance commands neither count nor clear it
QUARANTINE_NAME = "quarantine"

#: the store-wide counters a :class:`ResultCache` keeps besides the per-stage ones
_COUNTERS = ("evictions", "io_retries", "bytes_read", "bytes_written")


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


def _size(path: Path) -> int:
    try:
        return path.stat().st_size
    except OSError:
        return 0


class CorruptEntryError(ValueError):
    """A cache file failed its integrity check."""


#: ``json.dumps(payload, sort_keys=True)``, made once
_CANONICAL = json.JSONEncoder(sort_keys=True)


def canonical_json(payload) -> str:
    """The one canonical JSON text of ``payload``: sorted keys, the default
    separators, no indentation (so the C encoder writes it), ASCII only."""
    return _CANONICAL.encode(payload)


def canonical_object(members: dict[str, str]) -> str:
    """:func:`canonical_json` of an object given as its members' own
    canonical JSON texts, which are spliced in as they are."""
    quote = json.encoder.encode_basestring_ascii
    pieces = ["{"]
    for name in sorted(members):
        pieces += (quote(name), ": ", members[name], ", ")
    pieces[-1] = "}" if members else "{}"  # the last separator, or the "{"
    return "".join(pieces)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def payload_digest(payload: dict) -> str:
    """SHA-256 of :func:`canonical_json` of ``payload``.

    The artifact digest callers fold into their own stage keys (the
    firewall test is "is the callee's artifact byte-identical?" — i.e.
    digest-identical).
    """
    return _sha256(canonical_json(payload))


@dataclass
class Record:
    """One program's record: its manifest, decoded, and its artifacts, each
    the one line of text it is stored as, by ``(stage, key)``."""

    manifest: dict
    artifacts: dict[tuple[str, str], str] = field(default_factory=dict)


_DIGEST_LEN = 64


def encode_record(record: Record) -> bytes:
    """A record's file: the hex SHA-256 of the rest, the manifest's
    canonical JSON, and a line ``<stage> <key> <text>`` per artifact, in
    ``(stage, key)`` order; each line ends with a newline.  Only the
    manifest is encoded; the artifacts' texts are copied."""
    lines = [canonical_json(record.manifest)]
    lines += [f"{stage} {key} {text}" for (stage, key), text in sorted(record.artifacts.items())]
    body = ("\n".join(lines) + "\n").encode()
    return hashlib.sha256(body).hexdigest().encode() + b"\n" + body


def decode_record(data: bytes) -> Record:
    """A record file's record, raising :class:`CorruptEntryError` if it is
    truncated, garbled or fails its checksum.

    The bytes are hashed as read and only the manifest is decoded; a file
    whose lines are not the ones its checksum covers (re-indented, or not
    a record at all) fails the checksum.
    """
    if data[_DIGEST_LEN : _DIGEST_LEN + 1] != b"\n":
        raise CorruptEntryError("no checksum line")
    body = memoryview(data)[_DIGEST_LEN + 1 :]
    if hashlib.sha256(body).hexdigest().encode() != data[:_DIGEST_LEN]:
        raise CorruptEntryError("checksum mismatch")
    try:  # a file that passes its checksum yet was not written here
        _, manifest, *lines, end = data.decode().split("\n")
        if end:
            raise ValueError("no newline at the end")
        record = Record(json.loads(manifest))
        for line in lines:
            stage, key, text = line.split(" ", 2)
            record.artifacts[stage, key] = text
    except ValueError as exc:
        raise CorruptEntryError(f"not a record ({exc})") from None
    return record


class ResultCache:
    """A per-stage tree of ``<stage>/<key>.rec`` checksummed records under
    the live directory ``v<CACHE_VERSION>``.

    ``directory=None`` disables the store (every lookup misses, nothing is
    written) so the driver code has a single code path.  Every read/write
    names its ``stage`` namespace.
    """

    def __init__(self, directory: str | Path | None):
        self.directory = Path(directory) if directory is not None else None
        #: this version's entries; everything else in the store is stale
        self.live = (
            self.directory / f"v{CACHE_VERSION}" if self.directory is not None else None
        )
        self.evictions = 0  # corrupt entries detected and removed
        self.io_retries = 0  # reads that failed once and were retried
        self.bytes_read = 0  # bytes of the record files read
        self.bytes_written = 0  # bytes of the record files published
        #: per-stage {"hits", "misses", "writes"} counters
        self.stage_counters: dict[str, dict[str, int]] = {}
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
        assert self.live is not None
        return self.live / stage / f"{key}{RECORD_SUFFIX}"

    def _load(self, key: str, stage: str) -> Record | None:
        """Read + integrity-check one record: transient ``OSError`` reads
        are retried once; a corrupt record is evicted from disk; both (and a
        missing file) come back as ``None`` — i.e. a miss, recompute."""
        path = self._path(key, stage)
        plan = active_plan()
        for final in (False, True):
            attempt = self._read_attempts.get((stage, key), 0)
            self._read_attempts[(stage, key)] = attempt + 1
            try:
                if plan.should_io_error(key, attempt):
                    raise OSError(f"injected transient I/O error reading {path.name}")
                data = path.read_bytes()
            except FileNotFoundError:
                return None
            except OSError:
                if final:
                    return None
                self.io_retries += 1
                continue
            self.bytes_read += len(data)
            try:
                return decode_record(data)
            except CorruptEntryError:
                self.evictions += 1
                path.unlink(missing_ok=True)
                return None
        return None

    def get(self, key: str, stage: str) -> Record | None:
        record = self._load(key, stage) if self.directory is not None else None
        self._counters(stage)["misses" if record is None else "hits"] += 1
        return record

    def put(self, key: str, record: Record, stage: str) -> None:
        if self.directory is None:
            return
        path = self._path(key, stage)
        path.parent.mkdir(parents=True, exist_ok=True)
        data = encode_record(record)
        # ``cache:writes=N`` counts this process's own writes, every stage's
        writes = sum(counters["writes"] for counters in self.stage_counters.values())
        if active_plan().should_corrupt_cache(key, writes):
            # simulate a torn write: publish a truncated, garbled record (the
            # publishing engine keeps its good copy — corruption bites the
            # *next* process, exactly like the real failure)
            data = data[: max(8, len(data) // 2)] + b'"<<torn write>>'
        # per-process tmp name: two processes (pool workers, concurrent
        # runs) racing on the same key must not share a scratch file, or one
        # publishes the other's torn write
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_bytes(data)
        try:
            tmp.replace(path)  # atomic publish: concurrent runs see full files
        except OSError:
            # a concurrent `cache --clear` swept our scratch file; the cache
            # is best-effort, so losing one write must not abort the batch
            return
        self._counters(stage)["writes"] += 1
        self.bytes_written += len(data)

    # -- counters across processes -------------------------------------------
    def counters(self, since: dict | None = None) -> dict:
        """Every counter: ``stages`` (per stage ``hits``, ``misses`` and
        ``writes``), ``evictions``, ``io_retries``, ``bytes_read`` and
        ``bytes_written``, less the ``since`` snapshot when one is given."""
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
        """The live stage subdirectories: the ledger, ``quarantine/`` and
        stale files are not this version's checksummed entries and must not
        be audited as such."""
        if self.live is None or not self.live.is_dir():
            return
        for stage_dir in sorted(self.live.iterdir()):
            if stage_dir.is_dir():
                yield stage_dir.name, stage_dir

    def verify(self, evict: bool = False) -> dict:
        """Audit every live entry on disk against its checksum.

        Returns ``{"checked", "ok", "corrupt": [{"file", "error"}, ...],
        "evicted"}``; with ``evict=True`` corrupt files are also removed (and
        counted in :attr:`evictions`) so the next run recomputes them.
        """
        report: dict = {"checked": 0, "ok": 0, "corrupt": [], "evicted": 0}
        for stage, stage_dir in self._stage_dirs():
            for path in sorted(stage_dir.glob(f"*{RECORD_SUFFIX}")):
                report["checked"] += 1
                try:
                    decode_record(path.read_bytes())
                except (OSError, CorruptEntryError) as exc:
                    report["corrupt"].append(
                        {"file": f"{stage}/{path.name}", "error": str(exc)}
                    )
                    if evict:
                        path.unlink(missing_ok=True)
                        self.evictions += 1
                        report["evicted"] += 1
                else:
                    report["ok"] += 1
        return report

    def stale(self) -> dict[str, tuple[int, int]]:
        """Everything at the store's top level but the live directory, the
        ledger and ``quarantine/`` — the trees and flat entries other store
        versions wrote: per name, its file count and bytes."""
        found: dict[str, tuple[int, int]] = {}
        if self.directory is None or not self.directory.is_dir():
            return found
        for path in sorted(self.directory.iterdir()):
            if path == self.live or path.name in (LEDGER_NAME, QUARANTINE_NAME):
                continue
            files = [path] if not path.is_dir() else [p for p in path.rglob("*") if p.is_file()]
            found[path.name] = (len(files), sum(_size(p) for p in files))
        return found

    def clear(self) -> tuple[int, int]:
        """Delete every live entry, every stale file and the ledger; returns
        how many entries and stale files were removed.  ``quarantine/``
        stays."""
        removed = 0
        for _, stage_dir in self._stage_dirs():
            # live directories stay: a concurrent run may be publishing into
            # them; scratch files orphaned by a crashed writer go too
            for path in stage_dir.iterdir():
                path.unlink(missing_ok=True)
                removed += path.suffix == RECORD_SUFFIX
        stale = self.stale()
        for name in stale:
            path = self.directory / name
            if path.is_dir():
                shutil.rmtree(path, ignore_errors=True)
            else:
                path.unlink(missing_ok=True)
        if self.directory is not None:
            (self.directory / LEDGER_NAME).unlink(missing_ok=True)
        return removed, sum(files for files, _ in stale.values())

    def _entries(self, stage: str | None):
        for name, stage_dir in self._stage_dirs():
            if stage is None or name == stage:
                yield from stage_dir.glob(f"*{RECORD_SUFFIX}")

    def entry_count(self, stage: str | None = None) -> int:
        """Live entries on disk, in one ``stage`` or across all stages."""
        return sum(1 for _ in self._entries(stage))

    def disk_usage(self, stage: str | None = None) -> int:
        """Bytes of live entries on disk, in one ``stage`` or across all
        stages."""
        return sum(_size(path) for path in self._entries(stage))

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
