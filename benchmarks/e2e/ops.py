"""Run each benchmark operation in a fresh process forked from a pre-imported one.

One operation is one call of the CLI's public entry point,
``repro.driver.cli.main(argv)``.  A *zygote* process is forked right after
``repro.driver.cli`` is imported, before the benchmark generates inputs or
reads reports; it forks one child per operation, one at a time.  So every
operation starts from the same clean, already-imported interpreter: it pays
no import time, inherits no warm parse caches or interning tables from
earlier operations, and its peak RSS does not include the benchmark's own
memory.

The child times ``main()`` itself and writes a reply file with the wall
time, the exit code and the peak RSS of itself and its children (pool
workers).  Its standard output goes to ``/dev/null``.  With a spans path
the child first installs the tracer (:mod:`trace`) and writes its spans
there afterwards.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
from typing import NamedTuple

from . import trace


class OpResult(NamedTuple):
    #: exit code of ``main()``; ``None`` when the operation raised or died
    rc: int | None
    wall_s: float
    #: largest ``ru_maxrss`` of the operation process and its children, KiB
    maxrss_kb: int
    error: str | None = None


def _run_child(argv: list[str], spans_path: str | None) -> dict:
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.close(devnull)
    from repro.driver import cli

    tracer = absent = None
    if spans_path is not None:
        tracer = trace.Tracer()
        absent = trace.install(tracer)
    error = None
    start = time.perf_counter()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # the op failed; the benchmark records it and goes on
        rc = None
        error = traceback.format_exc()
    wall = time.perf_counter() - start
    maxrss = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    if tracer is not None:
        tracer.dump(spans_path, absent)
    return {"rc": rc, "wall_s": wall, "maxrss_kb": maxrss, "error": error}


def _serve(requests, replies) -> None:
    """The zygote's loop: one forked child per request line."""
    for line in requests:
        request = json.loads(line)
        pid = os.fork()
        if pid == 0:
            try:
                reply = _run_child(request["argv"], request["spans"])
                with open(request["reply"], "w") as handle:
                    json.dump(reply, handle)
            finally:
                sys.stderr.flush()
                os._exit(0)
        _, status = os.waitpid(pid, 0)
        replies.write(f"{status}\n")
        replies.flush()


class OpRunner:
    """Owns the zygote process; use as a context manager.

    ``reply_path`` is the scratch file each operation's reply goes through.
    """

    def __init__(self, reply_path: str) -> None:
        import repro.driver.cli  # noqa: F401  (the import every op shares)

        self._reply_path = reply_path
        to_zygote_r, to_zygote_w = os.pipe()
        from_zygote_r, from_zygote_w = os.pipe()
        sys.stdout.flush()
        sys.stderr.flush()
        self._pid = os.fork()
        if self._pid == 0:
            os.close(to_zygote_w)
            os.close(from_zygote_r)
            try:
                with os.fdopen(to_zygote_r) as requests, os.fdopen(
                    from_zygote_w, "w"
                ) as replies:
                    _serve(requests, replies)
            finally:
                sys.stderr.flush()
                os._exit(0)
        os.close(to_zygote_r)
        os.close(from_zygote_w)
        self._requests = os.fdopen(to_zygote_w, "w")
        self._replies = os.fdopen(from_zygote_r)

    def run(self, argv: list[str], spans_path: str | None = None) -> OpResult:
        if os.path.exists(self._reply_path):
            os.remove(self._reply_path)
        request = {"argv": argv, "spans": spans_path, "reply": self._reply_path}
        self._requests.write(json.dumps(request) + "\n")
        self._requests.flush()
        status = self._replies.readline()
        if not status:
            raise RuntimeError("the operation zygote exited unexpectedly")
        try:
            with open(self._reply_path) as handle:
                reply = json.load(handle)
        except FileNotFoundError:
            return OpResult(
                None, 0.0, 0, f"operation process died (wait status {status.strip()})"
            )
        return OpResult(reply["rc"], reply["wall_s"], reply["maxrss_kb"], reply["error"])

    def close(self) -> None:
        if self._pid is None:
            return
        self._requests.close()
        self._replies.close()
        os.waitpid(self._pid, 0)
        self._pid = None

    def __enter__(self) -> "OpRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
