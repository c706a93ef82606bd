"""Process-local event bus: structured spans and events.

The bus is the tracing half of :mod:`repro.obs`.  Producers call
:meth:`EventBus.emit` for point events and :meth:`EventBus.span` for timed
sections; ambient identity (campaign stage, strategy id, run attempt) is
attached with :meth:`EventBus.scope` so every record inside a run carries
its run context without threading arguments through every call site.

Records are plain dicts serialized to JSONL by a sink.  The bus is designed
to disappear when disabled: :attr:`EventBus.enabled` is a single attribute
check, ``span()`` returns a shared no-op context manager, and no record
dict is ever built.  Hot paths gate on ``BUS.enabled`` and pay one
attribute load when tracing is off.

Record schema (one JSON object per line)::

    {"ts": 1722890000.123456, "kind": "event", "name": "run.result",
     "stage": "sweep", "strategy_id": 1342, "attempt": 0, "seed": 7,
     "fields": {...}}
    {"ts": ..., "kind": "span", "name": "run", "dur": 0.182, ...}

``ts`` is wall-clock epoch seconds (span ``ts`` is its *start*); ``dur``
is wall seconds and only present on spans.  Context keys (``stage``,
``strategy_id``, ``attempt``, ``seed``, ...) appear flattened at the top
level; event-specific payload goes under ``fields``.
"""

from __future__ import annotations

import json
import os
import socket
import time
from typing import Any, Dict, List, Optional


class NullSink:
    """Discards everything (the default)."""

    def emit(self, record: Dict[str, Any]) -> None:  # pragma: no cover - never called
        pass

    def close(self) -> None:
        pass


class MemorySink:
    """Collects records in memory (tests, in-process inspection)."""

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []

    def emit(self, record: Dict[str, Any]) -> None:
        self.records.append(record)

    def close(self) -> None:
        pass


def _host_token() -> str:
    """This host's name as a filename-safe token (trace filenames)."""
    host = socket.gethostname() or "host"
    return "".join(c if c.isalnum() or c in "-_" else "-" for c in host) or "host"


class JsonlTraceSink:
    """Appends records to ``<dir>/events-<host>-<pid>.jsonl``.

    Each process writes its own file, so a fork-pool of workers can share
    one trace directory without interleaving writes; the file handle is
    (re)opened lazily on first emit after a fork.  The hostname is part of
    the filename because pids recycle *across hosts*: two fabric workers on
    different machines sharing one NFS trace directory must never append to
    the same file.  ``repro report`` reads every ``*.jsonl`` in the
    directory and merges on timestamp.
    """

    def __init__(self, directory: str):
        self.directory = directory
        self._fh: Optional[Any] = None
        self._pid: Optional[int] = None
        os.makedirs(directory, exist_ok=True)

    def emit(self, record: Dict[str, Any]) -> None:
        pid = os.getpid()
        if self._fh is None or self._pid != pid:
            # after fork the inherited handle belongs to the parent; drop the
            # reference (flushed-after-every-emit, so no buffered data is lost)
            path = os.path.join(
                self.directory, f"events-{_host_token()}-{pid}.jsonl"
            )
            self._fh = open(path, "a", encoding="utf-8")
            self._pid = pid
        self._fh.write(json.dumps(record, sort_keys=True, default=str) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None and self._pid == os.getpid():
            self._fh.close()
        self._fh = None
        self._pid = None


class _NoopSpan:
    """Shared do-nothing context manager returned while the bus is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NOOP_SPAN = _NoopSpan()


class _Span:
    __slots__ = ("_bus", "_name", "_fields", "_start_ts", "_t0")

    def __init__(self, bus: "EventBus", name: str, fields: Dict[str, Any]):
        self._bus = bus
        self._name = name
        self._fields = fields

    def __enter__(self) -> "_Span":
        self._start_ts = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._bus._emit_record(
            "span",
            self._name,
            self._fields,
            ts=self._start_ts,
            dur=time.perf_counter() - self._t0,
        )


class _Scope:
    __slots__ = ("_bus", "_overlay", "_saved")

    def __init__(self, bus: "EventBus", overlay: Dict[str, Any]):
        self._bus = bus
        self._overlay = overlay
        self._saved: Optional[Dict[str, Any]] = None

    def __enter__(self) -> "_Scope":
        self._saved = self._bus._context
        merged = dict(self._saved)
        merged.update(self._overlay)
        self._bus._context = merged
        return self

    def __exit__(self, *exc_info: object) -> None:
        assert self._saved is not None
        self._bus._context = self._saved


class EventBus:
    """Structured event/span emitter with ambient context.

    One module-level instance (:data:`BUS`) serves the whole process; the
    campaign runtime configures it via
    :func:`repro.obs.config.configure_observability`.
    """

    def __init__(self) -> None:
        self.enabled = False
        self._sink: Any = NullSink()
        self._context: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    def configure(self, sink: Optional[Any]) -> None:
        """Install a sink (``None`` disables the bus)."""
        if self._sink is not None and sink is not self._sink:
            self._sink.close()
        self._sink = sink if sink is not None else NullSink()
        self.enabled = sink is not None

    # ------------------------------------------------------------------
    def scope(self, **context: Any) -> _Scope:
        """Overlay ambient context for everything emitted inside the block."""
        return _Scope(self, context)

    def emit(self, name: str, **fields: Any) -> None:
        """Emit one point event (no-op while disabled)."""
        if not self.enabled:
            return
        self._emit_record("event", name, fields, ts=time.time())

    def span(self, name: str, **fields: Any):
        """Time a section; the record is emitted when the block exits."""
        if not self.enabled:
            return _NOOP_SPAN
        return _Span(self, name, fields)

    # ------------------------------------------------------------------
    def _emit_record(
        self,
        kind: str,
        name: str,
        fields: Dict[str, Any],
        ts: float,
        dur: Optional[float] = None,
    ) -> None:
        if not self.enabled:
            return
        record: Dict[str, Any] = {"ts": round(ts, 6), "kind": kind, "name": name}
        if dur is not None:
            record["dur"] = round(dur, 6)
        if self._context:
            record.update(self._context)
        if fields:
            record["fields"] = fields
        self._sink.emit(record)


#: the process-wide bus; configure via :func:`repro.obs.config.configure_observability`
BUS = EventBus()
