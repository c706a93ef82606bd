"""Checkpoint journal: crash-safe campaign progress on disk.

The controller appends one JSON line per completed strategy run as results
arrive, so a campaign killed mid-sweep (SIGKILL, OOM, power loss) loses at
most the in-flight chunk.  ``repro campaign --resume <journal>`` reloads
the journal, skips every already-completed strategy, and appends new
results to the same file.

Format — line 1 is a metadata header identifying the campaign; every later
line is one outcome::

    {"version": 1, "protocol": "tcp", "variant": "linux-3.13", "seed": 7, ...}
    {"stage": "sweep", "kind": "result", "outcome": {...RunResult fields...}}
    {"stage": "sweep", "kind": "error",  "outcome": {...RunError fields...}}
    {"stage": "confirm", "kind": "result", "outcome": {...}}

Durability: :meth:`CheckpointJournal.record` appends its one line, then
flushes and fsyncs the file before returning, so every recorded outcome
survives a crash.  A record costs one line of I/O, not a rewrite of the
journal, so a paper-scale sweep (~6,000 records) writes each line once.
The only whole-file write is in :meth:`CheckpointJournal.open`: creating
the header of a new journal, or dropping a torn tail before appending,
goes through a temp file + fsync + ``os.replace`` (plus a best-effort
directory fsync), so that repair leaves either the old or the new
complete file on disk.

Because lines are only ever appended, the only unparseable line a crash
can produce is a torn *final* line (a kill mid-append):
:meth:`CheckpointJournal.load` tolerates exactly that and nothing more,
and :meth:`CheckpointJournal.open` drops it.  A line that fails to parse
anywhere *before* the end of the file means real damage — disk
corruption, a hand edit, interleaved writers — and raises
:class:`JournalCorrupt` instead of silently dropping results (a dropped
result would silently re-run, corrupting exactly-once accounting).
Well-formed JSON records that merely lack the expected fields are still
skipped for forward compatibility.  Resuming against a journal whose
header does not match the current campaign raises
:class:`JournalMismatch` instead of silently mixing incompatible results.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Dict, List, Optional, Tuple

from repro.core.executor import RunError, RunOutcome, RunResult

JOURNAL_VERSION = 1

#: (stage, strategy_id) -> outcome; stages are "sweep" and "confirm"
CompletedMap = Dict[Tuple[str, Optional[int]], RunOutcome]


class JournalMismatch(ValueError):
    """The journal on disk belongs to a different campaign configuration."""


class JournalCorrupt(ValueError):
    """A non-final journal line is unparseable: the file is damaged.

    Torn final lines are expected after a hard kill and are tolerated;
    garbage anywhere else cannot come from a crash (a crash can only cut
    the line being appended) and silently skipping it would lose
    completed results.
    """


def encode_outcome(stage: str, outcome: RunOutcome) -> Dict[str, object]:
    """One journal line (as a dict) for a completed run or failure."""
    kind = "error" if isinstance(outcome, RunError) else "result"
    return {"stage": stage, "kind": kind, "outcome": outcome.to_dict()}


def decode_outcome(record: Dict[str, object]) -> RunOutcome:
    """Inverse of :func:`encode_outcome` (the ``outcome`` payload only)."""
    payload = record["outcome"]
    if record.get("kind") == "error":
        return RunError.from_dict(payload)  # type: ignore[arg-type]
    return RunResult.from_dict(payload)  # type: ignore[arg-type]


class CheckpointJournal:
    """Append-only JSONL journal of per-strategy outcomes.

    Usage: :meth:`load` (optionally) to recover completed work, then
    :meth:`open` to start appending, :meth:`record` per outcome, and
    :meth:`close` (or use the instance as a context manager).
    """

    def __init__(self, path: str):
        self.path = path
        self._open = False

    # ------------------------------------------------------------------
    def _read(self) -> Tuple[str, List[Tuple[str, object]]]:
        """The file's text and its ``(line, record)`` pairs.

        Blank lines are skipped and an unparseable final line (a torn
        tail) is dropped; an unparseable line before it raises
        :class:`JournalCorrupt` naming its line number in the file.
        """
        content = ""
        if os.path.exists(self.path):
            with open(self.path, "r", encoding="utf-8") as fh:
                content = fh.read()
        numbered = [(number, line) for number, line in enumerate(content.split("\n"), 1)
                    if line.strip()]
        entries = []
        for position, (number, line) in enumerate(numbered):
            try:
                entries.append((line, json.loads(line)))
            except json.JSONDecodeError as exc:
                if position == len(numbered) - 1:
                    break  # half-written tail from a hard kill
                raise JournalCorrupt(
                    f"{self.path}: line {number} is not valid JSON ({exc}); "
                    "mid-file corruption means the journal is damaged — "
                    "delete it (results will re-run) or restore a backup"
                ) from exc
        return content, entries

    def load(self, expected_meta: Optional[Dict[str, object]] = None) -> CompletedMap:
        """Read completed outcomes back, tolerating only a torn final line.

        ``expected_meta`` keys are compared against the journal header;
        any difference raises :class:`JournalMismatch`.  An unparseable
        line anywhere before the last one raises :class:`JournalCorrupt`.
        """
        completed: CompletedMap = {}
        _content, entries = self._read()
        header_seen = False
        for _line, record in entries:
            if not isinstance(record, dict):
                continue
            if not header_seen:
                header_seen = True
                if "version" in record:
                    self._check_meta(record, expected_meta)
                    continue
                # headerless journal: fall through and treat the line
                # as an outcome, but only if no meta was expected
                if expected_meta:
                    raise JournalMismatch(
                        f"{self.path}: journal has no metadata header"
                    )
            if "outcome" not in record or "stage" not in record:
                continue
            try:
                outcome = decode_outcome(record)
            except (KeyError, TypeError, ValueError):
                continue
            completed[(str(record["stage"]), outcome.strategy_id)] = outcome
        return completed

    def _check_meta(self, header: Dict[str, object], expected: Optional[Dict[str, object]]) -> None:
        if not expected:
            return
        for key, value in expected.items():
            if header.get(key) != value:
                raise JournalMismatch(
                    f"{self.path}: journal was written for "
                    f"{key}={header.get(key)!r}, campaign has {key}={value!r}"
                )

    # ------------------------------------------------------------------
    def open(self, meta: Optional[Dict[str, object]] = None) -> "CheckpointJournal":
        """Open for appending; write the header if the file is new/empty.

        A torn final line is dropped here so later appends do not land
        behind it in the middle of the file; mid-file garbage raises
        :class:`JournalCorrupt` just as :meth:`load` does.  The file is
        rewritten (atomically) only when it is not already exactly the
        lines to keep, newline-terminated.
        """
        content, entries = self._read()
        lines = [line for line, _record in entries]
        if not lines:
            header = {"version": JOURNAL_VERSION}
            header.update(meta or {})
            lines.append(json.dumps(header, sort_keys=True))
        kept = "".join(line + "\n" for line in lines)
        if kept != content:
            self._replace(kept)
        self._open = True
        return self

    def record(self, stage: str, outcome: RunOutcome) -> None:
        """Append one outcome and fsync it before returning (crash safety)."""
        if not self._open:
            raise RuntimeError("journal is not open")
        line = json.dumps(encode_outcome(stage, outcome), sort_keys=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())

    def _replace(self, content: str) -> None:
        """Atomically replace the journal: tmp file + fsync + os.replace.

        A SIGKILL at any point leaves either the old or the new complete
        file, never a half-written one.
        """
        directory = os.path.dirname(os.path.abspath(self.path)) or "."
        fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".journal-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(content)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp_path, self.path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        try:  # make the rename itself durable where the platform allows
            dir_fd = os.open(directory, os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
        except OSError:  # pragma: no cover - platform-dependent
            pass

    def close(self) -> None:
        """Stop accepting records; safe to call when never opened."""
        self._open = False

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
