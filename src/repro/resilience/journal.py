"""A crash-safe, append-only JSONL journal of finished job results.

Write-ahead-journal discipline, scaled down to one file: every finished
:class:`~repro.serving.batch.JobResult` is appended as **one** JSON line
in a **single unbuffered** ``os.write`` call (atomic for an ``O_APPEND``
file on POSIX) that reaches the OS page cache immediately — so the
record survives a hard *process* death (``os._exit``, SIGKILL), the
failure mode batch serving actually recovers from.  The ``fsync``
policy adds *machine*-crash durability on top: per-record (``True``,
the default), once at close (``"close"`` — group commit), or never
(``False``, what ``evaluate_batch`` uses: journal loss is always safe
because resume simply recomputes whatever is missing, so fsync would
buy only less recomputation after a power loss).

A process killed *mid-write* leaves at most one torn line at the end of
the file.  :func:`replay_journal` therefore tolerates a corrupt **tail**
(the expected crash signature) but rejects corruption in the middle,
which means the file was never a journal this module wrote.  Resuming
(:meth:`Journal.__init__` with ``replay=True``) truncates the torn tail
before appending, so a journal stays loadable across any number of
crash/resume cycles.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any


class JournalError(ValueError):
    """The file is not a journal we can trust (corrupt before the tail,
    written for a different batch, or a future schema version)."""


# The journal file format version.  Every journal this module creates
# starts with a ``{"kind": "journal-header", "schema": N}`` record;
# replay rejects journals written by a *newer* schema instead of
# silently misreplaying records whose meaning may have changed.
# Headerless files (journals from before versioning) stay readable.
SCHEMA_VERSION = 1

# One compact, key-sorted encoder for every record (json.dumps with
# options would build a fresh encoder per call).
_encode = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode


@dataclass
class JournalReplay:
    """What a journal file held: records, where the valid prefix ends,
    and whether a torn crash-tail was dropped."""

    records: list[dict] = field(default_factory=list)
    valid_bytes: int = 0
    corrupt_tail: bool = False
    # True when the file opened with a validated journal-header record
    # (files from before versioning replay fine but report False).
    versioned: bool = False


def replay_journal(path: str | os.PathLike) -> JournalReplay:
    """Load a journal, tolerating a torn final line.

    Returns every parseable record in order.  A final line that does not
    parse (or lacks its newline) is the signature of a crash mid-append:
    it is dropped and reported via ``corrupt_tail``.  An unparseable line
    *before* the end raises :class:`JournalError` — single-write appends
    mean we never wrote one, so the file is not ours.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        return JournalReplay()
    replay = JournalReplay()
    offset = 0
    while offset < len(data):
        newline = data.find(b"\n", offset)
        torn = newline < 0  # no terminator: the write itself was cut short
        end = len(data) if torn else newline
        line = data[offset:end]
        record: Any = None
        if line.strip():
            try:
                record = json.loads(line.decode("utf-8"))
            except (UnicodeDecodeError, ValueError):
                record = None
                if torn or end == len(data) or data[end + 1:].strip() == b"":
                    replay.corrupt_tail = True
                    return replay
                raise JournalError(
                    f"{path}: corrupt journal line at byte {offset} "
                    f"(not at the tail — this file was not written by "
                    f"repro.resilience)")
        if torn:
            if record is not None:
                # Parseable but unterminated: treat as torn anyway — a
                # concurrent writer may still be mid-append.
                replay.corrupt_tail = True
            return replay
        if isinstance(record, dict):
            if offset == 0 and record.get("kind") == "journal-header":
                # The file-format header this module writes first: it is
                # validated and *consumed* here, never surfaced as a
                # logical record — callers see only their own appends.
                schema = record.get("schema")
                if schema != SCHEMA_VERSION:
                    raise JournalError(
                        f"{path}: journal schema version {schema!r} is not "
                        f"supported (this build reads version "
                        f"{SCHEMA_VERSION}); refusing to misreplay an "
                        f"unknown format")
                replay.versioned = True
            else:
                replay.records.append(record)
        offset = end + 1
        replay.valid_bytes = offset
    return replay


class Journal:
    """An append-only JSONL writer with per-record durability.

    Records go down as **one unbuffered ``os.write`` each** on an
    ``O_APPEND`` descriptor: the line is atomic on POSIX and lands in the
    OS page cache immediately, so it survives any *process* death —
    ``os._exit``, SIGKILL — with no flush discipline needed.  *fsync*
    selects the extra machine-crash durability: ``True`` fsyncs every
    append (power-loss safe, ~10x the append cost), ``"close"`` fsyncs
    once when the journal closes (group commit), ``False`` never does
    (the batch driver's choice — a lost journal only costs recomputation).

    ``replay=True`` loads the existing file first (tolerating a torn
    tail, which is truncated away before the first new append) and
    exposes the old records as :attr:`replayed`; otherwise any existing
    file is truncated — journals describe exactly one logical batch.
    """

    def __init__(self, path: str | os.PathLike, replay: bool = False,
                 fsync: "bool | str" = True):
        if fsync not in (True, False, "close"):
            raise ValueError("fsync must be True, False or 'close'")
        self.path = Path(path)
        self.replayed: list[dict] = []
        self.corrupt_tail_dropped = False
        self.records_written = 0
        self.fsync = fsync
        self.path.parent.mkdir(parents=True, exist_ok=True)
        flags = os.O_WRONLY | os.O_CREAT | os.O_APPEND
        fresh = True
        if replay:
            loaded = replay_journal(self.path)
            self.replayed = loaded.records
            self.corrupt_tail_dropped = loaded.corrupt_tail
            if self.path.exists():
                os.truncate(self.path, loaded.valid_bytes)
            # Only a journal with no surviving bytes gets a (new) header:
            # the header must be the first line, so a non-empty legacy
            # (pre-versioning) file is left as-is and replays fine.
            fresh = loaded.valid_bytes == 0
        else:
            # A fresh journal: drop whatever a previous batch left behind.
            flags |= os.O_TRUNC
        self._fd: int | None = os.open(self.path, flags, 0o644)
        if fresh:
            # The file-format header (see SCHEMA_VERSION).  Written
            # directly: it is not a caller record, so it never counts in
            # records_written and replay never surfaces it.
            line = _encode(
                {"kind": "journal-header", "schema": SCHEMA_VERSION}) + "\n"
            os.write(self._fd, line.encode("utf-8"))

    def append(self, record: dict) -> None:
        """Append one record: a single atomic ``os.write`` of one line."""
        if self._fd is None:
            raise ValueError("journal is closed")
        line = _encode(record) + "\n"
        os.write(self._fd, line.encode("utf-8"))
        if self.fsync is True:
            os.fsync(self._fd)
        self.records_written += 1

    def close(self) -> None:
        if self._fd is not None:
            if self.fsync:  # True or "close"
                try:
                    os.fsync(self._fd)
                except OSError:
                    pass
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def stats(self) -> dict[str, Any]:
        return {
            "path": str(self.path),
            "appended": self.records_written,
            "replayed": len(self.replayed),
            "corrupt_tail_dropped": self.corrupt_tail_dropped,
        }
