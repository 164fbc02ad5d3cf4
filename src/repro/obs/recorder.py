"""Flight recorder: a bounded ring buffer of recent serving-plane history.

The serve layer records one entry per executed micro-batch — the batch's
full span tree (``trace_to_dict`` form), its trace id, stage timings, and
outcome — plus discrete events for injected faults, retries, quarantines,
and batch failures.  The buffer is a fixed-capacity ring (`collections.deque`
with ``maxlen``): old entries fall off, memory stays bounded no matter how
long the service runs, and a crash leaves the last N batches post-mortem-able.

Thread-safe: the scheduler thread records batches while client threads and
tests snapshot concurrently; every operation holds the recorder lock.

Dumps are plain JSON (:meth:`FlightRecorder.dump`); every recorded trace
round-trips through :func:`repro.obs.export.span_from_dict`, so a dump can
be re-loaded and navigated (``find``/``walk``) like a live trace.  Access a
running service's recorder via ``Database.flight_recorder()`` or dump from
the CLI with ``repro serve --simulate --flight-recorder PATH``.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from ..document import PathLike, field_of, load_json
from .export import trace_to_dict
from .trace import Span

#: Default number of entries retained.
DEFAULT_CAPACITY = 32


class FlightRecorder:
    """A thread-safe bounded ring of batch traces and serving events.

    Every entry is a JSON-able dict with at least ``seq`` (monotonic over
    the recorder's lifetime, so drops are detectable) and ``kind`` (one of
    ``batch``, ``fault``, ``retry``, ``quarantine``, ``batch_failure`` from
    the serve layer; arbitrary kinds are allowed).
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError(f"flight recorder capacity must be >= 1 (got {capacity})")
        self.capacity = capacity
        self._entries: deque = deque(maxlen=capacity)
        self._seq = 0
        self._lock = threading.Lock()

    # -- recording ------------------------------------------------------------

    def record(self, kind: str, **data: Any) -> dict:
        """Append one event entry; returns the stored dict."""
        with self._lock:
            self._seq += 1
            entry = {"seq": self._seq, "kind": kind}
            entry.update(data)
            self._entries.append(entry)
            return entry

    def record_batch(
        self, trace: Union[Span, dict, None], **meta: Any
    ) -> dict:
        """Append one batch entry carrying the batch's span tree.

        ``trace`` may be a live :class:`Span` (exported immediately — the
        recorder never holds live spans) or an already-exported dict, or
        None when the batch ran untraced.
        """
        if isinstance(trace, Span):
            trace = trace_to_dict(trace)
        return self.record("batch", trace=trace, **meta)

    # -- access ---------------------------------------------------------------

    def entries(self, kind: Optional[str] = None) -> List[dict]:
        """Retained entries oldest-first (optionally one kind only)."""
        with self._lock:
            snapshot = list(self._entries)
        if kind is not None:
            snapshot = [e for e in snapshot if e.get("kind") == kind]
        return snapshot

    def traces(self) -> List[dict]:
        """The retained batch entries' span trees (untraced batches skipped)."""
        return [
            e["trace"] for e in self.entries("batch") if e.get("trace") is not None
        ]

    @property
    def n_recorded(self) -> int:
        """Entries ever recorded (retained + fallen off the ring)."""
        with self._lock:
            return self._seq

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        """Drop every retained entry (the ``seq`` counter keeps counting)."""
        with self._lock:
            self._entries.clear()

    # -- export ---------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-able dump: capacity, total recorded, retained entries."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "n_recorded": self._seq,
                "entries": list(self._entries),
            }

    def dump(self, path: PathLike, indent: int = 2) -> Path:
        """Write :meth:`to_dict` as JSON; returns the path written."""
        path = Path(path)
        path.write_text(
            json.dumps(self.to_dict(), indent=indent, default=str) + "\n"
        )
        return path

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._lock:
            return (
                f"FlightRecorder({len(self._entries)}/{self.capacity} "
                f"entries, {self._seq} recorded)"
            )


def load_flight_dump(path: PathLike) -> Dict[str, Any]:
    """Read a :meth:`FlightRecorder.dump` file back into its dict form:
    int ``capacity`` and ``n_recorded`` beside ``entries`` with an int
    ``seq`` and a str ``kind`` each (docs/architecture.md §"Files from
    outside the program")."""
    return load_json(
        path, "flight dump", _checked_dump,
        hint="write one with `repro serve --simulate --flight-recorder FILE`",
    )


def _checked_dump(dump: Dict[str, Any]) -> Dict[str, Any]:
    field_of(dump, "capacity", int)
    field_of(dump, "n_recorded", int)
    for index, entry in enumerate(field_of(dump, "entries", [dict])):
        field_of(entry, "seq", int, where=f"entries[{index}]")
        field_of(entry, "kind", str, where=f"entries[{index}]")
    return dump
