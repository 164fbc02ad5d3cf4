"""Trace export: JSON span trees and Chrome-trace events.

Two consumers, two shapes:

* :func:`trace_to_dict` / :func:`span_from_dict` — a nested, JSON-able span
  tree (and its inverse) for programmatic analysis and golden tests,
* :func:`to_chrome_trace` — a Chrome-trace-compatible event list (load the
  file in ``chrome://tracing`` or `Perfetto <https://ui.perfetto.dev>`_),
  with wall time on the timeline and simulated cost in each event's args.

Wall times in exports are *relative to the root span* so traces from
different runs line up; simulated cost deltas are embedded per span as the
full counter dict (see :meth:`~repro.storage.iostats.IOStats.as_dict`).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Optional, Union

from .trace import Span, Tracer

PathLike = Union[str, Path]


def _sim_dict(span: Span) -> Optional[dict]:
    sim = span.sim
    if sim is None:
        return None
    if isinstance(sim, dict):  # a span rebuilt by span_from_dict
        return dict(sim)
    return sim.as_dict()


def trace_to_dict(span: Span, _epoch: Optional[float] = None) -> dict:
    """One span and its subtree as a nested JSON-able dict.

    ``start_ms`` is relative to the root of the exported tree; ``sim`` is
    the span's cost-clock counter delta (or None when untracked).  Each
    span carries its ``span_id`` / ``parent_id`` and the name of the thread
    that entered it; the export root additionally carries the ``trace_id``.
    """
    root = _epoch is None
    if _epoch is None:
        _epoch = span.start_s or 0.0
    start_ms = ((span.start_s or 0.0) - _epoch) * 1000.0
    data = {
        "name": span.name,
        "start_ms": round(start_ms, 6),
        "wall_ms": round(span.wall_ms, 6),
        "span_id": getattr(span, "span_id", None),
        "parent_id": getattr(span, "parent_id", None),
        "thread": getattr(span, "thread", None),
        "attrs": dict(span.attrs),
        "sim": _sim_dict(span),
        "children": [trace_to_dict(c, _epoch) for c in span.children],
    }
    if root:
        data["trace_id"] = getattr(span, "trace_id", None)
    return data


def span_from_dict(data: dict, tracer: Optional[Tracer] = None) -> Span:
    """Rebuild a detached :class:`Span` tree from :func:`trace_to_dict`
    output (round-trip: re-exporting it yields an equal dict).

    The rebuilt spans carry their ``sim`` delta as the exported plain dict,
    not a live ``IOStats``, and keep the exported ``span_id`` /
    ``parent_id`` / ``thread`` / ``trace_id`` identity fields.
    """
    if tracer is None:
        tracer = Tracer()
    span = Span(tracer, data["name"], dict(data.get("attrs", {})))
    span.start_s = data.get("start_ms", 0.0) / 1000.0
    span.end_s = span.start_s + data.get("wall_ms", 0.0) / 1000.0
    span.sim = data.get("sim")
    span.span_id = data.get("span_id")
    span.parent_id = data.get("parent_id")
    span.thread = data.get("thread")
    span.trace_id = data.get("trace_id")
    for child in data.get("children", ()):
        span.children.append(span_from_dict(child, tracer))
    return span


def to_chrome_trace(
    span: Span, pid: int = 1, tid: int = 1
) -> List[dict]:
    """The span tree as Chrome-trace "complete" (``ph: "X"``) events.

    Timestamps and durations are microseconds relative to the root span;
    each event's ``args`` carries the span attributes plus the simulated
    I/O/CPU/total milliseconds, so both clocks are visible in the viewer.
    A span tree is entered on one thread, so every event shares one ``tid``.
    """
    epoch = span.start_s or 0.0
    events: List[dict] = []
    for node in span.walk():
        args = dict(node.attrs)
        sim = _sim_dict(node)
        if sim is not None:
            args["sim_io_ms"] = sim["io_ms"]
            args["sim_cpu_ms"] = sim["cpu_ms"]
            args["sim_total_ms"] = sim["total_ms"]
        events.append(
            {
                "name": node.name,
                "cat": _span_category(node.name),
                "ph": "X",
                "ts": round(((node.start_s or 0.0) - epoch) * 1e6, 3),
                "dur": round(node.wall_s * 1e6, 3),
                "pid": pid,
                "tid": tid,
                "args": args,
            }
        )
    return events


def _span_category(name: str) -> str:
    """Chrome-trace category: the span-name prefix (``dag.search`` →
    ``dag``), so the viewer can filter a whole subsystem's spans at once."""
    return name.split(".", 1)[0] if "." in name else name


def _sim_total_ms(span: Span) -> float:
    """A span's cost-clock extent: its own sim delta, or (for untracked
    spans) the sum of its children's extents."""
    sim = _sim_dict(span)
    if sim is not None:
        return float(sim["total_ms"])
    return sum(_sim_total_ms(child) for child in span.children)


def to_cost_clock_track(
    span: Span, pid: int = 2, tid: int = 1
) -> List[dict]:
    """The span tree re-timed on the *simulated cost clock* as a second
    Chrome-trace track.

    Wall time and simulated cost disagree whenever the simulation charges
    more than the host pays (big pages, cold reads); this track renders
    each span with ``dur`` equal to its simulated milliseconds instead of
    its wall time, so the two clocks can be compared side by side in the
    viewer.  The cost clock has no real timeline — children are laid out
    sequentially from their parent's start, in tree order.
    """
    events: List[dict] = []

    def place(node: Span, start_ms: float) -> None:
        total = _sim_total_ms(node)
        args = dict(node.attrs)
        sim = _sim_dict(node)
        if sim is not None:
            args["sim_io_ms"] = sim["io_ms"]
            args["sim_cpu_ms"] = sim["cpu_ms"]
        args["wall_ms"] = round(node.wall_ms, 3)
        events.append(
            {
                "name": node.name,
                "cat": _span_category(node.name),
                "ph": "X",
                "ts": round(start_ms * 1000.0, 3),
                "dur": round(total * 1000.0, 3),
                "pid": pid,
                "tid": tid,
                "args": args,
            }
        )
        cursor = start_ms
        for child in node.children:
            place(child, cursor)
            cursor += _sim_total_ms(child)

    place(span, 0.0)
    return events


def write_trace(span: Span, path: PathLike, indent: int = 2) -> Path:
    """Write a span tree as a JSON file (see :func:`trace_to_dict`);
    returns the path written."""
    path = Path(path)
    path.write_text(json.dumps(trace_to_dict(span), indent=indent) + "\n")
    return path


def write_chrome_trace(span: Span, path: PathLike) -> Path:
    """Write a span tree as a Chrome-trace JSON event list; returns the
    path written.

    Two tracks: pid 1 is wall time (:func:`to_chrome_trace`), pid 2 is the
    simulated cost clock (:func:`to_cost_clock_track`); ``process_name``
    metadata labels them in the viewer.
    """
    path = Path(path)
    events = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "args": {"name": "wall clock"},
        },
        {
            "name": "process_name",
            "ph": "M",
            "pid": 2,
            "args": {"name": "simulated cost clock"},
        },
    ]
    events += to_chrome_trace(span, pid=1)
    events += to_cost_clock_track(span, pid=2)
    path.write_text(json.dumps({"traceEvents": events}, indent=2) + "\n")
    return path
