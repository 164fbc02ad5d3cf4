"""Observability: tracing spans, a metrics registry, and trace export.

The layer the paper's evaluation methodology implies but a reproduction
usually skips: per-phase, per-operator accounting of both wall-clock time
and the simulated cost clock, so claims like "random base-table probes
dominate shared index star-join time" can be re-verified from a trace
instead of re-derived from aggregate totals.

Five modules:

* :mod:`repro.obs.trace` — hierarchical spans (``with tracer.span(...)``)
  recording wall time, cost-clock deltas, and attributes, with per-thread
  stacks, trace/span ids, and explicit cross-thread parent handoff; a
  no-op :data:`NULL_TRACER` keeps disabled instrumentation free.
* :mod:`repro.obs.metrics` — process-global counters/gauges/histograms
  (``buffer.hits``, ``optimizer.classes_opened``, ...).
* :mod:`repro.obs.export` — JSON span trees, Chrome-trace event lists
  (one tid lane per worker thread), and flat metrics dumps.
* :mod:`repro.obs.expose` — Prometheus text exposition and a stable JSON
  metrics snapshot (``repro metrics``, ``repro serve --stats-json``).
* :mod:`repro.obs.recorder` — the serving-plane flight recorder: a bounded
  ring of recent batch traces + fault/retry/quarantine events
  (``Database.flight_recorder()``, ``repro serve --flight-recorder``).

Enable tracing through :meth:`repro.engine.database.Database.trace` or the
CLI's ``--trace out.json``; see ``docs/observability.md`` for the span and
metric naming conventions.
"""

from .export import (
    metrics_to_dict,
    span_from_dict,
    to_chrome_trace,
    to_cost_clock_track,
    trace_to_dict,
    write_chrome_trace,
    write_trace,
)
from .expose import (
    metrics_snapshot,
    parse_prometheus,
    render_prometheus,
    snapshot_agrees,
    write_metrics_json,
    write_prometheus,
)
from .metrics import (
    Counter,
    DuplicateMetricError,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    default_registry,
    set_default_registry,
)
from .recorder import DEFAULT_CAPACITY, FlightRecorder, load_flight_dump
from .trace import NULL_TRACER, BoundTracer, NullTracer, Span, Tracer

__all__ = [
    "BoundTracer",
    "DEFAULT_CAPACITY",
    "FlightRecorder",
    "load_flight_dump",
    "metrics_snapshot",
    "parse_prometheus",
    "render_prometheus",
    "snapshot_agrees",
    "write_metrics_json",
    "write_prometheus",
    "Counter",
    "DuplicateMetricError",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "default_registry",
    "metrics_to_dict",
    "set_default_registry",
    "span_from_dict",
    "to_chrome_trace",
    "to_cost_clock_track",
    "trace_to_dict",
    "write_chrome_trace",
    "write_trace",
]
