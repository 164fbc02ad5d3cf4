"""Observability: tracing spans, a metrics registry, and trace export.

The layer the paper's evaluation methodology implies but a reproduction
usually skips: per-phase, per-operator accounting of both wall-clock time
and the simulated cost clock, so claims like "random base-table probes
dominate shared index star-join time" can be re-verified from a trace
instead of re-derived from aggregate totals.

Four modules:

* :mod:`repro.obs.trace` — hierarchical spans (``with tracer.span(...)``)
  recording wall time, cost-clock deltas, and attributes, with per-thread
  stacks and trace/span ids; a no-op :data:`NULL_TRACER` keeps disabled
  instrumentation free.
* :mod:`repro.obs.metrics` — process-global counters/gauges/histograms
  (``buffer.hits``, ``optimizer.classes_opened``, ...) and the versioned
  JSON metrics snapshot (``repro metrics``, ``repro serve --stats-json``).
* :mod:`repro.obs.export` — JSON span trees and Chrome-trace event lists
  (wall clock and simulated cost clock, one track each).
* :mod:`repro.obs.recorder` — the serving-plane flight recorder: a bounded
  ring of recent batch traces + fault/retry/quarantine events
  (``Database.flight_recorder()``, ``repro serve --flight-recorder``).

Enable tracing through :meth:`repro.engine.database.Database.trace` or the
CLI's ``--trace out.json``; see ``docs/observability.md`` for the span and
metric naming conventions.
"""

from .export import (
    span_from_dict,
    to_chrome_trace,
    to_cost_clock_track,
    trace_to_dict,
    write_chrome_trace,
    write_trace,
)
from .metrics import (
    Counter,
    DuplicateMetricError,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    default_registry,
    metrics_snapshot,
    set_default_registry,
    write_metrics_json,
)
from .recorder import DEFAULT_CAPACITY, FlightRecorder, load_flight_dump
from .trace import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "DEFAULT_CAPACITY",
    "FlightRecorder",
    "load_flight_dump",
    "metrics_snapshot",
    "write_metrics_json",
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
    "set_default_registry",
    "span_from_dict",
    "to_chrome_trace",
    "to_cost_clock_track",
    "trace_to_dict",
    "write_chrome_trace",
    "write_trace",
]
