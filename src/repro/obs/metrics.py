"""Process-wide metrics: counters, gauges, and histograms in a registry.

Components register metrics against the **default registry** (swap it in
tests with :func:`set_default_registry`) and bump them as they work:
``buffer.hits`` / ``buffer.misses`` from the buffer pool, ``table.scans`` /
``table.probe_pages`` from heap tables, ``optimizer.classes_opened`` from
``Database.optimize``, ``executor.classes_executed`` /
``executor.tuples_routed`` from the executor and shared operators,
``bitmap.or_ops`` from the bitmap phases.

Metric naming convention (see ``docs/observability.md``): dotted lowercase
``<component>.<what>``, plural for event counts.

Unlike spans — which attribute cost to *one batch's phases* — metrics are
cumulative over the process: cheap enough to leave on always, and the right
shape for "how many buffer misses since startup" questions.  Acquiring an
already-registered metric by name is a dict lookup; incrementing is one
method call, so instrumentation stays out of per-tuple loops (components
charge in batches, mirroring :class:`~repro.storage.iostats.IOStats`).

A registry reads out as a flat dict (:meth:`MetricsRegistry.as_dict`) or
as the versioned JSON snapshot (:func:`metrics_snapshot`) that
``repro metrics`` and ``repro serve --stats-json`` write.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import threading
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union


class MetricError(ValueError):
    """Base class for metric registration problems."""


class DuplicateMetricError(MetricError):
    """Raised when a name is registered twice (or with conflicting kinds)."""


class Counter:
    """A monotonically increasing count of events.

    Updates hold a per-metric lock: the serve layer's client threads and
    its scheduler thread count into the same registry, and an unguarded
    ``+=`` loses counts under thread interleaving.
    """

    kind = "counter"
    __slots__ = ("name", "help", "value", "_lock")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (must be non-negative) to the count."""
        if n < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (n={n})")
        with self._lock:
            self.value += n

    def reset(self) -> None:
        """Zero the count."""
        with self._lock:
            self.value = 0

    def dump(self) -> int:
        """The current count (the flat-export value)."""
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, {self.value})"


class Gauge:
    """A value that can go up and down (pool occupancy, queue depth)."""

    kind = "gauge"
    __slots__ = ("name", "help", "value", "_lock")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Replace the current value."""
        with self._lock:
            self.value = value

    def add(self, delta: float) -> None:
        """Adjust the current value by ``delta`` (may be negative)."""
        with self._lock:
            self.value += delta

    def reset(self) -> None:
        """Zero the value."""
        with self._lock:
            self.value = 0.0

    def dump(self) -> float:
        """The current value (the flat-export value)."""
        return self.value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name!r}, {self.value})"


class Histogram:
    """A summary of observed values: count, sum, min, max, mean, and
    quantiles from a bounded systematic sample.

    The sample keeps every observation until ``max_samples``, then
    deterministically decimates (every other kept value) and doubles the
    keep stride — no randomness, so tests and repeated runs see identical
    quantiles.  Below ``max_samples`` observations the quantiles are exact.
    """

    kind = "histogram"
    DEFAULT_MAX_SAMPLES = 4096
    __slots__ = (
        "name",
        "help",
        "count",
        "total",
        "min",
        "max",
        "max_samples",
        "_samples",
        "_stride",
        "_countdown",
        "_lock",
    )

    def __init__(self, name: str, help: str = "", max_samples: int = DEFAULT_MAX_SAMPLES):
        if max_samples < 2:
            raise ValueError("histogram needs max_samples >= 2")
        self.name = name
        self.help = help
        self.max_samples = max_samples
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._samples: List[float] = []
        self._stride = 1
        self._countdown = 1
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation (thread-safe: a histogram update touches
        several fields that must move together)."""
        with self._lock:
            self.count += 1
            self.total += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            self._countdown -= 1
            if self._countdown <= 0:
                self._samples.append(value)
                if len(self._samples) > self.max_samples:
                    self._samples = self._samples[::2]
                    self._stride *= 2
                self._countdown = self._stride

    @property
    def mean(self) -> float:
        """Mean of the observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    @staticmethod
    def _interpolate(ordered: List[float], q: float) -> float:
        if len(ordered) == 1:
            return ordered[0]
        rank = q * (len(ordered) - 1)
        lo = int(rank)
        hi = min(lo + 1, len(ordered) - 1)
        frac = rank - lo
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

    def quantile(self, q: float) -> Optional[float]:
        """The q-quantile (0 <= q <= 1) of the retained sample, by linear
        interpolation between sorted sample points; **None when empty** —
        readers must guard (:func:`metrics_snapshot` writes JSON ``null``).
        Reads the sample under the histogram lock so concurrent
        ``observe()`` calls can't decimate it mid-read."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        with self._lock:
            if not self._samples:
                return None
            ordered = sorted(self._samples)
        return self._interpolate(ordered, q)

    @property
    def n_samples(self) -> int:
        """Observations currently retained for quantile estimation."""
        return len(self._samples)

    def reset(self) -> None:
        """Forget every observation."""
        with self._lock:
            self.count = 0
            self.total = 0.0
            self.min = None
            self.max = None
            self._samples = []
            self._stride = 1
            self._countdown = 1

    def dump(self) -> dict:
        """Summary dict (the flat-export value).

        Taken atomically under the histogram lock: a dump observed while
        writers race still satisfies the internal invariants (``sum`` /
        ``count`` / ``min`` / ``max`` / quantiles all from one consistent
        snapshot — no torn reads, mirroring the serve-layer
        ``ServiceStats`` lock fix).
        """
        with self._lock:
            count = self.count
            total = self.total
            lo = self.min
            hi = self.max
            ordered = sorted(self._samples)
        mean = total / count if count else 0.0
        if ordered:
            p50 = self._interpolate(ordered, 0.5)
            p95 = self._interpolate(ordered, 0.95)
            p99 = self._interpolate(ordered, 0.99)
        else:
            p50 = p95 = p99 = None
        return {
            "count": count,
            "sum": total,
            "min": lo,
            "max": hi,
            "mean": mean,
            "p50": p50,
            "p95": p95,
            "p99": p99,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name!r}, n={self.count}, mean={self.mean:.3f})"


Metric = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """A named collection of metrics.

    The ``counter()`` / ``gauge()`` / ``histogram()`` accessors are
    *get-or-create*: the first call registers, later calls return the same
    instance — so instrumented components need no setup order.  Asking for
    an existing name as a different kind raises
    :class:`DuplicateMetricError`, as does :meth:`register` on a taken name.
    """

    def __init__(self):
        self._metrics: Dict[str, Metric] = {}
        self._lock = threading.Lock()

    # -- registration ---------------------------------------------------------

    def register(self, metric: Metric) -> Metric:
        """Add an externally built metric; the name must be free."""
        with self._lock:
            if metric.name in self._metrics:
                raise DuplicateMetricError(
                    f"metric {metric.name!r} is already registered"
                )
            self._metrics[metric.name] = metric
            return metric

    def _get_or_create(self, cls, name: str, help: str) -> Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise DuplicateMetricError(
                        f"metric {name!r} is registered as a {existing.kind}, "
                        f"not a {cls.kind}"
                    )
                return existing
            metric = cls(name, help)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """The counter named ``name``, creating it on first use."""
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """The gauge named ``name``, creating it on first use."""
        return self._get_or_create(Gauge, name, help)

    def histogram(self, name: str, help: str = "") -> Histogram:
        """The histogram named ``name``, creating it on first use."""
        return self._get_or_create(Histogram, name, help)

    # -- access ---------------------------------------------------------------

    def get(self, name: str) -> Metric:
        """The metric named ``name`` (KeyError if absent)."""
        return self._metrics[name]

    def names(self) -> List[str]:
        """All registered names, sorted (snapshotted under the registry
        lock so concurrent first-use registrations can't tear the view)."""
        with self._lock:
            return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __iter__(self) -> Iterator[Metric]:
        for name in self.names():
            yield self._metrics[name]

    def __len__(self) -> int:
        return len(self._metrics)

    def as_dict(self) -> dict:
        """Flat ``{name: value}`` dump (histograms dump a summary dict); the
        values :func:`metrics_snapshot` carries."""
        return {metric.name: metric.dump() for metric in self}

    def reset(self) -> None:
        """Zero every registered metric (registrations are kept)."""
        for metric in self._metrics.values():
            metric.reset()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MetricsRegistry({len(self)} metric(s))"


#: The layout of :func:`metrics_snapshot` (2: entries carry no second,
#: sanitized name).
SNAPSHOT_VERSION = 2


def metrics_snapshot(registry: Optional[MetricsRegistry] = None) -> dict:
    """The registry as a versioned, JSON-able dict, in one pass over it.

    ``metrics`` is sorted by name; each entry carries the dotted ``name``,
    ``kind``, ``help`` and either ``value`` (counter, gauge) or ``summary``
    (a histogram's ``dump()``, quantiles ``None`` when empty) — the values
    :meth:`MetricsRegistry.as_dict` gives.
    """
    registry = registry if registry is not None else default_registry()
    entries = [
        {
            "name": metric.name,
            "kind": metric.kind,
            "help": metric.help,
            "summary" if isinstance(metric, Histogram) else "value": metric.dump(),
        }
        for metric in registry
    ]
    return {"version": SNAPSHOT_VERSION, "metrics": entries}


def write_metrics_json(
    path: Union[str, Path], registry: Optional[MetricsRegistry] = None
) -> Path:
    """Write :func:`metrics_snapshot` as JSON; returns the path written."""
    path = Path(path)
    path.write_text(
        json.dumps(metrics_snapshot(registry), indent=2, allow_nan=False) + "\n"
    )
    return path


def counted(name: str, help: str) -> Any:
    """A :class:`Ledger` field (starting at 0) that the default registry's
    counter ``name`` mirrors: the field is where the count is declared."""
    return dataclasses.field(default=0, metadata={"counter": (name, help)})


class Ledger:
    """Base of a dataclass of cumulative counts, each kept in one place.

    A field declared with :func:`counted` names its registry counter,
    resolved from the default registry when the ledger is built; other
    numeric fields (simulated-millisecond totals) have none.  Every change
    goes through :meth:`add`, which bumps a field and its counter together
    under one lock, so the two cannot drift; readers on other threads take
    a :meth:`snapshot` rather than the live object, whose fields could
    otherwise be read half-way through an ``add``.
    """

    def __post_init__(self) -> None:
        registry = default_registry()
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {
            f.name: registry.counter(*f.metadata["counter"])
            for f in dataclasses.fields(self)
            if "counter" in f.metadata
        }

    def add(self, **deltas: float) -> None:
        """Atomically add each (non-negative) delta to its field and to the
        field's counter, if it has one."""
        if min(deltas.values()) < 0:
            raise ValueError(f"counts cannot decrease ({deltas})")
        with self._lock:
            for name, delta in deltas.items():
                setattr(self, name, getattr(self, name) + delta)
                counter = self._counters.get(name)
                if counter is not None:
                    counter.inc(delta)

    def snapshot(self):
        """A consistent point-in-time copy of plain values, tied to no
        counter (adding to it moves nothing else)."""
        with self._lock:
            frozen = copy.copy(self)
        frozen._lock = threading.Lock()
        frozen._counters = {}
        return frozen


#: The serving stages, in ``ServeResponse.stage_breakdown`` order: name
#: -> (help of its ``serve.stage.<name>_ms`` wall histogram, help of its
#: ``serve.stage.<name>_sim_ms`` simulated histogram or None).  The query
#: service registers them all.
STAGES = {
    "queued": ("wall ms a request waited from submit to batch pickup", None),
    "coalesce": ("wall ms batch assembly / deduplication took", None),
    "plan": ("wall ms multi-query optimization of a batch took", None),
    "execute": (
        "wall ms shared-plan execution took (all attempts)",
        "simulated ms shared-plan execution charged",
    ),
    "gather": ("wall ms result fan-out to request futures took", None),
    "retry": (
        "wall ms re-attempted executions took",
        "simulated ms of deterministic retry backoff",
    ),
    "degrade": (
        "wall ms raw-base-table fallback executions took",
        "simulated ms fallback executions charged",
    ),
}


_default = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-global registry instrumented components register against."""
    return _default


def set_default_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the default registry (tests isolate with a fresh one); returns
    the previous registry.

    Components resolve their metrics from the default registry when they are
    *constructed* — swap before building the objects under test.
    """
    global _default
    previous = _default
    _default = registry
    return previous
