"""Shared pieces of the wall-clock benchmark: the machine-speed calibration
kernel, the measured-run record, percentiles, result digests and oracle
checks, the driver's own span log, and the roll-up of the program's
``Database.trace()`` spans.

The benchmark measures every layer *from outside*: it times calls into the
program's public functions and reads counters the program already
publishes.  Nothing here reaches into private state.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence

from repro.check import reference_answer


#: What one run of :func:`kernel_ms` takes at reference machine speed.  Only
#: a scale: timings are reported in milliseconds at the speed where the
#: kernel takes this long.
KERNEL_REF_MS = 6.0


def kernel_ms() -> float:
    """One run of the calibration kernel: the interpreter-bound dict, tuple
    and float work the engine's planner and operators are made of."""
    started = time.perf_counter()
    groups: Dict[tuple, float] = {}
    for i in range(20000):
        key = (i % 97, i % 31)
        groups[key] = groups.get(key, 0.0) + i * 0.5
    sorted(groups.items())
    return (time.perf_counter() - started) * 1e3


class Speed:
    """The machine's speed while something was timed, sampled with the
    calibration kernel right around it.

    The sandbox this benchmark runs in slows down by up to 30 % for tens
    of seconds at a time — one seed's ``mdx_wide`` run reads 278 ms or
    368 ms — which no statistic inside a 10 s run can average away.  The
    kernel slows down with it, so timings of interpreter-bound work are
    divided by :meth:`slowdown` and read in milliseconds at reference
    speed.  The slowdown itself is reported, so the wall time as measured
    is ``value * slowdown``.
    """

    def __init__(self) -> None:
        self.kernel_ms: List[float] = []

    def sample(self, n: int = 3) -> None:
        """Run the kernel ``n`` times (about 6 ms each)."""
        self.kernel_ms.extend(kernel_ms() for _ in range(n))

    def slowdown(self) -> float:
        """Median kernel time over the reference; 1.0 before any sample."""
        if not self.kernel_ms:
            return 1.0
        return statistics.median(self.kernel_ms) / KERNEL_REF_MS


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile (0..1) of ``values`` by linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = q * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def median(values: Iterable[float]) -> float:
    """Median, 0.0 for no samples."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def per(total: float, count: float) -> float:
    """``total / count``, 0.0 when nothing was counted."""
    return total / count if count else 0.0


def digest(results: Iterable) -> str:
    """Order-sensitive digest of query results (group keys and exact float
    bits), for checking that a repeated op answers identically."""
    h = hashlib.sha1()
    for result in results:
        for key, value in sorted(result.groups.items()):
            h.update(repr((key, float(value).hex())).encode())
        h.update(b"|")
    return h.hexdigest()


@dataclass
class Verify:
    """Outcome of the verification phase (outside every timed section)."""

    checked: int = 0
    mismatches: int = 0

    def check(self, db, result) -> None:
        """Compare one engine result with the brute-force reference."""
        self.checked += 1
        if not result.approx_equals(reference_answer(db, result.query)):
            self.mismatches += 1

    def same(self, result, other) -> None:
        """Compare two engine results for the same query."""
        self.checked += 1
        if not result.approx_equals(other):
            self.mismatches += 1


@dataclass
class Run:
    """What one measured phase of a workload observed."""

    #: Wall ms of every op, in execution order.
    op_ms: List[float] = field(default_factory=list)
    #: Component group-by queries answered per second of its own wall, by
    #: every op that answers queries (``serve_mix``: every burst).
    rates: List[float] = field(default_factory=list)
    attempted: int = 0
    #: Ops that were refused, went unanswered, or answered differently on a
    #: repeat.  (An op that raises in this process ends the run.)
    failed: int = 0
    #: Counters that repeat exactly for a given seed (first pass of the
    #: op pool only), and the number of ops they cover.
    exact: Dict[str, float] = field(default_factory=dict)
    exact_ops: int = 0
    #: Wall-time observations by layer metric name.
    layer: Dict[str, float] = field(default_factory=dict)
    #: First digest seen per op key.
    digests: Dict[object, str] = field(default_factory=dict)
    #: Answers a workload keeps for its verification phase.
    keep: dict = field(default_factory=dict)
    #: Machine speed, sampled between the ops.
    speed: Speed = field(default_factory=Speed)

    def add_exact(self, **counts: float) -> None:
        """Accumulate exact counters."""
        for name, value in counts.items():
            self.exact[name] = self.exact.get(name, 0.0) + value

    def exact_per_op(self, name: str) -> float:
        """One exact counter per op of the first pass."""
        return per(self.exact.get(name, 0.0), self.exact_ops)

    def repeat_ok(self, key, results: Iterable) -> bool:
        """Whether ``results`` equal the first answer recorded for ``key``."""
        d = digest(results)
        return self.digests.setdefault(key, d) == d


def count_report(run: Run, report, io_delta) -> None:
    """Add one execution report's exact counters (plan effort, operator
    actuals, simulated cost, page reads) to ``run``."""
    plan = report.plan
    actuals = [e.actuals for e in report.class_executions if e.actuals]
    run.add_exact(
        sim_ms=report.sim_ms,
        costings=plan.search_stats.get("plan_costings", 0),
        classes=len(plan.classes),
        rows_scanned=sum(a.rows_scanned for a in actuals),
        probes_issued=sum(a.probes_issued for a in actuals),
        rows_in=sum(sum(a.rows_in.values()) for a in actuals),
        rows_passed=sum(sum(a.rows_passed.values()) for a in actuals),
        seq_page_reads=io_delta.seq_page_reads,
        rand_page_reads=io_delta.rand_page_reads,
    )


def _add_row(table: Dict[str, Dict[str, float]], name: str, wall: float, own: float) -> None:
    """Add one span to a per-name roll-up of count, wall ms and self ms (a
    span's wall minus the part its child spans cover)."""
    row = table.setdefault(name, {"count": 0, "wall_ms": 0.0, "self_ms": 0.0})
    row["count"] += 1
    row["wall_ms"] += wall
    row["self_ms"] += own


class SpanLog:
    """The driver's in-memory span log: one span per call into a layer's
    public function, kept as plain dicts and written out at exit.

    Single-threaded by design — spans are opened only on the thread that
    drives the workload; spans reconstructed from published timings (a
    served request's stages) are added after the fact with :meth:`add`.
    """

    def __init__(self) -> None:
        self.spans: List[dict] = []
        self._open: List[dict] = []
        self._trace_id = ""

    def add(
        self,
        name: str,
        start_s: float,
        end_s: float,
        parent: Optional[int] = None,
        trace_id: str = "",
    ) -> int:
        """Record a finished span; returns its id."""
        span = {
            "id": len(self.spans),
            "name": name,
            "start_s": start_s,
            "end_s": end_s,
            "parent": parent,
            "trace": trace_id,
        }
        self.spans.append(span)
        return span["id"]

    @contextmanager
    def span(self, name: str, trace_id: Optional[str] = None) -> Iterator[dict]:
        """Time a block as one span, nested under the innermost open one.
        ``trace_id`` starts a new trace (one per op); nested spans inherit
        it."""
        if trace_id is not None:
            self._trace_id = trace_id
        parent = self._open[-1]["id"] if self._open else None
        span = self.spans[
            self.add(name, time.perf_counter(), 0.0, parent, self._trace_id)
        ]
        self._open.append(span)
        try:
            yield span
        finally:
            span["end_s"] = time.perf_counter()
            self._open.pop()

    def wrap(self, obj, attr: str, name: str) -> Callable[[], None]:
        """Shadow ``obj.attr`` (a public method) with a version that runs
        inside a span; returns the function that removes the shadow."""
        inner = getattr(obj, attr)

        def spanned(*args, **kwargs):
            with self.span(name):
                return inner(*args, **kwargs)

        setattr(obj, attr, spanned)
        return lambda: delattr(obj, attr)

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, wall ms and self ms."""
        child_ms: Dict[int, float] = {}
        for span in self.spans:
            if span["parent"] is not None:
                child_ms[span["parent"]] = child_ms.get(span["parent"], 0.0) + (
                    span["end_s"] - span["start_s"]
                ) * 1e3
        out: Dict[str, Dict[str, float]] = {}
        for span in self.spans:
            wall = (span["end_s"] - span["start_s"]) * 1e3
            _add_row(out, span["name"], wall, wall - child_ms.get(span["id"], 0.0))
        return out

    def wall_ms(self, name: str) -> float:
        """Total wall ms of every span called ``name``."""
        return sum(
            (s["end_s"] - s["start_s"]) * 1e3 for s in self.spans if s["name"] == name
        )


class ProgramSpans:
    """Roll-up by name of the spans the program itself records under
    ``Database.trace()`` (``mdx.*``, ``optimize.*``, ``execute.*``,
    ``operator.*`` ...)."""

    def __init__(self) -> None:
        self.by_name: Dict[str, Dict[str, float]] = {}
        self.count = 0

    def absorb(self, roots: Iterable) -> None:
        """Add every span under ``roots`` (a finished tracer's trees)."""
        for root in roots:
            for span in root.walk():
                wall = span.wall_ms
                own = wall - sum(child.wall_ms for child in span.children)
                _add_row(self.by_name, span.name, wall, own)
                self.count += 1

    def wall_ms(self, name: str) -> float:
        """Total wall ms of every program span called ``name``."""
        return self.by_name.get(name, {}).get("wall_ms", 0.0)


@dataclass
class Tracing:
    """What the traced pass records: the driver's span log and the roll-up
    of the program's own spans."""

    #: False in the untraced pass: ``op`` and ``span`` then do nothing,
    #: so a workload is written once for both passes.
    enabled: bool = True
    driver: SpanLog = field(default_factory=SpanLog)
    program: ProgramSpans = field(default_factory=ProgramSpans)

    @contextmanager
    def op(self, db, name: str, trace_id: str) -> Iterator[Optional[int]]:
        """One op: a driver span with its own trace id around it (its id is
        yielded), the program's tracer switched on inside it."""
        if not self.enabled:
            yield None
            return
        with self.driver.span(name, trace_id=trace_id) as span:
            with db.trace(name) as tracer:
                yield span["id"]
        self.program.absorb(tracer.roots)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A driver span around one call into a layer."""
        if not self.enabled:
            yield
            return
        with self.driver.span(name):
            yield

    def write(self, path: str, workload: str) -> None:
        """Write the span log and both roll-ups as one JSON file."""
        with open(path, "w") as handle:
            json.dump(
                {
                    "workload": workload,
                    "driver_spans": self.driver.spans,
                    "driver_totals": self.driver.totals(),
                    "program_totals": self.program.by_name,
                },
                handle,
            )


def timed(fn: Callable, *args, **kwargs):
    """``(result, seconds)`` of one call."""
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - started


def probe(fn: Callable[[], float], notes: List[str], name: str) -> float:
    """Run one isolated per-layer probe that reaches below the package
    exports.  When the probed name is gone (a later change simplified the
    layer away) the metric reads 0 and a note says why, instead of the
    run failing."""
    try:
        return fn()
    except (ImportError, AttributeError, KeyError, TypeError) as exc:
        notes.append(f"{name}: not measured ({type(exc).__name__}: {exc})")
        return 0.0
