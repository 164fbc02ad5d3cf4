"""Hierarchical tracing: context-manager spans over a query batch's life.

A :class:`Span` records three things about one phase of work:

* **wall-clock time** from an injectable monotonic clock (tests pass a fake
  clock to make timings deterministic),
* **simulated cost-clock deltas** by snapshotting the
  :class:`~repro.storage.iostats.IOStats` instance at entry and exit, so
  every span knows exactly which page reads and CPU charges happened inside
  it — the paper's per-phase accounting (e.g. "more than 80% of the shared
  index star join time is spent on probing the base table") falls straight
  out of the span tree,
* **key/value attributes** set at creation or mid-span.

Spans nest: entering a span while another is open makes it a child, so one
traced batch produces one tree (``batch`` → ``optimize.gg`` →
``execute.plan`` → ``execute.class`` → ``operator.shared_scan_hash``).

Tracing is **concurrency-correct**: each thread keeps its own span stack
(``threading.local``), so the executor's worker threads
(``execute_plan(..., n_workers=N)``) can open operator spans concurrently
without corrupting each other's nesting.  Cross-thread parenting is explicit — the
scheduler creates a task span with ``tracer.span(name, parent=plan_span)``
and hands it to the worker, which enters it on its own thread; the child is
linked under its parent at *creation* time, so sibling order is the
deterministic submission order, not the racy completion order.

Every tracer carries a process-unique ``trace_id`` and assigns each span a
``span_id`` (dense, starting at 1, in creation order) plus the ``parent_id``
link and the name of the thread that entered it — enough to rebuild the
tree, or one thread's lane, from a flat dump.

Tracing is **zero-overhead by default**: every instrumentation point holds a
:class:`NullTracer` (the :data:`NULL_TRACER` singleton) whose ``span()``
returns one shared no-op span — no allocation, no clock read, no stats
snapshot.  Enabling tracing (``Database.trace()``) swaps in a real
:class:`Tracer` for the duration of the ``with`` block.

Span naming convention (see ``docs/observability.md``): dotted lowercase
components, ``<layer>.<phase>`` — ``mdx.parse``, ``optimize.<algorithm>``,
``optimize.<algorithm>.<phase>``, ``execute.plan``, ``execute.class``,
``operator.<kind>``, ``session.run``, ``serve.batch``, ``shard.task``.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional

#: Process-wide trace-id sequence: ``trace-000001``, ``trace-000002``, …
_TRACE_IDS = itertools.count(1)


def next_trace_id() -> str:
    """The next process-unique trace id (dense, in tracer-creation order)."""
    return f"trace-{next(_TRACE_IDS):06d}"


class Span:
    """One timed, attributed phase of work; a context manager.

    Created by :meth:`Tracer.span`; do not instantiate directly.  While the
    ``with`` block is open the span is on the *entering thread's* stack and
    new spans opened by that thread nest under it.
    """

    __slots__ = (
        "name",
        "attrs",
        "children",
        "start_s",
        "end_s",
        "sim",
        "span_id",
        "parent_id",
        "trace_id",
        "thread",
        "_tracer",
        "_start_stats",
        "_stats",
        "_linked",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        attrs: Dict[str, Any],
        *,
        parent: Optional["Span"] = None,
        stats: Optional[Any] = None,
    ):
        self.name = name
        self.attrs = attrs
        self.children: List["Span"] = []
        self.start_s: Optional[float] = None
        self.end_s: Optional[float] = None
        #: IOStats delta charged while the span was open (None when neither
        #: the tracer nor the span has stats attached, or while still open).
        self.sim = None
        #: Dense per-tracer id, assigned in creation order.
        self.span_id: Optional[int] = None
        #: ``span_id`` of the parent (None for roots; set at link time).
        self.parent_id: Optional[int] = None
        #: The owning tracer's trace id.
        self.trace_id: Optional[str] = getattr(tracer, "trace_id", None)
        #: Name of the thread that entered the span (None until entered).
        self.thread: Optional[str] = None
        self._tracer = tracer
        self._start_stats = None
        #: Per-span cost-clock source overriding ``tracer.stats`` — worker
        #: tasks bind their private isolated IOStats here so the span's sim
        #: delta is not polluted by siblings charging the shared clock.
        self._stats = stats
        self._linked = parent is not None
        if tracer is not None and hasattr(tracer, "_link"):
            tracer._link(self, parent)

    # -- lifecycle ------------------------------------------------------------

    def __enter__(self) -> "Span":
        tracer = self._tracer
        stack = tracer._stack
        if not self._linked:
            if stack:
                parent = stack[-1]
                self.parent_id = parent.span_id
                with tracer._lock:
                    parent.children.append(self)
            else:
                with tracer._lock:
                    tracer.roots.append(self)
            self._linked = True
        stack.append(self)
        self.thread = threading.current_thread().name
        stats = self._stats if self._stats is not None else tracer.stats
        if stats is not None:
            self._start_stats = stats.snapshot()
        self.start_s = tracer.clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        tracer = self._tracer
        self.end_s = tracer.clock()
        if self._start_stats is not None:
            stats = self._stats if self._stats is not None else tracer.stats
            self.sim = stats.delta_since(self._start_stats)
            self._start_stats = None
        stack = tracer._stack
        if not stack or stack[-1] is not self:
            raise RuntimeError(
                f"span {self.name!r} closed out of order "
                f"(open stack: {[s.name for s in stack]})"
            )
        stack.pop()

    def set(self, key: str, value: Any) -> "Span":
        """Attach one attribute; returns the span for chaining."""
        self.attrs[key] = value
        return self

    # -- timing ---------------------------------------------------------------

    @property
    def wall_s(self) -> float:
        """Wall-clock seconds between entry and exit (0.0 while open)."""
        if self.start_s is None or self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    @property
    def wall_ms(self) -> float:
        """Wall-clock milliseconds between entry and exit."""
        return self.wall_s * 1000.0

    @property
    def sim_ms(self) -> float:
        """Simulated milliseconds charged inside the span (0.0 untracked)."""
        if self.sim is None:
            return 0.0
        if isinstance(self.sim, dict):  # a span rebuilt from an export
            return float(self.sim.get("total_ms", 0.0))
        return self.sim.total_ms

    # -- navigation -----------------------------------------------------------

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> Optional["Span"]:
        """First span (depth-first, self included) with the given name."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def find_all(self, name: str) -> List["Span"]:
        """Every span (depth-first, self included) with the given name."""
        return [s for s in self.walk() if s.name == name]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, id={self.span_id}, "
            f"wall={self.wall_ms:.3f}ms, "
            f"sim={self.sim_ms:.1f}ms, {len(self.children)} child(ren))"
        )


class Tracer:
    """Builds span trees; one instance traces one batch (or more).

    ``stats`` is any object with ``snapshot()`` / ``delta_since()`` (an
    :class:`~repro.storage.iostats.IOStats`); when given, every span carries
    the cost-clock delta charged inside it.  ``clock`` is a zero-argument
    monotonic-seconds callable, ``time.perf_counter`` by default —
    injectable so tests see deterministic wall times.

    The span stack is **per thread**: spans opened on one thread nest under
    that thread's innermost open span only.  ``roots``, child linking, and
    span-id assignment are guarded by one lock, so worker threads may open
    and close spans concurrently.  To parent a span under another thread's
    span, pass it explicitly: ``tracer.span(name, parent=batch_span)``.
    """

    #: A real tracer records spans (checked by instrumentation that wants to
    #: skip attribute computation entirely when tracing is off).
    enabled = True

    def __init__(
        self,
        stats: Optional[Any] = None,
        clock: Optional[Callable[[], float]] = None,
        trace_id: Optional[str] = None,
    ):
        self.stats = stats
        self.clock = clock or time.perf_counter
        #: Process-unique id stamped on every span of this tracer.
        self.trace_id = trace_id or next_trace_id()
        #: Finished (or open) top-level spans, in start order.
        self.roots: List[Span] = []
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._span_ids = itertools.count(1)

    @property
    def _stack(self) -> List[Span]:
        """The calling thread's span stack (created on first use)."""
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _link(self, span: Span, parent: Optional[Span]) -> None:
        """Assign the span's id and, for explicit parents, link it now.

        Creation-time linking makes sibling order the deterministic order in
        which the scheduler created the task spans, independent of which
        worker thread enters (or finishes) first.
        """
        with self._lock:
            span.span_id = next(self._span_ids)
            if parent is not None:
                span.parent_id = parent.span_id
                parent.children.append(span)

    def span(
        self,
        name: str,
        *,
        parent: Optional[Span] = None,
        stats: Optional[Any] = None,
        **attrs: Any,
    ) -> Span:
        """A new span.

        Without ``parent`` it nests under the calling thread's innermost
        open span at ``__enter__`` time (or becomes a root).  With
        ``parent`` it is linked under that span immediately — the explicit
        cross-thread handoff.  ``stats`` overrides the tracer's cost-clock
        source for this span only (worker tasks pass their private
        per-task ``IOStats``).
        """
        return Span(self, name, attrs, parent=parent, stats=stats)

    def bound(self, stats: Any) -> "BoundTracer":
        """A view of this tracer whose spans default to ``stats`` as their
        cost-clock source — handed to worker ``ExecContext``\\ s so operator
        spans charge the task's private clock."""
        return BoundTracer(self, stats)

    @property
    def current(self) -> Optional[Span]:
        """The calling thread's innermost open span, or None."""
        stack = self._stack
        return stack[-1] if stack else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Tracer({self.trace_id}, {len(self.roots)} root span(s), "
            f"depth={len(self._stack)})"
        )


class BoundTracer:
    """A stats-bound view over a real :class:`Tracer`.

    Spans created through it snapshot the bound stats (a worker task's
    private ``IOStats``) instead of the tracer's shared stats, and share the
    underlying tracer's per-thread stacks, ids, and roots.  Duck-compatible
    with :class:`Tracer` for every instrumentation call site.
    """

    __slots__ = ("_tracer", "_bound_stats")

    enabled = True

    def __init__(self, tracer: Tracer, stats: Any):
        self._tracer = tracer
        self._bound_stats = stats

    @property
    def stats(self) -> Any:
        return self._bound_stats

    @property
    def trace_id(self) -> Optional[str]:
        return self._tracer.trace_id

    @property
    def roots(self) -> List[Span]:
        return self._tracer.roots

    @property
    def current(self) -> Optional[Span]:
        return self._tracer.current

    def span(
        self,
        name: str,
        *,
        parent: Optional[Span] = None,
        stats: Optional[Any] = None,
        **attrs: Any,
    ) -> Span:
        return self._tracer.span(
            name,
            parent=parent,
            stats=stats if stats is not None else self._bound_stats,
            **attrs,
        )

    def bound(self, stats: Any) -> "BoundTracer":
        return BoundTracer(self._tracer, stats)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BoundTracer({self._tracer!r})"


class _NullSpan:
    """The do-nothing span: one shared instance, every call a no-op."""

    __slots__ = ()

    name = ""
    attrs: Dict[str, Any] = {}
    children: List[Span] = []
    sim = None
    wall_s = 0.0
    wall_ms = 0.0
    sim_ms = 0.0
    span_id = None
    parent_id = None
    trace_id = None
    thread = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def set(self, key: str, value: Any) -> "_NullSpan":
        return self


class NullTracer:
    """The disabled tracer: ``span()`` hands back one shared no-op span.

    No allocation, no clock read, no stats snapshot — instrumentation left
    in place costs a method call and nothing else.
    """

    enabled = False
    stats = None
    trace_id = None
    roots: List[Span] = []
    current = None

    _SPAN = _NullSpan()

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        """The shared no-op span (ignores all arguments, including the
        keyword-only ``parent`` / ``stats`` of the real tracer)."""
        return self._SPAN

    def bound(self, stats: Any) -> "NullTracer":
        """Stats binding on a disabled tracer is a no-op (returns self)."""
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NullTracer()"


#: Process-wide disabled tracer; instrumented components default to it.
NULL_TRACER = NullTracer()
