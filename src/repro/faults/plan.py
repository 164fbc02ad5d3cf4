"""Deterministic, seedable fault injection.

A :class:`FaultPlan` is a set of :class:`InjectionPoint`\\ s, each armed at
one named *site* in the stack.  The instrumented layers — buffer-pool page
reads, heap-table scans, join-index lookups, and the shared operators'
pipelines — call :meth:`FaultPlan.check` on their hot paths; when a point's
trigger matches, the check raises a typed :class:`InjectedFault` instead of
returning, exactly as a real I/O error or corrupted page would surface.

Everything is deterministic: *nth-occurrence* triggers fire on an exact
per-point match counter, and *probability* triggers draw from a
``random.Random`` seeded per point from the plan's seed, so the same plan
against the same workload fails at the same place every time — which is
what makes the chaos sweep reproducible from a single seed.

Sites (see :data:`SITES`):

* ``storage.page_read`` — every page accounted by
  :meth:`repro.storage.buffer.BufferPool.read_pages` (attrs: ``table``,
  ``page_no``, ``sequential``);
* ``storage.scan`` — the start of every sequential
  :meth:`repro.storage.table.HeapTable.scan_pages` (attrs: ``table``);
* ``index.lookup`` — every :meth:`repro.index.bitmap_index.JoinIndex.lookup`
  probe (attrs: ``table``, ``dim_index``, ``level``, ``n_members``);
* ``operator.pipeline`` — each page a shared scan reads (checked right
  after the page's read is charged) and each probe set or routed query of
  the index joins (attrs: ``operator``, ``table``);
* ``operator.derive`` — the start of each derive step the DAG operator
  replays from a shared materialized intermediate (attrs: ``operator``,
  ``table``); failing it takes down only the classes depending on that
  intermediate.

The plan records every firing as a :class:`FaultEvent` (and bumps the
``fault.injections`` counter), so tests can assert that no injected fault
was silently swallowed: every event must resurface as a typed per-class or
per-request error.
"""

from __future__ import annotations

import itertools
import random
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..obs.metrics import default_registry

#: The injection sites the stack is instrumented with.
SITES = (
    "storage.page_read",
    "storage.scan",
    "index.lookup",
    "operator.pipeline",
    "operator.derive",
)


class InjectedFault(RuntimeError):
    """A deliberately injected failure (never a real engine bug).

    Carries the site, the firing :class:`InjectionPoint`'s name, and the
    attributes of the access that tripped it, so a test (or an operator's
    postmortem) can tell exactly which injection fired.
    """

    def __init__(self, message: str, *, site: str, point: str,
                 attrs: Optional[Dict[str, Any]] = None):
        super().__init__(message)
        self.site = site
        self.point = point
        self.attrs = dict(attrs or {})


class PartialResultError(KeyError):
    """A query's result was requested from a report whose class failed.

    Distinct from :class:`~repro.check.errors.PlanCoverageError` (the plan
    never covered the query at all): here the plan covered it, but the
    class carrying it failed mid-execution and the report holds only the
    sibling classes' results.  Subclasses :class:`KeyError` so existing
    ``except KeyError`` callers keep working, but renders its message
    verbatim."""

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message

    def __str__(self) -> str:
        return self.message


@dataclass(frozen=True)
class FaultEvent:
    """One recorded firing of an injection point."""

    sequence: int
    site: str
    point: str
    attrs: Tuple[Tuple[str, Any], ...]

    def describe(self) -> str:
        """Human-readable one-line rendering for logs and assertions."""
        detail = ", ".join(f"{k}={v!r}" for k, v in self.attrs)
        return f"#{self.sequence} {self.site}[{self.point}] ({detail})"


_point_ids = itertools.count(1)


@dataclass(frozen=True)
class InjectionPoint:
    """One armed failure: a site plus trigger predicates.

    ``table`` restricts the point to accesses whose ``table`` attribute
    matches exactly.  Exactly one trigger applies per check that passes
    the filter: ``nth`` fires on the nth matching access (1-based),
    ``probability`` fires with that chance per matching access (drawn from
    the plan's seeded RNG), and with neither set the point fires on *every*
    matching access.  ``max_fires`` bounds total firings (``nth`` implies a
    single firing already); None means unbounded.
    """

    site: str
    table: Optional[str] = None
    nth: Optional[int] = None
    probability: Optional[float] = None
    max_fires: Optional[int] = None
    name: str = ""

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; choose from {list(SITES)}"
            )
        if self.nth is not None and self.nth < 1:
            raise ValueError(f"nth must be >= 1 (got {self.nth})")
        if self.probability is not None and not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1] (got {self.probability})"
            )
        if self.nth is not None and self.probability is not None:
            raise ValueError("give nth or probability, not both")
        if self.max_fires is not None and self.max_fires < 1:
            raise ValueError(f"max_fires must be >= 1 (got {self.max_fires})")
        if not self.name:
            object.__setattr__(self, "name", f"{self.site}#{next(_point_ids)}")

    def describe(self) -> str:
        """Human-readable one-line rendering for logs and reports."""
        parts = [self.site]
        if self.table is not None:
            parts.append(f"table={self.table}")
        if self.nth is not None:
            parts.append(f"nth={self.nth}")
        if self.probability is not None:
            parts.append(f"p={self.probability:g}")
        if self.max_fires is not None:
            parts.append(f"max_fires={self.max_fires}")
        return f"{self.name}({', '.join(parts)})"


class FaultPlan:
    """A deterministic set of armed injection points.

    Thread-safe: match counters, RNG draws, and the fired-event log are
    guarded by one lock.  A plan's classes run in plan order on one
    thread, so an ``nth`` trigger fails the same class on every run.
    """

    def __init__(self, points: Sequence[InjectionPoint], seed: int = 0):
        self.points: List[InjectionPoint] = list(points)
        self.seed = seed
        self._lock = threading.Lock()
        self._matches = [0] * len(self.points)
        self._fires = [0] * len(self.points)
        self._rngs = [
            random.Random(f"{seed}:{i}:{p.name}")
            for i, p in enumerate(self.points)
        ]
        self.fired: List[FaultEvent] = []
        self._sequence = itertools.count(1)
        metrics = default_registry()
        self._m_injections = metrics.counter(
            "fault.injections", "typed faults raised by armed injection points"
        )
        self._m_checks = metrics.counter(
            "fault.checks", "fault-site checks evaluated against a live plan"
        )

    @property
    def n_fired(self) -> int:
        """Total faults this plan has injected so far."""
        with self._lock:
            return len(self.fired)

    def events_since(self, start: int) -> List[FaultEvent]:
        """The fired events from index ``start`` on, as a consistent slice
        taken under the plan lock — the serve layer's flight recorder
        drains new fault events with a cursor through this, so recorded
        batches carry exactly the faults that fired during them."""
        with self._lock:
            return list(self.fired[start:])

    def matches(self, point: InjectionPoint) -> int:
        """How many accesses have matched one point's filters so far."""
        with self._lock:
            return self._matches[self.points.index(point)]

    def reset(self) -> None:
        """Zero all counters, re-seed the RNGs, clear the fired log."""
        with self._lock:
            self._matches = [0] * len(self.points)
            self._fires = [0] * len(self.points)
            self._rngs = [
                random.Random(f"{self.seed}:{i}:{p.name}")
                for i, p in enumerate(self.points)
            ]
            self.fired.clear()
            self._sequence = itertools.count(1)

    def check(self, site: str, **attrs: Any) -> None:
        """Evaluate every armed point against one access; raise
        :class:`InjectedFault` when a trigger fires (the first firing point
        wins).  Called from the instrumented layers' hot paths; a plan with
        no point at ``site`` returns immediately."""
        event: Optional[FaultEvent] = None
        fired_point: Optional[InjectionPoint] = None
        with self._lock:
            self._m_checks.inc()
            for i, point in enumerate(self.points):
                if point.site != site:
                    continue
                if point.table is not None and attrs.get("table") != point.table:
                    continue
                self._matches[i] += 1
                if (
                    point.max_fires is not None
                    and self._fires[i] >= point.max_fires
                ):
                    continue
                if point.nth is not None:
                    fire = self._matches[i] == point.nth
                elif point.probability is not None:
                    fire = self._rngs[i].random() < point.probability
                else:
                    fire = True
                if not fire:
                    continue
                self._fires[i] += 1
                event = FaultEvent(
                    sequence=next(self._sequence),
                    site=site,
                    point=point.name,
                    attrs=tuple(sorted(attrs.items())),
                )
                self.fired.append(event)
                fired_point = point
                break
        if event is not None:
            self._m_injections.inc()
            assert fired_point is not None
            raise InjectedFault(
                f"injected fault at {event.describe()} "
                f"(trigger {fired_point.describe()}, seed {self.seed})",
                site=site,
                point=fired_point.name,
                attrs=attrs,
            )

    def describe(self) -> str:
        """Human-readable multi-line rendering of the armed points."""
        lines = [f"FaultPlan(seed={self.seed}, {len(self.points)} point(s))"]
        lines.extend("  " + point.describe() for point in self.points)
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultPlan({len(self.points)} point(s), seed={self.seed}, "
            f"fired={len(self.fired)})"
        )


def parse_fault_plan(spec: str, seed: int = 0) -> FaultPlan:
    """Parse a CLI fault spec into a :class:`FaultPlan`.

    Format: semicolon-separated points, each ``site[:key=value,...]`` with
    keys ``table``, ``nth``, ``p`` (probability), ``max_fires``, ``name``::

        storage.page_read:table=ABCD,nth=3
        index.lookup:p=0.05;operator.pipeline:table=ABCD,max_fires=1

    Raises :class:`ValueError` on an unknown site (naming the valid sites)
    or key (naming the valid keys), or a malformed value — the CLI
    surfaces that as a usage error (exit 2).
    """
    points: List[InjectionPoint] = []
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        site, _, rest = chunk.partition(":")
        site = site.strip()
        kwargs: Dict[str, Any] = {}
        if rest.strip():
            for pair in rest.split(","):
                key, sep, value = pair.partition("=")
                key = key.strip()
                value = value.strip()
                if not sep or not value:
                    raise ValueError(
                        f"malformed fault option {pair!r} in {chunk!r} "
                        f"(expected key=value)"
                    )
                if key == "table":
                    kwargs["table"] = value
                elif key == "name":
                    kwargs["name"] = value
                elif key == "nth":
                    kwargs["nth"] = int(value)
                elif key in ("p", "probability"):
                    kwargs["probability"] = float(value)
                elif key == "max_fires":
                    kwargs["max_fires"] = int(value)
                else:
                    raise ValueError(
                        f"unknown fault option {key!r} in {chunk!r} (use "
                        f"table, nth, p, max_fires, name)"
                    )
        points.append(InjectionPoint(site=site, **kwargs))
    if not points:
        raise ValueError(f"fault spec {spec!r} defines no injection points")
    return FaultPlan(points, seed=seed)
