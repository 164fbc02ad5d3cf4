"""Simulated I/O and CPU cost accounting.

The paper measured wall-clock seconds on a 200 MHz Pentium Pro with a
Quantum Fireball disk and a 16 MB Paradise buffer pool.  We substitute a
deterministic *cost clock*: every operator charges its page reads (sequential
or random), page writes, and per-tuple CPU work to an :class:`IOStats`
instance, and :class:`CostRates` converts those counters into simulated
milliseconds.  The cost model estimates the same counters (a
:class:`Counts`), and :meth:`CostRates.price` is the one place a count
meets a rate, for the charged and the expected alike.

What an operator phase charges, where it does not depend on the data, is
stated once — :func:`read_counts`, :func:`build_counts`,
:func:`merge_counts`, :func:`routing_counts`, :func:`filter_counts` and
:func:`pipeline_counts` here, and a join index's ``lookup_counts`` — and
both the operator that charges it (:meth:`IOStats.charge`, the one way a
counter grows) and the cost model that estimates it read that statement —
a trial through its *priced form* (:func:`pipeline_ms`, :func:`shared_ms`,
:func:`routing_ms`), bit for bit ``price`` of it (docs/cost_model.md).

The paper's findings hinge on three facts that this model preserves:

* sequential scans are much cheaper per page than random probes,
* random probes of a base table dominate index-join time (the paper measures
  "more than 80% of the shared index star join time is spent on probing the
  base table"),
* CPU work (hash probes, tuple copies, aggregation, bitmap ops) grows with
  the number of queries even when I/O is shared.

Rates are configurable so benchmarks can explore other hardware regimes.
"""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass, field, fields
from functools import cached_property, partial
from typing import NamedTuple, Optional, Tuple

from ..document import DocumentError, field_of


class Counts(NamedTuple):
    """An amount of each priced unit of work — charged
    (:meth:`IOStats.counts`) or expected (the cost model's) — in
    :class:`CostRates`' field order, which is :class:`IOStats`' counter
    order without ``buffer_hits`` (no rate).  The three I/O counters lead.
    ``+`` adds componentwise."""

    seq_page_reads: float = 0
    rand_page_reads: float = 0
    page_writes: float = 0
    hash_builds: float = 0
    hash_probes: float = 0
    tuple_copies: float = 0
    agg_updates: float = 0
    bitmap_word_ops: float = 0
    bitmap_tests: float = 0
    index_lookups: float = 0
    predicate_evals: float = 0

    def __add__(self, other: "Counts") -> "Counts":
        return _counts(map(operator.add, self, other))


#: ``Counts._make`` without its length check, for the statements below.
_counts = partial(tuple.__new__, Counts)


def pipeline_counts(
    rows_in: float, probe_dims: int, n_predicates: int, rows_passed: float
) -> Counts:
    """What a query pipeline charges: each of ``rows_in`` tuples probes
    ``probe_dims`` hash tables and is tested against ``n_predicates``
    masks, and each of the ``rows_passed`` survivors is copied and
    aggregated.  Positional, in :class:`Counts`' order."""
    return _counts((
        0, 0, 0, 0, rows_in * probe_dims, rows_passed, rows_passed,
        0, 0, 0, rows_in * n_predicates,
    ))


def pipeline_ms(
    rates: "CostRates", rows_in: float, probe_dims: int, n_predicates: int,
    rows_passed: float, phase: Optional[Counts] = None,
) -> float:
    """``rates.price(pipeline_counts(...))``, or ``rates.price(phase +
    pipeline_counts(...))`` given a ``phase`` before the pipeline."""
    probes, evals = rows_in * probe_dims, rows_in * n_predicates
    if phase is None:
        _, _, _, _, r4, r5, r6, _, _, _, r10 = rates._per_unit
        return probes * r4 + rows_passed * r5 + rows_passed * r6 + evals * r10
    c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10 = phase
    return rates.price((  # the component-wise sum, as a plain tuple
        c0, c1, c2, c3, c4 + probes, c5 + rows_passed, c6 + rows_passed,
        c7, c8, c9, c10 + evals,
    ))


def read_counts(pages: float, sequential: bool = True) -> Counts:
    """What reading ``pages`` pages from disk charges: sequential reads
    (a scan), or random ones (a probe)."""
    if sequential:
        return _counts((pages, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0))
    return _counts((0, pages, 0, 0, 0, 0, 0, 0, 0, 0, 0))


def build_counts(entries: int, pages: int = 0) -> Counts:
    """What building dimension structures (rollup maps, predicate masks)
    charges: one hash build per source-level member, ``entries`` in all,
    and the ``pages`` of the stored dimension tables they scan."""
    return _counts((pages, 0, 0, entries, 0, 0, 0, 0, 0, 0, 0))


def merge_words(n_bitmaps: int, n_words: int) -> int:
    """The word operations of AND-ing or OR-ing ``n_bitmaps`` bitmaps of
    ``n_words`` words into one: one per word of each bitmap after the
    first (nothing for one bitmap, or none)."""
    return max(0, n_bitmaps - 1) * n_words


def merge_counts(n_bitmaps: int, n_words: int) -> Counts:
    """What merging ``n_bitmaps`` bitmaps into one charges."""
    words = merge_words(n_bitmaps, n_words)
    return _counts((0, 0, 0, 0, 0, 0, 0, words, 0, 0, 0))


def shared_ms(
    rates: "CostRates", pages: float, sequential: bool, entries: int,
    dim_pages: int, n_merged: int = 0, n_words: int = 0,
) -> float:
    """``rates.price(read_counts(pages, sequential) + build_counts(entries,
    dim_pages) + merge_counts(n_merged, n_words))``: a class's shared part."""
    r0, r1, _r2, r3, _r4, _r5, _r6, r7, _r8, _r9, _r10 = rates._per_unit
    seq, rand = (pages + dim_pages, 0) if sequential else (dim_pages, pages)
    return seq * r0 + rand * r1 + entries * r3 + merge_words(n_merged, n_words) * r7


def routing_counts(n_members: int, rows: float) -> Counts:
    """What routing ``rows`` probed tuples to one of ``n_members`` index
    joins sharing a probe charges: a bitmap test per row — none when the
    probe serves one member, whose every tuple is its own."""
    tests = rows if n_members > 1 else 0
    return _counts((0, 0, 0, 0, 0, 0, 0, 0, tests, 0, 0))


def routing_ms(rates: "CostRates", n_members: int, rows: float) -> float:
    """``rates.price(routing_counts(n_members, rows))``."""
    return (rows if n_members > 1 else 0) * rates._per_unit[8]


def filter_counts(rows: float) -> Counts:
    """What an index member filtering a shared scan charges: a test of
    each of the ``rows`` scanned tuples against its result bitmap."""
    return _counts((0, 0, 0, 0, 0, 0, 0, 0, rows, 0, 0))


@dataclass(frozen=True)
class CostRates:
    """Simulated cost, in milliseconds, of each accountable unit of work.

    The defaults loosely model the paper's testbed (a 200 MHz Pentium Pro
    with a Quantum Fireball SCSI disk): a sequential page read at ~6 MB/s, a
    random page read dominated by a ~11 ms seek+rotate, and per-tuple CPU
    work of a microsecond or two — so a hash star join is I/O-bound but its
    CPU cost is "not small" (Section 7.4, Test 1), and random base-table
    probes dominate index-join time (Test 2).
    """

    seq_page_read_ms: float = 1.3
    rand_page_read_ms: float = 11.0
    page_write_ms: float = 2.0
    hash_build_ms: float = 0.001
    hash_probe_ms: float = 0.0002
    tuple_copy_ms: float = 0.0002
    agg_update_ms: float = 0.0004
    bitmap_word_ms: float = 0.00005
    bitmap_test_ms: float = 0.0001
    index_lookup_ms: float = 0.35
    predicate_eval_ms: float = 0.0001

    @cached_property
    def _per_unit(self) -> Tuple[float, ...]:
        return tuple(getattr(self, f.name) for f in fields(self))

    def price(self, counts: Counts) -> float:
        """Simulated milliseconds of ``counts``: each count times its
        rate, added left to right (builtin ``sum`` is compensated from
        Python 3.12, which would make a price interpreter-dependent)."""
        c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10 = counts
        r0, r1, r2, r3, r4, r5, r6, r7, r8, r9, r10 = self._per_unit
        return (
            c0 * r0 + c1 * r1 + c2 * r2 + c3 * r3 + c4 * r4 + c5 * r5
            + c6 * r6 + c7 * r7 + c8 * r8 + c9 * r9 + c10 * r10
        )

    def replace(self, **overrides: float) -> "CostRates":
        """Return a copy of these rates with some fields overridden."""
        current = {f.name: getattr(self, f.name) for f in fields(self)}
        current.update(overrides)
        return CostRates(**current)

    def as_dict(self) -> dict:
        """Field -> value, in declaration order (the serialization the
        calibration profiles and benchmark fingerprints persist)."""
        return {f.name: float(rate) for f, rate in zip(fields(self), self._per_unit)}

    @classmethod
    def from_mapping(cls, data: object, where: str = "rates") -> "CostRates":
        """Parse a rates mapping **strictly**: every field present, no
        unknown fields, every value a finite number.  Raises
        :class:`~repro.document.DocumentError` naming the field under
        ``where`` — a drifted calibration profile must fail loudly, not
        half-apply.
        """
        if type(data) is not dict:
            raise DocumentError(
                f"field {where!r} must be an object, got {type(data).__name__}"
            )
        names = [f.name for f in fields(cls)]
        missing = [n for n in names if n not in data]
        if missing:
            raise DocumentError(f"field {where!r} is missing rate(s) {missing}")
        extra = [k for k in data if k not in names]
        if extra:
            raise DocumentError(f"field {where!r} has unknown rate(s) {extra}")
        values = {}
        for name in names:
            values[name] = float(field_of(data, name, float, where=where))
            if not math.isfinite(values[name]):
                raise DocumentError(f"field '{where}.{name}' must be finite")
        return cls(**values)


#: Rates used when none are specified.
DEFAULT_RATES = CostRates()

_PRICED = operator.attrgetter(*Counts._fields)


@dataclass
class IOStats:
    """Mutable counters for simulated work, charged by operators.

    One instance is shared by a :class:`~repro.engine.database.Database`;
    the executor snapshots it before and after a plan to attribute cost.

    Every mutation (:meth:`charge`, :meth:`merge_from`, :meth:`reset`)
    and every consistent read (:meth:`snapshot`, :meth:`delta_since`)
    holds an internal lock, so a clock shared across
    threads cannot lose updates — a bare ``+=`` on an attribute is a
    read-modify-write that interleaves under the interpreter's thread
    switching.
    """

    seq_page_reads: int = 0
    rand_page_reads: int = 0
    page_writes: int = 0
    buffer_hits: int = 0
    hash_builds: int = 0
    hash_probes: int = 0
    tuple_copies: int = 0
    agg_updates: int = 0
    bitmap_word_ops: int = 0
    bitmap_tests: int = 0
    index_lookups: int = 0
    predicate_evals: int = 0
    rates: CostRates = field(default_factory=lambda: DEFAULT_RATES)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    _COUNTER_FIELDS = (*Counts._fields[:3], "buffer_hits", *Counts._fields[3:])

    # -- charging -----------------------------------------------------------

    def charge(self, counts: Counts, buffer_hits: int = 0) -> None:
        """Account ``counts`` of work, plus ``buffer_hits`` pool hits (no
        simulated cost): the one way a counter grows."""
        c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10 = counts
        with self._lock:
            self.seq_page_reads += c0
            self.rand_page_reads += c1
            self.page_writes += c2
            self.buffer_hits += buffer_hits
            self.hash_builds += c3
            self.hash_probes += c4
            self.tuple_copies += c5
            self.agg_updates += c6
            self.bitmap_word_ops += c7
            self.bitmap_tests += c8
            self.index_lookups += c9
            self.predicate_evals += c10

    # -- reporting ----------------------------------------------------------

    def counts(self) -> Counts:
        """The priced counters, in :class:`Counts`' order."""
        return Counts._make(_PRICED(self))

    @property
    def io_ms(self) -> float:
        """Simulated milliseconds spent on I/O: the three leading counters."""
        return self.rates.price(Counts(*self.counts()[:3]))

    @property
    def cpu_ms(self) -> float:
        """Simulated milliseconds spent on CPU work: the other counters."""
        return self.rates.price(Counts(0, 0, 0, *self.counts()[3:]))

    @property
    def total_ms(self) -> float:
        """Total simulated milliseconds (I/O + CPU)."""
        return self.io_ms + self.cpu_ms

    def snapshot(self) -> "IOStats":
        """Return an immutable-by-convention copy of the current counters."""
        copy = IOStats(rates=self.rates)
        with self._lock:
            for name in self._COUNTER_FIELDS:
                setattr(copy, name, getattr(self, name))
        return copy

    def delta_since(self, earlier: "IOStats") -> "IOStats":
        """Return a new IOStats holding ``self - earlier`` for each counter."""
        if earlier.rates is not self.rates and earlier.rates != self.rates:
            raise ValueError("cannot diff IOStats with different rates")
        diff = IOStats(rates=self.rates)
        with self._lock:
            for name in self._COUNTER_FIELDS:
                setattr(
                    diff, name, getattr(self, name) - getattr(earlier, name)
                )
        return diff

    def merge_from(self, delta: "IOStats") -> None:
        """Add another clock's counters into this one, atomically.

        The plan executor runs each cold class against a private
        clock and folds the finished deltas back into the database's
        shared clock through here, one lock acquisition per class.
        """
        if delta.rates is not self.rates and delta.rates != self.rates:
            raise ValueError("cannot merge IOStats with different rates")
        self.charge(delta.counts(), buffer_hits=delta.buffer_hits)

    def reset(self) -> None:
        """Zero all counters (the rates are kept)."""
        with self._lock:
            for name in self._COUNTER_FIELDS:
                setattr(self, name, 0)

    def as_dict(self) -> dict:
        """Counters plus derived ms totals, for reporting."""
        out = {name: getattr(self, name) for name in self._COUNTER_FIELDS}
        out["io_ms"] = round(self.io_ms, 3)
        out["cpu_ms"] = round(self.cpu_ms, 3)
        out["total_ms"] = round(self.total_ms, 3)
        return out

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IOStats(io={self.io_ms:.1f}ms [{self.seq_page_reads}seq/"
            f"{self.rand_page_reads}rand], cpu={self.cpu_ms:.1f}ms, "
            f"total={self.total_ms:.1f}ms)"
        )
