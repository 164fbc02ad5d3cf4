"""Simulated I/O and CPU cost accounting.

The paper measured wall-clock seconds on a 200 MHz Pentium Pro with a
Quantum Fireball disk and a 16 MB Paradise buffer pool.  We substitute a
deterministic *cost clock*: every operator charges its page reads (sequential
or random), page writes, and per-tuple CPU work to an :class:`IOStats`
instance, and :class:`CostRates` converts those counters into simulated
milliseconds.  The cost model estimates the same counters (a
:class:`Counts`), and :meth:`CostRates.price` is the one place a count
meets a rate, for the charged and the expected alike.

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
from functools import cached_property
from typing import NamedTuple, Tuple

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
        return Counts(*map(operator.add, self, other))


def pipeline_counts(
    rows_in: float, probe_dims: int, n_predicates: int, rows_passed: float,
    *, pages: int = 0, bitmap_words: int = 0, lookups: int = 0,
) -> Counts:
    """What a query pipeline charges: each of ``rows_in`` tuples probes
    ``probe_dims`` hash tables and is tested against ``n_predicates``
    masks, and each of the ``rows_passed`` survivors is copied and
    aggregated — after, for a pipeline an index phase feeds, that phase's
    join-index ``pages`` read, bitmap words combined and member
    ``lookups``.  Positional, in :class:`Counts`' order: the planner's
    innermost constructor."""
    return Counts._make((
        pages, 0, 0, 0, rows_in * probe_dims, rows_passed, rows_passed,
        bitmap_words, 0, lookups, rows_in * n_predicates,
    ))


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
        Python 3.12, which would make a price interpreter-dependent).
        Spelled out: this is the planner's innermost arithmetic."""
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

    Every mutation (the ``charge_*`` family, :meth:`merge_from`,
    :meth:`reset`) and every consistent read (:meth:`snapshot`,
    :meth:`delta_since`) holds an internal lock, so a clock shared across
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

    def charge_seq_read(self, pages: int = 1) -> None:
        """Account sequential page reads."""
        with self._lock:
            self.seq_page_reads += pages

    def charge_rand_read(self, pages: int = 1) -> None:
        """Account random page reads."""
        with self._lock:
            self.rand_page_reads += pages

    def charge_write(self, pages: int = 1) -> None:
        """Account page writes."""
        with self._lock:
            self.page_writes += pages

    def charge_buffer_hit(self, pages: int = 1) -> None:
        """Account buffer-pool hits (no simulated cost)."""
        with self._lock:
            self.buffer_hits += pages

    def charge_hash_build(self, entries: int) -> None:
        """Account hash-table build entries."""
        with self._lock:
            self.hash_builds += entries

    def charge_hash_probe(self, probes: int) -> None:
        """Account hash-table probes."""
        with self._lock:
            self.hash_probes += probes

    def charge_tuple_copy(self, tuples: int) -> None:
        """Account result-tuple copies."""
        with self._lock:
            self.tuple_copies += tuples

    def charge_agg_update(self, updates: int) -> None:
        """Account aggregate-accumulator updates."""
        with self._lock:
            self.agg_updates += updates

    def charge_bitmap_words(self, words: int) -> None:
        """Account bitmap word operations."""
        with self._lock:
            self.bitmap_word_ops += words

    def charge_bitmap_test(self, tests: int) -> None:
        """Account per-tuple bitmap membership tests."""
        with self._lock:
            self.bitmap_tests += tests

    def charge_index_lookup(self, lookups: int = 1) -> None:
        """Account join-index member lookups."""
        with self._lock:
            self.index_lookups += lookups

    def charge_predicate(self, evals: int) -> None:
        """Account per-tuple predicate evaluations."""
        with self._lock:
            self.predicate_evals += evals

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
        with self._lock:
            for name in self._COUNTER_FIELDS:
                setattr(
                    self, name, getattr(self, name) + getattr(delta, name)
                )

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
