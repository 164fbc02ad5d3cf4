"""Member terms: what one query contributes to a class on one candidate
table, priced up front for a whole batch.

Sections 5–6 cost every query on every candidate table before the greedy
search runs.  :func:`price_terms` prices every (table, query) pair of a
batch, pair by pair in Python floats, with what depends on the query alone
— its uniform selectivities, probed dimensions and predicate layout —
worked out once for the batch; it builds a :class:`MemberTerm` only for
pairs the table can answer.
:meth:`~repro.core.optimizer.cost.CostModel.terms_for` memoizes them.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence, Tuple

from ...index.bitmap import WORD_BITS
from ...schema.lattice import aggregate_compatible, build_keys, expected_distinct
from ...schema.query import GroupByQuery
from ...storage.catalog import TableEntry
from ...storage.iostats import Counts, filter_counts, pipeline_counts, pipeline_ms
from .plans import JoinMethod

if TYPE_CHECKING:  # pragma: no cover
    from .cost import CostModel


@dataclass(slots=True)
class MemberTerm:
    """What one query contributes to a class on one source, computed once
    per (entry, query) per :class:`~repro.core.optimizer.cost.CostModel`.
    A class cost is *one shared term* (scan I/O or the union-bitmap probe,
    plus the structure builds) plus one addend per member read from here,
    added in one fixed order — the shared part, then one addend per member
    in query order (index configuration: ``index_ms``, then the class's
    routing) — and re-summed when a member joins, never ``total − term``
    (docs/cost_model.md, "Float-order rule").

    Each addend is held priced (``*_ms``); :func:`term_units` states its
    counts from the scalars it was priced from, for the class that is kept.
    A term is never changed once built; it is not ``frozen`` only because a
    frozen ``__init__`` costs the planner's most-built object a microsecond
    more.
    """

    answerable: bool
    #: Product of the predicate selectivities (matching rows = N × this).
    selectivity: float
    #: Structures the member's pipeline needs built
    #: (:func:`~repro.schema.lattice.build_keys`).
    build_keys: Tuple[tuple, ...]
    #: Marginal on a shared scan as a hash plan, and as an index plan
    #: filtering the scan (inf unless ``indexable``: some predicate has a
    #: usable index, which every field below ``scan_ms`` presumes).
    hash_ms: float
    filtered_ms: float = math.inf
    #: The cheaper of the two and its method (hash on ties).
    scan_method: JoinMethod = JoinMethod.HASH
    scan_ms: float = math.inf
    indexable: bool = False
    #: The index plan less its bitmap tests: index phase (each indexed
    #: predicate's ``lookup_counts``, then the AND across them:
    #: :meth:`~repro.core.optimizer.cost.CostModel.index_phase`), then
    #: pipeline CPU over the tuples the member's own bitmap — of density
    #: ``indexed_sel`` — feeds.
    index_phase: Counts = Counts()
    index_ms: float = 0.0
    indexed_sel: float = 1.0
    #: Clustered candidate region (fraction of pages), contiguous runs, and
    #: the pages the member's probe would touch alone.
    region: float = 1.0
    runs: int = 1
    separate_pages: float = 0.0


#: The term of every pair the entry cannot answer (only the bit is read).
UNANSWERABLE = MemberTerm(
    answerable=False, selectivity=math.nan, build_keys=(), hash_ms=math.inf,
)


def term_units(
    model: "CostModel", entry: TableEntry, query: GroupByQuery, term: MemberTerm
) -> Tuple[Counts, Counts]:
    """The counts of an answerable ``term``'s hash and index addends (zero
    where it has none), stated from the scalars :func:`_term` priced."""
    n, probes, preds = entry.n_rows, model._probe_dims(query), len(query.predicates)
    k = n * term.selectivity
    hash_units = pipeline_counts(n, probes, preds, k)
    if not term.indexable:
        return hash_units, Counts()
    rows_in = n * term.indexed_sel
    return hash_units, term.index_phase + pipeline_counts(rows_in, probes, preds, k)


def price_terms(
    model: "CostModel",
    queries: Sequence[GroupByQuery],
    entries: Sequence[TableEntry],
) -> Iterator[Tuple[TableEntry, GroupByQuery, MemberTerm]]:
    """Every (entry, query) pair's term, in (entry, query) order.  A pair
    the entry cannot answer gets the shared :data:`UNANSWERABLE` constant
    (Roy et al.'s sharability pre-filter).

    What depends on the query alone (:class:`_QueryFacts`) or on the entry
    alone is worked out once per batch; a pair's floats are what a batch
    of one computes (``TestBatchingInvariance``)."""
    price = model.rates.price
    facts = [_QueryFacts(model, query) for query in queries]
    for entry in entries:
        levels, source_aggregate = entry.levels, entry.source_aggregate
        on_entry = (
            model.covering(entry),
            (entry.n_rows + WORD_BITS - 1) // WORD_BITS,
            price(filter_counts(entry.n_rows)),
            entry.name in model.statistics,
        )
        for query, fact in zip(queries, facts):
            # ``source_can_answer``, on the query's required levels.
            if not (
                aggregate_compatible(query.aggregate, source_aggregate)
                and all(map(operator.le, levels, fact.required))
            ):
                yield entry, query, UNANSWERABLE
                continue
            yield entry, query, _term(model, entry, query, fact, *on_entry)


class _QueryFacts:
    """What a query's terms share on every entry: its required levels; per
    predicate, its uniform selectivity (and their product),
    where it looks for a covering index and with how many members; per
    dimension, the position of its first predicate; the dimensions a tuple
    probes."""

    __slots__ = (
        "required", "sels", "selectivity", "lookups", "first", "probe_dims",
        "n_preds",
    )

    def __init__(self, model: "CostModel", query: GroupByQuery):
        schema, predicates = model.schema, query.predicates
        self.required = query.required_levels()
        self.sels = [pred.selectivity(schema) for pred in predicates]
        self.selectivity = math.prod(self.sels, start=1.0)
        self.lookups = [
            ((pred.dim_index, pred.level), len(pred.member_ids)) for pred in predicates
        ]
        self.first = {}
        for i, pred in enumerate(predicates):
            self.first.setdefault(pred.dim_index, i)
        self.probe_dims, self.n_preds = model._probe_dims(query), len(predicates)


def _term(
    model: "CostModel", entry: TableEntry, query: GroupByQuery, fact: _QueryFacts,
    covering: dict, words: int, filter_ms: float, analyzed: bool,
) -> MemberTerm:
    """An answerable pair's term, in one pass over the query's predicates.

    The index side exists when some predicate has a usable index.
    ``indexed_sel`` is the product over *indexed* predicates only;
    unindexed ones run as residual filters downstream.  Materialized
    group-bys are sorted by dimension-key order, so on a *clustered*
    table rows matching indexed predicates on a *prefix* of the
    dimension order cluster: each prefix predicate multiplies the
    candidate ``region`` down by its selectivity, but splits the
    selection into one contiguous run per selected key combination,
    each potentially touching a partial boundary page.  The walk stops
    at the first dimension without an indexed predicate — deeper
    selections scatter across that dimension's runs."""
    predicates = query.predicates
    sels, selectivity = fact.sels, fact.selectivity
    if analyzed:
        sels = [model.predicate_selectivity(entry, pred) for pred in predicates]
        selectivity = math.prod(sels, start=1.0)
    rates = model.rates
    n = entry.n_rows
    k = n * selectivity
    probe_dims, n_preds = fact.probe_dims, fact.n_preds
    hash_ms = pipeline_ms(rates, n, probe_dims, n_preds, k)
    keys = build_keys(model.schema, entry.levels, query)
    found = []
    lookups = []
    indexed_sel = 1.0
    for sel, (key, n_members) in zip(sels, fact.lookups):
        hit = covering.get(key)
        found.append(hit)
        if hit is None:
            continue
        index, per_member = hit
        indexed_sel *= sel
        lookups.append((index, int(math.ceil(n_members * per_member))))
    if not lookups:
        return MemberTerm(True, selectivity, keys, hash_ms, math.inf,
                          JoinMethod.HASH, hash_ms)
    region, runs = 1.0, 1
    for d, sizes in enumerate(model.schema.level_sizes):
        i = fact.first.get(d)
        if i is None or found[i] is None:
            break
        region *= sels[i]
        # Selected keys at the stored level: each predicate member fans
        # out to its descendants there.
        per_member = sizes[entry.levels[d]] / sizes[predicates[i].level]
        runs *= max(1, round(len(predicates[i].member_ids) * per_member))
    phase = model.index_phase(entry, tuple(lookups), words)
    index_ms = pipeline_ms(rates, n * indexed_sel, probe_dims, n_preds, k, phase)
    filtered_ms = index_ms + filter_ms
    hash_wins = hash_ms <= filtered_ms
    separate_pages = expected_distinct(
        max(1.0, entry.n_pages * region), n * indexed_sel
    ) + max(0, runs - 1)
    return MemberTerm(
        True, selectivity, keys, hash_ms, filtered_ms,
        JoinMethod.HASH if hash_wins else JoinMethod.INDEX,
        hash_ms if hash_wins else filtered_ms, True, phase, index_ms,
        indexed_sel, region, runs, separate_pages,
    )
