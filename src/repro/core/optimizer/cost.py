"""The Section 5.1 cost model.

For a query ``X`` computed from a base table ``B``:

* hash-based star join: ``C = Cost_CPU + ΔCost_IO`` — the scan of ``B`` is
  the class's shared I/O; the query's own cost is CPU (probe, filter, copy,
  aggregate).
* index-based star join: ``C = Cost_CPU + Cost_IO_index + ΔCost_IO`` — the
  index lookups are private; the base-table probe is shared through the
  union bitmap (or becomes free when another class member already scans
  ``B``, Section 3.3).

The model counts before it prices: a member's term and a class carry the
:class:`~repro.storage.iostats.Counts` the executor is expected to charge —
the counters of an :class:`~repro.storage.iostats.IOStats`, in
:class:`CostRates`' field order — and :meth:`CostRates.price` turns a count
into simulated milliseconds, the one place a count meets a rate.  So the
estimate mirrors the executor's charges unit for unit by construction, and
estimated and simulated cost correlate (checked by an ablation benchmark).
Estimates assume uniformly distributed data — the standard optimizer
assumption — plus a page-locality correction for tables clustered on their
leading dimension.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import reduce
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from ...index.bitmap import WORD_BITS
from ...schema.lattice import (
    build_keys,
    estimate_groupby_rows,
    expected_distinct,
    intermediate_source_aggregate,
    source_can_answer,
)
from ...schema.query import DimPredicate, GroupByQuery
from ...schema.star import StarSchema
from ...storage.catalog import Catalog, TableEntry
from ...storage.iostats import CostRates, Counts, pipeline_counts
from .plans import DeriveStep, JoinMethod, PlanClass, left_sum

if TYPE_CHECKING:  # pragma: no cover
    from ...engine.database import Database


@dataclass
class ClassCosting:
    """The outcome of costing one class: total cost plus the per-query join
    methods the model picked (aligned with the query list passed in)."""

    source: str
    cost_ms: float
    methods: List[JoinMethod]


@dataclass(slots=True)
class MemberTerm:
    """What one query contributes to a class on one source, computed once
    per (entry, query) per :class:`CostModel`.  A class cost is *one shared
    term* (scan I/O or the union-bitmap probe, plus the structure builds)
    plus one addend per member read from here.

    **Float-order rule**: float addition is not associative, so a class
    total is accumulated in one fixed order — the shared part (I/O, builds
    and OR, priced as one vector), then one addend per member in query
    order (index configuration: ``index_ms``, then the class's routing
    term, per member).  A
    leave-one-out marginal is ``cost(class) − cost(class without the
    member)``, the second re-accumulated from the other members' terms
    (shared term re-evaluated, configuration re-chosen), never ``total −
    term``.  Structure builds are integer counts (hash entries, dimension
    table pages) priced once, so the build-key set's order reaches no sum.

    Each addend is held twice: as the counts it expects (``*_units``, summed
    only for calibration and EXPLAIN ANALYZE) and priced once, when the
    term is built (``*_ms``, the float a class total adds).  A term is
    never changed once built; it is not ``frozen`` only because a frozen
    ``__init__`` costs the planner's most-built object a microsecond more.
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
    hash_units: Counts
    hash_ms: float
    filtered_ms: float = math.inf
    #: The cheaper of the two and its method (hash on ties).
    scan_method: JoinMethod = JoinMethod.HASH
    scan_ms: float = math.inf
    indexable: bool = False
    #: The index plan less its bitmap tests: index phase (lookup I/O +
    #: bitmap CPU), then pipeline CPU over the tuples the member's own
    #: bitmap — of density ``indexed_sel`` — feeds.
    index_units: Counts = Counts()
    index_ms: float = 0.0
    indexed_sel: float = 1.0
    #: Clustered candidate region (fraction of pages), contiguous runs, and
    #: the pages the member's probe would touch alone.
    region: float = 1.0
    runs: int = 1
    separate_pages: float = 0.0


#: The term of every pair the entry cannot answer (only the bit is read).
UNANSWERABLE = MemberTerm(
    answerable=False, selectivity=math.nan, build_keys=(),
    hash_units=Counts(), hash_ms=math.inf,
)


@dataclass(slots=True)
class ClassState:
    """The cost state of a class under construction on one candidate table:
    what costing "these members, in this order" needs that a later member
    does not change, so a trial (:meth:`CostModel.trial`) is "state + one
    term", not a costing from a query list.

    ``totals`` is ``(hash entries, dimension-table pages, index prefix)``:
    the *integer* build totals of the distinct ``structures``, and the index
    configuration's ``(Π(1 − indexed_sel), Π(1 − region), Σ runs, Σ
    separate_pages)`` (None once a member has no index plan), reusable as
    they stand: from scratch they accumulate left to right in query order,
    so a prefix is the same float.  No running cost is kept — builds and
    routing change when a member joins, so totals are re-summed from the
    addends (:class:`MemberTerm`'s float-order rule).  ``totals`` is None,
    for good (a class only gains members), once ``entry`` cannot answer some
    member: the state is *dead*.
    """

    entry: TableEntry
    terms: List[MemberTerm] = field(default_factory=list)
    structures: set = field(default_factory=set)
    totals: Optional[tuple] = (0, 0, (1.0, 1.0, 0, 0.0))


class CostModel:
    """Estimates local-plan and class costs over the current catalog.

    ``statistics`` (the output of :func:`repro.engine.statistics.analyze`)
    switches predicate selectivities from the uniform assumption to measured
    frequencies for analyzed tables.

    **Lifetime**: an instance snapshots one (catalog, statistics, rates)
    state.  Its per-(entry, query) :class:`MemberTerm` memo and its
    per-entry covering-index table (``_covering``: what
    :meth:`TableEntry.covering_index` answered when the entry's first term
    was built) are never invalidated, so a model must not outlive a
    mutation — a new index, an append, ``analyze()`` — and callers build a
    new one per optimize run, as ``Database.optimize``, ``calibrate`` and
    recovery's degrade step (``docs/architecture.md`` §"Answering a batch") do.
    """

    def __init__(
        self,
        schema: StarSchema,
        catalog: Catalog,
        rates: CostRates,
        statistics: Optional[Dict[str, object]] = None,
        dim_tables: Optional[Dict[str, object]] = None,
    ):
        self.schema = schema
        self.catalog = catalog
        self.rates = rates
        self.statistics = statistics or {}
        self.dim_tables = dim_tables or {}
        #: Number of class costings performed — the optimizers' search
        #: effort metric (the paper's future-work trade-off: GG searches
        #: more global plans than ETPLG, which searches more than TPLO).
        self.n_plan_costings = 0
        # Per dimension, the pages of its stored table one structure build
        # scans (zero when dimensions live in metadata only).
        self._dim_pages = [
            self.dim_tables[dim.name].n_pages
            if dim.name in self.dim_tables
            else 0
            for dim in schema.dimensions
        ]
        self._terms: Dict[Tuple[str, int], MemberTerm] = {}
        # The scan configuration's shared part priced, per (pages, hash
        # entries): the integer totals a trial reads it from.
        self._scan_shared_ms: Dict[Tuple[int, int], float] = {}
        self._filter_ms: Dict[str, float] = {}
        self._covering_tables: Dict[str, Dict[Tuple[int, int], tuple]] = {}
        # A first standalone costing counts in n_plan_costings, repeats do
        # not, so ``standalone`` keeps its results beside the terms.
        self._standalone_cache: Dict[Tuple[str, int], Optional[Tuple[JoinMethod, float]]] = {}

    @classmethod
    def for_database(
        cls, db: "Database", rates: Optional[CostRates] = None
    ) -> "CostModel":
        """A fresh model over ``db``'s current catalog, statistics and
        dimension tables, priced at its rates unless ``rates`` is given."""
        return cls(
            db.schema,
            db.catalog,
            rates or db.stats.rates,
            statistics=db.table_statistics,
            dim_tables=db.dimension_tables,
        )

    @property
    def n_member_terms(self) -> int:
        """Member terms built so far: at most one per (entry, query)."""
        return len(self._terms)

    # -- selectivity (uniform by default, measured when analyzed) -------------

    def predicate_selectivity(self, entry: TableEntry, predicate) -> float:
        """Selectivity of one predicate (measured when statistics exist, else uniform)."""
        stats = self.statistics.get(entry.name)
        if stats is not None:
            measured = stats.predicate_selectivity(self.schema, predicate)
            if measured is not None:
                return measured
        return predicate.selectivity(self.schema)

    def query_selectivity(self, entry: TableEntry, query: GroupByQuery) -> float:
        """Product of the query's predicate selectivities on this source —
        for any pair, answerable or not (an unanswerable pair has no term
        to read it from, so it is computed here)."""
        term = self._term(entry, query)
        if term.answerable:
            return term.selectivity
        sels = (self.predicate_selectivity(entry, p) for p in query.predicates)
        return math.prod(sels, start=1.0)

    # -- feasibility ------------------------------------------------------------

    def _covering(self, entry: TableEntry) -> Dict[Tuple[int, int], tuple]:
        """``entry``'s covering-index table, built on first use: per (dim,
        level) at or above the stored one, :meth:`TableEntry.covering_index`
        and the lookups it makes per predicate member (each stands for its
        descendants at ``index.level``); levels without one are absent."""
        table = self._covering_tables.get(entry.name)
        if table is None:
            table = self._covering_tables[entry.name] = {}
            for d, sizes in enumerate(self.schema.level_sizes):
                for level in range(entry.levels[d], len(sizes)):
                    index = entry.covering_index(d, level)
                    if index is not None:
                        table[d, level] = (index, sizes[index.level] / sizes[level])
        return table

    def find_index(
        self, entry: TableEntry, predicate: DimPredicate
    ) -> Optional[Tuple[object, int]]:
        """The index usable for ``predicate`` on ``entry`` and the number of
        member payloads a lookup retrieves, or None."""
        found = self._covering(entry).get((predicate.dim_index, predicate.level))
        if found is None:
            return None
        index, per_member = found
        return index, int(math.ceil(len(predicate.member_ids) * per_member))

    def can_index(self, entry: TableEntry, query: GroupByQuery) -> bool:
        """True if an index-based plan for ``query`` on ``entry`` exists —
        i.e. ``entry`` can answer it and at least one predicate has a usable
        join index (the rest become residual filters)."""
        return self._term(entry, query).indexable

    # -- member terms ------------------------------------------------------------

    def _probe_dims(self, query: GroupByQuery) -> int:
        """Dimensions whose hash table each tuple probes (mirrors
        :class:`QueryPipeline`)."""
        filtered = {pred.dim_index for pred in query.predicates}
        all_levels = self.schema.all_levels()
        return len([
            d for d, target in enumerate(query.groupby.levels)
            if target != all_levels[d] or d in filtered
        ])

    def _bitmap_words(self, entry: TableEntry) -> int:
        return (entry.n_rows + WORD_BITS - 1) // WORD_BITS

    def _filter_tests(self, entry: TableEntry) -> Counts:
        """What an index plan filtering a scan of ``entry`` adds to its
        ``index_units``: a test of every scanned tuple against its bitmap."""
        return Counts(bitmap_tests=entry.n_rows)

    def _filter_tests_ms(self, entry: TableEntry) -> float:
        ms = self._filter_ms.get(entry.name)
        if ms is None:
            ms = self._filter_ms[entry.name] = self.rates.price(
                self._filter_tests(entry)
            )
        return ms

    def _term(self, entry: TableEntry, query: GroupByQuery) -> MemberTerm:
        """The memoized term of ``query`` on ``entry`` — the one place a
        member's hash and filtered-index marginals are computed, in one pass
        over the query's predicates.  A pair the entry cannot answer costs
        nothing: it gets the shared :data:`UNANSWERABLE` constant (Roy et
        al.'s sharability pre-filter).

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
        key = (entry.name, query.qid)
        term = self._terms.get(key)
        if term is not None:
            return term
        if not source_can_answer(entry.levels, entry.source_aggregate, query):
            self._terms[key] = UNANSWERABLE
            return UNANSWERABLE
        # Per-predicate facts, aligned with ``query.predicates``, and the
        # position of the first predicate on each dimension.
        predicates = query.predicates
        sels, found, first = [], [], {}
        for i, pred in enumerate(predicates):
            sels.append(self.predicate_selectivity(entry, pred))
            found.append(self.find_index(entry, pred))
            first.setdefault(pred.dim_index, i)
        price = self.rates.price
        n = entry.n_rows
        selectivity = math.prod(sels, start=1.0)
        k = n * selectivity
        probe_dims, n_preds = self._probe_dims(query), len(predicates)
        hash_units = pipeline_counts(n, probe_dims, n_preds, k)
        words = self._bitmap_words(entry)
        pages = lookups = bitmap_words = n_indexed = 0
        indexed_sel = 1.0
        for sel, hit in zip(sels, found):
            if hit is None:
                continue
            index, n_lookups = hit
            n_indexed += 1
            indexed_sel *= sel
            pages += index.pages_per_lookup(n_lookups)
            lookups += n_lookups
            bitmap_words += (n_lookups - 1) * words  # payload ORs
        side = {}
        if n_indexed:
            bitmap_words += (n_indexed - 1) * words  # predicate ANDs
            region, runs = 1.0, 1
            for d, sizes in enumerate(self.schema.level_sizes):
                i = first.get(d)
                if i is None or found[i] is None:
                    break
                region *= sels[i]
                # Selected keys at the stored level: each predicate member
                # fans out to its descendants there.
                per_member = sizes[entry.levels[d]] / sizes[predicates[i].level]
                runs *= max(1, round(len(predicates[i].member_ids) * per_member))
            index_units = pipeline_counts(
                n * indexed_sel, probe_dims, n_preds, k,
                pages=pages, bitmap_words=bitmap_words, lookups=lookups,
            )
            index_ms = price(index_units)
            side = dict(
                indexable=True,
                filtered_ms=index_ms + self._filter_tests_ms(entry),
                index_units=index_units,
                index_ms=index_ms,
                indexed_sel=indexed_sel,
                region=region,
                runs=runs,
                separate_pages=expected_distinct(
                    max(1.0, entry.n_pages * region), n * indexed_sel
                )
                + max(0, runs - 1),
            )
        hash_ms = price(hash_units)
        hash_wins = hash_ms <= side.get("filtered_ms", math.inf)
        term = self._terms[key] = MemberTerm(
            answerable=True,
            selectivity=selectivity,
            build_keys=build_keys(self.schema, entry.levels, query),
            hash_units=hash_units,
            hash_ms=hash_ms,
            scan_method=JoinMethod.HASH if hash_wins else JoinMethod.INDEX,
            scan_ms=hash_ms if hash_wins else side["filtered_ms"],
            **side,
        )
        return term

    # -- class state -------------------------------------------------------------

    def _missing(self, held: set, keys: Iterable[tuple], entries: int, pages: int):
        """The build keys not in ``held``, and the totals grown by building
        them: hash entries, and (when it is stored) dimension-table pages."""
        new = {key for key in keys if key not in held}
        for key in new:
            entries += self.schema.level_sizes[key[0]][key[1]]
            pages += self._dim_pages[key[0]]
        return new, entries, pages

    def _joined(self, state: ClassState, term: MemberTerm) -> Tuple[set, tuple]:
        """``state`` with ``term`` as its next member, the state untouched:
        the build keys it does not hold yet, and its ``totals`` then."""
        entries, pages, index = state.totals
        new, entries, pages = self._missing(
            state.structures, term.build_keys, entries, pages
        )
        if not term.indexable:
            index = None
        elif index is not None:
            index = (
                index[0] * (1.0 - term.indexed_sel),
                index[1] * (1.0 - term.region),
                index[2] + term.runs,
                index[3] + term.separate_pages,
            )
        return new, (entries, pages, index)

    def extend(self, state: ClassState, query: GroupByQuery) -> ClassState:
        """Admit ``query`` as the last member of ``state``, in place (a
        fresh state grows into a class's by ``reduce`` over its queries)."""
        term = self._term(state.entry, query)
        if not term.answerable:
            state.totals = None
        elif state.totals is not None:
            new, state.totals = self._joined(state, term)
            state.structures.update(new)
        state.terms.append(term)
        return state

    # -- class costing -----------------------------------------------------------

    def _scan_shared(self, entry: TableEntry, entries: int, pages: int) -> Counts:
        """The shared counts of a class whose base table is sequentially
        scanned: the scan, plus the structure builds — hash entries and,
        when dimension tables are stored, a scan of each."""
        return Counts(seq_page_reads=entry.n_pages + pages, hash_builds=entries)

    def _scan_cost(
        self, entry: TableEntry, totals: tuple, marginals: Iterable[float]
    ) -> float:
        """Cost of the class when the base table is sequentially scanned:
        hash plans consume the scan; index plans filter it (Section 3.3).
        ``marginals`` holds each member's addend under its method."""
        entries, pages = totals[:2]
        key = (entry.n_pages + pages, entries)
        shared_ms = self._scan_shared_ms.get(key)
        if shared_ms is None:
            shared_ms = self._scan_shared_ms[key] = self.rates.price(
                self._scan_shared(entry, entries, pages)
            )
        return left_sum(marginals, shared_ms)

    def _index_shared(
        self, entry: TableEntry, n_members: int, totals: tuple
    ) -> Tuple[Counts, Counts]:
        """The shared counts of a class whose members are all index joins
        sharing one union-bitmap probe (Section 3.2) — the probe, the
        structure builds and the OR of the members' bitmaps — and the
        routing each member adds; ``totals`` holds their index prefix."""
        entries, dim_pages, index = totals
        not_selected, not_region, runs, separate_pages = index
        union_rows = entry.n_rows * (1.0 - not_selected)
        # Expected distinct pages the union probe touches: Cardenas over
        # the clustered candidate region, plus one boundary page per
        # additional contiguous run.
        p = entry.n_pages
        if entry.clustered:
            region = max(1.0, p * (1.0 - not_region))
            pages = expected_distinct(region, union_rows) + max(0, runs - 1)
            # A union probe can never touch more pages than the queries
            # would touch separately.
            pages = min(float(p), pages, separate_pages)
        else:
            pages = expected_distinct(float(p), union_rows)
        # Positional, in Counts' order (a trial builds these; keywords
        # would cost it more): seq_page_reads (the dimension tables),
        # rand_page_reads, hash_builds, then the OR's bitmap_word_ops —
        # and, re-priced per costing, the routing's bitmap_tests.
        shared = Counts(
            dim_pages, pages, 0, entries, 0, 0, 0,
            (n_members - 1) * self._bitmap_words(entry),
        )
        return shared, Counts(0, 0, 0, 0, 0, 0, 0, 0, union_rows)

    def _index_cost(
        self, entry: TableEntry, terms: Sequence[MemberTerm], totals: tuple
    ) -> float:
        """Cost of the class as all index joins: the shared part, then per
        member its index plan and its routing."""
        shared, routing = self._index_shared(entry, len(terms), totals)
        total = self.rates.price(shared)
        routing_ms = self.rates.price(routing)
        for term in terms:
            total += term.index_ms
            total += routing_ms
        return total

    def _best(
        self, entry: TableEntry, terms: Sequence[MemberTerm], totals: tuple
    ) -> ClassCosting:
        """The cheaper configuration of a class (scan on ties): each member
        on its cheaper scan-side method, or (given a prefix) all index joins."""
        cost = self._scan_cost(entry, totals, [t.scan_ms for t in terms])
        if totals[2] is not None:
            index_cost = self._index_cost(entry, terms, totals)
            if index_cost < cost:
                return ClassCosting(
                    entry.name, index_cost, [JoinMethod.INDEX] * len(terms)
                )
        return ClassCosting(entry.name, cost, [t.scan_method for t in terms])

    def trial(self, state: ClassState, query: GroupByQuery) -> Optional[ClassCosting]:
        """``plan_class(state.entry, members + [query])`` read off the
        members' ``state`` (left untouched): one term look-up, rejected
        before anything is summed when the entry cannot answer the query
        or some member.  Counts as one class costing."""
        self.n_plan_costings += 1
        term = self._term(state.entry, query)
        if state.totals is None or not term.answerable:
            return None
        totals = self._joined(state, term)[1]
        return self._best(state.entry, state.terms + [term], totals)

    def plan_class(
        self, entry: TableEntry, queries: Sequence[GroupByQuery]
    ) -> Optional[ClassCosting]:
        """Best costing of ``queries`` as one class on ``entry``; None if
        some query is not answerable from it.  From a list, a class is
        costed as the trial of its last member on the state of the others."""
        if not queries:
            raise ValueError("a class needs at least one query")
        others = reduce(self.extend, queries[:-1], ClassState(entry))
        return self.trial(others, queries[-1])

    def _given(
        self, entry: TableEntry, queries: Sequence[GroupByQuery],
        methods: Sequence[JoinMethod],
    ) -> ClassState:
        """The state of a class whose per-query join methods are fixed;
        raises ``ValueError`` when ``entry`` cannot answer a query or a
        query has no index plan for its non-hash method."""
        if len(queries) != len(methods):
            raise ValueError("queries and methods must align")
        state = ClassState(entry)
        for query, method in zip(queries, methods):
            if self.extend(state, query).totals is None:
                raise ValueError(
                    f"{entry.name!r} cannot answer {query.display_name()}"
                )
            if method is not JoinMethod.HASH and not state.terms[-1].indexable:
                raise ValueError(
                    f"no index plan for {query.display_name()} on "
                    f"{entry.name!r}"
                )
        return state

    def class_cost_given(
        self, entry: TableEntry, queries: Sequence[GroupByQuery],
        methods: Sequence[JoinMethod],
    ) -> float:
        """Cost of a class whose per-query join methods are already fixed
        (used to cost TPLO's merged plans, which keep local choices).
        Raises ``ValueError`` when ``entry`` cannot answer a query or a
        query has no index plan for its non-hash method."""
        state = self._given(entry, queries, methods)
        if all(m is JoinMethod.INDEX for m in methods):
            return self._index_cost(entry, state.terms, state.totals)
        marginals = [
            term.hash_ms if method is JoinMethod.HASH else term.filtered_ms
            for term, method in zip(state.terms, methods)
        ]
        return self._scan_cost(entry, state.totals, marginals)

    def class_units(self, plan_class: PlanClass) -> Counts:
        """The counts a planned class is expected to charge, added in the
        order its cost is (shared part, then members in plan order, then a
        ``dag`` class's derived pipelines): priced, they give its
        ``est_cost_ms`` up to float rounding."""
        entry = self.catalog.get(plan_class.source)
        scan = [p for p in plan_class.plans if p.method is not JoinMethod.DERIVE]
        queries = [p.query for p in scan]
        methods = [p.method for p in scan]
        if plan_class.derives:
            state, totals, derived = self._derived(
                entry, queries, plan_class.derives
            )
        else:
            state = self._given(entry, queries, methods)
            totals, derived = state.totals, []
        if not plan_class.derives and all(m is JoinMethod.INDEX for m in methods):
            shared, routing = self._index_shared(entry, len(methods), totals)
            addends = [
                units
                for term in state.terms
                for units in (term.index_units, routing)
            ]
        else:
            shared = self._scan_shared(entry, *totals[:2])
            addends = [
                term.hash_units if method is JoinMethod.HASH
                else term.index_units + self._filter_tests(entry)
                for term, method in zip(state.terms, methods)
            ]
        return reduce(operator.add, addends + derived, shared)

    # -- DAG class costing (derive-from-shared-sub-aggregate) --------------------

    def intermediate_rows(
        self, entry: TableEntry, intermediate: GroupByQuery
    ) -> float:
        """Expected group count of a derive step's intermediate aggregate
        computed over ``entry``."""
        return float(
            estimate_groupby_rows(
                self.schema, intermediate.groupby.levels, entry.n_rows
            )
        )

    def derive_class(
        self,
        entry: TableEntry,
        scan_queries: Sequence[GroupByQuery],
        derive_steps: Sequence[DeriveStep],
        row_safety: float = 1.0,
    ) -> Optional[ClassCosting]:
        """Cost of a DAG class (see :mod:`repro.dag`): one shared scan of
        ``entry`` feeds the ``scan_queries`` *and* each step's intermediate
        sub-aggregate; the step's derived queries then re-aggregate the
        in-memory intermediate — pure CPU over its (far fewer) group rows,
        no extra I/O.

        ``methods`` in the returned costing aligns with ``scan_queries``
        followed by every step's derived queries in order.  ``row_safety``
        inflates the intermediates' estimated group counts (the greedy
        search's guard against Cardenas underestimates; the final plan is
        costed with 1.0).  Returns None when a query or intermediate is
        not answerable.
        """
        if not derive_steps:
            raise ValueError("a DAG class needs at least one derive step")
        self.n_plan_costings += 1
        derived = self._derived(entry, scan_queries, derive_steps, row_safety)
        if derived is None:
            return None
        state, totals, addends = derived
        costing = self._best(entry, state.terms, totals)
        for units in addends:
            costing.cost_ms += self.rates.price(units)
        for step in derive_steps:
            costing.methods += [JoinMethod.DERIVE] * len(step.queries)
        return costing

    def _derived(
        self,
        entry: TableEntry,
        scan_queries: Sequence[GroupByQuery],
        derive_steps: Sequence[DeriveStep],
        row_safety: float = 1.0,
    ) -> Optional[Tuple[ClassState, tuple, List[Counts]]]:
        """A DAG class's scan members' state, its build totals (no index
        prefix: a DAG class runs the scan configuration) and, per step, the
        counts of its intermediate's pipeline, then of each derived
        query's; None when a query or intermediate is not answerable."""
        n = entry.n_rows
        state = reduce(self.extend, scan_queries, ClassState(entry))
        if state.totals is None:
            return None
        keys: List[tuple] = []
        for step in derive_steps:
            intermediate = step.intermediate
            if intermediate.predicates or not source_can_answer(
                entry.levels, entry.source_aggregate, intermediate
            ):
                return None
            inter_levels = intermediate.groupby.levels
            inter_agg = intermediate_source_aggregate(
                entry.source_aggregate, intermediate
            )
            # Structures beyond the scan members'.  Derived queries read
            # the intermediate, so theirs key off — and are sized by — the
            # intermediate's levels, not the base table's.
            keys += build_keys(self.schema, entry.levels, intermediate)
            for query in step.queries:
                if not source_can_answer(inter_levels, inter_agg, query):
                    return None
                keys += build_keys(self.schema, inter_levels, query)
        addends: List[Counts] = []
        for step in derive_steps:
            # The intermediate has no predicates: every fed tuple updates
            # its aggregator, exactly as QueryPipeline will charge.
            inter = step.intermediate
            addends.append(pipeline_counts(n, self._probe_dims(inter), 0, n))
            m = row_safety * self.intermediate_rows(entry, inter)
            for query in step.queries:
                k = m * self.query_selectivity(entry, query)
                probe_dims, n_preds = self._probe_dims(query), len(query.predicates)
                addends.append(pipeline_counts(m, probe_dims, n_preds, k))
        _new, entries, pages = self._missing(state.structures, keys, *state.totals[:2])
        return state, (entries, pages, None), addends

    # -- local-plan selection ------------------------------------------------------

    def standalone(
        self, entry: TableEntry, query: GroupByQuery
    ) -> Optional[Tuple[JoinMethod, float]]:
        """Best (method, cost) for the query alone on ``entry``
        (memoized per model instance)."""
        key = (entry.name, query.qid)
        if key not in self._standalone_cache:
            costing = self.plan_class(entry, [query])
            self._standalone_cache[key] = (
                None if costing is None else (costing.methods[0], costing.cost_ms)
            )
        return self._standalone_cache[key]

    def best_local(
        self,
        query: GroupByQuery,
        entries: Optional[Sequence[TableEntry]] = None,
    ) -> Tuple[TableEntry, JoinMethod, float]:
        """The paper's "optimal local plan": the cheapest (table, method)
        over the candidate materialized group-bys."""
        if entries is None:
            entries = self.catalog.entries()
        best: Optional[Tuple[TableEntry, JoinMethod, float]] = None
        for entry in entries:
            result = self.standalone(entry, query)
            if result is not None and (best is None or result[1] < best[2]):
                best = (entry, *result)
        if best is None:
            raise ValueError(
                f"no candidate table can answer {query.display_name()}"
            )
        return best
