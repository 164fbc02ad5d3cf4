"""The Section 5.1 cost model.

For a query ``X`` computed from a base table ``B``:

* hash-based star join: ``C = Cost_CPU + ΔCost_IO`` — the scan of ``B`` is
  the class's shared I/O; the query's own cost is CPU (probe, filter, copy,
  aggregate).
* index-based star join: ``C = Cost_CPU + Cost_IO_index + ΔCost_IO`` — the
  index lookups are private; the base-table probe is shared through the
  union bitmap (or becomes free when another class member already scans
  ``B``, Section 3.3).

The model estimates the counters of an
:class:`~repro.storage.iostats.IOStats` the executor is expected to
charge.  Where the data does not decide a count, the model and the
operator read one statement of it (:mod:`repro.storage.iostats`, a join
index's ``lookup_counts``); the rest — probe pages, routed and passing
rows — is estimated from the data model below.  A trial prices the
statements' scalars in floats (their priced forms);
:meth:`CostModel.class_units` states the counts from the same scalars.
Estimates assume uniformly distributed data — the standard optimizer
assumption — plus a page-locality correction for tables clustered on their
leading dimension.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import reduce
from typing import TYPE_CHECKING, Collection, Dict, Iterable, List, Optional
from typing import Sequence, Tuple

from ...index.bitmap import WORD_BITS
from ...schema.lattice import (
    build_keys,
    estimate_groupby_rows,
    expected_distinct,
    intermediate_source_aggregate,
    new_builds,
    source_can_answer,
)
from ...schema.query import DimPredicate, GroupByQuery
from ...schema.star import StarSchema
from ...storage.catalog import Catalog, TableEntry
from ...storage.iostats import CostRates, Counts, build_counts, filter_counts
from ...storage.iostats import merge_counts, pipeline_counts, read_counts, routing_counts
from ...storage.iostats import pipeline_ms, routing_ms, shared_ms
from .plans import DeriveStep, JoinMethod, LocalPlan, PlanClass, left_sum
from .terms import MemberTerm, price_terms, term_units

if TYPE_CHECKING:  # pragma: no cover
    from ...engine.database import Database


@dataclass
class ClassCosting:
    """The outcome of costing one class: total cost plus the per-query join
    methods the model picked (aligned with the query list passed in)."""

    source: str
    cost_ms: float
    methods: List[JoinMethod]


#: The index prefix of a class with no members yet.
NO_MEMBERS = (1.0, 1.0, 0, 0.0)


def _prefix(index: Optional[tuple], term: MemberTerm) -> Optional[tuple]:
    """The index configuration's prefix ``index`` with ``term`` joined;
    None for good once a member has no index plan."""
    if index is None or not term.indexable:
        return None
    return (
        index[0] * (1.0 - term.indexed_sel),
        index[1] * (1.0 - term.region),
        index[2] + term.runs,
        index[3] + term.separate_pages,
    )


@dataclass(slots=True)
class ClassState:
    """The cost state of a class under construction on one candidate table:
    what costing "these members, in this order" needs that a later member
    does not change, so a trial (:meth:`CostModel.trial`) is "state + one
    term", not a costing from a query list.

    ``structures`` holds the distinct build keys and the dimensions they
    are on; ``totals`` is ``(hash entries, dimension-table pages, index
    prefix)``: their *integer* build totals (what :func:`build_counts`
    states), and the index configuration's ``(Π(1 − indexed_sel), Π(1 −
    region), Σ runs, Σ separate_pages)`` (None once a member has no index
    plan), accumulated left to right in query order, so a prefix is the
    same float.  No running cost is kept (:class:`MemberTerm`'s float-order
    rule).  ``totals`` is None, for good, once ``entry`` cannot answer some
    member: the state is *dead*.
    """

    entry: TableEntry
    terms: List[MemberTerm] = field(default_factory=list)
    structures: set = field(default_factory=set)
    totals: Optional[tuple] = (0, 0, NO_MEMBERS)


class CostModel:
    """Estimates local-plan and class costs over the current catalog.

    ``statistics`` (the output of :func:`repro.engine.statistics.analyze`)
    switches predicate selectivities from the uniform assumption to measured
    frequencies for analyzed tables.

    **Lifetime**: an instance snapshots one (catalog, statistics, rates)
    state.  Its per-(entry, query) :class:`MemberTerm` memo, its index
    phases (:meth:`index_phase`) and its per-entry covering-index table
    (:meth:`covering`: what :meth:`TableEntry.covering_index` answered
    when the entry's first term was built) are never invalidated, so a
    model must not outlive a mutation — a new index, an append,
    ``analyze()`` — and callers build a new one per optimize run, as
    ``Database.optimize``, ``calibrate`` and recovery's degrade step
    (``docs/architecture.md`` §"Answering a batch") do.
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
        # Per dimension, the pages of its stored table, which a class's
        # first structure build on it scans (zero when dimensions live in
        # metadata only).
        self._dim_pages = [
            self.dim_tables[dim.name].n_pages
            if dim.name in self.dim_tables
            else 0
            for dim in schema.dimensions
        ]
        self._terms: Dict[Tuple[str, int], MemberTerm] = {}
        self._covering_tables: Dict[str, Dict[Tuple[int, int], tuple]] = {}
        self._phases: Dict[Tuple[str, tuple], Counts] = {}
        # Per pair, its standalone costing once read.
        self._alone: Dict[Tuple[str, int], Optional[Tuple[JoinMethod, float]]] = {}

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

    def covering(self, entry: TableEntry) -> Dict[Tuple[int, int], tuple]:
        """``entry``'s covering-index table, built on first use: per (dim,
        level) at or above the stored one, :meth:`TableEntry.covering_index`
        and the lookups it makes per predicate member (each stands for its
        descendants at ``index.level``); levels without one are absent."""
        table = self._covering_tables.get(entry.name)
        if table is None:
            table = self._covering_tables[entry.name] = {}
            for d, sizes in enumerate(self.schema.level_sizes):
                index = None  # the coarsest at or below ``level``
                for level in range(entry.levels[d], len(sizes)):
                    index = entry.indexes.get((d, level), index)
                    if index is not None:
                        table[d, level] = (index, sizes[index.level] / sizes[level])
        return table

    def find_index(
        self, entry: TableEntry, predicate: DimPredicate
    ) -> Optional[Tuple[object, int]]:
        """The index usable for ``predicate`` on ``entry`` and the number of
        member payloads a lookup retrieves, or None."""
        found = self.covering(entry).get((predicate.dim_index, predicate.level))
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

    def index_phase(self, entry: TableEntry, lookups: tuple, n_words: int) -> Counts:
        """What a member's index phase on ``entry`` is expected to charge,
        summed once per (entry, lookups): each ``(index, n_members)``
        lookup's ``lookup_counts``, then the AND of their bitmaps."""
        key = (entry.name, lookups)
        if key not in self._phases:
            (index, n), *rest = lookups
            phase = index.lookup_counts(n)
            for index, n in rest:
                phase += index.lookup_counts(n)
            self._phases[key] = phase + merge_counts(len(lookups), n_words)
        return self._phases[key]

    def _probe_dims(self, query: GroupByQuery) -> int:
        """Dimensions whose hash table each tuple probes (mirrors
        :class:`QueryPipeline`)."""
        filtered = {pred.dim_index for pred in query.predicates}
        all_levels = self.schema.all_levels()
        return len([
            d for d, target in enumerate(query.groupby.levels)
            if target != all_levels[d] or d in filtered
        ])

    def _term(self, entry: TableEntry, query: GroupByQuery) -> MemberTerm:
        """The memoized term of ``query`` on ``entry``; a miss prices the
        pair as a batch of one (:meth:`terms_for`)."""
        term = self._terms.get((entry.name, query.qid))
        if term is None:
            self.terms_for([query], [entry])
            term = self._terms[entry.name, query.qid]
        return term

    def terms_for(
        self,
        queries: Sequence[GroupByQuery],
        entries: Optional[Sequence[TableEntry]] = None,
    ) -> None:
        """Price every (entry, query) pair not yet memoized — every catalog
        entry unless ``entries`` is given — in one pass over the batch
        (:func:`~.terms.price_terms`)."""
        entries = self.catalog.entries() if entries is None else list(entries)
        if self._terms:
            names = [e.name for e in entries]
            queries = [
                q for q in queries
                if any((name, q.qid) not in self._terms for name in names)
            ]
        if not queries:
            return
        for entry, query, term in price_terms(self, queries, entries):
            self._terms.setdefault((entry.name, query.qid), term)

    # -- class state -------------------------------------------------------------

    def _missing(
        self, held: Collection, keys: Iterable[tuple], entries: int, pages: int
    ):
        """What ``held`` gains by building the keys it lacks (the keys, and
        the dimensions they are the first on), and the totals grown:
        :func:`build_counts`' hash entries, and the pages of each stored
        dimension table they are the first keys on (``new_builds``)."""
        new, added, first = new_builds(self.schema, held, keys)
        for dim_index in first:
            pages += self._dim_pages[dim_index]
        return new + first, entries + added, pages

    def _joined(self, state: ClassState, term: MemberTerm) -> Tuple[list, tuple]:
        """``state`` with ``term`` as its next member, the state untouched:
        what its structures gain, and its ``totals`` then."""
        entries, pages, index = state.totals
        new, entries, pages = self._missing(
            state.structures, term.build_keys, entries, pages
        )
        return new, (entries, pages, _prefix(index, term))

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

    def _probe(self, entry: TableEntry, index: tuple) -> Tuple[float, float]:
        """The union-bitmap probe of a class whose members are all index
        joins (Section 3.2), from its index prefix ``index``: the pages it
        is expected to read, and the rows it fetches and routes."""
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
        return pages, union_rows

    def _index_cost(
        self, entry: TableEntry, terms: Sequence[MemberTerm], totals: tuple
    ) -> float:
        """Cost of the class as all index joins: the union probe, the
        structure builds and the OR of the members' bitmaps, then per
        member its index plan and its routing."""
        entries, dim_pages, index = totals
        pages, rows = self._probe(entry, index)
        words = (entry.n_rows + WORD_BITS - 1) // WORD_BITS
        total = shared_ms(
            self.rates, pages, False, entries, dim_pages, len(terms), words
        )
        routing = routing_ms(self.rates, len(terms), rows)
        for term in terms:
            total += term.index_ms
            total += routing
        return total

    def _best(
        self, entry: TableEntry, terms: Sequence[MemberTerm], totals: tuple
    ) -> Tuple[float, bool]:
        """The cheaper configuration of a class (scan on ties): its cost,
        and whether it is all index joins (given a prefix) rather than each
        member on its cheaper scan-side method."""
        cost = shared_ms(self.rates, entry.n_pages, True, *totals[:2])
        for term in terms:
            cost += term.scan_ms
        if totals[2] is not None:
            index_cost = self._index_cost(entry, terms, totals)
            if index_cost < cost:
                return index_cost, True
        return cost, False

    def _costing(
        self, entry: TableEntry, terms: Sequence[MemberTerm], totals: tuple
    ) -> ClassCosting:
        """:meth:`_best`, with the members' join methods listed."""
        cost, all_index = self._best(entry, terms, totals)
        methods = [JoinMethod.INDEX if all_index else t.scan_method for t in terms]
        return ClassCosting(entry.name, cost, methods)

    def trial(self, state: ClassState, query: GroupByQuery) -> Optional[float]:
        """``plan_class(state.entry, members + [query]).cost_ms`` read off
        the members' ``state`` and the query's term, in floats: one term
        look-up, rejected (None) before anything is summed when the entry
        cannot answer the query or some member.  Counts as one class
        costing."""
        self.n_plan_costings += 1
        term = self._term(state.entry, query)
        if state.totals is None or not term.answerable:
            return None
        totals = self._joined(state, term)[1]
        # The term joins the members for the costing only, not as a copy.
        state.terms.append(term)
        try:
            return self._best(state.entry, state.terms, totals)[0]
        finally:
            state.terms.pop()

    def plan_class(
        self,
        entry: TableEntry,
        queries: Sequence[GroupByQuery],
        derives: Sequence[DeriveStep] = (),
        row_safety: float = 1.0,
    ) -> Optional[ClassCosting]:
        """Best costing of ``queries`` as one class on ``entry``; None if
        some query is not answerable from it.  The state grown over the
        queries, costed as a trial costs it.  Counts as one class costing.

        With ``derives``, the class is a DAG class (see :mod:`repro.dag`):
        one shared scan of ``entry`` feeds the ``queries`` *and* each step's
        intermediate sub-aggregate; the step's derived queries then
        re-aggregate the in-memory intermediate — pure CPU over its (far
        fewer) group rows, no extra I/O.  ``methods`` in the returned
        costing then aligns with ``queries`` followed by every step's
        derived queries in order, and None also means an intermediate or
        a derived query is not answerable.  ``row_safety`` inflates the
        intermediates' estimated group counts (the greedy search's guard
        against Cardenas underestimates; the final plan is costed with
        1.0).
        """
        if not queries and not derives:
            raise ValueError("a class needs at least one query")
        self.n_plan_costings += 1
        state = reduce(self.extend, queries, ClassState(entry))
        if state.totals is None:
            return None
        if not derives:
            return self._costing(entry, state.terms, state.totals)
        derived = self._derived(state, derives, row_safety)
        if derived is None:
            return None
        totals, pipelines = derived
        costing = self._costing(entry, state.terms, totals)
        for args in pipelines:
            costing.cost_ms += pipeline_ms(self.rates, *args)
        for step in derives:
            costing.methods += [JoinMethod.DERIVE] * len(step.queries)
        return costing

    def _given(self, entry: TableEntry, plans: Sequence[LocalPlan]) -> ClassState:
        """The state of a class whose members' join methods are fixed;
        raises ``ValueError`` when ``entry`` cannot answer a member or a
        member has no index plan for its non-hash method."""
        state = ClassState(entry)
        for plan in plans:
            query = plan.query
            if self.extend(state, query).totals is None:
                raise ValueError(
                    f"{entry.name!r} cannot answer {query.display_name()}"
                )
            if plan.method is not JoinMethod.HASH and not state.terms[-1].indexable:
                raise ValueError(
                    f"no index plan for {query.display_name()} on "
                    f"{entry.name!r}"
                )
        return state

    def _planned(self, plan_class: PlanClass) -> tuple:
        """A planned class's entry, its scan members (every plan but the
        derived ones), their state (:meth:`_given`), the class's build
        totals and its derived pipelines (:meth:`_derived`)."""
        entry = self.catalog.get(plan_class.source)
        scan = [p for p in plan_class.plans if p.method is not JoinMethod.DERIVE]
        state = self._given(entry, scan)
        if not plan_class.derives:
            return entry, scan, state, state.totals, []
        derived = self._derived(state, plan_class.derives)
        if derived is None:
            raise ValueError(f"{entry.name!r} cannot answer a derive step")
        return (entry, scan, state, *derived)

    def class_cost(self, plan_class: PlanClass) -> float:
        """Cost of a class as planned: its members on their join methods,
        arranged as :attr:`PlanClass.probes` says (used to cost TPLO's
        merged plans, which keep local choices).  Raises ``ValueError``
        when its source cannot answer a member or a member has no index
        plan for its non-hash method."""
        entry, scan, state, totals, pipelines = self._planned(plan_class)
        if plan_class.probes:
            return self._index_cost(entry, state.terms, totals)
        # The scan configuration: hash plans consume the scan; index plans
        # filter it (Section 3.3); derived members re-aggregate their step's
        # intermediate.
        marginals = [
            term.hash_ms if plan.method is JoinMethod.HASH else term.filtered_ms
            for term, plan in zip(state.terms, scan)
        ]
        shared = shared_ms(self.rates, entry.n_pages, True, *totals[:2])
        cost = left_sum(marginals, shared)
        return left_sum((pipeline_ms(self.rates, *args) for args in pipelines), cost)

    def class_units(self, plan_class: PlanClass) -> Counts:
        """The counts a planned class is expected to charge, stated from
        the scalars its cost is priced from and added in the order its cost
        is (shared part, then members in plan order, then a ``dag`` class's
        derived pipelines): priced, they give its ``est_cost_ms`` up to
        float rounding."""
        entry, scan, state, totals, derived = self._planned(plan_class)
        builds = build_counts(*totals[:2])
        units = [term_units(self, entry, p.query, t) for p, t in zip(scan, state.terms)]
        derived = [pipeline_counts(*args) for args in derived]
        if plan_class.probes:
            pages, rows = self._probe(entry, totals[2])
            words = (entry.n_rows + WORD_BITS - 1) // WORD_BITS
            shared = read_counts(pages, False) + builds + merge_counts(len(units), words)
            routing = routing_counts(len(units), rows)
            addends = [c for _, index_units in units for c in (index_units, routing)]
        else:
            shared = read_counts(entry.n_pages) + builds
            addends = [
                hash_units if plan.method is JoinMethod.HASH
                else index_units + filter_counts(entry.n_rows)
                for (hash_units, index_units), plan in zip(units, scan)
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

    def _derived(
        self,
        state: ClassState,
        derive_steps: Sequence[DeriveStep],
        row_safety: float = 1.0,
    ) -> Optional[Tuple[tuple, List[tuple]]]:
        """A DAG class's build totals — its scan members' ``state`` plus the
        steps' structures, no index prefix: a DAG class runs the scan
        configuration — and, per step, :func:`pipeline_counts`' arguments
        for its intermediate's pipeline, then for each derived query's;
        None when an intermediate or a derived query is not answerable."""
        entry = state.entry
        n = entry.n_rows
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
        pipelines: List[tuple] = []
        for step in derive_steps:
            # The intermediate has no predicates: every fed tuple updates
            # its aggregator, exactly as QueryPipeline will charge.
            inter = step.intermediate
            pipelines.append((n, self._probe_dims(inter), 0, n))
            m = row_safety * self.intermediate_rows(entry, inter)
            for query in step.queries:
                k = m * self.query_selectivity(entry, query)
                pipelines.append((m, self._probe_dims(query), len(query.predicates), k))
        _new, entries, pages = self._missing(state.structures, keys, *state.totals[:2])
        return (entries, pages, None), pipelines

    # -- local-plan selection ------------------------------------------------------

    def standalone(
        self, entry: TableEntry, query: GroupByQuery
    ) -> Optional[Tuple[JoinMethod, float]]:
        """Best (method, cost) for the query alone on ``entry``, None when
        it cannot answer it: ``plan_class(entry, [query])``, priced from the
        pair's term and the builds its keys take alone.  Its first read
        counts as one class costing (memoized per model instance)."""
        key = (entry.name, query.qid)
        if key not in self._alone:
            term = self._term(entry, query)
            self.n_plan_costings += 1
            self._alone[key] = None
            if term.answerable:
                _new, entries, pages = self._missing((), term.build_keys, 0, 0)
                totals = (entries, pages, _prefix(NO_MEMBERS, term))
                cost, all_index = self._best(entry, [term], totals)
                method = JoinMethod.INDEX if all_index else term.scan_method
                self._alone[key] = (method, cost)
        return self._alone[key]

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
