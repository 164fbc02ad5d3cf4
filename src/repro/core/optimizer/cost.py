"""The Section 5.1 cost model.

For a query ``X`` computed from a base table ``B``:

* hash-based star join: ``C = Cost_CPU + ΔCost_IO`` — the scan of ``B`` is
  the class's shared I/O; the query's own cost is CPU (probe, filter, copy,
  aggregate).
* index-based star join: ``C = Cost_CPU + Cost_IO_index + ΔCost_IO`` — the
  index lookups are private; the base-table probe is shared through the
  union bitmap (or becomes free when another class member already scans
  ``B``, Section 3.3).

The model mirrors the charges the executor actually makes, unit for unit, so
estimated and simulated cost correlate (checked by an ablation benchmark).
Estimates assume uniformly distributed data — the standard optimizer
assumption — plus a page-locality correction for tables clustered on their
leading dimension.
"""

from __future__ import annotations

import math
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
from ...storage.iostats import CostRates
from .plans import DeriveStep, JoinMethod, left_sum

if TYPE_CHECKING:  # pragma: no cover
    from ...engine.database import Database


@dataclass
class ClassCosting:
    """The outcome of costing one class: total cost plus the per-query join
    methods the model picked (aligned with the query list passed in)."""

    source: str
    cost_ms: float
    methods: List[JoinMethod]


@dataclass(frozen=True, slots=True)
class MemberTerm:
    """What one query contributes to a class on one source, computed once
    per (entry, query) per :class:`CostModel`.  A class cost is *one shared
    term* (scan I/O or the union-bitmap probe, plus the structure builds)
    plus one addend per member read from here.

    **Float-order rule**: float addition is not associative, so a class
    total is accumulated in one fixed order — shared I/O, then builds, then
    one addend per member in query order (index configuration:
    ``index_ms``, the class's routing term, ``fed_ms``, per member).  A
    leave-one-out marginal is ``cost(class) − cost(class without the
    member)``, the second re-accumulated from the other members' terms
    (shared term re-evaluated, configuration re-chosen), never ``total −
    term``.  Structure builds are integer counts (hash entries, dimension
    table pages) priced once, so the build-key set's order reaches no sum.
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
    #: Index phase (lookup I/O + bitmap CPU), then pipeline CPU over the
    #: tuples the member's own bitmap — of density ``indexed_sel`` — feeds.
    index_ms: float = 0.0
    fed_ms: float = 0.0
    indexed_sel: float = 1.0
    #: Clustered candidate region (fraction of pages), contiguous runs, and
    #: the pages the member's probe would touch alone.
    region: float = 1.0
    runs: int = 1
    separate_pages: float = 0.0


#: The term of every pair the entry cannot answer (only the bit is read).
UNANSWERABLE = MemberTerm(
    answerable=False, selectivity=math.nan, build_keys=(), hash_ms=math.inf
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
    state.  Its per-(entry, query) :class:`MemberTerm` memo is never
    invalidated, so a model must not outlive a mutation — callers build a
    new one per optimize run, as ``Database.optimize``,
    ``QueryService._degrade_query`` and ``calibrate`` do.
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

    def find_index(
        self, entry: TableEntry, predicate: DimPredicate
    ) -> Optional[Tuple[object, int]]:
        """The index usable for ``predicate`` on ``entry`` and the number of
        member payloads a lookup retrieves, or None."""
        index = entry.covering_index(predicate.dim_index, predicate.level)
        if index is None:
            return None
        n_lookups = len(predicate.member_ids)
        if index.level != predicate.level:
            dim = self.schema.dimensions[predicate.dim_index]
            per_member = dim.n_members(index.level) / dim.n_members(
                predicate.level
            )
            n_lookups = int(math.ceil(n_lookups * per_member))
        return index, n_lookups

    def can_index(self, entry: TableEntry, query: GroupByQuery) -> bool:
        """True if an index-based plan for ``query`` on ``entry`` exists —
        i.e. ``entry`` can answer it and at least one predicate has a usable
        join index (the rest become residual filters)."""
        return self._term(entry, query).indexable

    # -- member terms ------------------------------------------------------------

    def _probe_dims(self, query: GroupByQuery) -> int:
        """Dimensions whose hash table each tuple probes (mirrors
        :class:`QueryPipeline`)."""
        count = 0
        for d, dim in enumerate(self.schema.dimensions):
            target = query.groupby.levels[d]
            if target != dim.all_level or query.predicate_on(d) is not None:
                count += 1
        return count

    def _bitmap_words(self, entry: TableEntry) -> int:
        return (entry.n_rows + WORD_BITS - 1) // WORD_BITS

    def _process_cpu_ms(
        self, query: GroupByQuery, n_fed: float, n_pass: float
    ) -> float:
        """CPU to feed ``n_fed`` tuples through the query's pipeline, of
        which ``n_pass`` survive the filters."""
        r = self.rates
        return (
            n_fed * self._probe_dims(query) * r.hash_probe_ms
            + n_fed * len(query.predicates) * r.predicate_eval_ms
            + n_pass * (r.tuple_copy_ms + r.agg_update_ms)
        )

    def _index_side(
        self, entry: TableEntry, query: GroupByQuery, facts: Dict, k: float
    ) -> Dict[str, object]:
        """The index-side fields of the query's term, ``k`` rows matching;
        ``{}`` when infeasible.  ``facts`` maps each predicate to its
        (selectivity, ``find_index`` result).  ``indexed_sel`` is the
        product over *indexed* predicates only; unindexed predicates do not
        narrow the bitmap (they run as residual filters downstream)."""
        r = self.rates
        n = entry.n_rows
        words = self._bitmap_words(entry)
        io_ms = 0.0
        cpu_ms = 0.0
        indexed_sel = 1.0
        n_indexed = 0
        for pred in query.predicates:
            sel, found = facts[pred]
            if found is None:
                continue
            index, n_lookups = found
            n_indexed += 1
            indexed_sel *= sel
            io_ms += index.pages_per_lookup(n_lookups) * r.seq_page_read_ms
            cpu_ms += n_lookups * r.index_lookup_ms
            cpu_ms += (n_lookups - 1) * words * r.bitmap_word_ms  # payload ORs
        if n_indexed == 0:
            return {}
        cpu_ms += (n_indexed - 1) * words * r.bitmap_word_ms  # predicate ANDs
        index_ms = io_ms + cpu_ms
        fed_ms = self._process_cpu_ms(query, n_fed=n * indexed_sel, n_pass=k)
        region, runs = self._region_and_runs(entry, query, facts)
        return dict(
            indexable=True,
            filtered_ms=index_ms + n * r.bitmap_test_ms + fed_ms,
            index_ms=index_ms,
            fed_ms=fed_ms,
            indexed_sel=indexed_sel,
            region=region,
            runs=runs,
            separate_pages=expected_distinct(
                max(1.0, entry.n_pages * region), n * indexed_sel
            )
            + max(0, runs - 1),
        )

    def _region_and_runs(
        self, entry: TableEntry, query: GroupByQuery, facts: Dict
    ) -> Tuple[float, int]:
        """Page locality of an index probe on a *clustered* table.

        Materialized group-bys are sorted by dimension-key order, so rows
        matching indexed predicates on a *prefix* of the dimension order
        cluster: each prefix predicate multiplies the candidate region down
        by its selectivity, but also splits the selection into one
        contiguous run per selected key combination, each potentially
        touching a partial boundary page.  Returns ``(region fraction,
        number of runs)``; the walk stops at the first dimension without an
        indexed predicate — deeper selections scatter across that
        dimension's runs and no longer shrink the region.
        """
        fraction = 1.0
        runs = 1
        for d, dim in enumerate(self.schema.dimensions):
            pred = query.predicate_on(d)
            if pred is None or facts[pred][1] is None:
                break
            fraction *= facts[pred][0]
            # Selected key count at the table's stored level: each predicate
            # member fans out to its descendants there.
            per_member = dim.n_members(entry.levels[d]) / dim.n_members(
                pred.level
            )
            runs *= max(1, round(len(pred.member_ids) * per_member))
        return fraction, runs

    def _term(self, entry: TableEntry, query: GroupByQuery) -> MemberTerm:
        """The memoized term of ``query`` on ``entry`` — the one place a
        member's hash and filtered-index marginals are computed.  A pair
        the entry cannot answer costs nothing: it gets the shared
        :data:`UNANSWERABLE` constant (Roy et al.'s sharability pre-filter)."""
        key = (entry.name, query.qid)
        term = self._terms.get(key)
        if term is None:
            if not source_can_answer(entry.levels, entry.source_aggregate, query):
                self._terms[key] = UNANSWERABLE
                return UNANSWERABLE
            facts = {
                pred: (
                    self.predicate_selectivity(entry, pred),
                    self.find_index(entry, pred),
                )
                for pred in query.predicates
            }
            selectivity = math.prod(
                (facts[pred][0] for pred in query.predicates), start=1.0
            )
            k = entry.n_rows * selectivity
            hash_ms = self._process_cpu_ms(query, entry.n_rows, k)
            side = self._index_side(entry, query, facts, k)
            hash_wins = hash_ms <= side.get("filtered_ms", math.inf)
            term = self._terms[key] = MemberTerm(
                answerable=True,
                selectivity=selectivity,
                build_keys=build_keys(self.schema, entry.levels, query),
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
            entries += self.schema.dimensions[key[0]].n_members(key[1])
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

    def _builds_ms(self, entries: int, pages: int) -> float:
        """Shared structure builds — hash entries plus, when dimension tables
        are stored, a table scan each — priced from integer totals."""
        return entries * self.rates.hash_build_ms + pages * self.rates.seq_page_read_ms

    def _scan_cost(
        self, entry: TableEntry, builds_ms: float, marginals: Iterable[float]
    ) -> float:
        """Cost of the class when the base table is sequentially scanned:
        hash plans consume the scan; index plans filter it (Section 3.3).
        ``marginals`` holds each member's addend under its method."""
        scan_io = entry.n_pages * self.rates.seq_page_read_ms
        return left_sum(marginals, scan_io + builds_ms)

    def _index_cost(
        self, entry: TableEntry, terms: Sequence[MemberTerm], builds_ms: float,
        index: tuple,
    ) -> float:
        """Cost of the class when all members are index joins sharing one
        union-bitmap probe (Section 3.2); ``index`` is their prefix."""
        r = self.rates
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
        total = pages * r.rand_page_read_ms + builds_ms
        if len(terms) > 1:  # union OR
            total += (
                (len(terms) - 1) * self._bitmap_words(entry) * r.bitmap_word_ms
            )
        # Routing depends on union_rows: re-summed, never prefix-reused.
        routing_ms = union_rows * r.bitmap_test_ms
        for term in terms:
            total += term.index_ms
            total += routing_ms
            total += term.fed_ms
        return total

    def _best(
        self, entry: TableEntry, terms: Sequence[MemberTerm], totals: tuple
    ) -> ClassCosting:
        """The cheaper configuration of a class (scan on ties): each member
        on its cheaper scan-side method, or (given a prefix) all index joins."""
        entries, pages, index = totals
        builds_ms = self._builds_ms(entries, pages)
        cost = self._scan_cost(entry, builds_ms, [t.scan_ms for t in terms])
        if index is not None:
            index_cost = self._index_cost(entry, terms, builds_ms, index)
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

    def class_cost_given(
        self, entry: TableEntry, queries: Sequence[GroupByQuery],
        methods: Sequence[JoinMethod],
    ) -> float:
        """Cost of a class whose per-query join methods are already fixed
        (used to cost TPLO's merged plans, which keep local choices).
        Raises ``ValueError`` when ``entry`` cannot answer a query or a
        query has no index plan for its non-hash method.

        **Linearity contract**: for fixed methods, the returned cost is an
        exact linear function of the :class:`CostRates` fields — every
        term is ``predicted_units * rate`` with the unit counts depending
        only on the catalog, statistics, and query shapes.  The
        calibration fitter (:mod:`repro.calibrate`) relies on this to
        extract per-unit predictions by re-costing classes against unit
        basis rates; a costing path that breaks linearity (e.g. a rate
        inside a ``max``/branch condition) would silently corrupt the fit,
        so :func:`repro.calibrate.observations.estimated_units` re-checks
        the decomposition per class.
        """
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
        entries, pages, index = state.totals
        builds_ms = self._builds_ms(entries, pages)
        if all(m is JoinMethod.INDEX for m in methods):
            return self._index_cost(entry, state.terms, builds_ms, index)
        marginals = [
            term.hash_ms if method is JoinMethod.HASH else term.filtered_ms
            for term, method in zip(state.terms, methods)
        ]
        return self._scan_cost(entry, builds_ms, marginals)

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
        _new, entries, pages = self._missing(state.structures, keys, *state.totals[:2])
        # No index prefix: a DAG class runs the scan configuration.
        costing = self._best(entry, state.terms, (entries, pages, None))
        for step in derive_steps:
            # The intermediate has no predicates: every fed tuple updates
            # its aggregator, exactly as QueryPipeline will charge.
            costing.cost_ms += self._process_cpu_ms(
                step.intermediate, n_fed=n, n_pass=n
            )
            m = row_safety * self.intermediate_rows(entry, step.intermediate)
            for query in step.queries:
                k = m * self.query_selectivity(entry, query)
                costing.cost_ms += self._process_cpu_ms(
                    query, n_fed=m, n_pass=k
                )
                costing.methods.append(JoinMethod.DERIVE)
        return costing

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
