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
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from ...index.bitmap import WORD_BITS
from ...schema.lattice import (
    estimate_groupby_rows,
    expected_distinct,
    source_can_answer,
)
from ...schema.query import DimPredicate, GroupByQuery
from ...schema.star import StarSchema
from ...storage.catalog import Catalog, TableEntry
from ...storage.iostats import CostRates
from .plans import JoinMethod

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
    term``.  ``map_keys`` / ``mask_keys`` are in dimension order and enter
    the class's build sets in (query, dimension) order, maps and masks
    separately: the sets' iteration order feeds a float sum when dimension
    tables are stored.
    """

    answerable: bool
    #: Product of the predicate selectivities (matching rows = N × this).
    selectivity: float
    #: Rollup maps ``(dim, target level)`` and predicate masks ``(dim,
    #: level, members)`` the member's pipeline needs built.
    map_keys: Tuple[Tuple[int, int], ...]
    mask_keys: Tuple[Tuple[int, int, frozenset], ...]
    #: Marginal on a shared scan as a hash plan, and as an index plan
    #: filtering the scan (inf unless ``indexable``: some predicate has a
    #: usable index, which every field below presumes).
    hash_ms: float
    filtered_ms: float = math.inf
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
        # Per dimension, the I/O to scan its stored table for one structure
        # build (zero when dimensions live in metadata only).
        self._dim_scan_ms = [
            self.dim_tables[dim.name].n_pages * rates.seq_page_read_ms
            if dim.name in self.dim_tables
            else 0.0
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
        """Product of the query's predicate selectivities on this source."""
        return self._term(entry, query).selectivity

    # -- feasibility ------------------------------------------------------------

    def find_index(
        self, entry: TableEntry, predicate: DimPredicate
    ) -> Optional[Tuple[object, int]]:
        """The index usable for ``predicate`` on ``entry`` and the number of
        member payloads a lookup retrieves, or None."""
        dim = self.schema.dimensions[predicate.dim_index]
        stored = entry.levels[predicate.dim_index]
        for level in range(predicate.level, stored - 1, -1):
            index = entry.index_for(predicate.dim_index, level)
            if index is not None:
                if level == predicate.level:
                    n_lookups = len(predicate.member_ids)
                else:
                    per_member = dim.n_members(level) / dim.n_members(
                        predicate.level
                    )
                    n_lookups = int(
                        math.ceil(len(predicate.member_ids) * per_member)
                    )
                return index, n_lookups
        return None

    def can_index(self, entry: TableEntry, query: GroupByQuery) -> bool:
        """True if an index-based plan for ``query`` on ``entry`` exists —
        i.e. at least one predicate has a usable join index (the rest become
        residual filters)."""
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

    def _build_keys(
        self, levels: Sequence[int], query: GroupByQuery
    ) -> Tuple[tuple, tuple]:
        """The dimension structures ``query`` needs over a source stored at
        ``levels``, in dimension order: one rollup map per (dimension,
        target level) and one mask per distinct predicate."""
        maps, masks = [], []
        for d, dim in enumerate(self.schema.dimensions):
            target = query.groupby.levels[d]
            if target not in (levels[d], dim.all_level):
                maps.append((d, target))
            pred = query.predicate_on(d)
            if pred is not None:
                masks.append((d, pred.level, pred.member_ids))
        return tuple(maps), tuple(masks)

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
        member's hash and filtered-index marginals are computed."""
        key = (entry.name, query.qid)
        term = self._terms.get(key)
        if term is None:
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
            map_keys, mask_keys = self._build_keys(entry.levels, query)
            term = self._terms[key] = MemberTerm(
                answerable=source_can_answer(
                    entry.levels, entry.source_aggregate, query
                ),
                selectivity=selectivity,
                map_keys=map_keys,
                mask_keys=mask_keys,
                hash_ms=self._process_cpu_ms(query, entry.n_rows, k),
                **self._index_side(entry, query, facts, k),
            )
        return term

    # -- shared terms ------------------------------------------------------------

    def _structures_ms(self, structures: Iterable[Tuple[int, int]]) -> float:
        """Build cost of distinct dimension structures, each given as
        (dimension, level it is built from): hash entries plus, when
        dimension tables are stored, one scan of the table per structure."""
        entries = 0.0
        scan_ms = 0.0
        for d, level in structures:
            entries += self.schema.dimensions[d].n_members(level)
            scan_ms += self._dim_scan_ms[d]
        return entries * self.rates.hash_build_ms + scan_ms

    def _builds_cpu_ms(
        self, entry: TableEntry, terms: Sequence[MemberTerm]
    ) -> float:
        """Shared dimension-hash-table build cost of a class: the union of
        its members' rollup maps and predicate masks."""
        maps = set(chain.from_iterable(term.map_keys for term in terms))
        masks = set(chain.from_iterable(term.mask_keys for term in terms))
        return self._structures_ms(
            (key[0], entry.levels[key[0]]) for key in chain(maps, masks)
        )

    def _probe_pages(
        self, entry: TableEntry, terms: Sequence[MemberTerm], k_union: float
    ) -> float:
        """Expected distinct pages a union-bitmap probe fetching ``k_union``
        rows touches: Cardenas over the clustered candidate region, plus
        one boundary page per additional contiguous run."""
        p = entry.n_pages
        if not entry.clustered:
            return expected_distinct(float(p), k_union)
        region_union = 1.0
        total_runs = 0
        # A union probe can never touch more pages than the queries would
        # touch separately.
        separate_total = 0.0
        for term in terms:
            region_union *= 1.0 - term.region
            total_runs += term.runs
            separate_total += term.separate_pages
        region = max(1.0, p * (1.0 - region_union))
        pages = expected_distinct(region, k_union) + max(0, total_runs - 1)
        return min(float(p), pages, separate_total)

    # -- class costing -----------------------------------------------------------

    def _scan_class(
        self,
        entry: TableEntry,
        terms: Sequence[MemberTerm],
        builds_ms: float,
        methods: Optional[Sequence[JoinMethod]] = None,
    ) -> ClassCosting:
        """Cost of the class when the base table is sequentially scanned:
        hash plans consume the scan; index plans filter it (Section 3.3).
        Each member takes its cheaper marginal unless ``methods`` fixes
        them."""
        if methods is None:
            methods = [
                JoinMethod.HASH
                if term.hash_ms <= term.filtered_ms
                else JoinMethod.INDEX
                for term in terms
            ]
        scan_io = entry.n_pages * self.rates.seq_page_read_ms
        total = scan_io + builds_ms
        for term, method in zip(terms, methods):
            total += (
                term.hash_ms if method is JoinMethod.HASH else term.filtered_ms
            )
        return ClassCosting(entry.name, total, list(methods))

    def _index_class(
        self, entry: TableEntry, terms: Sequence[MemberTerm], builds_ms: float
    ) -> Optional[ClassCosting]:
        """Cost of the class when all members are index joins sharing one
        union-bitmap probe (Section 3.2), or None if infeasible."""
        if not all(term.indexable for term in terms):
            return None
        r = self.rates
        union_rows = entry.n_rows * (
            1.0 - math.prod(1.0 - term.indexed_sel for term in terms)
        )
        probe_pages = self._probe_pages(entry, terms, union_rows)
        probe_io = probe_pages * r.rand_page_read_ms
        total = probe_io + builds_ms
        if len(terms) > 1:  # union OR
            total += (
                (len(terms) - 1) * self._bitmap_words(entry) * r.bitmap_word_ms
            )
        routing_ms = union_rows * r.bitmap_test_ms
        for term in terms:
            total += term.index_ms
            total += routing_ms
            total += term.fed_ms
        return ClassCosting(entry.name, total, [JoinMethod.INDEX] * len(terms))

    def plan_class(
        self, entry: TableEntry, queries: Sequence[GroupByQuery]
    ) -> Optional[ClassCosting]:
        """Best costing of ``queries`` as one class on ``entry``; None if
        some query is not answerable from it."""
        if not queries:
            raise ValueError("a class needs at least one query")
        self.n_plan_costings += 1
        terms = [self._term(entry, query) for query in queries]
        if not all(term.answerable for term in terms):
            return None
        builds_ms = self._builds_cpu_ms(entry, terms)
        best = self._scan_class(entry, terms, builds_ms)
        all_index = self._index_class(entry, terms, builds_ms)
        if all_index is not None and all_index.cost_ms < best.cost_ms:
            best = all_index
        return best

    def class_cost_given(
        self,
        entry: TableEntry,
        queries: Sequence[GroupByQuery],
        methods: Sequence[JoinMethod],
    ) -> float:
        """Cost of a class whose per-query join methods are already fixed
        (used to cost TPLO's merged plans, which keep local choices).

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
        terms = [self._term(entry, query) for query in queries]
        for query, term, method in zip(queries, terms, methods):
            if method is not JoinMethod.HASH and not term.indexable:
                raise ValueError(
                    f"no index plan for {query.display_name()} on "
                    f"{entry.name!r}"
                )
        builds_ms = self._builds_cpu_ms(entry, terms)
        if all(m is JoinMethod.INDEX for m in methods):
            return self._index_class(entry, terms, builds_ms).cost_ms
        return self._scan_class(entry, terms, builds_ms, methods).cost_ms

    # -- DAG class costing (derive-from-shared-sub-aggregate) --------------------

    def _dag_builds_cpu_ms(
        self,
        entry: TableEntry,
        scan_terms: Sequence[MemberTerm],
        derive_steps: Sequence[Tuple[GroupByQuery, Sequence[GroupByQuery]]],
    ) -> float:
        """Shared structure-build cost of a DAG class, mirroring the
        RollupCache keys the executor uses: one rollup map per (dimension,
        from level, to level) and one mask per distinct (dimension, from
        level, predicate).  Derived queries read the intermediate, so their
        structures key off — and are sized by — the intermediate's levels,
        not the base table's."""
        maps: set = set()
        masks: set = set()

        def collect(keys: Tuple[tuple, tuple], from_levels: Sequence[int]):
            for d, target in keys[0]:
                maps.add((d, from_levels[d], target))
            for d, level, members in keys[1]:
                masks.add((d, from_levels[d], level, members))

        for term in scan_terms:
            collect((term.map_keys, term.mask_keys), entry.levels)
        for intermediate, derived in derive_steps:
            collect(self._build_keys(entry.levels, intermediate), entry.levels)
            from_levels = intermediate.groupby.levels
            for query in derived:
                collect(self._build_keys(from_levels, query), from_levels)
        return self._structures_ms(key[:2] for key in chain(maps, masks))

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
        derive_steps: Sequence[Tuple[GroupByQuery, Sequence[GroupByQuery]]],
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
        terms = [self._term(entry, query) for query in scan_queries]
        if not all(term.answerable for term in terms):
            return None
        for intermediate, derived in derive_steps:
            if intermediate.predicates or not source_can_answer(
                entry.levels, entry.source_aggregate, intermediate
            ):
                return None
            inter_agg = entry.source_aggregate or intermediate.aggregate.value
            for query in derived:
                if not source_can_answer(
                    intermediate.groupby.levels, inter_agg, query
                ):
                    return None
        costing = self._scan_class(
            entry, terms, self._dag_builds_cpu_ms(entry, terms, derive_steps)
        )
        for intermediate, derived in derive_steps:
            # The intermediate has no predicates: every fed tuple updates
            # its aggregator, exactly as QueryPipeline will charge.
            costing.cost_ms += self._process_cpu_ms(
                intermediate, n_fed=n, n_pass=n
            )
            m = row_safety * self.intermediate_rows(entry, intermediate)
            for query in derived:
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
