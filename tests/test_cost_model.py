"""Unit tests for the Section 5.1 cost model."""

import dataclasses
import itertools
import math
import random
import re
from functools import reduce
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.calibrate.observations import RATE_FIELDS, basis_models, estimated_units
from repro.core.operators.pipeline import QueryPipeline, RollupCache
from repro.core.optimizer import GreedyOptimizer
from repro.core.optimizer.cost import ClassState, CostModel, left_sum
from repro.core.optimizer.greedy import GrownClass
from repro.core.optimizer.plans import DeriveStep, JoinMethod
from repro.index.bitmap import WORD_BITS
from repro.schema.lattice import build_keys, expected_distinct
from repro.schema.query import DimPredicate, GroupBy, GroupByQuery, query_sort_key
from repro.storage.iostats import IOStats
from repro.workload import PaperConfig, build_paper_database, paper_queries
from repro.workload.paper_queries import ALL_PAPER_TESTS

from helpers import make_tiny_db, random_query


@pytest.fixture(scope="module")
def db():
    return make_tiny_db(
        n_rows=800,
        materialized=("X'Y", "X'Y'"),
        index_tables=("XY",),
    )


@pytest.fixture(scope="module")
def model(db):
    return CostModel(db.schema, db.catalog, db.stats.rates)


def hash_query(levels=(1, 1), preds=()):
    return GroupByQuery(groupby=GroupBy(levels), predicates=tuple(preds))


def selective_query():
    # One leaf member on each dimension: selectivity 1/96 on the base table,
    # firmly in index-join territory.
    return GroupByQuery(
        groupby=GroupBy((1, 2)),
        predicates=(
            DimPredicate(0, 0, frozenset({3})),
            DimPredicate(1, 0, frozenset({2})),
        ),
    )


class TestFeasibility:
    def test_can_index_needs_an_indexed_predicate(self, db, model):
        base = db.catalog.get("XY")
        view = db.catalog.get("X'Y")
        assert model.can_index(base, selective_query())
        assert not model.can_index(view, selective_query())  # no indexes
        assert not model.can_index(base, hash_query())  # no predicates

    def test_find_index_translates_coarse_predicates(self, db, model):
        base = db.catalog.get("XY")
        pred = DimPredicate(0, 2, frozenset({0}))  # top level, index at leaf
        found = model.find_index(base, pred)
        assert found is not None
        index, n_lookups = found
        assert index.level == 0
        assert n_lookups == 6  # 6 leaves per top member of X

    def test_plan_class_none_when_unanswerable(self, db, model):
        view = db.catalog.get("X'Y'")
        leaf_query = hash_query((0, 0))
        assert model.plan_class(view, [leaf_query]) is None


class TestStandaloneCosts:
    def test_positive(self, db, model):
        for entry in db.catalog.entries():
            result = model.standalone(entry, hash_query((1, 1)))
            if result is not None:
                assert result[1] > 0

    def test_hash_cost_grows_with_table_size(self, db, model):
        query = hash_query((2, 2))
        base_cost = model.standalone(db.catalog.get("XY"), query)[1]
        view_cost = model.standalone(db.catalog.get("X'Y'"), query)[1]
        assert view_cost < base_cost

    def test_best_local_prefers_small_table(self, db, model):
        # X'Y' is the smallest table able to answer the (X', Y') group-by.
        entry, _method, _cost = model.best_local(hash_query((1, 1)))
        assert entry.name == "X'Y'"

    def test_best_local_respects_answerability(self, db, model):
        entry, _method, _cost = model.best_local(hash_query((0, 0)))
        assert entry.name == "XY"

    def test_selective_query_prefers_index(self, db, model):
        method, _cost = model.standalone(db.catalog.get("XY"), selective_query())
        assert method is JoinMethod.INDEX

    def test_unselective_query_prefers_hash(self, db, model):
        method, _cost = model.standalone(db.catalog.get("XY"), hash_query((1, 1)))
        assert method is JoinMethod.HASH


class TestClassCosts:
    def test_sharing_beats_separate_hash_scans(self, db, model):
        entry = db.catalog.get("XY")
        queries = [hash_query((1, 1)), hash_query((2, 1)), hash_query((1, 2))]
        shared = model.plan_class(entry, queries).cost_ms
        separate = sum(model.plan_class(entry, [q]).cost_ms for q in queries)
        assert shared < separate

    def test_marginal_cost_below_standalone_for_hash(self, db, model):
        entry = db.catalog.get("XY")
        q1, q2 = hash_query((1, 1)), hash_query((2, 2))
        grown = model.plan_class(entry, [q1, q2]).cost_ms
        alone = model.plan_class(entry, [q1]).cost_ms
        standalone_q2 = model.plan_class(entry, [q2]).cost_ms
        assert grown - alone < standalone_q2

    def test_class_cost_given_matches_plan_class_when_methods_agree(
        self, db, model
    ):
        entry = db.catalog.get("XY")
        queries = [hash_query((1, 1)), hash_query((2, 1))]
        costing = model.plan_class(entry, queries)
        fixed = model.class_cost_given(entry, queries, costing.methods)
        assert fixed == pytest.approx(costing.cost_ms)

    def test_class_cost_given_validates_arity(self, db, model):
        entry = db.catalog.get("XY")
        with pytest.raises(ValueError):
            model.class_cost_given(entry, [hash_query()], [])

    def test_class_cost_given_rejects_impossible_index(self, db, model):
        entry = db.catalog.get("X'Y")  # no indexes
        with pytest.raises(ValueError):
            model.class_cost_given(
                entry, [selective_query()], [JoinMethod.INDEX]
            )

    def test_class_cost_given_rejects_unanswerable(self):
        """A class that cannot run has no price: ``class_cost_given`` used
        to return 183.65 ms for paper Query 6 as a hash plan on A'B'C''D,
        which ``plan_class`` says cannot answer it."""
        paper = build_paper_database(config=PaperConfig(scale=0.002, seed=1))
        query = paper_queries(paper.schema)[6]
        entry = paper.catalog.get("A'B'C''D")
        fresh = CostModel.for_database(paper)
        assert fresh.plan_class(entry, [query]) is None
        with pytest.raises(ValueError) as raised:
            fresh.class_cost_given(entry, [query], [JoinMethod.HASH])
        assert "A'B'C''D" in str(raised.value)
        assert query.display_name() in str(raised.value)
        # Nothing was costed on the way to the error.
        assert fresh.n_plan_costings == 1
        assert not fresh.can_index(entry, query)
        base = paper.catalog.get("ABCD")
        assert fresh.query_selectivity(entry, query) == pytest.approx(
            fresh.query_selectivity(base, query)
        )
        assert 0.0 < fresh.query_selectivity(entry, query) < 1.0

    def test_plan_class_picks_cheaper_configuration(self, db, model):
        """``plan_class`` is the cheaper of the scan configuration (each
        member on its cheaper scan-side method) and the all-index one."""
        entry = db.catalog.get("XY")
        for queries in (
            [selective_query()],
            [selective_query(), selective_query()],
            [selective_query(), hash_query((1, 1))],
        ):
            costing = model.plan_class(entry, queries)
            configurations = [
                model.class_cost_given(entry, queries, list(methods))
                for methods in itertools.product(
                    (JoinMethod.HASH, JoinMethod.INDEX), repeat=len(queries)
                )
                if all(
                    method is JoinMethod.HASH or model.can_index(entry, query)
                    for query, method in zip(queries, methods)
                )
            ]
            assert costing.cost_ms == min(configurations)
            assert costing.cost_ms == model.class_cost_given(
                entry, queries, costing.methods
            )

    def test_empty_class_rejected(self, db, model):
        with pytest.raises(ValueError):
            model.plan_class(db.catalog.get("XY"), [])


class TestEstimateVsSimulation:
    def test_hash_estimate_tracks_simulation(self, db, model):
        """The model's hash-class estimate should be within 2x of the
        simulated execution (same charge units)."""
        from repro.bench.harness import run_forced_class

        entry = db.catalog.get("XY")
        queries = [hash_query((1, 1)), hash_query((2, 2))]
        est = model.class_cost_given(
            entry, queries, [JoinMethod.HASH, JoinMethod.HASH]
        )
        run = run_forced_class(
            db, "XY", queries, [JoinMethod.HASH, JoinMethod.HASH]
        )
        assert est == pytest.approx(run.sim_ms, rel=1.0)

    def test_two_predicates_on_one_dimension(self, paper_db):
        """A month-level axis inside a year-level slicer: the pipeline
        builds, tests and probes per *predicate*, and so does the model —
        the unit vector equals the charged counters."""
        dim, *others = paper_db.schema.dimensions
        inner = sorted(dim.descendants(2, 0, 1))[:2]
        query = GroupByQuery(
            GroupBy((0, *(other.all_level for other in others))),
            (
                DimPredicate(0, 1, frozenset(inner)),
                DimPredicate(0, 2, frozenset({0})),
            ),
        )
        (execution,) = paper_db.run_queries([query], "gg").class_executions
        assert execution.plan_class.source == "ABCD"
        units = dict(
            zip(
                RATE_FIELDS,
                estimated_units(basis_models(paper_db), execution.plan_class),
            )
        )
        sim = execution.sim
        assert units["hash_build_ms"] == sim.hash_builds == 2 * dim.n_members(0)
        assert units["predicate_eval_ms"] == sim.predicate_evals
        assert units["hash_probe_ms"] == sim.hash_probes


class TestBuildKeys:
    """``schema.lattice.build_keys`` states once what a member needs built
    over its source; the executor's ``RollupCache`` is what it is held to."""

    def test_equals_what_the_rollup_cache_holds(self, paper_db):
        schema = paper_db.schema
        rng = random.Random(24)
        doubled = 0
        for _ in range(300):
            query = random_query(schema, rng)
            if query.predicates and rng.random() < 0.5:
                d = rng.choice(query.predicates).dim_index
                level = rng.randrange(schema.dimensions[d].n_levels)
                member = rng.randrange(schema.dimensions[d].n_members(level))
                extra = DimPredicate(d, level, frozenset({member}))
                query = dataclasses.replace(
                    query, predicates=query.predicates + (extra,)
                )
                doubled += 1
            levels = tuple(rng.randint(0, r) for r in query.required_levels())
            rollups = RollupCache(schema, IOStats())
            QueryPipeline(schema, query, levels, rollups)
            assert set(build_keys(schema, levels, query)) == set(
                rollups._target_maps
            ) | set(rollups._pred_masks)
        assert doubled > 50


def full_model(db):
    """A fresh model over everything the database would hand its own."""
    return CostModel(
        db.schema,
        db.catalog,
        db.stats.rates,
        statistics=db.table_statistics,
        dim_tables=db.dimension_tables,
    )


def all_costings(model, entry, queries):
    """Every class-costing entry point on one (entry, query list):
    ``plan_class``, ``class_cost_given`` under the picked, the all-hash and
    the all-index methods, and ``derive_class`` through each answerable
    coarsening of the first query's group-by."""
    out = [model.plan_class(entry, queries)]
    if out[0] is None:
        return out
    for methods in (
        out[0].methods,
        [JoinMethod.HASH] * len(queries),
        [JoinMethod.INDEX] * len(queries),
    ):
        try:
            out.append(model.class_cost_given(entry, queries, methods))
        except ValueError:
            out.append("infeasible")
    intermediate = GroupByQuery(
        groupby=GroupBy(
            tuple(
                min(q.required_levels()[d] for q in queries[1:] or queries)
                for d in range(model.schema.n_dims)
            )
        ),
        qid=-1,
    )
    step = DeriveStep(intermediate, tuple(queries[1:] or queries))
    out.append(model.derive_class(entry, queries[:1], [step], 1.5))
    return out


class TestMemoTransparency:
    """A warm model (terms memoized by earlier costings) and a fresh one
    return the same ``ClassCosting``, field for field and bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_warm_model_equals_fresh_model(self, paper_db, paper_qs, data):
        pool = sorted(
            {i for ids in ALL_PAPER_TESTS.values() for i in ids}
        )
        entries = paper_db.catalog.entries()
        subsets = st.lists(
            st.sampled_from(pool), min_size=1, max_size=len(pool), unique=True
        )
        warm = full_model(paper_db)
        for ids in data.draw(st.lists(subsets, max_size=4), label="prefix"):
            entry = data.draw(st.sampled_from(entries), label="prefix entry")
            all_costings(warm, entry, [paper_qs[i] for i in ids])
        queries = [paper_qs[i] for i in data.draw(subsets, label="class")]
        for entry in entries:
            assert all_costings(warm, entry, queries) == all_costings(
                full_model(paper_db), entry, queries
            ), entry.name

    def test_stored_dimension_tables(self):
        """With dimension tables stored, each structure build also scans
        its table: whatever was costed before, and in whatever order the
        build keys met, the (integer) page total prices the same."""
        db = make_tiny_db(
            n_rows=400, materialized=("X'Y",), index_tables=("XY", "X'Y")
        )
        tables = db.store_dimension_tables()
        # Different per-structure scan charges, summed as integer pages.
        assert tables["X"].n_pages != tables["Y"].n_pages
        queries = [
            hash_query((1, 2), [DimPredicate(1, 1, frozenset({0, 3}))]),
            selective_query(),
            hash_query((2, 1), [DimPredicate(0, 1, frozenset({1, 4}))]),
            hash_query((1, 1)),
        ]
        warm = full_model(db)
        for order in itertools.permutations(queries):
            for entry in db.catalog.entries():
                for n in range(1, len(order) + 1):
                    expected = all_costings(full_model(db), entry, order[:n])
                    assert all_costings(warm, entry, order[:n]) == expected
        assert warm.n_member_terms <= len(db.catalog) * len(queries)


def from_scratch(model, entry, queries):
    """The list-based class costing the state replaced, kept as the oracle:
    every union and product re-accumulated from the members' terms
    (``math.prod``, set unions), ``(cost, methods)`` or None."""
    terms = [model._term(entry, query) for query in queries]
    if not all(term.answerable for term in terms):
        return None
    r = model.rates
    keys = {key for term in terms for key in term.build_keys}
    builds_ms = (
        sum(model.schema.dimensions[k[0]].n_members(k[1]) for k in keys)
        * r.hash_build_ms
        + sum(model._dim_pages[k[0]] for k in keys) * r.seq_page_read_ms
    )
    total = entry.n_pages * r.seq_page_read_ms + builds_ms
    methods = []
    for term in terms:
        hash_wins = term.hash_ms <= term.filtered_ms
        total += term.hash_ms if hash_wins else term.filtered_ms
        methods.append(JoinMethod.HASH if hash_wins else JoinMethod.INDEX)
    if not all(term.indexable for term in terms):
        return total, methods
    union_rows = entry.n_rows * (
        1.0 - math.prod(1.0 - term.indexed_sel for term in terms)
    )
    p = entry.n_pages
    if entry.clustered:
        region = max(
            1.0, p * (1.0 - math.prod(1.0 - term.region for term in terms))
        )
        separate = 0.0
        for term in terms:
            separate += term.separate_pages
        runs = sum(term.runs for term in terms)
        pages = expected_distinct(region, union_rows) + max(0, runs - 1)
        pages = min(float(p), pages, separate)
    else:
        pages = expected_distinct(float(p), union_rows)
    index_total = pages * r.rand_page_read_ms + builds_ms
    if len(terms) > 1:
        words = (entry.n_rows + WORD_BITS - 1) // WORD_BITS
        index_total += (len(terms) - 1) * words * r.bitmap_word_ms
    for term in terms:
        index_total += term.index_ms
        index_total += union_rows * r.bitmap_test_ms
        index_total += term.fed_ms
    if index_total < total:
        return index_total, [JoinMethod.INDEX] * len(terms)
    return total, methods


def shape(costing):
    """A costing (``ClassCosting``, the oracle's pair, or None) with its
    cost bit for bit."""
    if costing is None:
        return None
    cost, methods = (
        costing if isinstance(costing, tuple)
        else (costing.cost_ms, costing.methods)
    )
    return cost.hex(), methods


class TestIncrementalEqualsFromScratch:
    """A class state grown one member at a time answers every trial as a
    costing from the query list does, bit for bit — on a warm model, against
    a fresh one and against the list-based oracle."""

    def grow_and_check(self, db, queries):
        """Returns what the growth exercised: ``"dead"`` states, and
        ``("index", clustered)`` for all-index classes of two or more."""
        order = sorted(queries, key=query_sort_key)  # the greedy order
        warm = full_model(db)
        seen = set()
        for entry in db.catalog.entries():
            state = ClassState(entry)
            for n, query in enumerate(order, start=1):
                trial = warm.trial(state, query)
                assert state.terms == [warm._term(entry, q) for q in order[:n - 1]]
                expected = from_scratch(full_model(db), entry, order[:n])
                assert shape(trial) == shape(expected), (entry.name, n)
                assert shape(trial) == shape(
                    full_model(db).plan_class(entry, order[:n])
                )
                if n > 1 and trial and JoinMethod.HASH not in trial.methods:
                    seen.add(("index", entry.clustered))
                assert warm.extend(state, query) is state
                # A dead state <=> no costing, and it stays dead.
                assert (state.totals is None) == (expected is None)
            if state.totals is None:
                seen.add("dead")
            # MergeClass appends another class's members: a state caught up
            # after the merge is the one grown in the merged order.
            for k in range(1, len(order)):
                greedy = GreedyOptimizer(db, None)
                first, second = (
                    GrownClass(entry, list(part), None)
                    for part in (order[:k], order[k:])
                )
                before = greedy._state(first, entry)
                assert len(before.terms) == k
                assert greedy._merge_classes([first, second]) == [first]
                assert first.queries == order and first.cost_ms is None
                after = greedy._state(first, entry)
                assert after is before
                assert after == reduce(
                    full_model(db).extend, order, ClassState(entry)
                ), (entry.name, k)
        return seen

    def test_paper_tests(self, paper_db, paper_qs):
        seen = set()
        for ids in ALL_PAPER_TESTS.values():
            seen |= self.grow_and_check(paper_db, [paper_qs[i] for i in ids])
        # Some table cannot answer some test, and the index configuration
        # wins whole classes on the clustered, indexed A'B'C'D.
        assert seen == {"dead", ("index", True)}

    @pytest.mark.parametrize("stored", (False, True), ids=("plain", "stored"))
    def test_random_batches(self, stored):
        """Point queries and seeded random batches on a database with
        indexed views and, with ``stored``, structure builds that also scan
        dimension tables (the integer page total)."""
        db = make_tiny_db(
            n_rows=800,
            materialized=("X'Y", "XY'", "X'Y'", "X''Y'"),
            index_tables=("XY", "X'Y", "XY'"),
        )
        if stored:
            tables = db.store_dimension_tables()
            assert tables["X"].n_pages != tables["Y"].n_pages
        rng = random.Random(41)
        batches = [
            # Point queries: selective enough that the all-index
            # configuration wins for whole classes.
            [
                hash_query(
                    (1, 2),
                    [
                        DimPredicate(0, 0, frozenset({rng.randrange(12)})),
                        DimPredicate(1, 0, frozenset({rng.randrange(8)})),
                    ],
                )
                for _ in range(5)
            ]
        ]
        for seed in (5, 9, 13, 17, 19, 23, 29, 31, 61, 67):
            rng = random.Random(seed)
            batches.append(
                [
                    random_query(db.schema, rng, label=f"g{seed}.{i}")
                    for i in range(rng.randint(2, 6))
                ]
            )
        seen = set()
        for batch in batches:
            seen |= self.grow_and_check(db, batch)
        assert seen == {"dead", ("index", False)}


class TestLeftSum:
    def test_is_a_plain_left_fold(self):
        """``sum`` is compensated from Python 3.12 and returns 1.0 here;
        estimates must not depend on the interpreter."""
        assert left_sum([1e16, 1.0, -1e16]) == 0.0
        assert left_sum([1.0, -1e16], 1e16) == 0.0
        assert left_sum([]) == 0.0
        assert left_sum(iter([0.1, 0.2, 0.3])) == (0.1 + 0.2) + 0.3

    def test_no_builtin_sum_over_costs_in_the_source(self):
        """Cost totals are ``left_sum`` or explicit ``+=`` loops: nothing
        under ``core/optimizer/`` or in ``dag/search.py`` calls ``sum`` /
        ``fsum`` on anything but a count."""
        src = Path(repro.__file__).parent
        paths = [*(src / "core" / "optimizer").glob("*.py"), src / "dag" / "search.py"]
        calls = re.compile(r"\b(?:math\.)?f?sum\((.*)")
        found = {
            f"{path.name}: {match.group(0)}"
            for path in paths
            for match in calls.finditer(path.read_text())
        }
        assert found == {"plans.py: sum(len(cls.plans) for cls in self.classes)"}
        assert "left_sum(" in (src / "core" / "optimizer" / "plans.py").read_text()
        assert "left_sum(" in (src / "dag" / "search.py").read_text()


class TestLifetime:
    """A model snapshots one (catalog, statistics, rates) state, so
    ``Database.optimize`` must build a new one per call."""

    def test_optimize_sees_appends_and_new_rates(self):
        db = make_tiny_db(n_rows=300, materialized=("X'Y",))
        queries = [hash_query((1, 1)), selective_query(), hash_query((2, 2))]

        def check():
            plan = db.optimize(queries, "gg")
            fresh = full_model(db)
            for cls in plan.classes:
                entry = db.catalog.get(cls.source)
                costing = fresh.plan_class(entry, cls.queries)
                assert cls.est_cost_ms == costing.cost_ms
            return plan.est_cost_ms

        before = check()
        db.append_rows(list(db.catalog.get("XY").table.all_rows())[:150])
        after_append = check()
        assert after_append != before
        rates = db.stats.rates
        db.set_rates(rates.replace(hash_probe_ms=rates.hash_probe_ms * 3))
        assert check() != after_append
