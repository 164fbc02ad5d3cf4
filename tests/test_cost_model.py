"""Unit tests for the Section 5.1 cost model."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.optimizer.cost import CostModel
from repro.core.optimizer.plans import JoinMethod
from repro.schema.query import DimPredicate, GroupBy, GroupByQuery
from repro.workload.paper_queries import ALL_PAPER_TESTS

from helpers import make_tiny_db


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
    out.append(
        model.derive_class(
            entry, queries[:1], [(intermediate, queries[1:] or queries)], 1.5
        )
    )
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
        """With dimension tables stored, the build sets' iteration order
        feeds a float sum: terms must fill them in (query, dimension)
        order whatever was costed before."""
        db = make_tiny_db(
            n_rows=400, materialized=("X'Y",), index_tables=("XY", "X'Y")
        )
        tables = db.store_dimension_tables()
        # Different per-structure scan charges: their sum is order-sensitive.
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
