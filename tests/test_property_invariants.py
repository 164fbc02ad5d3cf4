"""End-to-end property tests: on randomized workloads, every operator, every
optimizer, and every plan produce the same answers as the brute-force
reference.  These are the paper's implicit correctness obligations — a
shared operator or a rebased class must never change query results."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.operators.star_join import MissingIndexError, ProbeRows
from repro.core.operators.star_join import ScanRows, StarJoin
from repro.check import evaluate_reference
from repro.schema.query import DimPredicate, GroupBy, GroupByQuery

from helpers import make_tiny_db, random_query

DB = make_tiny_db(
    n_rows=400,
    materialized=("X'Y", "XY'", "X'Y'"),
    index_tables=("XY", "X'Y"),
)
BASE = DB.catalog.get("XY")


def reference(query):
    return evaluate_reference(
        DB.schema, BASE.table.all_rows(), query, BASE.levels
    )


@st.composite
def query_strategy(draw):
    levels = []
    predicates = []
    for d, dim in enumerate(DB.schema.dimensions):
        levels.append(draw(st.integers(0, dim.all_level)))
        if draw(st.booleans()):
            level = draw(st.integers(0, dim.n_levels - 1))
            domain = dim.n_members(level)
            members = draw(
                st.sets(
                    st.integers(0, domain - 1), min_size=1, max_size=min(3, domain)
                )
            )
            predicates.append(DimPredicate(d, level, frozenset(members)))
    return GroupByQuery(
        groupby=GroupBy(tuple(levels)), predicates=tuple(predicates)
    )


class TestOperatorInvariants:
    @given(st.lists(query_strategy(), min_size=1, max_size=4))
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_shared_scan_equals_reference(self, queries):
        results = StarJoin(DB.ctx(), "XY", ScanRows, queries).run()
        for query, result in zip(queries, results):
            assert result.groups == reference(query).groups

    @given(st.lists(query_strategy(), min_size=1, max_size=3))
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_shared_index_equals_reference_when_feasible(self, queries):
        try:
            results = StarJoin(DB.ctx(), "XY", ProbeRows, index_queries=queries).run()
        except MissingIndexError:
            return  # some query had no indexable predicate: fine
        for query, result in zip(queries, results):
            assert result.groups == reference(query).groups

    @given(
        st.lists(query_strategy(), min_size=1, max_size=2),
        st.lists(query_strategy(), min_size=1, max_size=2),
    )
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_hybrid_equals_reference_when_feasible(self, hash_qs, index_qs):
        try:
            results = StarJoin(
                DB.ctx(), "XY", ScanRows, hash_qs, index_qs
            ).run()
        except MissingIndexError:
            return
        for query, result in zip(hash_qs + index_qs, results):
            assert result.groups == reference(query).groups


class TestOptimizerInvariants:
    @given(
        st.lists(query_strategy(), min_size=1, max_size=3),
        st.sampled_from(["naive", "tplo", "etplg", "gg", "optimal"]),
    )
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_any_plan_matches_reference(self, queries, algorithm):
        report = DB.run_queries(queries, algorithm)
        for query in queries:
            assert report.result_for(query).groups == reference(query).groups, (
                algorithm,
                query.describe(DB.schema),
            )

    @given(st.lists(query_strategy(), min_size=2, max_size=3))
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_cost_dominance(self, queries):
        """Estimated: optimal <= gg <= naive (the paper's dominance
        argument: GG searches a superset of naive's plans)."""
        optimal = DB.optimize(queries, "optimal").est_cost_ms
        gg = DB.optimize(queries, "gg").est_cost_ms
        naive = DB.optimize(queries, "naive").est_cost_ms
        assert optimal <= gg + 1e-6
        assert gg <= naive + 1e-6


class TestRandomizedSeedSweep:
    @pytest.mark.parametrize("seed", range(4))
    def test_fresh_databases_consistent(self, seed):
        db = make_tiny_db(
            n_rows=200 + 37 * seed,
            seed=seed,
            materialized=("X'Y'",),
            index_tables=("XY",),
        )
        rng = random.Random(seed)
        queries = [random_query(db.schema, rng) for _ in range(3)]
        base = db.catalog.get("XY")
        for algorithm in ("tplo", "gg"):
            report = db.run_queries(queries, algorithm)
            for query in queries:
                expected = evaluate_reference(
                    db.schema, base.table.all_rows(), query, base.levels
                )
                assert report.result_for(query).groups == expected.groups
