"""Property tests for the warehouse lifecycle: maintenance equivalence,
view-build correctness, and persistence round-trips on randomized inputs."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.database import Database
from repro.check import evaluate_reference
from repro.engine.view_selection import materialize_selection
from repro.schema.query import Aggregate, GroupBy, GroupByQuery
from repro.workload.generator import generate_fact_rows

from conftest import make_tiny_schema
from helpers import hash_star_join, make_tiny_db


def view_as_dict(entry):
    n_dims = len(entry.levels)
    return {
        tuple(int(v) for v in row[:n_dims]): row[n_dims]
        for row in entry.table.all_rows()
    }


class TestMaintenanceEquivalence:
    @given(
        n_initial=st.integers(0, 60),
        batches=st.lists(st.integers(1, 40), min_size=1, max_size=3),
        aggregate=st.sampled_from(
            [Aggregate.SUM, Aggregate.COUNT, Aggregate.MIN, Aggregate.MAX]
        ),
        seed=st.integers(0, 10_000),
    )
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_incremental_equals_rebuild(
        self, n_initial, batches, aggregate, seed
    ):
        """For any initial load, any append sequence, and any maintainable
        aggregate: the incrementally maintained view equals one rebuilt
        from the final base."""
        schema = make_tiny_schema()
        db = Database(schema, page_size=64)
        db.load_base(
            generate_fact_rows(schema, n_initial, seed=seed), name="XY"
        )
        db.materialize((1, 1), name="view", aggregate=aggregate)
        for i, n_rows in enumerate(batches):
            db.append_rows(
                generate_fact_rows(schema, n_rows, seed=seed + 1 + i)
            )
        maintained = view_as_dict(db.catalog.get("view"))
        rebuilt_entry = db.materialize((1, 1), name="check",
                                       aggregate=aggregate)
        rebuilt = view_as_dict(rebuilt_entry)
        assert maintained == rebuilt

    @given(
        batches=st.lists(st.integers(1, 30), min_size=1, max_size=3),
        seed=st.integers(0, 10_000),
    )
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_indexes_stay_consistent(self, batches, seed):
        """After any append sequence, index-driven plans equal hash plans."""
        from repro.core.operators.star_join import ProbeRows, StarJoin
        from repro.schema.query import DimPredicate

        db = make_tiny_db(n_rows=50, seed=seed % 100, index_tables=("XY",))
        for i, n_rows in enumerate(batches):
            db.append_rows(
                generate_fact_rows(db.schema, n_rows, seed=seed + i)
            )
        query = GroupByQuery(
            groupby=GroupBy((1, 2)),
            predicates=(DimPredicate(0, 0, frozenset({seed % 12})),),
        )
        via_hash = hash_star_join(db, "XY", query)
        via_index = StarJoin(db.ctx(), "XY", ProbeRows, index_queries=[query]).run()[0]
        assert via_index.groups == via_hash.groups


class TestCubeProperties:
    @given(
        n_rows=st.integers(1, 120),
        seed=st.integers(0, 1000),
        levels=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3)),
            min_size=1,
            max_size=4,
            unique=True,
        ),
    )
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_every_built_view_is_correct(self, n_rows, seed, levels):
        schema = make_tiny_schema()
        db = Database(schema, page_size=64)
        db.load_base(generate_fact_rows(schema, n_rows, seed=seed), name="XY")
        targets = [
            GroupBy(pair) for pair in levels if pair != (0, 0)
        ]
        if not targets:
            return
        materialize_selection(db, targets)
        base = db.catalog.get("XY")
        for target in targets:
            query = GroupByQuery(groupby=target)
            expected = evaluate_reference(
                schema, base.table.all_rows(), query, base.levels
            )
            entry = db.catalog.get(target.name(schema))
            got = view_as_dict(entry)  # a SUM view: int cents
            assert {k: v / 100 for k, v in got.items()} == expected.groups


class TestPersistenceProperty:
    @given(
        n_rows=st.integers(0, 80),
        seed=st.integers(0, 1000),
        with_view=st.booleans(),
        with_index=st.booleans(),
    )
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_roundtrip_preserves_query_answers(
        self, tmp_path_factory, n_rows, seed, with_view, with_index
    ):
        from repro.engine.persist import load_database, save_database

        schema = make_tiny_schema()
        db = Database(schema, page_size=64)
        db.load_base(generate_fact_rows(schema, n_rows, seed=seed), name="XY")
        if with_view:
            db.materialize("X'Y'")
        if with_index:
            db.index_all_dimensions("XY")
        rng = random.Random(seed)
        directory = tmp_path_factory.mktemp("roundtrip")
        save_database(db, directory)
        loaded = load_database(directory)
        query = GroupByQuery(
            groupby=GroupBy((rng.randint(0, 3), rng.randint(0, 3)))
        )
        twin = GroupByQuery(groupby=query.groupby)
        before = db.run_queries([query], "gg").result_for(query)
        after = loaded.run_queries([twin], "gg").result_for(twin)
        assert list(after.groups.items()) == list(before.groups.items())
