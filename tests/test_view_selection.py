"""Tests for greedy (HRU-style) materialized-view selection."""

import pytest

from repro.engine import database as database_module
from repro.engine.reference import evaluate_reference
from repro.engine.view_selection import (
    greedy_select_views,
    materialize_selection,
    workload_cost,
)
from repro.schema.lattice import estimate_groupby_rows, lattice_size
from repro.schema.query import DimPredicate, GroupBy, GroupByQuery

from conftest import make_tiny_schema
from helpers import make_tiny_db

SCHEMA = make_tiny_schema()
N_ROWS = 10_000


class TestGreedySelection:
    def test_respects_budget(self):
        selection = greedy_select_views(SCHEMA, N_ROWS, n_views=3)
        assert len(selection.views) <= 3

    def test_never_selects_base(self):
        selection = greedy_select_views(SCHEMA, N_ROWS, n_views=5)
        base = GroupBy(SCHEMA.base_levels())
        assert base not in selection.views

    def test_no_duplicates(self):
        selection = greedy_select_views(SCHEMA, N_ROWS, n_views=6)
        assert len(set(selection.views)) == len(selection.views)

    def test_benefits_monotonically_nonincreasing(self):
        """Greedy submodularity: each step's marginal benefit can only
        shrink."""
        selection = greedy_select_views(SCHEMA, N_ROWS, n_views=8)
        benefits = [step.benefit for step in selection.steps]
        assert benefits == sorted(benefits, reverse=True)

    def test_each_view_strictly_helps(self):
        selection = greedy_select_views(SCHEMA, N_ROWS, n_views=8)
        for step in selection.steps:
            assert step.benefit > 0

    def test_cost_decreases_with_each_prefix(self):
        selection = greedy_select_views(SCHEMA, N_ROWS, n_views=5)
        costs = [
            workload_cost(SCHEMA, N_ROWS, selection.views[:k])
            for k in range(len(selection.views) + 1)
        ]
        for earlier, later in zip(costs, costs[1:]):
            assert later < earlier

    def test_zero_budget(self):
        selection = greedy_select_views(SCHEMA, N_ROWS, n_views=0)
        assert selection.views == []
        with pytest.raises(ValueError):
            greedy_select_views(SCHEMA, N_ROWS, n_views=-1)

    def test_stops_when_nothing_helps(self):
        # Budget far beyond the lattice: greedy must stop on its own.
        selection = greedy_select_views(
            SCHEMA, N_ROWS, n_views=lattice_size(SCHEMA) + 10
        )
        assert len(selection.views) < lattice_size(SCHEMA)

    def test_first_pick_beats_any_single_alternative(self):
        """Greedy's first step is the optimal single view."""
        selection = greedy_select_views(SCHEMA, N_ROWS, n_views=1)
        first_cost = workload_cost(SCHEMA, N_ROWS, selection.views)
        from repro.schema.lattice import enumerate_lattice

        for view in enumerate_lattice(SCHEMA):
            if view == GroupBy(SCHEMA.base_levels()):
                continue
            assert first_cost <= workload_cost(SCHEMA, N_ROWS, [view]) + 1e-6


class TestWorkloadAware:
    def workload(self):
        return [
            GroupByQuery(
                groupby=GroupBy((2, 2)),
                predicates=(DimPredicate(0, 1, frozenset({0})),),
            ),
            GroupByQuery(groupby=GroupBy((2, 2))),
        ]

    def test_workload_selection_prefers_relevant_views(self):
        selection = greedy_select_views(
            SCHEMA, N_ROWS, n_views=2, workload=self.workload()
        )
        assert selection.views, "workload should make some view beneficial"
        # Every selected view serves at least one workload point.
        points = [GroupBy(q.required_levels()) for q in self.workload()]
        for view in selection.views:
            assert any(p.derivable_from(view) for p in points)

    def test_workload_cost_uses_weights(self):
        workload = self.workload() + self.workload()
        cost_double = workload_cost(SCHEMA, N_ROWS, [], workload=workload)
        cost_single = workload_cost(
            SCHEMA, N_ROWS, [], workload=self.workload()
        )
        assert cost_double == pytest.approx(2 * cost_single)


class TestMaterializeSelection:
    def test_selection_round_trip(self):
        db = make_tiny_db(n_rows=500)
        selection = greedy_select_views(db.schema, 500, n_views=3)
        names = materialize_selection(db, selection)
        assert len(names) == len(selection.views)
        for name in names:
            assert name in db.catalog
        # Materializing again is a no-op.
        assert materialize_selection(db, selection) == []

    def test_built_views_are_correct(self):
        """A plain iterable of group-bys is a selection too (what a cube
        build of chosen targets is)."""
        db = make_tiny_db(n_rows=300)
        targets = [GroupBy((1, 1)), GroupBy((2, 2))]
        materialize_selection(db, targets)
        base = db.catalog.get("XY")
        for target in targets:
            expected = evaluate_reference(
                db.schema, base.table.all_rows(), GroupByQuery(groupby=target),
                base.levels,
            )
            rows = db.catalog.get(target.name(db.schema)).table.all_rows()
            got = {(int(x), int(y)): measure for x, y, measure in rows}
            assert got == pytest.approx(expected.groups)

    def test_finest_first_order(self):
        """Whatever order the selection lists them in."""
        db = make_tiny_db(n_rows=300)
        targets = [GroupBy((2, 2)), GroupBy((1, 0)), GroupBy((2, 1)),
                   GroupBy((1, 1))]
        created = materialize_selection(db, targets)
        assert created == ["X'Y", "X'Y'", "X''Y'", "X''Y''"]

    def test_existing_views_are_skipped_and_reused(self, monkeypatch):
        """An existing view is not rebuilt, and coarser targets derive from
        it or from an earlier target — never from the base again."""
        db = make_tiny_db(n_rows=300, materialized=("X'Y",))
        sources = {}
        pick = database_module.pick_materialization_source

        def spying_pick(schema, entries, target, aggregate):
            source = pick(schema, entries, target, aggregate)
            sources[db.schema.groupby_name(target)] = source.name
            return source

        monkeypatch.setattr(
            database_module, "pick_materialization_source", spying_pick
        )
        created = materialize_selection(
            db, [GroupBy((2, 2)), GroupBy((1, 0)), GroupBy((1, 1))]
        )
        assert created == ["X'Y'", "X''Y''"]
        assert sources == {"X'Y'": "X'Y", "X''Y''": "X'Y'"}

    def test_selected_views_speed_up_the_workload(self):
        """End-to-end: greedy selection lowers executed (simulated) cost."""
        workload = [
            GroupByQuery(groupby=GroupBy((1, 2))),
            GroupByQuery(groupby=GroupBy((2, 1))),
            GroupByQuery(groupby=GroupBy((2, 2))),
        ]
        bare = make_tiny_db(n_rows=2000)
        before = bare.run_queries(workload, "gg").sim_ms
        tuned = make_tiny_db(n_rows=2000)
        selection = greedy_select_views(
            tuned.schema, 2000, n_views=2, workload=workload
        )
        materialize_selection(tuned, selection)
        after = tuned.run_queries(workload, "gg").sim_ms
        assert after < before
