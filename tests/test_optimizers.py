"""The table-driven optimizer tests: every case is (registry name ×
workload), so a new registry name is covered by being registered.

Plan validity, answer correctness against the reference evaluator, the
exact planner against the brute-force oracle, the greedy family's
degenerate beams and orderings, and the per-name costing-count pin."""

import random
from collections import Counter

import pytest

from repro.check import raw_base_entry, validate_global_plan
from repro.core.optimizer import (
    OPTIMIZERS,
    CostModel,
    GreedyOptimizer,
    make_optimizer,
)
from repro.engine.reference import evaluate_reference
from repro.schema.query import DimPredicate, GroupBy, GroupByQuery
from repro.workload.paper_queries import ALL_PAPER_TESTS

from helpers import brute_force_optimum, make_tiny_db, random_query

ALGORITHMS = tuple(sorted(OPTIMIZERS))
#: Every registered algorithm that merges same-table plans into one class.
MERGING = tuple(name for name in ALGORITHMS if name != "naive")

#: The sweep's workloads: the paper's Tests 1–7 on the paper database, and
#: one seeded random batch of 2–5 queries per seed on the tiny database.
RANDOM_SEEDS = (5, 9, 13, 17, 19, 23, 29, 31, 61, 67)
WORKLOADS = tuple(sorted(ALL_PAPER_TESTS)) + tuple(
    f"seed{seed}" for seed in RANDOM_SEEDS
)

#: ``search_stats["plan_costings"]`` per name on Tests 4–7 (paper database
#: at scale 0.01).  The greedy loop's sequence of ``CostModel.plan_class``
#: calls is part of its contract (committed planning-effort tables and the
#: frozen benchmark's ``plan.costings_per_op`` read it); a change here is
#: a change of search effort and must be deliberate.
PLAN_COSTINGS = {
    "naive": (21, 21, 21, 21),
    "tplo": (18, 18, 18, 18),
    "etplg": (22, 23, 21, 23),
    "bgg": (27, 27, 25, 30),
    "gg": (31, 31, 31, 38),
    "optimal": (43, 43, 43, 44),
    "dp": (43, 43, 43, 44),
    "dag": (39, 39, 34, 46),
}


@pytest.fixture(scope="module")
def db():
    return make_tiny_db(
        n_rows=800,
        materialized=("X'Y", "XY'", "X'Y'", "X''Y'"),
        index_tables=("XY", "X'Y"),
    )


def queries_mixed():
    return [
        GroupByQuery(groupby=GroupBy((1, 1)), label="qa"),
        GroupByQuery(
            groupby=GroupBy((1, 2)),
            predicates=(DimPredicate(0, 1, frozenset({0, 1})),),
            label="qb",
        ),
        GroupByQuery(
            groupby=GroupBy((2, 1)),
            predicates=(DimPredicate(1, 0, frozenset({2})),),
            label="qc",
        ),
    ]


class TestPlanValidity:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_plan_covers_queries(self, db, algorithm):
        queries = queries_mixed()
        plan = make_optimizer(algorithm, db).optimize(queries)
        assert sorted(q.qid for q in plan.queries) == sorted(
            q.qid for q in queries
        )

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_every_plan_is_answerable(self, db, algorithm):
        plan = make_optimizer(algorithm, db).optimize(queries_mixed())
        for cls in plan.classes:
            entry = db.catalog.get(cls.source)
            for local in cls.plans:
                assert local.query.answerable_from(entry.levels)

    @pytest.mark.parametrize("algorithm", MERGING)
    def test_no_duplicate_class_sources(self, db, algorithm):
        plan = make_optimizer(algorithm, db).optimize(queries_mixed())
        sources = [cls.source for cls in plan.classes]
        assert len(sources) == len(set(sources))

    def test_empty_input_rejected(self, db):
        for algorithm in ALGORITHMS:
            with pytest.raises(ValueError):
                make_optimizer(algorithm, db).optimize([])

    def test_duplicate_queries_rejected(self, db):
        query = queries_mixed()[0]
        with pytest.raises(ValueError):
            make_optimizer("gg", db).optimize([query, query])

    def test_unknown_algorithm(self, db):
        with pytest.raises(ValueError, match="unknown optimizer"):
            make_optimizer("does-not-exist", db)

    def test_registry_contents(self):
        assert set(OPTIMIZERS) == {
            "naive", "tplo", "etplg", "gg", "bgg", "optimal", "dp", "dag",
        }


class TestAnswerCorrectness:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_execution_matches_reference(self, db, algorithm):
        queries = queries_mixed()
        report = db.run_queries(queries, algorithm)
        base = db.catalog.get("XY")
        for query in queries:
            expected = evaluate_reference(
                db.schema, base.table.all_rows(), query, base.levels
            )
            assert report.result_for(query).approx_equals(expected)

    def test_random_workloads_all_algorithms_agree(self, db):
        rng = random.Random(5)
        for round_ in range(5):
            queries = [
                random_query(db.schema, rng, label=f"r{round_}.{i}")
                for i in range(3)
            ]
            reference = None
            for algorithm in ALGORITHMS:
                report = db.run_queries(queries, algorithm)
                if reference is None:
                    reference = report.results
                else:
                    for qid, result in report.results.items():
                        assert result.approx_equals(reference[qid]), algorithm


class TestCostOrderings:
    def test_optimal_is_cheapest_estimate(self, db):
        queries = queries_mixed()
        optimal = db.optimize(queries, "optimal").est_cost_ms
        for algorithm in ALGORITHMS:
            assert optimal <= db.optimize(queries, algorithm).est_cost_ms + 1e-6

    def test_gg_never_above_naive(self, db):
        rng = random.Random(9)
        for round_ in range(5):
            queries = [
                random_query(db.schema, rng, label=f"o{round_}.{i}")
                for i in range(3)
            ]
            gg = db.optimize(queries, "gg").est_cost_ms
            naive = db.optimize(queries, "naive").est_cost_ms
            assert gg <= naive + 1e-6

    def test_sharing_found_for_identical_requirements(self, db):
        """Three queries with identical requirements must land in one class
        under every merging algorithm."""
        queries = [
            GroupByQuery(groupby=GroupBy((1, 1)), label=f"t{i}")
            for i in range(3)
        ]
        for algorithm in MERGING:
            plan = db.optimize(queries, algorithm)
            assert len(plan.classes) == 1, algorithm
            assert len(plan.classes[0].plans) == 3

    def test_naive_never_shares(self, db):
        queries = queries_mixed()
        plan = db.optimize(queries, "naive")
        assert len(plan.classes) == len(queries)


class TestGGRebasing:
    def test_gg_rebases_to_admit_second_query(self):
        """The paper's Example 2 mechanism: two queries whose locally optimal
        tables are mutually incompatible get rebased onto a common table."""
        db = make_tiny_db(
            n_rows=800,
            materialized=("X'Y''", "X''Y'", "X'Y'"),
            index_tables=(),
        )
        qa = GroupByQuery(groupby=GroupBy((1, 2)), label="qa")  # X'Y''
        qb = GroupByQuery(groupby=GroupBy((2, 1)), label="qb")  # X''Y'
        tplo = db.optimize([qa, qb], "tplo")
        assert len(tplo.classes) == 2  # locals differ, nothing merges
        gg = db.optimize([qa, qb], "gg")
        if len(gg.classes) == 1:
            # Rebased onto the common ancestor X'Y'.
            assert gg.classes[0].source == "X'Y'"
            assert gg.est_cost_ms <= tplo.est_cost_ms + 1e-6

    def test_gg_merges_classes_on_same_base(self, db):
        rng = random.Random(13)
        for round_ in range(5):
            queries = [
                random_query(db.schema, rng, label=f"m{round_}.{i}")
                for i in range(4)
            ]
            plan = db.optimize(queries, "gg")
            sources = [cls.source for cls in plan.classes]
            assert len(sources) == len(set(sources))


def plan_shape(plan, queries):
    """Everything a plan decides, with batch positions for qids: classes in
    order, members in order, methods, and the class estimates bit for bit."""
    position = {q.qid: i for i, q in enumerate(queries)}
    return [
        (
            cls.source,
            cls.est_cost_ms,
            [(position[p.query.qid], p.method) for p in cls.plans],
        )
        for cls in plan.classes
    ]


@pytest.fixture(scope="module")
def workloads(db, paper_db, paper_qs):
    """workload name -> (database, queries)."""
    out = {
        test: (paper_db, [paper_qs[i] for i in ids])
        for test, ids in ALL_PAPER_TESTS.items()
    }
    for seed in RANDOM_SEEDS:
        rng = random.Random(seed)
        out[f"seed{seed}"] = (
            db,
            [
                random_query(db.schema, rng, label=f"s{seed}.{i}")
                for i in range(rng.randint(2, 5))
            ],
        )
    return out


@pytest.fixture(scope="module")
def reference():
    """Memoized reference answers (a paper query recurs across tests)."""
    answers = {}

    def answer(database, query):
        if query.qid not in answers:
            base = raw_base_entry(database.catalog)
            answers[query.qid] = evaluate_reference(
                database.schema, base.table.all_rows(), query, base.levels
            )
        return answers[query.qid]

    return answer


class TestRegistrySweep:
    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_plan_validates_and_answers_match_reference(
        self, workloads, reference, algorithm, workload
    ):
        database, queries = workloads[workload]
        plan = database.optimize(queries, algorithm)
        assert plan.algorithm == algorithm
        validate_global_plan(database.schema, database.catalog, plan, queries)
        report = database.execute(plan)
        for query in queries:
            assert report.result_for(query).approx_equals(
                reference(database, query)
            ), query.display_name()

    @pytest.mark.parametrize("workload", WORKLOADS)
    @pytest.mark.parametrize("algorithm", ("optimal", "dp"))
    def test_exact_planner_equals_brute_force(
        self, workloads, algorithm, workload
    ):
        """Cost bit for bit, and the same classes, class order and member
        order as the first cheapest assignment of the t^n enumeration."""
        database, queries = workloads[workload]
        plan = database.optimize(queries, algorithm)
        cost, classes = brute_force_optimum(database, queries)
        assert plan.est_cost_ms == cost
        assert [
            (cls.source, [q.qid for q in cls.queries]) for cls in plan.classes
        ] == [(source, [q.qid for q in group]) for source, group in classes]

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_degenerate_beams_are_etplg_and_gg(self, workloads, workload):
        """ETPLG is the greedy loop at beam 0, GG at a beam covering the
        catalog — the same plan, not merely the same cost."""
        database, queries = workloads[workload]
        for name, beam in (("etplg", 0), ("gg", len(database.catalog))):
            named = make_optimizer(name, database).optimize(queries)
            beamed = GreedyOptimizer(database, beam).optimize(queries)
            assert plan_shape(named, queries) == plan_shape(
                beamed, queries
            ), name

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_greedy_family_orderings(self, workloads, workload):
        """A wider beam never plans worse and never searches less:
        est(gg) <= est(bgg) <= est(etplg), costings etplg <= bgg <= gg."""
        database, queries = workloads[workload]
        etplg, bgg, gg = (
            database.optimize(queries, name) for name in ("etplg", "bgg", "gg")
        )
        assert gg.est_cost_ms <= bgg.est_cost_ms + 1e-6
        assert bgg.est_cost_ms <= etplg.est_cost_ms + 1e-6
        assert (
            etplg.search_stats["plan_costings"]
            <= bgg.search_stats["plan_costings"]
            <= gg.search_stats["plan_costings"]
        )

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_plan_costings_pinned(self, workloads, algorithm):
        """Re-pinned when plans stopped carrying per-member estimates: a
        final class of n >= 2 members used to cost n leave-one-out classes
        on top of its own costing, plus one standalone costing for every
        member the search had never costed alone on its final table.  A
        final class is now one costing (``test_one_costing_per_final_class``),
        so every searching name dropped by exactly that display-only work
        (gg on Test 4: 35 -> 31 = 3 leave-one-outs + 1 standalone); naive
        and tplo, whose classes are their standalone costings, did not
        move."""
        counts = []
        for test in ("test4", "test5", "test6", "test7"):
            database, queries = workloads[test]
            plan = database.optimize(queries, algorithm)
            counts.append(plan.search_stats["plan_costings"])
        assert tuple(counts) == PLAN_COSTINGS[algorithm]

    @pytest.mark.parametrize(
        "algorithm", ("etplg", "bgg", "gg", "optimal", "dp", "dag")
    )
    def test_one_costing_per_final_class(
        self, workloads, monkeypatch, algorithm
    ):
        """Once the search has ended, ``db.optimize`` costs each final
        class once and nothing else: the last ``len(plan.classes)`` class
        costings are the plan's classes, in plan order.  (naive and tplo
        have no search phase to end.)"""
        costed = []
        real_plan, real_derive = CostModel.plan_class, CostModel.derive_class

        def plan_class(model, entry, queries):
            costed.append((entry.name, sorted(q.qid for q in queries)))
            return real_plan(model, entry, queries)

        def derive_class(model, entry, scan, steps, **kwargs):
            members = [*scan, *(q for step in steps for q in step.queries)]
            costed.append((entry.name, sorted(q.qid for q in members)))
            return real_derive(model, entry, scan, steps, **kwargs)

        monkeypatch.setattr(CostModel, "plan_class", plan_class)
        monkeypatch.setattr(CostModel, "derive_class", derive_class)
        for test in ("test1", "test4", "test5", "test6", "test7"):
            database, queries = workloads[test]
            costed.clear()
            plan = database.optimize(queries, algorithm)
            assert any(len(cls.plans) > 1 for cls in plan.classes), test
            assert costed[-len(plan.classes):] == [
                (cls.source, sorted(q.qid for q in cls.queries))
                for cls in plan.classes
            ], test

    @pytest.mark.parametrize("beam", (0, 2, None))
    def test_the_loop_never_costs_a_class_from_a_list(
        self, workloads, monkeypatch, beam
    ):
        """A greedy trial is "class state + one term" and ``current`` is
        read off the class: ``grow`` asks ``plan_class`` for a list of two
        or more queries only when MergeClass has just appended one class's
        members to another (whose cost nobody holds yet)."""
        costed, merged = [], []
        real_plan = CostModel.plan_class
        real_merge = GreedyOptimizer._merge_classes

        def plan_class(model, entry, queries):
            costed.append((entry.name, [q.qid for q in queries]))
            return real_plan(model, entry, queries)

        def merge_classes(classes):
            out = real_merge(classes)
            if len(out) < len(classes):
                merged.extend(
                    (cls.entry.name, [q.qid for q in cls.queries])
                    for cls in out
                    if cls.cost_ms is None
                )
            return out

        monkeypatch.setattr(CostModel, "plan_class", plan_class)
        monkeypatch.setattr(
            GreedyOptimizer, "_merge_classes", staticmethod(merge_classes)
        )
        paper_db = workloads["test4"][0]
        rng = random.Random(45)
        batches = [workloads[test][1] for test in ("test4", "test5", "test6", "test7")]
        batches.append(
            [random_query(paper_db.schema, rng, label=f"d{i}") for i in range(45)]
        )
        n_costings = 0
        for queries in batches:
            optimizer = GreedyOptimizer(paper_db, beam)
            classes = optimizer.grow(queries)
            assert sorted(q.qid for cls in classes for q in cls.queries) == sorted(
                q.qid for q in queries
            )
            n_costings += optimizer.model.n_plan_costings
        from_lists = [call for call in costed if len(call[1]) > 1]
        assert all(call in merged for call in from_lists)
        assert len(costed) < n_costings  # the rest were trials and reads

    def test_a_merged_class_is_costed_from_its_list_once(
        self, workloads, monkeypatch
    ):
        """MergeClass is rare (no sweep workload triggers it), so its one
        consequence for the carried cost is driven by hand: the merged
        class's ``current`` is a ``plan_class`` of its query list the first
        time it is read, a read after that, one costing either way."""
        database, queries = workloads["test4"]
        optimizer = GreedyOptimizer(database, None)
        base = database.catalog.get("ABCD")
        *members, query = queries
        first, second = (
            GreedyOptimizer(database, None).grow(part)[0]
            for part in (members[:1], members[1:])
        )
        first.entry = second.entry = base
        (merged,) = optimizer._merge_classes([first, second])
        assert merged.queries == members and merged.cost_ms is None
        costed = []
        real_plan = CostModel.plan_class

        def plan_class(model, entry, qs):
            costed.append((entry.name, list(qs)))
            return real_plan(model, entry, qs)

        monkeypatch.setattr(CostModel, "plan_class", plan_class)
        fresh = CostModel.for_database(database)
        expected = min(
            (costing.cost_ms, i)
            for i, entry in enumerate(database.catalog.entries())
            if (costing := fresh.plan_class(entry, members + [query]))
        )[0] - fresh.plan_class(base, members).cost_ms
        costed.clear()
        for _ in range(2):
            before = optimizer.model.n_plan_costings
            add = optimizer._cost_of_add(merged, query)
            assert add[0] == expected
            assert optimizer.model.n_plan_costings - before == len(
                database.catalog
            ) + 1
        assert costed == [("ABCD", members)]

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_member_terms_bounded(self, workloads, monkeypatch, algorithm):
        """The deterministic work guard beside the costing pin: however
        many classes a search costs, it builds at most one member term per
        (entry, query) and asks for a predicate's selectivity at most once
        per (entry, query, predicate)."""
        asked = Counter()
        real = CostModel.predicate_selectivity

        def counting(model, entry, predicate):
            asked[entry.name, predicate] += 1
            return real(model, entry, predicate)

        monkeypatch.setattr(CostModel, "predicate_selectivity", counting)
        for test in ("test4", "test5", "test6", "test7"):
            database, queries = workloads[test]
            asked.clear()
            with database.trace():
                database.optimize(queries, algorithm)
            span = database.last_trace.find(f"optimize.{algorithm}")
            n_entries = len(database.catalog)
            assert 0 < span.attrs["member_terms"] <= n_entries * len(queries)
            holders = Counter(p for q in queries for p in q.predicates)
            for (_entry, predicate), n_asked in asked.items():
                assert n_asked <= holders[predicate], (test, predicate)
