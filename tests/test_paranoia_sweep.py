"""The full-paper differential sweep.

Every query set of the paper's Tests 1–7, under every optimization
algorithm, executed with paranoia on: plans are structurally validated,
every shared-operator result is cross-checked group-for-group against the
naive reference, and served cache hits are recomputed.  Part of tier-1; on
its own::

    PYTHONPATH=src python -m pytest tests/test_paranoia_sweep.py -q
"""

import pytest

from repro.check import first_divergence, reference_answer
from repro.engine.result_cache import attach_cache
from repro.obs.metrics import default_registry
from repro.workload.paper_queries import ALL_PAPER_TESTS, paper_queries
from repro.workload.paper_schema import PaperConfig, build_paper_database

ALGORITHMS = ("naive", "tplo", "etplg", "gg", "dag")


@pytest.fixture(scope="module")
def db():
    database = build_paper_database(config=PaperConfig(scale=0.004))
    database.paranoia = True
    return database


@pytest.fixture(scope="module")
def qs(db):
    return paper_queries(db.schema)


def divergences():
    try:
        return default_registry().get("check.divergences").dump()
    except KeyError:
        return 0


@pytest.mark.parametrize("test_name", sorted(ALL_PAPER_TESTS))
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_paper_workload_has_zero_divergences(db, qs, test_name, algorithm):
    batch = [qs[i] for i in ALL_PAPER_TESTS[test_name]]
    before = divergences()
    report = db.run_queries(batch, algorithm)
    assert len(report.results) == len(batch)
    for query in batch:
        # Paranoia already cross-checked inside execute; assert the same
        # agreement explicitly so this test stands on its own.  (Some paper
        # queries legitimately select zero groups at sweep scale — an empty
        # answer matching the reference is correct, not suspicious.)
        divergence = first_divergence(
            reference_answer(db, query).groups,
            report.result_for(query).groups,
        )
        assert divergence is None, divergence.describe()
    assert divergences() == before


def test_sweep_with_result_cache(db, qs):
    """The cached path, rechecked: repeat batches must serve hits that
    survive recomputation."""
    attach_cache(db)
    try:
        batch = [qs[i] for i in ALL_PAPER_TESTS["test4"]]
        db.run_queries(batch, "gg")
        before = divergences()
        report = db.run_queries(batch, "gg")
        assert report.n_cache_hits == len(batch)
        assert divergences() == before
    finally:
        # The module-scoped db outlives this test; detach the cache.
        db.result_cache = None
