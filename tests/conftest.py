"""Shared fixtures: small paper databases, schemas, and query sets."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from repro.schema.dimension import Dimension
from repro.schema.star import StarSchema
from repro.workload.generator import generate_fact_rows
from repro.workload.paper_queries import paper_queries
from repro.workload.paper_schema import PaperConfig, build_paper_database, build_paper_schema

#: The nightly exploration: ``pytest --hypothesis-profile long`` (the default
#: profile is hypothesis's own; tests/test_batch_machine.py bounds its
#: tier-1 run itself and yields to this profile when it is loaded).
settings.register_profile(
    "long",
    max_examples=2000,
    stateful_step_count=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def make_tiny_schema() -> StarSchema:
    """A deliberately small two-dimension schema for focused unit tests.

    X: 12 leaves -> 6 mids -> 2 tops; Y: 8 leaves -> 4 mids -> 2 tops.
    """
    x = Dimension.build_uniform(
        "X", ("X", "X'", "X''"), n_top=2, fanouts=(3, 2)
    )
    y = Dimension.build_uniform(
        "Y", ("Y", "Y'", "Y''"), n_top=2, fanouts=(2, 2)
    )
    return StarSchema("tiny", [x, y], measure="m")


@pytest.fixture(scope="session")
def tiny_schema() -> StarSchema:
    return make_tiny_schema()


@pytest.fixture(scope="session")
def paper_schema():
    return build_paper_schema()


@pytest.fixture(scope="session")
def paper_db():
    """An instance of the paper's full database (base + six materialized
    group-bys + indexes) at the default bench scale, where the paper's
    scan-vs-probe geometry holds.  Session-scoped: tests must not mutate
    the catalog; stats/pool state is fine to touch."""
    return build_paper_database(scale=0.01)


@pytest.fixture(scope="session")
def paper_qs(paper_db):
    return paper_queries(paper_db.schema)


@pytest.fixture()
def fresh_paper_db():
    """A private, very small paper database for tests that mutate state."""
    return build_paper_database(config=PaperConfig(scale=0.001))


@pytest.fixture(scope="session")
def tiny_rows(tiny_schema):
    return generate_fact_rows(tiny_schema, 500, seed=3)
