"""Benchmark fixtures.

* ``REPRO_BENCH_SCALE`` — dataset scale (fraction of the paper's 2,000,000
  rows; default 0.01 = 20,000).

All benchmarks print paper-style rows through the ``report`` fixture; run
with ``pytest benchmarks/ --benchmark-only -s`` to see them inline (they
are also echoed at the end without ``-s``).
"""

from __future__ import annotations

import os

import pytest

from repro.workload.paper_queries import paper_queries
from repro.workload.paper_schema import build_paper_database


def bench_scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.01"))


@pytest.fixture(scope="session")
def db():
    return build_paper_database(scale=bench_scale())


@pytest.fixture(scope="session")
def qs(db):
    return paper_queries(db.schema)


class _Reporter:
    def __init__(self):
        self.sections = []

    def __call__(self, text: str) -> None:
        self.sections.append(text)
        print("\n" + text)


@pytest.fixture(scope="session")
def report():
    reporter = _Reporter()
    yield reporter
    if reporter.sections:
        print("\n" + "=" * 72)
        print("PAPER REPRODUCTION OUTPUT (all sections)")
        print("=" * 72)
        for section in reporter.sections:
            print()
            print(section)
