"""Seeded load generation for the wall-clock benchmark.

Everything the workloads feed the program — MDX texts, point queries,
arrival schedules, append deltas — is made here from ``--seed`` and the
schema's metadata (dimension, level and member names) alone.  The module
deliberately does not import ``repro.workload.mdx_generator`` or
``repro.workload.serve_load``: the benchmark owns its load, so a later
change to those generators cannot change what is measured.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from repro import DimPredicate, GroupBy, GroupByQuery

AXES = ("COLUMNS", "ROWS", "PAGES")


#: The shapes of an MDX text: per axis, which member paths it carries.
#: ``m`` names a member at the axis's upper level; one level below, ``c``
#: names a member's CHILDREN and ``p`` one picked child — the three forms
#: of the paper's Queries 1-9.  A two-letter axis mixes both levels, which
#: splits the expression: a text denotes 1, 2 or 4 component queries.
#: Shapes fix how selective every query is, so the optimizer faces the
#: same choices on every seed; the seed only picks which members are asked
#: for (and which dimension lands on which axis).
SHAPES = (
    ("m", "c", "p"),
    ("mc", "p", "m"),
    ("mp", "c", "c"),
    ("mc", "mp", "m"),
    ("c", "p", "m"),
    ("mp", "m", "p"),
    ("mc", "c", "m"),
    ("mp", "mc", "c"),
    ("p", "m", "c"),
    ("mc", "m", "c"),
    ("mp", "p", "p"),
    ("mc", "mc", "p"),
)
#: Distinct texts in one dashboard refresh, and how many of them it shows
#: twice (two widgets over the same data): work the session's
#: deduplication removes before planning.
DASHBOARD_TEXTS = 20
DASHBOARD_REPEATS = 4


def _axis_refs(dim, rng: random.Random, upper: int, style: str) -> List[str]:
    """The member paths of one axis of the given style, ``upper`` being
    the depth of its upper level."""
    level = dim.level_name(upper)
    refs = []
    for form in style:
        member = rng.randrange(dim.n_members(upper))
        ref = f"{level}.{dim.member_name(upper, member)}"
        if form != "m":
            ref += ".CHILDREN"
        if form == "p":
            child = rng.choice(dim.children(upper, member))
            ref += f".{dim.member_name(upper - 1, child)}"
        refs.append(ref)
    return refs


def mdx_text(schema, rng: random.Random, shape: Sequence[str], fine: bool = False) -> str:
    """One MDX expression of the given shape: every dimension but the last
    on its own axis (in seeded order), the last dimension sliced at its
    middle level as in the paper's ``FILTER (D.DD1)``.  Axes use the two
    coarse levels of their hierarchy — answerable from the materialized
    views — or, with ``fine``, the two fine ones, which only the base
    table stores."""
    *axis_dims, slicer = schema.dimensions
    order = list(axis_dims)
    rng.shuffle(order)
    clauses = []
    for axis, dim, style in zip(AXES, order, shape):
        upper = dim.n_levels - (2 if fine else 1)
        refs = _axis_refs(dim, rng, upper, style)
        clauses.append(f"{{{', '.join(refs)}}} on {axis}")
    mid = slicer.n_levels - 2
    member = slicer.member_name(mid, rng.randrange(slicer.n_members(mid)))
    clauses.append(f"CONTEXT ABCD FILTER ({slicer.name}.{member})")
    return "\n".join(clauses)


def dashboards(schema, rng: random.Random, n_refreshes: int) -> List[List[str]]:
    """``n_refreshes`` dashboard refreshes of 24 texts: ``DASHBOARD_TEXTS``
    distinct ones cycling through ``SHAPES`` (45 component queries, bar
    chance collisions), the first ``DASHBOARD_REPEATS`` shown twice."""
    refreshes = []
    for _ in range(n_refreshes):
        texts = [
            mdx_text(schema, rng, SHAPES[k % len(SHAPES)])
            for k in range(DASHBOARD_TEXTS)
        ]
        refreshes.append(texts + texts[:DASHBOARD_REPEATS])
    return refreshes


def point_queries(schema, rng: random.Random, n: int) -> List[GroupByQuery]:
    """``n`` point queries: one middle-level member on every axis
    dimension, the last dimension sliced to its first middle-level member
    (the paper's DD1)."""
    queries = []
    n_dims = len(schema.dimensions)
    for i in range(n):
        predicates = []
        for d, dim in enumerate(schema.dimensions):
            mid = dim.n_levels - 2
            member = 0 if d == n_dims - 1 else rng.randrange(dim.n_members(mid))
            predicates.append(DimPredicate(d, mid, frozenset({member})))
        levels = tuple(dim.n_levels - 2 for dim in schema.dimensions)
        queries.append(
            GroupByQuery(GroupBy(levels), tuple(predicates), label=f"probe{i}")
        )
    return queries


def request_texts(
    schema,
    rng: random.Random,
    n_requests: int,
    pool_size: int = 8,
    overlap: float = 0.75,
) -> List[str]:
    """MDX texts of ``n_requests`` service requests in seeded order: a
    share ``overlap`` of them repeat a pool of ``pool_size`` shared
    expressions in equal parts (many users asking for the same few
    views), the rest are private one-offs.  The composition is fixed —
    expression ``k`` has shape ``k mod 12``, and every fourth asks for
    fine levels only the base table stores — so only the members asked
    for and the arrival order change with the seed."""

    def text(k: int) -> str:
        return mdx_text(schema, rng, SHAPES[k % len(SHAPES)], fine=k % 4 == 3)

    n_shared = int(n_requests * overlap)
    pool = [text(k) for k in range(pool_size)]
    texts = [pool[i % pool_size] for i in range(n_shared)]
    texts += [text(pool_size + i) for i in range(n_requests - n_shared)]
    rng.shuffle(texts)
    return texts


def arrival_schedule(rng: random.Random, rate_per_s: float, n: int) -> List[float]:
    """Due times (seconds from the start) of ``n`` open-loop arrivals:
    evenly spaced at ``rate_per_s`` with a seeded jitter of up to a
    quarter interval, so requests neither align with the batching window
    nor bunch into accidental batches."""
    interval = 1.0 / rate_per_s
    return [(i + 0.25 * rng.random()) * interval for i in range(n)]


def append_delta(schema, rng: random.Random, n_rows: int) -> List[Tuple]:
    """``n_rows`` new fact rows: a uniform leaf member per dimension and a
    measure in cents, the shape ``Database.append_rows`` takes."""
    leaves: Sequence[int] = [dim.n_members(0) for dim in schema.dimensions]
    return [
        tuple(rng.randrange(n) for n in leaves)
        + (round(rng.uniform(1.0, 100.0), 2),)
        for _ in range(n_rows)
    ]
