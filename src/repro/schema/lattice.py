"""The group-by lattice: derivability, enumeration, and size estimation.

Choosing which materialized group-by to compute a query from is the heart of
all three of the paper's algorithms.  This module provides the lattice
predicates they rely on, plus the standard cardinality estimators used by the
cost model:

* Cardenas' formula for the expected number of distinct groups when ``n``
  rows fall uniformly into ``m`` possible groups;
* the same formula for the expected number of distinct *pages* touched by a
  random probe of ``k`` rows — the dominant term of index-join I/O cost.
"""

from __future__ import annotations

import itertools
import math
from typing import Collection, Iterable, Iterator, List, Optional, Sequence, Tuple

from .query import Aggregate, GroupBy, GroupByQuery
from .star import StarSchema


def can_answer(source_levels: Sequence[int], query: GroupByQuery) -> bool:
    """True if a table storing ``source_levels`` can answer ``query``
    (levels only; see :func:`source_can_answer` for the aggregate rule)."""
    return query.answerable_from(source_levels)


def aggregate_compatible(
    query_aggregate: Aggregate, source_aggregate: Optional[str]
) -> bool:
    """Can a query with ``query_aggregate`` be computed from a table whose
    measure holds ``source_aggregate``?

    Raw base data (``source_aggregate is None``) supports every aggregate.
    A materialized group-by only supports the aggregate it was built with:
    SUMs re-aggregate by summing, MIN by min, MAX by max, and COUNTs
    re-aggregate by *summing* the stored counts.  AVG is algebraic — an AVG
    of AVGs is wrong — so AVG queries are answerable from raw data only.
    """
    if source_aggregate is None:
        return True
    if query_aggregate is Aggregate.AVG:
        return False
    return query_aggregate.value == source_aggregate


def effective_aggregate(
    query_aggregate: Aggregate, source_aggregate: Optional[str]
) -> Aggregate:
    """The fold to apply over the *source's* measure column when answering
    a ``query_aggregate`` query: identical to the query's aggregate except
    that COUNT over a COUNT view sums the stored counts."""
    if source_aggregate == "count" and query_aggregate is Aggregate.COUNT:
        return Aggregate.SUM
    return query_aggregate


def intermediate_source_aggregate(
    source_aggregate: Optional[str], intermediate: GroupByQuery
) -> str:
    """What a derive step's intermediate *holds* in its measure column once
    materialized — the source's rollup kind when reading a view, else the
    intermediate's own aggregate kind (raw data folds into that)."""
    return source_aggregate or intermediate.aggregate.value


def source_can_answer(
    source_levels: Sequence[int],
    source_aggregate: Optional[str],
    query: GroupByQuery,
) -> bool:
    """Full answerability: fine-enough levels *and* a compatible measure."""
    return query.answerable_from(source_levels) and aggregate_compatible(
        query.aggregate, source_aggregate
    )


def build_keys(
    schema: StarSchema, source_levels: Sequence[int], query: GroupByQuery
) -> Tuple[tuple, ...]:
    """The dimension structures ``query``'s pipeline needs built over a
    source stored at ``source_levels``: per dimension, one rollup map
    ``(dim, from level, target level)`` unless the target is the stored or
    the ALL level, then one mask ``(dim, from level, level, members)`` per
    *predicate* (a dimension may carry two, see
    :meth:`GroupByQuery.predicate_on`).  What a class builds of them is
    :func:`new_builds`'; the operators charge it, the cost model prices it
    and EXPLAIN lists the keys.

    Worked out once per (query, source levels): the query keeps them, one
    entry per source it was asked about — at most the catalog's tables and
    a plan's intermediates."""
    all_levels = schema.all_levels()
    memo = query.__dict__.setdefault("_build_keys", {})
    source_levels = tuple(source_levels)
    found = memo.get((source_levels, all_levels))
    if found is not None:
        return found
    keys = []
    for d, target in enumerate(query.groupby.levels):
        stored = source_levels[d]
        if target != stored and target != all_levels[d]:
            keys.append((d, stored, target))
        for pred in query.predicates:
            if pred.dim_index == d:
                keys.append((d, stored, pred.level, pred.member_ids))
    memo[source_levels, all_levels] = found = tuple(keys)
    return found


def new_builds(
    schema: StarSchema, held: Collection, keys: Iterable[tuple]
) -> Tuple[List[tuple], int, List[int]]:
    """What a class holding the structures ``held`` — their build keys
    and, as ints, the dimensions they are on — builds for a next member
    needing ``keys`` (its :func:`build_keys`): the keys it holds not yet,
    in key order and each once; the hash entries they add, one per
    source-level member (``build_counts``' ``entries``); and the dimensions
    they are the first keys on, in key order — a class scans a stored
    dimension table once, with its first structure there.  Holding both
    answers is ``held.update(new, first)``."""
    sizes = schema.level_sizes
    # Insertion-ordered, with O(1) membership: an operator passes the keys
    # of all its members at once.
    new: dict = {}
    entries, first = 0, []
    for key in keys:
        if key in held or key in new:
            continue
        new[key] = None
        d = key[0]
        entries += sizes[d][key[1]]
        if d not in held and d not in first:
            first.append(d)
    return list(new), entries, first


def common_sources(
    source_candidates: Iterable[Tuple[str, Sequence[int]]],
    queries: Sequence[GroupByQuery],
) -> List[str]:
    """Names of candidate tables able to answer *all* of ``queries``."""
    return [
        name
        for name, levels in source_candidates
        if all(can_answer(levels, q) for q in queries)
    ]


def expected_distinct(m: float, n: float) -> float:
    """Cardenas: expected distinct values when n items draw uniformly from a
    domain of size m."""
    if m <= 0 or n <= 0:
        return 0.0
    if n / m > 50:  # saturated; avoids pow underflow
        return float(m)
    return m * (1.0 - (1.0 - 1.0 / m) ** n)


def groupby_domain_size(schema: StarSchema, levels: Sequence[int]) -> int:
    """Size of the cross-product domain of a group-by's level members."""
    size = 1
    for dim, level in zip(schema.dimensions, levels):
        size *= dim.n_members(level)
    return size


def estimate_groupby_rows(
    schema: StarSchema, levels: Sequence[int], n_base_rows: int
) -> int:
    """Expected row count of the group-by ``levels`` over a base table of
    ``n_base_rows`` uniformly distributed fact rows."""
    domain = groupby_domain_size(schema, levels)
    return max(1, round(expected_distinct(domain, n_base_rows)))


def expected_pages_touched(n_rows: int, n_pages: int, k_rows: float) -> float:
    """Expected distinct pages containing at least one of ``k_rows`` rows
    drawn uniformly from a table of ``n_rows`` rows on ``n_pages`` pages."""
    if n_pages <= 0 or k_rows <= 0:
        return 0.0
    k = min(float(k_rows), float(n_rows))
    return expected_distinct(n_pages, k)


def enumerate_lattice(schema: StarSchema) -> Iterator[GroupBy]:
    """Every group-by of the schema, finest (LL) first, coarsest (ALL) last."""
    ranges = [range(dim.all_level + 1) for dim in schema.dimensions]
    points = sorted(
        itertools.product(*ranges), key=lambda levels: (sum(levels), levels)
    )
    for levels in points:
        yield GroupBy(tuple(levels))


def lattice_size(schema: StarSchema) -> int:
    """Number of group-bys in the lattice (incl. ALL pseudo-levels)."""
    return math.prod(dim.all_level + 1 for dim in schema.dimensions)


def ancestors(schema: StarSchema, groupby: GroupBy) -> Iterator[GroupBy]:
    """Group-bys derivable *from* ``groupby`` (coarser-or-equal everywhere),
    excluding ``groupby`` itself."""
    ranges = [
        range(level, dim.all_level + 1)
        for dim, level in zip(schema.dimensions, groupby.levels)
    ]
    for levels in itertools.product(*ranges):
        candidate = GroupBy(tuple(levels))
        if candidate != groupby:
            yield candidate


def descendants(schema: StarSchema, groupby: GroupBy) -> Iterator[GroupBy]:
    """Group-bys that can derive ``groupby`` (finer-or-equal everywhere),
    excluding ``groupby`` itself."""
    ranges = [range(0, level + 1) for level in groupby.levels]
    for levels in itertools.product(*ranges):
        candidate = GroupBy(tuple(levels))
        if candidate != groupby:
            yield candidate
