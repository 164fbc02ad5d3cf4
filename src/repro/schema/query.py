"""Group-by queries: the relational form of one MDX component query.

Each component query of an MDX expression is, in relational terms, a
star join followed by aggregation at some level of each dimension hierarchy
(paper, Section 2).  We capture that as a target :class:`GroupBy` plus at
most one :class:`DimPredicate` per dimension.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Dict, Optional, Sequence, Tuple

from .star import StarSchema


@dataclass(frozen=True, order=True)
class GroupBy:
    """A point in the group-by lattice: one hierarchy depth per dimension."""

    levels: Tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", tuple(int(lv) for lv in self.levels))

    @property
    def n_dims(self) -> int:
        """Number of dimensions."""
        return len(self.levels)

    def level(self, dim_index: int) -> int:
        """Hierarchy depth of one dimension."""
        return self.levels[dim_index]

    def level_sum(self) -> int:
        """The paper's ``GroupbyLevel``: total coarseness (smaller = finer)."""
        return sum(self.levels)

    def derivable_from(self, source: "GroupBy") -> bool:
        """True if this group-by can be computed from ``source`` — i.e.
        ``source`` is at least as fine on every dimension."""
        if len(source.levels) != len(self.levels):
            raise ValueError("group-bys belong to different schemas")
        return all(s <= t for s, t in zip(source.levels, self.levels))

    def name(self, schema: StarSchema) -> str:
        """Display name."""
        return schema.groupby_name(self.levels)

    @classmethod
    def parse(cls, schema: StarSchema, text: str) -> "GroupBy":
        """Parse the textual form into an instance."""
        return cls(schema.parse_groupby_name(text))


class Aggregate(Enum):
    """Supported aggregate functions.

    SUM/COUNT/MIN/MAX are distributive (re-aggregable from a same-kind
    view); AVG is algebraic — it is computed from raw data as SUM/COUNT and
    cannot be re-aggregated from an AVG rollup, so AVG views cannot be
    materialized (see :func:`repro.schema.lattice.aggregate_compatible`).
    """

    SUM = "sum"
    COUNT = "count"
    MIN = "min"
    MAX = "max"
    AVG = "avg"


@dataclass(frozen=True)
class DimPredicate:
    """Selection on one dimension: value rolled up to ``level`` must be one
    of ``member_ids`` (the relational form of an MDX axis/filter set)."""

    dim_index: int
    level: int
    member_ids: frozenset

    def __post_init__(self) -> None:
        object.__setattr__(self, "member_ids", frozenset(self.member_ids))
        if not self.member_ids:
            raise ValueError("a predicate needs at least one member")

    def selectivity(self, schema: StarSchema) -> float:
        """Fraction of the dimension's domain this predicate keeps, assuming
        uniform membership (the standard optimizer assumption)."""
        n = schema.level_sizes[self.dim_index][self.level]
        return min(1.0, len(self.member_ids) / n)

    def describe(self, schema: StarSchema) -> str:
        """Human-readable one-line/short rendering for display."""
        dim = schema.dimensions[self.dim_index]
        names = sorted(dim.member_name(self.level, m) for m in self.member_ids)
        shown = ", ".join(names[:4]) + (", …" if len(names) > 4 else "")
        return f"{dim.level_name(self.level)} IN ({shown})"


_query_ids = itertools.count(1)


@dataclass(frozen=True)
class GroupByQuery:
    """One dimensional query: target group-by, predicates, and aggregate.

    ``label`` is a display name ("Query 5"); ``qid`` is unique per process so
    plans can reference queries stably even when two queries are otherwise
    identical.
    """

    groupby: GroupBy
    predicates: Tuple[DimPredicate, ...] = ()
    aggregate: Aggregate = Aggregate.SUM
    label: str = ""
    qid: int = field(default_factory=lambda: next(_query_ids))

    def predicate_on(self, dim_index: int) -> Optional[DimPredicate]:
        """The first (typically only) predicate on one dimension, if any.

        A dimension may carry several predicates — e.g. an MDX axis at month
        level combined with a year-level slicer; they are ANDed.
        """
        for pred in self.predicates:
            if pred.dim_index == dim_index:
                return pred
        return None

    def predicates_on(self, dim_index: int) -> Tuple[DimPredicate, ...]:
        """All predicates on one dimension (ANDed at evaluation)."""
        return tuple(p for p in self.predicates if p.dim_index == dim_index)

    def required_levels(self) -> Tuple[int, ...]:
        """Per dimension, the finest level the source table must provide:
        the finer of the target level and any predicate level."""
        return self._required_levels

    @cached_property
    def _required_levels(self) -> Tuple[int, ...]:
        # Computed once: the query is frozen, and every answerability
        # check of every candidate table reads it.
        required = list(self.groupby.levels)
        for pred in self.predicates:
            required[pred.dim_index] = min(required[pred.dim_index], pred.level)
        return tuple(required)

    def answerable_from(self, source_levels: Sequence[int]) -> bool:
        """True if a table storing ``source_levels`` can answer this query."""
        required = self.required_levels()
        if len(source_levels) != len(required):
            raise ValueError("source has a different number of dimensions")
        return all(s <= r for s, r in zip(source_levels, required))

    def selectivity(self, schema: StarSchema) -> float:
        """Estimated fraction of source rows passing all predicates."""
        sel = 1.0
        for pred in self.predicates:
            sel *= pred.selectivity(schema)
        return sel

    def validate(self, schema: StarSchema) -> None:
        """Raise if the query is not well-formed against ``schema``.

        The query and the schema never change, so a query is checked once
        per schema: the session that queues it and the optimizer that plans
        it share one check."""
        if self.__dict__.get("_valid_for") is schema:
            return
        schema.check_levels(self.groupby.levels)
        for pred in self.predicates:
            dim = schema.dimensions[pred.dim_index]
            # Members per level, ALL last: the real levels are all but one.
            sizes = schema.level_sizes[pred.dim_index]
            if not 0 <= pred.level < len(sizes) - 1:
                raise ValueError(
                    f"predicate level {pred.level} invalid for dimension "
                    f"{dim.name!r}"
                )
            n = sizes[pred.level]
            if min(pred.member_ids) < 0 or max(pred.member_ids) >= n:
                bad = [m for m in pred.member_ids if not 0 <= m < n]
                raise ValueError(
                    f"predicate members {bad} out of range for "
                    f"{dim.level_name(pred.level)}"
                )
        self.__dict__["_valid_for"] = schema

    def describe(self, schema: StarSchema) -> str:
        """Human-readable one-line/short rendering for display."""
        head = self.label or f"Q{self.qid}"
        preds = " AND ".join(p.describe(schema) for p in self.predicates)
        where = f" WHERE {preds}" if preds else ""
        return (
            f"{head}: {self.aggregate.value.upper()}({schema.measure}) "
            f"GROUP BY {self.groupby.name(schema)}{where}"
        )

    def display_name(self) -> str:
        """Label if set, else the stable Q<qid> form."""
        return self.label or f"Q{self.qid}"


def query_sort_key(query: GroupByQuery) -> Tuple[int, Tuple[int, ...], int]:
    """The ETPLG/GG processing order ("Sort G by GroupbyLevel"): finest
    target group-bys first, deterministic ties."""
    return (query.groupby.level_sum(), query.groupby.levels, query.qid)
