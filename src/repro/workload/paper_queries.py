"""Queries 1–9 from the paper's Section 7.3, plus the MDX texts they came
from.

Each query is built programmatically against the paper schema; the matching
MDX string is kept alongside so the test suite can verify that parsing the
MDX yields exactly the same component query (the two constructions are
independent code paths).

Reconstruction notes: the scan's prime marks are unreliable, so levels follow
the paper's *stated* target group-bys and selectivities ("Query 5 is
selective on dimension A …").  Child members are named globally (children of
A2 are AA4..AA6), so a few member names differ from the paper's per-parent
numbering; the selected position within the parent is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..core.optimizer.plans import JoinMethod
from ..schema.dimension import Dimension
from ..schema.query import DimPredicate, GroupBy, GroupByQuery
from ..schema.star import StarSchema

#: MDX texts for Queries 1–9 (Section 7.3).  ``FILTER (D.DD1)`` is the
#: paper's slicer: dimension D restricted to the D' member DD1.
PAPER_MDX: Dict[int, str] = {
    1: """
        {A''.A1.CHILDREN} on COLUMNS
        {B''.B1} on ROWS
        {C''.C1} on PAGES
        CONTEXT ABCD FILTER (D.DD1)
    """,
    2: """
        {A''.A1, A''.A2, A''.A3} on COLUMNS
        {B''.B2.CHILDREN} on ROWS
        {C''.C2} on PAGES
        CONTEXT ABCD FILTER (D.DD1)
    """,
    3: """
        {A''.A2} on COLUMNS
        {B''.B2} on ROWS
        {C''.C1, C''.C3} on PAGES
        CONTEXT ABCD FILTER (D.DD1)
    """,
    4: """
        {A''.A3, A''.A2} on COLUMNS
        {B''.B3} on ROWS
        {C''.C1, C''.C2, C''.C3} on PAGES
        CONTEXT ABCD FILTER (D.DD1)
    """,
    5: """
        {A''.A1.CHILDREN.AA2} on COLUMNS
        {B''.B1} on ROWS
        {C''.C3} on PAGES
        CONTEXT ABCD FILTER (D.DD1)
    """,
    6: """
        {A''.A2.CHILDREN.AA5} on COLUMNS
        {B''.B1.CHILDREN} on ROWS
        {C''.C3.CHILDREN.CC8} on PAGES
        CONTEXT ABCD FILTER (D.DD1)
    """,
    7: """
        {A''.A3.CHILDREN.AA8} on COLUMNS
        {B''.B2.CHILDREN.BB6} on ROWS
        {C''.C1.CHILDREN.CC1} on PAGES
        CONTEXT ABCD FILTER (D.DD1)
    """,
    8: """
        {A''.A1.CHILDREN.AA2} on COLUMNS
        {B''.B2.CHILDREN.BB4} on ROWS
        {C''.C1} on PAGES
        CONTEXT ABCD FILTER (D.DD1)
    """,
    9: """
        {A''.A1.CHILDREN} on COLUMNS
        {B''.B2, B''.B3} on ROWS
        {C''.C1.CHILDREN} on PAGES
        CONTEXT ABCD FILTER (D.DD1)
    """,
}


def _members(dim: Dimension, level: int, names: Sequence[str]) -> frozenset:
    return frozenset(dim.member_id(level, name) for name in names)


def _children(dim: Dimension, parent_name: str) -> Tuple[int, frozenset]:
    depth, member = dim.find_member(parent_name)
    return depth - 1, frozenset(dim.children(depth, member))


def paper_queries(schema: StarSchema) -> Dict[int, GroupByQuery]:
    """Build Queries 1–9 against (an instance of) the paper schema."""
    dim_a, dim_b, dim_c, dim_d = schema.dimensions
    top, mid = 2, 1

    def pred(dim_index: int, level: int, names: Sequence[str]) -> DimPredicate:
        """Predicate from member names at one level of one dimension."""
        dim = schema.dimensions[dim_index]
        return DimPredicate(dim_index, level, _members(dim, level, names))

    def children_pred(dim_index: int, parent: str) -> DimPredicate:
        """Predicate selecting a member's children."""
        dim = schema.dimensions[dim_index]
        level, members = _children(dim, parent)
        return DimPredicate(dim_index, level, members)

    d_filter = pred(3, mid, ["DD1"])

    queries: Dict[int, GroupByQuery] = {}

    queries[1] = GroupByQuery(
        groupby=GroupBy((mid, top, top, mid)),
        predicates=(
            children_pred(0, "A1"),
            pred(1, top, ["B1"]),
            pred(2, top, ["C1"]),
            d_filter,
        ),
        label="Query 1",
    )
    queries[2] = GroupByQuery(
        groupby=GroupBy((top, mid, top, mid)),
        predicates=(
            pred(0, top, ["A1", "A2", "A3"]),
            children_pred(1, "B2"),
            pred(2, top, ["C2"]),
            d_filter,
        ),
        label="Query 2",
    )
    queries[3] = GroupByQuery(
        groupby=GroupBy((top, top, top, mid)),
        predicates=(
            pred(0, top, ["A2"]),
            pred(1, top, ["B2"]),
            pred(2, top, ["C1", "C3"]),
            d_filter,
        ),
        label="Query 3",
    )
    queries[4] = GroupByQuery(
        groupby=GroupBy((top, top, top, mid)),
        predicates=(
            pred(0, top, ["A3", "A2"]),
            pred(1, top, ["B3"]),
            pred(2, top, ["C1", "C2", "C3"]),
            d_filter,
        ),
        label="Query 4",
    )
    queries[5] = GroupByQuery(
        groupby=GroupBy((mid, top, top, mid)),
        predicates=(
            pred(0, mid, ["AA2"]),
            pred(1, top, ["B1"]),
            pred(2, top, ["C3"]),
            d_filter,
        ),
        label="Query 5",
    )
    queries[6] = GroupByQuery(
        groupby=GroupBy((mid, mid, mid, mid)),
        predicates=(
            pred(0, mid, ["AA5"]),
            children_pred(1, "B1"),
            pred(2, mid, ["CC8"]),
            d_filter,
        ),
        label="Query 6",
    )
    queries[7] = GroupByQuery(
        groupby=GroupBy((mid, mid, mid, mid)),
        predicates=(
            pred(0, mid, ["AA8"]),
            pred(1, mid, ["BB6"]),
            pred(2, mid, ["CC1"]),
            d_filter,
        ),
        label="Query 7",
    )
    queries[8] = GroupByQuery(
        groupby=GroupBy((mid, mid, top, mid)),
        predicates=(
            pred(0, mid, ["AA2"]),
            pred(1, mid, ["BB4"]),
            pred(2, top, ["C1"]),
            d_filter,
        ),
        label="Query 8",
    )
    queries[9] = GroupByQuery(
        groupby=GroupBy((mid, top, mid, mid)),
        predicates=(
            children_pred(0, "A1"),
            pred(1, top, ["B2", "B3"]),
            children_pred(2, "C1"),
            d_filter,
        ),
        label="Query 9",
    )
    return queries


#: The MDX expressions (query sets) of Tests 4–7, Section 7.5 (Table 2).
PAPER_TESTS: Dict[str, List[int]] = {
    "test4": [1, 2, 3],
    "test5": [2, 3, 5],
    "test6": [6, 7, 8],
    "test7": [1, 7, 9],
}


@dataclass(frozen=True)
class PaperFigure:
    """The forced plan of one of Tests 1–3 (Section 7.4): the ``fixed``
    queries always run as hash joins on ``source``; the ``added`` ones join
    them one at a time, each forced to ``method``."""

    test: str
    title: str
    source: str
    fixed: Tuple[int, ...]
    added: Tuple[int, ...]
    method: JoinMethod


#: Figures 10–12, keyed as benchmark records key them.  Figure 11 adds its
#: queries in overlap order: Q5 and Q8 select the same A' member.
PAPER_FIGURES: Dict[str, PaperFigure] = {
    "fig10_shared_scan": PaperFigure(
        "test1", "Figure 10 - shared scan (Q1-4 hash on ABCD)",
        "ABCD", (), (1, 2, 3, 4), JoinMethod.HASH,
    ),
    "fig11_shared_index": PaperFigure(
        "test2", "Figure 11 - shared index (Q5,8,6,7 on A'B'C'D)",
        "A'B'C'D", (), (5, 8, 6, 7), JoinMethod.INDEX,
    ),
    "fig12_hybrid": PaperFigure(
        "test3", "Figure 12 - hybrid (Q3 hash + Q5,6,7 index on A'B'C'D)",
        "A'B'C'D", (3,), (5, 6, 7), JoinMethod.INDEX,
    ),
}

#: Query ids of every paper test: Tests 1–3 are the figure workloads (plans
#: forced in the figures, free in the calibration / correctness sweeps),
#: Tests 4–7 the Table 2 expressions.
ALL_PAPER_TESTS: Dict[str, List[int]] = {
    **{fig.test: [*fig.fixed, *fig.added] for fig in PAPER_FIGURES.values()},
    **PAPER_TESTS,
}
