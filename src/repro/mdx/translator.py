"""MDX → component group-by queries.

This is the front half of the paper's Section 2: one MDX expression, whose
axis sets may mix members of *different hierarchy levels*, is split into the
set of relational group-by queries it denotes.  The paper's SalesCube
example yields exactly six component queries; the splitting rule is:

1. flatten every axis into its cells (a cell = one member selection per
   dimension the axis mentions; NEST cross-joins its arguments);
2. group an axis's cells by their *level signature* — the (dimension, level)
   vector — because cells at different levels belong to different group-bys;
3. the component queries are the cross product of the axes' signature
   groups, each combined with the slicer;
4. each component query's target group-by is the per-dimension level of its
   signature (unmentioned dimensions are aggregated to ALL), and each
   mentioned dimension contributes an IN-list predicate.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from ..obs.trace import NULL_TRACER
from ..schema.query import Aggregate, DimPredicate, GroupBy, GroupByQuery
from ..schema.star import StarSchema
from .ast import (
    AxisClause,
    MdxExpression,
    MemberPath,
    NestExpr,
    SetExpr,
    TupleExpr,
)
from .parser import parse_mdx
from .resolver import MdxResolutionError, MeasureRef, ResolvedSelection, resolve_path

#: A cell: one or more bound selections (one per dimension the axis uses).
Cell = Tuple[ResolvedSelection, ...]


def _bound(schema: StarSchema, path: MemberPath, where: str) -> ResolvedSelection:
    bound = resolve_path(schema, path)
    if isinstance(bound, MeasureRef):
        raise MdxResolutionError(
            f"measure {bound.name!r} cannot appear {where}"
        )
    return bound


def _cell(schema: StarSchema, expr) -> Cell:
    """The one cell of a member path or a tuple."""
    if isinstance(expr, TupleExpr):
        return tuple(_bound(schema, item, "in a tuple") for item in expr.items)
    return (_bound(schema, expr, "on an axis"),)


def _axis_expr_cells(schema: StarSchema, expr) -> List[Cell]:
    """An axis expression's cells, in the order they were written (NEST
    cross-joins its arguments')."""
    if isinstance(expr, SetExpr):
        return [_cell(schema, element) for element in expr.elements]
    if isinstance(expr, (MemberPath, TupleExpr)):
        return [_cell(schema, expr)]
    if isinstance(expr, NestExpr):
        per_arg = [_axis_expr_cells(schema, arg) for arg in expr.args]
        return [
            tuple(sel for cell in combo for sel in cell)
            for combo in itertools.product(*per_arg)
        ]
    raise TypeError(f"unexpected axis expression {expr!r}")


#: One dimension of a signature group: its index, its level and the
#: group's predicate there (None at ALL).
Part = Tuple[int, int, Optional[DimPredicate]]


def _part(sel: ResolvedSelection) -> Part:
    return sel.dim_index, sel.level, DimPredicate(*sel) if sel.member_ids else None


def _group_axis(schema: StarSchema, clause: AxisClause) -> List[List[Part]]:
    """Split one axis into signature groups — a cell's signature is its
    sorted (dim_index, level) pairs — each the merged selection per
    dimension as a :data:`Part`, in signature order."""
    groups: Dict[Tuple[Tuple[int, int], ...], Dict[int, set]] = {}
    for cell in _axis_expr_cells(schema, clause.expr):
        signature = tuple(sorted((sel.dim_index, sel.level) for sel in cell))
        members = groups.get(signature)
        if members is None:
            members = groups[signature] = {d: set() for d, _ in signature}
            if len(members) != len(signature):
                raise MdxResolutionError(
                    "a tuple mentions the same dimension twice"
                )
        for sel in cell:
            members[sel.dim_index].update(sel.member_ids)
    return [
        [
            _part(ResolvedSelection(d, level, frozenset(members[d])))
            for d, level in signature
        ]
        for signature, members in sorted(groups.items())
    ]


def _resolve_slicer(
    schema: StarSchema, paths: Sequence[MemberPath]
) -> Dict[int, ResolvedSelection]:
    out: Dict[int, ResolvedSelection] = {}
    for path in paths:
        bound = resolve_path(schema, path)
        if isinstance(bound, MeasureRef):
            continue  # selecting the cube's (only) measure
        if bound.dim_index in out:
            raise MdxResolutionError(
                f"FILTER constrains dimension "
                f"{schema.dimensions[bound.dim_index].name!r} twice"
            )
        out[bound.dim_index] = bound
    return out


def translate_expression(
    schema: StarSchema,
    expression: MdxExpression,
    label_prefix: str = "MDX",
    tracer=NULL_TRACER,
) -> List[GroupByQuery]:
    """Split a parsed MDX expression into its component group-by queries.

    ``tracer`` (optional) receives ``mdx.resolve`` and ``mdx.translate``
    spans around member resolution and query assembly.
    """
    with tracer.span("mdx.resolve", n_axes=len(expression.axes)):
        axis_groups = [
            _group_axis(schema, clause) for clause in expression.axes
        ]
        slicer = _resolve_slicer(schema, expression.slicer)
    with tracer.span("mdx.translate") as span:
        queries = _assemble_queries(schema, axis_groups, slicer, label_prefix)
        span.set("n_queries", len(queries))
    return queries


def _assemble_queries(
    schema: StarSchema,
    axis_groups: List[List[List[Part]]],
    slicer: Dict[int, ResolvedSelection],
    label_prefix: str,
) -> List[GroupByQuery]:
    queries: List[GroupByQuery] = []
    slicer_parts = [_part(sel) for sel in slicer.values()]
    for combo in itertools.product(*axis_groups):
        levels = list(schema.all_levels())
        predicates: List[DimPredicate] = []
        seen: set = set()
        for group in combo:
            for dim_index, level, predicate in group:
                if dim_index in seen:
                    raise MdxResolutionError(
                        f"dimension {schema.dimensions[dim_index].name!r} "
                        f"appears on two axes"
                    )
                seen.add(dim_index)
                levels[dim_index] = level
                if predicate is not None:
                    predicates.append(predicate)
        for dim_index, level, predicate in slicer_parts:
            if dim_index not in seen:
                # Slicer on an otherwise-unmentioned dimension: it sets both
                # the target level and the predicate.
                levels[dim_index] = level
            # Else the slicer is on a dimension an axis already groups by:
            # its member set becomes an additional (ANDed) predicate — e.g.
            # months on ROWS within FILTER([1991]).
            if predicate is not None:
                predicates.append(predicate)
        predicates.sort(key=_by_dimension)
        queries.append(
            GroupByQuery(
                groupby=GroupBy(tuple(levels)),
                predicates=tuple(predicates),
                aggregate=Aggregate.SUM,
                label=f"{label_prefix}[{len(queries) + 1}]",
            )
        )
    return queries


def _by_dimension(predicate: DimPredicate) -> int:
    return predicate.dim_index


def translate_mdx(
    schema: StarSchema, text: str, label_prefix: str = "MDX", tracer=NULL_TRACER
) -> List[GroupByQuery]:
    """Parse + translate one MDX string into its component queries.

    ``tracer`` (optional) wraps the phases in ``mdx.parse``,
    ``mdx.resolve``, and ``mdx.translate`` spans.
    """
    with tracer.span("mdx.parse", n_chars=len(text)):
        expression = parse_mdx(text)
    return translate_expression(schema, expression, label_prefix, tracer=tracer)
