"""Binding MDX member paths against a star schema's hierarchies.

A path like ``A''.A1.CHILDREN.AA2`` resolves to a set of members at one
level of one dimension: here the single A'-level member AA2, checked to be a
child of A1.  ``D.DD1`` resolves via the dimension-name hint; ``Products.All``
resolves to the ALL pseudo-level (aggregate everything, no predicate); a
path equal to the schema's measure name resolves to a measure reference
(as in the paper's ``FILTER(Sales, [1991], Products.All)``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple
from weakref import WeakKeyDictionary

from ..schema.star import StarSchema
from .ast import MemberPath


class MdxResolutionError(ValueError):
    """A syntactically valid path that does not bind against the schema."""


class ResolvedSelection(NamedTuple):
    """A bound member set: ``member_ids`` at ``level`` of one dimension.

    An ALL-level selection has ``level == dim.all_level`` and no members —
    it contributes no predicate and aggregates the dimension away.
    """

    dim_index: int
    level: int
    member_ids: frozenset

    @property
    def is_all(self) -> bool:
        """True for an ALL-level selection (no predicate)."""
        return not self.member_ids


@dataclass(frozen=True)
class MeasureRef:
    """A reference to the cube's measure (legal only in FILTER)."""

    name: str


class _Names:
    """One schema's names, indexed once: each dimension or level name the
    leading segment may be (the first in dimension, then level, order
    wins), each member name's ``(dim_index, level, member)`` bindings in
    dimension order, and per (dimension, level) each member's parent and
    children."""

    def __init__(self, schema: StarSchema):
        self.hints: Dict[str, Tuple[int, Optional[int]]] = {}
        self.members: Dict[str, List[Tuple[int, int, int]]] = {}
        self.parents: List[List[List[int]]] = []
        self.children: List[List[Tuple[Tuple[int, ...], ...]]] = []
        for d, dim in enumerate(schema.dimensions):
            self.hints.setdefault(dim.name, (d, None))
            for level in dim.levels:
                if level.name != dim.name:
                    self.hints.setdefault(level.name, (d, level.depth))
            for depth in range(dim.n_levels):
                for member in range(dim.n_members(depth)):
                    name = dim.member_name(depth, member)
                    self.members.setdefault(name, []).append((d, depth, member))
            ups = [
                dim.rollup_map(depth, depth + 1).tolist()
                for depth in range(dim.n_levels - 1)
            ]
            downs: List[Tuple[Tuple[int, ...], ...]] = [()]
            for depth, up in enumerate(ups):
                kids: List[List[int]] = [[] for _ in range(dim.n_members(depth + 1))]
                for child, parent in enumerate(up):
                    kids[parent].append(child)
                downs.append(tuple(map(tuple, kids)))
            self.parents.append(ups)
            self.children.append(downs)


_NAMES: "WeakKeyDictionary[StarSchema, _Names]" = WeakKeyDictionary()


def _names(schema: StarSchema) -> _Names:
    names = _NAMES.get(schema)
    if names is None:
        names = _NAMES[schema] = _Names(schema)
    return names


def resolve_path(schema: StarSchema, path: MemberPath):
    """Resolve one member path → :class:`ResolvedSelection` or
    :class:`MeasureRef`."""
    segments = path.segments
    if len(segments) == 1 and segments[0] == schema.measure:
        return MeasureRef(name=segments[0])

    names = _names(schema)
    dim_hint, level_hint = names.hints.get(segments[0], (None, None))
    idx = 0
    if dim_hint is not None:
        idx = 1
        if idx >= len(segments):
            raise MdxResolutionError(
                f"path {path} names a dimension/level but no member"
            )

    # <dim>.All — the ALL pseudo-level.
    if segments[idx].lower() == "all":
        if dim_hint is None:
            raise MdxResolutionError(
                f"'All' needs a dimension qualifier in {path}"
            )
        if idx != len(segments) - 1:
            raise MdxResolutionError(f"nothing may follow 'All' in {path}")
        dim = schema.dimensions[dim_hint]
        return ResolvedSelection(dim_hint, dim.all_level, frozenset())

    # <level>.MEMBERS / <dim>.MEMBERS — every member of a level (the leaf
    # level when only the dimension is named).
    if segments[idx].upper() == "MEMBERS":
        if dim_hint is None:
            raise MdxResolutionError(
                f"MEMBERS needs a dimension or level qualifier in {path}"
            )
        dim = schema.dimensions[dim_hint]
        level = level_hint if level_hint is not None else 0
        selection = frozenset(range(dim.n_members(level)))
        dim_index = dim_hint
    else:
        # First real member segment: within the hinted dimension if one was
        # given and has it, otherwise in the one dimension that has it.
        name = segments[idx]
        found = names.members.get(name, ())
        for binding in found:
            if binding[0] == dim_hint:
                break
        else:
            if not found:
                raise MdxResolutionError(
                    f"no dimension has a member named {name!r} (path {path})"
                )
            if len(found) > 1:
                dims = [schema.dimensions[d].name for d, _, _ in found]
                raise MdxResolutionError(
                    f"member {name!r} is ambiguous across dimensions {dims}; "
                    f"qualify it (path {path})"
                )
            binding = found[0]
        dim_index, level, member = binding
        dim = schema.dimensions[dim_index]
        selection = frozenset([member])
    idx += 1

    while idx < len(segments):
        segment = segments[idx]
        keyword = segment.upper()
        if keyword == "PARENT":
            if level + 1 >= dim.n_levels:
                raise MdxResolutionError(
                    f"members at top level {dim.level_name(level)!r} have "
                    f"no parent (path {path})"
                )
            up = names.parents[dim_index][level]
            selection = frozenset(up[member] for member in selection)
            level += 1
        elif keyword == "CHILDREN":
            if level == 0:
                raise MdxResolutionError(
                    f"members at leaf level {dim.level_name(0)!r} have no "
                    f"children (path {path})"
                )
            kids = names.children[dim_index][level]
            selection = frozenset(
                child for parent in selection for child in kids[parent]
            )
            level -= 1
        else:
            # A member name narrowing the current selection (the paper's
            # A1.CHILDREN.AA2 idiom).
            if not dim.has_member(segment):
                raise MdxResolutionError(
                    f"dimension {dim.name!r} has no member {segment!r} "
                    f"(path {path})"
                )
            seg_level, seg_member = dim.find_member(segment)
            if seg_level != level:
                raise MdxResolutionError(
                    f"member {segment!r} is at level "
                    f"{dim.level_name(seg_level)!r}, expected level "
                    f"{dim.level_name(level)!r} (path {path})"
                )
            if seg_member not in selection:
                raise MdxResolutionError(
                    f"member {segment!r} is not in the preceding selection "
                    f"(path {path})"
                )
            selection = frozenset([seg_member])
        idx += 1

    return ResolvedSelection(dim_index, level, selection)
