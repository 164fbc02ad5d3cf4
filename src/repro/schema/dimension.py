"""Dimensions with multi-level hierarchies.

A dimension stores its hierarchy as dense integer member ids per level plus
parent arrays linking each level to the next coarser one.  Level depth 0 is
the finest (leaf) level; depth ``n_levels - 1`` is the coarsest real level;
depth ``n_levels`` is the implicit ALL pseudo-level with a single member.

For the paper's schema each dimension ``X`` has the three-level hierarchy
``X → X' → X''`` where the top level has three members (X1, X2, X3) and
member names grow one letter per step down (A1 → AA1..AAk → AAA1..), matching
the names used in the paper's Queries 1–9 (``A'.A1.CHILDREN.AA2`` etc.).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class Level:
    """One hierarchy level: its display name and depth (0 = leaf)."""

    name: str
    depth: int


class Dimension:
    """A dimension table with a single linear hierarchy.

    Parameters
    ----------
    name:
        Dimension name, e.g. ``"A"``.
    level_names:
        Level display names from finest to coarsest, e.g.
        ``("A", "A'", "A''")``.
    parents:
        ``parents[i]`` maps member ids of level ``i`` to member ids of level
        ``i + 1``; there are ``n_levels - 1`` arrays.
    member_names:
        Per level (finest → coarsest), the display name of each member.
    """

    def __init__(
        self,
        name: str,
        level_names: Sequence[str],
        parents: Sequence[np.ndarray],
        member_names: Sequence[Sequence[str]],
    ):
        if len(level_names) < 1:
            raise ValueError("a dimension needs at least one level")
        if len(parents) != len(level_names) - 1:
            raise ValueError(
                f"need {len(level_names) - 1} parent arrays, got {len(parents)}"
            )
        if len(member_names) != len(level_names):
            raise ValueError("member_names must cover every level")
        self.name = name
        self.levels: Tuple[Level, ...] = tuple(
            Level(n, d) for d, n in enumerate(level_names)
        )
        self._parents: List[np.ndarray] = [
            np.asarray(p, dtype=np.int64) for p in parents
        ]
        self._member_names: List[List[str]] = [list(ns) for ns in member_names]
        #: Members per level, ALL (one member) last; the shape never changes.
        self._level_sizes = tuple(len(ns) for ns in self._member_names) + (1,)
        self._validate()
        self._name_lookup: Dict[str, Tuple[int, int]] = {}
        for depth, names in enumerate(self._member_names):
            for member_id, member_name in enumerate(names):
                if member_name in self._name_lookup:
                    raise ValueError(
                        f"duplicate member name {member_name!r} in dimension "
                        f"{name!r}"
                    )
                self._name_lookup[member_name] = (depth, member_id)
        self._rollup_cache: Dict[Tuple[int, int], np.ndarray] = {}
        #: (depth, finer depth) -> per member at ``depth``, its descendants.
        self._descendant_cache: Dict[Tuple[int, int], List[List[int]]] = {}

    def _validate(self) -> None:
        for depth, parent in enumerate(self._parents):
            n_from = len(self._member_names[depth])
            n_to = len(self._member_names[depth + 1])
            if parent.shape != (n_from,):
                raise ValueError(
                    f"parent array at depth {depth} has shape {parent.shape}, "
                    f"expected ({n_from},)"
                )
            if n_from and (parent.min() < 0 or parent.max() >= n_to):
                raise ValueError(
                    f"parent ids at depth {depth} out of range 0..{n_to - 1}"
                )

    # -- geometry ---------------------------------------------------------------

    @property
    def n_levels(self) -> int:
        """Number of real levels (ALL excluded)."""
        return len(self.levels)

    @property
    def all_level(self) -> int:
        """Depth of the implicit ALL pseudo-level."""
        return self.n_levels

    def n_members(self, depth: int) -> int:
        """Number of members at the given level."""
        if 0 <= depth < len(self._level_sizes):
            return self._level_sizes[depth]
        self._check_depth(depth)  # raises IndexError

    def level_name(self, depth: int) -> str:
        """Display name of one hierarchy level (ALL included)."""
        if depth == self.all_level:
            return f"{self.name}.ALL"
        self._check_depth(depth)
        return self.levels[depth].name

    def level_depth(self, level_name: str) -> int:
        """Depth of a level by its display name (KeyError if unknown)."""
        for level in self.levels:
            if level.name == level_name:
                return level.depth
        raise KeyError(
            f"dimension {self.name!r} has no level {level_name!r}; "
            f"levels: {[lv.name for lv in self.levels]}"
        )

    def _check_depth(self, depth: int) -> None:
        if not 0 <= depth < self.n_levels:
            raise IndexError(
                f"level depth {depth} out of range for dimension "
                f"{self.name!r} (0..{self.n_levels - 1})"
            )

    # -- members ------------------------------------------------------------------

    def member_name(self, depth: int, member_id: int) -> str:
        """Display name of one member."""
        if depth == self.all_level:
            return f"All {self.name}"
        self._check_depth(depth)
        return self._member_names[depth][member_id]

    def member_id(self, depth: int, name: str) -> int:
        """Member id by name at an exact level (KeyError otherwise)."""
        found = self._name_lookup.get(name)
        if found is None or found[0] != depth:
            raise KeyError(
                f"no member {name!r} at level {self.level_name(depth)!r} "
                f"of dimension {self.name!r}"
            )
        return found[1]

    def find_member(self, name: str) -> Tuple[int, int]:
        """Locate a member by name anywhere in the hierarchy → (depth, id)."""
        found = self._name_lookup.get(name)
        if found is None:
            raise KeyError(
                f"dimension {self.name!r} has no member named {name!r}"
            )
        return found

    def has_member(self, name: str) -> bool:
        """Whether any level has a member with this name."""
        return name in self._name_lookup

    # -- hierarchy navigation --------------------------------------------------------

    def parent(self, depth: int, member_id: int) -> int:
        """The id of this member's parent at depth + 1."""
        self._check_depth(depth)
        if depth + 1 == self.all_level:
            return 0
        return int(self._parents[depth][member_id])

    def rollup_map(self, from_depth: int, to_depth: int) -> np.ndarray:
        """Array mapping member ids at ``from_depth`` to ids at the coarser
        ``to_depth`` (``to_depth == ALL`` maps everything to 0)."""
        if to_depth < from_depth:
            raise ValueError(
                f"cannot roll up downwards: {from_depth} -> {to_depth}"
            )
        key = (from_depth, to_depth)
        cached = self._rollup_cache.get(key)
        if cached is not None:
            return cached
        if to_depth == self.all_level:
            out = np.zeros(self.n_members(from_depth), dtype=np.int64)
        else:
            self._check_depth(from_depth)
            self._check_depth(to_depth)
            out = np.arange(self.n_members(from_depth), dtype=np.int64)
            for depth in range(from_depth, to_depth):
                out = self._parents[depth][out]
        out.setflags(write=False)
        self._rollup_cache[key] = out
        return out

    def rollup(self, from_depth: int, to_depth: int, member_id: int) -> int:
        """Roll one member id up to a coarser level."""
        return int(self.rollup_map(from_depth, to_depth)[member_id])

    def children(self, depth: int, member_id: int) -> List[int]:
        """Member ids at ``depth - 1`` whose parent is ``member_id``."""
        if depth == self.all_level:
            if member_id != 0:
                raise IndexError("the ALL level has a single member, id 0")
            return list(range(self.n_members(self.n_levels - 1)))
        self._check_depth(depth)
        if depth == 0:
            raise ValueError(
                f"leaf level of dimension {self.name!r} has no children"
            )
        parent = self._parents[depth - 1]
        return np.flatnonzero(parent == member_id).tolist()

    def descendants(
        self, depth: int, member_id: int, target_depth: int
    ) -> List[int]:
        """Member ids at the finer ``target_depth`` that roll up into
        ``member_id`` at ``depth``."""
        if target_depth > depth:
            raise ValueError("target level must be finer (smaller depth)")
        if target_depth == depth:
            return [member_id]
        key = (depth, target_depth)
        table = self._descendant_cache.get(key)
        if table is None:
            # Built once per level pair: the hierarchy never changes.
            table = [[] for _ in range(self.n_members(depth))]
            for member, ancestor in enumerate(
                self.rollup_map(target_depth, depth).tolist()
            ):
                table[ancestor].append(member)
            self._descendant_cache[key] = table
        if 0 <= member_id < len(table):
            return list(table[member_id])
        return []

    # -- construction helpers ------------------------------------------------------

    @classmethod
    def build_uniform(
        cls,
        name: str,
        level_names: Sequence[str],
        n_top: int,
        fanouts: Sequence[int],
        member_prefixes: Optional[Sequence[str]] = None,
    ) -> "Dimension":
        """Build a balanced hierarchy top-down.

        ``fanouts[j]`` is the number of children each member at depth
        ``n_levels - 1 - j`` has at the next finer level; hence
        ``len(fanouts) == n_levels - 1``.  Member names default to the
        paper's convention: one extra letter per step down (A1, AA1, AAA1…).
        """
        n_levels = len(level_names)
        if len(fanouts) != n_levels - 1:
            raise ValueError(
                f"need {n_levels - 1} fanouts for {n_levels} levels, "
                f"got {len(fanouts)}"
            )
        if n_top <= 0 or any(f <= 0 for f in fanouts):
            raise ValueError("n_top and all fanouts must be positive")
        if member_prefixes is None:
            member_prefixes = [
                name * (n_levels - depth) for depth in range(n_levels)
            ]
        elif len(member_prefixes) != n_levels:
            raise ValueError("member_prefixes must cover every level")

        counts = [0] * n_levels
        counts[n_levels - 1] = n_top
        for j, fanout in enumerate(fanouts):
            depth = n_levels - 2 - j
            counts[depth] = counts[depth + 1] * fanout

        parents: List[np.ndarray] = []
        for depth in range(n_levels - 1):
            fanout = counts[depth] // counts[depth + 1]
            parents.append(
                np.repeat(np.arange(counts[depth + 1], dtype=np.int64), fanout)
            )
        member_names = [
            [f"{member_prefixes[depth]}{i + 1}" for i in range(counts[depth])]
            for depth in range(n_levels)
        ]
        return cls(name, level_names, parents, member_names)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        shape = " -> ".join(
            f"{lv.name}({self.n_members(lv.depth)})" for lv in self.levels
        )
        return f"Dimension({self.name!r}: {shape})"
