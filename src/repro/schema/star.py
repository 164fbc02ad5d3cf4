"""Star-schema metadata: the fact table's dimensions and measure.

Group-bys are written the way the paper writes them: one symbol per
dimension, primed by level (``A`` leaf, ``A'`` mid, ``A''`` top); a dimension
aggregated to ALL is omitted from the name.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .dimension import Dimension


class StarSchema:
    """The logical star schema: ordered dimensions plus one measure."""

    def __init__(
        self,
        name: str,
        dimensions: Sequence[Dimension],
        measure: str = "dollars",
    ):
        if not dimensions:
            raise ValueError("a star schema needs at least one dimension")
        names = [d.name for d in dimensions]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate dimension names: {names}")
        self.name = name
        self.dimensions: Tuple[Dimension, ...] = tuple(dimensions)
        self.measure = measure
        self._dim_index: Dict[str, int] = {
            d.name: i for i, d in enumerate(self.dimensions)
        }
        # A dimension's shape never changes, so its level geometry is read once.
        #: Per dimension, the members at each level, ALL (one member) last.
        self.level_sizes: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(d.n_members(lv) for lv in range(d.all_level + 1))
            for d in self.dimensions
        )
        self._all_levels = tuple(d.all_level for d in self.dimensions)

    @property
    def n_dims(self) -> int:
        """Number of dimensions."""
        return len(self.dimensions)

    def dim_index(self, name: str) -> int:
        """Position of a dimension by name (KeyError if unknown)."""
        try:
            return self._dim_index[name]
        except KeyError:
            raise KeyError(
                f"schema {self.name!r} has no dimension {name!r}; "
                f"dimensions: {list(self._dim_index)}"
            ) from None

    def dimension(self, name: str) -> Dimension:
        """Dimension object by name."""
        return self.dimensions[self.dim_index(name)]

    def base_levels(self) -> Tuple[int, ...]:
        """The lowest-level (LL) group-by: every dimension at its leaf."""
        return tuple(0 for _ in self.dimensions)

    def all_levels(self) -> Tuple[int, ...]:
        """The fully aggregated group-by: every dimension at ALL."""
        return self._all_levels

    def check_levels(self, levels: Sequence[int]) -> Tuple[int, ...]:
        """Validate a per-dimension level vector (ALL allowed) and return it
        as a tuple."""
        if len(levels) != self.n_dims:
            raise ValueError(
                f"level vector {tuple(levels)} has {len(levels)} entries, "
                f"schema has {self.n_dims} dimensions"
            )
        for dim, level in zip(self.dimensions, levels):
            if not 0 <= level <= dim.all_level:
                raise ValueError(
                    f"level {level} out of range for dimension {dim.name!r} "
                    f"(0..{dim.all_level})"
                )
        return tuple(int(lv) for lv in levels)

    def groupby_name(self, levels: Sequence[int]) -> str:
        """Render a level vector in paper notation, e.g. ``A'B''C''D``."""
        levels = self.check_levels(levels)
        parts: List[str] = []
        for dim, level in zip(self.dimensions, levels):
            if level == dim.all_level:
                continue
            parts.append(dim.name + "'" * level)
        return "".join(parts) if parts else "(all)"

    def parse_groupby_name(self, text: str) -> Tuple[int, ...]:
        """Inverse of :meth:`groupby_name` for paper-style strings.

        Dimensions absent from the string are set to their ALL level.
        Dimension names must be single characters for this notation (as in
        the paper's A/B/C/D schema).
        """
        levels = {d.name: d.all_level for d in self.dimensions}
        i = 0
        while i < len(text):
            ch = text[i]
            if ch not in self._dim_index:
                raise ValueError(
                    f"unexpected character {ch!r} in group-by name {text!r}"
                )
            i += 1
            primes = 0
            while i < len(text) and text[i] == "'":
                primes += 1
                i += 1
            dim = self.dimension(ch)
            if primes >= dim.n_levels:
                raise ValueError(
                    f"{ch}{primes * chr(39)} names a level deeper than "
                    f"dimension {ch!r} has"
                )
            levels[ch] = primes
        return tuple(levels[d.name] for d in self.dimensions)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        dims = ", ".join(d.name for d in self.dimensions)
        return f"StarSchema({self.name!r}, dims=[{dims}], measure={self.measure!r})"
