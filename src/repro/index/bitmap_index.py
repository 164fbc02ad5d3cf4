"""Join indexes mapping dimension members to fact-table row positions.

The paper assumes "bitmap join indices mapping Adim's A' attribute to tuples
of F" — i.e. the index key is a *hierarchy level* of a dimension (possibly
coarser than the level stored in the fact table), and the payload identifies
matching fact rows.  Two payload representations are provided:

* :class:`BitmapJoinIndex` — one bitmap per member (Section 3.2's plans);
* :class:`PositionListJoinIndex` (see :mod:`repro.index.btree`) — the
  "position based B-tree" alternative the paper mentions in Section 3.3.

Both return a :class:`~repro.index.bitmap.Bitmap` from ``lookup`` so the
star-join operators are agnostic to the payload encoding.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Dict, Iterable, Sequence

import numpy as np

from ..storage.iostats import IOStats
from ..storage.table import HeapTable
from .bitmap import Bitmap, or_all

if TYPE_CHECKING:  # pragma: no cover
    from ..schema.dimension import Dimension
    from ..storage.catalog import TableEntry

#: Accounted bytes per page when sizing index payloads (mirrors data pages).
INDEX_PAGE_BYTES = 8192


class JoinIndex(ABC):
    """A join index on one dimension attribute, at one hierarchy level."""

    def __init__(self, table_name: str, dim_index: int, level: int, n_rows: int):
        self.table_name = table_name
        self.dim_index = dim_index
        self.level = level
        self.n_rows = n_rows

    @classmethod
    def build(
        cls,
        table: HeapTable,
        table_name: str,
        dim_index: int,
        level: int,
        column_index: int,
        key_to_member: np.ndarray,
        n_members: int,
    ) -> "JoinIndex":
        """Build from the table's key column (unaccounted).

        ``key_to_member`` maps the dimension key *as stored in the table's
        column* to the member id at the indexed ``level``.
        """
        index = cls(table_name, dim_index, level, 0, {})
        keys = table.read_columns(table.n_columns - 1)[0][column_index]
        index.extend(key_to_member[keys])
        return index

    @classmethod
    def build_on(
        cls, entry: "TableEntry", dim: "Dimension", dim_index: int, level: int
    ) -> "JoinIndex":
        """Build on a catalog entry's table, indexing dimension ``dim``
        (position ``dim_index``) at ``level`` from the level it stores."""
        return cls.build(
            entry.table,
            entry.name,
            dim_index,
            level,
            column_index=dim_index,
            key_to_member=dim.rollup_map(entry.levels[dim_index], level),
            n_members=dim.n_members(level),
        )

    def extend(self, members: np.ndarray) -> None:
        """Cover rows ``n_rows .. n_rows + len(members)``, whose member ids
        at this index's level are ``members`` — a build is an extend from
        empty, so a grown index equals a fresh one."""
        first = self.n_rows
        self.n_rows = first + members.size
        order = np.argsort(members, kind="stable")
        distinct, starts = np.unique(members[order], return_index=True)
        self._add(
            dict(zip(distinct.tolist(), np.split(first + order, starts[1:])))
        )

    @abstractmethod
    def _add(self, positions_by_member: Dict[int, np.ndarray]) -> None:
        """Record new (ascending) row positions per member, ``n_rows``
        already covering them."""

    @abstractmethod
    def lookup(
        self, member_ids: Iterable[int], stats: IOStats, *, faults=None
    ) -> Bitmap:
        """Return the bitmap of rows whose dimension value (rolled up to this
        index's level) is one of ``member_ids``, charging index I/O + CPU.
        An armed ``faults`` plan is checked (site ``index.lookup``) before
        any cost is charged."""

    def _check_faults(self, faults, n_members: int) -> None:
        if faults is not None:
            faults.check(
                "index.lookup",
                table=self.table_name,
                dim_index=self.dim_index,
                level=self.level,
                n_members=n_members,
            )

    @property
    @abstractmethod
    def n_pages(self) -> int:
        """Accounted on-disk size of the whole index, in pages."""

    @property
    @abstractmethod
    def pages_per_member(self) -> int:
        """Accounted pages read to retrieve one member's payload: a
        constant of the index as it stands, which the cost model reads."""

    def pages_per_lookup(self, n_members: int) -> int:
        """Accounted pages read to retrieve ``n_members`` payloads."""
        return n_members * self.pages_per_member


class BitmapJoinIndex(JoinIndex):
    """One bitmap per member of the indexed level."""

    def __init__(
        self,
        table_name: str,
        dim_index: int,
        level: int,
        n_rows: int,
        bitmaps: Dict[int, Bitmap],
    ):
        super().__init__(table_name, dim_index, level, n_rows)
        self._bitmaps = bitmaps

    @property
    def pages_per_member(self) -> int:
        """The pages of one member's bitmap."""
        payload_bytes = (self.n_rows + 7) // 8
        return max(1, (payload_bytes + INDEX_PAGE_BYTES - 1) // INDEX_PAGE_BYTES)

    def _add(self, positions_by_member: Dict[int, np.ndarray]) -> None:
        for bitmap in self._bitmaps.values():
            bitmap.grow(self.n_rows)
        for member, positions in positions_by_member.items():
            bitmap = self._bitmaps.get(member)
            if bitmap is None:
                bitmap = self._bitmaps[member] = Bitmap.zeros(self.n_rows)
            bitmap.set_positions(positions)

    @property
    def n_members(self) -> int:
        """Number of members at the given level."""
        return len(self._bitmaps)

    @property
    def n_pages(self) -> int:
        """Accounted size in pages."""
        return self.pages_per_member * max(1, len(self._bitmaps))

    def bitmap_for(self, member_id: int) -> Bitmap:
        """The raw bitmap of one member (empty bitmap if member absent)."""
        bm = self._bitmaps.get(member_id)
        return bm.copy() if bm is not None else Bitmap.zeros(self.n_rows)

    def lookup(
        self, member_ids: Iterable[int], stats: IOStats, *, faults=None
    ) -> Bitmap:
        """Bitmap of rows whose key rolls into the given members (charges the clock)."""
        members = list(member_ids)
        self._check_faults(faults, len(members))
        stats.charge_index_lookup(len(members))
        # Retrieving each member's bitmap streams its pages.
        stats.charge_seq_read(self.pages_per_lookup(len(members)))
        found = [self._bitmaps[m] for m in members if m in self._bitmaps]
        result = or_all(found, n_bits=self.n_rows)
        if len(found) > 1:
            stats.charge_bitmap_words(result.n_words * (len(found) - 1))
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BitmapJoinIndex({self.table_name}.dim{self.dim_index}"
            f"@L{self.level}, {self.n_members} members, {self.n_pages}p)"
        )
