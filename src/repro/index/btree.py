"""Position-based B-tree join index.

Section 3.3 of the paper allows star-join indexes to be "either position
based B-tree or bitmap indices".  This variant stores, per member of the
indexed level, a sorted array of matching row positions (a RID list), as the
leaf payload of a B-tree keyed on member id.

``lookup`` converts the retrieved RID lists into a
:class:`~repro.index.bitmap.Bitmap`, so downstream operators (including the
shared ones) treat both index kinds uniformly.
"""

from __future__ import annotations

from typing import Dict, Iterable

import numpy as np

from ..storage.iostats import IOStats
from .bitmap import Bitmap
from .bitmap_index import INDEX_PAGE_BYTES, JoinIndex

#: Accounted bytes per stored row position (a 4-byte RID, as in the paper's
#: 4-byte attribute encoding).
BYTES_PER_RID = 4


class PositionListJoinIndex(JoinIndex):
    """B-tree join index whose leaves hold sorted row-position lists."""

    def __init__(
        self,
        table_name: str,
        dim_index: int,
        level: int,
        n_rows: int,
        rid_lists: Dict[int, np.ndarray],
    ):
        super().__init__(table_name, dim_index, level, n_rows)
        self._rid_lists = rid_lists
        #: The RIDs over every list, kept as lists grow.
        self._n_rids = sum(r.size for r in rid_lists.values())

    def _add(self, positions_by_member: Dict[int, np.ndarray]) -> None:
        for member, positions in positions_by_member.items():
            self._n_rids += positions.size
            existing = self._rid_lists.get(member)
            if existing is not None:
                positions = np.concatenate([existing, positions])
            self._rid_lists[member] = positions

    @property
    def n_members(self) -> int:
        """Number of members at the given level."""
        return len(self._rid_lists)

    @property
    def n_pages(self) -> int:
        """Accounted size in pages."""
        return self._leaf_pages(self._n_rids)

    def _leaf_pages(self, n_rids: int) -> int:
        return max(1, (n_rids * BYTES_PER_RID + INDEX_PAGE_BYTES - 1) // INDEX_PAGE_BYTES)

    @property
    def pages_per_member(self) -> int:
        """One descent plus the average member's leaf span (one page for
        an empty index)."""
        if not self._rid_lists:
            return 1
        return 1 + self._leaf_pages(int(self._n_rids / len(self._rid_lists)))

    def positions_for(self, member_id: int) -> np.ndarray:
        """The raw RID list for one member (empty if absent)."""
        return self._rid_lists.get(member_id, np.empty(0, dtype=np.int64)).copy()

    def lookup(
        self, member_ids: Iterable[int], stats: IOStats, *, faults=None
    ) -> Bitmap:
        """Bitmap of rows whose key rolls into the given members (charges the clock)."""
        members = list(member_ids)
        self._check_faults(faults, len(members))
        stats.charge_index_lookup(len(members))
        all_rids: list[np.ndarray] = []
        for member in members:
            rids = self._rid_lists.get(member)
            if rids is None:
                stats.charge_rand_read(1)  # descent finds no leaf run
                continue
            stats.charge_rand_read(1)  # descent to the first leaf
            stats.charge_seq_read(self._leaf_pages(rids.size) - 1)
            all_rids.append(rids)
        if not all_rids:
            return Bitmap.zeros(self.n_rows)
        merged = np.concatenate(all_rids)
        result = Bitmap.from_positions(self.n_rows, merged)
        stats.charge_bitmap_words(result.n_words)  # RID→bitmap conversion
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PositionListJoinIndex({self.table_name}.dim{self.dim_index}"
            f"@L{self.level}, {self.n_members} members, {self.n_pages}p)"
        )
