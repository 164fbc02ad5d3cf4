"""Position-based B-tree join index.

Section 3.3 of the paper allows star-join indexes to be "either position
based B-tree or bitmap indices".  This variant is accounted as a B-tree
keyed on member id whose leaves hold, per member of the indexed level, a
sorted list of matching row positions (a RID list): a lookup descends once
per member, reads the member's leaf span and converts the RIDs into a
:class:`~repro.index.bitmap.Bitmap`.  The payload it reads them from is
:class:`~repro.index.bitmap_index.JoinIndex`'s word matrix, so downstream
operators (including the shared ones) treat both index kinds uniformly.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..storage.iostats import IOStats
from .bitmap import Bitmap
from .bitmap_index import INDEX_PAGE_BYTES, JoinIndex

#: Accounted bytes per stored row position (a 4-byte RID, as in the paper's
#: 4-byte attribute encoding).
BYTES_PER_RID = 4


class PositionListJoinIndex(JoinIndex):
    """B-tree join index whose leaves hold sorted row-position lists."""

    @property
    def n_pages(self) -> int:
        """Accounted size in pages: every row's RID in the leaves."""
        return self._leaf_pages(self.n_rows)

    def _leaf_pages(self, n_rids: int) -> int:
        return max(1, (n_rids * BYTES_PER_RID + INDEX_PAGE_BYTES - 1) // INDEX_PAGE_BYTES)

    @property
    def pages_per_member(self) -> int:
        """One descent plus the average member's leaf span (one page for
        an empty index)."""
        n_members = self.n_members
        if not n_members:
            return 1
        return 1 + self._leaf_pages(int(self.n_rows / n_members))

    def positions_for(self, member_id: int) -> np.ndarray:
        """The raw RID list for one member (empty if absent)."""
        return self.bitmap_for(member_id).positions()

    def lookup(
        self, member_ids: Iterable[int], stats: IOStats, *, faults=None
    ) -> Bitmap:
        """Bitmap of rows whose key rolls into the given members (charges the clock)."""
        members = list(member_ids)
        self._check_faults(faults, len(members))
        stats.charge_index_lookup(len(members))
        # One descent per member, found or not; then its leaf run.
        stats.charge_rand_read(len(members))
        found = [m for m in members if self._count(m)]
        stats.charge_seq_read(
            sum(self._leaf_pages(self._count(m)) - 1 for m in found)
        )
        result = self._or_rows(found)
        if found:
            stats.charge_bitmap_words(result.n_words)  # RID→bitmap conversion
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PositionListJoinIndex({self.table_name}.dim{self.dim_index}"
            f"@L{self.level}, {self.n_members} members, {self.n_pages}p)"
        )
