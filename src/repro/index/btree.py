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

from typing import Optional, Sequence

import numpy as np

from ..storage.iostats import Counts
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

    def positions_for(self, member_id: int) -> np.ndarray:
        """The raw RID list for one member (empty if absent)."""
        return self.bitmap_for(member_id).positions()

    def lookup_counts(
        self, n_members: int, found: Optional[Sequence[int]] = None
    ) -> Counts:
        """One descent per member, found or not, reading the first page
        of its leaf run; the rest of each found member's run read in
        sequence (the average member's run, for an estimate); and the
        found RIDs converted into a bitmap once."""
        if found is None:
            average = int(self.n_rows / self.n_members) if self.n_members else 0
            n_found = n_members
            rest = n_members * (self._leaf_pages(average) - 1)
        else:
            n_found = len(found)
            rest = sum(self._leaf_pages(self._count(m)) - 1 for m in found)
        return Counts(
            seq_page_reads=rest,
            rand_page_reads=n_members,
            bitmap_word_ops=self.n_words if n_found else 0,
            index_lookups=n_members,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PositionListJoinIndex({self.table_name}.dim{self.dim_index}"
            f"@L{self.level}, {self.n_members} members, {self.n_pages}p)"
        )
