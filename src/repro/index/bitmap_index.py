"""Join indexes mapping dimension members to fact-table row positions.

The paper assumes "bitmap join indices mapping Adim's A' attribute to tuples
of F" — i.e. the index key is a *hierarchy level* of a dimension (possibly
coarser than the level stored in the fact table), and the payload identifies
matching fact rows.  Both index kinds hold one payload: member ``m``'s
bitmap is row ``m`` of a ``uint64`` word matrix, an append sets the new
rows' bits in one step, and a lookup ORs the found rows with one gather and
returns a :class:`~repro.index.bitmap.Bitmap`, so the star-join operators
are agnostic to the index kind.  The kinds differ only in how a lookup is
*accounted*:

* :class:`BitmapJoinIndex` — one bitmap per member, streamed and OR-ed
  (Section 3.2's plans);
* :class:`PositionListJoinIndex` (see :mod:`repro.index.btree`) — the
  "position based B-tree" alternative the paper mentions in Section 3.3:
  a descent plus the member's RID leaves, converted to a bitmap.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Iterable, List

import numpy as np

from ..storage.iostats import IOStats
from ..storage.table import HeapTable, mapped_zeros
from .bitmap import WORD_BITS, Bitmap, _n_words

if TYPE_CHECKING:  # pragma: no cover
    from ..schema.dimension import Dimension
    from ..storage.catalog import TableEntry

#: Accounted bytes per page when sizing index payloads (mirrors data pages).
INDEX_PAGE_BYTES = 8192

#: Rows a build sets per step, so its temporaries stay a few hundred KB.
_BUILD_ROWS = 8192


class JoinIndex(ABC):
    """A join index on one dimension attribute, at one hierarchy level."""

    def __init__(self, table_name: str, dim_index: int, level: int):
        self.table_name = table_name
        self.dim_index = dim_index
        self.level = level
        self.n_rows = 0
        #: Row ``m`` is member ``m``'s bitmap; the words past the ones
        #: covering ``n_rows`` rows are spare capacity and stay clear.
        self._words = np.zeros((0, 0), dtype=np.uint64)
        #: Rows per member id, one per matrix row (a member without rows
        #: is absent).
        self._counts = np.zeros(0, dtype=np.int64)

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
        index = cls(table_name, dim_index, level)
        keys = table.read_columns(table.n_columns - 1)[0][column_index]
        index._reserve(n_members, _n_words(keys.size))
        for first in range(0, keys.size, _BUILD_ROWS):
            index.extend(key_to_member[keys[first : first + _BUILD_ROWS]])
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

    def _reserve(self, n_members: int, n_words: int) -> None:
        """Make room for member ids below ``n_members`` and ``n_words``
        words a member, the capacity growing by an eighth at least."""
        rows, capacity = self._words.shape
        if n_members <= rows and n_words <= capacity:
            return
        if n_words > capacity:
            n_words = max(n_words, capacity + capacity // 8)
        words = mapped_zeros(
            (max(rows, n_members), max(capacity, n_words)), np.uint64
        )
        used = _n_words(self.n_rows)
        words[:rows, :used] = self._words[:, :used]
        self._words = words
        self._counts = np.append(
            self._counts, np.zeros(len(words) - rows, np.int64)
        )

    def extend(self, members: np.ndarray) -> None:
        """Cover rows ``n_rows .. n_rows + len(members)``, whose member ids
        at this index's level are ``members`` — a build is an extend from
        empty, so a grown index equals a fresh one."""
        if not members.size:
            return
        first = self.n_rows
        self._reserve(int(members.max()) + 1, _n_words(first + members.size))
        self.n_rows = first + members.size
        self._counts += np.bincount(members, minlength=self._counts.size)
        positions = np.arange(first, self.n_rows)
        np.bitwise_or.at(
            self._words,
            (members, positions // WORD_BITS),
            np.uint64(1) << (positions % WORD_BITS).astype(np.uint64),
        )

    def _count(self, member_id: int) -> int:
        """Rows of one member id (0 for an absent or out-of-range id)."""
        if 0 <= member_id < self._counts.size:
            return int(self._counts[member_id])
        return 0

    def _or_rows(self, found: List[int]) -> Bitmap:
        """The OR of the found members' bitmaps, row by row into one output:
        as fast as one gather and reduce, without the gather's temporary
        of every found row."""
        if not found:
            return Bitmap.zeros(self.n_rows)
        n_words = _n_words(self.n_rows)
        words = self._words[found[0], :n_words].copy()
        for member in found[1:]:
            words |= self._words[member, :n_words]
        return Bitmap(self.n_rows, words)

    def bitmap_for(self, member_id: int) -> Bitmap:
        """The raw bitmap of one member (empty bitmap if member absent)."""
        return self._or_rows([member_id] if self._count(member_id) else [])

    @property
    def n_members(self) -> int:
        """Number of members with at least one row."""
        return int(np.count_nonzero(self._counts))

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

    @property
    def pages_per_member(self) -> int:
        """The pages of one member's bitmap."""
        payload_bytes = (self.n_rows + 7) // 8
        return max(1, (payload_bytes + INDEX_PAGE_BYTES - 1) // INDEX_PAGE_BYTES)

    @property
    def n_pages(self) -> int:
        """Accounted size in pages."""
        return self.pages_per_member * max(1, self.n_members)

    def lookup(
        self, member_ids: Iterable[int], stats: IOStats, *, faults=None
    ) -> Bitmap:
        """Bitmap of rows whose key rolls into the given members (charges the clock)."""
        members = list(member_ids)
        self._check_faults(faults, len(members))
        stats.charge_index_lookup(len(members))
        # Retrieving each member's bitmap streams its pages.
        stats.charge_seq_read(self.pages_per_lookup(len(members)))
        found = [m for m in members if self._count(m)]
        result = self._or_rows(found)
        if len(found) > 1:
            stats.charge_bitmap_words(result.n_words * (len(found) - 1))
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BitmapJoinIndex({self.table_name}.dim{self.dim_index}"
            f"@L{self.level}, {self.n_members} members, {self.n_pages}p)"
        )
