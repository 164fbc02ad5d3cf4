"""Bitmap algebra and star-join indexes (one word-matrix payload, priced as
bitmap or as position-list B-tree indexes)."""

from .bitmap import WORD_BITS, Bitmap, and_all, or_all
from .bitmap_index import INDEX_PAGE_BYTES, BitmapJoinIndex, JoinIndex
from .btree import BYTES_PER_RID, PositionListJoinIndex

__all__ = [
    "BYTES_PER_RID",
    "Bitmap",
    "BitmapJoinIndex",
    "INDEX_PAGE_BYTES",
    "JoinIndex",
    "PositionListJoinIndex",
    "WORD_BITS",
    "and_all",
    "or_all",
]
