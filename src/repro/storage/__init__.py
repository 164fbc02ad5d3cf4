"""Paged storage substrate: pages, heap tables, buffer pool, cost clock.

This package substitutes for the paper's Paradise storage server.  It stores
real data and returns real query answers, while charging every page access
and tuple operation to a deterministic simulated cost clock
(:class:`~repro.storage.iostats.IOStats`).
"""

from .buffer import DEFAULT_POOL_PAGES, BufferPool
from .catalog import Catalog, TableEntry
from .iostats import DEFAULT_RATES, CostRates, IOStats
from .page import BYTES_PER_COLUMN, DEFAULT_PAGE_SIZE, Page, Row, rows_per_page
from .table import HeapTable

__all__ = [
    "BYTES_PER_COLUMN",
    "BufferPool",
    "Catalog",
    "CostRates",
    "DEFAULT_PAGE_SIZE",
    "DEFAULT_POOL_PAGES",
    "DEFAULT_RATES",
    "HeapTable",
    "IOStats",
    "Page",
    "Row",
    "TableEntry",
    "rows_per_page",
]
