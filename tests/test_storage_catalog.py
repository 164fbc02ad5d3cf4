"""Unit tests for the catalog."""

import pytest

from repro.storage.catalog import Catalog
from repro.storage.table import HeapTable


def make_table(name="t"):
    table = HeapTable(name, ("a", "b", "m"))
    table.append((0, 0, 1))
    return table


class TestRegistry:
    def test_register_and_get(self):
        catalog = Catalog()
        entry = catalog.register(make_table(), (0, 0))
        assert catalog.get("t") is entry
        assert "t" in catalog
        assert entry.levels == (0, 0)
        assert entry.n_rows == 1

    def test_duplicate_rejected(self):
        catalog = Catalog()
        catalog.register(make_table(), (0, 0))
        with pytest.raises(ValueError):
            catalog.register(make_table(), (1, 1))

    def test_missing_lookup_lists_known(self):
        catalog = Catalog()
        catalog.register(make_table(), (0, 0))
        with pytest.raises(KeyError, match="known tables"):
            catalog.get("nope")

    def test_drop(self):
        catalog = Catalog()
        catalog.register(make_table(), (0, 0))
        catalog.drop("t")
        assert "t" not in catalog
        with pytest.raises(KeyError):
            catalog.drop("t")

    def test_iteration_and_names(self):
        catalog = Catalog()
        catalog.register(make_table("x"), (0, 0))
        catalog.register(make_table("y"), (1, 0))
        assert catalog.names() == ["x", "y"]
        assert len(catalog) == 2
        assert [e.name for e in catalog] == ["x", "y"]

    def test_clustered_flag(self):
        catalog = Catalog()
        entry = catalog.register(make_table(), (0, 0), clustered=True)
        assert entry.clustered


class TestIndexes:
    def test_index_registry(self):
        catalog = Catalog()
        entry = catalog.register(make_table(), (0, 0))
        assert entry.index_for(0, 1) is None
        assert not entry.has_any_index()
        sentinel = object()
        entry.add_index(0, 1, sentinel)
        assert entry.index_for(0, 1) is sentinel
        assert entry.has_any_index()

    def test_duplicate_index_rejected(self):
        catalog = Catalog()
        entry = catalog.register(make_table(), (0, 0))
        entry.add_index(0, 1, object())
        with pytest.raises(ValueError):
            entry.add_index(0, 1, object())
