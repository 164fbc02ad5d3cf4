"""Tests for database save/load round-trips."""

import json

import numpy as np
import pytest

from repro.document import DocumentError
from repro.engine.persist import load_database, save_database
from repro.check import evaluate_reference
from repro.schema.query import Aggregate, DimPredicate, GroupBy, GroupByQuery

from helpers import make_tiny_db


def build():
    db = make_tiny_db(
        n_rows=250, materialized=("X'Y", "X'Y'"), index_tables=("XY",)
    )
    db.materialize((1, 1), name="counts", aggregate=Aggregate.COUNT)
    return db


class TestRoundTrip:
    def test_tables_and_rows_survive(self, tmp_path):
        db = build()
        save_database(db, tmp_path / "store")
        loaded = load_database(tmp_path / "store")
        assert sorted(loaded.catalog.names()) == sorted(db.catalog.names())
        for name in db.catalog.names():
            original = db.catalog.get(name)
            restored = loaded.catalog.get(name)
            assert restored.n_rows == original.n_rows
            assert restored.levels == original.levels
            assert restored.clustered == original.clustered
            assert restored.source_aggregate == original.source_aggregate
            assert sorted(original.table.all_rows()) == sorted(
                restored.table.all_rows()
            )

    def test_schema_survives(self, tmp_path):
        db = build()
        save_database(db, tmp_path / "store")
        loaded = load_database(tmp_path / "store")
        assert loaded.schema.name == db.schema.name
        assert loaded.schema.measure == db.schema.measure
        for original, restored in zip(
            db.schema.dimensions, loaded.schema.dimensions
        ):
            assert restored.name == original.name
            assert restored.n_levels == original.n_levels
            for depth in range(original.n_levels):
                assert restored.n_members(depth) == original.n_members(depth)
                assert restored.member_name(depth, 0) == original.member_name(
                    depth, 0
                )
            assert (
                restored.rollup_map(0, original.n_levels - 1).tolist()
                == original.rollup_map(0, original.n_levels - 1).tolist()
            )

    def test_indexes_rebuilt(self, tmp_path):
        db = build()
        save_database(db, tmp_path / "store")
        loaded = load_database(tmp_path / "store")
        entry = loaded.catalog.get("XY")
        assert entry.index_for(0, 0) is not None
        assert entry.index_for(1, 0) is not None

    def test_queries_agree_before_and_after(self, tmp_path):
        db = build()
        query = GroupByQuery(
            groupby=GroupBy((1, 2)),
            predicates=(DimPredicate(0, 1, frozenset({0, 3})),),
            label="roundtrip",
        )
        before = db.run_queries([query], "gg").result_for(query)
        save_database(db, tmp_path / "store")
        loaded = load_database(tmp_path / "store")
        after = loaded.run_queries([query], "gg").result_for(query)
        assert after.groups == before.groups

    def test_loaded_matches_reference(self, tmp_path):
        db = build()
        save_database(db, tmp_path / "store")
        loaded = load_database(tmp_path / "store")
        query = GroupByQuery(groupby=GroupBy((2, 2)))
        base = loaded.catalog.get("XY")
        expected = evaluate_reference(
            loaded.schema, base.table.all_rows(), query, base.levels
        )
        got = loaded.run_queries([query], "tplo").result_for(query)
        assert got.groups == expected.groups


class TestFormat:
    def test_version_checked(self, tmp_path):
        db = build()
        root = save_database(db, tmp_path / "store")
        doc = json.loads((root / "schema.json").read_text())
        doc["version"] = 999
        (root / "schema.json").write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="version"):
            load_database(root)

    def test_prime_names_become_safe_files(self, tmp_path):
        db = build()
        root = save_database(db, tmp_path / "store")
        catalog = json.loads((root / "catalog.json").read_text())
        for doc in catalog.values():
            assert "'" not in doc["file"]
            assert (root / doc["file"]).exists()

    def test_empty_table_round_trips(self, tmp_path):
        from repro.engine.database import Database

        from conftest import make_tiny_schema

        db = Database(make_tiny_schema(), page_size=64)
        db.load_base([], name="XY")
        root = save_database(db, tmp_path / "empty")
        loaded = load_database(root)
        assert loaded.catalog.get("XY").n_rows == 0

    def test_measure_saved_as_float_in_its_unit(self, tmp_path):
        """Version 1 unchanged: a table file holds the measure as float64 in
        its unit (``12.34``; a COUNT view's counts), and loading makes the
        same int64 column again."""
        db = build()
        root = save_database(db, tmp_path / "store")
        loaded = load_database(root)
        catalog = json.loads((root / "catalog.json").read_text())
        for name, doc in catalog.items():
            stored = db.catalog.get(name).table.read_columns(2)[1]
            with np.load(root / doc["file"]) as arrays:
                saved = arrays["measure"]
            unit = 1 if doc["source_aggregate"] == "count" else 100
            assert saved.dtype == np.float64
            assert saved.tolist() == (stored / unit).tolist()
            again = loaded.catalog.get(name).table.read_columns(2)[1]
            assert again.dtype == np.int64
            assert again.tolist() == stored.tolist()

    def test_index_kind_preserved(self, tmp_path):
        from repro.index.btree import PositionListJoinIndex

        db = make_tiny_db(n_rows=100, index_tables=())
        db.create_bitmap_index("XY", "X", kind="btree")
        root = save_database(db, tmp_path / "kinds")
        loaded = load_database(root)
        assert isinstance(
            loaded.catalog.get("XY").index_for(0, 0), PositionListJoinIndex
        )


class TestStrictLoad:
    """Every bad saved database is a ``ValueError`` naming the bad file —
    never a traceback from deep inside the loader (the CLI maps it to
    exit 2)."""

    @staticmethod
    def store(tmp_path):
        root = save_database(make_tiny_db(n_rows=60), tmp_path / "store")
        docs = {
            name: json.loads((root / name).read_text())
            for name in ("schema.json", "catalog.json")
        }
        return root, docs

    @staticmethod
    def fields(doc, path=()):
        """Every (path, value) of a JSON document, one list element deep."""
        if isinstance(doc, dict):
            for key, value in doc.items():
                yield path + (key,), value
                yield from TestStrictLoad.fields(value, path + (key,))
        elif isinstance(doc, list) and doc and isinstance(doc[0], (dict, list)):
            yield path + (0,), doc[0]
            yield from TestStrictLoad.fields(doc[0], path + (0,))

    def assert_refused(self, root, name):
        with pytest.raises(ValueError, match=name.replace(".", r"\.")):
            load_database(root)

    def test_missing_directory(self, tmp_path):
        self.assert_refused(tmp_path / "nowhere", "schema.json")

    @pytest.mark.parametrize("name", ["schema.json", "catalog.json"])
    def test_truncated_document(self, tmp_path, name):
        root, _ = self.store(tmp_path)
        text = (root / name).read_text()
        (root / name).write_text(text[: len(text) // 2])
        self.assert_refused(root, name)

    @pytest.mark.parametrize("name", ["schema.json", "catalog.json"])
    def test_every_type_flipped_field(self, tmp_path, name):
        root, docs = self.store(tmp_path)
        flips = {bool: "yes", int: "1", str: 1, list: "x", dict: [1]}
        paths = [(p, v) for p, v in self.fields(docs[name]) if type(v) in flips]
        assert len(paths) > 8
        for path, value in [((), docs[name])] + paths:
            doc = json.loads(json.dumps(docs[name]))
            if path:
                target = doc
                for key in path[:-1]:
                    target = target[key]
                target[path[-1]] = flips[type(value)]
            else:
                doc = flips[type(doc)]
            (root / name).write_text(json.dumps(doc))
            with pytest.raises(ValueError, match=name.replace(".", r"\.")):
                load_database(root)
        (root / name).write_text(json.dumps(docs[name]))
        load_database(root)

    def test_missing_field(self, tmp_path):
        root, docs = self.store(tmp_path)
        del docs["schema.json"]["buffer_pages"]
        (root / "schema.json").write_text(json.dumps(docs["schema.json"]))
        with pytest.raises(ValueError, match="schema.json.*buffer_pages"):
            load_database(root)

    def test_unreadable_table_file(self, tmp_path):
        root, docs = self.store(tmp_path)
        table = root / docs["catalog.json"]["XY"]["file"]
        table.write_bytes(table.read_bytes()[:40])
        self.assert_refused(root, table.name)

    @pytest.mark.parametrize("bad", [0.125, float("nan")])
    def test_measure_not_whole_cents(self, tmp_path, bad):
        root, docs = self.store(tmp_path)
        table = root / docs["catalog.json"]["XY"]["file"]
        with np.load(table) as arrays:
            columns = dict(arrays)
        columns["measure"][3] = bad
        np.savez_compressed(table, **columns)
        with pytest.raises(DocumentError, match=f"{table.name}.*row 3"):
            load_database(root)

    def test_table_file_outside_the_directory(self, tmp_path):
        root, docs = self.store(tmp_path)
        docs["catalog.json"]["XY"]["file"] = "../elsewhere.npz"
        (root / "catalog.json").write_text(json.dumps(docs["catalog.json"]))
        with pytest.raises(ValueError, match="catalog.json.*outside"):
            load_database(root)
