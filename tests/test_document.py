"""Files from outside the program (docs/architecture.md §"Files from outside
the program"): every kind the program reads back, truncated, type-flipped
or missing a key, either loads — and then gets through what consumes it —
or raises a ``DocumentError`` naming the file.  And the source keeps one
reader."""

import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.bench.history import RunRecord, diff_records, rerun_arguments
from repro.calibrate.profile import CalibrationProfile
from repro.document import DocumentError
from repro.engine.persist import load_database, save_database
from repro.obs.recorder import FlightRecorder, load_flight_dump

from helpers import make_tiny_db

REPO = Path(__file__).resolve().parent.parent

#: One value of each JSON type; a flip swaps a value for one of another.
JSON_VALUES = ["x", 7, 2.5, True, None, [], {}]


def record_consumers(record, path):
    """``repro bench --check`` short of the re-run itself: the arguments it
    re-runs with, and its comparison of the record against itself."""
    arguments = rerun_arguments(record)
    # The re-run builds its database at this scale, which must be a number.
    assert type(arguments["scale"]) in (int, float)
    assert diff_records(record, record) == []


def profile_consumers(profile, path):
    make_tiny_db(n_rows=20).apply_profile(profile)


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """kind -> (file to mutate, loader, consumers of what it loads)."""
    root = tmp_path_factory.mktemp("documents")
    store = save_database(
        make_tiny_db(n_rows=60, materialized=("X'Y",)), root / "store"
    )
    recorder = FlightRecorder(4)
    recorder.record("retry", batch_id=1, attempt=2)
    recorder.record_batch({"name": "batch", "children": []}, batch_id=1)
    for name in ("BENCH_paper.json", "PROFILE_paper.json"):
        (root / name).write_text((REPO / name).read_text())

    def load_store(path):
        return load_database(path.parent)

    return {
        "record": (root / "BENCH_paper.json", RunRecord.load, record_consumers),
        "profile": (
            root / "PROFILE_paper.json", CalibrationProfile.load,
            profile_consumers,
        ),
        "schema.json": (store / "schema.json", load_store, None),
        "catalog.json": (store / "catalog.json", load_store, None),
        "flight dump": (recorder.dump(root / "flight.json"), load_flight_dump, None),
    }


def json_paths(doc, path=()):
    """Every ``(path, value)`` of a JSON document, the root included."""
    yield path, doc
    items = (
        doc.items() if isinstance(doc, dict)
        else enumerate(doc) if isinstance(doc, list) else ()
    )
    for key, child in items:
        yield from json_paths(child, path + (key,))


def mutate(data, text: str) -> bytes:
    """Truncate at a drawn byte, flip a drawn value to another JSON type,
    or delete a drawn key."""
    how = data.draw(st.sampled_from(["truncate", "flip", "delete"]))
    raw = text.encode()
    if how == "truncate":
        return raw[: data.draw(st.integers(0, len(raw) - 1))]
    doc = json.loads(text)
    if how == "flip":
        path, old = data.draw(st.sampled_from(list(json_paths(doc))))
        new = data.draw(
            st.sampled_from([v for v in JSON_VALUES if type(v) is not type(old)])
        )
        if not path:
            return json.dumps(new).encode()
        get(doc, path[:-1])[path[-1]] = new
    else:
        path = data.draw(st.sampled_from([
            path for path, value in json_paths(doc)
            if path and isinstance(get(doc, path[:-1]), dict)
        ]))
        del get(doc, path[:-1])[path[-1]]
    return json.dumps(doc).encode()


def get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@pytest.mark.parametrize(
    "kind", ["record", "profile", "schema.json", "catalog.json", "flight dump"]
)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_damaged_document_loads_or_names_the_file(documents, kind, data):
    path, load, consume = documents[kind]
    original = path.read_bytes()
    path.write_bytes(mutate(data, original.decode()))
    try:
        loaded = load(path)
    except DocumentError as exc:
        assert path.name in str(exc), str(exc)
        return
    finally:
        path.write_bytes(original)
    if consume is not None:
        consume(loaded, path)


def test_one_reader_in_the_source():
    src = Path(repro.__file__).parent
    text = {
        str(path.relative_to(src)): path.read_text()
        for path in src.rglob("*.py")
    }

    def count(pattern):
        return {
            name: len(re.findall(pattern, body))
            for name, body in text.items()
            if re.search(pattern, body)
        }

    assert count(r"json\.loads?\(") == {"document.py": 1}
    assert count(r"\.read_text\(") == {"document.py": 1}
    retired = re.compile(
        r"^\s*def (_typed|_typed_str|_typed_number|_typed_dict|_str_tuple"
        r"|_rows_by_name|_load_profile)\(",
        re.MULTILINE,
    )
    assert [name for name, body in text.items() if retired.search(body)] == []
    # A file that does not load is exit 2 in one place: main().
    cli = text["cli.py"]
    handlers = [
        match.start()
        for match in re.finditer(r"except\b[^:]*\bDocumentError\b", cli)
    ]
    assert len(handlers) == 1 and handlers[0] > cli.index("\ndef main(")
