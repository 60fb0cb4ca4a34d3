"""Unit tests for the geographic database façade."""

import threading

import pytest

from repro.active import EventKind
from repro.errors import ObjectNotFoundError, SchemaError
from repro.geodb import (
    Attribute,
    FilePager,
    GeoClass,
    GeographicDatabase,
    GeometryType,
    Method,
    MetadataCatalog,
    Schema,
    TEXT,
)
from repro.spatial import BBox, Point


@pytest.fixture()
def db():
    database = GeographicDatabase("D")
    schema = database.create_schema("s")
    schema.add_class(GeoClass("Base", [Attribute("tag", TEXT)]))
    schema.add_class(GeoClass(
        "Station",
        [Attribute("code", TEXT, required=True),
         Attribute("position", GeometryType("point"))],
        methods=[Method("describe", [])],
        superclass="Base",
    ))
    return database


class TestSchemaManagement:
    def test_duplicate_schema_rejected(self, db):
        with pytest.raises(SchemaError):
            db.create_schema("s")

    def test_register_external_schema(self, db):
        other = Schema("other")
        db.register_schema(other)
        assert "other" in db.schema_names()
        with pytest.raises(SchemaError):
            db.register_schema(other)

    def test_unknown_schema(self, db):
        with pytest.raises(SchemaError):
            db.get_schema_object("ghost")


class TestObjectAccess:
    def test_find_vs_get(self, db):
        oid = db.insert("s", "Station", {"code": "a"})
        assert db.find_object(oid) is db.get_object(oid)
        assert db.find_object("Station#999") is None
        with pytest.raises(ObjectNotFoundError):
            db.get_object("Station#999")

    def test_locate(self, db):
        oid = db.insert("s", "Station", {"code": "a"})
        assert db.locate_object(oid) == ("s", "Station")

    def test_extent_with_subclasses(self, db):
        db.insert("s", "Base", {"tag": "b"})
        db.insert("s", "Station", {"code": "a"})
        all_base = list(db.extent_with_subclasses("s", "Base"))
        assert len(all_base) == 2


class TestSpatialIndex:
    def test_window_query(self, db):
        near = db.insert("s", "Station", {"code": "n", "position": Point(1, 1)})
        db.insert("s", "Station", {"code": "f", "position": Point(99, 99)})
        hits = db.window_query("s", "Station", "position", BBox(0, 0, 10, 10))
        assert [o.oid for o in hits] == [near]

    def test_non_spatial_attribute_rejected(self, db):
        with pytest.raises(SchemaError):
            db.spatial_index("s", "Station", "code")

    def test_index_tracks_delete(self, db):
        oid = db.insert("s", "Station", {"code": "n", "position": Point(1, 1)})
        db.delete(oid)
        assert db.window_query("s", "Station", "position",
                               BBox(0, 0, 10, 10)) == []


class TestMethods:
    def test_register_and_call(self, db):
        db.register_method("s", "Station", "describe",
                           lambda d, o: f"station {o.get('code')}")
        oid = db.insert("s", "Station", {"code": "X1"})
        assert db.call_method(db.get_object(oid), "describe") == "station X1"

    def test_undeclared_method_rejected(self, db):
        with pytest.raises(SchemaError):
            db.register_method("s", "Station", "ghost", lambda d, o: None)

    def test_unimplemented_method_rejected(self, db):
        oid = db.insert("s", "Station", {"code": "X1"})
        with pytest.raises(SchemaError):
            db.call_method(db.get_object(oid), "describe")


class TestPrimitives:
    def test_get_schema_returns_metadata_and_publishes(self, db):
        events = []
        db.bus.subscribe(lambda e: events.append(e),
                         kinds=[EventKind.GET_SCHEMA])
        info = db.get_schema("s", context="ctx")
        assert {c["name"] for c in info["classes"]} == {"Base", "Station"}
        assert info["hierarchy"]["Base"] == ["Station"]
        assert len(events) == 1
        assert events[0].context == "ctx"

    def test_get_class_returns_definition_and_extension(self, db):
        oid = db.insert("s", "Station", {"code": "a"})
        geo_class, objects = db.get_class("s", "Station")
        assert geo_class.name == "Station"
        assert [o.oid for o in objects] == [oid]
        assert db.bus.last_event.kind is EventKind.GET_CLASS

    def test_get_value(self, db):
        oid = db.insert("s", "Station", {"code": "a"})
        obj = db.get_value(oid)
        assert obj.oid == oid
        assert db.bus.last_event.payload["class"] == "Station"


class _WatchedLock:
    """The commit lock, recording when another thread has to wait."""

    def __init__(self, lock):
        self._lock = lock
        self.contended = threading.Event()

    def __enter__(self):
        if not self._lock.acquire(blocking=False):
            self.contended.set()
            self._lock.acquire()
        return self

    def __exit__(self, *exc):
        self._lock.release()


class TestGetClassAtomicity:
    def test_get_class_never_sees_half_a_commit(self, db):
        """A Get_Class issued while a two-insert commit is half applied
        returns the extent before or after the commit, never between.

        A probe pauses the commit after its first insert and runs the
        read on another thread. The read either returns (then it must
        not be torn) or waits on the commit lock; the probe waits for
        one of the two, so no schedule depends on timing.
        """
        db.insert("s", "Station", {"code": "seed"})
        before = len(db.extent("s", "Station"))
        lock = db._commit_lock = _WatchedLock(db._commit_lock)
        seen: list[int] = []
        read_done = threading.Event()

        def read():
            seen.append(len(db.get_class("s", "Station")[1]))
            read_done.set()

        original = db._apply_insert
        applied: list[str] = []

        def probe(intent, undo):
            original(intent, undo)
            applied.append(intent.oid)
            if len(applied) == 1:
                reader.start()
                for __ in range(1000):
                    if read_done.wait(0.01) or lock.contended.is_set():
                        break

        db._apply_insert = probe
        reader = threading.Thread(target=read)
        with db.transaction() as txn:
            txn.insert("s", "Station", {"code": "a"})
            txn.insert("s", "Station", {"code": "b"})
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert seen and seen[0] in (before, before + 2)


class TestStorageIntegration:
    def test_verify_storage(self, db):
        for i in range(20):
            db.insert("s", "Station",
                      {"code": f"c{i}", "position": Point(i, i)})
        assert db.verify_storage() == 20

    def test_updates_reach_storage(self, db):
        oid = db.insert("s", "Station", {"code": "a"})
        db.update(oid, {"code": "changed"})
        assert db.verify_storage() == 1

    def test_load_from_storage_roundtrip(self, db, tmp_path):
        path = str(tmp_path / "geo.db")
        source = GeographicDatabase("P", pager=FilePager(path))
        schema = Schema("s")
        schema.add_class(GeoClass("Station", [
            Attribute("code", TEXT, required=True),
            Attribute("position", GeometryType("point")),
        ]))
        source.register_schema(schema)
        oids = [
            source.insert("s", "Station",
                          {"code": f"c{i}", "position": Point(i, 0)})
            for i in range(7)
        ]
        catalog = MetadataCatalog(source)
        catalog.save_all_schemas()
        source.buffer.flush()
        source.pager.close()

        reopened = GeographicDatabase("P", pager=FilePager(path))
        catalog2 = MetadataCatalog(reopened)
        reopened.register_schema(catalog2.load_schema("s"))
        assert reopened.load_from_storage() == 7
        assert sorted(reopened.extent("s", "Station").oids()) == sorted(oids)
        # spatial index rebuilt
        assert len(reopened.window_query("s", "Station", "position",
                                         BBox(0, 0, 3, 1))) == 4
        # fresh oids do not collide with restored ones
        new_oid = reopened.insert("s", "Station", {"code": "new"})
        assert new_oid not in oids
        reopened.pager.close()

    def test_load_is_idempotent(self, db):
        db.insert("s", "Station", {"code": "a"})
        assert db.load_from_storage() == 0  # everything already live

    def test_stats_shape(self, db):
        db.insert("s", "Station", {"code": "a"})
        stats = db.stats()
        assert stats["objects"] == 1
        assert stats["extents"]["s.Station"] == 1
        assert "hit_ratio" in stats["buffer"]
