"""Column sets survive commits: patch-vs-rebuild lifecycle and its oracle.

After a commit the column cache derives the next set from the stale one
by recomputing only the rows the commit's write set names. Two oracles
prove that path correct, since every other check in the repository
(the result cache included) reads the same column set:

* **Fresh-build equality.** After every commit the cached set equals a
  fresh :class:`~repro.geodb.columns.ClassColumns` built from the
  extent: objects and oids in the same order, every materialized path
  column with its null count, every geometry and bbox column.
* **Row-path equality.** Every answer equals ``use_columns=False``.

Copy-on-write is checked beside them: columns of a set handed out
before a commit keep their values after the patch. The gap tests cover
every way a class version can move without a write set reaching the
cache (recovery replay, replicated batches, resyncs, a late or
reordered delivery) plus deletes and GC, and each must serve fresh
values.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.geodb import (
    GeographicDatabase,
    LocalReplicationSource,
    MemoryPager,
    QueryEngine,
    WriteAheadLog,
)
from repro.geodb.columns import ClassColumns
from repro.geodb.query_language import parse_query
from repro.geodb.transactions import _Intent
from repro.spatial import Point
from repro.workloads import build_mix_schema, build_phone_net_database
from repro.workloads.phone_net import PhoneNetParams
from repro.workloads.txn_mix import MIX_CLASS, MIX_SCHEMA

SCHEMA = "phone_net"

#: Column-path queries over flat attributes, a tuple field (MISSING
#: when the tuple is None), ordering with and without nulls, top-k,
#: aggregates and a spatial window.
POLE_QUERIES = [
    "select * from Pole where status = 'ok'",
    "select oid, status, install_year from Pole order by install_year",
    "select * from Pole order by desc install_year limit 4",
    "select * from Pole where pole_composition.pole_height > 12"
    " order by desc pole_composition.pole_height limit 5",
    "select count(*), avg(pole_composition.pole_height),"
    " min(install_year) from Pole"
    " where pole_composition.pole_material = 'wood'",
    "select * from Pole order by pole_composition.pole_material",
    "select * from Pole where within(pole_location, bbox(0, 0, 60, 60))",
]


def small_net():
    return build_phone_net_database(PhoneNetParams(
        blocks_x=2, blocks_y=2, poles_per_street=3, duct_count=2, seed=3))


def answer(result):
    return (result.oids(), result.rows, result.report["candidates"])


def check_answer(db, text):
    """The column answer equals the row answer; returns the result."""
    columns = QueryEngine(db).execute(db_schema(db), parse_query(text))
    rows = QueryEngine(db, use_columns=False).execute(
        db_schema(db), parse_query(text))
    assert answer(columns) == answer(rows), text
    return columns


def db_schema(db):
    return db.schema_names()[0]


def check_fresh(db, schema_name, class_name):
    """The cached set equals a fresh build of every column it holds."""
    cached = db.column_cache._cache[(schema_name, class_name)]
    assert cached.version == db.class_version(schema_name, class_name)
    fresh = ClassColumns(db, schema_name, class_name, cached.version,
                         list(db.extent(schema_name, class_name)))
    assert cached.cardinality == fresh.cardinality
    assert cached.oids == fresh.oids
    assert all(a is b for a, b in zip(cached.objects, fresh.objects))
    assert cached.row_of == fresh.row_of
    schema = db.get_schema_object(schema_name)
    for (path, query_class), (column, __, nulls) in cached._paths.items():
        geo_class = schema.get_class(query_class)
        assert column == fresh.path_column(path, geo_class), path
        assert nulls == fresh._paths[(path, query_class)][2], path
        assert cached.null_free(path, geo_class) == \
            fresh.null_free(path, geo_class)
    for attr, (geoms, boxes) in cached._geometry.items():
        assert (geoms, boxes) == fresh.geometry_column(attr), attr


def frozen(columns):
    """Value copies of every column a published set holds."""
    return ({key: list(entry[0]) for key, entry in columns._paths.items()},
            {attr: (list(g), list(b))
             for attr, (g, b) in columns._geometry.items()},
            list(columns.objects), list(columns.oids))


def unchanged(columns, copies):
    paths, geometry, objects, oids = copies
    return ({key: entry[0] for key, entry in columns._paths.items()
             if key in paths} == paths
            and {attr: columns._geometry[attr] for attr in geometry}
            == geometry
            and columns.objects == objects and columns.oids == oids)


def warm(db):
    """Materialize every column kind: paths, tuple fields, geometry."""
    for text in POLE_QUERIES:
        check_answer(db, text)
    cache = db.column_cache
    cache.for_class(SCHEMA, "Pole").geometry_column("pole_location")
    return cache


# ---------------------------------------------------------------------------
# Property suite: random commit sequences against both oracles
# ---------------------------------------------------------------------------

maybe_year = st.one_of(st.none(), st.integers(min_value=1950, max_value=2030))
materials = st.sampled_from(["wood", "steel", "concrete"])

commit_ops = st.one_of(
    st.tuples(st.just("status"), st.integers(0, 99),
              st.sampled_from(["ok", "broken", "retired", None])),
    st.tuples(st.just("year"), st.integers(0, 99), maybe_year),
    st.tuples(st.just("tuple"), st.integers(0, 99),
              st.one_of(st.none(), st.tuples(
                  materials, st.floats(min_value=5, max_value=20)))),
    st.tuples(st.just("move"), st.integers(0, 99),
              st.tuples(st.integers(0, 120), st.integers(0, 120))),
    st.tuples(st.just("insert"), st.integers(0, 99),
              st.tuples(maybe_year, st.integers(0, 120))),
    st.tuples(st.just("delete"), st.integers(0, 99), st.none()),
)


def apply_op(db, txn, op, inserted, deleted):
    kind, pick, arg = op
    poles = [oid for oid in db.extent(SCHEMA, "Pole").oids()
             if oid not in deleted]
    oid = poles[pick % len(poles)]
    if kind == "status":
        txn.update(oid, {"status": arg})
    elif kind == "year":
        txn.update(oid, {"install_year": arg})
    elif kind == "tuple":
        txn.update(oid, {"pole_composition": None if arg is None else {
            "pole_material": arg[0], "pole_diameter": 0.2,
            "pole_height": arg[1]}})
    elif kind == "move":
        txn.update(oid, {"pole_location": Point(float(arg[0]),
                                                float(arg[1]))})
    elif kind == "insert":
        inserted.append(txn.insert(SCHEMA, "Pole", {
            "pole_type": 1, "status": "new", "install_year": arg[0],
            "pole_location": Point(float(arg[1]), 7.0),
        }))
    elif inserted:
        # Only poles this test inserted: nothing references them.
        victim = inserted.pop(pick % len(inserted))
        txn.delete(victim)
        deleted.add(victim)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(commits=st.lists(st.lists(commit_ops, min_size=1, max_size=3),
                        min_size=1, max_size=8),
       reads=st.lists(st.sampled_from(POLE_QUERIES), min_size=8,
                      max_size=8))
def test_patched_sets_equal_fresh_builds(commits, reads):
    db = small_net()
    cache = warm(db)
    inserted: list[str] = []
    for ops, text in zip(commits, reads):
        before = cache._cache[(SCHEMA, "Pole")]
        copies = frozen(before)
        patches = cache.patches
        deleted: set[str] = set()
        with db.transaction() as txn:
            for op in ops:
                apply_op(db, txn, op, inserted, deleted)
        check_answer(db, text)
        # Index-scan plans skip the columns; refresh them regardless.
        after = cache.for_class(SCHEMA, "Pole")
        check_fresh(db, SCHEMA, "Pole")
        assert unchanged(before, copies), "a published set was mutated"
        if cache.patches > patches:
            # A patch carries every column the stale set held.
            assert set(before._paths) <= set(after._paths)
            assert set(before._geometry) <= set(after._geometry)
    for text in POLE_QUERIES:
        check_answer(db, text)
    check_fresh(db, SCHEMA, "Pole")


# ---------------------------------------------------------------------------
# Lifecycle: which commits patch and which rebuild
# ---------------------------------------------------------------------------


class TestPatchLifecycle:
    def test_update_and_insert_patch(self):
        db = small_net()
        cache = warm(db)
        builds = cache.builds
        victim = db.extent(SCHEMA, "Pole").oids()[0]
        db.update(victim, {"status": "broken", "install_year": None})
        check_answer(db, POLE_QUERIES[1])
        db.insert(SCHEMA, "Pole", {"pole_type": 2, "status": "ok",
                                   "pole_location": Point(3.0, 4.0)})
        check_answer(db, POLE_QUERIES[2])
        assert (cache.builds, cache.patches, cache.invalidations) == \
            (builds, 2, 0)
        check_fresh(db, SCHEMA, "Pole")

    def test_update_shares_membership_columns(self):
        db = small_net()
        cache = warm(db)
        before = cache._cache[(SCHEMA, "Pole")]
        db.update(db.extent(SCHEMA, "Pole").oids()[1], {"status": "x"})
        check_answer(db, POLE_QUERIES[0])
        after = cache._cache[(SCHEMA, "Pole")]
        assert after is not before
        assert after.objects is before.objects
        assert after.oids is before.oids
        assert after.row_of is before.row_of
        for key, entry in before._paths.items():
            assert after._paths[key][0] is not entry[0]

    def test_null_flag_follows_patches(self):
        db = small_net()
        pole = db.get_schema_object(SCHEMA).get_class("Pole")
        cache = warm(db)
        victim = db.extent(SCHEMA, "Pole").oids()[2]
        year = db.get_object(victim).get("install_year")
        assert cache._cache[(SCHEMA, "Pole")].null_free("install_year", pole)
        db.update(victim, {"install_year": None})
        check_answer(db, POLE_QUERIES[1])
        assert not cache._cache[(SCHEMA, "Pole")].null_free(
            "install_year", pole)
        db.update(victim, {"install_year": year})
        check_answer(db, POLE_QUERIES[1])
        assert cache._cache[(SCHEMA, "Pole")].null_free("install_year", pole)
        assert cache.patches == 2

    def test_delete_rebuilds(self):
        db = small_net()
        cache = warm(db)
        oid = db.insert(SCHEMA, "Pole", {"pole_type": 2, "status": "ok",
                                         "pole_location": Point(3.0, 4.0)})
        check_answer(db, POLE_QUERIES[0])
        invalidations = cache.invalidations
        db.delete(oid)
        result = check_answer(db, POLE_QUERIES[0])
        assert oid not in result.oids()
        assert cache.invalidations == invalidations + 1
        check_fresh(db, SCHEMA, "Pole")

    def test_rolled_back_delete_keeps_paths_in_step(self, monkeypatch):
        """A delete whose apply fails is rolled back; the rollback moves
        the object to the end of the extent, and the column path must
        follow the row path's order."""
        db = small_net()
        cache = warm(db)
        victim = next(oid for oid in db.extent(SCHEMA, "Pole").oids()
                      if not db._incoming_refs.get(oid))

        def failing_delete(rid):
            raise OSError("injected heap failure")

        monkeypatch.setattr(db.heap, "delete", failing_delete)
        with pytest.raises(OSError):
            db.delete(victim)
        monkeypatch.undo()
        check_answer(db, POLE_QUERIES[0])
        check_fresh(db, SCHEMA, "Pole")
        assert cache.invalidations == 0 and cache.builds == 2

    def test_commit_on_another_class_keeps_the_set(self):
        db = small_net()
        cache = warm(db)
        before = cache._cache[(SCHEMA, "Pole")]
        supplier = db.extent(SCHEMA, "Supplier").oids()[0]
        db.update(supplier, {"rating": 5})
        check_answer(db, POLE_QUERIES[0])
        assert cache._cache[(SCHEMA, "Pole")] is before
        assert not cache._deltas

    def test_pending_delta_stays_bounded(self):
        db = small_net()
        cache = warm(db)
        poles = db.extent(SCHEMA, "Pole").oids()
        for i in range(3 * len(poles)):
            db.update(poles[i % len(poles)], {"install_year": 1900 + i})
            delta = cache._deltas.get((SCHEMA, "Pole"))
            assert delta is None or len(delta.oids) <= len(poles)
        for i in range(len(poles) + 1):
            db.insert(SCHEMA, "Pole", {"pole_type": 2, "status": "ok",
                                       "pole_location": Point(1.0, i)})
        assert (SCHEMA, "Pole") not in cache._deltas
        check_answer(db, POLE_QUERIES[1])
        check_fresh(db, SCHEMA, "Pole")

    def test_gc_versions_between_commits(self):
        db = small_net()
        cache = warm(db)
        reader = db.transaction()       # keeps commit-log entries alive
        victim = db.extent(SCHEMA, "Pole").oids()[0]
        db.update(victim, {"status": "gc-1"})
        reader.abort()
        db.gc_versions()
        db.update(victim, {"status": "gc-2"})
        result = check_answer(
            db, "select * from Pole where status = 'gc-2'")
        assert result.oids() == [victim]
        check_fresh(db, SCHEMA, "Pole")
        assert cache.invalidations == 0


class TestDeliveryGaps:
    """Readers never patch from a partial or broken chain of deltas."""

    @staticmethod
    def hold_deliveries(db):
        """Swap the cache's listener for one that queues write sets."""
        cache = db.column_cache
        held = []
        db.remove_write_set_listener(cache._on_write_set)
        db.add_write_set_listener(held.append)
        return cache, held

    def test_reader_ahead_of_the_delta_rebuilds(self):
        db = small_net()
        cache = warm(db)
        cache, held = self.hold_deliveries(db)
        victim = db.extent(SCHEMA, "Pole").oids()[0]
        db.update(victim, {"status": "early"})
        result = check_answer(
            db, "select * from Pole where status = 'early'")
        assert result.oids() == [victim]
        assert cache.invalidations == 1 and cache.patches == 0
        # The late delivery is already covered by the rebuilt set.
        db.remove_write_set_listener(held.append)
        db.add_write_set_listener(cache._on_write_set)
        cache._on_write_set(held.pop())
        assert not cache._deltas
        db.update(victim, {"status": "after"})
        check_answer(db, "select * from Pole where status = 'after'")
        assert cache.patches == 1
        check_fresh(db, SCHEMA, "Pole")

    def test_out_of_order_delivery_rebuilds(self):
        db = small_net()
        cache = warm(db)
        cache, held = self.hold_deliveries(db)
        first, second = db.extent(SCHEMA, "Pole").oids()[:2]
        db.update(first, {"status": "one"})
        db.update(second, {"status": "two"})
        for write_set in reversed(held):
            cache._on_write_set(write_set)
        result = check_answer(
            db, "select * from Pole where status = 'one' or status = 'two'")
        assert sorted(result.oids()) == sorted([first, second])
        assert cache.patches == 0 and cache.invalidations == 1
        check_fresh(db, SCHEMA, "Pole")


class TestReaderRaces:
    """Interleavings of two readers, driven on one thread by a hook."""

    def test_patch_starts_from_the_set_cached_now(self, monkeypatch):
        """A reader that loaded the cached set before another reader
        replaced it must patch the replacement: the pending delta
        describes only the commits after it."""
        db = small_net()
        cache = warm(db)
        first, second = db.extent(SCHEMA, "Pole").oids()[:2]
        db.update(first, {"status": "v2"})
        original = db.class_version
        calls = []

        def other_reader_then_commit(schema_name, class_name):
            calls.append(class_name)
            if len(calls) == 2:         # inside the first reader's patch
                monkeypatch.setattr(db, "class_version", original)
                cache.for_class(SCHEMA, "Pole")
                db.update(second, {"status": "v3"})
            return original(schema_name, class_name)

        monkeypatch.setattr(db, "class_version", other_reader_then_commit)
        cache.for_class(SCHEMA, "Pole")
        assert len(calls) == 2
        check_fresh(db, SCHEMA, "Pole")
        result = check_answer(
            db, "select * from Pole where status = 'v2' or status = 'v3'")
        assert sorted(result.oids()) == sorted([first, second])

    def test_late_publish_of_an_older_set_is_ignored(self):
        """A reader that finishes after a newer set was published must
        not install its older one: the pending delta chains from the
        newer set's version."""
        db = small_net()
        cache = warm(db)
        first, second = db.extent(SCHEMA, "Pole").oids()[:2]
        older = cache.for_class(SCHEMA, "Pole")
        db.update(first, {"status": "late-1"})
        newer = cache.for_class(SCHEMA, "Pole")
        db.update(second, {"status": "late-2"})
        cache._publish((SCHEMA, "Pole"), older)
        assert cache._cache[(SCHEMA, "Pole")] is newer
        result = check_answer(
            db, "select * from Pole where status like 'late-'")
        assert sorted(result.oids()) == sorted([first, second])
        check_fresh(db, SCHEMA, "Pole")


def test_concurrent_commits_and_readers_converge():
    """Two committing threads and two reading threads share one cache
    under a short switch interval; once they stop, the cached set equals
    a fresh build, so no write set was lost between delta, patch and
    publish."""
    db = small_net()
    cache = warm(db)
    poles = db.extent(SCHEMA, "Pole").oids()
    year = db.get_schema_object(SCHEMA).get_class("Pole")
    errors: list[BaseException] = []
    done = threading.Event()

    def commit(seed):
        rng = random.Random(seed)
        mine = poles[seed % 2::2]       # disjoint: no write conflicts
        try:
            for i in range(150):
                if rng.random() < 0.8:
                    db.update(rng.choice(mine), {
                        "install_year": rng.choice([None, 1900 + i]),
                        "status": rng.choice(["ok", "busy"])})
                else:
                    db.insert(SCHEMA, "Pole", {
                        "pole_type": 1, "status": "new", "install_year": i,
                        "pole_location": Point(float(seed), float(i))})
        except BaseException as exc:        # reported by the main thread
            errors.append(exc)

    def read():
        try:
            while not done.is_set():
                columns = cache.for_class(SCHEMA, "Pole")
                if columns is not None:
                    columns.path_column("install_year", year)
                    columns.geometry_column("pole_location")
        except BaseException as exc:
            errors.append(exc)

    writers = [threading.Thread(target=commit, args=(seed,))
               for seed in (1, 2)]
    readers = [threading.Thread(target=read) for __ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in writers + readers:
            thread.start()
        for thread in writers:
            thread.join(timeout=60)
        done.set()
        for thread in readers:
            thread.join(timeout=60)
    finally:
        done.set()
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in writers + readers)
    assert not errors, errors
    assert cache.for_class(SCHEMA, "Pole") is not None
    check_fresh(db, SCHEMA, "Pole")
    for text in POLE_QUERIES:
        check_answer(db, text)


# ---------------------------------------------------------------------------
# Version moves that bypass the write-set listener
# ---------------------------------------------------------------------------


def mix_db(**wal_kwargs) -> GeographicDatabase:
    db = GeographicDatabase("gaps", pager=MemoryPager())
    db.register_schema(build_mix_schema())
    db.attach_wal(WriteAheadLog(MemoryPager(), sync_mode="none",
                                **wal_kwargs))
    for i in range(12):
        db.insert(MIX_SCHEMA, MIX_CLASS, {
            "name": f"f{i}", "size": i, "location": Point(float(i), 1.0)})
    return db


MIX_QUERIES = [
    f"select * from {MIX_CLASS} where size > 5",
    f"select oid, size from {MIX_CLASS} order by desc size limit 3",
    f"select * from {MIX_CLASS} where within(location, bbox(0, 0, 4, 4))",
]


def warm_mix(db):
    for text in MIX_QUERIES:
        check_answer(db, text)
    return db.column_cache


def log_unapplied_update(db, oid, changes):
    """A committed batch that reached the log but not the extents, as
    after a crash between the durability point and the apply."""
    wal = db.wal
    wal.log_begin(9001)
    wal.log_intent(9001, db._encode_intent(_Intent(
        "update", MIX_SCHEMA, MIX_CLASS, oid, changes)))
    wal.log_commit(9001, commit_ts=db._commit_ts + 1)


class TestListenerBypass:
    def test_recovery_replay_rebuilds(self):
        db = mix_db()
        db.checkpoint()
        cache = warm_mix(db)
        oid = db.extent(MIX_SCHEMA, MIX_CLASS).oids()[0]
        log_unapplied_update(db, oid, {"size": 777})
        assert db.recover() == 1
        result = check_answer(db, MIX_QUERIES[1])
        assert result.oids()[0] == oid
        assert cache.patches == 0 and cache.invalidations == 1
        check_fresh(db, MIX_SCHEMA, MIX_CLASS)

    def test_replay_between_live_commits_breaks_the_chain(self):
        db = mix_db()
        db.checkpoint()
        cache = warm_mix(db)
        first, replayed, last = db.extent(MIX_SCHEMA, MIX_CLASS).oids()[:3]
        db.update(first, {"size": 301})
        db.checkpoint()
        log_unapplied_update(db, replayed, {"size": 302})
        assert db.recover() == 1
        db.update(last, {"size": 303})
        result = check_answer(db, MIX_QUERIES[1])
        assert result.oids() == [last, replayed, first]
        assert cache.patches == 0 and cache.invalidations == 1
        check_fresh(db, MIX_SCHEMA, MIX_CLASS)

    def test_replicated_batches_rebuild(self):
        leader = mix_db()
        follower = GeographicDatabase.follow(
            LocalReplicationSource(leader), name="f")
        cache = warm_mix(follower)
        oid = leader.extent(MIX_SCHEMA, MIX_CLASS).oids()[3]
        leader.update(oid, {"size": 500})
        assert follower.poll_replication() == 1
        result = check_answer(follower, MIX_QUERIES[1])
        assert result.oids()[0] == oid
        assert cache.invalidations == 1 and cache.patches == 0
        check_fresh(follower, MIX_SCHEMA, MIX_CLASS)

    def test_resync_serves_the_new_snapshot(self):
        leader = mix_db()
        source = LocalReplicationSource(leader, retain=2)
        follower = GeographicDatabase.follow(source, name="f")
        cache = warm_mix(follower)
        oids = leader.extent(MIX_SCHEMA, MIX_CLASS).oids()
        for i, oid in enumerate(oids[:6]):
            leader.update(oid, {"size": 100 + i})
        leader.checkpoint()
        follower.poll_replication()
        assert follower._resyncs == 1
        # The resync keeps one cache (and one listener), emptied.
        assert follower.column_cache is cache
        assert follower._write_set_listeners.count(cache._on_write_set) == 1
        for text in MIX_QUERIES:
            check_answer(follower, text)
        result = check_answer(follower, MIX_QUERIES[1])
        assert result.oids() == [oids[5], oids[4], oids[3]]
        check_fresh(follower, MIX_SCHEMA, MIX_CLASS)

    def test_invalidate_clears_sets_and_deltas(self):
        db = mix_db()
        cache = warm_mix(db)
        db.update(db.extent(MIX_SCHEMA, MIX_CLASS).oids()[0], {"size": 1})
        assert cache._deltas
        cache.invalidate()
        assert not cache._cache and not cache._deltas
        check_answer(db, MIX_QUERIES[0])
        check_fresh(db, MIX_SCHEMA, MIX_CLASS)
