"""Columnar scan storage: version-stamped per-class column sets.

The query engine's row path filters by calling a compiled closure on
every candidate :class:`~repro.geodb.instances.GeoObject` — one Python
call, one dict probe and one comparison per row per predicate term. For
the scan-heavy analysis queries the customization loop fires constantly
(rule evaluation, presentation refresh, live-query fallback
re-execution), that per-row interpreter overhead dominates once the
result cache misses.

This module materializes the attribute paths a query touches into
parallel Python lists — one **column** per path, plus an oid column and
a packed bbox column per geometry attribute — so predicate kernels
(:meth:`~repro.geodb.query.Predicate.compile_columns`) can run as plain
list comprehensions over positions, without materializing or calling
into any object until the surviving rows are known.

Freshness: a column set is stamped with ``(class commit version, extent
cardinality)`` and served while both match the database. When a commit
moves the stamp, the cache either **patches** or **rebuilds**:

* *Patch.* The cache listens to each commit's write set
  (:class:`~repro.geodb.database.CommitWriteSet`) and keeps, per cached
  class, the oids written since the set's version. It chains commits by
  their ``prev_versions``, the same continuity guard live queries use.
  When that chain reaches the class's current version, the next reader
  derives a new set from the stale one: it copies each materialized
  column and recomputes only the written rows with the same accessors.
  Inserts append in extent order. Updates mutate objects in place, so
  the object, oid and ``oid -> row`` columns are shared as they are.
* *Rebuild.* Anything a patch cannot prove complete rebuilds from the
  extent: a delete or replaced object, a class version the chain has
  not reached (a reader that sees a commit before its write set is
  delivered), and every gap. WAL recovery replay, replicated batches and
  resyncs bump class versions without a write set, so they always show
  up as gaps. Snapshot installs and rolled-back commits clear the
  cache: a resync can reinstall identical versions over brand-new
  objects, and undoing a delete moves its object to the end of the
  extent. A pending delta that outgrows its set is dropped too, so
  nothing grows between two queries on a class.

Published sets are **copy-on-write**: no column of a set handed to a
reader is ever changed; a patch writes into copies. Builds, patches and
lazy column materialization all read objects inside the database's
mutation seqlock, so no column caches a half-applied commit. If a
commit is applying concurrently, a build or patch gives up and the
engine answers that scan on the row path
(``query.columns.fallback{reason=commit-in-flight}``).

Column sets describe **the latest committed state only**. MVCC snapshot
readers (``Transaction.read`` / ``Transaction.query``) and mid-
transaction overlays never touch this cache — they resolve through the
version store — and the engine itself only executes at the latest
commit, so a fresh column set is always the state the row path would
have scanned.
"""

from __future__ import annotations

import threading
from typing import Any

from .. import obs
from ..spatial.geometry import Geometry
from .query import MISSING, compile_path
from .schema import GeoClass

#: Build attempts against the commit seqlock before giving up (the
#: engine then answers via the row path; the next query retries).
_BUILD_RETRIES = 4


def _is_null(value) -> bool:
    return value is None or value is MISSING


def _box(geom) -> tuple | None:
    if isinstance(geom, Geometry):
        box = geom.bbox()
        return (box.min_x, box.min_y, box.max_x, box.max_y)
    return None


class ClassColumns:
    """The materialized columns of one (schema, class) at one version.

    ``objects`` is the extent snapshot the columns are aligned with, in
    extent (insertion) order: position ``i`` of every column describes
    ``objects[i]``. Value columns are built lazily per attribute path —
    a query only pays for the paths it touches — and are keyed by the
    *query class* too, because path resolution applies the query class's
    attribute defaults to every closure member (exactly like the row
    path's compiled accessors).
    """

    __slots__ = ("schema_name", "class_name", "version", "cardinality",
                 "objects", "oids", "_row_of", "_paths", "_geometry", "_db")

    def __init__(self, database, schema_name: str, class_name: str,
                 version: int, objects: list):
        self._db = database
        self.schema_name = schema_name
        self.class_name = class_name
        self.version = version
        self.cardinality = len(objects)
        self.objects = objects
        #: the oid column, aligned with ``objects``
        self.oids = [obj.oid for obj in objects]
        self._row_of: dict[str, int] | None = None
        #: (path, query class name) -> (value column, accessor, nulls)
        self._paths: dict[tuple[str, str], tuple[list, Any, int]] = {}
        #: geometry attr -> (value column, packed bbox column)
        self._geometry: dict[str, tuple[list, list]] = {}

    def __len__(self) -> int:
        return self.cardinality

    @property
    def row_of(self) -> dict[str, int]:
        """oid -> row position, for hash-scan and shard-slice selection."""
        if self._row_of is None:
            self._row_of = {oid: i for i, oid in enumerate(self.oids)}
        return self._row_of

    def _keep(self, seq: int) -> bool:
        """True when no commit applied since ``seq`` was sampled, so a
        column read from the objects in between may be cached."""
        return not seq & 1 and self._db._mutation_seq == seq

    def _path_entry(self, path: str, geo_class: GeoClass) -> tuple:
        key = (path, geo_class.name)
        entry = self._paths.get(key)
        if entry is None:
            seq = self._db._mutation_seq
            accessor = compile_path(path, geo_class)
            column = [accessor(obj) for obj in self.objects]
            entry = (column, accessor, sum(map(_is_null, column)))
            if self._keep(seq):
                self._paths[key] = entry
        return entry

    def path_column(self, path: str, geo_class: GeoClass) -> list:
        """The value column for an attribute path.

        Values are resolved through :func:`~repro.geodb.query.
        compile_path` with ``geo_class``'s defaults — the same accessor
        the row path compiles — so a position holds exactly what the
        row path would have compared, including the ``MISSING`` sentinel
        for unresolvable dotted paths.
        """
        return self._path_entry(path, geo_class)[0]

    def null_free(self, path: str, geo_class: GeoClass) -> bool:
        """True when no row of the path's column is ``None``/``MISSING``
        (counted at build and kept by patches, so ordered scans skip a
        per-query pass over the column)."""
        return self._path_entry(path, geo_class)[2] == 0

    def geometry_column(self, attr: str) -> tuple[list, list]:
        """``(geometry column, packed bbox column)`` for one attribute.

        The geometry column holds the raw attribute value (spatial
        predicates read ``obj._values`` directly, never type defaults);
        the bbox column packs each geometry's bounds as a
        ``(min_x, min_y, max_x, max_y)`` tuple — ``None`` where the
        value is not a :class:`~repro.spatial.geometry.Geometry` — so
        kernels can reject rows on bounds without touching the geometry.
        """
        cached = self._geometry.get(attr)
        if cached is None:
            seq = self._db._mutation_seq
            geoms = [obj._values.get(attr) for obj in self.objects]
            cached = (geoms, [_box(geom) for geom in geoms])
            if self._keep(seq):
                self._geometry[attr] = cached
        return cached

    def patched(self, version: int, oids, extent) -> ClassColumns | None:
        """A copy at ``version`` with the rows of ``oids`` recomputed.

        ``oids`` must hold every oid of this class written by commits
        after ``self.version`` up to ``version``; ``extent`` is the live
        extent, read by the caller inside the mutation seqlock. Returns
        ``None`` when membership changed in a way a patch cannot express
        (a deleted or replaced object, or a cardinality the inserts do
        not explain); the caller rebuilds. ``self`` is never changed.
        """
        objects = self.objects
        row_of = self.row_of
        rows: list[int] = []
        inserted: set[str] = set()
        for oid in oids:
            obj = extent.get(oid)
            row = row_of.get(oid)
            if row is None:
                if obj is not None:
                    inserted.add(oid)
            elif obj is not objects[row]:
                return None
            else:
                rows.append(row)
        if len(extent) != self.cardinality + len(inserted):
            return None
        oids = self.oids
        if inserted:
            tail = extent.newest(len(inserted))
            if {obj.oid for obj in tail} != inserted:
                return None
            objects = objects + tail
            oids = oids + [obj.oid for obj in tail]
            row_of = dict(row_of)
            for row, obj in enumerate(tail, self.cardinality):
                row_of[obj.oid] = row
                rows.append(row)
        successor = ClassColumns.__new__(ClassColumns)
        successor._db = self._db
        successor.schema_name = self.schema_name
        successor.class_name = self.class_name
        successor.version = version
        successor.cardinality = len(objects)
        successor.objects = objects
        successor.oids = oids
        successor._row_of = row_of
        # Copies padded for the inserted rows; a pad counts as a null
        # until its row is computed below.
        pad = [None] * len(inserted)
        successor._paths = paths = {}
        for key, (column, accessor, nulls) in self._paths.copy().items():
            column = column + pad
            nulls += len(pad)
            for row in rows:
                value = accessor(objects[row])
                nulls += _is_null(value) - _is_null(column[row])
                column[row] = value
            paths[key] = (column, accessor, nulls)
        successor._geometry = geometry = {}
        for attr, (geoms, boxes) in self._geometry.copy().items():
            geoms, boxes = geoms + pad, boxes + pad
            for row in rows:
                geoms[row] = geom = objects[row]._values.get(attr)
                boxes[row] = _box(geom)
            geometry[attr] = (geoms, boxes)
        return successor

    def column_count(self) -> int:
        """Materialized columns (paths + geometry pairs), for status."""
        return len(self._paths) + 2 * len(self._geometry)

    def describe(self) -> dict[str, Any]:
        return {
            "schema": self.schema_name,
            "class": self.class_name,
            "version": self.version,
            "rows": self.cardinality,
            "columns": self.column_count(),
            "paths": sorted(path for path, __ in self._paths),
        }


class _Delta:
    """Oids of one class written since its cached set's version, by the
    unbroken chain of commits that ends at ``upto``."""

    __slots__ = ("upto", "oids")

    def __init__(self, upto: int):
        self.upto = upto
        self.oids: set[str] = set()


class ColumnCache:
    """Per-(schema, class) column sets for one database.

    Created lazily by :attr:`~repro.geodb.database.GeographicDatabase.
    column_cache`; it subscribes to the database's commit write sets so
    entries can be patched on first use after a commit (see module
    docstring).
    """

    def __init__(self, database):
        self._db = database
        self._cache: dict[tuple[str, str], ClassColumns] = {}
        #: (schema, class) -> writes since the cached set's version;
        #: guarded by ``_lock`` (written on committing threads)
        self._deltas: dict[tuple[str, str], _Delta] = {}
        self._lock = threading.Lock()
        # Counters feed the CLI ``column-status`` hit ratios; the obs
        # counters mirror them when a recorder is enabled.
        self.builds = 0
        self.patches = 0
        self.hits = 0
        self.invalidations = 0
        database.add_write_set_listener(self._on_write_set)

    def _on_write_set(self, write_set) -> None:
        """Record a commit's written oids against each cached class it
        continues; a commit that does not continue a class's chain
        breaks it, so the next reader rebuilds."""
        written: dict[tuple[str, str], list[str]] = {}
        for op in write_set.ops:
            written.setdefault((op.schema_name, op.class_name),
                               []).append(op.oid)
        commit_ts = write_set.commit_ts
        with self._lock:
            for key, prev in write_set.prev_versions.items():
                cached = self._cache.get(key)
                if cached is None:
                    continue
                delta = self._deltas.get(key)
                if delta is None:
                    if prev != cached.version:
                        continue        # covered by the set, or a gap
                    delta = self._deltas[key] = _Delta(commit_ts)
                elif prev != delta.upto:
                    if commit_ts > delta.upto:
                        del self._deltas[key]
                    continue
                delta.upto = commit_ts
                delta.oids.update(written.get(key, ()))
                if len(delta.oids) > cached.cardinality:
                    del self._deltas[key]   # a rebuild is cheaper

    def for_class(self, schema_name: str,
                  class_name: str) -> ClassColumns | None:
        """A version-fresh column set, or ``None`` mid-commit.

        Cached sets are validated against ``(class commit version,
        extent cardinality)``; a stale set is patched from the commits'
        write sets when they reach the current version, and rebuilt
        otherwise. Returns ``None`` when a commit is applying
        concurrently (the extent cannot be read consistently) — callers
        fall back to the row path and retry on the next query.
        """
        db = self._db
        key = (schema_name, class_name)
        extent = db.extent(schema_name, class_name)
        cached = self._cache.get(key)
        if cached is not None \
                and cached.version == db.class_version(schema_name,
                                                       class_name) \
                and cached.cardinality == len(extent):
            self.hits += 1
            rec = obs.RECORDER
            if rec.enabled:
                rec.inc("query.columns.hit")
            return cached
        # Patch or rebuild against one commit state: the version, the
        # delta and every object read must come from the same state, so
        # the work is bracketed by the mutation seqlock exactly like
        # Transaction.query's candidate collection.
        for __ in range(_BUILD_RETRIES):
            seq = db._mutation_seq
            if seq & 1:
                continue
            version = db.class_version(schema_name, class_name)
            base, oids = self._patch_source(key, version)
            try:
                fresh = None if oids is None \
                    else base.patched(version, oids, extent)
                patched = fresh is not None
                if fresh is None:
                    fresh = ClassColumns(db, schema_name, class_name,
                                         version, list(extent))
            except RuntimeError:            # extent resized mid-read
                continue
            if db._mutation_seq == seq:
                break
        else:
            return None
        self._publish(key, fresh)
        rec = obs.RECORDER
        if patched:
            self.patches += 1
            if rec.enabled:
                rec.inc("query.columns.patch")
            return fresh
        self.builds += 1
        if cached is not None:
            self.invalidations += 1
        if rec.enabled:
            rec.inc("query.columns.build")
            if cached is not None:
                rec.inc("query.columns.invalidation")
        return fresh

    def _patch_source(self, key: tuple[str, str], version: int):
        """``(cached set, oids written since its version)`` when the
        commit chain reaches ``version``, else ``(None, None)``: rebuild.

        Both are read under one lock hold, because the delta describes
        the set cached *now*, which another reader may have replaced
        since this one looked.
        """
        with self._lock:
            delta = self._deltas.get(key)
            if delta is None or delta.upto != version:
                return None, None
            return self._cache[key], tuple(delta.oids)

    def _publish(self, key: tuple[str, str], fresh: ClassColumns) -> None:
        """Install ``fresh`` unless a newer set already is, and drop the
        delta it covers; a longer delta stays, since re-patching rows
        the set already holds is harmless."""
        with self._lock:
            current = self._cache.get(key)
            if current is not None and current.version > fresh.version:
                return
            self._cache[key] = fresh
            delta = self._deltas.get(key)
            if delta is not None and delta.upto <= fresh.version:
                del self._deltas[key]

    def invalidate(self) -> None:
        """Drop every column set (snapshot installs, resyncs, tests)."""
        with self._lock:
            self._cache.clear()
            self._deltas.clear()

    def status(self) -> dict[str, Any]:
        """A JSON-safe export for the CLI ``column-status`` command."""
        classes = [entry.describe() for entry in self._cache.values()]
        lookups = self.hits + self.builds + self.patches
        return {
            "summary": {
                "classes": len(classes),
                "rows": sum(entry["rows"] for entry in classes),
                "columns": sum(entry["columns"] for entry in classes),
                "builds": self.builds,
                "patches": self.patches,
                "hits": self.hits,
                "invalidations": self.invalidations,
                "hit_ratio": round(self.hits / lookups, 3) if lookups
                else None,
            },
            "classes": classes,
        }
