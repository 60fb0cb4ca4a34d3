"""The benchmark's workloads, the actors that drive them, and the oracles
that check what the program answered.

Every workload drives the same three actors, so every end-to-end metric
is measured on every workload. The workloads differ in scale, transport
and how much each actor runs:

* a **browser** runs the paper's §4 cycle as a closed loop — connect
  (Get_Schema) → select_class (Get_Class) → 3× select_instance
  (Get_Value) → render → close;
* an **analyst** runs analysis-mode queries through ``session.query``,
  i.e. through the kernel's result cache;
* an **editor** commits single-row ``status`` updates.

Oracles run outside the timed region; each mismatch counts as a failed
operation. The reason each workload was chosen is in its class's
docstring; ``BENCHMARK.json`` gives it in one line.
"""

from __future__ import annotations

import json
import logging
import os
import random
import shutil
import tempfile
import threading
import traceback
from collections import Counter, defaultdict
from contextlib import AbstractContextManager, nullcontext
from typing import Any, Callable

from tracing import Tracer, now

from repro.core.kernel import GISKernel
from repro.core.session import GISSession
from repro.errors import NetClientError, NetError
from repro.geodb import FilePager, GeographicDatabase, WriteAheadLog
from repro.lang import FIGURE_6_PROGRAM
from repro.net import GISClient, ServerThread
from repro.workloads import PhoneNetParams, build_phone_net_database
from repro.workloads.phone_net import (
    build_phone_net_schema,
    populate_phone_net,
    register_pole_methods,
)

SCHEMA = "phone_net"

#: the paper's Figure 6 context: R1 hides the schema window and cascades
#: Get_Class, R2 customizes the Pole class and its attributes
FIG6_CONTEXT = {"user": "juliano", "application": "pole_manager"}

#: the analyst's repeated queries: 8 filtered aggregates and one top-k
QUERY_POOL = (
    "select count(*), min(install_year), max(install_year) from Pole "
    "where status = 'ok'",
    "select count(*), avg(install_year) from Pole "
    "where status = 'maintenance'",
    "select count(*), avg(install_year) from Pole where pole_type = 0",
    "select count(*), avg(install_year) from Pole where pole_type = 1",
    "select count(*), max(install_year) from Pole where pole_type = 2",
    "select count(*), min(install_year) from Pole where pole_type = 3",
    "select count(*), avg(pole_composition.pole_height) from Pole "
    "where pole_composition.pole_material = 'wood'",
    "select count(*), avg(install_year) from Pole "
    "where install_year >= 1990",
    "select * from Pole order by desc install_year limit 10",
)

#: the standing query of remote_edit's watch (changes with every edit
#: that moves a pole in or out of maintenance); it has no ``order by``,
#: so its answers are compared as multisets
WATCH_QUERY = ("select status, install_year from Pole "
               "where status = 'maintenance'")

STATUS_VALUES = ("ok", "maintenance")


def generic_context(i: int) -> dict[str, str]:
    """A context no rule of the Figure 6 program matches."""
    return {"user": f"viewer{i}", "application": "atlas"}


def browse_contexts() -> list[dict[str, str]]:
    """16 sessions' contexts: 7 in the Figure 6 context, 9 generic.

    Not 8 and 8: connecting in the Figure 6 context cascades a class
    window build, so connect times have two modes, and with an exact
    half the median falls between them and jumps from run to run.
    """
    out: list[dict[str, str]] = []
    for i in range(8):
        out += [FIG6_CONTEXT if i < 7 else generic_context(8),
                generic_context(i)]
    return out


# ---------------------------------------------------------------------------
# Tally: latency samples and failures
# ---------------------------------------------------------------------------


class Tally:
    """Latency samples in ms per kind, with the time each operation
    ended, and the operations attempted/failed."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.ends: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter = Counter()

    def sample(self, kind: str, since: float) -> None:
        end = now()
        self.samples[kind].append((end - since) * 1e3)
        self.ends[kind].append(end)

    def record(self, kind: str, since: float) -> None:
        self.attempted += 1
        self.sample(kind, since)

    def fail(self, kind: str, why: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.reasons[f"{kind}: {why[:160]}"] += 1

    def mismatch(self, kind: str, why: str) -> None:
        """An operation that completed (already counted) but answered
        wrong."""
        self.failed += 1
        self.reasons[f"{kind} oracle: {why}"] += 1

    def merge(self, other: "Tally") -> None:
        for kind, values in other.samples.items():
            self.samples[kind].extend(values)
            self.ends[kind].extend(other.ends[kind])
        self.attempted += other.attempted
        self.failed += other.failed
        self.reasons.update(other.reasons)


class StepFailed(Exception):
    """An operation raised; the tally already counted it."""


def connection_lost(failed: StepFailed) -> bool:
    """Whether a remote step failed because its connection is gone. The
    server hangs up on a connection whose request handler raised
    anything but a request-level error."""
    exc = failed.__cause__
    return isinstance(exc, (NetError, OSError)) \
        and not isinstance(exc, NetClientError)


def step(tally: Tally, tracer: Tracer | None, kind: str,
         fn: Callable[[], Any], since: float | None = None) -> Any:
    """Run one operation as an interaction and time it (from ``since``
    when given, e.g. when an open-loop request was due)."""
    start = now() if since is None else since
    try:
        if tracer is None:
            result = fn()
        else:
            with tracer.interaction(kind):
                result = fn()
    except Exception as exc:  # counted; the load loop keeps running
        tally.fail(kind, f"{type(exc).__name__}: {exc}")
        raise StepFailed(kind) from exc
    tally.record(kind, start)
    return result


# ---------------------------------------------------------------------------
# Oracle: reference renders
# ---------------------------------------------------------------------------


def _context_key(context: dict[str, str]) -> tuple:
    return tuple(sorted(context.items()))


class References:
    """Reference renders made by a fresh private-kernel session (a
    ``GISSession`` without a kernel) per distinct context, with the same
    rule program as the benchmark's kernel.

    The class window marks the selected instance, so its reference is
    kept per last-selected oid."""

    def __init__(self, db: GeographicDatabase, program: str | None,
                 class_name: str, contexts: list[dict[str, str]],
                 oids: list[str]):
        #: context key -> (schema window or None, {oid: (class window
        #: with oid selected, instance window)})
        self._windows: dict[tuple, tuple[str | None, dict]] = {}
        for context in contexts:
            key = _context_key(context)
            if key in self._windows:
                continue
            session = GISSession(db, **context)
            try:
                if program:
                    session.install_program(program, persist=False)
                schema = session.connect(SCHEMA)
                class_window = session.select_class(class_name)
                head = session.render(schema.name) if schema.visible \
                    else None
                selected = {}
                for oid in oids:
                    session.select_instance(oid)
                    selected[oid] = (session.render(class_window.name),
                                     session.render(f"instance_{oid}"))
            finally:
                session.shutdown()
            self._windows[key] = (head, selected)

    def screen(self, context: dict[str, str], oids: list[str]) -> str:
        """What ``session.render()`` shows after the cycle's steps."""
        head, selected = self._windows[_context_key(context)]
        parts = [head] if head is not None else []
        parts.append(selected[oids[-1]][0])
        parts.extend(selected[oid][1] for oid in oids)
        return "\n\n".join(parts)

    def corrupt(self) -> None:
        """Change one character of every instance-window reference (the
        self-test uses this to show the oracle fires)."""
        for __, selected in self._windows.values():
            for oid, (class_text, text) in selected.items():
                flipped = chr(ord(text[-1]) ^ 1)
                selected[oid] = (class_text, text[:-1] + flipped)


def same_answer(a, b) -> bool:
    return a.oids() == b.oids() and a.rows == b.rows


def _unordered(oids: list[str], rows: list[dict]) -> tuple[list, list]:
    return sorted(oids), sorted(json.dumps(row, sort_keys=True)
                                for row in rows)


def check_acked(tally: Tally, acked: dict[str, str],
                db: GeographicDatabase) -> None:
    """Every updated oid holds its last acknowledged status."""
    for oid, value in acked.items():
        if db.get_object(oid).get("status") != value:
            tally.mismatch("commit", f"{oid} does not hold its last "
                                     "acknowledged status")


# ---------------------------------------------------------------------------
# Actors
# ---------------------------------------------------------------------------


class LocalBrowser:
    """The §4 cycle in process; contexts take turns round-robin."""

    def __init__(self, kernel: GISKernel, class_name: str,
                 contexts: list[dict[str, str]], oids: list[str],
                 rng: random.Random):
        self.kernel = kernel
        self.class_name = class_name
        self.contexts = contexts
        self.oids = oids
        self.rng = rng
        self.references: References | None = None
        self._turn = 0

    def _connect(self, context: dict[str, str]) -> GISSession:
        session = self.kernel.session(**context)
        session.connect(SCHEMA)
        return session

    def cycle(self, tally: Tally, tracer: Tracer | None) -> None:
        context = self.contexts[self._turn % len(self.contexts)]
        self._turn += 1
        oids = self.rng.sample(self.oids, 3)
        start = now()
        session = None
        try:
            session = step(tally, tracer, "connect",
                           lambda: self._connect(context))
            step(tally, tracer, "class",
                 lambda: session.select_class(self.class_name))
            for oid in oids:
                step(tally, tracer, "instance",
                     lambda oid=oid: session.select_instance(oid))
            text = step(tally, tracer, "render", session.render)
            step(tally, tracer, "close", session.close)
        except StepFailed:
            if session is not None:
                session.close()
            return
        tally.sample("cycle", start)
        if self.references is not None \
                and text != self.references.screen(context, oids):
            tally.mismatch("render", "screen differs from the reference")


class Analyst:
    """Seeded analysis-mode queries; a seeded sample of the answers is
    re-run with ``use_cache=False`` at the same state and compared."""

    #: share of answers re-run uncached and compared
    SAMPLE_SHARE = 0.125

    def __init__(self, session: GISSession, extent: tuple[float, float],
                 distinct_share: float, rng: random.Random):
        self.session = session
        self.extent = extent
        self.distinct_share = distinct_share
        self.rng = rng
        self.issued = 0
        self.repeated = 0

    def draw(self) -> tuple[str, bool]:
        """A distinct windowed query (always a cache miss) or one from
        the repeated pool."""
        rng = self.rng
        if rng.random() >= self.distinct_share:
            return rng.choice(QUERY_POOL), True
        width, height = self.extent
        x0 = rng.uniform(0.0, 0.9 * width)
        y0 = rng.uniform(0.0, 0.9 * height)
        return (f"select * from Pole where within(pole_location, "
                f"bbox({x0:.6f}, {y0:.6f}, {x0 + 0.1 * width:.6f}, "
                f"{y0 + 0.1 * height:.6f})) "
                f"and install_year >= {rng.randint(1970, 1990)}"), False

    def warm(self) -> None:
        for text in QUERY_POOL:
            self.session.query(SCHEMA, text)

    def query(self, tally: Tally, tracer: Tracer | None) -> None:
        text, repeated = self.draw()
        self.issued += 1
        self.repeated += repeated
        try:
            result = step(tally, tracer, "query",
                          lambda: self.session.query(SCHEMA, text))
        except StepFailed:
            return
        if self.rng.random() < self.SAMPLE_SHARE:
            fresh = self.session.query(SCHEMA, text, use_cache=False)
            if not same_answer(result, fresh):
                tally.mismatch("query", "cached answer differs from "
                                        "use_cache=False execution")


class LocalEditor:
    """Single-row ``status`` updates committed in process."""

    def __init__(self, session: GISSession, oids: list[str],
                 rng: random.Random):
        self.session = session
        self.oids = oids
        self.rng = rng
        #: oid -> last acknowledged status
        self.acked: dict[str, str] = {}

    def commit(self, tally: Tally, tracer: Tracer | None) -> None:
        oid = self.rng.choice(self.oids)
        value = self.rng.choice(STATUS_VALUES)

        def apply() -> None:
            with self.session.transaction() as txn:
                txn.update(oid, {"status": value})

        try:
            step(tally, tracer, "commit", apply)
        except StepFailed:
            return
        self.acked[oid] = value


class RemoteBrowser:
    """The §4 cycle over the wire, plus one query per cycle; one more
    session on the same connection holds the standing watch and an open
    Pole class window. A lost connection is replaced, with a new watch,
    after the step that lost it has been counted as failed."""

    def __init__(self, address: tuple[str, int], class_name: str,
                 contexts: list[dict[str, str]], oids: list[str],
                 rng: random.Random):
        self.address = address
        self.client = GISClient(*address)
        self.class_name = class_name
        self.contexts = contexts
        self.oids = oids
        self.rng = rng
        self._turn = 0
        self.watch_id: str | None = None
        #: (oids, rows) of the watch's newest pushed result
        self.last_push: tuple[list, list] | None = None
        self.live_pushes = 0

    def open_watch(self) -> None:
        client = self.client
        sid = client.open_session(user="monitor", application="watchboard",
                                  auto_refresh=True)
        client.open_schema(SCHEMA, session=sid)
        client.select_class(self.class_name, session=sid)
        response = client.watch(SCHEMA, WATCH_QUERY, session=sid)
        self.watch_id = response["watch"]
        self.last_push = (response["oids"], response["rows"])

    def reconnect(self) -> None:
        self.client.close()
        self.client = GISClient(*self.address)
        self.open_watch()

    def _connect(self, context: dict[str, str]) -> tuple[str, dict]:
        sid = self.client.open_session(auto_refresh=True, **context)
        return sid, self.client.open_schema(SCHEMA, session=sid)

    def cycle(self, tally: Tally, tracer: Tracer | None) -> None:
        client = self.client
        context = self.contexts[self._turn % len(self.contexts)]
        self._turn += 1
        oids = self.rng.sample(self.oids, 3)
        start = now()
        sid = None
        try:
            sid, response = step(tally, tracer, "connect",
                                 lambda: self._connect(context))
            self._expect(tally, "connect", response, f"schema_{SCHEMA}")
            response = step(tally, tracer, "class",
                            lambda: client.select_class(self.class_name,
                                                        session=sid))
            self._expect(tally, "class", response,
                         f"classset_{self.class_name}")
            for oid in oids:
                response = step(tally, tracer, "instance",
                                lambda oid=oid: client.select_instance(
                                    oid, session=sid))
                self._expect(tally, "instance", response,
                             f"instance_{oid}")
            text = step(tally, tracer, "render",
                        lambda: client.render(session=sid))
            if any(oid not in text for oid in oids):
                tally.mismatch("render", "render omits a selected oid")
            closed = step(tally, tracer, "close",
                          lambda: client.close_session(sid))
            if closed is not True:
                tally.mismatch("close", "session was not open")
        except StepFailed as failed:
            if connection_lost(failed):
                self.reconnect()
            elif sid is not None:
                self._close_quietly(sid)
            return
        tally.sample("cycle", start)
        try:
            response = step(tally, tracer, "query",
                            lambda: client.query(SCHEMA, WATCH_QUERY))
        except StepFailed as failed:
            if connection_lost(failed):
                self.reconnect()
            return
        if response["count"] != len(response["oids"]):
            tally.mismatch("query", "count does not match the oids")
        self.drain_pushes()

    def _close_quietly(self, sid: str) -> None:
        try:
            self.client.close_session(sid)
        except (NetError, OSError):  # the connection went with the failure
            pass

    @staticmethod
    def _expect(tally: Tally, kind: str, response: dict,
                window: str) -> None:
        if response.get("window") != window:
            tally.mismatch(kind, f"response names {response.get('window')!r}"
                                 f" instead of {window!r}")

    def drain_pushes(self, frames: list[dict] | None = None) -> int:
        """Take the watch's live updates out of the buffered pushes;
        returns how many there were."""
        if frames is None:
            frames = self.client.pop_pushes()
        taken = 0
        for frame in frames:
            if frame.get("push") == "live_update" \
                    and frame.get("watch") == self.watch_id:
                self.last_push = (frame["oids"], frame["rows"])
                taken += 1
        self.live_pushes += taken
        return taken

    def check_watch(self, tally: Tally) -> None:
        """The watch's newest pushed result equals a fresh query."""
        self.drain_pushes()
        while self.drain_pushes(self.client.poll_pushes(timeout=0.3)):
            pass   # until the connection has been quiet for 0.3 s
        fresh = self.client.query(SCHEMA, WATCH_QUERY, use_cache=False)
        if _unordered(*self.last_push) != _unordered(fresh["oids"],
                                                     fresh["rows"]):
            tally.mismatch("watch", "last pushed result differs from a "
                                    "fresh query")


class RemoteEditor:
    """Open-loop editor on its own connection and thread: one commit due
    every ``1/rate`` s, each timed from when it was due. A lost
    connection is replaced; the update it carried may or may not have
    committed, so its oid is not checked until it is acknowledged
    again."""

    def __init__(self, address: tuple[str, int], oids: list[str],
                 rng: random.Random, rate: float):
        self.address = address
        self.client = GISClient(*address)
        self.oids = oids
        self.rng = rng
        self.period = 1.0 / rate
        self.tally = Tally()
        self.late_ms: list[float] = []
        self.acked: dict[str, str] = {}
        #: read by the editor thread before each commit
        self.tracer: Tracer | None = None
        #: held from each request until its response is back, when the
        #: server has committed, refreshed windows and queued pushes
        self.busy = threading.Lock()
        self._stop = threading.Event()
        self._first = threading.Event()
        self._thread: threading.Thread | None = None

    def start(self) -> None:
        self._thread = threading.Thread(target=self._run,
                                        name="bench-editor", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """Stop after at least one commit, and wait for the thread."""
        self._first.wait(timeout=10)
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=30)
            if self._thread.is_alive():
                raise RuntimeError("editor thread did not stop")

    def _run(self) -> None:
        start = now()
        k = 0
        while not self._stop.is_set():
            due = start + k * self.period
            k += 1
            delay = due - now()
            if delay > 0 and self._stop.wait(delay):
                return
            self.late_ms.append((now() - due) * 1e3)
            oid = self.rng.choice(self.oids)
            value = self.rng.choice(STATUS_VALUES)
            try:
                with self.busy:
                    step(self.tally, self.tracer, "commit",
                         lambda: self.client.update(oid, {"status": value}),
                         since=due)
            except StepFailed as failed:
                if connection_lost(failed):
                    self.acked.pop(oid, None)
                    self.client.close()
                    self.client = GISClient(*self.address)
                continue
            self.acked[oid] = value
            self._first.set()


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class LoopErrors(logging.Handler):
    """Counts records on the ``asyncio`` logger while the server runs."""

    def __init__(self) -> None:
        super().__init__(level=logging.WARNING)
        self.records: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        """Keep the exception and where it was raised, then the message."""
        text = record.getMessage()
        exc = record.exc_info[1] if record.exc_info else None
        if exc is not None:
            frames = traceback.extract_tb(exc.__traceback__)[-1:]
            where = "".join(f" at {os.path.basename(f.filename)}:{f.lineno}"
                            f" in {f.name}" for f in frames)
            text = f"{type(exc).__name__}: {exc}{where} | {text}"
        self.records.append(text[:240])


class Workload:
    """One set-up system plus the step the load loop repeats."""

    name = ""
    sync_mode: str | None = None
    #: held while a host-speed burst is timed (see ``hostspeed.py``);
    #: a workload with load beside the measuring thread makes it wait
    #: until that load is idle
    quiet: AbstractContextManager = nullcontext()

    kernel: GISKernel
    db: GeographicDatabase
    poles: int

    def prepare(self) -> None:
        """Untimed oracle set-up."""

    def start(self) -> None:
        """Start background load (called just before measuring)."""

    def step(self, tally: Tally, tracer: Tracer | None) -> None:
        raise NotImplementedError

    def stop(self, tally: Tally) -> None:
        """Stop background load; fold its tally into ``tally``."""

    def finish(self, tally: Tally) -> None:
        """End-of-run oracles."""

    def close(self) -> None:
        self.kernel.shutdown()

    def set_tracer(self, tracer: Tracer | None) -> None:
        """Background actors pick up the tracer for the next operation."""

    def counters(self) -> dict[str, float]:
        """Cumulative counters read from the program and the actors; the
        per-layer rollup takes their change over the traced phase."""
        return {
            "live_fallbacks": self.kernel.live.fallback_reexec,
            "wal_flushes": (self.db.wal.flushes
                            if self.db.wal is not None else 0),
            "live_pushes": 0,
        }

    def repeated_share(self) -> float:
        """Share of the analyst's queries that came from the repeated
        pool."""
        return self.analyst.repeated / max(1, self.analyst.issued)

    def writer_late_ms(self) -> list[float]:
        """How late an open-loop editor sent each commit (none here)."""
        return []

    def loop_errors(self) -> list[str]:
        return []


def _oids(db: GeographicDatabase, class_name: str) -> list[str]:
    return [obj.oid for obj in db.extent(SCHEMA, class_name)]


class Browse(Workload):
    """Why: the paper's Section 4 walkthrough at 370 poles, 16 sessions,
    7 of them under the Figure 6 rules. The builder and renderer do
    almost all the work, the query engine almost none."""

    name = "browse"

    def __init__(self, seed: int, tiny: bool, workdir: str):
        params = (PhoneNetParams(blocks_x=2, blocks_y=2, poles_per_street=4,
                                 duct_count=3, seed=seed) if tiny else
                  PhoneNetParams(blocks_x=16, blocks_y=19,
                                 poles_per_street=10, duct_count=20,
                                 seed=seed))
        self.db = build_phone_net_database(params)
        self.kernel = GISKernel(self.db)
        self.kernel.install_program(FIGURE_6_PROGRAM, persist=False)
        poles = _oids(self.db, "Pole")
        self.poles = len(poles)
        rng = random.Random(seed)
        self.browser = LocalBrowser(self.kernel, "Pole", browse_contexts(),
                                    rng.sample(poles, min(48, len(poles))),
                                    random.Random(seed + 1))
        # The analyst repeats pool queries the cache keeps answering, and
        # the editor updates cables, which neither the browsed windows
        # nor those cached Pole answers show: browse exercises the query
        # and commit paths without moving its dominant layers.
        self.analyst = Analyst(
            self.kernel.session(user="analyst", application="atlas"),
            params.extent, 0.0, random.Random(seed + 2))
        self.editor = LocalEditor(
            self.kernel.session(user="editor", application="maintenance"),
            _oids(self.db, "Cable"), random.Random(seed + 3))
        self.analyst.warm()
        for __ in self.browser.contexts:
            self.browser.cycle(Tally(), None)

    def prepare(self) -> None:
        self.browser.references = References(
            self.db, FIGURE_6_PROGRAM, "Pole", self.browser.contexts,
            self.browser.oids)

    def step(self, tally: Tally, tracer: Tracer | None) -> None:
        self.browser.cycle(tally, tracer)
        self.analyst.query(tally, tracer)
        self.editor.commit(tally, tracer)

    def finish(self, tally: Tally) -> None:
        check_acked(tally, self.editor.acked, self.db)


class Analysis(Workload):
    """Why: at 3740 poles, windowed queries that miss the cache, repeated
    ones that hit it between commits, and a commit every 20th operation
    exercise the planner, R-tree, columns and result cache, which browse
    bypasses."""

    name = "analysis"

    #: the 20-operation schedule: commit last, one small browse cycle
    #: in the middle, analyst queries everywhere else
    BLOCK = 20

    def __init__(self, seed: int, tiny: bool, workdir: str):
        params = (PhoneNetParams(blocks_x=3, blocks_y=3, poles_per_street=8,
                                 duct_count=4, seed=seed) if tiny else
                  PhoneNetParams(blocks_x=16, blocks_y=16,
                                 poles_per_street=110, duct_count=80,
                                 seed=seed))
        self.db = build_phone_net_database(params)
        self.kernel = GISKernel(self.db)
        context = {"user": "analyst", "application": "atlas"}
        session = self.kernel.session(**context)
        poles = _oids(self.db, "Pole")
        self.poles = len(poles)
        self.analyst = Analyst(session, params.extent, 0.5,
                               random.Random(seed + 2))
        self.editor = LocalEditor(session, poles, random.Random(seed + 3))
        # The analyst's own look at the small Supplier class keeps every
        # end-to-end metric defined here without building Pole windows.
        self.browser = LocalBrowser(self.kernel, "Supplier", [context],
                                    _oids(self.db, "Supplier"),
                                    random.Random(seed + 1))
        self._op = 0
        self.analyst.warm()
        for __ in range(3):
            self.analyst.query(Tally(), None)
        self.browser.cycle(Tally(), None)

    def prepare(self) -> None:
        self.browser.references = References(
            self.db, None, "Supplier", self.browser.contexts,
            self.browser.oids)

    def step(self, tally: Tally, tracer: Tracer | None) -> None:
        slot = self._op % self.BLOCK
        self._op += 1
        if slot == self.BLOCK - 1:
            self.editor.commit(tally, tracer)
        elif slot == self.BLOCK // 2 - 1:
            self.browser.cycle(tally, tracer)
        else:
            self.analyst.query(tally, tracer)

    def finish(self, tally: Tally) -> None:
        check_acked(tally, self.editor.acked, self.db)


class RemoteEdit(Workload):
    """Why: 96 poles served over TCP from a file-backed store with a
    flush WAL. The only workload on the wire, the commit path, the
    kernel's refresh fan-out and live pushes; 20 commits/s run beside a
    browser, so a gain for readers that costs writers shows."""

    name = "remote_edit"
    sync_mode = "flush"
    #: commits per second of the open-loop editor
    RATE = 20.0

    def __init__(self, seed: int, tiny: bool, workdir: str):
        params = (PhoneNetParams(blocks_x=2, blocks_y=2, poles_per_street=4,
                                 duct_count=3, seed=seed) if tiny else
                  PhoneNetParams(blocks_x=8, blocks_y=6, poles_per_street=6,
                                 duct_count=20, seed=seed))
        self._tmp = tempfile.mkdtemp(prefix="remote_edit-", dir=workdir)
        self.loop_error_log = LoopErrors()
        self._server: ServerThread | None = None
        try:
            self._build(seed, params)
        except BaseException:
            self.close()
            raise

    def _build(self, seed: int, params: PhoneNetParams) -> None:
        path = os.path.join(self._tmp, "geo.db")
        db = GeographicDatabase("GEO_BIG", pager=FilePager(path))
        self.db = db
        db.register_schema(build_phone_net_schema())
        register_pole_methods(db)
        # flush keeps the shared disk's fsync variance out of the numbers
        db.attach_wal(WriteAheadLog.open(path + ".wal",
                                         sync_mode=self.sync_mode))
        populate_phone_net(db, params)
        self.kernel = GISKernel(db)
        self.kernel.install_program(FIGURE_6_PROGRAM, persist=False)
        logging.getLogger("asyncio").addHandler(self.loop_error_log)
        self._server = ServerThread(self.kernel)
        address = self._server.start()
        poles = _oids(db, "Pole")
        self.poles = len(poles)
        rng = random.Random(seed)
        self.browser = RemoteBrowser(address, "Pole",
                                     browse_contexts(),
                                     rng.sample(poles, min(48, len(poles))),
                                     random.Random(seed + 1))
        self.browser.open_watch()
        self.editor = RemoteEditor(address, poles,
                                   random.Random(seed + 3), self.RATE)
        # Bursts run on the browser's thread, between its requests; the
        # editor's lock keeps them out of the server's commit work too.
        self.quiet = self.editor.busy
        for __ in self.browser.contexts:
            self.browser.cycle(Tally(), None)

    def start(self) -> None:
        self.editor.start()

    def set_tracer(self, tracer: Tracer | None) -> None:
        self.editor.tracer = tracer

    def step(self, tally: Tally, tracer: Tracer | None) -> None:
        self.browser.cycle(tally, tracer)

    def stop(self, tally: Tally) -> None:
        self.editor.stop()
        tally.merge(self.editor.tally)

    def counters(self) -> dict[str, float]:
        return {**super().counters(),
                "live_pushes": self.browser.live_pushes}

    def repeated_share(self) -> float:
        return 1.0   # the browser repeats the watch's query every cycle

    def writer_late_ms(self) -> list[float]:
        return self.editor.late_ms

    def loop_errors(self) -> list[str]:
        return self.loop_error_log.records

    def finish(self, tally: Tally) -> None:
        self.browser.check_watch(tally)
        check_acked(tally, self.editor.acked, self.db)

    def close(self) -> None:
        for actor in ("browser", "editor"):
            if hasattr(self, actor):
                getattr(self, actor).client.close()
        if self._server is not None:
            self._server.stop()
        kernel = getattr(self, "kernel", None)
        if kernel is not None:
            kernel.shutdown()
        db = getattr(self, "db", None)
        if db is not None:
            db.close()
        logging.getLogger("asyncio").removeHandler(self.loop_error_log)
        shutil.rmtree(self._tmp, ignore_errors=True)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (Browse, RemoteEdit, Analysis)
}
