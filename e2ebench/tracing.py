"""Span tracing installed from outside the program, around its public
entry points.

Nothing under ``src/`` knows about this module: :meth:`Tracer.install`
replaces methods on the program's classes with thin wrappers and
:meth:`Tracer.uninstall` puts the originals back. A wrapper records a
span only while its thread is inside an interaction the benchmark opened
(:meth:`Tracer.interaction`), so set-up, oracle checks and server
housekeeping never show up in the rollup.

Spans live on thread-local stacks. A request that crosses the wire is
linked by the client's socket address: the client wrapper registers its
in-flight request span under that address, and the server-side
``Router.handle`` wrapper, running on an executor thread, adopts it as
parent. The durability wait the server runs after the router returns is
re-bound to the same parent. Every span carries the id of the
interaction it belongs to.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

now = time.perf_counter


class Span:
    """One timed call: name, start, end, parent span, interaction id."""

    __slots__ = ("sid", "name", "start", "end", "parent", "iid", "meta")

    def __init__(self, sid: int, name: str, parent: "Span | None",
                 iid: int):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.iid = iid
        self.meta: dict[str, Any] | None = None
        self.start = now()
        self.end = self.start

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_doc(self) -> dict[str, Any]:
        return {
            "id": self.sid, "name": self.name,
            "parent": self.parent.sid if self.parent else None,
            "iid": self.iid, "start": self.start, "end": self.end,
            **({"meta": self.meta} if self.meta else {}),
        }


class Tracer:
    """Collects spans in memory; written out once, at the end."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._iids = itertools.count(1)
        #: client socket address -> that client's in-flight request span
        self._links: dict[str, Span] = {}
        #: callables that put the program back as it was, newest last
        self._undo: list[Callable[[], None]] = []
        self._lock = threading.Lock()
        #: untimed counts made at layer boundaries (frame sizes)
        self.counts: dict[str, float] = {}

    # -- stacks ------------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    @contextmanager
    def interaction(self, kind: str) -> Iterator[Span]:
        """A root span: one user step, one query or one commit."""
        stack = self._stack()
        span = Span(next(self._ids), f"interaction.{kind}", None,
                    next(self._iids))
        stack.append(span)
        try:
            yield span
        finally:
            span.end = now()
            stack.pop()
            self.spans.append(span)

    @contextmanager
    def adopted(self, parent: Span) -> Iterator[None]:
        """Attribute this thread's next spans to a span of another thread."""
        stack = self._stack()
        stack.append(parent)
        try:
            yield
        finally:
            stack.pop()

    def _record(self, name: str, fn: Callable, args: tuple, kwargs: dict,
                meta: Callable | None) -> Any:
        stack = self._stack()
        parent = stack[-1]
        span = Span(next(self._ids), name, parent, parent.iid)
        stack.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = now()
            stack.pop()
            self.spans.append(span)
        if meta is not None:
            span.meta = meta(args, result)
        return result

    # -- installing wrappers -------------------------------------------------

    def wrap(self, owner: Any, attr: str, name: str,
             meta: Callable | None = None) -> None:
        """Record ``owner.attr`` calls as ``name`` spans inside interactions.

        ``meta(args, result)`` may return a dict kept on the span.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer._stack():
                return original(*args, **kwargs)
            return tracer._record(name, original, args, kwargs, meta)

        self._patch(owner, attr, original, wrapper)

    def _patch(self, owner: Any, attr: str, original: Any,
               replacement: Any) -> None:
        setattr(owner, attr, replacement)
        self._undo.append(lambda: setattr(owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def install(self, kernel) -> None:
        """Wrap every layer's public entry points (see the layer table in
        :data:`LAYERS`) and ``kernel``'s live-query write-set listener."""
        from repro.active.event_bus import EventBus
        from repro.core.builder import GenericInterfaceBuilder
        from repro.core.dispatcher import Dispatcher
        from repro.core.query_cache import QueryResultCache
        from repro.core.rule_engine import CustomizationEngine
        from repro.geodb import query_language
        from repro.geodb.database import GeographicDatabase
        from repro.geodb.query_engine import QueryEngine
        from repro.geodb.transactions import Transaction
        from repro.geodb.wal import WriteAheadLog
        from repro.net import client as client_mod
        from repro.net import protocol
        from repro.net.client import GISClient
        from repro.net.router import Router
        from repro.uilib.rendering import TextRenderer

        for kind in ("schema", "class", "instance"):
            self.wrap(Dispatcher, f"open_{kind}", f"dispatch.open_{kind}")
        self.wrap(GeographicDatabase, "get_schema", "reads.get_schema")
        self.wrap(GeographicDatabase, "get_class", "reads.get_class",
                  lambda a, r: {"objects": len(r[1])})
        self.wrap(GeographicDatabase, "get_value", "reads.get_value")
        self.wrap(EventBus, "publish", "rules.publish")
        for attr in ("schema_decision", "class_decision",
                     "attribute_decisions"):
            self.wrap(CustomizationEngine, attr, "rules.decision")
        self.wrap(GenericInterfaceBuilder, "build_schema_window",
                  "builder.schema")
        self.wrap(GenericInterfaceBuilder, "build_class_window",
                  "builder.class", lambda a, r: {"widgets": _widgets(r)})
        self.wrap(GenericInterfaceBuilder, "build_instance_window",
                  "builder.instance")
        self.wrap(TextRenderer, "render", "render",
                  lambda a, r: {"chars": len(r)})
        self.wrap(QueryResultCache, "execute", "query.cache",
                  lambda a, r: {"cache": r.report.get("cache")})
        self.wrap(QueryEngine, "execute", "query.engine", _engine_meta)
        self.wrap(query_language, "parse_query", "query.parse")
        self.wrap(Transaction, "commit", "commit")
        self.wrap(WriteAheadLog, "wait_durable", "wal.barrier")
        self._wrap_client(GISClient)
        self._wrap_router(Router)
        for module in (protocol, client_mod):
            self._wrap_encoder(module)
        self._wrap_live(kernel)

    def _wrap_client(self, cls) -> None:
        original = cls.request
        tracer = self

        @functools.wraps(original)
        def request(client, kind, **fields):
            if not tracer._stack():
                return original(client, kind, **fields)
            host, port = client._sock.getsockname()[:2]
            peer = f"{host}:{port}"

            def call(*args, **kwargs):
                tracer._links[peer] = tracer._stack()[-1]
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer._links.pop(peer, None)

            return tracer._record("net.request", call, (client, kind),
                                  fields, None)

        self._patch(cls, "request", original, request)

    def _wrap_router(self, cls) -> None:
        original = cls.handle
        tracer = self

        @functools.wraps(original)
        def handle(router, state, doc):
            parent = tracer._links.get(state.peer)
            if parent is None:
                return original(router, state, doc)
            with tracer.adopted(parent):
                response = tracer._record("net.router", original,
                                          (router, state, doc), {}, None)
            wait = response.get("_wait_durable")
            if wait is not None:
                response["_wait_durable"] = tracer._bound(parent, wait)
            return response

        self._patch(cls, "handle", original, handle)

    def _bound(self, parent: Span, fn: Callable) -> Callable:
        """``fn`` run later on any thread, as a child of ``parent``."""
        def run():
            with self.adopted(parent):
                return fn()
        return run

    def _wrap_encoder(self, module) -> None:
        original = module.encode_frame
        tracer = self

        @functools.wraps(original)
        def encode_frame(doc):
            frame = original(doc)
            tracer.count("net.frames")
            tracer.count("net.frame_bytes", len(frame))
            return frame

        self._patch(module, "encode_frame", original, encode_frame)

    def _wrap_live(self, kernel) -> None:
        """The live-query manager's per-commit maintenance is a write-set
        listener registered when the first watch was; re-register it
        wrapped so its time is not counted as commit self-time."""
        db = kernel.database
        listener = kernel.live._on_write_set
        if listener not in db._write_set_listeners:
            return
        tracer = self

        def maintain(ws):
            if not tracer._stack():
                return listener(ws)
            return tracer._record("live.maintain", listener, (ws,), {},
                                  None)

        def restore():
            db.remove_write_set_listener(maintain)
            db.add_write_set_listener(listener)

        db.remove_write_set_listener(listener)
        db.add_write_set_listener(maintain)
        self._undo.append(restore)

    # -- output --------------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span.to_doc(), separators=(",", ":")))
                out.write("\n")


def _widgets(window) -> int:
    """Widgets in a window tree, counting list items and map features
    as one widget each."""
    count, todo = 0, [window]
    while todo:
        node = todo.pop()
        count += 1 + len(getattr(node, "items", ())) \
            + len(getattr(node, "features", ()))
        todo.extend(getattr(node, "children", ()))
    return count


def _engine_meta(args, result) -> dict[str, Any]:
    report = result.report
    plans = report.get("plans") or []
    return {
        "candidates": report.get("candidates", 0),
        "matches": report.get("matches", 0),
        "plans": len(plans),
        "column_plans": sum(1 for plan in plans if plan.get("columns")),
    }


# ---------------------------------------------------------------------------
# Self-time rollup
# ---------------------------------------------------------------------------

#: span-name prefix -> layer (first match wins; roots are unattributed)
LAYERS = (
    ("net.", "net"),
    ("dispatch.", "dispatch"),
    ("reads.", "reads"),
    ("rules.", "rules"),
    ("builder.", "builder"),
    ("render", "render"),
    ("query.", "query"),
    ("commit", "commit"),
    ("wal.", "commit"),
    ("live.", "live"),
    ("interaction.", "unattributed"),
)

LAYER_NAMES = ("net", "dispatch", "reads", "rules", "builder", "render",
               "query", "commit", "live")


def layer_of(name: str) -> str:
    for prefix, layer in LAYERS:
        if name.startswith(prefix):
            return layer
    raise KeyError(name)


def self_times(spans: list[Span]) -> dict[int, float]:
    """span id -> its duration minus the part its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent.sid, []).append(span)
    out: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        edge = span.start
        for child in sorted(children.get(span.sid, ()),
                            key=lambda s: s.start):
            lo, hi = max(child.start, edge), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out[span.sid] = max(0.0, span.duration - covered)
    return out


def has_ancestor(span: Span, prefix: str) -> bool:
    node = span.parent
    while node is not None:
        if node.name.startswith(prefix):
            return True
        node = node.parent
    return False
