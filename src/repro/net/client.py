"""A small synchronous client for the kernel daemon.

One :class:`GISClient` is one connection; it speaks the framed protocol
of :mod:`repro.net.protocol` over a blocking socket and exposes one
method per request kind. Responses are correlated by request id;
unsolicited **push** frames (mutation notifications) arriving while a
response is awaited are buffered on :attr:`pushes` and can also be
collected explicitly with :meth:`poll_pushes`.

The client is deliberately thread-unaware: one thread per client. The
benchmark opens hundreds of them, each from its own worker thread.

Reconnect policy: with ``reconnect=N`` the client survives a dropped
connection by redialing (exponential backoff) up to N times per
request — but it only ever *resends* requests whose kinds are
idempotent (:data:`IDEMPOTENT_KINDS`): reads, liveness, replication
pulls. A ``txn`` is never resent — the server may have committed it
before the cut, and a blind retry would double-apply; callers see the
transport error and decide. Connection-scoped state (sessions,
subscriptions, an in-flight snapshot) dies with the old socket: the
default session is cleared and must be reopened.
"""

from __future__ import annotations

import itertools
import socket
import time
from typing import Any

from ..errors import NetClientError, NetError, ProtocolError
from .protocol import FrameDecoder, encode_frame

#: request kinds that are safe to resend after a reconnect — they read
#: or re-assert state, so a duplicate delivery is indistinguishable
#: from a single one
IDEMPOTENT_KINDS = frozenset({
    "hello", "ping", "stats", "query",
    "repl_poll", "repl_snapshot", "repl_status",
    "subscribe", "unsubscribe",
})


class GISClient:
    """Synchronous connection to a :class:`~repro.net.server.GISServer`."""

    def __init__(self, host: str, port: int, timeout: float = 30.0,
                 reconnect: int = 0, reconnect_backoff: float = 0.05):
        self._host = host
        self._port = port
        self._timeout = timeout
        #: max redial attempts per request (0 = fail fast)
        self.reconnect = reconnect
        self.reconnect_backoff = reconnect_backoff
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._decoder = FrameDecoder()
        self._ids = itertools.count(1)
        self._inbox: list[dict[str, Any]] = []
        #: push frames received so far (drained by :meth:`pop_pushes`)
        self.pushes: list[dict[str, Any]] = []
        self._closed = False
        #: count of successful redials (observability for tests/benches)
        self.reconnects = 0
        #: default session id, set by the first :meth:`open_session`
        self.session: str | None = None

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    def request(self, kind: str, **fields: Any) -> dict[str, Any]:
        """Send one request and block until its response arrives.

        Raises :class:`NetClientError` for an ``ok: false`` response and
        :class:`ProtocolError`/:class:`NetError` for transport trouble.
        Transport failures on idempotent kinds redial and resend, up to
        :attr:`reconnect` times (see the module docstring).
        """
        if self._closed:
            raise NetError("client is closed")
        attempts = 0
        while True:
            try:
                return self._request_once(kind, fields)
            except (NetError, OSError) as exc:
                if isinstance(exc, (NetClientError, ProtocolError)):
                    raise
                if kind not in IDEMPOTENT_KINDS \
                        or attempts >= self.reconnect or self._closed:
                    raise
                attempts += 1
                self._redial(attempts)

    def _request_once(self, kind: str, fields: dict[str, Any]
                      ) -> dict[str, Any]:
        request_id = next(self._ids)
        doc = {"id": request_id, "kind": kind}
        doc.update({k: v for k, v in fields.items() if v is not None})
        self._sock.sendall(encode_frame(doc))
        while True:
            frame = self._next_frame()
            if "push" in frame:
                self.pushes.append(frame)
                continue
            if frame.get("id") == request_id:
                if frame.get("ok"):
                    return frame
                raise NetClientError(
                    frame.get("error", "request failed"),
                    code=frame.get("code"),
                )
            if frame.get("id") is None and not frame.get("ok", True):
                # connection-level error (protocol violation): the
                # server hangs up after this frame
                raise ProtocolError(
                    frame.get("error", "protocol violation")
                )
            self._inbox.append(frame)   # response to someone else's id?

    def _redial(self, attempt: int) -> None:
        """Exponential-backoff reconnect; connection state starts over."""
        time.sleep(self.reconnect_backoff * (2 ** (attempt - 1)))
        try:
            self._sock.close()
        except OSError:
            pass
        self._sock = socket.create_connection(
            (self._host, self._port), timeout=self._timeout
        )
        self._decoder = FrameDecoder()
        self._inbox.clear()
        # sessions are per-connection server state; the old ones are
        # being torn down server-side right now
        self.session = None
        self.reconnects += 1

    def _next_frame(self) -> dict[str, Any]:
        if self._inbox:
            return self._inbox.pop(0)
        while True:
            frames = self._decoder.feed(self._recv())
            if frames:
                self._inbox.extend(frames[1:])
                return frames[0]

    def _recv(self) -> bytes:
        try:
            data = self._sock.recv(65536)
        except socket.timeout as exc:
            raise NetError("timed out waiting for the server") from exc
        if not data:
            raise NetError("server closed the connection")
        return data

    def poll_pushes(self, timeout: float = 0.1) -> list[dict[str, Any]]:
        """Collect pushes for up to ``timeout`` seconds, then return all
        buffered ones (also clears :attr:`pushes`).

        Raises :class:`NetError` when the server has closed the
        connection; pushes that arrived before the close stay on
        :attr:`pushes` for :meth:`pop_pushes`.
        """
        old = self._sock.gettimeout()
        self._sock.settimeout(timeout)
        try:
            while True:
                data = self._sock.recv(65536)
                if not data:
                    raise NetError("server closed the connection")
                for frame in self._decoder.feed(data):
                    if "push" in frame:
                        self.pushes.append(frame)
                    else:
                        self._inbox.append(frame)
        except (socket.timeout, OSError):
            pass
        finally:
            self._sock.settimeout(old)
        return self.pop_pushes()

    def pop_pushes(self) -> list[dict[str, Any]]:
        pushes, self.pushes = self.pushes, []
        return pushes

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                self._sock.close()
            except OSError:
                pass

    def __enter__(self) -> "GISClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # One convenience method per request kind
    # ------------------------------------------------------------------

    def hello(self) -> dict[str, Any]:
        return self.request("hello")

    def open_session(self, user: str | None = None,
                     category: str | None = None,
                     application: str | None = None,
                     scale_denominator: float | None = None,
                     time_tag: str | None = None,
                     auto_refresh: bool = False) -> str:
        response = self.request(
            "open_session", user=user, category=category,
            application=application, scale_denominator=scale_denominator,
            time_tag=time_tag,
            auto_refresh=auto_refresh or None,
        )
        session = response["session"]
        if self.session is None:
            self.session = session
        return session

    def close_session(self, session: str | None = None) -> bool:
        session = session or self.session
        response = self.request("close_session", session=session)
        if session == self.session:
            self.session = None
        return response["closed"]

    def _sid(self, session: str | None) -> str:
        sid = session or self.session
        if sid is None:
            raise NetError("no session open; call open_session() first")
        return sid

    def open_schema(self, schema: str,
                    session: str | None = None) -> dict[str, Any]:
        return self.request("event", session=self._sid(session),
                            op="open_schema", schema=schema)

    def select_class(self, name: str,
                     session: str | None = None) -> dict[str, Any]:
        return self.request("event", session=self._sid(session),
                            op="select_class", name=name)

    def select_instance(self, oid: str, class_name: str | None = None,
                        session: str | None = None) -> dict[str, Any]:
        return self.request("event", session=self._sid(session),
                            op="select_instance", oid=oid,
                            **{"class": class_name})

    def pick(self, class_name: str, col: int, row: int,
             session: str | None = None) -> str | None:
        return self.request("event", session=self._sid(session), op="pick",
                            col=col, row=row,
                            **{"class": class_name}).get("oid")

    def close_window(self, window: str,
                     session: str | None = None) -> dict[str, Any]:
        return self.request("event", session=self._sid(session),
                            op="close_window", window=window)

    def query(self, schema: str, text: str, *, use_cache: bool = True,
              read_preference: str | None = None,
              min_lsn: int | None = None) -> dict[str, Any]:
        return self.request("query", schema=schema, text=text,
                            use_cache=None if use_cache else False,
                            read_preference=read_preference,
                            min_lsn=min_lsn)

    def render(self, window: str | None = None,
               session: str | None = None) -> str:
        return self.request("render", session=self._sid(session),
                            window=window)["text"]

    def scene(self, session: str | None = None) -> list[dict[str, Any]]:
        return self.request("scene", session=self._sid(session))["windows"]

    def txn(self, ops: list[dict[str, Any]], *, session: str | None = None,
            wait_durable: bool = True) -> dict[str, Any]:
        """Commit a mutation batch; see ``docs/SERVING.md`` for op shapes."""
        return self.request(
            "txn", ops=ops,
            session=session,
            wait_durable=None if wait_durable else False,
        )

    def insert(self, schema: str, class_name: str, values: dict[str, Any],
               **kwargs: Any) -> str:
        """One-op convenience: insert and return the new oid."""
        response = self.txn(
            [{"op": "insert", "schema": schema, "class": class_name,
              "values": values}],
            **kwargs,
        )
        return response["oids"][0]

    def update(self, oid: str, changes: dict[str, Any],
               **kwargs: Any) -> dict[str, Any]:
        return self.txn([{"op": "update", "oid": oid, "changes": changes}],
                        **kwargs)

    def delete(self, oid: str, **kwargs: Any) -> dict[str, Any]:
        return self.txn([{"op": "delete", "oid": oid}], **kwargs)

    def subscribe(self, classes: list[str]) -> list[str]:
        return self.request("subscribe", classes=classes)["subscribed"]

    def unsubscribe(self, classes: list[str] | None = None) -> list[str]:
        return self.request("unsubscribe", classes=classes)["subscribed"]

    def watch(self, schema: str, text: str,
              session: str | None = None) -> dict[str, Any]:
        """Register a live query; the response is the initial snapshot.

        Result changes arrive afterwards as ``live_update`` pushes
        (collect with :meth:`poll_pushes`). Not idempotent: a resend
        after a reconnect would register a second watch, and the old
        one died with the old connection's sessions anyway.
        """
        return self.request("watch", session=self._sid(session),
                            schema=schema, text=text)

    def unwatch(self, watch: str) -> bool:
        return self.request("unwatch", watch=watch)["released"]

    def stats(self) -> dict[str, Any]:
        return self.request("stats")["kernel"]

    def ping(self) -> bool:
        return self.request("ping")["pong"]

    # -- replication pulls (used by RemoteReplicationSource) -----------

    def repl_snapshot(self, chunk: int = 0) -> dict[str, Any]:
        """One chunk of a bootstrap snapshot (chunk 0 starts a new cut)."""
        response = self.request("repl_snapshot", chunk=chunk)
        return {k: response[k] for k in
                ("snapshot", "chunk", "chunks", "total_objects", "lsn")}

    def repl_poll(self, cursor: int,
                  max_batches: int = 64) -> dict[str, Any]:
        response = self.request("repl_poll", cursor=cursor,
                                max_batches=max_batches)
        return {k: response[k] for k in
                ("batches", "lsn", "base_lsn", "snapshot_required")}

    def repl_status(self) -> dict[str, Any]:
        response = self.request("repl_status")
        return {"lsn": response["lsn"], "status": response["status"]}
