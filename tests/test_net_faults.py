"""Protocol fault injection: hostile and unlucky byte streams.

The serving layer's contract is that *no* byte sequence a client sends —
torn frames, truncated frames, oversized length prefixes, garbage,
mid-request disconnects — may corrupt kernel state, leak sessions, or
hang the server. Each test here injects one fault class through a raw
socket and then proves the server is still healthy: a well-behaved
client connects, runs a full browsing loop, and the kernel's session
count returns to zero.
"""

from __future__ import annotations

import socket
import struct
import threading
import time
import zlib

import pytest

from repro.core.kernel import GISKernel
from repro.errors import NetError
from repro.net import GISClient, ServerThread, encode_frame
from repro.net.protocol import HEADER, MAX_FRAME
from repro.workloads import PhoneNetParams, build_phone_net_database


@pytest.fixture()
def kernel():
    db = build_phone_net_database(
        PhoneNetParams(blocks_x=2, blocks_y=2, poles_per_street=3,
                       duct_count=3, seed=11)
    )
    kernel = GISKernel(db)
    yield kernel
    kernel.shutdown()


@pytest.fixture()
def served(kernel):
    thread = ServerThread(kernel)
    host, port = thread.start()
    yield (host, port, kernel, thread.server)
    thread.stop()


def raw_socket(served):
    host, port, _, _ = served
    return socket.create_connection((host, port), timeout=10)


def recv_all(sock, timeout=3.0):
    """Every byte the server sends until it hangs up (or goes quiet)."""
    sock.settimeout(timeout)
    chunks = []
    try:
        while True:
            data = sock.recv(65536)
            if not data:
                break
            chunks.append(data)
    except (socket.timeout, OSError):
        pass
    return b"".join(chunks)


def assert_healthy(served):
    """The ultimate oracle: after any fault, a clean client still gets
    full service and leaves no kernel state behind."""
    host, port, kernel, _ = served
    with GISClient(host, port, timeout=15) as client:
        client.open_session(user="check")
        client.open_schema("phone_net")
        client.select_class("Pole")
        result = client.query("phone_net", "select * from Pole",
                              use_cache=False)
        assert result["count"] == 18   # the seed data, untouched
        client.close_session()
    deadline = time.monotonic() + 5
    while kernel.session_count and time.monotonic() < deadline:
        time.sleep(0.01)
    assert kernel.session_count == 0


def decode_error(blob):
    """Parse the error frame(s) out of a raw reply, tolerating EOF."""
    from repro.net import FrameDecoder

    return FrameDecoder().feed(blob)


class TestStreamFaults:
    def test_garbage_bytes_get_error_then_disconnect(self, served):
        sock = raw_socket(served)
        sock.sendall(b"\x00\x00\x00\x09GARBAGE-GARBAGE-GARBAGE")
        reply = recv_all(sock)
        frames = decode_error(reply)
        assert frames and frames[0]["ok"] is False
        assert frames[0]["code"] == "ProtocolError"
        sock.close()
        assert_healthy(served)

    def test_http_request_is_rejected(self, served):
        # browsers and scanners will try; the length prefix "GET " is
        # 1195725856 bytes, far past MAX_FRAME
        sock = raw_socket(served)
        sock.sendall(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n")
        frames = decode_error(recv_all(sock))
        assert frames and "exceeds" in frames[0]["error"]
        sock.close()
        assert_healthy(served)

    def test_zero_length_frame(self, served):
        sock = raw_socket(served)
        sock.sendall(HEADER.pack(0, 0))
        frames = decode_error(recv_all(sock))
        assert frames and "zero-length" in frames[0]["error"]
        sock.close()
        assert_healthy(served)

    def test_oversized_length_prefix(self, served):
        sock = raw_socket(served)
        sock.sendall(HEADER.pack(MAX_FRAME + 1, 0))
        frames = decode_error(recv_all(sock))
        assert frames and "exceeds" in frames[0]["error"]
        sock.close()
        assert_healthy(served)

    def test_torn_frame_crc_mismatch(self, served):
        good = bytearray(encode_frame({"id": 1, "kind": "ping"}))
        good[-1] ^= 0xFF   # flip a payload bit; header CRC now lies
        sock = raw_socket(served)
        sock.sendall(bytes(good))
        frames = decode_error(recv_all(sock))
        assert frames and "checksum" in frames[0]["error"]
        sock.close()
        assert_healthy(served)

    def test_truncated_frame_then_disconnect(self, served):
        frame = encode_frame({"id": 1, "kind": "hello"})
        sock = raw_socket(served)
        sock.sendall(frame[: len(frame) - 3])   # cut mid-payload
        sock.close()                             # vanish
        assert_healthy(served)

    def test_truncated_header_then_disconnect(self, served):
        sock = raw_socket(served)
        sock.sendall(b"\x00\x00")                # 2 of 8 header bytes
        sock.close()
        assert_healthy(served)

    def test_fault_after_valid_traffic_cleans_up_sessions(self, served):
        """A connection that opened real sessions and then breaks the
        protocol must still have those sessions torn down."""
        host, port, kernel, _ = served
        client = GISClient(host, port, timeout=15)
        client.open_session(user="doomed", auto_refresh=True)
        client.open_schema("phone_net")
        assert kernel.session_count == 1
        # speak garbage on the same socket
        client._sock.sendall(b"\xff" * 64)
        deadline = time.monotonic() + 5
        while kernel.session_count and time.monotonic() < deadline:
            time.sleep(0.01)
        assert kernel.session_count == 0
        client.close()
        assert_healthy(served)

    def test_disconnect_between_request_and_response(self, served):
        """Send a valid request and hang up without reading the answer."""
        sock = raw_socket(served)
        sock.sendall(encode_frame({"id": 1, "kind": "open_session",
                                   "user": "ghost"}))
        sock.close()
        assert_healthy(served)

    def test_flood_of_fault_connections(self, served):
        """Dozens of misbehaving connections in quick succession leave
        the server serving."""
        faults = [
            b"\x00\x00\x00\x00\x00\x00\x00\x00",
            b"\xde\xad\xbe\xef" * 4,
            HEADER.pack(MAX_FRAME + 7, 1),
            encode_frame({"id": 1, "kind": "ping"})[:-2],
            b"",
        ]
        for round_ in range(8):
            for fault in faults:
                sock = raw_socket(served)
                if fault:
                    sock.sendall(fault)
                sock.close()
        assert_healthy(served)


class TestContractFaults:
    """Well-framed but contract-violating requests: the connection must
    survive (the stream is still in sync) and the kernel stay clean."""

    def send_and_read_one(self, served, doc):
        sock = raw_socket(served)
        sock.sendall(encode_frame(doc))
        frames = decode_error(recv_all(sock, timeout=2.0))
        sock.close()
        return frames[0] if frames else None

    def test_missing_id(self, served):
        reply = self.send_and_read_one(served, {"kind": "ping"})
        assert reply["ok"] is False and reply["code"] == "ProtocolError"
        assert_healthy(served)

    def test_unknown_kind(self, served):
        reply = self.send_and_read_one(
            served, {"id": 1, "kind": "shutdown_everything"}
        )
        assert reply["ok"] is False
        assert "unknown request kind" in reply["error"]
        assert_healthy(served)

    def test_contract_violation_keeps_connection_usable(self, served):
        host, port, _, _ = served
        with GISClient(host, port, timeout=15) as client:
            from repro.errors import NetClientError

            with pytest.raises(NetClientError):
                client.request("event", session="s1", op="warp")
            # same socket still serves
            assert client.ping() is True
        assert_healthy(served)

    def test_txn_with_undecodable_value_rolls_back(self, served):
        host, port, _, _ = served
        with GISClient(host, port, timeout=15) as client:
            from repro.errors import NetClientError

            before = client.query("phone_net",
                                  "select * from Pole")["count"]
            with pytest.raises(NetClientError):
                client.txn([{
                    "op": "insert", "schema": "phone_net", "class": "Pole",
                    "values": {"install_year": 2000, "status": "bad",
                               "pole_location": {"t": "hypercube",
                                                 "c": [1, 2, 3, 4]}},
                }])
            assert client.query("phone_net",
                                "select * from Pole")["count"] == before
        assert_healthy(served)


class TestSlowReader:
    def _stall_until(self, thread, host, port, counter, rounds=4000):
        """Mutate through one client while a lazy subscriber never
        reads, until the server's ``counter`` moves (or we give up)."""
        lazy = GISClient(host, port, timeout=15)
        lazy._sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        lazy.subscribe(["Pole"])
        with GISClient(host, port, timeout=30) as writer:
            oid = writer.query("phone_net",
                               "select * from Pole")["oids"][0]
            for i in range(rounds):
                writer.update(oid, {"status": f"v{i}"})
                if thread.server.counters[counter] > 0:
                    break
            # whatever happened to the lazy peer, the loop is alive
            assert writer.ping() is True
        return lazy

    def test_slow_reader_drops_pushes_not_the_server(self, kernel):
        """A subscriber that never reads must not wedge the loop: its
        pushes are dropped once its queue fills, while other clients
        keep full service."""
        thread = ServerThread(kernel, queue_size=4, overflow="drop",
                              sndbuf=4096)
        host, port = thread.start()
        try:
            lazy = self._stall_until(thread, host, port, "pushes_dropped")
            assert thread.server.counters["pushes_dropped"] > 0, (
                "queue of 4 with thousands of unread pushes must overflow"
            )
            assert thread.server.counters["overflow_disconnects"] == 0
            lazy.close()
        finally:
            thread.stop()
        assert kernel.session_count == 0

    def test_overflow_disconnect_policy(self, kernel):
        thread = ServerThread(kernel, queue_size=2, overflow="disconnect",
                              sndbuf=4096)
        host, port = thread.start()
        try:
            lazy = self._stall_until(thread, host, port,
                                     "overflow_disconnects")
            deadline = time.monotonic() + 5
            while (thread.server.counters["overflow_disconnects"] == 0
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert thread.server.counters["overflow_disconnects"] > 0
            lazy.close()
        finally:
            thread.stop()


class TestManyClients:
    def test_256_concurrent_clients_zero_failures(self, served):
        """The acceptance bar: 256 live connections, mixed valid traffic
        plus a sprinkle of protocol faults, zero failed valid requests."""
        host, port, kernel, _ = served
        errors: list = []
        done = threading.Event()

        def valid_worker(i):
            try:
                with GISClient(host, port, timeout=60) as client:
                    client.open_session(user=f"u{i}")
                    assert client.ping() is True
                    count = client.query(
                        "phone_net", "select * from Pole"
                    )["count"]
                    assert count == 18
                    client.close_session()
            except Exception as exc:
                errors.append((i, exc))

        def fault_worker(i):
            try:
                sock = socket.create_connection((host, port), timeout=60)
                sock.sendall(b"\xbd" * (i % 23 + 1))
                sock.close()
            except Exception:
                pass   # fault connections may be refused under load

        threads = []
        for i in range(256):
            target = fault_worker if i % 16 == 15 else valid_worker
            threads.append(threading.Thread(target=target, args=(i,)))
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads), "hung client threads"
        assert errors == [], f"{len(errors)} failed: {errors[:3]}"
        assert_healthy(served)


class TestServerHangup:
    def test_poll_pushes_raises_when_the_server_closes(self):
        """A peer that sends one push and hangs up: ``poll_pushes`` must
        report the close instead of spinning on empty reads, and keep
        the push that arrived first."""
        listener = socket.create_server(("127.0.0.1", 0))
        host, port = listener.getsockname()
        push = {"push": "mutation", "class": "Pole"}

        def hang_up():
            conn, __ = listener.accept()
            conn.sendall(encode_frame(push))
            conn.close()

        server = threading.Thread(target=hang_up, daemon=True)
        server.start()
        client = GISClient(host, port, timeout=5)
        outcome = []

        def poll():
            try:
                outcome.append(client.poll_pushes(timeout=2.0))
            except Exception as exc:
                outcome.append(exc)

        poller = threading.Thread(target=poll, daemon=True)
        poller.start()
        poller.join(timeout=5)
        try:
            assert not poller.is_alive(), "poll_pushes spins after EOF"
            assert len(outcome) == 1
            assert isinstance(outcome[0], NetError)
            assert "closed" in str(outcome[0])
            assert client.pop_pushes() == [push]
        finally:
            client.close()
            listener.close()
            server.join(timeout=5)
