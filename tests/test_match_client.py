"""``MatchClient``'s connection reuse, against a scripted line server.

The client keeps its connections alive between requests.  These tests
pin what that must never cost: a reply answering the wrong request, a
dead connection failing a query that a fresh one would answer, or a
``mutate`` sent twice.  The server here is a loopback stand-in for the
daemon that speaks the same line-JSON and does what each test's script
says — answer, hang up unanswered, or stall.
"""

from __future__ import annotations

import io
import json
import socket
import struct
import sys
import threading
import time

import pytest

from repro.errors import ReproError
from repro.hypergraph import Hypergraph, MutationBatch
from repro.hypergraph.io import dump_native
from repro.service import MatchClient


def answer(request: dict) -> dict:
    """The reply a healthy daemon would give: a query's "count" is the
    length of its native text, so every query has its own answer."""
    if request.get("op") == "mutate":
        return {"ok": True, "version": 1, "inserted": 0, "deleted": 1,
                "skipped": [], "edges": 9, "vertices": 9}
    return {"ok": True, "embeddings": len(request["query"]),
            "elapsed": 0.0, "cached": False}


def healthy(conn: int, n: int, request: dict):
    return answer(request), False


class LineServer:
    """A loopback line server run by ``script(conn, n, request)``.

    ``conn`` numbers the connections from 0, ``n`` the requests on one
    connection from 0.  The script returns ``(reply, close)``: the
    reply dict to send (None sends nothing) and whether to close the
    connection afterwards (``"reset"`` closes it with an RST).  Every
    request line is recorded.
    """

    def __init__(self, script=healthy, port: int = 0) -> None:
        self.script = script
        self.listener = socket.create_server(("127.0.0.1", port))
        self.address = self.listener.getsockname()[:2]
        self.requests = []
        #: Connections the client ended (EOF or reset), and those the
        #: script closed.
        self.hung_up = []
        self.closed = []
        self._lock = threading.Lock()
        self._open = []
        self._threads = []
        self.connections = 0
        accept = threading.Thread(target=self._accept, daemon=True)
        accept.start()
        self._threads.append(accept)

    def _accept(self) -> None:
        while True:
            try:
                sock, _ = self.listener.accept()
            except OSError:
                return
            with self._lock:
                conn = self.connections
                self.connections += 1
                self._open.append(sock)
            worker = threading.Thread(
                target=self._serve, args=(sock, conn), daemon=True
            )
            worker.start()
            self._threads.append(worker)

    def _serve(self, sock, conn: int) -> None:
        with sock, sock.makefile("rb") as lines:
            n = 0
            while True:
                try:
                    line = lines.readline()
                except OSError:
                    line = b""
                if not line:
                    self.hung_up.append(conn)
                    return
                request = json.loads(line)
                with self._lock:
                    self.requests.append((conn, request))
                reply, close = self.script(conn, n, request)
                n += 1
                try:
                    if reply is not None:
                        sock.sendall((json.dumps(reply) + "\n").encode())
                    if close == "reset":
                        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                                        struct.pack("ii", 1, 0))
                    elif close:
                        sock.shutdown(socket.SHUT_RDWR)
                    if close:
                        self.closed.append(conn)
                        return
                except OSError:
                    return

    def stop(self) -> None:
        # shutdown() wakes the blocked accept(); close() alone does not.
        with self._lock:
            for sock in [self.listener] + self._open:
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass  # already closed
        self.listener.close()
        for thread in self._threads:
            thread.join(timeout=10.0)


@pytest.fixture
def line_server():
    servers = []

    def start(script=healthy, port: int = 0) -> LineServer:
        server = LineServer(script, port)
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.stop()


def path_query(length: int) -> Hypergraph:
    """A query whose native text grows with ``length``."""
    return Hypergraph(
        [0] * (length + 1), [(i, i + 1) for i in range(length)]
    )


def expected(query) -> int:
    buffer = io.StringIO()
    dump_native(query, buffer)
    return len(buffer.getvalue())


def wait_for(predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


def test_one_client_shared_by_threads_gets_each_its_own_answers(
    line_server,
):
    """More threads than cores, switching often: every reply still
    answers its own request, and connections are reused — never more
    than one per thread."""
    server = line_server()
    failures = []
    threads_n = 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with MatchClient(*server.address, timeout=10.0) as client:
            def ask(first):
                for length in range(first, 80, threads_n):
                    query = path_query(length)
                    got = client.query(query).embeddings
                    if got != expected(query):
                        failures.append((length, got))

            threads = [
                threading.Thread(target=ask, args=(first,))
                for first in range(1, threads_n + 1)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
    assert len(server.requests) == 79
    assert server.connections <= threads_n


def test_a_restarted_daemon_on_the_same_port_is_reconnected(line_server):
    first = line_server()
    client = MatchClient(*first.address, timeout=10.0)
    query = path_query(3)
    assert client.query(query).embeddings == expected(query)
    first.stop()
    second = line_server(port=first.address[1])
    assert client.query(query).embeddings == expected(query)
    assert second.connections == 1
    client.close()


def test_a_connection_the_daemon_closed_is_replaced_before_sending(
    line_server,
):
    """The daemon answers, then closes the idle connection (a drain or
    an over-long line would): the peek before the next request sees it
    and opens a fresh one — so even a ``mutate``, which is never
    re-sent, goes through."""
    def answer_then_close(conn, n, request):
        return answer(request), conn == 0

    server = line_server(answer_then_close)
    with MatchClient(*server.address, timeout=10.0) as client:
        client.query(path_query(2))
        wait_for(lambda: server.closed == [0])
        outcome = client.mutate(MutationBatch(deletes=[0]))
    assert outcome.version == 1
    assert [conn for conn, _ in server.requests] == [0, 1]
    assert server.connections == 2


def hang_up_on_second_request(how=True):
    """Connection 0 answers its first request, then reads the second
    and closes (``how``) unanswered — a daemon gone between the peek
    and the reply."""
    def script(conn, n, request):
        if conn == 0 and n == 1:
            return None, how
        return answer(request), False

    return script


@pytest.mark.parametrize("how", [True, "reset"], ids=["eof", "reset"])
def test_a_query_is_resent_once_when_a_reused_connection_fails(
    line_server, how,
):
    server = line_server(hang_up_on_second_request(how))
    with MatchClient(*server.address, timeout=10.0) as client:
        first, second = path_query(2), path_query(5)
        assert client.query(first).embeddings == expected(first)
        assert client.query(second).embeddings == expected(second)
    assert [conn for conn, _ in server.requests] == [0, 0, 1]
    assert server.connections == 2


@pytest.mark.parametrize("how", [True, "reset"], ids=["eof", "reset"])
def test_a_mutate_is_never_resent_once_it_went_out(line_server, how):
    server = line_server(hang_up_on_second_request(how))
    with MatchClient(*server.address, timeout=10.0) as client:
        client.query(path_query(2))
        with pytest.raises(ReproError):
            client.mutate(MutationBatch(deletes=[0]))
    mutates = [
        request for _, request in server.requests
        if request.get("op") == "mutate"
    ]
    assert len(mutates) == 1
    assert server.connections == 1


def test_a_client_timeout_discards_its_connection(line_server):
    """A reply that comes too late must never answer the next request:
    the timed-out connection is closed (the daemon then cancels the
    abandoned query), and the next request opens a fresh one."""
    release = threading.Event()

    def stall_second(conn, n, request):
        if conn == 0 and n == 1:
            release.wait(10.0)
            return answer(request), False  # the late reply
        return answer(request), False

    server = line_server(stall_second)
    client = MatchClient(*server.address, timeout=0.5)
    try:
        client.query(path_query(2))
        with pytest.raises(ReproError, match="timed out"):
            client.query(path_query(4))
        assert client._idle == []
        release.set()
        third = path_query(7)
        assert client.query(third).embeddings == expected(third)
        assert server.connections == 2
    finally:
        release.set()
        client.close()
    # The server saw the timed-out connection closed by the client.
    wait_for(lambda: 0 in server.hung_up)
