"""The match service's client half (``repro query``).

:class:`MatchClient` speaks the daemon's line-JSON protocol
synchronously, the query graph shipped as native text, the reply
decoded back into either a :class:`QueryOutcome` or the matching typed
error — :class:`~repro.errors.ServiceBusy` for an admission refusal,
:class:`~repro.errors.QueryCancelled`,
:class:`~repro.errors.TimeoutExceeded` for a blown deadline,
:class:`~repro.errors.QueryError` for a query the served graph's
label type refuses, and :class:`~repro.errors.ReproError` for
everything else.

Connections are kept alive and reused: the client holds a lock-guarded
list of idle ones, so it is safe to share across threads, each request
taking an idle connection (or opening one) for itself.  A connection
goes back to the list only after a whole reply line was read; a
timeout or a partial read closes it, which also cancels the abandoned
query daemon-side, so a late reply can never answer the next request.
An idle connection the daemon has closed (a drain, a restart) is found
by a non-blocking peek before it is used and replaced.  A ``query``,
which only reads, is sent once more on a fresh connection when a
reused one fails before any reply byte arrives; a ``mutate`` is never
re-sent once its request went out, as a resent batch could commit
twice.  :meth:`MatchClient.close` (or ``with MatchClient(...)``)
closes the idle connections.
"""

from __future__ import annotations

import io
import json
import socket
import threading
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..errors import (
    QueryCancelled,
    QueryError,
    ReproError,
    ServiceBusy,
    TimeoutExceeded,
)
from ..hypergraph.io import dump_native


@dataclass
class QueryOutcome:
    """One successful answer from the match service."""

    embeddings: int
    elapsed: float
    cached: bool


@dataclass
class MutationOutcome:
    """One acknowledged ``mutate`` request."""

    version: int
    inserted: int
    deleted: int
    skipped: list
    edges: int
    vertices: int


class StandingSubscription:
    """A live ``standing`` connection streaming match deltas.

    Iterate (or :meth:`poll`) to receive one dict per committed
    mutation batch — the :meth:`~repro.service.standing.MatchDelta
    .to_json` shape: ``{"query_id", "version", "added", "removed"}``.
    Closing the subscription (or just dropping the connection) is what
    unregisters the standing query daemon-side.
    """

    def __init__(self, sock, header: dict) -> None:
        self._sock = sock
        self._file = sock.makefile("rb")
        self.query_id = header["query_id"]
        self.version = header["version"]
        self.matches = header["matches"]
        self.closed = False

    def poll(self, timeout: "float | None" = None) -> Optional[dict]:
        """Next delta dict; None on timeout or after the stream ends."""
        if self.closed:
            return None
        self._sock.settimeout(timeout)
        try:
            line = self._file.readline()
        except socket.timeout:
            return None
        if not line.strip():
            self.close()
            return None
        payload = json.loads(line)
        if not payload.get("ok"):
            self.close()
            raise ReproError(payload.get("error", "standing query failed"))
        if payload.get("closed"):
            self.close()
            return None
        delta = payload["delta"]
        self.version = delta["version"]
        return delta

    def __iter__(self):
        while True:
            delta = self.poll(timeout=None)
            if delta is None:
                return
            yield delta

    def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        try:
            self._file.close()
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "StandingSubscription":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class MatchClient:
    """Line-JSON client for a running ``serve-match`` daemon."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 timeout: "float | None" = 30.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._lock = threading.Lock()
        self._idle = []

    def query(
        self,
        query,
        order: "Sequence[int] | None" = None,
        deadline: "float | None" = None,
    ) -> QueryOutcome:
        """Run one query remotely; raises the typed service errors."""
        buffer = io.StringIO()
        dump_native(query, buffer)
        request = {
            "query": buffer.getvalue(),
            "order": None if order is None else list(order),
            "deadline": deadline,
        }
        return self._decode(self._call(request, resend=True))

    def mutate(self, batch) -> MutationOutcome:
        """Commit one :class:`~repro.hypergraph.dynamic.MutationBatch`
        remotely.  Raises :class:`~repro.errors.ServiceBusy` only while
        the service drains; a rejected batch, a barrier that waits past
        its patience for in-flight queries, or a connection lost after
        the request went out (the batch is never re-sent, so it may
        have committed) is a :class:`~repro.errors.ReproError`."""
        request = {"op": "mutate", "batch": batch.to_json()}
        payload = self._parse(self._call(request, resend=False))
        if payload.get("ok"):
            return MutationOutcome(
                version=payload["version"],
                inserted=payload["inserted"],
                deleted=payload["deleted"],
                skipped=list(payload.get("skipped", ())),
                edges=payload["edges"],
                vertices=payload["vertices"],
            )
        self._raise(payload)

    def standing(
        self, query, order: "Sequence[int] | None" = None
    ) -> StandingSubscription:
        """Register ``query`` as a standing query; returns the live
        subscription streaming one delta per committed mutation.  The
        subscription owns a connection of its own."""
        buffer = io.StringIO()
        dump_native(query, buffer)
        request = {
            "op": "standing",
            "query": buffer.getvalue(),
            "order": None if order is None else list(order),
        }
        sock = self._connect()
        try:
            sock.sendall((json.dumps(request) + "\n").encode("utf-8"))
            header = self._parse(self._read_line(sock)[0])
        except OSError as exc:
            sock.close()
            raise self._unreachable(exc) from exc
        except ReproError:
            sock.close()
            raise
        if not header.get("ok") or not header.get("standing"):
            sock.close()
            self._raise(header)
        return StandingSubscription(sock, header)

    def close(self) -> None:
        """Close the idle connections.  The client stays usable: a
        later request opens a fresh one."""
        with self._lock:
            idle, self._idle = self._idle, []
        for sock in idle:
            sock.close()

    def __enter__(self) -> "MatchClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- transport -------------------------------------------------------

    def _call(self, request: dict, resend: bool) -> bytes:
        """Send ``request`` and return its reply line.  With ``resend``,
        a reused connection that fails before any reply byte arrives is
        replaced by a fresh one and the request sent once more."""
        data = (json.dumps(request) + "\n").encode("utf-8")
        sock, reused = self._checkout()
        while True:
            try:
                sock.sendall(data)
                reply, whole = self._read_line(sock)
            except socket.timeout as exc:
                sock.close()
                raise self._unreachable(exc) from exc
            except OSError as exc:
                sock.close()
                if not (reused and resend):
                    raise self._unreachable(exc) from exc
                reply, whole = b"", False
            if whole:
                with self._lock:
                    self._idle.append(sock)
                return reply
            sock.close()
            if reply or not (reused and resend):
                return reply  # _parse names the early close
            sock, reused = self._connect(), False

    def _checkout(self):
        """An idle connection the daemon has not closed, or a new one;
        returns ``(sock, reused)``."""
        while True:
            with self._lock:
                if not self._idle:
                    break
                sock = self._idle.pop()
            if _still_open(sock, self.timeout):
                return sock, True
            sock.close()
        return self._connect(), False

    def _connect(self):
        try:
            return socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
        except OSError as exc:
            raise self._unreachable(exc) from exc

    def _unreachable(self, exc: OSError) -> ReproError:
        return ReproError(
            f"match service at {self.host}:{self.port} unreachable: {exc}"
        )

    @staticmethod
    def _read_line(sock) -> Tuple[bytes, bool]:
        """Read one reply line; returns ``(bytes, whole)``.  ``whole``
        is False at an early EOF — a connection that must not be
        reused."""
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks), False
            chunks.append(chunk)
            if chunk.endswith(b"\n"):
                return b"".join(chunks), True

    def _parse(self, reply: bytes) -> dict:
        if not reply.strip():
            raise ReproError(
                f"match service at {self.host}:{self.port} closed the "
                "connection without answering (draining or crashed?)"
            )
        try:
            return json.loads(reply)
        except ValueError as exc:
            raise ReproError(
                f"undecodable reply from match service: {exc}"
            ) from exc

    def _raise(self, payload: dict):
        """Map a ``{"ok": false}`` reply to its typed exception."""
        if payload.get("busy"):
            raise ServiceBusy(
                payload.get("depth", 0), payload.get("retry_after", 0.0)
            )
        if payload.get("cancelled"):
            raise QueryCancelled(payload.get("error", "query cancelled"))
        if payload.get("deadline_exceeded"):
            exc = TimeoutExceeded(0.0, 0.0)
            exc.args = (payload.get("error", "query deadline exceeded"),)
            raise exc
        if payload.get("query_error"):
            raise QueryError(payload.get("error", "query refused"))
        raise ReproError(payload.get("error", "match service error"))

    def _decode(self, reply: bytes) -> QueryOutcome:
        payload = self._parse(reply)
        if payload.get("ok"):
            return QueryOutcome(
                embeddings=payload["embeddings"],
                elapsed=payload["elapsed"],
                cached=bool(payload.get("cached")),
            )
        self._raise(payload)


def _still_open(sock, timeout) -> bool:
    """A non-blocking ``MSG_PEEK`` on an idle connection: nothing to
    read means it is still open; EOF, a reset or a stray byte (no reply
    is owed on an idle connection) means it is not."""
    sock.settimeout(0.0)
    try:
        sock.recv(1, socket.MSG_PEEK)
    except BlockingIOError:
        return True
    except OSError:
        return False
    finally:
        sock.settimeout(timeout)
    return False
