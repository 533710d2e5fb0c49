"""The match service's client half (``repro query``).

:class:`MatchClient` speaks the daemon's one-line-JSON protocol
synchronously: one socket per request, the query graph shipped as
native text, the reply decoded back into either a
:class:`QueryOutcome` or the matching typed error —
:class:`~repro.errors.ServiceBusy` for an admission refusal,
:class:`~repro.errors.QueryCancelled`,
:class:`~repro.errors.TimeoutExceeded` for a blown deadline,
:class:`~repro.errors.QueryError` for a query the served graph's
label type refuses, and :class:`~repro.errors.ReproError` for
everything else.  The client
holds no long-lived state, so it is safe to share across threads and
to retry after a BUSY refusal.
"""

from __future__ import annotations

import io
import json
import socket
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
        try:
            with socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            ) as sock:
                sock.sendall((json.dumps(request) + "\n").encode("utf-8"))
                reply = self._read_line(sock)
        except OSError as exc:
            raise ReproError(
                f"match service at {self.host}:{self.port} "
                f"unreachable: {exc}"
            ) from exc
        return self._decode(reply)

    def mutate(self, batch) -> MutationOutcome:
        """Commit one :class:`~repro.hypergraph.dynamic.MutationBatch`
        remotely; raises :class:`~repro.errors.ServiceBusy` while
        queries are in flight past the barrier's patience, or
        :class:`~repro.errors.ReproError` for a rejected batch."""
        request = {"op": "mutate", "batch": batch.to_json()}
        try:
            with socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            ) as sock:
                sock.sendall((json.dumps(request) + "\n").encode("utf-8"))
                reply = self._read_line(sock)
        except OSError as exc:
            raise ReproError(
                f"match service at {self.host}:{self.port} "
                f"unreachable: {exc}"
            ) from exc
        payload = self._parse(reply)
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
        subscription streaming one delta per committed mutation."""
        buffer = io.StringIO()
        dump_native(query, buffer)
        request = {
            "op": "standing",
            "query": buffer.getvalue(),
            "order": None if order is None else list(order),
        }
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
        except OSError as exc:
            raise ReproError(
                f"match service at {self.host}:{self.port} "
                f"unreachable: {exc}"
            ) from exc
        try:
            sock.sendall((json.dumps(request) + "\n").encode("utf-8"))
            header = self._parse(self._read_line(sock))
        except OSError as exc:
            sock.close()
            raise ReproError(
                f"match service at {self.host}:{self.port} "
                f"unreachable: {exc}"
            ) from exc
        except ReproError:
            sock.close()
            raise
        if not header.get("ok") or not header.get("standing"):
            sock.close()
            self._raise(header)
        return StandingSubscription(sock, header)

    def _read_line(self, sock) -> bytes:
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
            if chunk.endswith(b"\n"):
                break
        return b"".join(chunks)

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
