"""The asyncio front end of the match service (``repro serve-match``).

:class:`MatchDaemon` listens on a TCP port and speaks a line-JSON
protocol.  A connection is kept alive: it carries any number of
requests, one line each, answered one line each in request order until
the client hangs up.  A request's ``op`` field (absent = ``"query"``)
selects what it asks —

.. code-block:: text

    C: {"query": "<native hypergraph text>", "deadline": 2.5, "order": null}
    S: {"ok": true, "embeddings": 42, "elapsed": 0.103, "cached": false}

    C: {"op": "mutate", "batch": {"inserts": [...], "deletes": [...],
        "add_vertices": [...]}}
    S: {"ok": true, "version": 3, "inserted": 2, "deleted": 1,
        "skipped": [], "edges": 61, "vertices": 24}

    C: {"op": "standing", "query": "<native hypergraph text>"}
    S: {"ok": true, "standing": true, "query_id": 1, "version": 3,
        "matches": 42}
    S: {"ok": true, "delta": {"query_id": 1, "version": 4,
        "added": [[7, 9]], "removed": []}}        (one line per commit)

A ``standing`` request turns its connection into the subscription: it
streams one line per committed mutation batch until the client hangs
up (which unregisters the query) or the service drains (a final
``{"ok": true, "closed": true}`` line), and the connection ends with
it.  A line longer than ``MAX_REQUEST_BYTES`` is answered with its
error and then the connection closes, as the framing is lost.
Refusals and failures are equally explicit, never a hang or a silent
drop:

.. code-block:: text

    S: {"ok": false, "busy": true, "retry_after": 0.25, "depth": 8}
    S: {"ok": false, "deadline_exceeded": true, "error": "..."}
    S: {"ok": false, "cancelled": true, "error": "..."}
    S: {"ok": false, "query_error": true, "error": "..."}
    S: {"ok": false, "error": "..."}

A request whose query text does not parse, whose ``order`` is not null
or a list of ints, or whose ``deadline`` is not null or a finite number
>= 0 gets the plain ``error`` reply ``bad request: ...``, and the
connection goes on to its next line.

``query_error`` refuses a ``query`` or ``standing`` query whose vertex
labels are of a type the served graph's are not (the native text is
read back with string labels, a built-in dataset has int ones): it
could match nothing, so it is refused instead of answered with 0.

The daemon owns a :class:`~repro.service.service.MatchService` and
awaits a live ticket's future on the event loop through
``asyncio.wrap_future`` — one thread hop, the service thread's (a cache
hit or an inline count is born finished and is answered on the loop
directly; the inline count itself runs on the loop, inside ``submit``,
for at most ``INLINE_BUDGET`` and one block).  While a live ticket
runs, the connection's next ``readline()`` is its EOF watchdog: EOF
before the result means nobody is listening, so the ticket is
cancelled instead of waited for by nobody; a line is the next request,
and the connection answers it after this one from that same read.
SIGTERM/SIGINT trigger a graceful drain: the listener closes, and so
does every connection waiting for its next request; in-flight queries
finish (or are cancelled at the drain timeout) and are answered; and
the pool shuts down.
"""

from __future__ import annotations

import asyncio
import io
import json
import math
import signal
import time

from ..errors import (
    QueryCancelled,
    QueryError,
    ReproError,
    ServiceBusy,
    TimeoutExceeded,
)
from ..hypergraph.dynamic import MutationBatch
from ..hypergraph.io import parse_native
from .service import MatchService

#: Refuse request lines longer than this many bytes (a query graph in
#: native text form is tiny; anything bigger is a protocol error).
MAX_REQUEST_BYTES = 8 * 1024 * 1024


async def _ticket_result(waiter):
    """Await a live ticket's wrapped future, as :meth:`MatchTicket.result`
    would block on it: a ticket cancelled before it started raises
    ``QueryCancelled``.  Shielded, so a connection torn down mid-wait
    leaves the ticket to the drain instead of cancelling it unseen."""
    try:
        return await asyncio.shield(waiter)
    except asyncio.CancelledError:
        if not waiter.cancelled():
            raise  # the connection's own task is being cancelled
        raise QueryCancelled("query cancelled before it started") from None


def _refusal(exc: Exception) -> dict:
    """The reply to a service refusal or failure: a label-type
    ``QueryError`` is ``query_error``, ``ServiceBusy`` is ``busy`` with
    its back-off hint, anything else a plain ``error``."""
    if isinstance(exc, QueryError):
        return {"ok": False, "query_error": True, "error": str(exc)}
    if isinstance(exc, ServiceBusy):
        return {"ok": False, "busy": True,
                "retry_after": exc.retry_after, "depth": exc.depth}
    return {"ok": False, "error": str(exc)}


def _request_order(request: dict):
    """A request's ``order``: null, or a list of vertex ids."""
    order = request.get("order")
    if order is not None and not (
        type(order) is list and all(type(vertex) is int for vertex in order)
    ):
        raise TypeError(f"order must be null or a list of ints, not {order!r}")
    return order


def _request_deadline(request: dict):
    """A request's ``deadline``: null, or a finite number of seconds
    >= 0, decoded as a float (a JSON integer too large for one, such as
    ``1e400`` written out in digits, is refused here, not left to
    overflow on the service's clock)."""
    deadline = request.get("deadline")
    if deadline is None:
        return None
    seconds = math.nan
    if type(deadline) in (int, float):
        try:
            seconds = float(deadline)
        except OverflowError:  # an int too large for a float
            pass
    if not (math.isfinite(seconds) and seconds >= 0):
        raise ValueError(
            "deadline must be null or a finite non-negative number, "
            f"not {deadline!r}"
        )
    return seconds


def _hung_up(read) -> bool:
    """Whether a finished next-line read says the client is gone: EOF
    or a reset.  A line (the next request) or an over-long one (answered
    with its error by the connection loop) says it is still there."""
    exc = read.exception()
    if exc is None:
        return read.result() == b""
    return isinstance(exc, ConnectionError)


class _Connection:
    """One client connection and the read of its next request line."""

    def __init__(self, reader, writer) -> None:
        self.reader = reader
        self.writer = writer
        self.task = asyncio.current_task()
        self.pending = None
        #: Waiting for its next request (the drain closes it at once).
        self.idle = False

    def next_line(self):
        """The read of the next request line, started at most once: a
        live query's EOF watchdog and the connection loop share it."""
        if self.pending is None:
            self.pending = asyncio.ensure_future(self.reader.readline())
        return self.pending

    async def send(self, response: dict) -> None:
        self.writer.write((json.dumps(response) + "\n").encode("utf-8"))
        await self.writer.drain()

    def close(self) -> None:
        """Close with a FIN of its own: a pool worker forked while the
        connection was open holds a copy of its socket, so closing the
        daemon's descriptor alone would not end it for the client."""
        try:
            self.writer.write_eof()
        except OSError:
            pass
        self.writer.close()


class MatchDaemon:
    """Serve a :class:`MatchService` over line-JSON TCP."""

    def __init__(self, service: MatchService, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.address = None
        self._server = None
        self._stop = None
        self._loop = None
        self._closing = False
        self._connections = set()
        self.queries_served = 0

    # -- per-connection protocol ----------------------------------------

    async def _handle(self, reader, writer) -> None:
        """Answer one connection's requests in order until EOF."""
        conn = _Connection(reader, writer)
        self._connections.add(conn)
        try:
            while not self._closing:
                conn.idle = True
                try:
                    line = await conn.next_line()
                except ValueError:
                    await conn.send({
                        "ok": False,
                        "error": f"request exceeds {MAX_REQUEST_BYTES} bytes",
                    })
                    break  # the framing is lost
                finally:
                    conn.idle = False
                conn.pending = None
                if not line or self._closing:
                    break  # the client hung up, or the daemon drains
                if not line.strip():
                    continue
                response = await self._respond(line, conn)
                if response is None:
                    break  # a standing stream ended the connection
                await conn.send(response)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Loop teardown cancelled a live connection (e.g. a standing
            # stream waiting for its next delta).  Close the transport
            # without awaiting — the loop is going away — and finish
            # quietly rather than letting the cancellation surface as a
            # logged traceback.
            writer.transport.close()
            return
        finally:
            self._connections.discard(conn)
            if conn.pending is not None:
                conn.pending.cancel()
        try:
            conn.close()
            await writer.wait_closed()
        except ConnectionError:
            pass

    async def _respond(self, line: bytes, conn: _Connection):
        try:
            request = json.loads(line)
            if not isinstance(request, dict):
                raise TypeError("request must be a JSON object")
            op = request.get("op", "query")
        except (TypeError, ValueError) as exc:
            return {"ok": False, "error": f"bad request: {exc}"}
        if op == "mutate":
            return await self._respond_mutate(request)
        if op == "standing":
            return await self._serve_standing(request, conn)
        if op != "query":
            return {"ok": False, "error": f"unknown op {op!r}"}
        try:
            query = parse_native(io.StringIO(request["query"]))
            order = _request_order(request)
            deadline = _request_deadline(request)
        except (KeyError, TypeError, ValueError, ReproError) as exc:
            return {"ok": False, "error": f"bad request: {exc}"}
        try:
            ticket = self.service.submit(
                query, order=order, deadline=deadline
            )
        except ReproError as exc:
            return _refusal(exc)

        try:
            if ticket.done():
                # Born finished (a cache hit or an inline count):
                # nothing to wait for, nothing to cancel — answered on
                # the event loop, no thread hop.
                result = ticket.result()
            else:
                # The watchdog is the connection's next readline(): EOF
                # before the result means nobody is listening, so the
                # query is cancelled; a line is the next request, which
                # the connection loop answers after this one.
                read = conn.next_line()
                waiter = asyncio.wrap_future(ticket.future)
                done, _ = await asyncio.wait(
                    {read, waiter}, return_when=asyncio.FIRST_COMPLETED
                )
                if waiter not in done and _hung_up(read):
                    ticket.cancel()
                result = await _ticket_result(waiter)
        except TimeoutExceeded as exc:
            return {"ok": False, "deadline_exceeded": True,
                    "error": str(exc)}
        except QueryCancelled as exc:
            return {"ok": False, "cancelled": True, "error": str(exc)}
        except Exception as exc:
            return {"ok": False, "error": str(exc)}
        self.queries_served += 1
        return {
            "ok": True,
            "embeddings": result.embeddings,
            "elapsed": result.elapsed,
            "cached": ticket.cached,
        }

    # -- mutation / standing ops ----------------------------------------

    async def _respond_mutate(self, request):
        """The ``mutate`` op: commit one batch under the service barrier."""
        try:
            batch = MutationBatch.from_json(request.get("batch"))
        except (KeyError, TypeError, ValueError, ReproError) as exc:
            return {"ok": False, "error": f"bad request: {exc}"}
        loop = asyncio.get_running_loop()
        try:
            result = await loop.run_in_executor(
                None, self.service.apply_mutations, batch
            )
        except Exception as exc:
            return _refusal(exc)
        engine = self.service._engine
        return {
            "ok": True,
            "version": result.version,
            "inserted": len(result.inserted),
            "deleted": len(result.deleted),
            "skipped": list(result.skipped),
            "edges": engine.data.num_edges,
            "vertices": engine.data.num_vertices,
        }

    async def _serve_standing(self, request, conn: _Connection):
        """The ``standing`` op: register, then stream one line per delta.

        The connection *is* the subscription: EOF from the client
        unregisters the query, a service drain ends the stream with a
        ``closed`` line.  The registration's callback runs inside each
        commit, on whichever thread commits; it only hands the delta
        (and the final ``None``) to this event loop.  Returns the error
        response when registration fails (the connection carries on),
        else None (everything was streamed already and the connection
        ends).
        """
        try:
            query = parse_native(io.StringIO(request["query"]))
            order = _request_order(request)
        except (KeyError, TypeError, ValueError, ReproError) as exc:
            return {"ok": False, "error": f"bad request: {exc}"}
        loop = asyncio.get_running_loop()
        deltas = asyncio.Queue()

        def deliver(delta) -> None:
            loop.call_soon_threadsafe(deltas.put_nowait, delta)

        try:
            handle = self.service.register_standing(
                query, order=order, callback=deliver
            )
        except ReproError as exc:
            return _refusal(exc)
        eof = asyncio.ensure_future(conn.reader.read())
        try:
            await conn.send({
                "ok": True,
                "standing": True,
                "query_id": handle.query_id,
                "version": handle.version,
                "matches": len(handle.matches),
            })
            while True:
                waiter = asyncio.ensure_future(deltas.get())
                done, _ = await asyncio.wait(
                    {eof, waiter}, return_when=asyncio.FIRST_COMPLETED
                )
                if eof in done:
                    waiter.cancel()
                    return None  # client hung up: subscription over
                delta = waiter.result()
                if delta is None:
                    await conn.send({"ok": True, "closed": True})
                    return None
                await conn.send({"ok": True, "delta": delta.to_json()})
        except ConnectionError:
            return None
        finally:
            eof.cancel()
            self.service.unregister_standing(handle)

    # -- lifecycle -------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=MAX_REQUEST_BYTES
        )
        self.address = self._server.sockets[0].getsockname()[:2]

    def request_stop(self) -> None:
        """Ask the serve loop to drain and exit.  Thread-safe: callable
        from signal handlers, the event loop, or any other thread."""
        if self._stop is None or self._loop is None:
            return
        try:
            self._loop.call_soon_threadsafe(self._stop.set)
        except RuntimeError:
            pass  # loop already closed: the daemon is down

    async def serve(self, duration: "float | None" = None,
                    drain_timeout: float = 10.0) -> None:
        """Run until SIGTERM/SIGINT (or ``duration`` elapses), then drain."""
        if self._server is None:
            await self.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.request_stop)
            except (NotImplementedError, ValueError, RuntimeError):
                # Non-main thread or unsupported platform; asyncio
                # wraps the set_wakeup_fd ValueError in RuntimeError.
                pass
        try:
            if duration is None:
                await self._stop.wait()
            else:
                try:
                    await asyncio.wait_for(self._stop.wait(), duration)
                except asyncio.TimeoutError:
                    pass
        finally:
            await self.stop(drain_timeout=drain_timeout)

    async def stop(self, drain_timeout: float = 10.0) -> None:
        """Close the listener and every connection waiting for its next
        request, drain the service, then let the connections it
        answered finish.  Idempotent.

        The idle connections are closed here, not left to loop
        teardown: ``Server.wait_closed`` waits for every connection
        (Python 3.12.1+), and an idle one would wait for its client
        forever.  A connection still writing when the drain timeout
        runs out again is aborted.
        """
        server, self._server = self._server, None
        if server is not None:
            self._closing = True
            server.close()
            for conn in list(self._connections):
                if conn.idle:
                    conn.close()
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            None, lambda: self.service.drain(drain_timeout)
        )
        if self._connections:
            await asyncio.wait(
                [conn.task for conn in self._connections],
                timeout=drain_timeout,
            )
            for conn in list(self._connections):
                conn.writer.transport.abort()
        if server is not None:
            await server.wait_closed()


def run_daemon(service: MatchService, host: str = "127.0.0.1",
               port: int = 0, duration: "float | None" = None,
               drain_timeout: float = 10.0, ready=None) -> MatchDaemon:
    """Blocking entry point used by the CLI: serve until stopped.

    ``ready`` is called with the bound ``(host, port)`` once listening
    — the CLI prints it so scripts (and CI) can discover an ephemeral
    port, mirroring ``serve-shard``.
    """
    daemon = MatchDaemon(service, host=host, port=port)

    async def _main() -> None:
        await daemon.start()
        if ready is not None:
            ready(daemon.address)
        await daemon.serve(duration=duration, drain_timeout=drain_timeout)

    asyncio.run(_main())
    return daemon
