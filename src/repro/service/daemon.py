"""The asyncio front end of the match service (``repro serve-match``).

:class:`MatchDaemon` listens on a TCP port and speaks a one-line-JSON
protocol: each connection carries exactly one request, selected by its
``op`` field (absent = ``"query"``) —

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

A ``standing`` connection stays open and streams one line per
committed mutation batch until the client hangs up (which unregisters
the query) or the service drains (a final ``{"ok": true, "closed":
true}`` line).  Refusals and failures are equally explicit, never a
hang or a silent drop:

.. code-block:: text

    S: {"ok": false, "busy": true, "retry_after": 0.25, "depth": 8}
    S: {"ok": false, "deadline_exceeded": true, "error": "..."}
    S: {"ok": false, "cancelled": true, "error": "..."}
    S: {"ok": false, "error": "..."}

The daemon owns a :class:`~repro.service.service.MatchService` and
bridges its blocking tickets onto the event loop with
``run_in_executor`` (a cache hit is born finished and is answered on
the loop directly); an EOF watchdog per connection turns a client
disconnect into :meth:`MatchTicket.cancel`, so an abandoned query is
given up instead of waited for by nobody.
SIGTERM/SIGINT trigger a graceful drain: the listener closes, in-flight
queries finish (or are cancelled at the drain timeout), and the pool
shuts down.
"""

from __future__ import annotations

import asyncio
import io
import json
import signal
import time

from ..errors import (
    QueryCancelled,
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
        self.queries_served = 0

    # -- per-connection protocol ----------------------------------------

    async def _handle(self, reader, writer) -> None:
        try:
            response = await self._respond(reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            response = None
        except asyncio.CancelledError:
            # Loop teardown cancelled a live connection (e.g. a standing
            # stream mid-poll).  Close the transport without awaiting —
            # the loop is going away — and finish quietly rather than
            # letting the cancellation surface as a logged traceback.
            writer.transport.close()
            return
        if response is not None:
            try:
                writer.write((json.dumps(response) + "\n").encode("utf-8"))
                await writer.drain()
            except ConnectionError:
                pass
        try:
            writer.close()
            await writer.wait_closed()
        except ConnectionError:
            pass

    async def _respond(self, reader, writer):
        try:
            line = await reader.readline()
        except ValueError:
            return {"ok": False,
                    "error": f"request exceeds {MAX_REQUEST_BYTES} bytes"}
        if not line.strip():
            return None  # client connected and hung up without asking
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
            return await self._serve_standing(request, reader, writer)
        if op != "query":
            return {"ok": False, "error": f"unknown op {op!r}"}
        try:
            query = parse_native(io.StringIO(request["query"]))
            order = request.get("order")
            deadline = request.get("deadline")
        except (KeyError, TypeError, ValueError, ReproError) as exc:
            return {"ok": False, "error": f"bad request: {exc}"}

        try:
            ticket = self.service.submit(
                query, order=order, deadline=deadline
            )
        except ServiceBusy as exc:
            return {"ok": False, "busy": True,
                    "retry_after": exc.retry_after, "depth": exc.depth}
        except ReproError as exc:
            return {"ok": False, "error": str(exc)}

        try:
            if ticket.cached:
                # Born finished: nothing to wait for, nothing to cancel
                # — answered on the event loop, no thread hop.
                result = ticket.result()
            else:
                # A disconnecting client cancels its query: read()
                # resolving to b"" (EOF) before the result lands means
                # nobody is listening.
                loop = asyncio.get_running_loop()
                eof = asyncio.ensure_future(reader.read())
                waiter = loop.run_in_executor(None, ticket.result)
                done, _ = await asyncio.wait(
                    {eof, waiter}, return_when=asyncio.FIRST_COMPLETED
                )
                if waiter not in done:
                    ticket.cancel()
                eof.cancel()
                result = await waiter
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
        except ServiceBusy as exc:
            return {"ok": False, "busy": True,
                    "retry_after": exc.retry_after, "depth": exc.depth}
        except Exception as exc:
            return {"ok": False, "error": str(exc)}
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

    async def _serve_standing(self, request, reader, writer):
        """The ``standing`` op: register, then stream one line per delta.

        The connection *is* the subscription: EOF from the client
        unregisters the query, a service drain ends the stream with a
        ``closed`` line.  Returns the error response when registration
        fails, else None (everything was streamed already).
        """
        try:
            query = parse_native(io.StringIO(request["query"]))
            order = request.get("order")
        except (KeyError, TypeError, ValueError, ReproError) as exc:
            return {"ok": False, "error": f"bad request: {exc}"}
        try:
            handle = self.service.register_standing(query, order=order)
        except ServiceBusy as exc:
            return {"ok": False, "busy": True,
                    "retry_after": exc.retry_after, "depth": exc.depth}
        except ReproError as exc:
            return {"ok": False, "error": str(exc)}
        loop = asyncio.get_running_loop()
        eof = asyncio.ensure_future(reader.read())
        try:
            writer.write((json.dumps({
                "ok": True,
                "standing": True,
                "query_id": handle.query_id,
                "version": handle.version,
                "matches": len(handle.matches),
            }) + "\n").encode("utf-8"))
            await writer.drain()
            while True:
                try:
                    waiter = loop.run_in_executor(None, handle.poll, 0.25)
                except RuntimeError:
                    return None  # loop shutting down mid-subscription
                done, _ = await asyncio.wait(
                    {eof, waiter}, return_when=asyncio.FIRST_COMPLETED
                )
                delta = await waiter  # resolves within the poll timeout
                if eof in done:
                    return None  # client hung up: subscription over
                if delta is not None:
                    writer.write((json.dumps(
                        {"ok": True, "delta": delta.to_json()}
                    ) + "\n").encode("utf-8"))
                    await writer.drain()
                elif handle.closed:
                    writer.write((json.dumps(
                        {"ok": True, "closed": True}
                    ) + "\n").encode("utf-8"))
                    await writer.drain()
                    return None
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
        """Close the listener, drain the service. Idempotent."""
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(
            None, lambda: self.service.drain(drain_timeout)
        )


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
