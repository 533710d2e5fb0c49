"""Deterministic fault injection for the socket pool runtime.

Testing failover honestly requires faults that happen at *exactly* the
same protocol position on every run — a sleep-and-kill race reproduces
one failure in ten runs and a different one in the other nine.  This
module pins faults to **frame counts** instead of wall-clock time: a
:class:`FaultPlan` lists faults like "sever shard 1's connection when
the coordinator sends its 3rd frame" or "delay shard 0's 2nd reply by
300 ms", and a :class:`ChaosSocket` wrapper applies them as
the frames cross.  Because a job is itself
deterministic (same job → same frame sequence: one SUBTREE request per
part), a seeded plan produces the same fault at
the same frame on every run, which is what lets the
chaos tests and ``benchmarks/bench_chaos.py`` assert *bit-identical
counts under faults* rather than merely "it didn't crash".

Where the wrapper sits
----------------------
Every frame the transport moves crosses exactly one ``sendall`` call
(:func:`repro.parallel.transport.send_frame` and the coordinator's
broadcast both encode a whole frame, then write it once).  The wrapper
therefore intercepts only the **send** path and counts frames per
connection; the receive path is a transparent proxy.  All five fault
kinds are expressible as send-side events on one endpoint or the other:

=========  ========  ====================================================
fault      endpoint  effect at frame ``N`` of that connection
=========  ========  ====================================================
sever      either    close the connection instead of sending
garble     either    flip the frame's version byte, then send (the peer
                     must reject the frame and drop the session)
kill       coord.    send the frame, then invoke the armed killer for
                     the target worker (terminate its process)
delay      worker    sleep ``seconds`` before sending (a slow member —
                     the straggler whose part is still answered exactly)
drop       worker    swallow the frame (a reply that never arrives —
                     the wedged peer that timeouts exist for)
=========  ========  ====================================================

The coordinator wraps each worker connection it opens; a
:class:`~repro.parallel.worker.ShardWorker` built with a plan
wraps each session it serves.  Faults are matched by the endpoint role
plus the worker's ``shard_id`` name, so one plan can
be handed to both sides (it pickles into ``spawn_local_cluster``
workers; armed killer callables are deliberately dropped from the
pickle — killing is the coordinator side's job).

Every fault fires **once** and is then consumed; plans are single-use
per endpoint process, like the jobs they disturb.
"""

from __future__ import annotations

import random
import time
import struct
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from .transport import QUERY_KINDS

#: Endpoint roles a fault can bind to.  ``announcer`` is the worker's
#: registry connection (frame 1 is the ANNOUNCE, frames 2+ are
#: HEARTBEATs), so discovery and liveness can be fault-injected with
#: the same frame-count determinism as the data path.
ROLE_COORDINATOR = "coordinator"
ROLE_WORKER = "worker"
ROLE_ANNOUNCER = "announcer"
_ROLES = (ROLE_COORDINATOR, ROLE_WORKER, ROLE_ANNOUNCER)

#: Offset of the protocol-version byte inside an encoded frame
#: (after the little-endian u32 length) — the byte ``garble`` flips,
#: chosen because every reader validates it before trusting anything
#: else in the frame.
_VERSION_BYTE_OFFSET = 4

#: Offsets of the kind byte and (for the query-tagged job kinds) the u64
#: query-id tag inside an encoded frame — how a query-pinned fault
#: recognises which query a frame belongs to without decoding it.
_KIND_BYTE_OFFSET = 5
_QUERY_ID_OFFSET = 6
_QUERY_ID_END = _QUERY_ID_OFFSET + 8


def _frame_query_id(data) -> Optional[int]:
    """The query id a wire frame is tagged with, or None.

    Reads the §2.5 tag straight out of the encoded bytes (kind byte at
    offset 5, little-endian u64 at offsets 6..14) so the chaos layer
    stays a pure byte-stream observer — no transport decode, no state.
    """
    if len(data) < _QUERY_ID_END:
        return None
    if data[_KIND_BYTE_OFFSET] not in QUERY_KINDS:
        return None
    return struct.unpack_from("<Q", data, _QUERY_ID_OFFSET)[0]


@dataclass
class Fault:
    """One planned fault, pinned to a protocol position.

    ``after_frames`` is 1-based and counts frames *sent* by the bound
    endpoint on one connection: the fault fires when that endpoint is
    about to send its ``after_frames``-th frame.  For a coordinator
    connection frame 1 is its first request (the handshake is
    received, not sent); for a worker session frame 1 is the HELLO.

    ``query_id`` pins the fault to one multiplexed query's frames:
    ``after_frames`` then counts only the frames tagged with that
    query id (the job kinds, §2.5), so a fault disturbs exactly one
    query of a multiplexed session no matter how its frames interleave
    with other queries' — the determinism the isolation tests rely on.
    """

    kind: str  # "sever" | "garble" | "kill" | "delay" | "drop"
    role: str
    shard_id: int
    after_frames: int
    seconds: float = 0.0
    query_id: Optional[int] = None
    consumed: bool = field(default=False, compare=False)

    def matches(
        self,
        role: str,
        shard_id: int,
        frame: int,
        query_id: Optional[int] = None,
        query_frame: int = 0,
    ) -> bool:
        if (
            self.consumed
            or self.role != role
            or self.shard_id != shard_id
        ):
            return False
        if self.query_id is not None:
            return query_id == self.query_id and (
                self.after_frames == query_frame
            )
        return self.after_frames == frame


class ChaosSeveredError(OSError):
    """Raised when a planned ``sever`` closes the connection — an
    :class:`OSError` so every existing peer-gone handler (broadcast
    failover, transport wrapping) treats it exactly like a real
    network failure."""


class FaultPlan:
    """A seeded, deterministic schedule of transport faults.

    Build one with the fault constructors, arm killers if any ``kill``
    faults need a process to terminate, and hand it to both sides::

        plan = FaultPlan(seed=7)
        plan.kill_worker(shard_id=1, after_frames=1)   # mid-SUBTREE kill
        plan.slow_reply(1, after_frames=2, seconds=0.4)
        plan.arm_killer(1, lambda: cluster.kill_member(1))
        pool = ShardPool(addresses=..., chaos=plan)

    ``seed`` drives the plan's :attr:`rng` (used by stochastic fault
    extensions and available to harness code for jittered schedules);
    the built-in faults are fully position-determined and ignore it.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.faults: List[Fault] = []
        self._killers: Dict[int, Callable[[], None]] = {}

    # -- fault constructors ---------------------------------------------

    def _add(self, fault: Fault) -> Fault:
        if fault.role not in _ROLES:
            raise ValueError(f"unknown chaos role {fault.role!r}")
        if fault.after_frames < 1:
            raise ValueError("after_frames is 1-based; must be >= 1")
        self.faults.append(fault)
        return fault

    def sever(
        self,
        shard_id: int,
        *,
        after_frames: int,
        role: str = ROLE_COORDINATOR,
        query_id: Optional[int] = None,
    ) -> Fault:
        """Close the connection instead of sending frame ``N`` — the
        mid-job disconnect (the worker process survives).  With
        ``query_id``, ``N`` counts that query's frames alone."""
        return self._add(
            Fault("sever", role, shard_id, after_frames, query_id=query_id)
        )

    def garble(
        self,
        shard_id: int,
        *,
        after_frames: int,
        role: str = ROLE_COORDINATOR,
        query_id: Optional[int] = None,
    ) -> Fault:
        """Corrupt frame ``N``'s version byte before sending — the peer
        must reject it and end the session (never guess).  With
        ``query_id``, ``N`` counts that query's frames alone."""
        return self._add(
            Fault("garble", role, shard_id, after_frames, query_id=query_id)
        )

    def kill_worker(
        self,
        shard_id: int,
        *,
        after_frames: int,
        query_id: Optional[int] = None,
    ) -> Fault:
        """Terminate the worker's process right after the coordinator
        sends it frame ``N`` (arm the actual terminator with
        :meth:`arm_killer`; unarmed kills degrade to a sever).  With
        ``query_id``, ``N`` counts that query's frames alone."""
        return self._add(
            Fault(
                "kill", ROLE_COORDINATOR, shard_id, after_frames,
                query_id=query_id,
            )
        )

    def slow_reply(
        self,
        shard_id: int,
        *,
        after_frames: int,
        seconds: float,
        query_id: Optional[int] = None,
    ) -> Fault:
        """Delay the worker's frame ``N`` by ``seconds`` — a straggling
        member.  With ``query_id``, ``N``
        counts that query's frames alone."""
        return self._add(
            Fault(
                "delay", ROLE_WORKER, shard_id, after_frames,
                seconds=seconds, query_id=query_id,
            )
        )

    def drop_reply(
        self,
        shard_id: int,
        *,
        after_frames: int,
        query_id: Optional[int] = None,
    ) -> Fault:
        """Swallow the worker's frame ``N`` — a reply that never
        arrives (the coordinator's per-frame deadline must notice).
        With ``query_id``, ``N`` counts that query's frames alone."""
        return self._add(
            Fault(
                "drop", ROLE_WORKER, shard_id, after_frames,
                query_id=query_id,
            )
        )

    def drop_heartbeats(
        self,
        shard_id: int,
        *,
        after_frames: int,
        count: int = 1,
    ) -> "List[Fault]":
        """Swallow ``count`` consecutive announcer frames starting at
        frame ``N`` — missed heartbeats (the registry's eviction
        deadline must notice).  Announcer frame 1 is the ANNOUNCE, so
        ``after_frames=2`` drops the first heartbeat."""
        return [
            self._add(
                Fault("drop", ROLE_ANNOUNCER, shard_id, after_frames + offset)
            )
            for offset in range(count)
        ]

    def garble_announce(
        self, shard_id: int, *, after_frames: int = 1
    ) -> Fault:
        """Corrupt the announcer's frame ``N`` (default: the ANNOUNCE
        itself) — the registry must reject the session, never record a
        worker it could not validate."""
        return self._add(
            Fault("garble", ROLE_ANNOUNCER, shard_id, after_frames)
        )

    # -- killers ---------------------------------------------------------

    def arm_killer(
        self, shard_id: int, killer: Callable[[], None]
    ) -> None:
        """Attach the callable a ``kill`` fault on ``shard_id`` invokes
        — typically ``cluster.kill_member(...)``.  Killers never pickle
        (see :meth:`__getstate__`)."""
        self._killers[shard_id] = killer

    def _kill(self, shard_id: int) -> bool:
        killer = self._killers.get(shard_id)
        if killer is None:
            return False
        killer()
        return True

    # -- wrapping --------------------------------------------------------

    def wrap(
        self,
        sock,
        role: str,
        shard_id: "int | None" = None,
    ) -> "ChaosSocket":
        """Wrap one endpoint of a connection.  Identity may be bound
        later (the coordinator learns a worker's identity from its
        HELLO) via :meth:`ChaosSocket.bind_endpoint`; unbound sockets
        pass frames through untouched."""
        if role not in _ROLES:
            raise ValueError(f"unknown chaos role {role!r}")
        return ChaosSocket(sock, self, role, shard_id)

    def __getstate__(self):
        # Killers close over process handles; the worker side of a
        # pickled plan must never hold (or invoke) them.
        state = self.__dict__.copy()
        state["_killers"] = {}
        return state

    def __repr__(self) -> str:
        pending = sum(1 for fault in self.faults if not fault.consumed)
        return (
            f"FaultPlan(seed={self.seed}, faults={len(self.faults)}, "
            f"pending={pending})"
        )


class ChaosSocket:
    """A socket proxy that applies planned faults on the send path.

    Counts whole frames (one ``sendall`` call each — the transport's
    invariant) and consults the plan before every send; everything
    else (``recv``, timeouts, ``fileno`` for selectors, close) proxies
    to the wrapped socket, so the executor and the worker treat a
    chaos-wrapped connection exactly like a bare one.
    """

    __slots__ = ("_sock", "_plan", "_role", "_shard_id", "_sent",
                 "_query_sent")

    def __init__(self, sock, plan, role, shard_id) -> None:
        self._sock = sock
        self._plan = plan
        self._role = role
        self._shard_id = shard_id
        self._sent = 0
        # Per-query frame counters for the query-tagged job frames, so a
        # query-pinned fault keeps its protocol position no matter how
        # the session interleaves queries.
        self._query_sent: Dict[int, int] = {}

    def bind_endpoint(self, shard_id: int) -> None:
        """Attach the worker name this connection talks to (or as);
        frame counting starts at the *next* send, so handshake frames
        received before binding never shift fault positions."""
        self._shard_id = shard_id

    @property
    def frames_sent(self) -> int:
        return self._sent

    def _next_fault(
        self, query_id: Optional[int], query_frame: int
    ) -> "Optional[Fault]":
        if self._shard_id is None:
            return None
        for fault in self._plan.faults:
            if fault.matches(
                self._role, self._shard_id, self._sent, query_id,
                query_frame,
            ):
                fault.consumed = True
                return fault
        return None

    def sendall(self, data) -> None:
        self._sent += 1
        query_id = _frame_query_id(data)
        query_frame = 0
        if query_id is not None:
            query_frame = self._query_sent.get(query_id, 0) + 1
            self._query_sent[query_id] = query_frame
        fault = self._next_fault(query_id, query_frame)
        if fault is None:
            self._sock.sendall(data)
            return
        if fault.kind == "sever":
            self.close()
            raise ChaosSeveredError(
                f"chaos: severed shard {self._shard_id} at frame "
                f"{self._sent}"
            )
        if fault.kind == "garble":
            garbled = bytearray(data)
            if len(garbled) > _VERSION_BYTE_OFFSET:
                garbled[_VERSION_BYTE_OFFSET] ^= 0xFF
            self._sock.sendall(bytes(garbled))
            return
        if fault.kind == "kill":
            self._sock.sendall(data)
            if not self._plan._kill(self._shard_id):
                # No armed killer (e.g. remote worker): the closest
                # observable effect is losing the connection.
                self.close()
                raise ChaosSeveredError(
                    f"chaos: unarmed kill severed shard {self._shard_id} "
                    f"at frame {self._sent}"
                )
            return
        if fault.kind == "delay":
            time.sleep(fault.seconds)
            self._sock.sendall(data)
            return
        if fault.kind == "drop":
            return  # the frame vanishes
        raise ValueError(f"unknown fault kind {fault.kind!r}")

    # -- transparent proxies --------------------------------------------

    def recv(self, bufsize: int) -> bytes:
        return self._sock.recv(bufsize)

    def settimeout(self, timeout) -> None:
        self._sock.settimeout(timeout)

    def setsockopt(self, *args) -> None:
        self._sock.setsockopt(*args)

    def fileno(self) -> int:
        return self._sock.fileno()

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - best effort
            pass

    def __repr__(self) -> str:
        return (
            f"ChaosSocket({self._role}, shard={self._shard_id}, "
            f"sent={self._sent})"
        )
