"""The always-on match service: one shared shard pool, many queries.

Everything below :mod:`repro.service` turns the single-job socket
coordinator into a long-lived service:

* :class:`~repro.service.mux.MuxShardPool` — one connection per shard
  worker, multiplexing any number of in-flight queries over the
  query-tagged job frames (JOB/LEVEL/REPLY/COLLECT/QERROR/CANCEL);
* :class:`~repro.service.mux.QueryChannel` — the per-query executor
  facade that plugs into the unchanged level-synchronous coordinator
  loop, so multiplexed counts are bit-identical to solo runs;
* :class:`~repro.service.service.MatchService` — admission control
  (bounded depth, explicit BUSY), per-query deadlines, cancellation,
  an LRU result cache keyed by (query, graph) fingerprints, and
  graceful drain;
* :class:`~repro.service.standing.StandingQuery` /
  :class:`~repro.service.standing.MatchDelta` — registered queries
  whose match sets stay current across mutations, emitting exact
  added/removed deltas when a batch commits (§2.9 MUTATE/DELTA);
* :class:`~repro.service.daemon.MatchDaemon` /
  :class:`~repro.service.client.MatchClient` — the asyncio
  ``serve-match`` front end and its line-JSON client (``repro query``).
"""

from .client import MatchClient, MutationOutcome, StandingSubscription
from .daemon import MatchDaemon
from .mux import MuxShardPool, QueryChannel
from .service import (
    MatchService,
    MatchTicket,
    graph_fingerprint,
    query_fingerprint,
)
from .standing import MatchDelta, StandingQuery

__all__ = [
    "MatchClient",
    "MatchDaemon",
    "MatchDelta",
    "MatchService",
    "MatchTicket",
    "MutationOutcome",
    "MuxShardPool",
    "QueryChannel",
    "StandingQuery",
    "StandingSubscription",
    "graph_fingerprint",
    "query_fingerprint",
]
