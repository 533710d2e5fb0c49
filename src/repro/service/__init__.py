"""The always-on match service: one shared shard pool, many queries.

Everything below :mod:`repro.service` puts a long-lived service on
top of the engine's one :class:`~repro.parallel.pool.ShardPool`
(:meth:`repro.core.engine.HGMatch.pool`) — the pool a solo
``executor="processes"`` job on the same engine runs
on too; the service merely keeps many
:class:`~repro.parallel.pool.QueryChannel` objects open on it at once
(multiplexed over the query-tagged frames SUBTREE/REPLY/QERROR,
counts bit-identical to solo runs; :class:`QueryChannel` is
re-exported).

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

from ..parallel.pool import QueryChannel
from .client import MatchClient, MutationOutcome, StandingSubscription
from .daemon import MatchDaemon
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
    "QueryChannel",
    "StandingQuery",
    "StandingSubscription",
    "graph_fingerprint",
    "query_fingerprint",
]
