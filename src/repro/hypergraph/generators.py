"""Synthetic labelled-hypergraph generators.

The paper evaluates on ten real-world hypergraphs (Table II).  Those
corpora are unavailable offline, so the dataset registry
(:mod:`repro.datasets`) synthesises scaled analogues with these
generators.  The generator family is a *labelled hypergraph configuration
model*:

* vertex degrees follow a truncated power law (real hypergraphs are
  heavy-tailed — Section VI-C motivates work stealing with exactly this);
* hyperedge arities follow a shifted geometric distribution clipped to a
  maximum, tuned to a target mean arity;
* labels are drawn from a Zipf-like distribution over an alphabet, so some
  labels are frequent and some rare, which is what makes the signature
  partitioning selective in interesting ways.

All generators take an explicit :class:`random.Random` instance so every
dataset and benchmark is reproducible from a seed.
"""

from __future__ import annotations

import random
from itertools import accumulate
from typing import List, Sequence

from ..errors import HypergraphError
from .hypergraph import Hypergraph


def zipf_weights(count: int, exponent: float) -> List[float]:
    """Weights ``1/rank^exponent`` for ranks ``1..count`` (unnormalised)."""
    return [1.0 / (rank**exponent) for rank in range(1, count + 1)]


def sample_labels(
    num_vertices: int,
    num_labels: int,
    rng: random.Random,
    exponent: float = 1.0,
) -> List[int]:
    """Assign each vertex a label drawn Zipf(``exponent``) over ``num_labels``.

    Every label in the alphabet is used at least once when
    ``num_vertices >= num_labels`` (the first occurrence of each label is
    forced), matching the paper's datasets where ``|Σ|`` counts labels in
    use.
    """
    if num_labels <= 0:
        raise HypergraphError("num_labels must be positive")
    weights = zipf_weights(num_labels, exponent)
    labels = rng.choices(range(num_labels), weights=weights, k=num_vertices)
    if num_vertices >= num_labels:
        # Force the full alphabet to appear.
        positions = rng.sample(range(num_vertices), num_labels)
        for label, position in enumerate(positions):
            labels[position] = label
    return labels


def sample_arity(
    mean_arity: float,
    max_arity: int,
    rng: random.Random,
    min_arity: int = 2,
) -> int:
    """Draw a hyperedge arity with roughly the requested mean.

    Uses ``min_arity`` plus a geometric tail, clipped at ``max_arity``.
    The geometric success probability is chosen so the unclipped mean is
    ``mean_arity``; the benchmark tables report the *measured* mean, so
    slight clipping bias is acceptable.
    """
    if max_arity < min_arity:
        raise HypergraphError("max_arity must be >= min_arity")
    excess_mean = max(mean_arity - min_arity, 1e-9)
    success = 1.0 / (1.0 + excess_mean)
    extra = 0
    # Inverse-transform sampling of a geometric distribution.
    roll = rng.random()
    probability = success
    cumulative = probability
    while roll > cumulative and extra < max_arity - min_arity:
        extra += 1
        probability *= 1.0 - success
        cumulative += probability
    return min(min_arity + extra, max_arity)


def generate_hypergraph(
    num_vertices: int,
    num_edges: int,
    num_labels: int,
    mean_arity: float,
    max_arity: int,
    rng: random.Random,
    degree_exponent: float = 0.8,
    label_exponent: float = 1.0,
    min_arity: int = 2,
) -> Hypergraph:
    """Generate a labelled configuration-model hypergraph.

    Parameters mirror the columns of Table II: vertex count, hyperedge
    count, alphabet size, mean arity and maximum arity.  Duplicate edges
    produced by the sampler are removed by the :class:`Hypergraph`
    constructor (the paper applies the same preprocessing), so the edge
    count of the result can be slightly below ``num_edges``.
    """
    if num_vertices <= 0 or num_edges < 0:
        raise HypergraphError("vertex and edge counts must be positive")
    max_arity = min(max_arity, num_vertices)
    min_arity = min(min_arity, max_arity)

    labels = sample_labels(num_vertices, num_labels, rng, exponent=label_exponent)
    # Heavy-tailed vertex popularity: vertex v is picked into edges with
    # probability proportional to 1/(rank)^degree_exponent after a random
    # shuffle of ranks (so popular vertices are spread over the id space).
    ranks = list(range(1, num_vertices + 1))
    rng.shuffle(ranks)
    # Accumulated once per graph: ``rng.choices(weights=w)`` would redo
    # this O(|V|) sum on every call, the same ``cum_weights`` each time.
    cumulative = list(
        accumulate(1.0 / (rank**degree_exponent) for rank in ranks)
    )

    edges: List[List[int]] = []
    for _ in range(num_edges):
        arity = sample_arity(mean_arity, max_arity, rng, min_arity=min_arity)
        arity = min(arity, num_vertices)
        members = _weighted_sample_without_replacement(
            num_vertices, cumulative, arity, rng
        )
        edges.append(members)
    return Hypergraph(labels, edges)


def _weighted_sample_without_replacement(
    population_size: int,
    cum_weights: Sequence[float],
    sample_size: int,
    rng: random.Random,
) -> List[int]:
    """Sample ``sample_size`` distinct indices, each first drawn with
    probability ∝ its weight (``cum_weights`` is their running sum).

    Draws a with-replacement pool of ``max(4k, 16)`` indices and keeps
    the first ``k`` distinct ones in draw order, drawing further pools
    in the rare case the first holds fewer than ``k``.  Each draw is a
    bisection of ``cum_weights``, so an edge costs O(k log n) — the
    caller accumulates the weights once per graph, not once per edge.
    """
    if sample_size >= population_size:
        return list(range(population_size))
    population = range(population_size)
    pool_size = max(sample_size * 4, 16)
    pool = rng.choices(population, cum_weights=cum_weights, k=pool_size)
    distinct = list(dict.fromkeys(pool))
    while len(distinct) < sample_size:
        distinct.extend(
            v
            for v in rng.choices(population, cum_weights=cum_weights, k=pool_size)
            if v not in distinct
        )
    return distinct[:sample_size]


def generate_planted_hypergraph(
    base: Hypergraph,
    pattern: Hypergraph,
    copies: int,
    rng: random.Random,
) -> Hypergraph:
    """Return ``base`` with ``copies`` disjoint copies of ``pattern`` planted.

    Each copy introduces fresh vertices carrying the pattern's labels and
    adds all pattern hyperedges over them, guaranteeing at least
    ``copies`` embeddings of ``pattern`` (useful for tests that need a
    known lower bound on the result count).
    """
    labels = list(base.labels)
    edges: List[List[int]] = [sorted(edge) for edge in base.edges]
    for _ in range(copies):
        offset = len(labels)
        labels.extend(pattern.labels)
        for edge in pattern.edges:
            edges.append([offset + v for v in edge])
    graph = Hypergraph(labels, edges)
    del rng  # reserved for future randomised overlap planting
    return graph


def generate_uniform_hypergraph(
    num_vertices: int,
    num_edges: int,
    arity: int,
    num_labels: int,
    rng: random.Random,
) -> Hypergraph:
    """Generate an ``arity``-uniform hypergraph with uniform label draws.

    Simpler sibling of :func:`generate_hypergraph` used by property tests
    where heavy tails would only slow hypothesis down.
    """
    if arity > num_vertices:
        raise HypergraphError("arity cannot exceed the vertex count")
    labels = [rng.randrange(num_labels) for _ in range(num_vertices)]
    edges = [rng.sample(range(num_vertices), arity) for _ in range(num_edges)]
    return Hypergraph(labels, edges)


def random_connected_hypergraph(
    num_vertices: int,
    num_edges: int,
    num_labels: int,
    max_arity: int,
    rng: random.Random,
) -> Hypergraph:
    """Generate a *connected* random hypergraph.

    Builds a spanning chain of hyperedges first (each new edge shares at
    least one vertex with the already-connected region), then adds the
    remaining edges at random.  Used for query-shaped inputs in tests.
    """
    if num_vertices <= 0:
        raise HypergraphError("num_vertices must be positive")
    labels = [rng.randrange(num_labels) for _ in range(num_vertices)]
    edges: List[List[int]] = []
    connected = {0}
    remaining = [v for v in range(1, num_vertices)]
    rng.shuffle(remaining)
    while remaining or len(edges) < num_edges:
        anchor = rng.choice(sorted(connected))
        budget = min(max_arity - 1, max(1, len(remaining)))
        take = rng.randint(1, budget) if remaining else 0
        fresh = [remaining.pop() for _ in range(min(take, len(remaining)))]
        others_pool = sorted(connected - {anchor})
        extra_count = rng.randint(0, min(max_arity - 1 - len(fresh), len(others_pool)))
        extras = rng.sample(others_pool, extra_count) if extra_count else []
        members = [anchor] + fresh + extras
        if len(members) < 2 and len(connected) > 1:
            members.append(rng.choice([v for v in others_pool if v != anchor]))
        edges.append(members)
        connected.update(members)
        if len(edges) >= num_edges and not remaining:
            break
    return Hypergraph(labels, edges)


def perturb_labels(
    graph: Hypergraph, flips: int, num_labels: int, rng: random.Random
) -> Hypergraph:
    """Return a copy of ``graph`` with ``flips`` random vertex labels changed.

    Handy for negative tests: a query whose labels were perturbed usually
    stops matching.
    """
    labels = list(graph.labels)
    for _ in range(flips):
        vertex = rng.randrange(graph.num_vertices)
        labels[vertex] = rng.randrange(num_labels)
    return Hypergraph(labels, [sorted(edge) for edge in graph.edges])
