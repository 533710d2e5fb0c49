"""The differential mutation oracle.

Seeded random mutation schedules (interleaved inserts / deletes /
vertex adds) are driven against an incrementally maintained engine and
a from-scratch rebuild of the mutated graph's frozen snapshot.  The
rebuild *is* the oracle: counts must be bit-identical after every step,
on every index backend, under every executor.

Every assertion message carries the seed, so any failure is replayable
with::

    rng = random.Random(seed)
    data, query, _ = make_mutable_instance(rng)
    schedule = random_mutation_schedule(rng, data, steps=STEPS)

and shrinkable to a minimal prefix with
:func:`repro.testing.shrink_mutation_schedule`.

``REPRO_MUTATION_SCHEDULES`` scales the sequential sweep (default 51
per backend — the full acceptance bar; CI's mutation-smoke job runs a
reduced count).
"""

import os
import random

import pytest

import repro.testing
from repro.hypergraph import INDEX_BACKENDS
from repro.testing import (
    make_mutable_instance,
    random_mutation_schedule,
    run_mutation_differential,
    shrink_mutation_schedule,
)

NUM_SCHEDULES = int(os.environ.get("REPRO_MUTATION_SCHEDULES", "51"))
STEPS = 5


def prepared_schedule(seed, steps=STEPS):
    """The replayable (data, query, schedule) for ``seed``, or None."""
    rng = random.Random(seed)
    instance = make_mutable_instance(rng)
    if instance is None:
        return None
    data, query, _ = instance
    return data, query, random_mutation_schedule(rng, data, steps=steps)


def sweep(backend, executor, num_schedules, first_seed=0, steps=STEPS):
    """Run ``num_schedules`` seeded schedules; return failure reports.

    Seeds are consumed in order starting at ``first_seed``; instances
    whose sampling failed are skipped without burning a schedule slot,
    so every run checks exactly ``num_schedules`` real schedules.
    """
    failures = []
    checked = 0
    seed = first_seed
    while checked < num_schedules:
        prepared = prepared_schedule(seed, steps=steps)
        seed += 1
        if prepared is None:
            continue
        data, query, schedule = prepared
        divergence = run_mutation_differential(
            data, query, schedule, index_backend=backend, executor=executor
        )
        if divergence is not None:
            prefix, located = shrink_mutation_schedule(
                data, query, schedule,
                index_backend=backend, executor=executor,
            )
            failures.append(
                {
                    "seed": seed - 1,
                    "divergence": located,
                    "minimal_prefix_len": len(prefix),
                }
            )
        checked += 1
    return failures


@pytest.mark.parametrize("backend", INDEX_BACKENDS)
def test_oracle_sequential(backend):
    failures = sweep(backend, executor=None, num_schedules=NUM_SCHEDULES)
    assert not failures, (
        f"mutation oracle diverged (backend={backend}, executor=None); "
        f"replay with these seeds: {failures}"
    )


@pytest.mark.parametrize("backend", INDEX_BACKENDS)
def test_oracle_threads(backend):
    failures = sweep(
        backend, executor="threads", num_schedules=3, first_seed=100, steps=4
    )
    assert not failures, (
        f"mutation oracle diverged (backend={backend}, executor=threads); "
        f"replay with these seeds: {failures}"
    )


@pytest.mark.parametrize("backend", INDEX_BACKENDS)
def test_oracle_processes(backend):
    failures = sweep(
        backend, executor="processes", num_schedules=2,
        first_seed=200, steps=3,
    )
    assert not failures, (
        f"mutation oracle diverged (backend={backend}, "
        f"executor=processes); replay with these seeds: {failures}"
    )


@pytest.mark.parametrize("backend", INDEX_BACKENDS)
def test_oracle_sockets(backend):
    # The pool's members are loopback socket peers; this sweep drives a
    # second block of schedules through their SUBTREE/MUTATE frames.
    failures = sweep(
        backend, executor="processes", num_schedules=2,
        first_seed=300, steps=3,
    )
    assert not failures, (
        f"mutation oracle diverged (backend={backend}, executor=processes, "
        f"socket pool); replay with these seeds: {failures}"
    )


# ---------------------------------------------------------------------------
# The shrinker itself
# ---------------------------------------------------------------------------

def test_shrinker_finds_minimal_failing_prefix(monkeypatch):
    """Bisection must land on the exact shortest failing prefix.

    The runner is faked: prefixes of length >= 4 "diverge at step 3",
    shorter ones pass — so the minimal reproducer has length 4 and the
    reported divergence is the fake's triple.
    """
    calls = []

    def fake_runner(data, query, prefix, **kwargs):
        calls.append(len(prefix))
        return (3, 7, 9) if len(prefix) >= 4 else None

    monkeypatch.setattr(
        repro.testing, "run_mutation_differential", fake_runner
    )
    schedule = list(range(10))  # opaque to the fake
    prefix, divergence = shrink_mutation_schedule(None, None, schedule)
    assert len(prefix) == 4
    assert prefix == schedule[:4]
    assert divergence == (3, 7, 9)
    # Bisection, not a linear scan: far fewer probes than prefixes.
    assert len(calls) <= 6


def test_shrinker_rejects_passing_schedule(monkeypatch):
    monkeypatch.setattr(
        repro.testing,
        "run_mutation_differential",
        lambda *args, **kwargs: None,
    )
    with pytest.raises(ValueError):
        shrink_mutation_schedule(None, None, [1, 2, 3])


def test_shrinker_single_step_failure(monkeypatch):
    """A schedule failing on its very first step shrinks to length 1."""
    monkeypatch.setattr(
        repro.testing,
        "run_mutation_differential",
        lambda data, query, prefix, **kwargs: (0, 1, 2) if prefix else None,
    )
    prefix, divergence = shrink_mutation_schedule(None, None, [5, 6, 7])
    assert prefix == [5]
    assert divergence == (0, 1, 2)


def test_schedules_are_reproducible():
    """Same seed, same schedule — the replay contract behind the logged
    seeds in every oracle assertion."""
    first = prepared_schedule(17)
    second = prepared_schedule(17)
    assert first is not None and second is not None
    assert first[2] == second[2]
