"""Dataset registry: build-and-cache the ten scaled analogues.

``load_dataset("SB")`` returns the deterministic synthetic stand-in for
the paper's senate-bills hypergraph (see :mod:`repro.datasets.profiles`
for the substitution rationale); ``load_store`` additionally builds and
caches the partitioned index, so repeated benchmark invocations share
the offline preprocessing.
"""

from __future__ import annotations

import random
from typing import Dict, Tuple

from ..hypergraph import Hypergraph, PartitionedStore
from ..hypergraph.generators import generate_hypergraph
from .profiles import DATASET_ORDER, SCALED_SPECS, ScaledSpec

_GRAPH_CACHE: Dict[str, Hypergraph] = {}
_STORE_CACHE: Dict[str, PartitionedStore] = {}


def dataset_names() -> Tuple[str, ...]:
    """All dataset names in the paper's Table II order."""
    return DATASET_ORDER


def dataset_spec(name: str) -> ScaledSpec:
    """The scaled generator spec for ``name`` (KeyError-safe message)."""
    try:
        return SCALED_SPECS[name]
    except KeyError:
        raise ValueError(
            f"unknown dataset {name!r}; expected one of {list(DATASET_ORDER)}"
        ) from None


def build_dataset(spec: ScaledSpec) -> Hypergraph:
    """Generate the hypergraph for ``spec`` (deterministic in its seed)."""
    rng = random.Random(spec.seed)
    return generate_hypergraph(
        num_vertices=spec.num_vertices,
        num_edges=spec.num_edges,
        num_labels=spec.num_labels,
        mean_arity=spec.mean_arity,
        max_arity=spec.max_arity,
        rng=rng,
        degree_exponent=spec.degree_exponent,
        label_exponent=spec.label_exponent,
        min_arity=spec.min_arity,
    )


def load_dataset(name: str) -> Hypergraph:
    """Return (and cache) the scaled analogue named ``name``."""
    if name not in _GRAPH_CACHE:
        _GRAPH_CACHE[name] = build_dataset(dataset_spec(name))
    return _GRAPH_CACHE[name]


def load_store(name: str) -> PartitionedStore:
    """Return (and cache) the indexed store for dataset ``name``.

    This is the store behind the paper-figure benchmarks (Fig. 6-12,
    Table IV, the ablations), whose ``work_units`` — and the simulated
    executor's virtual clock with them — are stated in the paper's
    ``postings`` cost model: pinned to the ``merge`` backend, whatever
    the library default is.
    """
    if name not in _STORE_CACHE:
        _STORE_CACHE[name] = PartitionedStore(
            load_dataset(name), index_backend="merge"
        )
    return _STORE_CACHE[name]


def clear_caches() -> None:
    """Drop all cached datasets/stores (test isolation helper)."""
    _GRAPH_CACHE.clear()
    _STORE_CACHE.clear()
