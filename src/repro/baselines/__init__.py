"""Extended match-by-vertex baselines (Section III-B and VII-A).

The paper compares HGMatch against the state-of-the-art subgraph
matching algorithms CFL, DAF and CECI — extended to hypergraphs via the
generic backtracking framework with the Theorem III.2 constraint and the
IHS candidate filter — and against RapidMatch on bipartite conversions.
:func:`make_baseline` builds any of them by name; :data:`BASELINE_NAMES`
lists the benchmark line-up.
"""

from ..catalog import BASELINE_NAMES
from ..hypergraph import Hypergraph
from .bipartite import BipartiteGraph, convert, inflation_factor
from .ceci import CECIHMatcher
from .cfl import CFLHMatcher
from .daf import DAFHMatcher
from .filters import VertexStatistics, ihs_candidates, ldf_candidates
from .framework import BaselineResult, VertexBacktrackingMatcher, brute_force
from .rapidmatch import RapidMatchHMatcher


_REGISTRY = {
    "CFL-H": CFLHMatcher,
    "DAF-H": DAFHMatcher,
    "CECI-H": CECIHMatcher,
    "RapidMatch-H": RapidMatchHMatcher,
}


def make_baseline(name: str, data: Hypergraph, store=None):
    """Instantiate a baseline matcher by its paper name.

    ``store`` (a :class:`repro.hypergraph.PartitionedStore` over
    ``data``, e.g. shared with an HGMatch engine) lets the backtracking
    baselines run their IHS signature-containment pruning over the
    store's posting masks; RapidMatch-H operates on bipartite
    conversions and ignores it.
    """
    try:
        matcher_class = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown baseline {name!r}; expected one of {sorted(_REGISTRY)}"
        ) from None
    if name == "RapidMatch-H":
        return matcher_class(data)
    return matcher_class(data, store=store)


__all__ = [
    "BASELINE_NAMES",
    "make_baseline",
    "VertexBacktrackingMatcher",
    "BaselineResult",
    "brute_force",
    "CFLHMatcher",
    "DAFHMatcher",
    "CECIHMatcher",
    "RapidMatchHMatcher",
    "BipartiteGraph",
    "convert",
    "inflation_factor",
    "ihs_candidates",
    "ldf_candidates",
    "VertexStatistics",
]
