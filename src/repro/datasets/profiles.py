"""Dataset profiles: the paper's Table II plus our scaled parameters.

:data:`PAPER_PROFILES` records the statistics the paper reports for its
ten real-world hypergraphs (house committees, MathOverflow answers,
contact high school, contact primary school, senate bills, house bills,
Walmart trips, Trivago clicks, StackOverflow answers, Amazon reviews).

Those corpora are unavailable offline, and pure-Python enumeration could
not process them at full size anyway, so :data:`SCALED_SPECS` defines a
synthetic analogue per dataset at roughly 1/20–1/2000 scale.  Each spec
preserves the *shape* that drives the experiments: the label-alphabet
size, the vertex/hyperedge ratio regime (vertex-rich MA/WT/TC/SA vs
edge-rich CH/CP/SB/HB), and a high or low mean arity (the paper's
speedups grow with arity).  Maximum arities are capped so that a single
hyperedge stays a tractable Python object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..catalog import DATASET_ORDER


@dataclass(frozen=True)
class PaperProfile:
    """One row of the paper's Table II."""

    name: str
    num_vertices: int
    num_edges: int
    num_labels: int
    max_arity: int
    average_arity: float
    index_size: str


@dataclass(frozen=True)
class ScaledSpec:
    """Generator parameters of one scaled synthetic analogue."""

    name: str
    num_vertices: int
    num_edges: int
    num_labels: int
    mean_arity: float
    max_arity: int
    seed: int
    degree_exponent: float = 0.8
    label_exponent: float = 1.0
    min_arity: int = 2


#: Table II of the paper, verbatim.
PAPER_PROFILES: Dict[str, PaperProfile] = {
    profile.name: profile
    for profile in (
        PaperProfile("HC", 1_290, 331, 2, 81, 34.8, "178KB"),
        PaperProfile("MA", 73_851, 5_444, 1_456, 1_784, 24.2, "2.1MB"),
        PaperProfile("CH", 327, 7_818, 9, 5, 2.3, "109KB"),
        PaperProfile("CP", 242, 12_704, 11, 5, 2.4, "190KB"),
        PaperProfile("SB", 294, 20_584, 2, 99, 8.0, "2.1MB"),
        PaperProfile("HB", 1_494, 52_960, 2, 399, 20.5, "15.5MB"),
        PaperProfile("WT", 88_860, 65_507, 11, 25, 6.6, "6.8MB"),
        PaperProfile("TC", 172_738, 212_483, 160, 85, 4.1, "7.8MB"),
        PaperProfile("SA", 15_211_989, 1_103_193, 56_502, 61_315, 23.7, "419.7MB"),
        PaperProfile("AR", 2_268_264, 4_239_108, 29, 9_350, 17.1, "998.6MB"),
    )
}

#: Scaled synthetic analogues.  Seeds fix each dataset forever.
SCALED_SPECS: Dict[str, ScaledSpec] = {
    spec.name: spec
    for spec in (
        # Small, very high arity, tiny alphabet (committees).
        ScaledSpec("HC", 260, 66, 2, 10.0, 20, seed=101, min_arity=4),
        # Vertex-rich, huge alphabet, high arity (MathOverflow).
        ScaledSpec("MA", 1_500, 120, 60, 7.0, 30, seed=102, min_arity=3),
        # Edge-rich contact networks: tiny arity, small alphabet.
        ScaledSpec("CH", 120, 1_500, 9, 2.3, 5, seed=103),
        ScaledSpec("CP", 100, 2_300, 11, 2.4, 5, seed=104),
        # Bill co-sponsorship: tiny alphabet, mid/high arity, edge-rich.
        ScaledSpec("SB", 90, 1_800, 2, 5.0, 18, seed=105),
        ScaledSpec("HB", 160, 2_400, 2, 7.0, 28, seed=106, min_arity=3),
        # Retail/click data: moderate arity and alphabet.
        ScaledSpec("WT", 1_700, 1_300, 11, 6.0, 18, seed=107),
        ScaledSpec("TC", 2_600, 3_200, 40, 4.1, 16, seed=108),
        # Vertex-rich, very large alphabet, high arity (StackOverflow).
        ScaledSpec("SA", 8_000, 650, 400, 7.0, 35, seed=109, min_arity=3),
        # The largest: Amazon reviews analogue used by the parallel
        # experiments (Exp-4/5/6).  Its label distribution is heavily
        # skewed (label_exponent 2.5) so that q3 workload queries carry
        # thousands of embeddings — the low-selectivity regime the
        # paper's parallel experiments exercise.
        ScaledSpec(
            "AR", 2_600, 4_800, 29, 4.0, 30, seed=110, label_exponent=2.5
        ),
    )
}


#: Datasets used in the single-thread comparison (all but AR — Exp-2).
SINGLE_THREAD_DATASETS: Tuple[str, ...] = DATASET_ORDER[:-1]
