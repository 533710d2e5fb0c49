"""Synthetic analogues of the paper's datasets."""

from .jf17k import (
    KBSpec,
    build_knowledge_base,
    query_players_two_teams,
    query_recast_character,
)
from .profiles import (
    DATASET_ORDER,
    PAPER_PROFILES,
    SCALED_SPECS,
    SINGLE_THREAD_DATASETS,
    PaperProfile,
    ScaledSpec,
)
from .registry import (
    build_dataset,
    clear_caches,
    dataset_names,
    dataset_spec,
    load_dataset,
    load_store,
)

__all__ = [
    "DATASET_ORDER",
    "SINGLE_THREAD_DATASETS",
    "PAPER_PROFILES",
    "SCALED_SPECS",
    "PaperProfile",
    "ScaledSpec",
    "dataset_names",
    "dataset_spec",
    "build_dataset",
    "load_dataset",
    "load_store",
    "clear_caches",
    "KBSpec",
    "build_knowledge_base",
    "query_players_two_teams",
    "query_recast_character",
]
