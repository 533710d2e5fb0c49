"""HGMatch core: the match-by-hyperedge framework (Sections IV–V).

Public entry point is :class:`HGMatch` — construct it over a data
hypergraph (offline indexing happens there) and call ``match`` /
``count``.  The submodules expose the individual algorithms for direct
use and for the ablation benchmarks: matching order (Algorithm 3),
candidate generation (Algorithm 4), profile validation (Algorithm 5) and
the vertex-mapping expansion.
"""

from .candidates import (
    AnchorUnionMemo,
    CandidateSet,
    ChunkCandidates,
    MaskCandidates,
    TupleCandidates,
    VertexStepState,
    generate_candidate_set,
    generate_candidates,
    vertex_step_map,
    vertex_step_masks,
    vertex_step_tuples,
)
from .counters import WORK_UNIT_MODELS, MatchCounters
from .engine import Embedding, HGMatch
from .estimation import (
    PlanEstimate,
    StepEstimate,
    compare_orders,
    estimate_driven_order,
    estimate_order,
    explain,
)
from .expansion import (
    count_vertex_mappings,
    data_profile_classes,
    iter_vertex_mappings,
    query_profile_classes,
)
from .ordering import compute_matching_order, is_connected_order
from .plan import AnchorRequirement, ExecutionPlan, StepPlan, build_execution_plan
from .validation import (
    certify_embedding,
    is_valid_expansion,
    validate_candidate_set,
    validate_candidates,
    validate_mask,
)

__all__ = [
    "HGMatch",
    "Embedding",
    "MatchCounters",
    "ExecutionPlan",
    "StepPlan",
    "AnchorRequirement",
    "build_execution_plan",
    "compute_matching_order",
    "is_connected_order",
    "generate_candidates",
    "generate_candidate_set",
    "CandidateSet",
    "TupleCandidates",
    "MaskCandidates",
    "ChunkCandidates",
    "AnchorUnionMemo",
    "WORK_UNIT_MODELS",
    "vertex_step_map",
    "vertex_step_masks",
    "vertex_step_tuples",
    "VertexStepState",
    "is_valid_expansion",
    "validate_candidates",
    "validate_mask",
    "validate_candidate_set",
    "certify_embedding",
    "iter_vertex_mappings",
    "count_vertex_mappings",
    "query_profile_classes",
    "data_profile_classes",
    "PlanEstimate",
    "StepEstimate",
    "estimate_order",
    "estimate_driven_order",
    "compare_orders",
    "explain",
]
