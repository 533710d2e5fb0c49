"""Tests for the dataset registry and the JF17K-style knowledge base."""

from __future__ import annotations

import pytest

from repro import HGMatch
from repro.datasets import (
    DATASET_ORDER,
    PAPER_PROFILES,
    SCALED_SPECS,
    SINGLE_THREAD_DATASETS,
    KBSpec,
    build_dataset,
    build_knowledge_base,
    dataset_names,
    dataset_spec,
    load_dataset,
    load_store,
    query_players_two_teams,
    query_recast_character,
)
from repro.datasets.jf17k import ACTOR, CHARACTER, MATCH, PLAYER, SEASON, TEAM, TVSHOW


class TestRegistry:
    def test_all_ten_datasets_present(self):
        assert dataset_names() == DATASET_ORDER
        assert len(DATASET_ORDER) == 10
        assert set(SCALED_SPECS) == set(PAPER_PROFILES) == set(DATASET_ORDER)

    def test_the_catalog_names_what_the_registries_build(self):
        """The CLI reads the names from ``repro.catalog``, which imports
        neither package: it must list what they actually hold."""
        from repro import catalog
        from repro.baselines import _REGISTRY

        assert catalog.DATASET_ORDER == tuple(SCALED_SPECS)
        assert catalog.BASELINE_NAMES == tuple(_REGISTRY)

    def test_single_thread_lineup_excludes_ar(self):
        assert "AR" not in SINGLE_THREAD_DATASETS
        assert len(SINGLE_THREAD_DATASETS) == 9

    def test_unknown_dataset_rejected(self):
        with pytest.raises(ValueError):
            dataset_spec("XX")

    def test_load_is_cached(self):
        assert load_dataset("HC") is load_dataset("HC")
        assert load_store("HC") is load_store("HC")

    def test_build_is_deterministic(self):
        spec = dataset_spec("CH")
        assert build_dataset(spec) == build_dataset(spec)

    @pytest.mark.parametrize("name", DATASET_ORDER)
    def test_scaled_shape_tracks_paper_profile(self, name):
        """The analogue preserves the paper profile's shape: alphabet size
        regime, arity bounds, and the vertex-rich vs edge-rich ratio."""
        graph = load_dataset(name)
        spec = SCALED_SPECS[name]
        paper = PAPER_PROFILES[name]
        assert graph.max_arity() <= spec.max_arity
        assert len(graph.label_alphabet()) <= spec.num_labels
        vertex_rich_paper = paper.num_vertices > paper.num_edges
        vertex_rich_scaled = graph.num_vertices > graph.num_edges
        assert vertex_rich_paper == vertex_rich_scaled


class TestKnowledgeBase:
    def test_schemas_present(self):
        kb = build_knowledge_base()
        signatures = {kb.edge_signature(e) for e in range(kb.num_edges)}
        assert tuple(sorted([PLAYER, TEAM, MATCH])) in signatures
        assert tuple(sorted([ACTOR, CHARACTER, TVSHOW, SEASON])) in signatures

    def test_queries_have_answers(self):
        kb = build_knowledge_base()
        engine = HGMatch(kb)
        assert engine.count(query_players_two_teams()) > 0
        assert engine.count(query_recast_character()) > 0

    def test_query_shapes_match_fig13(self):
        q1 = query_players_two_teams()
        assert q1.num_edges == 2
        assert q1.num_vertices == 5
        q2 = query_recast_character()
        assert q2.num_edges == 2
        assert q2.num_vertices == 6

    def test_answers_bind_distinct_teams(self):
        """Fig. 13a semantics: the two facts must use different teams
        (injectivity enforces it)."""
        kb = build_knowledge_base()
        engine = HGMatch(kb)
        query = query_players_two_teams()
        for embedding in engine.match(query):
            for mapping in embedding.vertex_mappings():
                assert mapping[1] != mapping[3]  # the two Team vertices
                break

    def test_kb_deterministic(self):
        assert build_knowledge_base() == build_knowledge_base()

    def test_custom_spec(self):
        small = build_knowledge_base(KBSpec(num_players=10, num_actors=5, seed=3))
        assert small.num_edges > 0
