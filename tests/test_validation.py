"""Unit tests for embedding validation (Algorithm 5, Theorem V.2)."""

from __future__ import annotations

from repro import Hypergraph
from repro.core.candidates import vertex_step_map
from repro.core.counters import MatchCounters
from repro.core.plan import build_execution_plan
from repro.core.validation import certify_embedding, is_valid_expansion


def validate(data, query, order, matched, candidate, counters=None):
    plan = build_execution_plan(query, order)
    step_plan = plan.steps[len(matched)]
    vmap = vertex_step_map(data, matched)
    return is_valid_expansion(
        data, step_plan, vmap, len(vmap), candidate, counters
    )


class TestFig1Validation:
    def test_true_embedding_accepted(self, fig1_data, fig1_query):
        assert validate(fig1_data, fig1_query, (0, 1, 2), (0, 2), 4)

    def test_wrong_final_edge_rejected(self, fig1_data, fig1_query):
        """e6 (0-based 5) closes the wrong branch for m=(e1,e3)."""
        assert not validate(fig1_data, fig1_query, (0, 1, 2), (0, 2), 5)


class TestExampleV2:
    """The paper's Fig. 4: profile multisets differ, so the candidate is
    rejected even though signatures and vertex counts agree."""

    def _instance(self):
        query = Hypergraph(
            ["B", "A", "A", "A", "A", "A"],
            [{0, 1, 2}, {3, 4, 5}, {2, 3, 4}],
        )
        data = Hypergraph(
            ["B", "A", "A", "A", "A", "A"],
            [{0, 1, 2}, {3, 4, 5}, {1, 2, 3}],
        )
        return query, data

    def test_vertex_count_check_passes(self):
        query, data = self._instance()
        plan = build_execution_plan(query, (0, 1, 2))
        vmap = vertex_step_map(data, (0, 1))
        new_vertices = sum(1 for v in data.edge(2) if v not in vmap)
        assert len(vmap) + new_vertices == plan.steps[2].expected_num_vertices

    def test_profile_mismatch_rejected(self):
        query, data = self._instance()
        assert not validate(data, query, (0, 1, 2), (0, 1), 2)

    def test_certify_agrees(self):
        query, data = self._instance()
        assert not certify_embedding(data, query, (0, 1, 2), (0, 1, 2))


class TestObservationV5:
    def test_vertex_count_mismatch_rejected(self):
        """A candidate reusing covered vertices fails Observation V.5."""
        data = Hypergraph(
            ["A", "A", "A", "A"],
            [{0, 1}, {1, 2}, {2, 3}, {0, 2}],
        )
        # Query: a path of three 2-ary edges over 4 distinct vertices.
        query = Hypergraph(["A", "A", "A", "A"], [{0, 1}, {1, 2}, {2, 3}])
        # Matching {0,1}→{0,1}, {1,2}→{1,2}; candidate {0,2} adds no new
        # vertex but the query expects one.
        assert not validate(data, query, (0, 1, 2), (0, 1), 3)
        assert validate(data, query, (0, 1, 2), (0, 1), 2)

    def test_counters_track_filtered(self, fig1_data, fig1_query):
        counters = MatchCounters()
        validate(fig1_data, fig1_query, (0, 1, 2), (0, 2), 4, counters)
        assert counters.filtered == 1


class TestCertifyEmbedding:
    def test_fig1_embeddings_certified(self, fig1_data, fig1_query):
        assert certify_embedding(fig1_data, fig1_query, (0, 1, 2), (0, 2, 4))
        assert certify_embedding(fig1_data, fig1_query, (0, 1, 2), (1, 3, 5))

    def test_cross_branch_rejected(self, fig1_data, fig1_query):
        assert not certify_embedding(
            fig1_data, fig1_query, (0, 1, 2), (0, 2, 5)
        )

    def test_duplicate_data_edges_rejected(self):
        """Two distinct query edges can never map to one data edge."""
        query = Hypergraph(["A", "A", "A"], [{0, 1}, {1, 2}])
        data = Hypergraph(["A", "A"], [{0, 1}])
        assert not certify_embedding(data, query, (0, 1), (0, 0))


class TestMaskProfileEquivalence:
    """``is_valid_expansion`` gives one verdict whether it is handed the
    partial's step bitmasks or derives them from ``vmap`` (the legacy
    ``step_tuples=`` argument is ignored)."""

    def _paths_agree(self, data, step_plan, vmap, candidate):
        step_masks = {
            v: sum(1 << s for s in steps) for v, steps in vmap.items()
        }
        vmap_path = is_valid_expansion(
            data, step_plan, vmap, len(vmap), candidate, step_tuples={},
        )
        mask_path = is_valid_expansion(
            data, step_plan, vmap, len(vmap), candidate,
            step_masks=step_masks,
        )
        assert vmap_path == mask_path
        return vmap_path

    def test_plan_carries_shared_key(self, fig1_query):
        """``shared_profile_key`` is the reference validator's full
        profile (``repro.testing.query_profile``) restricted to the
        vertices an earlier step covers, with this step's bit dropped."""
        from repro.testing import query_profile

        plan = build_execution_plan(fig1_query, (0, 1, 2))
        for step_plan in plan.steps:
            label_ids = step_plan.profile_label_ids
            profile = query_profile(plan.query, plan.order, step_plan.step)
            expected = sorted(
                (label_ids[label], sum(1 << s for s in steps if s != step_plan.step))
                for (label, steps), count in profile.items()
                for _ in range(count)
                if len(steps) > 1
            )
            assert list(step_plan.shared_profile_key) == expected
            assert step_plan.arity == sum(profile.values())

    def test_fig1_candidates_agree(self, fig1_data, fig1_query):
        plan = build_execution_plan(fig1_query, (0, 1, 2))
        for matched in ((0, 2), (1, 3)):
            vmap = vertex_step_map(fig1_data, matched)
            for candidate in range(fig1_data.num_edges):
                self._paths_agree(fig1_data, plan.steps[2], vmap, candidate)

    def test_random_instances_agree(self):
        import random

        from repro import HGMatch
        from repro.testing import make_random_instance

        rng = random.Random(555)
        trials = 0
        while trials < 10:
            instance = make_random_instance(rng)
            if instance is None:
                continue
            trials += 1
            data, query = instance
            engine = HGMatch(data)
            plan = engine.plan(query)
            stack = [()]
            while stack:
                matched = stack.pop()
                step_plan = plan.steps[len(matched)]
                vmap = vertex_step_map(data, matched)
                partition = engine.store.partition(step_plan.signature)
                if partition is not None:
                    for candidate in partition.edge_ids:
                        self._paths_agree(data, step_plan, vmap, candidate)
                for extended in engine.expand(plan, matched):
                    if len(extended) < plan.num_steps:
                        stack.append(extended)

    def test_engine_counts_agree_across_validation_paths(self):
        """Backend choice (and therefore validation path) never changes
        the count."""
        import random

        from repro import HGMatch
        from repro.testing import make_random_instance

        rng = random.Random(556)
        trials = 0
        while trials < 6:
            instance = make_random_instance(rng)
            if instance is None:
                continue
            trials += 1
            data, query = instance
            counts = {
                backend: HGMatch(data, index_backend=backend).count(query)
                for backend in ("merge", "bitset", "adaptive")
            }
            assert len(set(counts.values())) == 1, counts
