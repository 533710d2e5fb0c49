"""Unit tests for execution-plan precomputation."""

from __future__ import annotations

from collections import Counter

from repro.core.plan import build_execution_plan
from repro.testing import query_profile


class TestStepPlans:
    def test_paper_order_structure(self, fig1_query):
        """Order (0, 1, 2) = ({u2,u4}, {u0,u1,u2}, {u0,u1,u3,u4})."""
        plan = build_execution_plan(fig1_query, (0, 1, 2))
        assert plan.num_steps == 3

        step0, step1, step2 = plan.steps
        assert step0.signature == ("A", "B")
        assert step0.adjacent_prev == ()
        assert step0.anchors == ()
        assert step0.expected_num_vertices == 2

        assert step1.signature == ("A", "A", "C")
        assert step1.adjacent_prev == (0,)
        assert step1.nonadjacent_prev == ()
        # Shared vertex u2; its degree in the partial query before this
        # step is 1 (only edge 0).
        assert [(a.query_vertex, a.required_degree) for a in step1.anchors] == [
            (2, 1)
        ]
        assert step1.expected_num_vertices == 4

        assert step2.signature == ("A", "A", "B", "C")
        assert set(step2.adjacent_prev) == {0, 1}
        # u4 from edge 0 (degree 1), u0 and u1 from edge 1 (degree 1 each).
        anchor_vertices = sorted(a.query_vertex for a in step2.anchors)
        assert anchor_vertices == [0, 1, 4]
        assert step2.expected_num_vertices == 5

    def test_query_profiles(self, fig1_query):
        """The reference validator's full profiles (the plan keeps only
        their shared-vertex projection)."""
        order = (0, 1, 2)
        # Step 0 profile: u2 is in steps {0,1} later, but at step 0 only
        # incidence up to step 0 counts.
        assert query_profile(fig1_query, order, 0) == Counter(
            {("A", frozenset({0})): 1, ("B", frozenset({0})): 1}
        )
        # Step 2 ({u0,u1,u3,u4}): u0 in steps 1,2; u1 in 1,2; u3 in 2; u4
        # in 0,2.
        assert query_profile(fig1_query, order, 2) == Counter(
            {
                ("A", frozenset({1, 2})): 1,
                ("C", frozenset({1, 2})): 1,
                ("A", frozenset({2})): 1,
                ("B", frozenset({0, 2})): 1,
            }
        )

    def test_nonadjacent_prev(self):
        from repro import Hypergraph

        query = Hypergraph(
            ["A", "A", "A", "A", "A"],
            [{0, 1}, {1, 2}, {3, 4, 2}],
        )
        # Under order (0, 1, 2), step 2 ({2,3,4}) is adjacent to step 1
        # but not step 0.
        plan = build_execution_plan(query, (0, 1, 2))
        assert plan.steps[2].adjacent_prev == (1,)
        assert plan.steps[2].nonadjacent_prev == (0,)

    def test_the_order_walk_covers_all_vertices(self, fig1_query):
        """What the engine reads connectivity off: a connected order's
        last step has seen every query vertex."""
        plan = build_execution_plan(fig1_query, (0, 1, 2))
        assert [s.expected_num_vertices for s in plan.steps] == [2, 4, 5]

    def test_records_are_immutable_and_pickle(self, fig1_query):
        import pickle

        import pytest

        plan = build_execution_plan(fig1_query, (0, 1, 2))
        with pytest.raises(AttributeError):
            plan.steps[0].step = 1
        with pytest.raises(AttributeError):
            plan.order = (2, 1, 0)
        assert pickle.loads(pickle.dumps(plan)) == plan

    def test_describe_mentions_operators(self, fig1_query):
        plan = build_execution_plan(fig1_query, (0, 1, 2))
        text = plan.describe()
        assert "SCAN" in text
        assert "EXPAND" in text
        assert "SINK" in text
