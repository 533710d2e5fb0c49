"""Question answering over a hypergraph knowledge base (paper §VII-D).

Rebuilds the paper's case study on a synthetic JF17K-style knowledge
hypergraph: non-binary facts like (Player, Team, Match) and
(Actor, Character, TVShow, Season) are hyperedges over typed entity
vertices, and natural-language questions become query hypergraphs.

Question 1: "Which football players represented different teams in
different matches?"            (Fig. 13a)
Question 2: "Which actors played the same character in a TV show on
different seasons?"            (Fig. 13b)

Run with:  python examples/knowledge_base_qa.py
"""

from __future__ import annotations

from collections import Counter

from repro import HGMatch
from repro.datasets import (
    build_knowledge_base,
    query_players_two_teams,
    query_recast_character,
)


def main() -> None:
    kb = build_knowledge_base()
    engine = HGMatch(kb)
    print("Knowledge base:", kb)
    print("Fact schemas:", sorted({s for s in kb.edge_signatures()})[:4], "...")

    # ------------------------------------------------------------------
    question1 = query_players_two_teams()
    print("\nQ1: players who represented different teams in different matches")
    count1 = engine.count(question1)
    print(f"   {count1} embeddings (the paper reports 111 on real JF17K)")

    # Show a few concrete answers, like the paper's Óscar Cardozo example.
    print("   sample answers (player, team-a/match-a, team-b/match-b):")
    for embedding in list(engine.match(question1))[:3]:
        binding = next(embedding.vertex_mappings())
        player, team_a, match_a, team_b, match_b = (
            binding[0], binding[1], binding[2], binding[3], binding[4],
        )
        print(
            f"     player#{player}: team#{team_a} in match#{match_a}"
            f" vs team#{team_b} in match#{match_b}"
        )

    # Aggregation (the paper's future-work operator): answers per player.
    groups = Counter(
        min(kb.edge(embedding.edge_ids[0]) & kb.edge(embedding.edge_ids[1]))
        for embedding in engine.match(question1)
    )
    busiest = groups.most_common(3)
    print("   players with the most transfer pairs:", busiest)

    # ------------------------------------------------------------------
    question2 = query_recast_character()
    print("\nQ2: actors who played the same character across seasons")
    count2 = engine.count(question2)
    print(f"   {count2} embeddings (the paper reports 76 on real JF17K)")
    for embedding in list(engine.match(question2))[:3]:
        binding = next(embedding.vertex_mappings())
        character, show = binding[0], binding[1]
        actor_a, season_a = binding[2], binding[3]
        actor_b, season_b = binding[4], binding[5]
        print(
            f"     character#{character} on show#{show}: "
            f"actor#{actor_a} (season#{season_a}) -> "
            f"actor#{actor_b} (season#{season_b})"
        )


if __name__ == "__main__":
    main()
