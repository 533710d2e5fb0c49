"""A synthetic JF17K-style knowledge hypergraph (case study, §VII-D).

The paper's case study runs question answering over JF17K — non-binary
facts extracted from Freebase — using two relation schemas it quotes:

* ``(Player, Team, Match)`` — a football player played a match for a
  team;
* ``(Actor, Character, TVShow, Season)`` — an actor played a character
  in a TV show during a season.

This module synthesises a typed knowledge hypergraph with those schemas:
entities are vertices labelled by type, each fact is one hyperedge.  The
generator plants the phenomena the two case-study queries look for —
players who represented *different* teams in different matches, and
characters recast between seasons of the same show — so the queries
return non-trivial answer sets, like the 111 and 76 embeddings the
paper reports.

:func:`query_players_two_teams` and :func:`query_recast_character`
build the query hypergraphs of Fig. 13a/13b.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Tuple

from ..hypergraph import Hypergraph, HypergraphBuilder

PLAYER, TEAM, MATCH = "Player", "Team", "Match"
ACTOR, CHARACTER, TVSHOW, SEASON = "Actor", "Character", "TVShow", "Season"


@dataclass(frozen=True)
class KBSpec:
    """Size knobs of the synthetic knowledge base."""

    num_players: int = 140
    num_teams: int = 24
    num_matches: int = 60
    plays_per_player: Tuple[int, int] = (1, 4)
    #: Fraction of players deliberately given facts with ≥ 2 distinct teams.
    transfer_fraction: float = 0.18

    num_actors: int = 90
    num_characters: int = 60
    num_shows: int = 25
    num_seasons: int = 8
    roles_per_actor: Tuple[int, int] = (1, 3)
    #: Fraction of characters recast across seasons of the same show.
    recast_fraction: float = 0.40

    seed: int = 1717


def build_knowledge_base(spec: "KBSpec | None" = None) -> Hypergraph:
    """Generate the typed knowledge hypergraph."""
    spec = spec if spec is not None else KBSpec()
    rng = random.Random(spec.seed)
    builder = HypergraphBuilder()

    players = [builder.add_vertex(PLAYER, key=("p", i)) for i in range(spec.num_players)]
    teams = [builder.add_vertex(TEAM, key=("t", i)) for i in range(spec.num_teams)]
    matches = [builder.add_vertex(MATCH, key=("m", i)) for i in range(spec.num_matches)]

    for index, player in enumerate(players):
        fact_count = rng.randint(*spec.plays_per_player)
        transfer = rng.random() < spec.transfer_fraction and fact_count >= 2
        if transfer:
            chosen_teams = rng.sample(teams, min(fact_count, len(teams)))
        else:
            chosen_teams = [rng.choice(teams)] * fact_count
        chosen_matches = rng.sample(matches, min(fact_count, len(matches)))
        for team, match in zip(chosen_teams, chosen_matches):
            builder.add_edge([player, team, match])

    actors = [builder.add_vertex(ACTOR, key=("a", i)) for i in range(spec.num_actors)]
    characters = [
        builder.add_vertex(CHARACTER, key=("c", i)) for i in range(spec.num_characters)
    ]
    shows = [builder.add_vertex(TVSHOW, key=("s", i)) for i in range(spec.num_shows)]
    seasons = [
        builder.add_vertex(SEASON, key=("se", i)) for i in range(spec.num_seasons)
    ]

    for character in characters:
        show = rng.choice(shows)
        recast = rng.random() < spec.recast_fraction
        cast_size = 2 if recast else 1
        cast = rng.sample(actors, cast_size)
        season_pool = rng.sample(seasons, min(cast_size + 1, len(seasons)))
        for which, actor in enumerate(cast):
            builder.add_edge([actor, character, show, season_pool[which]])
    # A few extra roles so actors have unrelated facts too.
    for actor in actors:
        extra = rng.randint(0, spec.roles_per_actor[1] - 1)
        for _ in range(extra):
            builder.add_edge(
                [
                    actor,
                    rng.choice(characters),
                    rng.choice(shows),
                    rng.choice(seasons),
                ]
            )
    return builder.build()


def query_players_two_teams() -> Hypergraph:
    """Fig. 13a: players who represented different teams in different
    matches — two (Player, Team, Match) facts sharing only the player."""
    return Hypergraph(
        labels=[PLAYER, TEAM, MATCH, TEAM, MATCH],
        edges=[{0, 1, 2}, {0, 3, 4}],
    )


def query_recast_character() -> Hypergraph:
    """Fig. 13b: actors who played the same character in a TV show on
    different seasons — two (Actor, Character, TVShow, Season) facts
    sharing the character and the show."""
    return Hypergraph(
        labels=[CHARACTER, TVSHOW, ACTOR, SEASON, ACTOR, SEASON],
        edges=[{0, 1, 2, 3}, {0, 1, 4, 5}],
    )
