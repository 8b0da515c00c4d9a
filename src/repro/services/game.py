"""Multiplayer games: the server portion of the game application.

A per-neighbourhood game lobby (players in a neighbourhood share a
replica, so they can actually play each other).  Game state is volatile
and recovered *from the clients* -- the third recovery technique of
section 9.4: each settop holds its own view and simply rejoins after a
service restart, re-supplying its player state.

The game itself is a simple shared-count guessing game -- enough state
to make recovery observable without inventing content the paper does not
describe.
"""

from __future__ import annotations

from typing import Dict

from repro.idl import register_exception, register_interface
from repro.ocs.runtime import CallContext
from repro.services.base import Service

register_interface("Game", {
    "join": ("game_id", "player", "score"),
    "leave": ("game_id", "player"),
    "guess": ("game_id", "player", "number"),
    "gameState": ("game_id",),
    # join/leave/guess mutate scores and membership: a replayed guess
    # must not score twice, so they stay under at-most-once dedup.
}, doc="Multiplayer game server (section 3)",
   idempotent=("gameState",))


@register_exception
class NotInGame(Exception):
    """A move from a player who has not joined (e.g. after a restart)."""


class GameService(Service):
    service_name = "game"
    ADMISSION_CONTROLLED = True

    def __init__(self, env, process):
        super().__init__(env, process)
        self._games: Dict[str, dict] = {}

    async def start(self) -> None:
        self.ref = self.runtime.export(self, "Game")
        await self.register_objects([self.ref])
        await self.bind_per_neighborhood("game", self.ref)

    def _game(self, game_id: str) -> dict:
        if game_id not in self._games:
            rng = self.env.rng.stream(f"game-{game_id}")
            self._games[game_id] = {
                "target": rng.randint(1, 100),
                "players": {},           # player -> score
                "rounds": 0,
            }
        return self._games[game_id]

    def join(self, ctx: CallContext, game_id: str, player: str,
             score: int) -> dict:
        game = self._game(game_id)
        # Rejoin after a service restart restores the client-held score.
        game["players"][player] = max(game["players"].get(player, 0), score)
        return self.state(game_id)

    def leave(self, ctx: CallContext, game_id: str, player: str) -> None:
        game = self._games.get(game_id)
        if game is not None:
            game["players"].pop(player, None)
            if not game["players"]:
                del self._games[game_id]

    def guess(self, ctx: CallContext, game_id: str, player: str,
              number: int) -> dict:
        game = self._game(game_id)
        if player not in game["players"]:
            raise NotInGame(f"{player} must join {game_id} first")
        game["rounds"] += 1
        target = game["target"]
        if number == target:
            game["players"][player] += 1
            rng = self.env.rng.stream(f"game-{game_id}")
            game["target"] = rng.randint(1, 100)
            result = "correct"
        elif number < target:
            result = "higher"
        else:
            result = "lower"
        return {"result": result, "state": self.state(game_id)}

    def gameState(self, ctx: CallContext, game_id: str) -> dict:
        return self.state(game_id)

    def state(self, game_id: str) -> dict:
        game = self._game(game_id)
        return {"players": dict(game["players"]), "rounds": game["rounds"]}
