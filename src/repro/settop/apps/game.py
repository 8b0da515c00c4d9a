"""The settop multiplayer-game application (section 3).

Holds its own score so a restarted game service recovers state *from the
clients* (section 9.4's third technique): on :class:`NotInGame` the app
simply rejoins with the locally held score.
"""

from __future__ import annotations

from repro.ocs.exceptions import OCSError
from repro.services.game import NotInGame
from repro.settop.apps.base import SettopApp


class GameApp(SettopApp):
    name = "game"

    def __init__(self, am, process):
        super().__init__(am, process)
        self.game = None
        self.game_id = f"lobby-{am.boot_params['neighborhood']}"
        self.player = f"player@{self.host.ip}"
        self.score = 0
        self.rejoins = 0

    async def start(self) -> None:
        self.game = self.proxy("svc/game")
        await self.join()

    async def join(self) -> dict:
        state = await self.game.call("join", self.game_id, self.player,
                                     self.score)
        self.emit("joined", game=self.game_id)
        return state

    async def play_round(self, number: int) -> dict:
        """One guess; transparently rejoins if the service lost us."""
        while True:
            try:
                outcome = await self.game.call("guess", self.game_id,
                                               self.player, number)
                break
            except NotInGame:
                # The game service restarted and lost its volatile state;
                # recover it from the client side.
                self.rejoins += 1
                await self.join()
        if outcome["result"] == "correct":
            self.score += 1
        return outcome

    async def leave(self) -> None:
        await self.game.call("leave", self.game_id, self.player)

    async def shutdown(self) -> None:
        # Best-effort on channel change: leave()'s ``self.game.call``
        # raises OCSError (RebindError, DeadlineExceeded, RemoteException).
        try:
            await self.leave()
        except OCSError:
            pass
