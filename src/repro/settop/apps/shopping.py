"""The settop home-shopping application (section 3)."""

from __future__ import annotations

from typing import Dict, List

from repro.core.params import INTERACTIVE_DEADLINE
from repro.settop.apps.base import SettopApp


class ShoppingApp(SettopApp):
    name = "shopping"

    def __init__(self, am, process):
        super().__init__(am, process)
        self.shop = None
        self.orders: List[str] = []

    async def start(self) -> None:
        self.shop = self.proxy("svc/shopping")
        self.emit("up")

    def _budget(self) -> float:
        """Viewer patience: degrade rather than retry past this."""
        return self.kernel.now + INTERACTIVE_DEADLINE

    async def browse(self) -> Dict[str, dict]:
        """Fetch the catalog (navigated as video clips in the real UI)."""
        return await self.shop.call("catalog", deadline=self._budget())

    async def buy(self, item_id: str, quantity: int = 1) -> str:
        order_id = await self.shop.call("order", item_id, quantity,
                                        deadline=self._budget())
        self.orders.append(order_id)
        self.emit("ordered", item=item_id, order=order_id)
        return order_id

    async def check_order(self, order_id: str) -> dict:
        return await self.shop.call("orderStatus", order_id)
