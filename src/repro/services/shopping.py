"""Home shopping: the server portion of the shopping application.

One of the three application classes the Orlando trial offered
("video-on-demand, home shopping, and multiplayer games", section 3).
The catalog is slow-changing state in the database; orders are durable
writes -- this service is a textbook section 9.4 stateless service that
"can recover state ... by reading it from the database".
"""

from __future__ import annotations

from repro.core.rebind import RebindingProxy
from repro.db.service import NoSuchKey
from repro.idl import register_exception, register_interface
from repro.ocs.exceptions import ServiceUnavailable
from repro.ocs.runtime import CallContext
from repro.services.base import Service

register_interface("Shopping", {
    "catalog": (),
    "order": ("item_id", "quantity"),
    "orderStatus": ("order_id",),
    "myOrders": (),
    # order() mints an order id and charges the account: the canonical
    # non-idempotent op the reply cache exists for.
}, doc="Home shopping application server (section 3)",
   idempotent=("catalog", "orderStatus", "myOrders"))


@register_exception
class NoSuchItem(Exception):
    """order() named an item not in the catalog."""


@register_exception
class StoreUnavailable(Exception):
    """The database is unreachable; ordering is temporarily down."""


CATALOG_TABLE = "shop_catalog"
ORDERS_TABLE = "shop_orders"


class ShoppingService(Service):
    service_name = "shopping"
    ADMISSION_CONTROLLED = True

    def __init__(self, env, process):
        super().__init__(env, process)
        self._order_counter = 0

    async def start(self) -> None:
        self.ref = self.runtime.export(self, "Shopping")
        await self.register_objects([self.ref])
        self._db = RebindingProxy(self.runtime, self.names, "svc/db",
                                  self.params)
        await self.bind_per_neighborhood("shopping", self.ref)

    async def catalog(self, ctx: CallContext) -> dict:
        try:
            return await self._db.call("scan", CATALOG_TABLE)
        except ServiceUnavailable as err:
            raise StoreUnavailable(str(err)) from err

    async def order(self, ctx: CallContext, item_id: str,
                    quantity: int) -> str:
        try:
            item = await self._db.call("get", CATALOG_TABLE, item_id)
        except NoSuchKey as err:
            raise NoSuchItem(item_id) from err
        except ServiceUnavailable as err:
            raise StoreUnavailable(str(err)) from err
        self._order_counter += 1
        order_id = f"{self.host.ip}-{self.process.pid}-{self._order_counter}"
        record = {"customer": ctx.caller_ip, "item": item_id,
                  "quantity": quantity, "unit_price": item["price"],
                  "placed_at": self.kernel.now, "status": "accepted"}
        try:
            await self._db.call("put", ORDERS_TABLE, order_id, record)
        except ServiceUnavailable as err:
            raise StoreUnavailable(str(err)) from err
        self.emit("order_placed", order=order_id, item=item_id)
        return order_id

    async def orderStatus(self, ctx: CallContext, order_id: str) -> dict:
        try:
            return await self._db.call("get", ORDERS_TABLE, order_id)
        except ServiceUnavailable as err:
            raise StoreUnavailable(str(err)) from err

    async def myOrders(self, ctx: CallContext) -> dict:
        orders = await self._db.call("scan", ORDERS_TABLE)
        return {oid: rec for oid, rec in orders.items()
                if rec["customer"] == ctx.caller_ip}
