"""The navigator: "a convenient way for settop users to find applications
of interest" (section 3.4.2).

Presents the channel line-up (venues, section 3.4.3) and asks the AM to
tune; its "UI" is the list of channels it can describe to the viewer.

The navigator's shopping-backed menu degrades gracefully.  When
the shopping service (or the database behind it) is shedding load, the
viewer sees the last good menu from cache -- possibly stale, but on
screen -- instead of an error.
"""

from __future__ import annotations

from typing import Optional

from repro.ocs.exceptions import OCSError, ServiceUnavailable
from repro.settop.apps.base import SettopApp


class NavigatorApp(SettopApp):
    name = "navigator"

    def __init__(self, am, process):
        super().__init__(am, process)
        self.current_venue = None
        self.shop = None
        self._menu_cache: Optional[dict] = None

    async def start(self) -> None:
        self.shop = self.proxy("svc/shopping")
        self.emit("up", channels=len(self.am.channels))

    async def menu(self) -> dict:
        """The shopping-venue menu: live catalog, or the cached copy.

        The failure net is deliberately broad (any OCS-level error plus
        the shop's own StoreUnavailable): whatever went wrong between
        here and the database, the navigator's job is to keep something
        on screen.
        """
        from repro.services.shopping import StoreUnavailable
        try:
            catalog = await self.shop.call(
                "catalog",
                deadline=self.kernel.now + self.params.call_timeout)
            self._menu_cache = dict(catalog)
            return {"items": dict(catalog), "cached": False}
        except (StoreUnavailable, ServiceUnavailable, OCSError):
            items = dict(self._menu_cache) if self._menu_cache else {}
            self.emit("cached_menu", items=len(items))
            return {"items": items, "cached": True}

    def enter_venue(self, venue) -> None:
        """Scope the navigator to one venue's set (None = full line-up)."""
        self.current_venue = venue
        if venue is not None:
            self.emit("venue", venue=venue)

    def lineup(self) -> dict:
        """What the viewer sees: the venue's applications, or the full
        channel line-up."""
        if self.current_venue is not None:
            apps = self.am.venues.get(self.current_venue, [])
            return {name: name for name in apps}
        return dict(self.am.channels)

    async def pick(self, channel) -> None:
        """Viewer selects an application through the navigator."""
        await self.am.tune(channel)
