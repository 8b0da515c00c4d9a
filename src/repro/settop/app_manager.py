"""The Application Manager (sections 3.4.1-3.4.3, Figure 3).

"The AM receives channel change events from the remote control and
downloads the appropriate application when a subscriber tunes to a
channel that provides interactive services."  Downloads go through the
Reliable Delivery Service; the AM caches the RDS reference after the
first resolve and only returns to the name service when the reference
stops working (section 3.4.2) -- that behaviour is the RebindingProxy.

Section 9.3's user-visible latency model: the incoming application can
display *cover* (a still or settop-generated animation) within 0.5 s,
while the full download takes 2-4 s.
"""

from __future__ import annotations

from typing import Optional

from repro.core.naming.cache import cache_for
from repro.core.naming.client import NameClient
from repro.core.params import Params
from repro.core.rebind import RebindingProxy
from repro.ocs.exceptions import OCSError
from repro.ocs.runtime import OCSRuntime
from repro.services.rds import NoSuchData
from repro.sim.host import Process

COVER_LATENCY = 0.5   # seconds to put up cover art (section 9.3)
APP_WATCHDOG_TICK = 2.0   # seconds between crash checks


class AppManager:
    """The first application every settop runs."""

    def __init__(self, settop_kernel, process: Process, boot_params: dict):
        self.settop = settop_kernel
        self.process = process
        self.kernel = process.kernel
        self.boot_params = boot_params
        self.params: Params = settop_kernel.params
        self.runtime = OCSRuntime(process, settop_kernel.network,
                                  principal=f"appmgr@{settop_kernel.host.ip}")
        self.names = NameClient(self.runtime, boot_params["ns_ips"], self.params,
                                cache=cache_for(settop_kernel.host, self.params))
        self.rds = RebindingProxy(self.runtime, self.names, "svc/rds",
                                  self.params)
        self.channels = dict(boot_params.get("channels", {}))
        self.venues = dict(boot_params.get("venues", {}))
        self.current_channel: Optional[int] = None
        self.current_app = None
        self._app_process: Optional[Process] = None
        self._restart_pending = False   # a crash restart not yet tuned
        self._wake = None       # what the watchdog parks on; see _poke
        self.last_tune = None   # metrics for the latest channel change

    async def run(self) -> None:
        # Section 3.4.2: "The first application that the AM loads after
        # booting is called the navigator."
        await self.tune("navigator")
        await self._app_watchdog()  # serve remote-control events forever

    async def _app_watchdog(self) -> None:
        """Restart a crashed application on the current channel.

        "People don't expect TVs to crash" (section 3): a buggy
        application dying must look like a glitch, not a dead set.  The
        binary is still cached at the RDS, so the restart is one
        download away.

        The check runs on a 2 s grid, but the task parks while the
        application lives; its exit (registered in :meth:`tune`) pokes it.
        A restart whose tune fails stays pending and is retried on every
        tick until one succeeds or the viewer tunes.
        """
        while True:
            due = self.kernel.now + APP_WATCHDOG_TICK
            while not self._restart_pending and (
                    self._app_process is None or self._app_process.alive):
                self._wake = self.kernel.create_future()
                await self._wake
            while due < self.kernel.now:
                due += APP_WATCHDOG_TICK
            await self.kernel.sleep_until(due)
            if (self._app_process is not None
                    and not self._app_process.alive
                    and self._app_process.exit_status != "channel change"):
                crashed = self.current_app.name if self.current_app else "?"
                self._emit("app_crashed", app=crashed)
                self.current_app = None
                self._app_process = None
                self._restart_pending = True
            if self._restart_pending:
                self._restart_pending = False
                # tune() raises KeyError (its two ``raise KeyError``),
                # and OCSError or NoSuchData from ``self.rds.call``.
                try:
                    await self.tune(self.current_channel or "navigator")
                except (KeyError, NoSuchData, OCSError):
                    self._restart_pending = True    # retry next tick

    def _poke(self, _proc: Optional[Process] = None) -> None:
        if self._wake is not None and not self._wake.done():
            self._wake.set_result(None)

    async def tune(self, channel) -> None:
        """Channel-change event from the remote control; it replaces any
        pending crash restart."""
        from repro.settop.apps import APP_CLASSES
        self._restart_pending = False
        app_name = self.channels.get(channel, channel)
        venue = None
        if isinstance(app_name, str) and app_name.startswith("venue:"):
            # Section 3.4.3: a venue channel loads the navigator scoped
            # to the venue's application set.
            venue = app_name[len("venue:"):]
            if venue not in self.venues:
                raise KeyError(f"unknown venue {venue!r}")
            app_name = "navigator"
        if app_name not in APP_CLASSES:
            raise KeyError(f"channel {channel!r} is not interactive")
        if self.current_app is not None and self.current_app.name == app_name:
            # Already running the right application; a venue change only
            # re-scopes the navigator.
            if hasattr(self.current_app, "enter_venue"):
                self.current_app.enter_venue(venue)
            self.current_channel = channel
            return
        started = self.kernel.now
        cover_at = started + COVER_LATENCY  # viewer sees a response here
        # Download the application binary via the RDS (Figure 3 steps 1-2).
        blob = await self.rds.call("openData", f"apps/{app_name}",
                                   timeout=30.0)
        downloaded_at = self.kernel.now
        # "The AM copies the executable into memory and starts it."
        if self._app_process is not None and self._app_process.alive:
            # Give the outgoing application its chance to release movies
            # and other resources (section 3.4.5) before it dies.
            # Best-effort: the proxy calls in VODApp.stop and
            # GameApp.leave raise OCSError (RebindError, DeadlineExceeded,
            # RemoteException); a cancelled tune propagates.
            try:
                await self.current_app.shutdown()
            except OCSError:
                pass
            self._app_process.kill(status="channel change")
        app_proc = self.settop.host.spawn(f"{app_name}-app",
                                          parent=self.process)
        app_proc.on_exit(self._poke)
        app_cls = APP_CLASSES[app_name]
        self.current_app = app_cls(self, app_proc)
        self._app_process = app_proc
        app_proc.create_task(self.current_app.run(), name=f"{app_name}-main").detach()
        await self.current_app.ready.wait()
        if venue is not None and hasattr(self.current_app, "enter_venue"):
            self.current_app.enter_venue(venue)
        self.current_channel = channel
        self.last_tune = {
            "app": app_name, "bytes": blob.size,
            "cover_at": COVER_LATENCY,
            "download_time": downloaded_at - started,
            "total_time": self.kernel.now - started,
        }
        self._emit("tuned", app=app_name,
                   download_time=round(self.last_tune["download_time"], 3))

    def app_crashed(self) -> bool:
        return self._app_process is not None and not self._app_process.alive

    def _emit(self, event: str, **fields) -> None:
        if self.settop.trace is not None:
            self.settop.trace.emit("am", event, settop=self.settop.host.ip,
                                   **fields)
