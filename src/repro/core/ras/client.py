"""Client-side audit library (paper section 7.2).

"This callback interface is actually implemented by a combination of
library code and a RAS object. ... the library code periodically invokes
checkStatus for all entities with callbacks.  If checkStatus indicates
that an entity is no longer active, the library code performs the
callback to the client."

Keeping callbacks in the *client's* library (not the RAS) is what lets a
restarted RAS recover with no remembered state.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Union

from repro.core.naming.client import NameClient
from repro.core.naming.errors import NamingError
from repro.core.params import RAS_CALL_TIMEOUT
from repro.ocs.exceptions import ServiceUnavailable
from repro.ocs.objref import ObjectRef
from repro.ocs.runtime import OCSRuntime
from repro.sim.host import Process

Entity = Union[str, ObjectRef]
RAS_CLIENT_POLL = 10.0     # library checkStatus cadence (MMS)


class AuditClient:
    """Watches entities through the local RAS and fires death callbacks."""

    def __init__(self, runtime: OCSRuntime, names: NameClient):
        self.runtime = runtime
        self.names = names
        self.kernel = runtime.kernel
        self._watches: Dict[Entity, Callable[[Entity], None]] = {}
        self._ras_ref: Optional[ObjectRef] = None
        self._task = None

    def watch(self, entity: Entity, on_dead: Callable[[Entity], None]) -> None:
        """Call ``on_dead(entity)`` (once) when the entity is seen dead."""
        self._watches[entity] = on_dead

    def unwatch(self, entity: Entity) -> None:
        self._watches.pop(entity, None)

    def watching(self, entity: Entity) -> bool:
        return entity in self._watches

    def start(self, process: Process) -> None:
        """Begin the periodic checkStatus loop on ``process``."""
        if self._task is None or self._task.done():
            self._task = process.create_task(self._poll_loop(),
                                             name="audit-client")

    async def _poll_loop(self) -> None:
        while True:
            await self.kernel.sleep(RAS_CLIENT_POLL)
            await self.poll_once()

    async def poll_once(self) -> None:
        """One checkStatus round; safe to call directly from tests."""
        if not self._watches:
            return
        entities = list(self._watches.keys())
        if self._ras_ref is None:
            try:
                # svc/ras uses the same-server selector: the local replica.
                self._ras_ref = await self.names.resolve("svc/ras")
            except (NamingError, ServiceUnavailable):
                return
        try:
            statuses = await self.runtime.invoke(
                self._ras_ref, "checkStatus", (entities,),
                timeout=RAS_CALL_TIMEOUT)
        except ServiceUnavailable:
            self._ras_ref = None  # local RAS restarting; re-resolve next time
            return
        for entity, status in zip(entities, statuses):
            if status == "dead":
                callback = self._watches.pop(entity, None)
                if callback is not None:
                    callback(entity)
