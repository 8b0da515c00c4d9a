"""Reliable Delivery Service: "downloads to the settop such data as
fonts, images, and binaries, using a variable bit rate connection"
(Figure 2, section 3.4.2).

Replicated per neighbourhood: each server binds its replica under every
neighbourhood number it serves, behind the neighbourhood selector, so
``resolve("svc/rds")`` from a settop lands on its own server's replica
(section 5.1's worked example uses exactly ``svc/rds``).

Downloads are ordinary (signed) replies whose payload size is the file
size, so delivery time is governed by the settop's downlink -- the 2-4 s
application start of section 9.3.
"""

from __future__ import annotations

from typing import List

from repro.idl import register_exception, register_interface
from repro.ocs.runtime import CallContext
from repro.services.base import Service
from repro.services.data import Blob

register_interface("RDS", {
    "openData": ("name",),
    "listData": (),
    "stat": ("name",),
    # openData counts a download (metrics are effects too): dedup'd.
}, doc="Reliable Delivery Service (Figure 2)",
   idempotent=("listData", "stat"))


@register_exception
class NoSuchData(Exception):
    """openData() named content this cluster does not carry."""


RDS_DISK_PREFIX = "rdsdata/"


def seed_data(disk, name: str, size: int, version: int = 1,
              kind: str = "data") -> None:
    """Place downloadable content on a server disk."""
    disk.write(RDS_DISK_PREFIX + name,
               {"size": size, "version": version, "kind": kind})


class ReliableDeliveryService(Service):
    service_name = "rds"

    async def start(self) -> None:
        self.ref = self.runtime.export(self, "RDS")
        await self.register_objects([self.ref])
        await self.bind_per_neighborhood("rds", self.ref)

    def openData(self, ctx: CallContext, name: str) -> Blob:
        meta = self.host.disk.read(RDS_DISK_PREFIX + name)
        if meta is None:
            raise NoSuchData(name)
        self.emit("download", name=name, size=meta["size"])
        return Blob(name=name, size=meta["size"], version=meta["version"],
                    kind=meta["kind"])

    def listData(self, ctx: CallContext) -> List[str]:
        prefix = RDS_DISK_PREFIX
        return [k[len(prefix):] for k in self.host.disk.keys(prefix)]

    def stat(self, ctx: CallContext, name: str) -> dict:
        meta = self.host.disk.read(RDS_DISK_PREFIX + name)
        if meta is None:
            raise NoSuchData(name)
        return dict(meta)
