"""File Service: "provides settops access to UNIX files" (Figure 2).

The file service demonstrates section 4.2's goal that "system components
should be able to export objects by implementing the context interface":
it implements ``FileSystemContext``, a *subclass of the NamingContext
interface* with "additional operations for file creation" (section 4.6),
and binds its root context into the cluster-wide name space.  Name
resolution crossing into ``files/<server>/...`` is handed off from the
name service to this process transparently.

Files live on the server disk, surviving restarts.
"""

from __future__ import annotations

from typing import List, Optional

import repro.core.naming.interfaces  # noqa: F401 - NamingContext base
from repro.core.naming.errors import (
    AlreadyBound,
    InvalidName,
    NameNotFound,
    NotAContext,
)
from repro.core.naming.store import join_name, split_name
from repro.idl import register_interface
from repro.ocs.objref import ObjectRef
from repro.ocs.runtime import CallContext
from repro.services.base import Service

register_interface("FileSystemContext", {
    "createFile": ("name", "size"),
    "removeFile": ("name",),
}, base="NamingContext", doc="File service contexts (section 4.6)")

register_interface("File", {
    "read": (),
    "write": ("size",),
    "stat": (),
}, doc="A UNIX file exported through the file service",
   idempotent=("read", "stat"))

FS_DISK_PREFIX = "fs/"


def seed_file(disk, path: str, size: int) -> None:
    disk.write(FS_DISK_PREFIX + path, {"size": size, "mtime": 0.0})


class FileService(Service):
    service_name = "fileservice"

    async def start(self) -> None:
        self.root_ref = self.runtime.export(_FSContextServant(self, ""),
                                            "FileSystemContext")
        self.runtime.activator = self._activate
        await self.register_objects([self.root_ref])
        # Figure 8: file service contexts bound per server under "files".
        await self.bind_as_replica("files", self.host.ip, self.root_ref,
                                   selector="sameserver", parent="")

    # -- disk-backed tree ----------------------------------------------------

    def _disk_key(self, path: str) -> str:
        return FS_DISK_PREFIX + path

    def file_meta(self, path: str) -> Optional[dict]:
        return self.host.disk.read(self._disk_key(path))

    def is_dir(self, path: str) -> bool:
        if path == "":
            return True
        return bool(self.host.disk.keys(self._disk_key(path) + "/"))

    def list_dir(self, path: str) -> List[str]:
        prefix = self._disk_key(path) + "/" if path else FS_DISK_PREFIX
        names = {key[len(prefix):].split("/", 1)[0]
                 for key in self.host.disk.keys(prefix)}
        names.discard(".")
        return sorted(names)

    def create_file(self, path: str, size: int) -> ObjectRef:
        if self.file_meta(path) is not None:
            raise AlreadyBound(path)
        self.host.disk.write(self._disk_key(path),
                             {"size": size, "mtime": self.kernel.now})
        return self._file_ref(path)

    def remove_file(self, path: str) -> None:
        if self.file_meta(path) is None:
            raise NameNotFound(path)
        self.host.disk.delete(self._disk_key(path))

    def make_dir(self, path: str) -> None:
        # Directories are implied by children; a marker makes empties real.
        self.host.disk.write(self._disk_key(path) + "/.", {"dir": True})

    # -- objects, activated on demand from the disk ------------------------

    def _activate(self, object_id: str):
        kind, _, path = object_id.partition(":")
        if kind == "dir" and path and self.is_dir(path):
            return _FSContextServant(self, path), "FileSystemContext"
        # A directory's "." marker is on the disk but is no file.
        if (kind == "file" and not path.endswith("/.")
                and self.file_meta(path) is not None):
            return _FileServant(self, path), "File"
        return None

    def _context_ref(self, path: str) -> ObjectRef:
        return ObjectRef(ip=self.host.ip, port=self.runtime.port,
                         incarnation=self.process.incarnation,
                         type_id="FileSystemContext",
                         object_id=f"dir:{path}" if path else "")

    def _file_ref(self, path: str) -> ObjectRef:
        return ObjectRef(ip=self.host.ip, port=self.runtime.port,
                         incarnation=self.process.incarnation,
                         type_id="File", object_id=f"file:{path}")


class _FSContextServant:
    """One directory, speaking the NamingContext protocol (a servant of
    its own, not the service: it carries per-object state, the path)."""

    def __init__(self, svc: FileService, path: str):
        self._svc = svc
        self._path = path

    def _abs(self, name: str) -> str:
        return join_name(split_name(self._path) + split_name(name))

    def _resolve_local(self, name: str) -> ObjectRef:
        path = self._abs(name)
        if path == self._path:
            return self._svc._context_ref(self._path)
        meta = self._svc.file_meta(path)
        if meta is not None:
            return self._svc._file_ref(path)
        if self._svc.is_dir(path):
            return self._svc._context_ref(path)
        raise NameNotFound(path)

    # -- NamingContext operations ---------------------------------------

    async def resolve(self, ctx: CallContext, name: str):
        return self._resolve_local(name)

    async def resolveFor(self, ctx: CallContext, name: str, caller_ip: str):
        return self._resolve_local(name)

    async def bind(self, ctx: CallContext, name: str, obj):
        raise NotAContext("the file service only binds files (createFile)")

    async def unbind(self, ctx: CallContext, name: str):
        self._svc.remove_file(self._abs(name))

    async def bindNewContext(self, ctx: CallContext, name: str):
        path = self._abs(name)
        if self._svc.is_dir(path) or self._svc.file_meta(path) is not None:
            raise AlreadyBound(path)
        self._svc.make_dir(path)

    async def bindReplContext(self, ctx: CallContext, name: str, selector=None):
        raise InvalidName("file service contexts cannot be replicated")

    async def list(self, ctx: CallContext, name: str):
        path = self._abs(name)
        if not self._svc.is_dir(path):
            raise NotAContext(path)
        out = []
        for child in self._svc.list_dir(path):
            child_path = join_name(split_name(path) + [child])
            if self._svc.file_meta(child_path) is not None:
                out.append((child, "leaf", self._svc._file_ref(child_path)))
            else:
                out.append((child, "context",
                            self._svc._context_ref(child_path)))
        return out

    async def listRepl(self, ctx: CallContext, name: str):
        raise NotAContext("file service contexts are not replicated")

    async def setSelector(self, ctx: CallContext, name: str, spec):
        raise InvalidName("file service contexts have no selectors")

    async def reportLoadBatch(self, ctx: CallContext, entries):
        return None

    # -- FileSystemContext extensions -------------------------------------

    async def createFile(self, ctx: CallContext, name: str, size: int):
        return self._svc.create_file(self._abs(name), size)

    async def removeFile(self, ctx: CallContext, name: str):
        self._svc.remove_file(self._abs(name))


class _FileServant:
    def __init__(self, svc: FileService, path: str):
        self._svc = svc
        self._path = path

    def _meta(self) -> dict:
        meta = self._svc.file_meta(self._path)
        if meta is None:
            raise NameNotFound(self._path)
        return meta

    async def read(self, ctx: CallContext):
        from repro.services.data import Blob
        meta = self._meta()
        return Blob(name=self._path, size=meta["size"], kind="file")

    async def write(self, ctx: CallContext, size: int):
        meta = self._meta()
        meta.update(size=size, mtime=self._svc.kernel.now)
        self._svc.host.disk.write(self._svc._disk_key(self._path), meta)

    async def stat(self, ctx: CallContext):
        return dict(self._meta())
