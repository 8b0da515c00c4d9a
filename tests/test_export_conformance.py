"""Every exported object implements exactly what its interface promises.

A service exports *itself* (``runtime.export(self, "VOD")``), so two
things must hold for every live export in a full cluster: each IDL
operation -- inherited ones included -- is a callable attribute of the
servant, and nothing *but* the IDL is reachable from the wire, however
many other public methods (``start``, ``emit``, ...) the servant has.
"""

import pytest

from repro.core.naming.replica import NameReplicaProcess
from repro.core.naming.store import join_name
from repro.idl import lookup_interface, register_interface
from repro.metrics import live_runtimes
from repro.ocs import RemoteException
from repro.ocs.objref import ObjectRef
from repro.services.file_service import FS_DISK_PREFIX
from tests.helpers import booted_cluster

# What a forger claims the VOD object is: the claimed type passes the
# client-side stub check, the frame then names real attributes of the
# exported VODService that its real interface does not declare.
register_interface("ForgedVOD", {
    "start": (),
    "emit": ("event",),
    "bind_as_replica": ("context", "member", "ref"),
}, doc="test-only: a lying type id for a real export")


@pytest.fixture(scope="module")
def full_cluster():
    cluster, _kernels = booted_cluster(n_servers=2, seed=21, settops=1)
    return cluster


def _activatable_ids(owner):
    """Every id ``owner``'s activator answers: each context of a name
    replica's tree, each directory and file of a file service's disk."""
    if isinstance(owner, NameReplicaProcess):
        stack = [([], owner.store.root)]
        while stack:
            prefix, node = stack.pop()
            if node.is_context():
                yield f"ctx:{join_name(prefix)}"
                stack.extend((prefix + [name], child)
                             for name, child in node.bindings.items())
        return
    for key in owner.host.disk.keys(FS_DISK_PREFIX):
        path = key[len(FS_DISK_PREFIX):]
        yield f"file:{path}"
        yield f"dir:{path.rpartition('/')[0]}"


def _live_objects(runtime):
    """``(object_id, servant, interface)`` for the exports and for every
    object the runtime's owner activates on demand."""
    for object_id, export in runtime._exports.items():
        yield object_id, export.servant, export.interface
    if runtime.activator is not None:
        for object_id in _activatable_ids(runtime.activator.__self__):
            found = runtime.activator(object_id)
            if found is not None:
                yield object_id, found[0], lookup_interface(found[1])


def test_every_export_implements_its_whole_interface(full_cluster):
    cluster = full_cluster
    missing, seen = [], set()
    for runtime in live_runtimes(cluster.servers + cluster.settops):
        for object_id, servant, interface in _live_objects(runtime):
            seen.add((type(servant).__name__, interface.name))
            for op in interface.all_methods():
                if not callable(getattr(servant, op, None)):
                    missing.append((runtime.process.name, object_id,
                                    interface.name, op))
    assert missing == []
    # The walk really covered the cluster: self-exporting services, the
    # RAS's second export, per-object servants (exported or activated
    # on demand) and inheriting ones.
    assert {"VOD", "MMS", "MDS", "RAS", "ObjectStatusCallback",
            "ServiceController", "ClusterController", "NameReplica",
            "Database"} <= {interface for _cls, interface in seen}
    assert {("ContextServant", "NamingContext"),
            ("ContextServant", "ReplicatedContext"),
            ("_FSContextServant", "FileSystemContext"),
            ("_FileServant", "File")} <= seen


def test_every_service_is_its_own_servant(full_cluster):
    services = [proc.attachments["service"]
                for host in full_cluster.servers for proc in host.processes
                if "service" in proc.attachments]
    # The one other null-id export is the file service's root directory:
    # a per-directory FileSystemContext servant, like every other
    # directory it serves.
    null_exports = [(svc, svc.runtime._exports[""]) for svc in services]
    adaptors = [svc.service_name for svc, export in null_exports
                if export.servant is not svc
                and export.interface.name != "FileSystemContext"]
    assert adaptors == []
    assert "db" in {service.service_name for service in services}


def test_forged_frame_reaches_nothing_outside_the_idl(full_cluster):
    cluster = full_cluster
    server = cluster.servers[0]
    vod = next(proc.attachments["service"] for proc in server.processes
               if proc.name == "vod")
    ran = []
    for name in ("start", "emit", "bind_as_replica"):
        # Instance attributes shadow the methods a forged frame would hit.
        setattr(vod, name, lambda *args, _name=name: ran.append(_name))
    forged = ObjectRef(ip=vod.ref.ip, port=vod.ref.port,
                       incarnation=vod.ref.incarnation,
                       type_id="ForgedVOD", object_id=vod.ref.object_id)
    client = cluster.client_on(cluster.servers[1], name="forger")
    served = vod.runtime.calls_served
    futures = [client.runtime.invoke(forged, "start", ()),
               client.runtime.invoke(forged, "emit", ("pwned",)),
               client.runtime.invoke(forged, "bind_as_replica",
                                     ("vod", "x", vod.ref))]
    cluster.run_for(5.0)    # Kernel.run returns: nothing raised out of it
    for fut in futures:
        assert isinstance(fut.exception(), RemoteException)
        assert "NoSuchMethod" in str(fut.exception())
    assert ran == [] and vod.runtime.calls_served == served
    # The export still answers its real interface afterwards.
    assert cluster.run_async(
        client.runtime.invoke(vod.ref, "listBookmarks", ())) == {}
