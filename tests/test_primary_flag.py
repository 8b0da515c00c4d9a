"""The binder's role is each primary/backup service's one primary flag.

An operator unbinds a primary's name.  The backup wins the free name on
its next bind retry, and the old primary's next verify finds another
ref bound and demotes.  From then on every primary-only duty of the old
primary reads ``binder.is_primary`` and stops: the CSC refuses directed
operations, the MMS reports itself a backup and the KBS stops
broadcasting the kernel image.
"""

import pytest

from repro.cluster.builder import build_full_cluster
from repro.core.replication import NotPrimary
from repro.services.boot import KERNEL_CYCLE


def _replicas(cluster, name):
    procs = [host.find_process(name) for host in cluster.servers]
    return [proc.attachments["service"] for proc in procs if proc is not None]


@pytest.mark.parametrize("name", ["csc", "mms", "kbs"])
def test_operator_unbind_demotes_through_the_binder(name, monkeypatch):
    cluster = build_full_cluster(n_servers=2, seed=57)
    cluster.add_settop(cluster.neighborhoods[0])   # someone to broadcast to
    kernel_casts = []
    broadcast = cluster.net.broadcast

    def record(src_ip, dst_ips, port, kind, payload, payload_bytes=0):
        if kind == "boot.kernel":
            kernel_casts.append((cluster.now, src_ip))
        return broadcast(src_ip, dst_ips, port, kind, payload, payload_bytes)

    monkeypatch.setattr(cluster.net, "broadcast", record)
    replicas = _replicas(cluster, name)
    assert len(replicas) == 2
    [old] = [svc for svc in replicas if svc.binder.is_primary]
    [new] = [svc for svc in replicas if svc is not old]

    operator = cluster.client_on(cluster.servers[0], name="operator")
    cluster.run_async(operator.names.unbind(f"svc/{name}"))
    cluster.run_for(3 * cluster.params.backup_bind_retry + 2 * KERNEL_CYCLE)

    [demoted] = cluster.trace.select(name, "demoted")
    assert demoted.fields["host"] == old.host.name
    assert not old.binder.is_primary and new.binder.is_primary
    if name == "csc":
        assert not old.is_primary and new.is_primary
        with pytest.raises(NotPrimary):
            old._require_primary()
        new._require_primary()
    elif name == "mms":
        assert old.status(None)["primary"] is False
        assert new.status(None)["primary"] is True
    else:
        # The old loop notices at its next wake-up, one cycle at most.
        quiet_from = demoted.time + KERNEL_CYCLE
        assert any(ip == old.host.ip for _t, ip in kernel_casts)
        assert [t for t, ip in kernel_casts
                if ip == old.host.ip and t > quiet_from] == []
        assert any(ip == new.host.ip for _t, ip in kernel_casts)
