"""The paper's own checklists, verified one line at a time.

Section 4.1 states five design goals for the naming system; section 8
states three availability mechanisms.  Each goal gets the smallest test
that demonstrates it against the running system.
"""

import pytest

from repro.cluster import build_full_cluster
from repro.idl import lookup_interface


@pytest.fixture(scope="module")
def cluster():
    return build_full_cluster(n_servers=3, seed=281)


@pytest.fixture(scope="module")
def client(cluster):
    return cluster.client_on(cluster.servers[0], name="goals")


class TestSection41NamingGoals:
    def test_goal1_objects_of_all_types_nameable(self, cluster, client):
        """"Allow objects of all types to be named." -- the name space
        holds MMS, RAS, Database, File, ... objects side by side."""
        types_seen = set()
        for name in ("svc/mms", "svc/db", "svc/csc", "svc/kbs"):
            ref = cluster.run_async(client.names.resolve(name))
            types_seen.add(ref.type_id)
        assert len(types_seen) == 4

    def test_goal2_multiple_name_service_implementations(self, cluster,
                                                         client):
        """"Allow multiple implementations of the name service
        interface." -- FileSystemContext is a NamingContext subtype."""
        fs = lookup_interface("FileSystemContext")
        assert fs.is_a("NamingContext")
        ref = cluster.run_async(
            client.names.resolve(f"files/{cluster.servers[0].ip}"))
        assert ref.type_id == "FileSystemContext"

    def test_goal3_components_export_contexts(self, cluster, client):
        """"System components should be able to export objects by
        implementing the context interface." -- resolution recurses into
        the file service's exported context."""
        ref = cluster.run_async(client.names.resolve(
            f"files/{cluster.servers[0].ip}/etc/motd"))
        assert ref.type_id == "File"

    def test_goal4_distributed_implementation(self, cluster):
        """"Allow the implementation of the name service to be
        distributed for both scalability and availability." -- a replica
        runs on every server and any of them answers."""
        for host in cluster.servers:
            local = cluster.client_on(host, name=f"goal4-{host.name}")
            ref = cluster.run_async(local.names.resolve("svc/mms"))
            assert ref is not None

    def test_goal5_replication_support(self, cluster, client):
        """"Provide support for building replicated services." -- the
        ReplicatedContext type exists in the wire type system and routes
        by selector."""
        repl = lookup_interface("ReplicatedContext")
        assert repl.is_a("NamingContext")
        listing = cluster.run_async(client.names.list_repl("svc/mds"))
        assert len(listing) == 3


class TestSection8AvailabilityMechanisms:
    def test_mechanism1_automatic_restart(self):
        """Paper: "Automatic (re)start of services"."""
        cluster = build_full_cluster(n_servers=2, seed=282)
        cluster.kill_service(0, "vod")
        cluster.run_for(5.0)
        proc = cluster.find_service(0, "vod")
        assert proc is not None and proc.alive

    def test_mechanism2_automatic_rebinding(self):
        """Paper: "Automatic rebinding of clients after service recovery"."""
        from repro.core.rebind import RebindingProxy
        cluster = build_full_cluster(n_servers=2, seed=283)
        client = cluster.client_on(cluster.servers[0], name="m2")
        proxy = RebindingProxy(client.runtime, client.names, "svc/mms",
                               cluster.params)
        assert cluster.run_async(proxy.call("openCount")) == 0
        cluster.kill_service(0, "mms")
        cluster.kill_service(1, "mms")
        cluster.run_for(2.0)
        assert cluster.run_async(proxy.call("openCount")) == 0
        assert proxy.rebinds >= 1

    def test_mechanism3_failure_notification(self):
        """Paper: "Optional notification of failures among clients or
        services" -- the audit library calls back on death."""
        from repro.core.ras.client import RAS_CLIENT_POLL, AuditClient
        cluster = build_full_cluster(n_servers=2, seed=284)
        client = cluster.client_on(cluster.servers[0], name="m3")
        target = cluster.run_async(client.names.resolve("svc/kbs"))
        audit = AuditClient(client.runtime, client.names)
        deaths = []
        audit.watch(target, deaths.append)
        audit.start(client.process)
        # Stop kbs through the CSC so nothing restarts-and-rebinds it.
        from repro.core.control.tools import OperatorConsole
        console = OperatorConsole(client.runtime, client.names,
                                  cluster.params)
        cluster.run_async(console.stop_service("kbs", target.ip))
        cluster.run_for(3 * RAS_CLIENT_POLL)
        assert deaths == [target]
