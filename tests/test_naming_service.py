"""Integration tests for the replicated name service (paper section 4)."""

import pytest

from repro.core.naming import AlreadyBound, NameClient, NameNotFound
from repro.core.naming.errors import SelectorFailed
from repro.net import settop_ip
from repro.ocs import OCSRuntime, ObjectRef
from repro.sim import Host

from tests.helpers import NsWorld


def make_ref(ip, port=7777, type_id="TestEcho", oid=""):
    return ObjectRef(ip=ip, port=port, incarnation=(0.0, 99),
                     type_id=type_id, object_id=oid)


class TestElection:
    def test_master_elected_at_cold_start(self):
        world = NsWorld(n_servers=3)
        master = world.settle()
        assert master is not None
        # Exactly one master.
        roles = [r.role for r in world.replicas.values()]
        assert roles.count("master") == 1

    def test_single_replica_elects_itself(self):
        world = NsWorld(n_servers=1)
        assert world.settle() is not None

    def test_five_replicas(self):
        world = NsWorld(n_servers=5)
        assert world.settle() is not None

    def test_master_crash_triggers_reelection(self):
        world = NsWorld(n_servers=3)
        old_master = world.settle()
        old_ip = old_master.ip
        old_master.process.kill()
        new_master = world.settle(30.0)
        assert new_master is not None
        assert new_master.ip != old_ip
        assert new_master.epoch > old_master.epoch

    def test_no_master_without_majority(self):
        world = NsWorld(n_servers=3)
        world.settle()
        # Kill two of three replicas: the survivor cannot win a majority.
        killed = 0
        for replica in list(world.replicas.values()):
            if killed < 2:
                replica.process.kill()
                killed += 1
        world.kernel.run(until=world.kernel.now + 60.0)
        assert world.master() is None

    def test_rejoined_replica_becomes_slave_and_catches_up(self):
        world = NsWorld(n_servers=3)
        master = world.settle()
        # Bind something, then kill a slave.
        slave = next(r for r in world.replicas.values() if r.role == "slave")
        slave_host = slave.process.host
        slave.process.kill()
        _, _, client = world.client(master.process.host)
        world.run_async(client.bind_new_context("svc"))
        world.run_async(client.bind("svc/mms", make_ref(master.ip)))
        # Restart the replica; it should fetch state from the master.
        revived = world.start_replica(slave_host)
        world.settle(20.0)
        assert revived.role == "slave"
        assert revived.store.exists("svc/mms")


class TestBindResolve:
    def test_bind_then_resolve_anywhere(self, ns_world):
        world = ns_world
        master = world.master()
        _, _, client = world.client(master.process.host)
        ref = make_ref(master.ip)
        world.run_async(client.bind_new_context("svc"))
        world.run_async(client.bind("svc/mms", ref))
        world.kernel.run(until=world.kernel.now + 1.0)  # let multicast land
        # Resolve from every server: reads are local.
        for host in world.hosts:
            _, _, cli = world.client(host, name=f"cli-{host.name}")
            got = world.run_async(cli.resolve("svc/mms"))
            assert got == ref

    def test_read_your_writes_on_slave(self, ns_world):
        world = ns_world
        slave = next(r for r in world.replicas.values() if r.role == "slave")
        _, _, client = world.client(slave.process.host)

        async def bind_and_read():
            await client.bind_new_context("apps")
            await client.bind("apps/vod", make_ref(slave.ip))
            return await client.resolve("apps/vod")

        assert world.run_async(bind_and_read()) is not None

    def test_resolve_missing_raises(self, ns_world):
        world = ns_world
        _, _, client = world.client(world.hosts[0])
        with pytest.raises(NameNotFound):
            world.run_async(client.resolve("no/such/name"))

    def test_duplicate_bind_raises_already_bound(self, ns_world):
        world = ns_world
        _, _, client = world.client(world.hosts[0])
        world.run_async(client.bind_new_context("svc"))
        world.run_async(client.bind("svc/kbs", make_ref(world.hosts[0].ip)))
        with pytest.raises(AlreadyBound):
            world.run_async(client.bind("svc/kbs", make_ref(world.hosts[1].ip)))

    def test_unbind_then_rebind(self, ns_world):
        world = ns_world
        _, _, client = world.client(world.hosts[0])
        world.run_async(client.bind_new_context("svc"))
        world.run_async(client.bind("svc/x", make_ref(world.hosts[0].ip)))
        world.run_async(client.unbind("svc/x"))
        world.run_async(client.bind("svc/x", make_ref(world.hosts[1].ip)))
        got = world.run_async(client.resolve("svc/x"))
        assert got.ip == world.hosts[1].ip

    def test_resolve_context_returns_context_ref(self, ns_world):
        world = ns_world
        _, _, client = world.client(world.hosts[0])
        world.run_async(client.bind_new_context("svc"))
        ref = world.run_async(client.resolve("svc"))
        assert ref.type_id == "NamingContext"

    def test_resolve_via_context_object(self, ns_world):
        """Resolve a name relative to a non-root context object."""
        world = ns_world
        proc, runtime, client = world.client(world.hosts[0])
        world.run_async(client.bind_new_context("svc"))
        target = make_ref(world.hosts[0].ip)
        world.run_async(client.bind("svc/rds", target))
        ctx_ref = world.run_async(client.resolve("svc"))
        got = world.run_async(runtime.invoke(ctx_ref, "resolve", ("rds",)))
        assert got == target

    def test_list_context(self, ns_world):
        world = ns_world
        _, _, client = world.client(world.hosts[0])
        world.run_async(client.bind_new_context("svc"))
        world.run_async(client.bind("svc/a", make_ref(world.hosts[0].ip)))
        world.run_async(client.bind("svc/b", make_ref(world.hosts[1].ip)))
        names = [n for n, _kind, _ref in world.run_async(client.list("svc"))]
        assert names == ["a", "b"]


class TestReplicatedContexts:
    def test_first_selector_returns_member(self, ns_world):
        world = ns_world
        _, _, client = world.client(world.hosts[0])
        world.run_async(client.ensure_context("svc"))
        world.run_async(client.bind_repl_context("svc/rds", "first"))
        r1 = make_ref(world.hosts[0].ip, port=1)
        r2 = make_ref(world.hosts[1].ip, port=2)
        world.run_async(client.bind("svc/rds/1", r1))
        world.run_async(client.bind("svc/rds/2", r2))
        got = world.run_async(client.resolve("svc/rds"))
        assert got == r1

    def test_roundrobin_cycles(self, ns_world):
        world = ns_world
        _, _, client = world.client(world.hosts[0])
        world.run_async(client.ensure_context("svc"))
        world.run_async(client.bind_repl_context("svc/rds", "roundrobin"))
        r1 = make_ref(world.hosts[0].ip, port=1)
        r2 = make_ref(world.hosts[1].ip, port=2)
        world.run_async(client.bind("svc/rds/1", r1))
        world.run_async(client.bind("svc/rds/2", r2))
        seen = [world.run_async(client.resolve("svc/rds")) for _ in range(4)]
        assert seen == [r1, r2, r1, r2]

    def test_explicit_member_name_bypasses_selector(self, ns_world):
        """Figure 8: resolving svc/cmgr/1 names the member directly."""
        world = ns_world
        _, _, client = world.client(world.hosts[0])
        world.run_async(client.ensure_context("svc"))
        world.run_async(client.bind_repl_context("svc/cmgr", "neighborhood"))
        r1 = make_ref(world.hosts[0].ip, port=1)
        world.run_async(client.bind("svc/cmgr/1", r1))
        got = world.run_async(client.resolve("svc/cmgr/1"))
        assert got == r1

    def test_neighborhood_selector_uses_caller_ip(self, ns_world):
        world = ns_world
        _, _, client = world.client(world.hosts[0])
        world.run_async(client.ensure_context("svc"))
        world.run_async(client.bind_repl_context("svc/cmgr", "neighborhood"))
        r1 = make_ref(world.hosts[0].ip, port=1)
        r2 = make_ref(world.hosts[1].ip, port=2)
        world.run_async(client.bind("svc/cmgr/1", r1))
        world.run_async(client.bind("svc/cmgr/2", r2))
        # A settop in neighborhood 2 resolves svc/cmgr.
        settop = Host(world.kernel, "settop", kind="settop")
        world.net.attach(settop, settop_ip(2, 0))
        proc = settop.spawn("app")
        runtime = OCSRuntime(proc, world.net)
        cli = NameClient(runtime, world.hosts[0].ip, world.params)
        got = world.run_async(cli.resolve("svc/cmgr"))
        assert got == r2

    def test_neighborhood_selector_fails_without_member(self, ns_world):
        world = ns_world
        _, _, client = world.client(world.hosts[0])
        world.run_async(client.ensure_context("svc"))
        world.run_async(client.bind_repl_context("svc/cmgr", "neighborhood"))
        world.run_async(client.bind("svc/cmgr/1",
                                    make_ref(world.hosts[0].ip, port=1)))
        settop = Host(world.kernel, "settop9", kind="settop")
        world.net.attach(settop, settop_ip(9, 0))
        proc = settop.spawn("app")
        runtime = OCSRuntime(proc, world.net)
        cli = NameClient(runtime, world.hosts[0].ip, world.params)
        with pytest.raises(SelectorFailed):
            world.run_async(cli.resolve("svc/cmgr"))

    def test_sameserver_selector(self, ns_world):
        world = ns_world
        _, _, client = world.client(world.hosts[0])
        world.run_async(client.ensure_context("svc"))
        world.run_async(client.bind_repl_context("svc/ras", "sameserver"))
        for host in world.hosts:
            world.run_async(client.bind(f"svc/ras/{host.ip}",
                                        make_ref(host.ip, port=5)))
        # Let the master's multicast reach server 1's replica: reads are
        # local and may lag updates made elsewhere.
        world.kernel.run(until=world.kernel.now + 1.0)
        # A client on server 1 gets the replica on server 1.
        _, _, cli1 = world.client(world.hosts[1], name="c1")
        got = world.run_async(cli1.resolve("svc/ras"))
        assert got.ip == world.hosts[1].ip

    def test_member_contexts_selected_for_deeper_lookup(self, ns_world):
        """Figure 7: bin/vod resolves inside the selected member context."""
        world = ns_world
        _, _, client = world.client(world.hosts[0])
        world.run_async(client.bind_repl_context("bin", "first"))
        world.run_async(client.bind_new_context("bin/1"))
        world.run_async(client.bind_new_context("bin/2"))
        vod1 = make_ref(world.hosts[0].ip, port=11)
        vod2 = make_ref(world.hosts[1].ip, port=22)
        world.run_async(client.bind("bin/1/vod", vod1))
        world.run_async(client.bind("bin/2/vod", vod2))
        got = world.run_async(client.resolve("bin/vod"))
        assert got == vod1  # "first" picks member context 1

    def test_list_replicated_returns_selected(self, ns_world):
        world = ns_world
        _, _, client = world.client(world.hosts[0])
        world.run_async(client.bind_repl_context("rds", "first"))
        r1 = make_ref(world.hosts[0].ip, port=1)
        world.run_async(client.bind("rds/1", r1))
        world.run_async(client.bind("rds/2", make_ref(world.hosts[1].ip, 2)))
        listing = world.run_async(client.list("rds"))
        assert listing == [("1", "leaf", r1)]

    def test_list_repl_returns_all(self, ns_world):
        world = ns_world
        _, _, client = world.client(world.hosts[0])
        world.run_async(client.bind_repl_context("rds", "first"))
        world.run_async(client.bind("rds/1", make_ref(world.hosts[0].ip, 1)))
        world.run_async(client.bind("rds/2", make_ref(world.hosts[1].ip, 2)))
        names = [n for n, _k, _r in world.run_async(client.list_repl("rds"))]
        assert names == ["1", "2"]

    def test_custom_selector_object(self, ns_world):
        """A user-provided Selector object is invoked remotely (Figure 6)."""
        world = ns_world
        from repro.core.naming.selectors import PreferredMemberSelector
        host = world.hosts[2]
        proc = host.spawn("selector-svc")
        runtime = OCSRuntime(proc, world.net)
        sel_ref = runtime.export(PreferredMemberSelector("2"), "Selector")
        _, _, client = world.client(world.hosts[0])
        world.run_async(client.bind_repl_context("rds", "first"))
        r1 = make_ref(world.hosts[0].ip, port=1)
        r2 = make_ref(world.hosts[1].ip, port=2)
        world.run_async(client.bind("rds/1", r1))
        world.run_async(client.bind("rds/2", r2))
        world.run_async(client.bind("rds/selector", sel_ref))
        got = world.run_async(client.resolve("rds"))
        assert got == r2

    def test_empty_replicated_context_fails_selection(self, ns_world):
        world = ns_world
        _, _, client = world.client(world.hosts[0])
        world.run_async(client.bind_repl_context("rds", "first"))
        with pytest.raises(SelectorFailed):
            world.run_async(client.resolve("rds"))

    def test_least_loaded_selector(self, ns_world):
        world = ns_world
        _, _, client = world.client(world.hosts[0])
        world.run_async(client.bind_repl_context("mds", "leastloaded"))
        r1 = make_ref(world.hosts[0].ip, port=1)
        r2 = make_ref(world.hosts[1].ip, port=2)
        world.run_async(client.bind("mds/a", r1))
        world.run_async(client.bind("mds/b", r2))
        world.run_async(client.runtime.invoke(
            client.root, "reportLoadBatch",
            ([("mds", "a", 10.0), ("mds", "b", 2.0)],)))
        got = world.run_async(client.resolve("mds"))
        assert got == r2
