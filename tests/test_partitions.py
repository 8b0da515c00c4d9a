"""Network partition tests: majority rules in the name service.

The paper's claim (section 4.6): "the name service is available as long
as a majority of replicas are alive."  The flip side we enforce: a
master partitioned into a minority must stop serving updates (it steps
down after losing quorum contact), so the majority side's new master is
the only writer -- no split brain.
"""

import pytest

from repro.core.naming import NoMaster
from repro.ocs import ObjectRef, ServiceUnavailable

from tests.helpers import NsWorld


def make_ref(ip, port=7777):
    return ObjectRef(ip=ip, port=port, incarnation=(0.0, 99),
                     type_id="TestEcho", object_id="")


def partition_master_away(world):
    master = world.settle(30.0)
    assert master is not None
    minority = {master.ip}
    majority = {ip for ip in world.replica_ips if ip != master.ip}
    master.epoch_at_partition = master.epoch
    world.net.partition(minority, majority)
    return master, minority, majority


class TestQuorum:
    def test_majority_side_elects_new_master(self):
        world = NsWorld(n_servers=3, seed=41)
        old_master, _minority, majority = partition_master_away(world)
        world.kernel.run(until=world.kernel.now + 40.0)
        new_masters = [r for r in world.replicas.values()
                       if r.role == "master" and r.ip in majority]
        assert len(new_masters) == 1
        # A higher epoch than the partitioned-away master held: the
        # isolated node may have inflated its own counter with futile
        # candidacies, so compare against the epoch at partition time.
        assert new_masters[0].epoch > old_master.epoch_at_partition

    def test_minority_master_steps_down(self):
        world = NsWorld(n_servers=3, seed=42)
        old_master, _minority, _majority = partition_master_away(world)
        world.kernel.run(until=world.kernel.now + 40.0)
        # The isolated ex-master no longer believes it is master.
        assert old_master.role != "master"

    def test_minority_rejects_updates_majority_accepts(self):
        world = NsWorld(n_servers=3, seed=43)
        old_master, minority, majority = partition_master_away(world)
        world.kernel.run(until=world.kernel.now + 40.0)
        minority_host = world.net.host_at(next(iter(minority)))
        majority_host = world.net.host_at(sorted(majority)[0])
        _, _, minority_client = world.client(minority_host, name="min-c")
        _, _, majority_client = world.client(majority_host, name="maj-c")
        # Majority side: updates flow.
        world.run_async(majority_client.bind_new_context("part"))
        world.run_async(majority_client.bind("part/x",
                                             make_ref(majority_host.ip)))
        # Minority side: updates refused (no reachable master).
        with pytest.raises((NoMaster, ServiceUnavailable)):
            world.run_async(minority_client.bind_new_context("rogue"))

    def test_minority_still_serves_stale_reads(self):
        """Reads never require the master (section 4.6)."""
        world = NsWorld(n_servers=3, seed=44)
        master = world.settle()
        _, _, client = world.client(master.process.host, name="writer")
        world.run_async(client.bind_new_context("pre"))
        world.run_async(client.bind("pre/x", make_ref(master.ip)))
        world.kernel.run(until=world.kernel.now + 2.0)
        _master, minority, _majority = partition_master_away(world)
        world.kernel.run(until=world.kernel.now + 30.0)
        minority_host = world.net.host_at(next(iter(minority)))
        _, _, reader = world.client(minority_host, name="min-reader")
        got = world.run_async(reader.resolve("pre/x"))
        assert got.ip == master.ip

    def test_heal_reconverges_to_one_master(self):
        world = NsWorld(n_servers=3, seed=45)
        _old, _minority, majority = partition_master_away(world)
        world.kernel.run(until=world.kernel.now + 40.0)
        # Write on the majority side while partitioned.
        maj_host = world.net.host_at(sorted(majority)[0])
        _, _, client = world.client(maj_host, name="maj-w")
        world.run_async(client.bind_new_context("healed"))
        world.net.heal_partitions()
        world.kernel.run(until=world.kernel.now + 40.0)
        masters = [r for r in world.replicas.values()
                   if r.role == "master" and r.process.alive]
        assert len(masters) == 1
        # Everyone converged to the same state, including the ex-minority.
        seqs = {r.changelog.seq for r in world.replicas.values()
                if r.process.alive}
        assert len(seqs) == 1
        for r in world.replicas.values():
            if r.process.alive:
                assert r.store.exists("healed")
