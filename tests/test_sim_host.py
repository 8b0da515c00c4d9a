"""Unit tests for hosts, processes, and the failure model."""

import pytest

from repro.sim import CancelledError, Host, Kernel, ProcessExit
from repro.sim.host import Disk


@pytest.fixture
def kernel():
    return Kernel()


@pytest.fixture
def host(kernel):
    return Host(kernel, "forge")


class TestProcessLifecycle:
    def test_spawn_gives_unique_pids(self, host):
        a = host.spawn("svc-a")
        b = host.spawn("svc-b")
        assert a.pid != b.pid

    def test_incarnation_unique_per_restart(self, kernel, host):
        first = host.spawn("mms")
        first_inc = first.incarnation
        first.kill()
        kernel.run(until=1.0)
        second = host.spawn("mms")
        assert second.incarnation != first_inc

    def test_kill_cancels_tasks(self, kernel, host):
        proc = host.spawn("svc")
        state = {"interrupted": False}

        async def loop():
            try:
                await kernel.sleep(1000.0)
            except CancelledError:
                state["interrupted"] = True
                raise

        proc.create_task(loop())
        kernel.call_later(1.0, proc.kill)
        kernel.run(until=5.0)
        assert state["interrupted"]
        assert not proc.alive

    def test_kill_is_idempotent(self, host):
        proc = host.spawn("svc")
        proc.kill()
        proc.kill()
        assert proc.exit_status == "killed"

    def test_children_die_with_parent(self, host):
        ssc = host.spawn("ssc")
        child = host.spawn("mds", parent=ssc)
        grandchild = host.spawn("helper", parent=child)
        ssc.kill()
        assert not child.alive
        assert not grandchild.alive
        assert "parent" in child.exit_status

    def test_exit_watcher_fires(self, kernel, host):
        proc = host.spawn("svc")
        seen = []
        proc.on_exit(lambda p: seen.append(p.pid))
        proc.kill()
        assert seen == [proc.pid]

    def test_exit_watcher_on_dead_process_fires_soon(self, kernel, host):
        proc = host.spawn("svc")
        proc.kill()
        seen = []
        proc.on_exit(lambda p: seen.append("late"))
        kernel.run()
        assert seen == ["late"]

    def test_task_list_is_pruned_amortised_and_kill_sees_only_pending(
            self, kernel, host):
        proc = host.spawn("svc")

        async def quick():
            return None

        async def forever():
            await kernel.sleep(1000.0)

        pending = [proc.create_task(forever()) for _ in range(3)]
        for _ in range(500):
            proc.create_task(quick())
            kernel.run(until=kernel.now + 0.001)
        # Finished tasks are dropped once the list has doubled, so the
        # list stays bounded without a scan on every spawn ...
        assert len(proc._tasks) <= 16
        proc.create_task(quick())
        kernel.run(until=kernel.now + 0.001)
        assert any(t.done() for t in proc._tasks)   # ... not eagerly
        proc.kill()
        # ... and death records exactly the tasks that were pending.
        assert proc.cancelled_tasks == pending

    def test_create_task_on_dead_process_raises(self, host):
        proc = host.spawn("svc")
        proc.kill()

        async def noop():
            return None

        with pytest.raises(ProcessExit):
            proc.create_task(noop())

    def test_start_task_on_dead_process_raises(self, host):
        proc = host.spawn("svc")
        proc.kill()

        async def noop():
            return None

        with pytest.raises(ProcessExit):
            proc.start_task(noop())

    def test_start_task_tracks_only_what_suspended(self, kernel, host):
        proc = host.spawn("svc")

        async def quick():
            return None

        async def brief():
            await kernel.sleep(0.0005)

        async def forever():
            await kernel.sleep(1000.0)

        assert proc.start_task(quick()) is None
        assert proc._tasks == []
        pending = [proc.start_task(forever()) for _ in range(3)]
        assert all(t.name == "svc" for t in pending)
        # The adopted tasks go through create_task's amortised prune ...
        for _ in range(40):
            proc.start_task(brief())
            kernel.run(until=kernel.now + 0.001)
        assert len(proc._tasks) <= 16
        proc.kill()
        # ... and die with the process like any created task.
        assert proc.cancelled_tasks == pending
        kernel.run(until=kernel.now + 1.0)
        assert all(t.cancelled() for t in pending)

    def test_start_task_whose_first_step_kills_its_process(
            self, kernel, host):
        proc = host.spawn("svc")

        async def last_words():
            proc.kill()
            await kernel.sleep(1.0)

        task = proc.start_task(last_words())
        assert proc.cancelled_tasks == [task]
        kernel.run(until=5.0)
        assert task.cancelled()


class TestHostFailure:
    def test_crash_kills_all_processes(self, host):
        procs = [host.spawn(f"svc-{i}") for i in range(3)]
        host.crash()
        assert not host.up
        assert all(not p.alive for p in procs)

    def test_spawn_on_down_host_raises(self, host):
        host.crash()
        with pytest.raises(ProcessExit):
            host.spawn("svc")

    def test_boot_runs_hooks(self, host):
        booted = []
        host.add_boot_hook(lambda h: booted.append(h.boot_count))
        host.crash()
        host.boot()
        assert host.up
        assert booted == [2]

    def test_boot_on_up_host_is_noop(self, host):
        host.boot()
        assert host.boot_count == 1

    def test_disk_survives_crash(self, host):
        host.disk.write("movies/T2", b"data")
        host.crash()
        host.boot()
        assert host.disk.read("movies/T2") == b"data"

    def test_find_process(self, host):
        host.spawn("ns")
        assert host.find_process("ns") is not None
        assert host.find_process("absent") is None
        host.find_process("ns").kill()
        assert host.find_process("ns") is None


class TestDisk:
    def test_read_default(self):
        disk = Disk()
        assert disk.read("missing", default=42) == 42

    def test_write_read_delete(self):
        disk = Disk()
        disk.write("k", "v")
        assert "k" in disk
        disk.delete("k")
        assert "k" not in disk

    def test_keys_sorted(self):
        disk = Disk()
        disk.write("b", 1)
        disk.write("a", 2)
        assert disk.keys() == ["a", "b"]

    def test_keys_by_prefix_match_a_filter_of_all_keys(self):
        disk = Disk()
        for key in ["m/b", "m/a", "mm/a", "m", "n/a", "m/gone", "m/dead"]:
            disk.write(key, 1)
        disk.delete("m/gone")
        disk.write_barrier = True       # buffered writes and tombstones
        disk.write("m/new", 2)
        disk.write("n/new", 2)
        disk.delete("m/dead")
        assert disk.keys("m/") == ["m/a", "m/b", "m/new"]
        for prefix in ["", "m", "m/", "mm/", "n/", "absent/"]:
            assert disk.keys(prefix) == [k for k in disk.keys()
                                         if k.startswith(prefix)]
