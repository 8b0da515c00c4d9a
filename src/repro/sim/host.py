"""Hosts and processes: the units of failure.

The paper's failure model has three grains (section 3.5): a *process*
(service or settop application) can crash, a *server machine* can crash,
and a *settop* can crash or be powered off.  This module models the first
two; settops are just hosts with a single-process kernel.

Key semantics reproduced from the paper:

- Killing a process kills all processes it spawned (section 6.1: "If the
  SSC crashes, all services that have been started by the SSC will exit as
  well", because the SSC is their ``wait()``-ing parent).
- Each process carries an *incarnation timestamp*; object references minted
  by an earlier incarnation are invalid after restart (section 3.2.1).
- Anything a process held in memory dies with it; only the host's
  :class:`Disk` survives, which is what makes the "stateless recovery"
  design of the RAS and MMS meaningful.
"""

from __future__ import annotations

import copy
from bisect import bisect_left, insort
from typing import Any, Callable, Dict, List, Optional

from repro.sim.errors import SimError
from repro.sim.kernel import Kernel, Task


class ProcessExit(SimError):
    """Raised when interacting with a process that has exited."""


class DiskWedged(SimError):
    """The disk is wedged: every I/O hangs forever (modelled as a raise).

    A wedged drive is indistinguishable from an infinitely slow one, so
    the simulator collapses the wedged/slow-I/O spectrum into this one
    fail-visible mode: any read/write/sync raises until the chaos layer
    unwedges the disk (``heal_all`` or a timed ``disk_wedge`` fault).
    Crossing an OCS call boundary this re-materialises client-side as a
    retryable unavailability (see ``repro.ocs.exceptions.DiskWedged``).
    """


class CorruptBlob:
    """What a reader finds where a torn or bit-rotten write landed.

    Deliberately not a dict/list/tuple: consumers that expect structured
    state must notice (checksum mismatch or an isinstance check) and take
    their recovery path instead of silently indexing into garbage.
    """

    __slots__ = ("key", "reason")

    def __init__(self, key: str, reason: str):
        self.key = key
        self.reason = reason

    def __repr__(self) -> str:
        return f"<CorruptBlob {self.key!r} ({self.reason})>"


class _Tombstone:
    """Buffered-delete marker inside a write barrier."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<tombstone>"


_TOMBSTONE = _Tombstone()

_ATOMS = frozenset((str, int, float, bool, bytes, type(None)))


def _frozen(value: Any) -> bool:
    """Whether ``copy.deepcopy(value)`` is ``value`` itself: an exact
    atom, or an exact tuple of frozen items (deepcopy hands such a tuple
    back uncopied).  Subclasses, ``NamedTuple``s and containers are not
    frozen."""
    cls = type(value)
    return cls in _ATOMS or (cls is tuple and all(map(_frozen, value)))


class Process:
    """A crashable unit of execution on a :class:`Host`.

    Tasks created through :meth:`create_task` or :meth:`start_task` are
    cancelled when the process is killed; exit watchers fire afterwards
    (the SSC and the OCS transport both register watchers).
    """

    def __init__(self, host: "Host", name: str, parent: Optional["Process"] = None):
        kernel = host.kernel
        kernel.last_pid += 1
        self.pid = kernel.last_pid
        self.host = host
        self.name = name
        self.parent = parent
        self.children: List["Process"] = []
        self.alive = True
        self.exit_status: Optional[str] = None
        # Snapshot of the tasks cancelled at death, retained so a chaos
        # monitor can verify none of them is still pending after a crash
        # (a leaked Future would keep serving from a dead incarnation).
        self.cancelled_tasks: List[Task] = []
        # Incarnation: (boot time, pid) -- unique even when two processes
        # start at the same simulated instant.
        self.incarnation = (kernel.now, self.pid)
        self._tasks: List[Task] = []
        self._prune_at = 16
        self._exit_watchers: List[Callable[["Process"], None]] = []
        # Arbitrary per-process attachments (the OCS runtime lives here).
        self.attachments: Dict[str, Any] = {}
        if parent is not None:
            parent.children.append(self)

    @property
    def kernel(self) -> Kernel:
        return self.host.kernel

    def create_task(self, coro, name: Optional[str] = None) -> Task:
        if not self.alive:
            coro.close()
            raise ProcessExit(f"process {self.name}({self.pid}) has exited")
        task = self.kernel.create_task(coro, name=f"{self.name}:{name or 'task'}")
        self._track(task)
        return task

    def start_task(self, coro) -> Optional[Task]:
        """Fire-and-forget :meth:`Kernel.start_task`: ``None`` when the
        first step finished ``coro``, else the detached, tracked Task
        (named after the process; the caller may refine ``task.name``)."""
        if not self.alive:
            coro.close()
            raise ProcessExit(f"process {self.name}({self.pid}) has exited")
        task = self.kernel.start_task(coro, self.name)
        if task is not None:
            self._track(task.detach())
            if not self.alive:
                # The first step killed this process, unseen by kill().
                task.cancel()
                self.cancelled_tasks.append(task)
        return task

    def _track(self, task: Task) -> None:
        self._tasks.append(task)
        if len(self._tasks) >= self._prune_at:
            # Amortised: drop finished tasks only once the list has
            # doubled since the last prune, not on every spawn.
            self._tasks = [t for t in self._tasks if not t.done()]
            self._prune_at = max(16, 2 * len(self._tasks))

    def on_exit(self, fn: Callable[["Process"], None]) -> None:
        """Register a watcher called (once) after this process dies."""
        if not self.alive:
            self.kernel.call_soon(fn, self)
        else:
            self._exit_watchers.append(fn)

    def kill(self, status: str = "killed") -> None:
        """Terminate the process, its tasks, and (recursively) its children."""
        if not self.alive:
            return
        self.alive = False
        self.exit_status = status
        for child in list(self.children):
            child.kill(status=f"parent {self.name} exited")
        tasks = [t for t in self._tasks if not t.done()]
        self._tasks = []
        for task in tasks:
            task.cancel()
        self.cancelled_tasks = tasks
        if self.parent is not None and self in self.parent.children:
            self.parent.children.remove(self)
        watchers, self._exit_watchers = self._exit_watchers, []
        for fn in watchers:
            fn(self)
        self.host._forget(self)

    def exit(self, status: str = "exited") -> None:
        """Voluntary termination (same teardown as :meth:`kill`)."""
        self.kill(status=status)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else f"dead({self.exit_status})"
        return f"<Process {self.name} pid={self.pid} on {self.host.name} {state}>"


class Disk:
    """Host-attached storage that survives process crashes and reboots.

    The database service keeps its tables here; the MDS keeps movie files
    here.  A *host* crash does not lose the disk (the paper's servers kept
    their movies across reboots).

    Values are isolated by value, not by reference: :meth:`write` stores a
    deep copy and :meth:`read` returns one, so a caller mutating an object
    after writing it cannot retroactively "update" the disk (and a reader
    cannot corrupt the stored copy in place).  A frozen value (see
    :func:`_frozen`) is passed as is: it is what ``deepcopy`` returns.

    The storage *fault model* is entirely opt-in so that default runs stay
    byte-identical to the golden traces:

    - ``write_barrier``: writes land in a volatile buffer until
      :meth:`sync` flushes them to the durable image; a host crash drops
      the unsynced buffer (power-failure semantics).  Off by default --
      writes are durable immediately and :meth:`sync` is a counted no-op.
    - ``arm_torn_write``: the next crash garbles (rather than cleanly
      drops) the most recently buffered key -- the classic torn sector.
    - ``corrupt``: bit-rot; replaces a durable value with a
      :class:`CorruptBlob` in place.
    - ``wedged``: every I/O raises :class:`DiskWedged` until healed.

    Counters (``writes``/``syncs``/``lost_writes``/``torn_writes``/
    ``corrupted_keys``) feed the metrics layer; bumping them emits no
    trace events.
    """

    def __init__(self) -> None:
        self._data: Dict[str, Any] = {}     # durable (synced) image
        self._buffer: Dict[str, Any] = {}   # written but not yet synced
        self._keys: List[str] = []          # sorted keys of both images
        self.write_barrier = False
        self.wedged = False
        self._torn_armed = False
        self._last_buffered: Optional[str] = None
        self.writes = 0
        self.syncs = 0
        self.lost_writes = 0
        self.torn_writes = 0
        self.corrupted_keys = 0

    def _check_wedged(self) -> None:
        if self.wedged:
            raise DiskWedged("disk is wedged")

    def read(self, key: str, default: Any = None) -> Any:
        self._check_wedged()
        # A buffered tombstone and an absent key both read as ``default``.
        value = (self._buffer[key] if key in self._buffer
                 else self._data.get(key, _TOMBSTONE))
        if value is _TOMBSTONE:
            return default
        return value if _frozen(value) else copy.deepcopy(value)

    def write(self, key: str, value: Any) -> None:
        self._check_wedged()
        self.writes += 1
        if not _frozen(value):
            value = copy.deepcopy(value)
        if key not in self._data and key not in self._buffer:
            insort(self._keys, key)
        if self.write_barrier:
            self._buffer[key] = value
            self._last_buffered = key
        else:
            self._data[key] = value

    def delete(self, key: str) -> None:
        self._check_wedged()
        if self.write_barrier:
            if key not in self._data and key not in self._buffer:
                insort(self._keys, key)
            self._buffer[key] = _TOMBSTONE
            self._last_buffered = key
        elif key in self._data:
            del self._data[key]
            if key not in self._buffer:
                self._unindex(key)

    def _unindex(self, key: str) -> None:
        """Drop a key that left both images from ``_keys``."""
        del self._keys[bisect_left(self._keys, key)]

    def sync(self) -> None:
        """Flush buffered writes to the durable image (fsync semantics).

        With the write barrier off this is a counted no-op, so durable
        consumers may call it unconditionally on their ack paths.
        """
        self._check_wedged()
        self.syncs += 1
        if not self._buffer:
            return
        for key, value in self._buffer.items():
            if value is _TOMBSTONE:
                self._data.pop(key, None)
                self._unindex(key)
            else:
                self._data[key] = value
        self._buffer.clear()
        self._last_buffered = None

    def keys(self, prefix: str = "") -> List[str]:
        """Live keys starting with ``prefix``, sorted, in O(log n +
        matches); a fresh list, as callers delete while they walk it."""
        self._check_wedged()
        keys = self._keys
        start = end = bisect_left(keys, prefix)
        while end < len(keys) and keys[end].startswith(prefix):
            end += 1
        live = keys[start:end]
        buffer = self._buffer
        if buffer:
            live = [key for key in live if buffer.get(key) is not _TOMBSTONE]
        return live

    def __contains__(self, key: str) -> bool:
        self._check_wedged()
        if key in self._buffer:
            return self._buffer[key] is not _TOMBSTONE
        return key in self._data

    # -- fault surface (driven by the chaos layer) -----------------------

    def arm_torn_write(self) -> None:
        """The next crash tears the most recently buffered write.

        A torn write needs a write in flight, so arming the tear also
        arms the write barrier.
        """
        self.write_barrier = True
        self._torn_armed = True

    def corrupt(self, key: str) -> bool:
        """Bit-rot: garble the stored value of ``key`` in place.

        Returns False if the key does not exist (nothing to rot).
        """
        present = (key in self._buffer and self._buffer[key] is not _TOMBSTONE
                   ) or key in self._data
        if not present:
            return False
        self._buffer.pop(key, None)
        self._data[key] = CorruptBlob(key, "bit rot")
        self.corrupted_keys += 1
        return True

    def heal(self) -> None:
        """End active disturbance: unwedge and disarm the pending tear.

        The write barrier stays as armed -- buffered state remains
        readable and only a *crash* (which the healed schedule no longer
        contains) could lose it.
        """
        self.wedged = False
        self._torn_armed = False

    def crash(self) -> None:
        """Power loss: unsynced buffered writes are gone.

        If a torn write was armed, the most recently buffered key lands
        garbled on the durable image instead of vanishing cleanly.
        """
        if not self._buffer:
            self._torn_armed = False
            return
        lost = len(self._buffer)
        if self._torn_armed and self._last_buffered in self._buffer:
            value = self._buffer[self._last_buffered]
            if value is not _TOMBSTONE:
                self._data[self._last_buffered] = CorruptBlob(
                    self._last_buffered, "torn write")
                self.torn_writes += 1
                lost -= 1
        self._torn_armed = False
        self.lost_writes += lost
        for key in self._buffer:
            if key not in self._data:
                self._unindex(key)
        self._buffer.clear()
        self._last_buffered = None

    def counters(self) -> Dict[str, int]:
        """Snapshot of the I/O counters for the metrics layer."""
        return {"writes": self.writes, "syncs": self.syncs,
                "lost_writes": self.lost_writes,
                "torn_writes": self.torn_writes,
                "corrupted_keys": self.corrupted_keys,
                "unsynced": len(self._buffer)}


class Host:
    """A machine: a server (SGI Challenge in the paper) or a settop.

    ``host.crash()`` kills every process; ``host.boot()`` brings the host
    back up and runs registered boot hooks (the cluster builder installs an
    init hook that restarts the SSC, reproducing section 6.3 step 1).
    """

    def __init__(self, kernel: Kernel, name: str, kind: str = "server"):
        self.kernel = kernel
        self.name = name
        self.kind = kind
        self.ip: Optional[str] = None  # assigned when attached to a network
        self.up = True
        self.disk = Disk()
        self.processes: List[Process] = []
        self._boot_hooks: List[Callable[["Host"], None]] = []
        self.boot_count = 1

    def spawn(self, name: str, parent: Optional[Process] = None) -> Process:
        if not self.up:
            raise ProcessExit(f"host {self.name} is down")
        proc = Process(self, name, parent=parent)
        self.processes.append(proc)
        return proc

    def crash(self) -> None:
        """Fail-stop the machine: every process dies at once."""
        if not self.up:
            return
        self.up = False
        for proc in list(self.processes):
            proc.kill(status="host crashed")
        self.processes = []
        self.disk.crash()

    def boot(self) -> None:
        """Bring a crashed host back up and run its boot hooks (init)."""
        if self.up:
            return
        self.up = True
        self.boot_count += 1
        for hook in list(self._boot_hooks):
            hook(self)

    def add_boot_hook(self, fn: Callable[["Host"], None]) -> None:
        self._boot_hooks.append(fn)

    def find_process(self, name: str) -> Optional[Process]:
        for proc in self.processes:
            if proc.name == name and proc.alive:
                return proc
        return None

    def _forget(self, proc: Process) -> None:
        if proc in self.processes:
            self.processes.remove(proc)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.up else "down"
        return f"<Host {self.name} ({self.kind}) {state} ip={self.ip}>"
