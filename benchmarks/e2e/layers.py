"""Where host time goes: the table of layers and the tracer behind it.

Every layer is measured from outside the program.  ``install()`` wraps
the public entry points listed in the tables below (class attributes are
swapped for timing wrappers; the program's files are not touched) and
attributes every kernel callback and every task's coroutine to the module
that owns it.  Spans in the program itself are ROADMAP item 3.

A span has a name, a layer, a start, an end and a parent.  A layer's self
time is the duration of its spans minus what their child spans cover;
with one single-threaded event loop nothing overlaps, so self times add
up to the traced wall time and a faster layer can save at most its own
share.  Tracing reads only the wall clock: a traced run must reproduce
the untraced run's ``sim_digest``.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

import repro.idl.types
from repro.chaos.injector import FaultInjector
from repro.chaos.monitors import MonitorBus
from repro.core.naming.cache import BindingCache
from repro.core.naming.client import NameClient
from repro.core.naming.replica import NameReplicaProcess
from repro.core.ras.service import ResourceAuditService
from repro.core.rebind import RebindingProxy
from repro.core.replication import ChangeLog
from repro.db.service import DatabaseService
from repro.net.link import Link
from repro.net.network import Network
from repro.ocs.admission import AdmissionGate
from repro.ocs.replycache import ReplyCache
from repro.ocs.runtime import OCSRuntime
from repro.sim.host import Disk
from repro.sim.kernel import Kernel
from repro.sim.trace import TraceLog
from repro.sim.wheel import TimerHeap, TimerWheel

#: module prefix -> layer that owns its kernel callbacks, coroutines,
#: servants and port handlers.  Longest prefix wins.
MODULE_LAYERS = {
    "repro.sim.kernel": "sim.kernel",
    "repro.sim.wheel": "sim.wheel",
    "repro.sim.host": "sim.host",
    "repro.sim.trace": "sim.trace",
    "repro.net.link": "net.link",
    "repro.net": "net.network",
    "repro.idl": "idl",
    "repro.ocs.admission": "ocs.admission",
    "repro.ocs.replycache": "ocs.replycache",
    "repro.ocs": "ocs.runtime.server",
    "repro.core.rebind": "core.rebind",
    "repro.core.naming": "core.naming",
    "repro.core.replication": "core.replication",
    "repro.core.ras": "core.ras",
    "repro.core.control": "core.control",
    "repro.db": "db",
    "repro.services": "services",
    "repro.auth": "services",
    "repro.settop": "settop",
    "repro.chaos.monitors": "chaos.monitors",
    "repro.chaos": "chaos.injector",
    # the load generators: the program's and the benchmark's own files
    "repro.workloads": "workloads",
    "repro.cluster": "workloads",
    "workloads": "workloads",
    "child": "workloads",
}
OTHER = "other"          # owner not in the table: not counted as covered

#: in repro.ocs.runtime, the work done on behalf of the calling side
OCS_CLIENT_SIDE = {"OCSRuntime.invoke", "OCSRuntime._on_timeout"}

#: plain methods timed as one span per call
SYNC_ENTRY_POINTS: Dict[str, List[Tuple[type, str]]] = {
    "sim.kernel": [(Kernel, "run"), (Kernel, "run_until_complete")],
    "sim.wheel": [(cls, name) for cls in (TimerWheel, TimerHeap)
                  for name in ("push", "pop", "peek", "note_cancelled")],
    "sim.host.disk": [(Disk, "read"), (Disk, "write"), (Disk, "delete"),
                      (Disk, "sync")],
    "sim.trace": [(TraceLog, "emit")],
    "net.network": [(Network, "send"), (Network, "broadcast"),
                    (Network, "send_reserved")],
    "net.link": [(Link, "occupy")],
    "ocs.runtime.client": [(OCSRuntime, "invoke")],
    "ocs.admission": [(AdmissionGate, "try_admit"), (AdmissionGate, "begin"),
                      (AdmissionGate, "done")],
    "ocs.replycache": [(ReplyCache, "begin"), (ReplyCache, "complete")],
    "core.replication": [(ChangeLog, "append"), (ChangeLog, "record")],
    "db": [(DatabaseService, "get"), (DatabaseService, "apply_write")],
    "chaos.injector": [(FaultInjector, "inject")],
    "chaos.monitors": [(MonitorBus, "probe"), (MonitorBus, "finish")],
}

#: coroutine methods: every resume is one span
ASYNC_ENTRY_POINTS: Dict[str, List[Tuple[type, str]]] = {
    "core.rebind": [(RebindingProxy, "call")],
    "core.naming": [(NameClient, "resolve"), (BindingCache, "resolve")],
}

#: metric -> (class, counter attribute): the layer's own public counters,
#: summed over every instance that lived during the run phase.
INSTANCE_COUNTERS: Dict[str, Tuple[type, str]] = {
    "ocs.runtime.calls_sent": (OCSRuntime, "calls_sent"),
    "ocs.runtime.calls_served": (OCSRuntime, "calls_served"),
    "ocs.runtime.deadline_rejects": (OCSRuntime, "deadline_rejects"),
    "ocs.admission.admitted": (AdmissionGate, "admitted"),
    "ocs.admission.shed": (AdmissionGate, "shed_count"),
    "ocs.replycache.executions": (ReplyCache, "executions"),
    "ocs.replycache.replays": (ReplyCache, "replays"),
    "core.rebind.rebinds": (RebindingProxy, "rebinds"),
    "core.naming.cache_hits": (BindingCache, "hits"),
    "core.naming.cache_misses": (BindingCache, "misses"),
    "core.naming.resolves_served": (NameReplicaProcess, "resolves_served"),
    "core.naming.updates_applied": (NameReplicaProcess, "updates_applied"),
    "core.naming.catch_ups": (NameReplicaProcess, "catch_ups"),
    "core.replication.compactions": (ChangeLog, "compactions"),
    "db.catch_up_ops": (DatabaseService, "catch_up_ops"),
    "core.ras.peer_polls": (ResourceAuditService, "peer_polls_sent"),
}

#: metric -> entry points whose calls it counts
SPAN_COUNTERS = {
    "sim.kernel.timers_armed": ("TimerWheel.push", "TimerHeap.push"),
    "sim.kernel.timers_cancelled": ("TimerWheel.note_cancelled",
                                    "TimerHeap.note_cancelled"),
    "sim.kernel.tasks": ("Kernel.create_task",),
    "sim.host.disk_reads": ("Disk.read",),
    "sim.host.disk_writes": ("Disk.write",),
    "sim.host.disk_syncs": ("Disk.sync",),
    "sim.trace.emits": ("TraceLog.emit",),
    "net.link.occupies": ("Link.occupy",),
    "idl.size_calls": ("estimated_size",),
    "ocs.runtime.timeouts": ("OCSRuntime._on_timeout",),
    "core.rebind.calls": ("RebindingProxy.call",),
    "core.replication.appends": ("ChangeLog.append", "ChangeLog.record"),
    "db.reads": ("DatabaseService.get",),
    "db.writes": ("DatabaseService.apply_write",),
}

#: metric -> the layer whose self time it is
SELF_TIME = {
    "sim.kernel.self_s": "sim.kernel",
    "sim.wheel.self_s": "sim.wheel",
    "sim.host.disk_self_s": "sim.host.disk",
    "sim.trace.self_s": "sim.trace",
    "net.network.self_s": "net.network",
    "net.link.self_s": "net.link",
    "idl.self_s": "idl",
    "ocs.runtime.client_self_s": "ocs.runtime.client",
    "ocs.runtime.server_self_s": "ocs.runtime.server",
    "ocs.admission.self_s": "ocs.admission",
    "ocs.replycache.self_s": "ocs.replycache",
    "core.rebind.self_s": "core.rebind",
    "core.naming.self_s": "core.naming",
    "core.replication.self_s": "core.replication",
    "db.self_s": "db",
    "core.ras.self_s": "core.ras",
    "core.control.self_s": "core.control",
    "services.self_s": "services",
    "settop.self_s": "settop",
    "chaos.monitors_self_s": "chaos.monitors",
    "chaos.injector_self_s": "chaos.injector",
    "workloads.self_s": "workloads",
}

MAX_KEPT_SPANS = 50_000      # raw spans kept for the JSONL dump


def layer_of_module(module: str) -> str:
    while module:
        layer = MODULE_LAYERS.get(module)
        if layer is not None:
            return layer
        module = module.rpartition(".")[0]
    return OTHER


class Tracer:
    """Span stack, per-layer self time, per-name call counts."""

    def __init__(self) -> None:
        self.enabled = False
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}      # spans closed, by name
        self.started: Dict[str, int] = {}    # coroutines started, by name
        self.events = 0              # kernel callbacks fired
        self.served: Dict[str, int] = {}   # servant calls by layer
        self.span_count = 0
        self.own_spans: Dict[str, int] = {}    # spans closed, by layer
        self.child_spans: Dict[str, int] = {}  # ... by their parent's layer
        self.span_cost = (0.0, 0.0)  # see measure_span_cost()
        self.kept: List[tuple] = []  # (id, name, layer, start, end, parent)
        self.wall_s = 0.0
        self.counters: Dict[str, int] = {}
        self.peak_queue = 0
        self._stack: List[list] = []
        self._owners: Dict[Any, Tuple[str, str]] = {}
        self._instances: Dict[type, list] = {}
        self._before: Dict[str, int] = {}
        self._started = 0.0
        self._excluded = 0.0

    # -- spans ----------------------------------------------------------

    def enter(self, layer: str, name: str) -> None:
        stack = self._stack
        parent = stack[-1][0] if stack else -1
        stack.append([self.span_count, name, layer, parent, 0.0,
                      perf_counter()])
        self.span_count += 1

    def exit(self) -> None:
        end = perf_counter()
        span_id, name, layer, parent, children, start = self._stack.pop()
        duration = end - start
        self.self_s[layer] = self.self_s.get(layer, 0.0) + duration - children
        self.calls[name] = self.calls.get(name, 0) + 1
        self.own_spans[layer] = self.own_spans.get(layer, 0) + 1
        if self._stack:
            above = self._stack[-1]
            above[4] += duration
            self.child_spans[above[2]] = self.child_spans.get(above[2], 0) + 1
        if span_id < MAX_KEPT_SPANS:
            self.kept.append((span_id, name, layer, start, end, parent))

    def measure_span_cost(self, calls: int = 20_000) -> Tuple[float, float]:
        """What wrapping one call in a span costs, in seconds, and where
        the cost lands: (the part between the span's two clock reads,
        which its own layer is charged; the rest, which its parent's
        layer is charged).  Run on a throwaway tracer; ``run.py`` uses
        the split to estimate what each layer would have cost untraced."""
        def nothing(arg):
            return arg

        timed = self.callback(nothing)
        layer, _name = self.owner(nothing)
        started = perf_counter()
        for _ in range(calls):
            nothing(None)
        bare = (perf_counter() - started) / calls
        self.enabled = True
        self.enter("outer", "outer")
        started = perf_counter()
        for _ in range(calls):
            timed(None)
        each = (perf_counter() - started) / calls
        self.exit()
        inside = self.self_s[layer] / calls - bare
        return inside, each - bare - inside

    def start(self) -> None:
        """The run phase begins: everything outside a wrapped entry point
        is the load generator's own code."""
        self._before = self._instance_sums()
        self.enabled = True
        self._excluded = 0.0
        self._started = perf_counter()
        self.enter("workloads", "run")

    def exclude(self, seconds: float) -> None:
        """Time the harness just spent on itself (its speed probe): not
        the innermost open span's, not the run's."""
        self._stack[-1][4] += seconds
        self._excluded += seconds

    def stop(self) -> None:
        self.exit()
        self.enabled = False
        self.wall_s += perf_counter() - self._started - self._excluded
        for metric, value in self._instance_sums().items():
            self.counters[metric] = (self.counters.get(metric, 0) + value
                                     - self._before.get(metric, 0))
        for gate in self._instances.get(AdmissionGate, []):
            self.peak_queue = max(self.peak_queue, gate.peak_queue)
        # The next run phase (the next drill) builds its own cluster.
        for instances in self._instances.values():
            instances.clear()

    def _instance_sums(self) -> Dict[str, int]:
        return {metric: sum(getattr(inst, attr, 0)
                            for inst in self._instances.get(cls, []))
                for metric, (cls, attr) in INSTANCE_COUNTERS.items()}

    # -- ownership ------------------------------------------------------

    def owner(self, fn: Callable) -> Tuple[str, str]:
        """(layer, span name) of the code behind a callable."""
        while isinstance(fn, functools.partial):
            fn = fn.func
        key = getattr(fn, "__func__", fn)
        found = self._owners.get(key)
        if found is None:
            name = getattr(key, "__qualname__", type(key).__name__)
            layer = layer_of_module(getattr(key, "__module__", "") or "")
            if name in OCS_CLIENT_SIDE:
                layer = "ocs.runtime.client"
            found = self._owners[key] = (layer, name)
        return found

    def callback(self, fn: Callable) -> Callable:
        """Wrap a kernel callback: timed when it fires."""
        layer, name = self.owner(fn)

        def fire(*args):
            if not self.enabled:
                return fn(*args)
            self.events += 1
            self.enter(layer, name)
            try:
                return fn(*args)
            finally:
                self.exit()

        return fire

    # -- output ---------------------------------------------------------

    def span_total(self, names) -> int:
        """Calls of the named entry points.  A coroutine is one call
        however many times it is resumed (each resume is a span)."""
        return sum(self.started.get(name, self.calls.get(name, 0))
                   for name in names)

    def layer_metrics(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for metric, layer in SELF_TIME.items():
            out[metric] = self.self_s.get(layer, 0.0)
        for metric, names in SPAN_COUNTERS.items():
            out[metric] = self.span_total(names)
        out.update(self.counters)
        out["sim.kernel.events"] = self.events
        out["ocs.admission.peak_queue"] = self.peak_queue
        out["services.calls_served"] = self.served.get("services", 0)
        covered = sum(t for layer, t in self.self_s.items() if layer != OTHER)
        out["trace.spans"] = self.span_count
        out["trace.coverage"] = covered / self.wall_s if self.wall_s else 0.0
        return out

    def dump_spans(self, path) -> None:
        """The first MAX_KEPT_SPANS spans, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as out:
            for span_id, name, layer, start, end, parent in sorted(self.kept):
                out.write(json.dumps({
                    "id": span_id, "name": name, "layer": layer,
                    "start": start, "end": end, "parent": parent}) + "\n")


class _TimedCoro:
    """A coroutine whose every resume is one span of ``layer``."""

    __slots__ = ("_coro", "_tracer", "_layer", "_name")

    def __init__(self, coro, tracer: Tracer, layer: str, name: str):
        self._coro = coro
        self._tracer = tracer
        self._layer = layer
        self._name = name

    def send(self, value):
        tracer = self._tracer
        if not tracer.enabled:
            return self._coro.send(value)
        tracer.enter(self._layer, self._name)
        try:
            return self._coro.send(value)
        finally:
            tracer.exit()

    def throw(self, *exc):
        tracer = self._tracer
        if not tracer.enabled:
            return self._coro.throw(*exc)
        tracer.enter(self._layer, self._name)
        try:
            return self._coro.throw(*exc)
        finally:
            tracer.exit()

    def close(self):
        return self._coro.close()

    def __await__(self):
        return self

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)


class _TimedServant:
    """Stands in for a servant at export: its methods are spans of the
    servant's own module, each coroutine resume included."""

    def __init__(self, servant, tracer: Tracer):
        self._servant = servant
        self._tracer = tracer
        self._layer = layer_of_module(type(servant).__module__)

    def __getattr__(self, name: str):
        method = getattr(self._servant, name)
        if not callable(method):
            return method
        tracer, layer = self._tracer, self._layer
        span = f"{type(self._servant).__name__}.{name}"

        def handler(*args):
            if not tracer.enabled:
                return method(*args)
            tracer.served[layer] = tracer.served.get(layer, 0) + 1
            tracer.enter(layer, span)
            try:
                result = method(*args)
            finally:
                tracer.exit()
            if hasattr(result, "__await__"):
                return _TimedCoro(result, tracer, layer, span)
            return result

        self.__dict__[name] = handler    # next lookup skips __getattr__
        return handler


def install() -> Tracer:
    """Swap the table's entry points for timing wrappers; returns the
    (still disabled) tracer.  Call once, before anything is built."""
    tracer = Tracer()
    tracer.span_cost = Tracer().measure_span_cost()

    def span_name(cls: type, attr: str) -> str:
        return f"{cls.__name__}.{attr}"

    def sync(cls: type, attr: str, layer: str) -> None:
        inner, name = getattr(cls, attr), span_name(cls, attr)

        @functools.wraps(inner)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return inner(*args, **kwargs)
            tracer.enter(layer, name)
            try:
                return inner(*args, **kwargs)
            finally:
                tracer.exit()

        setattr(cls, attr, wrapper)

    def coroutine(cls: type, attr: str, layer: str) -> None:
        inner, name = getattr(cls, attr), span_name(cls, attr)

        @functools.wraps(inner)
        def wrapper(*args, **kwargs):
            if tracer.enabled:
                tracer.started[name] = tracer.started.get(name, 0) + 1
            return _TimedCoro(inner(*args, **kwargs), tracer, layer, name)

        setattr(cls, attr, wrapper)

    def track(cls: type) -> None:
        inner = cls.__init__

        @functools.wraps(inner)
        def init(self, *args, **kwargs):
            tracer._instances.setdefault(cls, []).append(self)
            inner(self, *args, **kwargs)

        cls.__init__ = init

    for layer, points in SYNC_ENTRY_POINTS.items():
        for cls, attr in points:
            sync(cls, attr, layer)
    for layer, points in ASYNC_ENTRY_POINTS.items():
        for cls, attr in points:
            coroutine(cls, attr, layer)
    for cls in {cls for cls, _attr in INSTANCE_COUNTERS.values()}:
        track(cls)

    # Kernel scheduling: the call itself is kernel work; the callback is
    # timed when it fires and belongs to the module that owns it.
    def scheduling(attr: str, fn_at: int) -> None:
        inner, name = getattr(Kernel, attr), span_name(Kernel, attr)

        @functools.wraps(inner)
        def wrapper(self, *args, **kwargs):
            args = (args[:fn_at] + (tracer.callback(args[fn_at]),)
                    + args[fn_at + 1:])
            if not tracer.enabled:
                return inner(self, *args, **kwargs)
            tracer.enter("sim.kernel", name)
            try:
                return inner(self, *args, **kwargs)
            finally:
                tracer.exit()

        setattr(Kernel, attr, wrapper)

    scheduling("call_soon", 0)
    scheduling("call_at", 1)
    scheduling("call_later", 1)

    create_task = Kernel.create_task

    @functools.wraps(create_task)
    def timed_create_task(self, coro, name=None):
        frame = getattr(coro, "cr_frame", None)
        module = frame.f_globals.get("__name__", "") if frame else ""
        layer = layer_of_module(module)
        if not isinstance(coro, _TimedCoro):
            span = getattr(coro, "__qualname__", "coroutine")
            coro = _TimedCoro(coro, tracer, layer, span)
        if not tracer.enabled:
            return create_task(self, coro, name)
        tracer.enter("sim.kernel", "Kernel.create_task")
        try:
            return create_task(self, coro, name)
        finally:
            tracer.exit()

    Kernel.create_task = timed_create_task

    # Port handlers: an OCS endpoint serves calls and consumes replies
    # through one handler; the message kind says which side is working.
    bind_port = Network.bind_port

    @functools.wraps(bind_port)
    def timed_bind_port(self, ip, port, handler):
        layer, name = tracer.owner(handler)

        def on_message(msg):
            if not tracer.enabled:
                return handler(msg)
            side = layer
            if layer == "ocs.runtime.server" and not msg.kind.startswith(
                    "rpc.call."):
                side = "ocs.runtime.client"
            tracer.enter(side, name)
            try:
                return handler(msg)
            finally:
                tracer.exit()

        return bind_port(self, ip, port, on_message)

    Network.bind_port = timed_bind_port

    export = OCSRuntime.export

    @functools.wraps(export)
    def timed_export(self, servant, *args, **kwargs):
        return export(self, _TimedServant(servant, tracer), *args, **kwargs)

    OCSRuntime.export = timed_export

    # estimated_size recurses through its defining module's global; only
    # the importers' names are swapped, so one span is one top-level call.
    size = repro.idl.types.estimated_size

    @functools.wraps(size)
    def timed_size(value):
        if not tracer.enabled:
            return size(value)
        tracer.enter("idl", "estimated_size")
        try:
            return size(value)
        finally:
            tracer.exit()

    for name, module in list(sys.modules.items()):
        if (name.startswith("repro.") and module is not repro.idl.types
                and getattr(module, "estimated_size", None) is size):
            module.estimated_size = timed_size
    return tracer
