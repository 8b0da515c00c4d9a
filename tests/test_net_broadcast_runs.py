"""Broadcast runs (ISSUE 14): one kernel event per arrival instant,
an envelope only for receivers that listen.

``Network.broadcast`` used to build one ``Message`` and arm one kernel
timer per receiver.  It now groups consecutive receivers with an equal
arrival delay into a *run* delivered by one event.  That must be
invisible: the per-receiver implementation is kept here, verbatim, as
the differential oracle, and every observable -- handler calls, message
counters, fault rng states, ``hb`` and fault trace events, the message
id stream, even what a handler sees when it sends from inside a
delivery -- has to come out identical.  The count tests then pin what
the change is *for*: timers per broadcast and envelopes per listener.

Arrival asks the network's per-port listener index before it probes a
receiver's interface, so the index must equal the bound ports after any
attach/bind/unbind/detach sequence, and a handler that rebinds later
receivers of its own run must still match the oracle.
"""

from typing import Any, List

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.net import Message, Network, server_ip, settop_ip
from repro.net.message import HEADER_BYTES
from repro.sim import Host, Kernel, SeededRandom
from repro.sim.trace import TraceLog

PORT = 7000


class PerReceiverNetwork(Network):
    """The oracle: ``broadcast`` as it stood before the run model."""

    def broadcast(self, src_ip: str, dst_ips: List[str], port: int,
                  kind: str, payload: Any, payload_bytes: int = 0) -> int:
        src_iface = self._interfaces.get(src_ip)
        if src_iface is None or not src_iface.host.up:
            return 0
        delay = src_iface.out_link.occupy(HEADER_BYTES + payload_bytes)
        reached = 0
        for dst_ip in dst_ips:
            iface = self._interfaces.get(dst_ip)
            if iface is None or not self.reachable(src_ip, dst_ip):
                # Parity with send(): an unknown or partitioned receiver
                # is a dropped datagram, not a silent skip.
                self._account(kind, 0)
                self.messages_dropped += 1
                continue
            self.last_msg_id += 1
            msg = Message(src=(src_ip, 0), dst=(dst_ip, port), kind=kind,
                          payload=payload, payload_bytes=payload_bytes,
                          msg_id=self.last_msg_id)
            # One copy on the wire regardless of population: count the
            # message but charge no per-receiver bytes.
            self._account(kind, 0)
            hb = self.kernel.hb_log
            if hb is not None:
                hb.emit("hb", "send", msg=msg.msg_id,
                        src=f"{src_ip}:0", dst=f"{dst_ip}:{port}")
            receiver_delay = (delay + iface.in_link.latency
                              + self._fault_delay(src_ip, dst_ip))
            self.kernel.call_later(receiver_delay, self._deliver, msg)
            if self._dup:
                # Parity with send(): a receiver behind a duplicating
                # plant segment hears the broadcast's echo too.
                self._maybe_duplicate(msg, receiver_delay)
            reached += 1
        return reached


# ---------------------------------------------------------------------------
# (a) differential test
# ---------------------------------------------------------------------------

LATENCIES = (0.005, 0.02, 0.001)
FAMILIES = ("partition", "loss", "dup", "corrupt", "reorder", "delay",
            "gray")
# Between send and arrival: the earliest arrival is ~1.6 ms after the
# send (uplink serialization + FDDI latency + the shortest downlink).
MIDFLIGHT_AT = 0.0002
MIDFLIGHT = ("crash", "boot", "unbind", "bind", "detach", "heal")

host_specs = st.lists(
    st.fixed_dictionaries({
        "latency": st.sampled_from(LATENCIES),
        "state": st.sampled_from(("up", "up", "up", "down", "unknown")),
        "listens": st.booleans(),
    }), min_size=1, max_size=6)


@st.composite
def scenarios(draw):
    hosts = draw(host_specs)
    indices = st.integers(0, len(hosts) - 1)
    return {
        "hosts": hosts,
        # Receiver list: indices into hosts, repeats allowed.
        "order": draw(st.lists(indices, min_size=1, max_size=10)),
        # Every family singly and in pairs (and the fault-free case).
        "faults": draw(st.dictionaries(
            st.sampled_from(FAMILIES),
            st.tuples(st.lists(indices, min_size=1, max_size=4, unique=True),
                      st.sampled_from((0.4, 1.0))),
            max_size=2)),
        "midflight": draw(st.lists(
            st.tuples(st.sampled_from(MIDFLIGHT), indices), max_size=3)),
        "seed": draw(st.integers(0, 50)),
    }


class World:
    """One network under test plus everything observable about it."""

    def __init__(self, network_cls, scenario):
        self.kernel = Kernel()
        self.log = TraceLog(self.kernel)
        self.kernel.hb_log = self.log
        self.net = network_cls(self.kernel)
        self.net.trace = self.log
        self.calls = []
        self.rngs = {}
        self.server = Host(self.kernel, "server")
        self.net.attach(self.server, server_ip(0))
        self.peer = Host(self.kernel, "peer")
        self.net.attach(self.peer, server_ip(1))
        self.hosts, self.ips = [], []
        for i, spec in enumerate(scenario["hosts"]):
            host = Host(self.kernel, f"settop-{i}", kind="settop")
            ip = settop_ip(0, i)
            self.hosts.append(host)
            self.ips.append(ip)
            if spec["state"] == "unknown":
                continue
            self.net.attach(host, ip, latency=spec["latency"])
            if spec["listens"]:
                self.net.bind_port(ip, PORT, self.on_message)
            if spec["state"] == "down":
                host.crash()
        self.arm_faults(scenario)

    def on_message(self, msg):
        self.calls.append((msg.dst[0], msg.kind, msg.msg_id, msg.corrupted,
                           self.kernel.now, msg.src, msg.payload_bytes))

    def arm_faults(self, scenario):
        net = self.net
        for family, (targets, prob) in scenario["faults"].items():
            ips = [self.ips[i] for i in targets]
            # One rng per family, shared by its targets: the draw order
            # across receivers is part of what must not change.
            rng = self.rngs[family] = SeededRandom(
                scenario["seed"]).stream(family)
            if family == "partition":
                net.partition({self.server.ip}, set(ips))
            elif family == "gray":
                net.set_gray(self.server.ip, 0.01)
            for ip in ips:
                if family == "loss":
                    net.set_loss(ip, prob, rng)
                elif family == "dup":
                    net.set_duplicate(ip, prob, rng)
                elif family == "corrupt":
                    net.set_corrupt(ip, prob, rng)
                elif family == "reorder":
                    net.set_reorder(ip, prob, 0.03, rng)
                elif family == "delay":
                    # 5 ms + 15 ms lands on the 20 ms latency class.
                    net.set_delay(ip, 0.015)

    def midflight(self, action, index):
        host, ip = self.hosts[index], self.ips[index]
        attached = ip in self.net._interfaces
        if action == "crash":
            host.crash()
        elif action == "boot":
            host.boot()
        elif action == "unbind":
            self.net.unbind_port(ip, PORT)
        elif action == "bind" and attached:
            if PORT not in self.net.interface(ip).ports:
                self.net.bind_port(ip, PORT, self.on_message)
        elif action == "detach":
            self.net.detach(ip)
        elif action == "heal":
            self.net.heal_partitions()

    def observe(self, reached):
        net = self.net
        return {
            "reached": reached,
            "calls": self.calls,
            "counters": {name: getattr(net, name) for name in (
                "messages_sent", "messages_delivered", "messages_dropped",
                "messages_lost", "messages_duplicated",
                "messages_reordered", "messages_corrupted")},
            "sent_by_kind": net.sent_by_kind,
            "bytes_by_kind": net.bytes_by_kind,
            "rng_states": {family: rng._rng.getstate()
                           for family, rng in self.rngs.items()},
            "events": [(e.time, e.category, e.event, e.fields)
                       for e in self.log.events],
            "next_msg_id": net.last_msg_id,
            "now": self.kernel.now,
        }


def play(network_cls, scenario):
    world = World(network_cls, scenario)
    kernel, net = world.kernel, world.net
    dst_ips = [world.ips[i] for i in scenario["order"]]
    for action, index in scenario["midflight"]:
        kernel.call_later(MIDFLIGHT_AT, world.midflight, action, index)
    reached = [net.broadcast(world.server.ip, dst_ips, PORT, "boot.params",
                             {"n": 1}, payload_bytes=512)]
    # Unicast traffic and a second carousel share the arrival instants.
    net.send(Message(src=(world.peer.ip, 9), dst=(dst_ips[0], PORT),
                     kind="unicast", payload_bytes=64))
    reached.append(net.broadcast(world.server.ip, list(reversed(dst_ips)),
                                 PORT, "boot.kernel", {"n": 2}))
    kernel.run()
    return world.observe(reached)


@settings(max_examples=300, deadline=None)
@given(scenarios())
def test_runs_are_indistinguishable_from_per_receiver_fanout(scenario):
    expected = play(PerReceiverNetwork, scenario)
    got = play(Network, scenario)
    for key, value in expected.items():
        assert got[key] == value, key


def test_differential_harness_exercises_every_path():
    """The oracle comparison means something only if the scenarios reach
    deliveries, drops, echoes and corruptions at all."""
    scenario = {
        "hosts": [{"latency": 0.005, "state": "up", "listens": True},
                  {"latency": 0.005, "state": "up", "listens": False},
                  {"latency": 0.02, "state": "up", "listens": True},
                  {"latency": 0.005, "state": "down", "listens": True},
                  {"latency": 0.005, "state": "unknown", "listens": False}],
        "order": [0, 1, 2, 3, 4, 0],
        "faults": {"dup": ([0], 1.0), "corrupt": ([2], 1.0)},
        "midflight": [("boot", 3)],
        "seed": 1,
    }
    expected = play(PerReceiverNetwork, scenario)
    got = play(Network, scenario)
    assert got == expected
    counters = got["counters"]
    # Host 0 is named twice per carousel and also takes the unicast.
    assert counters["messages_duplicated"] == 2 * 2 + 1
    assert counters["messages_corrupted"] == 2
    assert counters["messages_dropped"] == 4        # 2 x (bare + unknown)
    assert [c[0] for c in got["calls"]].count(settop_ip(0, 3)) == 2


# ---------------------------------------------------------------------------
# (b) counts: timers per broadcast, envelopes per listener
# ---------------------------------------------------------------------------


def carousel(latencies, listeners=()):
    """A server plus one up settop per latency; returns the pieces and
    the list handler calls are appended to."""
    kernel = Kernel()
    net = Network(kernel)
    server = Host(kernel, "server")
    net.attach(server, server_ip(0))
    ips, got = [], []
    for i, latency in enumerate(latencies):
        ip = settop_ip(0, i)
        net.attach(Host(kernel, f"settop-{i}", kind="settop"), ip,
                   latency=latency)
        if i in listeners:
            net.bind_port(ip, PORT, got.append)
        ips.append(ip)
    return kernel, net, server, ips, got


def count_envelopes(monkeypatch):
    built = []
    init = Message.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Message, "__init__", spy)
    return built


class TestRunCounts:
    def test_one_latency_one_timer_envelopes_only_for_listeners(
            self, monkeypatch):
        kernel, net, server, ips, got = carousel([0.005] * 40,
                                                 listeners=(3, 17, 31))
        built = count_envelopes(monkeypatch)
        seq = kernel._seq
        assert net.broadcast(server.ip, ips, PORT, "boot.params",
                             {"n": 1}, payload_bytes=512) == 40
        assert kernel._seq - seq == 1 and kernel.pending_events() == 1
        assert built == []                    # nothing built at send time
        kernel.run()
        assert net.last_msg_id == 40   # an id per receiver
        assert len(built) == len(got) == 3            # an envelope per listener
        assert [m.msg_id for m in got] == [4, 18, 32]
        assert net.messages_sent == 40
        assert net.messages_delivered == 3 and net.messages_dropped == 37

    def test_two_latencies_two_runs(self):
        kernel, net, server, ips, _ = carousel([0.005] * 5 + [0.02] * 5)
        net.broadcast(server.ip, ips, PORT, "boot.params", None)
        assert kernel.pending_events() == 2

    def test_a_run_is_consecutive_receivers_not_a_latency_class(self):
        kernel, net, server, ips, _ = carousel([0.005, 0.02, 0.005, 0.005])
        net.broadcast(server.ip, ips, PORT, "boot.params", None)
        assert kernel.pending_events() == 3

    def test_dup_fault_splits_the_run_at_that_receiver(self):
        kernel, net, server, ips, got = carousel([0.005] * 6,
                                                 listeners=range(6))
        net.set_duplicate(ips[2], 1.0, SeededRandom(5))
        net.broadcast(server.ip, ips, PORT, "boot.params", None)
        # [0, 1, 2] + the echo of 2 + [3, 4, 5]
        assert kernel.pending_events() == 3
        kernel.run()
        assert [m.dst[0] for m in got] == ips + [ips[2]]
        assert net.messages_duplicated == 1

    def test_a_run_nobody_listens_to_reads_no_port_table(self, monkeypatch):
        kernel, net, server, ips, _ = carousel([0.005] * 40)
        reads = []

        class SpyPorts(dict):
            def get(self, *args):
                reads.append(args)
                return super().get(*args)

            def __getitem__(self, key):
                reads.append(key)
                return super().__getitem__(key)

            def __contains__(self, key):
                reads.append(key)
                return super().__contains__(key)

        for ip in ips:
            net.interface(ip).ports = SpyPorts()
        built = count_envelopes(monkeypatch)
        net.broadcast(server.ip, ips, PORT, "boot.params", None)
        kernel.run()
        assert built == [] and reads == []
        assert net.messages_dropped == 40 and net.messages_delivered == 0
        assert net.last_msg_id == 40

    def test_unreached_receivers_reserve_no_id_and_break_no_run(self):
        kernel, net, server, ips, got = carousel([0.005] * 4,
                                                 listeners=range(4))
        net.partition({server.ip}, {ips[1]})
        dst = [ips[0], ips[1], settop_ip(9, 9), ips[2], ips[3]]
        assert net.broadcast(server.ip, dst, PORT, "boot.params", None) == 3
        assert kernel.pending_events() == 1
        kernel.run()
        assert [(m.dst[0], m.msg_id) for m in got] == [
            (ips[0], 1), (ips[2], 2), (ips[3], 3)]


# ---------------------------------------------------------------------------
# (c) a handler that sends from inside a delivery
# ---------------------------------------------------------------------------


def reentrant_trace(network_cls):
    """Receiver 0's handler broadcasts, sends and call_soons from inside
    its delivery; returns everything that happened, in order."""
    kernel = Kernel()
    net = network_cls(kernel)
    server = Host(kernel, "server")
    net.attach(server, server_ip(0))
    ips, hosts, seen = [], [], []
    for i in range(4):
        host = Host(kernel, f"settop-{i}", kind="settop")
        net.attach(host, settop_ip(0, i), latency=0.005)
        hosts.append(host)
        ips.append(host.ip)

    def record(msg):
        seen.append((msg.dst[0], msg.kind, msg.msg_id, kernel.now,
                     net.messages_delivered, net.messages_dropped))

    def chatty(msg):
        record(msg)
        if msg.kind == "boot.params":
            kernel.call_soon(seen.append, ("soon", kernel.now))
            net.broadcast(ips[0], ips, PORT, "nested", None)
            net.send(Message(src=(ips[0], 1), dst=(ips[1], PORT),
                             kind="direct"))
            hosts[3].crash()                 # the run's last receiver

    net.bind_port(ips[0], PORT, chatty)
    for ip in ips[1:]:
        net.bind_port(ip, PORT, record)
    net.broadcast(server.ip, ips, PORT, "boot.params", None)
    kernel.run()
    return seen, net.messages_sent, net.messages_dropped, kernel.now


def test_reentrant_handler_sees_the_per_receiver_order():
    seen, sent, dropped, _now = reentrant_trace(Network)
    assert (seen, sent, dropped, _now) == reentrant_trace(PerReceiverNetwork)
    order = [entry[:2] if entry[0] != "soon" else "soon" for entry in seen]
    ips = [settop_ip(0, i) for i in range(4)]
    # The rest of the run lands before anything the handler scheduled;
    # the host it crashed no longer hears the broadcast it was part of.
    assert order[:4] == [(ips[0], "boot.params"), (ips[1], "boot.params"),
                         (ips[2], "boot.params"), "soon"]
    assert (ips[3], "boot.params") not in order


def rebinding_trace(network_cls, action):
    """Receiver 0's handler binds ``PORT`` on receiver 1, then unbinds or
    detaches receiver 2 -- all later receivers of its own run."""
    kernel = Kernel()
    net = network_cls(kernel)
    server = Host(kernel, "server")
    net.attach(server, server_ip(0))
    ips = [settop_ip(0, i) for i in range(4)]
    for ip in ips:
        net.attach(Host(kernel, ip, kind="settop"), ip, latency=0.005)
    seen = []

    def record(msg):
        seen.append((msg.dst[0], msg.kind, msg.msg_id))

    def rebinding(msg):
        record(msg)
        if msg.kind == "boot.params":
            net.bind_port(ips[1], PORT, record)
            if action == "unbind":
                net.unbind_port(ips[2], PORT)
            else:
                net.detach(ips[2])

    net.bind_port(ips[0], PORT, rebinding)
    net.bind_port(ips[2], PORT, record)
    net.bind_port(ips[3], PORT, record)
    net.broadcast(server.ip, ips, PORT, "boot.params", None)
    assert kernel.pending_events() == (1 if network_cls is Network else 4)
    kernel.run()
    net.broadcast(server.ip, ips, PORT, "boot.kernel", None)
    kernel.run()
    return seen, net.messages_delivered, net.messages_dropped


@pytest.mark.parametrize("action", ["unbind", "detach"])
def test_a_handler_rebinding_later_receivers_of_its_run(action):
    got = rebinding_trace(Network, action)
    assert got == rebinding_trace(PerReceiverNetwork, action)
    ips = [settop_ip(0, i) for i in range(4)]
    assert [entry[:2] for entry in got[0]] == [
        (ips[0], "boot.params"), (ips[1], "boot.params"),
        (ips[3], "boot.params"), (ips[0], "boot.kernel"),
        (ips[1], "boot.kernel"), (ips[3], "boot.kernel")]


ATTACHABLE = [settop_ip(0, i) for i in range(3)]
PORTS = (PORT, PORT + 1)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(
    st.sampled_from(("attach", "bind", "unbind", "detach")),
    st.sampled_from(ATTACHABLE), st.sampled_from(PORTS)), max_size=30))
def test_listener_index_is_the_bound_ports(steps):
    kernel = Kernel()
    net = Network(kernel)
    for action, ip, port in steps:
        attached = ip in net._interfaces
        if action == "attach" and not attached:
            net.attach(Host(kernel, ip, kind="settop"), ip)
        elif action == "bind" and attached:
            if port not in net.interface(ip).ports:
                net.bind_port(ip, port, lambda msg: None)
        elif action == "unbind":
            net.unbind_port(ip, port)
        elif action == "detach":
            net.detach(ip)
        for p in PORTS:
            bound = {ip for ip, iface in net._interfaces.items()
                     if p in iface.ports}
            assert net._listeners.get(p, set()) == bound


# ---------------------------------------------------------------------------
# (d) what ``reached`` counts
# ---------------------------------------------------------------------------


def test_reached_counts_attached_unpartitioned_receivers():
    """``reached`` is decided at send time from attachment and
    partitions alone: not listeners, not hosts that are up."""
    kernel, net, server, ips, got = carousel([0.005] * 4, listeners=(0, 2))
    listener, bare, down, cut_off = ips
    net.host_at(down).crash()
    net.partition({server.ip}, {cut_off})
    unknown = settop_ip(9, 9)
    reached = net.broadcast(server.ip, ips + [unknown], PORT,
                            "boot.params", None)
    assert reached == 3                       # listener, bare, down
    assert net.messages_sent == 5             # every receiver named
    assert net.messages_dropped == 2          # cut_off, unknown: at send
    kernel.run()
    assert [m.dst[0] for m in got] == [listener]
    assert net.messages_delivered == 1
    assert net.messages_dropped == 4          # + bare and down: at arrival
    assert net.sent_by_kind == {"boot.params": 5}
    assert net.bytes_by_kind == {}            # one copy, no per-receiver bytes


def test_empty_receiver_list_accounts_nothing():
    kernel, net, server, _ips, _ = carousel([])
    assert net.broadcast(server.ip, [], PORT, "boot.params", None) == 0
    assert net.messages_sent == 0 and net.sent_by_kind == {}
    assert kernel.pending_events() == 0
