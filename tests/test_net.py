"""Unit tests for the network substrate: links, addressing, delivery."""

import pytest

from repro.net import (
    Link,
    Message,
    Network,
    ReservationError,
    neighborhood_of,
    server_ip,
    settop_ip,
)
from repro.net.address import is_server_ip, is_settop_ip
from repro.sim import Host, Kernel


@pytest.fixture
def kernel():
    return Kernel()


@pytest.fixture
def net(kernel):
    return Network(kernel)


def make_server(kernel, net, index):
    host = Host(kernel, f"server-{index}")
    net.attach(host, server_ip(index))
    return host


def make_settop(kernel, net, neighborhood, unit):
    host = Host(kernel, f"settop-{neighborhood}-{unit}", kind="settop")
    net.attach(host, settop_ip(neighborhood, unit))
    return host


class TestAddressing:
    def test_server_ip_format(self):
        assert server_ip(0) == "192.26.65.1"
        assert server_ip(1) == "192.26.65.2"

    def test_settop_ip_encodes_neighborhood(self):
        ip = settop_ip(3, 7)
        assert neighborhood_of(ip) == 3

    def test_neighborhood_of_server_raises(self):
        with pytest.raises(ValueError):
            neighborhood_of(server_ip(0))

    def test_is_server_is_settop(self):
        assert is_server_ip(server_ip(0))
        assert not is_server_ip(settop_ip(0, 0))
        assert is_settop_ip(settop_ip(0, 0))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            server_ip(500)
        with pytest.raises(ValueError):
            settop_ip(300, 0)


class TestLink:
    def test_serialization_time(self, kernel):
        link = Link(kernel, rate_bps=8_000_000)  # 1 MByte/s
        assert link.serialization_time(1_000_000) == pytest.approx(1.0)

    def test_back_to_back_messages_queue(self, kernel):
        link = Link(kernel, rate_bps=8_000, latency=0.0)
        first = link.occupy(1_000)   # 1 second of serialization
        second = link.occupy(1_000)  # queues behind the first
        assert first == pytest.approx(1.0)
        assert second == pytest.approx(2.0)

    def test_latency_added(self, kernel):
        link = Link(kernel, rate_bps=8_000_000, latency=0.25)
        assert link.occupy(1_000) == pytest.approx(0.001 + 0.25)

    def test_reservation_admission_control(self, kernel):
        link = Link(kernel, rate_bps=6_000_000)
        link.reserve("movie-1", 4_000_000)
        with pytest.raises(ReservationError):
            link.reserve("movie-2", 4_000_000)
        link.release("movie-1")
        link.reserve("movie-2", 4_000_000)

    def test_duplicate_reservation_key_rejected(self, kernel):
        link = Link(kernel, rate_bps=6_000_000)
        link.reserve("m", 1_000_000)
        with pytest.raises(ReservationError):
            link.reserve("m", 1_000_000)

    def test_release_unknown_key(self, kernel):
        link = Link(kernel, rate_bps=1_000)
        assert not link.release("ghost")

    def test_reservations_slow_datagrams(self, kernel):
        link = Link(kernel, rate_bps=8_000_000, latency=0.0)
        base = link.serialization_time(1_000_000)
        link.reserve("movie", 4_000_000)
        assert link.serialization_time(1_000_000) == pytest.approx(base * 2)


class TestDelivery:
    def test_message_delivered_to_bound_port(self, kernel, net):
        a = make_server(kernel, net, 0)
        b = make_server(kernel, net, 1)
        received = []
        net.bind_port(b.ip, 7000, received.append)
        net.send(Message(src=(a.ip, 1), dst=(b.ip, 7000), kind="test",
                         payload="hello", payload_bytes=100))
        kernel.run()
        assert len(received) == 1
        assert received[0].payload == "hello"

    def test_unbound_port_triggers_unreachable(self, kernel, net):
        a = make_server(kernel, net, 0)
        b = make_server(kernel, net, 1)
        received = []
        net.bind_port(a.ip, 1, received.append)
        net.send(Message(src=(a.ip, 1), dst=(b.ip, 9999), kind="test"))
        kernel.run()
        assert len(received) == 1
        assert received[0].kind == "port_unreachable"

    def test_down_host_drops_silently(self, kernel, net):
        a = make_server(kernel, net, 0)
        b = make_server(kernel, net, 1)
        received = []
        net.bind_port(a.ip, 1, received.append)
        b.crash()
        net.send(Message(src=(a.ip, 1), dst=(b.ip, 7000), kind="test"))
        kernel.run()
        assert received == []
        assert net.messages_dropped == 1

    def test_host_dying_in_flight_drops(self, kernel, net):
        a = make_server(kernel, net, 0)
        b = make_settop(kernel, net, 0, 0)
        received = []
        net.bind_port(b.ip, 7000, received.append)
        # Large payload so the message is still in flight when b crashes.
        net.send(Message(src=(a.ip, 1), dst=(b.ip, 7000), kind="big",
                         payload_bytes=600_000))
        kernel.call_later(0.01, b.crash)
        kernel.run()
        assert received == []

    def test_partition_blocks_both_directions(self, kernel, net):
        a = make_server(kernel, net, 0)
        b = make_server(kernel, net, 1)
        got_a, got_b = [], []
        net.bind_port(a.ip, 1, got_a.append)
        net.bind_port(b.ip, 1, got_b.append)
        net.partition({a.ip}, {b.ip})
        net.send(Message(src=(a.ip, 1), dst=(b.ip, 1), kind="x"))
        net.send(Message(src=(b.ip, 1), dst=(a.ip, 1), kind="x"))
        kernel.run()
        assert got_a == [] and got_b == []
        net.heal_partitions()
        net.send(Message(src=(a.ip, 1), dst=(b.ip, 1), kind="x"))
        kernel.run()
        assert len(got_b) == 1

    def test_settop_download_takes_bandwidth_time(self, kernel, net):
        server = make_server(kernel, net, 0)
        settop = make_settop(kernel, net, 0, 0)
        arrival = []
        net.bind_port(settop.ip, 7000, lambda m: arrival.append(kernel.now))
        # 1.5 MByte at 6 Mbit/s -> ~2 seconds on the settop downlink, plus
        # the store-and-forward hop across the server's FDDI interface.
        net.send(Message(src=(server.ip, 1), dst=(settop.ip, 7000),
                         kind="download", payload_bytes=1_500_000))
        kernel.run()
        assert arrival[0] == pytest.approx(2.0, rel=0.1)

    def test_settop_uplink_is_slow(self, kernel, net):
        server = make_server(kernel, net, 0)
        settop = make_settop(kernel, net, 0, 0)
        arrival = []
        net.bind_port(server.ip, 7000, lambda m: arrival.append(kernel.now))
        # 50 kbit/s uplink: 6250 bytes take 1 second.
        net.send(Message(src=(settop.ip, 1), dst=(server.ip, 7000),
                         kind="upload", payload_bytes=6250 - 256))
        kernel.run()
        assert arrival[0] == pytest.approx(1.0, rel=0.02)

    def test_kind_counters(self, kernel, net):
        a = make_server(kernel, net, 0)
        b = make_server(kernel, net, 1)
        net.bind_port(b.ip, 1, lambda m: None)
        for _ in range(3):
            net.send(Message(src=(a.ip, 1), dst=(b.ip, 1), kind="ras.poll"))
        net.send(Message(src=(a.ip, 1), dst=(b.ip, 1), kind="rpc.call"))
        kernel.run()
        assert net.sent_by_kind["ras.poll"] == 3
        assert net.count_kind("ras.") == 3

    def test_duplicate_attach_rejected(self, kernel, net):
        make_server(kernel, net, 0)
        other = Host(kernel, "dup")
        with pytest.raises(ValueError):
            net.attach(other, server_ip(0))

    def test_loopback_is_fast(self, kernel, net):
        a = make_server(kernel, net, 0)
        arrival = []
        net.bind_port(a.ip, 5, lambda m: arrival.append(kernel.now))
        net.send(Message(src=(a.ip, 1), dst=(a.ip, 5), kind="local",
                         payload_bytes=10_000_000))
        kernel.run()
        assert arrival[0] < 0.001

    @pytest.mark.xfail(strict=True, reason=(
        "Network.send occupies the source's outbound link before the "
        "loopback branch replaces the delay with its quantum, so a "
        "same-host datagram holds the wire it never crosses"))
    def test_loopback_leaves_the_outbound_link_free(self):
        def off_host_arrival(loopback_first):
            kernel = Kernel()
            net = Network(kernel)
            a, b = make_server(kernel, net, 0), make_server(kernel, net, 1)
            arrival = []
            net.bind_port(a.ip, 5, lambda m: None)
            net.bind_port(b.ip, 5, lambda m: arrival.append(kernel.now))
            if loopback_first:
                net.send(Message(src=(a.ip, 1), dst=(a.ip, 5), kind="local",
                                 payload_bytes=125_000))
            net.send(Message(src=(a.ip, 1), dst=(b.ip, 5), kind="remote",
                             payload_bytes=100))
            kernel.run()
            return arrival[0]

        assert off_host_arrival(True) == off_host_arrival(False)

    def test_same_instant_sends_deliver_in_send_order(self, kernel, net):
        # Two datagrams sent back to back arrive at one instant as two
        # kernel events; work the first handler defers with call_soon
        # carries a later seq than the second delivery and runs after it.
        a = make_server(kernel, net, 0)
        order = []

        def handler(msg):
            order.append(("recv", msg.payload, kernel.now))
            if msg.payload == 1:
                kernel.call_soon(order.append, ("soon", kernel.now))

        net.bind_port(a.ip, 5, handler)

        def send_both():
            for n in (1, 2):
                net.send(Message(src=(a.ip, 1), dst=(a.ip, 5), kind="local",
                                 payload=n))

        kernel.call_soon(send_both)
        kernel.run()
        at = order[0][2]
        assert order == [("recv", 1, at), ("recv", 2, at), ("soon", at)]


class TestLossInjection:
    def test_loss_drops_fraction(self, kernel, net):
        from repro.sim.rand import SeededRandom
        a = make_server(kernel, net, 0)
        b = make_server(kernel, net, 1)
        received = []
        net.bind_port(b.ip, 1, received.append)
        net.set_loss(b.ip, 0.5, SeededRandom(3))
        for _ in range(200):
            net.send(Message(src=(a.ip, 1), dst=(b.ip, 1), kind="x"))
        kernel.run()
        assert 60 <= len(received) <= 140
        assert net.messages_lost == 200 - len(received)

    def test_clear_loss_restores_delivery(self, kernel, net):
        from repro.sim.rand import SeededRandom
        a = make_server(kernel, net, 0)
        b = make_server(kernel, net, 1)
        received = []
        net.bind_port(b.ip, 1, received.append)
        net.set_loss(b.ip, 1.0, SeededRandom(3))
        net.send(Message(src=(a.ip, 1), dst=(b.ip, 1), kind="x"))
        kernel.run()
        assert received == []
        net.clear_faults()
        net.send(Message(src=(a.ip, 1), dst=(b.ip, 1), kind="x"))
        kernel.run()
        assert len(received) == 1

    def test_bad_probability_rejected(self, kernel, net):
        make_server(kernel, net, 0)
        with pytest.raises(ValueError):
            net.set_loss(server_ip(0), 1.5, None)


class TestFaultParity:
    """broadcast()/send_reserved() must see faults exactly like send().

    Partition drops, unknown-destination drops, and plant-noise loss are
    accounted on the shared counters regardless of which delivery path
    carried the datagram -- the chaos monitors depend on that parity.
    """

    def test_broadcast_counts_partitioned_receivers_as_drops(self, kernel, net):
        server = make_server(kernel, net, 0)
        near = make_settop(kernel, net, 0, 0)
        far = make_settop(kernel, net, 0, 1)
        got_near, got_far = [], []
        net.bind_port(near.ip, 7000, got_near.append)
        net.bind_port(far.ip, 7000, got_far.append)
        net.partition({server.ip}, {far.ip})
        reached = net.broadcast(server.ip, [near.ip, far.ip], 7000,
                                "boot.announce", payload=None)
        kernel.run()
        assert reached == 1
        assert len(got_near) == 1 and got_far == []
        assert net.messages_dropped == 1
        assert net.sent_by_kind["boot.announce"] == 2  # both counted as sent

    def test_broadcast_counts_unknown_receiver_as_drop(self, kernel, net):
        server = make_server(kernel, net, 0)
        settop = make_settop(kernel, net, 0, 0)
        got = []
        net.bind_port(settop.ip, 7000, got.append)
        reached = net.broadcast(server.ip, [settop.ip, settop_ip(0, 9)],
                                7000, "boot.announce", payload=None)
        kernel.run()
        assert reached == 1 and len(got) == 1
        assert net.messages_dropped == 1

    def test_broadcast_subject_to_loss_like_send(self, kernel, net):
        from repro.sim.rand import SeededRandom
        server = make_server(kernel, net, 0)
        settop = make_settop(kernel, net, 0, 0)
        got = []
        net.bind_port(settop.ip, 7000, got.append)
        net.set_loss(settop.ip, 1.0, SeededRandom(3))
        assert net.broadcast(server.ip, [settop.ip], 7000,
                             "boot.announce", payload=None) == 1
        kernel.run()
        assert got == [] and net.messages_lost == 1
        net.clear_faults()
        net.broadcast(server.ip, [settop.ip], 7000, "boot.announce",
                      payload=None)
        kernel.run()
        assert len(got) == 1

    def test_send_reserved_partition_drops_with_accounting(self, kernel, net):
        server = make_server(kernel, net, 0)
        settop = make_settop(kernel, net, 0, 0)
        got = []
        net.bind_port(settop.ip, 7000, got.append)
        net.interface(settop.ip).in_link.reserve("vc-1", 3_000_000)
        msg = Message(src=(server.ip, 1), dst=(settop.ip, 7000),
                      kind="stream.cells", payload_bytes=1_000)
        net.partition({server.ip}, {settop.ip})
        assert net.send_reserved(msg, "vc-1") is False
        assert net.messages_dropped == 1
        net.heal_partitions()
        assert net.send_reserved(msg, "vc-1") is True
        kernel.run()
        assert len(got) == 1

    def test_send_reserved_missing_circuit_drops(self, kernel, net):
        server = make_server(kernel, net, 0)
        settop = make_settop(kernel, net, 0, 0)
        msg = Message(src=(server.ip, 1), dst=(settop.ip, 7000),
                      kind="stream.cells", payload_bytes=1_000)
        assert net.send_reserved(msg, "torn-down-vc") is False
        assert net.messages_dropped == 1
        assert net.sent_by_kind["stream.cells"] == 1  # sent, then dropped

    def test_send_reserved_subject_to_loss_like_send(self, kernel, net):
        from repro.sim.rand import SeededRandom
        server = make_server(kernel, net, 0)
        settop = make_settop(kernel, net, 0, 0)
        got = []
        net.bind_port(settop.ip, 7000, got.append)
        net.interface(settop.ip).in_link.reserve("vc-1", 3_000_000)
        net.set_loss(settop.ip, 1.0, SeededRandom(3))
        msg = Message(src=(server.ip, 1), dst=(settop.ip, 7000),
                      kind="stream.cells", payload_bytes=1_000)
        assert net.send_reserved(msg, "vc-1") is True  # lost in flight,
        kernel.run()                                   # not refused at send
        assert got == [] and net.messages_lost == 1

    def test_delay_fault_applies_to_all_three_paths(self, kernel, net):
        a = make_server(kernel, net, 0)
        b = make_server(kernel, net, 1)
        settop = make_settop(kernel, net, 0, 0)
        net.interface(settop.ip).in_link.reserve("vc-1", 3_000_000)
        times = {}
        net.bind_port(b.ip, 1, lambda m: times.setdefault("send", kernel.now))
        net.bind_port(settop.ip, 7000,
                      lambda m: times.setdefault(m.kind, kernel.now))
        net.set_delay(b.ip, 2.0)
        net.set_delay(settop.ip, 2.0)
        net.send(Message(src=(a.ip, 1), dst=(b.ip, 1), kind="x"))
        net.broadcast(a.ip, [settop.ip], 7000, "bcast", payload=None)
        net.send_reserved(Message(src=(a.ip, 1), dst=(settop.ip, 7000),
                                  kind="cbr", payload_bytes=100), "vc-1")
        kernel.run()
        assert times["send"] > 2.0
        assert times["bcast"] > 2.0
        assert times["cbr"] > 2.0
        net.clear_faults()
        net.send(Message(src=(a.ip, 1), dst=(b.ip, 1), kind="x"))
        start = kernel.now
        kernel.run()
        assert kernel.now - start < 1.0

    def test_gray_failure_slows_replies_from_source(self, kernel, net):
        a = make_server(kernel, net, 0)
        b = make_server(kernel, net, 1)
        times = []
        net.bind_port(a.ip, 1, lambda m: times.append(kernel.now))
        net.set_gray(b.ip, 5.0)
        net.send(Message(src=(b.ip, 1), dst=(a.ip, 1), kind="reply"))
        kernel.run()
        assert times[0] > 5.0

    def test_duplicate_fault_delivers_echo(self, kernel, net):
        from repro.sim.rand import SeededRandom
        a = make_server(kernel, net, 0)
        b = make_server(kernel, net, 1)
        got = []
        net.bind_port(b.ip, 1, got.append)
        net.set_duplicate(b.ip, 1.0, SeededRandom(5))
        net.send(Message(src=(a.ip, 1), dst=(b.ip, 1), kind="x"))
        kernel.run()
        assert len(got) == 2
        # One datagram on the wire: the echo is the same envelope again.
        assert got[0] is got[1] and got[0].msg_id == got[1].msg_id
        assert net.messages_duplicated == 1
        assert net.messages_delivered == 2

    def test_duplicate_fault_applies_to_broadcast_and_reserved(self, kernel,
                                                               net):
        """PR 9 parity: duplication hits all three delivery paths."""
        from repro.sim.rand import SeededRandom
        server = make_server(kernel, net, 0)
        settop = make_settop(kernel, net, 0, 0)
        got = []
        net.bind_port(settop.ip, 7000, got.append)
        net.interface(settop.ip).in_link.reserve("vc-1", 3_000_000)
        net.set_duplicate(settop.ip, 1.0, SeededRandom(5))
        net.broadcast(server.ip, [settop.ip], 7000, "bcast", payload=None)
        kernel.run()
        assert len(got) == 2
        assert net.send_reserved(
            Message(src=(server.ip, 1), dst=(settop.ip, 7000),
                    kind="cbr", payload_bytes=100), "vc-1") is True
        kernel.run()
        assert len(got) == 4
        assert net.messages_duplicated == 2

    def test_reorder_fault_lets_later_sends_overtake(self, kernel, net):
        """A reordered message is held back, so a later send lands first."""
        from repro.sim.rand import SeededRandom
        a = make_server(kernel, net, 0)
        b = make_server(kernel, net, 1)
        got = []
        net.bind_port(b.ip, 1, lambda m: got.append(m.kind))
        # Probability 1 with a large skew: every message is skewed, but
        # by a seeded-random amount, so arrival order != send order.
        net.set_reorder(b.ip, 1.0, 5.0, SeededRandom(9))
        for i in range(6):
            net.send(Message(src=(a.ip, 1), dst=(b.ip, 1), kind=f"m{i}"))
        kernel.run()
        assert sorted(got) == [f"m{i}" for i in range(6)]  # all delivered
        assert got != [f"m{i}" for i in range(6)]          # out of order
        assert net.messages_reordered == 6

    def test_reorder_applies_to_all_three_paths(self, kernel, net):
        from repro.sim.rand import SeededRandom
        server = make_server(kernel, net, 0)
        settop = make_settop(kernel, net, 0, 0)
        got = []
        net.bind_port(settop.ip, 7000, got.append)
        net.interface(settop.ip).in_link.reserve("vc-1", 3_000_000)
        net.set_reorder(settop.ip, 1.0, 2.0, SeededRandom(4))
        net.send(Message(src=(server.ip, 1), dst=(settop.ip, 7000),
                         kind="x"))
        net.broadcast(server.ip, [settop.ip], 7000, "bcast", payload=None)
        net.send_reserved(Message(src=(server.ip, 1), dst=(settop.ip, 7000),
                                  kind="cbr", payload_bytes=100), "vc-1")
        kernel.run()
        assert len(got) == 3
        assert net.messages_reordered == 3

    def test_corrupt_fault_flags_delivered_copy(self, kernel, net):
        from repro.sim.rand import SeededRandom
        a = make_server(kernel, net, 0)
        b = make_server(kernel, net, 1)
        got = []
        net.bind_port(b.ip, 1, got.append)
        net.set_corrupt(b.ip, 1.0, SeededRandom(2))
        msg = Message(src=(a.ip, 1), dst=(b.ip, 1), kind="x",
                      payload={"k": "v"})
        net.send(msg)
        kernel.run()
        assert len(got) == 1
        assert got[0].corrupted
        assert not msg.corrupted            # the sender's copy is untouched
        assert got[0].payload == {"k": "v"}  # flag, not mutation
        assert net.messages_corrupted == 1

    def test_corrupt_rolls_per_delivery_including_duplicates(self, kernel,
                                                             net):
        """Each delivery (original or duplicate echo) rolls corruption
        independently: a seed where one copy arrives clean proves the
        duplicate is not aliased to the corrupted one."""
        from repro.sim.rand import SeededRandom
        a = make_server(kernel, net, 0)
        b = make_server(kernel, net, 1)
        got = []
        net.bind_port(b.ip, 1, got.append)
        net.set_duplicate(b.ip, 1.0, SeededRandom(5))
        net.set_corrupt(b.ip, 0.5, SeededRandom(12))
        for i in range(8):
            net.send(Message(src=(a.ip, 1), dst=(b.ip, 1), kind=f"m{i}"))
        kernel.run()
        assert len(got) == 16
        flags = {m.corrupted for m in got}
        assert flags == {True, False}       # some corrupted, some clean
        assert net.messages_corrupted == sum(1 for m in got if m.corrupted)

    def test_clear_faults_clears_reorder_and_corrupt(self, kernel, net):
        from repro.sim.rand import SeededRandom
        a = make_server(kernel, net, 0)
        b = make_server(kernel, net, 1)
        got = []
        net.bind_port(b.ip, 1, got.append)
        net.set_reorder(b.ip, 1.0, 5.0, SeededRandom(1))
        net.set_corrupt(b.ip, 1.0, SeededRandom(2))
        net.clear_faults()
        net.send(Message(src=(a.ip, 1), dst=(b.ip, 1), kind="x"))
        start = kernel.now
        kernel.run()
        assert len(got) == 1 and not got[0].corrupted
        assert kernel.now - start < 1.0
        assert net.messages_reordered == 0 and net.messages_corrupted == 0

    def test_reorder_and_corrupt_validate_arguments(self, net):
        from repro.sim.rand import SeededRandom
        rng = SeededRandom(0)
        with pytest.raises(ValueError):
            net.set_reorder("10.0.0.1", 1.5, 1.0, rng)
        with pytest.raises(ValueError):
            net.set_reorder("10.0.0.1", 0.5, 0.0, rng)
        with pytest.raises(ValueError):
            net.set_corrupt("10.0.0.1", -0.1, rng)
        # Zero probability uninstalls rather than registers.
        net.set_reorder("10.0.0.1", 0.0, 1.0, rng)
        net.set_corrupt("10.0.0.1", 0.0, rng)
        assert not net._reorder and not net._corrupt
