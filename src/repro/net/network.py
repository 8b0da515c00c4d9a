"""The network fabric: attachment, routing, delivery, partitions.

Delivery semantics chosen to match what the paper's clients observe:

- destination host down or partitioned away -> the datagram is silently
  dropped and the sender must rely on its call timeout (like UDP/ATM);
- destination host up but no process bound to the port -> the network
  returns an immediate ``port_unreachable`` notification (like a TCP RST),
  which is how "the client will detect this on the next attempt to use the
  object reference" (section 3.2.1) without waiting out a long timeout.

Every unicast datagram is one kernel event.  Only a broadcast shares
events, one per run of receivers with an equal arrival delay (DESIGN.md
section 6.3), and a CBR stream sends the rest of a movie as one
:class:`Segment` datagram whose later chunks arrive on the clock, not as
events, until something on its path can change (DESIGN.md section 6.4).

The network also keeps per-message-kind counters, which experiment E3
(RAS message scaling, paper section 7.2.1) reads directly.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.net.address import (
    DEFAULT_DOWNSTREAM_BPS,
    DEFAULT_UPSTREAM_BPS,
    is_settop_ip,
)
from repro.net.link import Link
from repro.net.message import HEADER_BYTES, Message
from repro.sim.host import Host
from repro.sim.kernel import Kernel

# FDDI ring between the servers (paper Figure 1); 100 Mbit/s was the FDDI
# standard rate.
FDDI_BPS = 100_000_000
FDDI_LATENCY = 0.0005
SETTOP_LATENCY = 0.005


class PortUnreachable(Exception):
    """Local send to a port nobody is bound to (used internally)."""


class Segment:
    """The rest of a CBR stream from one send instant, as one datagram.

    Chunk ``i`` leaves at ``s_i`` with ``span_i = min(chunk, duration -
    p_i)`` seconds from position ``p_i`` while ``p_i < duration``, and
    arrives at ``s_i + delay``; ``s_{i+1} = s_i + span_i`` and ``p_{i+1} =
    p_i + span_i`` are a per-chunk sender's own float additions.  Only
    chunk 0 is kept.  ``count`` chunks are sent; the arrival of the first
    ``lazy`` rides on the datagram's (chunk 0's), the last at
    ``last_arrival``; ``end``/``end_pos`` are the first unsent chunk's
    ``s_i``/``p_i``.  :meth:`Network.cut_stream` lowers them, then calls
    the ``watchers``.  DESIGN.md section 6.4.
    """

    def __init__(self, src: Tuple[str, int], dst: Tuple[str, int], kind: str,
                 key: str, title: str, bitrate: float, duration: float,
                 chunk: float, start: float, pos: float):
        self.src, self.dst, self.kind, self.key = src, dst, kind, key
        self.title, self.bitrate, self.duration = title, bitrate, duration
        self.chunk, self.start, self.pos = chunk, start, pos
        span = min(chunk, duration - pos)   # one chunk until send_stream
        self.delay, self.count, self.lazy, self.last_arrival = 0.0, 1, 1, start
        self.end, self.end_pos = start + span, pos + span
        self.watchers: List[Callable[[], None]] = []

    def chunks(self):
        """``(i, s_i, p_i, span_i)`` for every chunk to end of stream."""
        s, p, i = self.start, self.pos, 0
        while p < self.duration:
            span = min(self.chunk, self.duration - p)
            yield i, s, p, span
            s, p, i = s + span, p + span, i + 1

    def message(self, pos: float, span: float) -> Message:
        """The datagram a per-chunk sender sends for one chunk."""
        return Message(self.src, self.dst, self.kind,
                       {"title": self.title, "position": pos, "span": span,
                        "eof": False}, int(self.bitrate * span / 8))

    def sent_by(self, when: float) -> float:
        """The stream position after the chunks sent by ``when``."""
        for i, s, p, _span in self.chunks():
            if i == self.count or s > when:
                return p
        return self.end_pos


class _Interface:
    """A host's point of attachment: one inbound and one outbound link."""

    def __init__(self, host: Host, ip: str, in_link: Link, out_link: Link):
        self.host = host
        self.ip = ip
        self.in_link = in_link
        self.out_link = out_link
        self.ports: Dict[int, Callable[[Message], None]] = {}


class Network:
    """The cluster fabric connecting servers and settops."""

    def __init__(self, kernel: Kernel):
        self.kernel = kernel
        # The run's last message id and ephemeral port: a run owns its
        # identities, so the same seed sends the same ids and ports.
        self.last_msg_id = 0
        self.last_port = 9999
        self._interfaces: Dict[str, _Interface] = {}
        # port -> ips with a handler bound on it, kept by bind_port,
        # unbind_port and detach.  Only ever tested for membership.
        self._listeners: Dict[int, Set[str]] = {}
        self._partitions: List[Tuple[Set[str], Set[str]]] = []
        self._loss: Dict[str, Tuple[float, Any]] = {}  # ip -> (prob, rng)
        # Chaos fault hooks (repro.chaos is the only sanctioned caller
        # outside tests -- lint rule D009).  All empty-dict guarded so the
        # fault-free hot path pays one falsy check per send.
        self._delay: Dict[str, float] = {}          # dst ip -> extra seconds
        self._dup: Dict[str, Tuple[float, Any]] = {}  # dst ip -> (prob, rng)
        self._gray: Dict[str, float] = {}           # src ip -> reply lag
        # dst ip -> (prob, max_skew, rng): random extra in-link delay, so
        # later datagrams overtake earlier ones (bounded reordering).
        self._reorder: Dict[str, Tuple[float, float, Any]] = {}
        # dst ip -> (prob, rng): deliver a checksum-failing copy.
        self._corrupt: Dict[str, Tuple[float, Any]] = {}
        # Trace sink for fault firings (wired by the cluster builder;
        # None outside a built cluster).  Faults are off by default, so
        # a fault-free run emits nothing here and golden digests hold.
        self.trace: Optional[Any] = None
        self.messages_sent: int = 0
        self.messages_delivered: int = 0
        self.messages_dropped: int = 0
        self.messages_lost: int = 0
        self.messages_duplicated: int = 0
        self.messages_reordered: int = 0
        self.messages_corrupted: int = 0
        # kind -> [count, bytes]: one dict probe per send instead of four.
        self._kind_stats: Dict[str, List[int]] = {}
        # reservation key -> the Segments sent on it that a cut can change.
        self._streams: Dict[str, List[Segment]] = {}

    @property
    def sent_by_kind(self) -> Dict[str, int]:
        """Per-kind message counts (materialized view of the hot counters)."""
        return {kind: stats[0] for kind, stats in self._kind_stats.items()}

    @property
    def bytes_by_kind(self) -> Dict[str, int]:
        """Per-kind byte totals.

        Broadcast traffic is counted per message but not per byte (the
        plant sends one copy); kinds that only ever broadcast are omitted
        here, matching the ledger the experiments have always read.
        """
        return {kind: stats[1] for kind, stats in self._kind_stats.items()
                if stats[1]}

    def _account(self, kind: str, size_bytes: int, count: int = 1) -> None:
        self.messages_sent += count
        stats = self._kind_stats.get(kind)
        if stats is None:
            self._kind_stats[kind] = [count, size_bytes]
        else:
            stats[0] += count
            stats[1] += size_bytes

    # -- attachment ----------------------------------------------------

    def attach(self, host: Host, ip: str,
               upstream_bps: Optional[float] = None,
               downstream_bps: Optional[float] = None,
               latency: Optional[float] = None) -> None:
        """Attach a host at ``ip``.

        Settop addresses default to the Orlando per-settop caps (50 kbit/s
        up, 6 Mbit/s down); server addresses default to FDDI.
        """
        if ip in self._interfaces:
            raise ValueError(f"address already attached: {ip}")
        if is_settop_ip(ip):
            up = upstream_bps if upstream_bps is not None else DEFAULT_UPSTREAM_BPS
            down = (downstream_bps if downstream_bps is not None
                    else DEFAULT_DOWNSTREAM_BPS)
            lat = latency if latency is not None else SETTOP_LATENCY
        else:
            up = upstream_bps if upstream_bps is not None else FDDI_BPS
            down = downstream_bps if downstream_bps is not None else FDDI_BPS
            lat = latency if latency is not None else FDDI_LATENCY
        iface = _Interface(
            host, ip,
            in_link=Link(self.kernel, down, latency=lat, name=f"{ip}:in"),
            out_link=Link(self.kernel, up, latency=lat, name=f"{ip}:out"),
        )
        iface.in_link.on_release = self._cut_streams
        self._interfaces[ip] = iface
        host.ip = ip

    def detach(self, ip: str) -> None:
        self._cut_streams()
        iface = self._interfaces.pop(ip, None)
        if iface is not None:
            for port in iface.ports:
                self._listeners[port].discard(ip)

    def interface(self, ip: str) -> _Interface:
        if ip not in self._interfaces:
            raise KeyError(f"no host attached at {ip}")
        return self._interfaces[ip]

    def host_at(self, ip: str) -> Host:
        return self.interface(ip).host

    def downlink_of(self, ip: str) -> Link:
        """The inbound link of a host (where CBR movie streams reserve)."""
        return self.interface(ip).in_link

    # -- ports -----------------------------------------------------------

    def allocate_port(self) -> int:
        """A fresh ephemeral port: an OCS runtime's, or a raw one such as
        the data port a settop application receives movie chunks on."""
        self.last_port += 1
        return self.last_port

    def bind_port(self, ip: str, port: int, handler: Callable[[Message], None]) -> None:
        iface = self.interface(ip)
        if port in iface.ports:
            raise ValueError(f"port {port} already bound on {ip}")
        iface.ports[port] = handler
        self._listeners.setdefault(port, set()).add(ip)

    def unbind_port(self, ip: str, port: int) -> None:
        iface = self._interfaces.get(ip)
        if iface is not None and port in iface.ports:
            del iface.ports[port]
            self._listeners[port].discard(ip)

    # -- partitions -------------------------------------------------------

    def partition(self, side_a: Set[str], side_b: Set[str]) -> None:
        """Block traffic between the two address sets (both directions)."""
        self._cut_streams()
        self._partitions.append((set(side_a), set(side_b)))

    def heal_partitions(self) -> None:
        self._partitions = []

    @property
    def partitioned(self) -> bool:
        """Whether any partition is currently in force (monitors pause
        convergence clocks while the network is split)."""
        return bool(self._partitions)

    # -- loss injection ------------------------------------------------------

    def set_loss(self, ip: str, probability: float, rng) -> None:
        """Drop inbound datagrams at ``ip`` with the given probability.

        Models a noisy drop on the cable plant.  Clients survive it
        through their normal machinery: call timeouts, rebinds, and the
        stream-stall watchdog.
        """
        if not 0.0 <= probability <= 1.0:
            raise ValueError("loss probability must be in [0, 1]")
        self._set_fault(self._loss, ip, probability, (probability, rng))

    # -- chaos fault hooks (delay / duplication / gray failure) ----------

    def set_delay(self, ip: str, extra_seconds: float) -> None:
        """Add a fixed extra delay to every datagram delivered *to* ``ip``.

        Models plant congestion or a slow last hop.  Zero removes the
        fault.  Injected by :mod:`repro.chaos`; direct calls elsewhere are
        a lint violation (D009) so every fault shows up in the trace.
        """
        if extra_seconds < 0:
            raise ValueError("extra delay must be >= 0")
        self._set_fault(self._delay, ip, extra_seconds, extra_seconds)

    def set_duplicate(self, ip: str, probability: float, rng) -> None:
        """Duplicate datagrams delivered to ``ip`` with the given probability.

        The copy arrives one propagation latency after the original, as a
        plant echo would.  Zero probability removes the fault.
        """
        if not 0.0 <= probability <= 1.0:
            raise ValueError("duplication probability must be in [0, 1]")
        self._set_fault(self._dup, ip, probability, (probability, rng))

    def set_gray(self, ip: str, reply_lag: float) -> None:
        """Gray failure: the host at ``ip`` accepts calls but replies slowly.

        Every datagram *sent by* ``ip`` is delayed ``reply_lag`` extra
        seconds, so the replica looks alive to liveness checks while its
        clients watch calls crawl toward their timeouts -- the failure
        mode audits are worst at catching.  Zero removes the fault.
        """
        if reply_lag < 0:
            raise ValueError("reply lag must be >= 0")
        self._set_fault(self._gray, ip, reply_lag, reply_lag)

    def set_reorder(self, ip: str, probability: float, max_skew: float,
                    rng) -> None:
        """Randomly defer datagrams delivered to ``ip`` so later sends
        overtake them (bounded reordering).

        With the given probability a datagram picks up a uniform extra
        in-link delay in ``(0, max_skew]`` -- anything sent within that
        window can arrive first.  Models multipath on the plant.  Zero
        probability removes the fault.
        """
        if not 0.0 <= probability <= 1.0:
            raise ValueError("reorder probability must be in [0, 1]")
        if max_skew <= 0.0:
            raise ValueError("reorder max_skew must be > 0")
        self._set_fault(self._reorder, ip, probability,
                        (probability, max_skew, rng))

    def set_corrupt(self, ip: str, probability: float, rng) -> None:
        """Flip bits in datagrams delivered to ``ip`` with the given
        probability.

        The damaged copy carries the same message id but fails its
        payload checksum; receivers that verify checksums drop it and
        the sender's retry machinery takes over.  Each delivery (and
        each duplicate echo) corrupts independently.  Zero probability
        removes the fault.
        """
        if not 0.0 <= probability <= 1.0:
            raise ValueError("corruption probability must be in [0, 1]")
        self._set_fault(self._corrupt, ip, probability, (probability, rng))

    def _set_fault(self, faults: Dict[str, Any], ip: str, level: float,
                   entry: Any) -> None:
        """Arm ``entry`` at ``ip``, or disarm at a zero ``level``; either
        way the live segments' path can change, so cut them."""
        self._cut_streams()
        if level == 0:
            faults.pop(ip, None)
        else:
            faults[ip] = entry

    def clear_faults(self) -> None:
        """Remove every injected loss/delay/duplication/gray/reorder/
        corruption fault.

        Partitions are healed separately (:meth:`heal_partitions`): a
        schedule may want the plant noise gone while a split remains.
        """
        self._loss.clear()
        self._delay.clear()
        self._dup.clear()
        self._gray.clear()
        self._reorder.clear()
        self._corrupt.clear()

    def _lose(self, dst_ip: str) -> bool:
        entry = self._loss.get(dst_ip)
        if entry is None:
            return False
        probability, rng = entry
        if rng.random() < probability:
            self.messages_lost += 1
            return True
        return False

    def reachable(self, src_ip: str, dst_ip: str) -> bool:
        for side_a, side_b in self._partitions:
            if ((src_ip in side_a and dst_ip in side_b)
                    or (src_ip in side_b and dst_ip in side_a)):
                return False
        return True

    # -- delivery ---------------------------------------------------------

    def send(self, msg: Message) -> None:
        """Inject a datagram; delivery (or drop) happens asynchronously.
        An id-less ``msg`` takes the run's next message id."""
        if msg.msg_id is None:
            self.last_msg_id += 1
            msg.msg_id = self.last_msg_id
        # Message.size_bytes and _account, inline: once per datagram.
        size = HEADER_BYTES + msg.payload_bytes
        self.messages_sent += 1
        stats = self._kind_stats.get(msg.kind)
        if stats is None:
            self._kind_stats[msg.kind] = [1, size]
        else:
            stats[0] += 1
            stats[1] += size
        src_ip = msg.src[0]
        dst_ip = msg.dst[0]
        interfaces = self._interfaces
        src_iface = interfaces.get(src_ip)
        dst_iface = interfaces.get(dst_ip)
        if src_iface is None or not src_iface.host.up:
            self.messages_dropped += 1
            return
        if dst_iface is None or (self._partitions
                                 and not self.reachable(src_ip, dst_ip)):
            # Unknown destination or partition: the datagram vanishes.
            self.messages_dropped += 1
            return
        delay = src_iface.out_link.occupy(size)
        if src_ip != dst_ip:
            delay += dst_iface.in_link.occupy(size)
        else:
            # Loopback: no wire crossed; charge a scheduling quantum only.
            delay = 1e-5
        if self._delay or self._gray or self._reorder:
            delay += self._fault_delay(src_ip, dst_ip)
        hb = self.kernel.hb_log
        if hb is not None:
            hb.emit("hb", "send", msg=msg.msg_id,
                    src=f"{src_ip}:{msg.src[1]}",
                    dst=f"{dst_ip}:{msg.dst[1]}")
        self.kernel.call_later(delay, self._deliver, msg)
        if self._dup:
            self._maybe_duplicate(msg, delay)

    def _fault_delay(self, src_ip: str, dst_ip: str) -> float:
        """Extra one-way delay from injected delay/gray/reorder faults
        (usually 0).  All three send paths route through here, so the
        faults apply with parity."""
        extra = 0.0
        if self._delay:
            extra += self._delay.get(dst_ip, 0.0)
        if self._gray:
            extra += self._gray.get(src_ip, 0.0)
        if self._reorder:
            entry = self._reorder.get(dst_ip)
            if entry is not None:
                probability, max_skew, rng = entry
                if rng.random() < probability:
                    self.messages_reordered += 1
                    skew = rng.uniform(0.0, max_skew)
                    if self.trace is not None:
                        self.trace.emit("net", "reorder", dst=dst_ip,
                                        skew=round(skew, 6))
                    extra += skew
        return extra

    def _maybe_duplicate(self, msg: Message, delay: float) -> None:
        entry = self._dup.get(msg.dst[0])
        if entry is None:
            return
        probability, rng = entry
        if rng.random() < probability:
            self.messages_duplicated += 1
            if self.trace is not None:
                self.trace.emit("net", "duplicate", dst=msg.dst[0],
                                kind=msg.kind)
            # Same envelope again: it is the same datagram on the wire,
            # and receivers never write to an envelope.
            self.kernel.call_later(delay + FDDI_LATENCY, self._deliver, msg)

    def _maybe_corrupt(self, msg: Message, dst_ip: str) -> Message:
        """Roll the corruption fault for one delivery; a hit hands the
        handler a flagged copy (same msg id) so clean duplicates of the
        same datagram are unaffected."""
        entry = self._corrupt.get(dst_ip)
        if entry is None:
            return msg
        probability, rng = entry
        if rng.random() >= probability:
            return msg
        self.messages_corrupted += 1
        if self.trace is not None:
            self.trace.emit("net", "corrupt", dst=dst_ip, kind=msg.kind)
        return Message(src=msg.src, dst=msg.dst, kind=msg.kind,
                       payload=msg.payload, payload_bytes=msg.payload_bytes,
                       msg_id=msg.msg_id, deadline=msg.deadline,
                       corrupted=True)

    def _deliver(self, msg: Message) -> None:
        dst_ip, dst_port = msg.dst
        iface = self._interfaces.get(dst_ip)
        if iface is None or not iface.host.up or (
                self._partitions and not self.reachable(msg.src[0], dst_ip)):
            # Host died or got partitioned while the datagram was in flight.
            self.messages_dropped += 1
            return
        if self._loss and self._lose(dst_ip):
            return  # plant noise ate the datagram
        if self._corrupt:
            msg = self._maybe_corrupt(msg, dst_ip)
        handler = iface.ports.get(dst_port)
        if handler is None:
            # TCP-RST analogue: tell the sender nobody is listening, so the
            # client fails fast instead of timing out (section 3.2.1).
            self.messages_dropped += 1
            self._send_unreachable(msg)
            return
        self.messages_delivered += 1
        hb = self.kernel.hb_log
        if hb is not None:
            hb.emit("hb", "recv", msg=msg.msg_id,
                    dst=f"{dst_ip}:{dst_port}")
        handler(msg)

    def _send_unreachable(self, original: Message) -> None:
        src_ip, src_port = original.src
        iface = self._interfaces.get(src_ip)
        if iface is None or not iface.host.up:
            return
        handler = iface.ports.get(src_port)
        if handler is None:
            return
        self.last_msg_id += 1
        notice = Message(
            src=original.dst, dst=original.src, kind="port_unreachable",
            payload={"msg_id": original.msg_id}, payload_bytes=0,
            msg_id=self.last_msg_id)
        self.kernel.call_later(FDDI_LATENCY, self._deliver_notice, notice,
                               handler)

    def _deliver_notice(self, notice: Message, handler: Callable[[Message], None]) -> None:
        iface = self._interfaces.get(notice.dst[0])
        if iface is None or not iface.host.up:
            return
        # Re-check binding: the waiting process may itself have died.
        current = iface.ports.get(notice.dst[1])
        if current is not None:
            current(notice)

    # -- CBR streams and broadcast ------------------------------------------

    def send_reserved(self, msg: Message, reservation_key: str) -> bool:
        """Deliver a datagram over a CBR reservation on the destination's
        downlink (ATM virtual circuit).

        Reserved traffic bypasses the datagram queue -- the Connection
        Manager already carved out its bandwidth -- so delivery takes only
        propagation latency.  Returns False (dropping the message) when
        the circuit does not exist, matching ATM cells on a torn-down VC.
        An id-less ``msg`` is numbered as in :meth:`send`.
        """
        if msg.msg_id is None:
            self.last_msg_id += 1
            msg.msg_id = self.last_msg_id
        self._account(msg.kind, msg.size_bytes)
        src_ip, dst_ip = msg.src[0], msg.dst[0]
        src_iface = self._interfaces.get(src_ip)
        dst_iface = self._interfaces.get(dst_ip)
        if (src_iface is None or not src_iface.host.up or dst_iface is None
                or (self._partitions and not self.reachable(src_ip, dst_ip))
                or not dst_iface.in_link.has_reservation(reservation_key)):
            self.messages_dropped += 1
            return False
        delay = dst_iface.in_link.latency + self._fault_delay(src_ip, dst_ip)
        hb = self.kernel.hb_log
        if hb is not None:
            hb.emit("hb", "send", msg=msg.msg_id,
                    src=f"{src_ip}:{msg.src[1]}",
                    dst=f"{dst_ip}:{msg.dst[1]}")
        self.kernel.call_later(delay, self._deliver, msg)
        if self._dup:
            # Parity with send(): reserved circuits echo like datagrams.
            self._maybe_duplicate(msg, delay)
        return True

    def send_stream(self, seg: Segment) -> Segment:
        """Send ``seg`` from chunk 0: to end of stream as one datagram
        while nothing on its path can change -- no partition, no fault,
        no hb log, both ends attached and up, the circuit reserved -- and
        else chunk 0 alone through :meth:`send_reserved`.  Whatever ends
        that calls :meth:`cut_stream`.  The datagram counts once in
        ``messages_sent``, its bytes as if each chunk had gone alone.
        """
        src_iface = self._interfaces.get(seg.src[0])
        dst_iface = self._interfaces.get(seg.dst[0])
        msg = seg.message(seg.pos, min(seg.chunk, seg.duration - seg.pos))
        if (self.kernel.hb_log is not None or self._partitions or self._loss
                or self._delay or self._dup or self._gray or self._reorder
                or self._corrupt or src_iface is None or not src_iface.host.up
                or dst_iface is None or not dst_iface.host.up
                or not dst_iface.in_link.has_reservation(seg.key)):
            self.send_reserved(msg, seg.key)
            return seg
        seg.delay = delay = dst_iface.in_link.latency   # no fault delay
        nbytes = 0
        for i, s, p, span in seg.chunks():
            nbytes += HEADER_BYTES + int(seg.bitrate * span / 8)
        seg.count = seg.lazy = i + 1
        seg.end, seg.end_pos, seg.last_arrival = s + span, p + span, s + delay
        msg.payload["segment"] = seg
        self.last_msg_id += 1
        msg.msg_id = self.last_msg_id
        self._account(seg.kind, nbytes)
        self._streams.setdefault(seg.key, []).append(seg)
        self.kernel.call_later(delay, self._deliver, msg)
        return seg

    def cut_stream(self, seg: Segment) -> None:
        """End a live ``seg`` now, at T: chunks with ``s_i <= T`` stay
        sent, and those of them still in flight (past chunk 0, whose
        arrival is the datagram's) become datagrams of their own, so
        :meth:`_deliver` judges each at its arrival.  The unsent chunks'
        bytes are refunded; the sender resumes at ``seg.end``."""
        live = self._streams.get(seg.key)
        if live is None or seg not in live:
            return
        live.remove(seg)
        if not live:
            del self._streams[seg.key]
        now = self.kernel.now
        if now >= seg.end and now >= seg.last_arrival:
            return      # every chunk sent and arrived: nothing changes
        sent, refund = seg.count, 0
        seg.lazy, seg.last_arrival = 1, seg.start + seg.delay
        for i, s, p, span in seg.chunks():
            if s > now:
                if i < sent:
                    sent, seg.count, seg.end, seg.end_pos = i, i, s, p
                refund += HEADER_BYTES + int(seg.bitrate * span / 8)
            elif i and s + seg.delay <= now:
                seg.lazy, seg.last_arrival = i + 1, s + seg.delay
            elif i:
                msg = seg.message(p, span)
                self.last_msg_id += 1
                msg.msg_id = self.last_msg_id
                self.kernel.call_at(s + seg.delay, self._deliver, msg)
        self._kind_stats[seg.kind][1] -= refund
        for watcher in seg.watchers:
            watcher()

    def _cut_streams(self, key: Optional[str] = None) -> None:
        """Something on the live segments' path (only ``key``'s circuit,
        for a released reservation) can change: cut them."""
        for seg in (list(self._streams.get(key, ())) if key is not None else
                    [seg for segs in self._streams.values() for seg in segs]):
            self.cut_stream(seg)

    def broadcast(self, src_ip: str, dst_ips: List[str], port: int,
                  kind: str, payload: Any, payload_bytes: int = 0) -> int:
        """Downstream broadcast: one transmission reaching many settops.

        Models the cable plant's shared downstream channel (the boot and
        kernel broadcast services, section 3.4.1): the sender pays for one
        copy on its uplink; receivers hear it after their link latency
        without per-receiver serialization.  Datagrams leave from source
        port 0, so a receiver with nobody on ``port`` answers nothing.

        Returns the number of receivers *reached*: those with an attached
        interface that no partition separates from the sender at send
        time.  That is neither the listeners (a reached receiver may have
        nothing bound to ``port``) nor the hosts that are up (a down host
        is reached here and dropped at arrival).  Every receiver named in
        ``dst_ips`` counts as one message sent; the unreached ones count
        as dropped.

        Receivers are scheduled in *runs*: consecutive reached receivers
        whose arrival delay is equal share one kernel event, and an
        envelope is built at arrival only for a receiver that listens
        (see :meth:`_deliver_broadcast`).  Each reached receiver takes
        the next message id, so a run carries only its first.
        """
        interfaces = self._interfaces
        src_iface = interfaces.get(src_ip)
        if src_iface is None or not src_iface.host.up:
            return 0
        delay = src_iface.out_link.occupy(HEADER_BYTES + payload_bytes)
        kernel = self.kernel
        hb = kernel.hb_log
        partitions = self._partitions
        delay_faults = self._delay or self._gray or self._reorder
        dup = self._dup
        # Nothing below numbers a datagram, so reached receiver k has id
        # last_id + k; the counter moves once, at the end.
        last_id = self.last_msg_id
        run: Optional[List[str]] = None
        run_delay = 0.0
        reached = 0
        for dst_ip in dst_ips:
            iface = interfaces.get(dst_ip)
            if iface is None or (partitions
                                 and not self.reachable(src_ip, dst_ip)):
                # Parity with send(): an unknown or partitioned receiver
                # is a dropped datagram (accounted below), not a skip.
                continue
            reached += 1
            if hb is not None:
                hb.emit("hb", "send", msg=last_id + reached,
                        src=f"{src_ip}:0", dst=f"{dst_ip}:{port}")
            receiver_delay = delay + iface.in_link.latency
            if delay_faults:
                receiver_delay += self._fault_delay(src_ip, dst_ip)
            if run is None or receiver_delay != run_delay:
                run = []
                run_delay = receiver_delay
                kernel.call_later(receiver_delay, self._deliver_broadcast,
                                  src_ip, port, kind, payload, payload_bytes,
                                  last_id + reached, run)
            run.append(dst_ip)
            if dup and dst_ip in dup:
                # Parity with send(): a receiver behind a duplicating
                # plant segment hears the broadcast's echo too.  The echo
                # is an event of its own; ending the run here keeps a
                # run's receivers seq-adjacent, which is all the order
                # argument in _deliver_broadcast rests on.
                self._maybe_duplicate(
                    Message(src=(src_ip, 0), dst=(dst_ip, port), kind=kind,
                            payload=payload, payload_bytes=payload_bytes,
                            msg_id=last_id + reached),
                    receiver_delay)
                run = None
        self.last_msg_id = last_id + reached
        sent = len(dst_ips)
        if sent:
            # One copy on the wire regardless of population: count a
            # message per receiver but charge no per-receiver bytes.
            self._account(kind, 0, sent)
            self.messages_dropped += sent - reached
        return reached

    def _deliver_broadcast(self, src_ip: str, port: int, kind: str,
                           payload: Any, payload_bytes: int, first_id: int,
                           run: List[str]) -> None:
        """Arrival of one broadcast run: ``_deliver`` per receiver, minus
        the envelope for receivers that never look at one.

        The run's receivers would have had seq-adjacent events at one
        instant -- nothing was scheduled between them, so nothing could
        have run between them -- and walking them back to back is the
        order the kernel would have produced.  Each receiver
        gets exactly ``_deliver``'s checks in ``_deliver``'s order, and
        every fault rng is drawn as it would have been; a ``Message`` is
        built only where something reads it -- a bound handler, or the
        corrupt fault's roll.  No port-unreachable notice: the source
        port is 0, which nothing binds.  With no partition, loss or
        corrupt fault armed, a receiver missing from the live listener
        index (a handler may rebind later receivers) is dropped unprobed.
        """
        listening = self._listeners.get(port, ())
        if not listening and not (
                self._partitions or self._loss or self._corrupt):
            # Nobody listens, so no handler runs to change that.
            self.messages_dropped += len(run)
            return
        interfaces = self._interfaces
        src = (src_ip, 0)
        for msg_id, dst_ip in enumerate(run, first_id):
            if dst_ip not in listening and not (
                    self._partitions or self._loss or self._corrupt):
                self.messages_dropped += 1
                continue
            iface = interfaces.get(dst_ip)
            if iface is None or not iface.host.up or (
                    self._partitions
                    and not self.reachable(src_ip, dst_ip)):
                self.messages_dropped += 1
                continue
            if self._loss and self._lose(dst_ip):
                continue
            msg = None
            if self._corrupt and dst_ip in self._corrupt:
                msg = self._maybe_corrupt(
                    Message(src, (dst_ip, port), kind, payload,
                            payload_bytes, msg_id), dst_ip)
            handler = iface.ports.get(port)
            if handler is None:
                self.messages_dropped += 1
                continue
            if msg is None:
                msg = Message(src, (dst_ip, port), kind, payload,
                              payload_bytes, msg_id)
            self.messages_delivered += 1
            hb = self.kernel.hb_log
            if hb is not None:
                hb.emit("hb", "recv", msg=msg_id, dst=f"{dst_ip}:{port}")
            handler(msg)

    # -- accounting ---------------------------------------------------------

    def count_kind(self, prefix: str) -> int:
        """Total messages whose kind starts with ``prefix``."""
        return sum(stats[0] for kind, stats in self._kind_stats.items()
                   if kind.startswith(prefix))
