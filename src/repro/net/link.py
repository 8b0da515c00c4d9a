"""Point-of-attachment links with serialization delay and CBR reservations.

Each host attaches to the network through a pair of :class:`Link` objects
(inbound and outbound).  A link models:

- *serialization*: back-to-back messages queue FIFO; a message of ``n``
  bytes occupies the link for ``8n / rate`` seconds starting when the link
  frees up (store-and-forward), which is what makes a 2 MByte application
  download take seconds on the settop downlink (paper section 9.3);
- *propagation latency*: a fixed per-link delay;
- *CBR reservations* (paper sections 3.3, 3.4.4): the Connection Manager
  reserves constant-bit-rate capacity for movie streams; reservations
  subtract from the capacity available for admission control.  Movie
  payloads travel as coarse chunks, sent as one segment datagram while
  the path is quiet (``Network.send_stream``), so the event count grows
  with segments, not with seconds of play or frames.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.sim.kernel import Kernel


class ReservationError(Exception):
    """Requested CBR bandwidth exceeds remaining link capacity."""


class Link:
    """A unidirectional link with a bit rate, latency, and reservations."""

    def __init__(self, kernel: Kernel, rate_bps: float, latency: float = 0.001,
                 name: str = "link"):
        if rate_bps <= 0:
            raise ValueError("link rate must be positive")
        self.kernel = kernel
        self.rate_bps = rate_bps
        self.latency = latency
        self.name = name
        self._busy_until = 0.0
        self._reservations: Dict[str, float] = {}
        # Called with each released key (the network cuts its segments).
        self.on_release: Optional[Callable[[str], None]] = None
        # Cached: occupy() reads it per datagram, reservations change per
        # movie.  Recomputed wherever _reservations changes (rate_bps is
        # fixed at construction).
        self._effective_rate_bps = self._compute_effective_rate()

    # -- datagram serialization ---------------------------------------

    def serialization_time(self, nbytes: int) -> float:
        return (8.0 * nbytes) / self._effective_rate_bps

    def occupy(self, nbytes: int) -> float:
        """Queue a message on the link; return its total one-way delay.

        The delay covers queueing behind earlier messages, serialization at
        the rate left over after CBR reservations, and propagation latency.
        """
        now = self.kernel.now
        start = max(now, self._busy_until)
        # serialization_time, inline: one call per datagram per link.
        finish = start + (8.0 * nbytes) / self._effective_rate_bps
        self._busy_until = finish
        return (finish - now) + self.latency

    @property
    def effective_rate_bps(self) -> float:
        """Rate available to datagram traffic after CBR reservations."""
        return self._effective_rate_bps

    def _compute_effective_rate(self) -> float:
        return max(self.rate_bps - self.reserved_bps, self.rate_bps * 0.01)

    # -- CBR reservations ----------------------------------------------

    @property
    def reserved_bps(self) -> float:
        return sum(self._reservations.values())

    @property
    def available_bps(self) -> float:
        return self.rate_bps - self.reserved_bps

    def reserve(self, key: str, bps: float) -> None:
        """Reserve CBR capacity under ``key``; admission-controlled."""
        if bps <= 0:
            raise ValueError("reservation must be positive")
        if key in self._reservations:
            raise ReservationError(f"duplicate reservation key: {key}")
        if bps > self.available_bps + 1e-9:
            raise ReservationError(
                f"{self.name}: requested {bps} bps, only "
                f"{self.available_bps:.0f} available of {self.rate_bps}"
            )
        self._reservations[key] = bps
        self._effective_rate_bps = self._compute_effective_rate()

    def release(self, key: str) -> bool:
        """Drop a reservation; returns False when the key is unknown."""
        if self._reservations.pop(key, None) is None:
            return False
        self._effective_rate_bps = self._compute_effective_rate()
        if self.on_release is not None:
            self.on_release(key)
        return True

    def has_reservation(self, key: str) -> bool:
        return key in self._reservations

    def clear_reservations(self) -> None:
        for key in list(self._reservations):
            self.release(key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Link {self.name} {self.rate_bps:.0f}bps "
                f"reserved={self.reserved_bps:.0f}>")
