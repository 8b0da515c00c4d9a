"""Shared seeded jittered-exponential retry backoff.

Every retry loop in the system used to sleep a fixed 1.0 s between
attempts (``register_objects``, the bind/rebind paths).  Fixed delays
phase-lock: when a server reboot restarts twenty services at once, they
all retry at the same instants and hammer the name service in lockstep
-- the recovery-storm problem of paper section 8.2, but self-inflicted.

:class:`Backoff` is the one implementation those loops share.  Delays
grow geometrically from ``Backoff.base`` by ``Backoff.multiplier`` up
to ``Backoff.max_delay``, each draw jittered by ``+/- Backoff.jitter``
of itself from a *seeded* stream, so two runs with the same seed retry
at identical times (the repo's byte-identical-trace invariant) while
distinct services spread out within a run.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.rand import SeededRandom


class Backoff:
    """One retry loop's delay state; create one per loop, reset on success."""

    # Start-up races (notifyReady before the SSC listens, bind before the
    # name service elects) retry through this one helper instead of
    # ad-hoc sleep(1.0) loops, so a restart storm of N services spreads
    # its retries instead of phase-locking.
    base = 1.0         # first retry delay (seconds)
    multiplier = 2.0   # growth per failed attempt
    max_delay = 8.0    # delay cap
    jitter = 0.25      # +/- fraction drawn per retry

    def __init__(self, rng: SeededRandom,
                 max_elapsed: Optional[float] = None):
        # Total-sleep budget: once the sum of returned delays reaches
        # this, next_delay() returns 0.0 and ``exhausted`` turns true.
        # A retry loop with a deadline must not sleep past it (PR 4
        # bugfix: loops used to overshoot their own budget).
        self.max_elapsed = max_elapsed
        self._rng = rng
        self.attempts = 0
        self.total_slept = 0.0

    def next_delay(self) -> float:
        """The delay to sleep before the next retry (advances the state).

        Clamped so the cumulative sum of delays never exceeds
        ``max_elapsed``; returns 0.0 once the budget is spent.
        """
        delay = min(self.base * (self.multiplier ** self.attempts),
                    self.max_delay)
        self.attempts += 1
        delay = jittered(self._rng, delay, self.jitter)
        if self.max_elapsed is not None:
            remaining = self.max_elapsed - self.total_slept
            if remaining <= 0:
                return 0.0
            delay = min(delay, remaining)
        self.total_slept += delay
        return delay

    @property
    def exhausted(self) -> bool:
        """True once the ``max_elapsed`` sleep budget is fully spent."""
        return (self.max_elapsed is not None
                and self.total_slept >= self.max_elapsed)

    def reset(self) -> None:
        """Back to the base delay (call after a successful attempt)."""
        self.attempts = 0
        self.total_slept = 0.0


def jittered(rng: SeededRandom, delay: float, fraction: float) -> float:
    """``delay`` spread uniformly over ``+/- fraction`` of itself.

    The one jitter recipe both the backoff helper and the rebinding
    proxy (:mod:`repro.core.rebind`) use, so "jittered" means the same
    distribution everywhere.
    """
    if fraction <= 0 or delay <= 0:
        return delay
    return rng.uniform(delay * (1.0 - fraction), delay * (1.0 + fraction))
