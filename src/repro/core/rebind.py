"""Automatic client rebinding (paper section 8.2).

"When the client attempts to invoke an object from a failed service, the
object communication system raises an exception.  At this point, library
code in the client automatically returns to the name service to obtain
another object reference for the service."

The proxy also implements the paper's recovery-storm mitigation: "If
performance difficulties arise, we can modify the library routine to
back off when repeating requests for a new service object" -- enabled by
setting ``Params.rebind_backoff`` (experiment E6 measures both modes).

PR 4 adds overload awareness.  Calls may carry an absolute ``deadline``
that bounds the whole rebind loop (every retry sleep and per-attempt
timeout is clamped to the remaining budget), and a replica that sheds
with :class:`Overloaded` is put on a seeded, jittered client-side
cooldown: the reference is dropped so the Selector steers the retry at
a different replica, and if resolution hands back a replica still in
cooldown the proxy fails fast so applications can degrade instead of
camping on a saturated server.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

from repro.core.backoff import jittered
from repro.core.naming.client import NameClient
from repro.core.naming.errors import NamingError
from repro.core.params import Params
from repro.ocs.exceptions import DeadlineExceeded, Overloaded, ServiceUnavailable
from repro.ocs.objref import ObjectRef
from repro.ocs.runtime import OCSRuntime
from repro.sim.rand import SeededRandom

OVERLOAD_COOLDOWN_FLOOR = 0.5    # min client-side replica cooldown
OVERLOAD_COOLDOWN_JITTER = 0.5   # +/- fraction on the cooldown


class RebindError(ServiceUnavailable):
    """The service stayed unavailable past the caller's deadline."""


class RebindingProxy:
    """A service handle that survives replica failure and relocation.

    The first call resolves the service name; later calls reuse the
    cached reference ("The AM only contacts the name service for a
    reference to the RDS the first time", section 3.4.2).  On
    :class:`ServiceUnavailable` the reference is dropped and re-resolved,
    transparently to the caller.
    """

    def __init__(self, runtime: OCSRuntime, names: NameClient, name: str,
                 params: Optional[Params] = None,
                 rng: Optional[SeededRandom] = None,
                 give_up_after: Optional[float] = None):
        self._runtime = runtime
        self._names = names
        self._name = name
        self._params = params or names.params
        self._rng = rng or SeededRandom(0)
        # ``None`` means "use the params budget".  Either way the value
        # feeds the loop budget in call(), so every cooldown/backoff
        # sleep is clamped to it even when ``deadline`` is None (the
        # PR 5 regression fix: a params-supplied give_up_after used to
        # be advisory text in the final error only).
        if give_up_after is None:
            give_up_after = self._params.rebind_give_up_after
        self._give_up_after = give_up_after
        self._ref: Optional[ObjectRef] = None
        # Shed replicas under client-side cooldown: endpoint -> (until,
        # the Overloaded that put it there).  Endpoint, not ObjectRef:
        # a re-resolve returns a fresh ref to the same saturated server.
        self._cooldowns: Dict[Tuple[str, int], Tuple[float, Overloaded]] = {}
        self.rebinds = 0
        self.resolve_calls = 0
        self.sheds_seen = 0

    @property
    def ref(self) -> Optional[ObjectRef]:
        return self._ref

    def invalidate(self) -> None:
        """Drop the cached reference (e.g. after a data-path stall)."""
        self._drop_ref(self._ref)

    def _drop_ref(self, ref: Optional[ObjectRef]) -> None:
        """Drop ``ref`` AND report it bad to the shared binding cache --
        if it is still the ref this proxy holds.

        Overlapping calls on one proxy each fail on the ref their own
        attempt used; whichever reports first drops it, and a later
        report must not clobber the ref a sibling has re-resolved since.

        Without the report the host's BindingCache would hand the same
        dead/shedding ref straight back on the next resolve and the
        rebind loop could never make progress (coherence by exception,
        PR 5).  The ref match inside invalidate() keeps a late failure
        report from evicting a binding another component already
        refreshed.
        """
        if ref is None or self._ref is not ref:
            return
        self._names.invalidate(self._name, ref)
        self._ref = None

    def _cooling(self, ref: ObjectRef) -> Optional[Overloaded]:
        """The Overloaded that put ``ref``'s endpoint on cooldown, if live."""
        entry = self._cooldowns.get((ref.ip, ref.port))
        if entry is None:
            return None
        until, err = entry
        if self._runtime.kernel.now >= until:
            del self._cooldowns[(ref.ip, ref.port)]
            return None
        return err

    def _note_shed(self, ref: ObjectRef, err: Overloaded) -> None:
        cooldown = jittered(
            self._rng, max(err.retry_after, OVERLOAD_COOLDOWN_FLOOR),
            OVERLOAD_COOLDOWN_JITTER)
        self._cooldowns[(ref.ip, ref.port)] = (
            self._runtime.kernel.now + cooldown, err)

    async def call(self, method: str, *args: Any,
                   timeout: Optional[float] = None,
                   deadline: Optional[float] = None) -> Any:
        kernel = self._runtime.kernel
        budget = kernel.now + self._give_up_after
        if deadline is not None:
            budget = min(budget, deadline)
        call_timeout = timeout or self._params.call_timeout
        backoff = self._params.rebind_backoff
        last_error: Optional[Exception] = None
        # One request id for the whole logical call: every retry below
        # (including retry-after-CallTimeout, which lands in the
        # ServiceUnavailable arm) re-issues under the same identity, so
        # a server that already executed a timed-out attempt replays its
        # cached reply instead of executing the op a second time.
        request_id = self._runtime.next_request_id()
        while kernel.now < budget:
            # The ref of *this* attempt: a sibling call on the same proxy
            # may drop or replace self._ref across any await below.
            ref = self._ref
            if ref is None:
                try:
                    self.resolve_calls += 1
                    ref = self._ref = await self._names.resolve(self._name)
                except (NamingError, ServiceUnavailable) as err:
                    # Not bound (yet/anymore): a replica will rebind soon.
                    last_error = err
                    await kernel.sleep(self._clamped(
                        self._retry_delay(backoff), budget))
                    continue
                cooling = self._cooling(ref)
                if cooling is not None:
                    # The Selector handed back a replica we know is
                    # shedding.  Fail fast with the server's own signal
                    # so the application can degrade instead of camping
                    # on a saturated pool for the whole budget.  (Keep
                    # the cache entry: the replica is alive, merely
                    # cooling on *this* client.)
                    self._ref = None
                    raise cooling
            try:
                return await self._runtime.invoke(
                    ref, method, args,
                    timeout=min(call_timeout, budget - kernel.now),
                    deadline=deadline, request_id=request_id)
            except Overloaded as err:
                # Alive but saturated: cool this endpoint down and let
                # the name service steer the retry at another replica.
                self.sheds_seen += 1
                last_error = err
                self._note_shed(ref, err)
                self._drop_ref(ref)
                self.rebinds += 1
                await kernel.sleep(self._clamped(
                    self._retry_delay(backoff), budget))
            except DeadlineExceeded:
                # The budget itself is spent; rebinding cannot help.
                raise
            except ServiceUnavailable as err:
                # The reference went stale: rebind through the name service.
                last_error = err
                self._drop_ref(ref)
                self.rebinds += 1
                if backoff > 0:
                    await kernel.sleep(self._clamped(
                        self._retry_delay(backoff), budget))
        if deadline is not None and budget >= deadline:
            raise DeadlineExceeded(
                f"{self._name}.{method} deadline spent after "
                f"{self.rebinds} rebinds: {last_error}")
        raise RebindError(
            f"{self._name} unavailable for {self._give_up_after}s: {last_error}")

    def _clamped(self, delay: float, budget: float) -> float:
        """Never sleep past the loop's own budget (PR 4 backoff bugfix)."""
        return max(0.0, min(delay, budget - self._runtime.kernel.now))

    def _retry_delay(self, backoff: float) -> float:
        if backoff <= 0:
            return 0.5  # bare re-resolve pacing; the storm case
        # Jittered backoff spreads the re-resolve herd (section 8.2);
        # same jitter recipe as every other retry loop (core/backoff.py).
        return jittered(self._rng, backoff, 0.5)
