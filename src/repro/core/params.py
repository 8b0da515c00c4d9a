"""System timing parameters, defaulting to the paper's deployed values.

Section 9.7 names the three parameters that bound primary/backup
fail-over time and gives their Orlando settings:

    "Backup retries bind every 10 seconds
     Name service polls RAS every 10 seconds
     RAS polls other RASs every 5 seconds
     This gives a maximum fail over time of 25 seconds."

Experiment E2 sweeps these; everything else reads them from one
:class:`Params` instance owned by the scenario.

The rule: a :class:`Params` field is something an experiment, the CLI,
a drill or a test sets to another value.  Everything else is a named
constant -- beside its reader when one module reads it, here when
several do (this module imports nothing, so no cycle).
``tests/test_params_census.py`` keeps the count honest.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

# -- name service replication (section 4.6) ----------------------------
NS_HEARTBEAT = 2.0                 # master -> slave liveness beacon
NS_ELECTION_TIMEOUT = (4.0, 8.0)   # randomized
NS_PORT = 5000                     # well-known bootstrap port

# -- resource audit -----------------------------------------------------
RAS_CALL_TIMEOUT = 2.0             # peer poll RPC deadline

# -- overload control (paper section 5.1) -------------------------------
LOAD_REPORT_INTERVAL = 5.0         # gate gauges -> RAS + Selectors
# A viewer-facing call gives up (and the app degrades) after this
# long: the section 3 responsiveness discipline -- a TV viewer will
# not stare at a frozen screen while a proxy retries for a minute.
INTERACTIVE_DEADLINE = 8.0

# -- chaos engine (repro.chaos) -----------------------------------------
CHAOS_AUDIT_SLACK = 45.0           # grace beyond the audit polls

# -- media ----------------------------------------------------------------
MOVIE_BITRATE_BPS = 3_000_000      # MPEG-1/2 era CBR stream
STREAM_CHUNK_SECONDS = 1.0         # MDS delivery granularity


@dataclass
class Params:
    # -- the section 9.7 fail-over parameters --------------------------
    backup_bind_retry: float = 10.0   # backup retries bind into name space
    ns_audit_poll: float = 10.0       # name service polls its local RAS
    ras_peer_poll: float = 5.0        # RAS polls RAS instances on peers

    # -- client library ----------------------------------------------------
    rebind_backoff: float = 0.0       # 0 = immediate re-resolve (section 8.2)
    call_timeout: float = 3.0
    # Total rebind budget when the caller does not pass an explicit
    # ``give_up_after``: every cooldown/backoff sleep inside
    # RebindingProxy.call() is clamped to this budget even with
    # ``deadline=None``.
    rebind_give_up_after: float = 60.0

    # -- population scale (paper sections 5.1 / 9.6) -----------------------
    # Per-host binding cache: resolve once, reuse the ref until a use
    # raises StaleReference/InvalidObjectReference or the replica sheds.
    # Off = every resolve() is a name-service round trip (the E15
    # uncached control row).
    binding_cache: bool = True

    # -- overload control (paper section 5.1) -----------------------------
    # Per-service admission gate: at most admission_max_inflight servant
    # executions with admission_max_queue calls waiting; beyond that the
    # call is shed with Overloaded(retry_after=ADMISSION_RETRY_AFTER).
    # Sized so healthy-cluster workloads (48-settop boot storms, busy
    # evenings) never shed; only genuine surges and slow consumers trip
    # the gate.
    admission_max_inflight: int = 16
    admission_max_queue: int = 64

    # -- happens-before instrumentation (repro.analysis.hb) ---------------
    # Emit ``hb.*`` trace events (message send/recv edges, shared-state
    # writes) so the vector-clock race detector can audit the run.  Off
    # by default: the emissions add trace lines, so golden-digest runs
    # must not see them.
    hb_trace: bool = False

    # -- replication change log (devpi-style log shipping) -----------------
    # Entries kept in the on-disk ChangeLog after compaction.  A replica
    # whose cursor falls more than this many updates behind the primary
    # must take the snapshot+tail fallback instead of the O(gap)
    # incremental catch-up.
    changelog_retain: int = 512

    # -- storage fault model (repro.sim.host.Disk) -------------------------
    # Arm the write barrier on every host disk at build time: writes
    # buffer until sync() and a host crash drops the unsynced buffer
    # (power-failure semantics).  Off by default: the barrier itself
    # emits nothing, but golden-digest runs should exercise the same
    # always-durable storage they were recorded against.  Chaos
    # schedules usually arm it per-disk via the disk_lose_unsynced /
    # disk_torn_write faults instead of flipping this globally.
    disk_write_barrier: bool = False

    # -- chaos engine (repro.chaos) ---------------------------------------
    chaos_monitor_interval: float = 5.0    # invariant-monitor probe cadence
    chaos_settle_slack: float = 60.0       # quiesce beyond 3x max_failover

    @property
    def chaos_audit_bound(self) -> float:
        """How long a dead binding may linger before the monitor trips.

        One name-service audit poll plus one RAS peer poll is the paper's
        detection path (section 4.7); the slack absorbs call timeouts and
        the re-audit after an election.
        """
        return self.ns_audit_poll + self.ras_peer_poll + CHAOS_AUDIT_SLACK

    # -- media -------------------------------------------------------------
    mds_disk_streams: int = 40             # per-server disk stream budget

    # -- resource limits (section 7.3) ---------------------------------------
    # "A settop client is only allowed to open a certain number of
    # network connections and audio/video streams.  If the settop
    # attempts to acquire more resources, either its request is denied or
    # one of the previously allocated resources is freed."  Both of the
    # paper's policies are available.
    max_connections_per_settop: int = 2
    connection_limit_policy: str = "deny"   # "deny" | "evict"
    # Resource accounting (section 7.3 names it as needed future work:
    # "accounting is needed both for discovering buggy clients and for
    # charging properly for resource usage") -- implemented extension.
    resource_accounting: bool = True

    @property
    def max_failover(self) -> float:
        """The paper's worst-case primary/backup fail-over bound."""
        return self.backup_bind_retry + self.ns_audit_poll + self.ras_peer_poll

    def with_overrides(self, **kwargs) -> "Params":
        return replace(self, **kwargs)
