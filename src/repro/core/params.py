"""System timing parameters, defaulting to the paper's deployed values.

Section 9.7 names the three parameters that bound primary/backup
fail-over time and gives their Orlando settings:

    "Backup retries bind every 10 seconds
     Name service polls RAS every 10 seconds
     RAS polls other RASs every 5 seconds
     This gives a maximum fail over time of 25 seconds."

Experiment E2 sweeps these; everything else reads them from one
:class:`Params` instance owned by the scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Tuple


@dataclass
class Params:
    # -- the section 9.7 fail-over parameters --------------------------
    backup_bind_retry: float = 10.0   # backup retries bind into name space
    ns_audit_poll: float = 10.0       # name service polls its local RAS
    ras_peer_poll: float = 5.0        # RAS polls RAS instances on peers

    # -- name service replication (section 4.6) ------------------------
    ns_heartbeat: float = 2.0         # master -> slave liveness beacon
    ns_election_timeout: Tuple[float, float] = (4.0, 8.0)  # randomized
    ns_port: int = 5000               # well-known bootstrap port

    # -- resource audit -------------------------------------------------
    ras_call_timeout: float = 2.0     # peer poll RPC deadline
    ras_client_poll: float = 10.0     # library checkStatus cadence (MMS)

    # -- settop liveness (Settop Manager) --------------------------------
    settop_heartbeat: float = 5.0
    settop_dead_after: float = 15.0   # missed heartbeats before "down"

    # -- service control (section 6) -------------------------------------
    ssc_restart_delay: float = 1.0    # backoff before restarting a service
    csc_ping_interval: float = 5.0    # CSC pings each SSC

    # -- client library ----------------------------------------------------
    rebind_backoff: float = 0.0       # 0 = immediate re-resolve (section 8.2)
    call_timeout: float = 3.0
    # Total rebind budget when the caller does not pass an explicit
    # ``give_up_after``: every cooldown/backoff sleep inside
    # RebindingProxy.call() is clamped to this budget even with
    # ``deadline=None`` (PR 5 regression fix).
    rebind_give_up_after: float = 60.0

    # -- population scale (PR 5, paper sections 5.1 / 9.6) -----------------
    # Per-host binding cache: resolve once, reuse the ref until a use
    # raises StaleReference/InvalidObjectReference or the replica sheds.
    # Off = every resolve() is a name-service round trip (the E15
    # uncached control row).
    binding_cache: bool = True

    # -- retry backoff (core/backoff.py) ---------------------------------
    # Start-up races (notifyReady before the SSC listens, bind before the
    # name service elects) retry through one shared jittered-exponential
    # helper instead of ad-hoc sleep(1.0) loops, so a restart storm of N
    # services spreads its retries instead of phase-locking.
    retry_backoff_base: float = 1.0        # first retry delay (seconds)
    retry_backoff_multiplier: float = 2.0  # growth per failed attempt
    retry_backoff_max: float = 8.0         # delay cap
    retry_backoff_jitter: float = 0.25     # +/- fraction drawn per retry

    # -- overload control (PR 4, paper section 5.1) -----------------------
    # Per-service admission gate: at most admission_max_inflight servant
    # executions with admission_max_queue calls waiting; beyond that the
    # call is shed with Overloaded(retry_after=admission_retry_after).
    # Sized so healthy-cluster workloads (48-settop boot storms, busy
    # evenings) never shed; only genuine surges and slow consumers trip
    # the gate.
    admission_max_inflight: int = 16
    admission_max_queue: int = 64
    admission_retry_after: float = 2.0     # server's cool-down hint
    overload_cooldown_floor: float = 0.5   # min client-side replica cooldown
    overload_cooldown_jitter: float = 0.5  # +/- fraction on the cooldown
    load_report_interval: float = 5.0      # gate gauges -> RAS + Selectors
    shed_load_level: float = 1.0           # selector skips members at >= this
    surge_p99_bound: float = 10.0          # E14 acceptance: p99 open latency
    degraded_bitrate_fraction: float = 0.25  # low-bitrate catalog fallback
    # A viewer-facing call gives up (and the app degrades) after this
    # long: the section 3 responsiveness discipline -- a TV viewer will
    # not stare at a frozen screen while a proxy retries for a minute.
    interactive_deadline: float = 8.0

    # -- happens-before instrumentation (repro.analysis.hb) ---------------
    # Emit ``hb.*`` trace events (message send/recv edges, shared-state
    # writes) so the vector-clock race detector can audit the run.  Off
    # by default: the emissions add trace lines, so golden-digest runs
    # must not see them.
    hb_trace: bool = False

    # -- replication change log (PR 7, devpi-style log shipping) -----------
    # Entries kept in the on-disk ChangeLog after compaction.  A replica
    # whose cursor falls more than this many updates behind the primary
    # must take the snapshot+tail fallback instead of the O(gap)
    # incremental catch-up.
    changelog_retain: int = 512
    # Anti-entropy cadence: a db backup polls the primary's change log
    # on this interval (devpi's replica poll), so a push missed during a
    # partition is repaired even if no further write ever arrives.  The
    # NS needs no poll -- its heartbeats already carry the master seq.
    db_replication_poll: float = 10.0
    # Chaos monitor bound: how long a live replica may trail its primary's
    # change-log sequence before ``replica_lag_bounded`` trips.  Sized to
    # cover one anti-entropy poll plus the catch-up RPC with slack.
    replica_lag_bound: float = 30.0

    # -- storage fault model (PR 8, repro.sim.host.Disk) -------------------
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
    chaos_audit_slack: float = 45.0        # grace beyond the audit polls
    chaos_settle_slack: float = 60.0       # quiesce beyond 3x max_failover

    @property
    def chaos_audit_bound(self) -> float:
        """How long a dead binding may linger before the monitor trips.

        One name-service audit poll plus one RAS peer poll is the paper's
        detection path (section 4.7); the slack absorbs call timeouts and
        the re-audit after an election.
        """
        return self.ns_audit_poll + self.ras_peer_poll + self.chaos_audit_slack

    # -- media -------------------------------------------------------------
    movie_bitrate_bps: float = 3_000_000   # MPEG-1/2 era CBR stream
    stream_chunk_seconds: float = 1.0      # MDS delivery granularity
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

    extra: dict = field(default_factory=dict)

    @property
    def max_failover(self) -> float:
        """The paper's worst-case primary/backup fail-over bound."""
        return self.backup_bind_retry + self.ns_audit_poll + self.ras_peer_poll

    def with_overrides(self, **kwargs) -> "Params":
        return replace(self, **kwargs)
