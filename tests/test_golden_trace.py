"""Golden traces: the kernel fast-path must not move a single event.

The PR that introduced the ``call_soon`` FIFO lane, slotted
futures/messages, indexed traces and batched network accounting recorded
these digests from the *pre-change* scheduler.  Any optimisation that
reorders even one event (or changes one emitted field) changes the
digest -- which is exactly the regression this file exists to catch.
Same-seed double runs (tests/test_determinism.py) prove a run agrees
with itself; these goldens prove it agrees with history.
"""

import hashlib

from repro.analysis.determinism import reference_scenario_trace

# sha256 of "\n".join(trace lines) for the reference failover scenario.
# Re-recorded for PR 4 (overload robustness): every OCS call envelope
# now carries an 8-byte absolute deadline (DEADLINE_BYTES changes wire
# sizes and therefore transmission timestamps), gated services push
# periodic load reports to RAS and the NS replicas (new messages on the
# wire), and rebind/backoff sleeps are clamped to the caller's
# remaining budget (moving retry timestamps), and viewer-facing app
# calls carry an 8 s interactive deadline so overloaded apps degrade
# instead of retrying for a minute.  All are deliberate behaviour
# changes, not scheduler regressions.  These digests pin the new event
# order against drift.
#
# Re-recorded for PR 5 (population scale): the SSC now owns the load
# reporting loop -- it coalesces every local gate's gauges and pushes
# ONE reportLoadBatch per target per LOAD_REPORT_INTERVAL, emitting an
# ``ssc load_report`` trace event per push.  The diff against the PR 4
# goldens is exactly +75 ``ssc.load_report`` lines per scenario (all
# other event kinds and counts unchanged; timestamps shift with the
# new wire traffic).  Deliberate message-count change, not drift.
#
# Re-recorded for PR 7 (incremental log-shipping replication).  Event-
# kind diff against the PR 5/6 goldens, per scenario: all three
# ``ns.state_fetched`` full-snapshot lines become O(gap) ``ns.catch_up``
# lines, the reboot leg adds one ``ns.restored`` (the NS replica
# resumes from its on-disk change log) and 2-3 ``db.catch_up`` lines
# (db replicas stream the missed tail / anti-entropy poll).  Net +3
# lines (seed 3) / +4 (seed 7); wire sizes of the replication messages
# and the ``repl_lag`` field in SSC load reports shift the timestamps.
# Backups also now probe the current binding on every AlreadyBound bind
# retry (stale-binding reclaim, DESIGN.md section 9.1) -- one extra
# resolve per backup per retry cycle moves timestamps without changing
# any event count.  Deliberate protocol change, not drift.
#
# Re-recorded for PR 9 (at-most-once RPC).  Every call envelope now
# carries a 16-byte request id and 4-byte payload checksum
# (REQUEST_ID_BYTES + CHECKSUM_BYTES), so every transmission timestamp
# shifts.  Seed 3 keeps the exact same event-kind counts (361 lines);
# seed 7 fits one fewer VOD open/close cycle in the 60 s window under
# the shifted timings (-1 each of mds.movie_opened/movie_closed,
# mms.opened/closed/superseded, cmgr.allocated/deallocated: -7 lines).
# Deliberate wire-format change, not drift.
GOLDEN = {
    # (seed, settops, duration): (n_lines, sha256)
    (3, 2, 60.0): (
        361,
        "6b46b5eab62e27b7cc7a655efa958dd4159548cc910367f702dac0a9af0deb72"),
    (7, 2, 60.0): (
        377,
        "b7049ff8542350a4f3d1d746c72ce1f7d70c5b42984656796300438eb30041be"),
}


class TestGoldenTraces:
    def test_reference_scenario_matches_prechange_digests(self):
        for (seed, settops, duration), (n_lines, digest) in GOLDEN.items():
            lines = reference_scenario_trace(seed, settops=settops,
                                             duration=duration)
            assert len(lines) == n_lines, (
                f"seed {seed}: trace length {len(lines)} != golden {n_lines}")
            got = hashlib.sha256("\n".join(lines).encode()).hexdigest()
            assert got == digest, (
                f"seed {seed}: trace digest drifted from the pre-fast-path "
                f"golden; an optimisation reordered or altered events")
