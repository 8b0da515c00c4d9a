"""Measurement helpers shared by tests, examples, and benchmarks."""

from repro.metrics.latency import LatencyRecorder, percentile, summarize
from repro.metrics.availability import AvailabilityTimeline
from repro.metrics.overload import collect_overload, total_sheds
from repro.metrics.replication import all_converged, collect_replication

__all__ = ["AvailabilityTimeline", "LatencyRecorder", "all_converged",
           "collect_overload", "collect_replication", "percentile",
           "summarize", "total_sheds"]
