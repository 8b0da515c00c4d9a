"""Measurement helpers shared by tests, examples, and benchmarks."""

from repro.metrics.latency import percentile, summarize
from repro.metrics.availability import AvailabilityTimeline
from repro.metrics.cluster import (cluster_counters, live_replicas,
                                   live_runtimes)

__all__ = ["AvailabilityTimeline", "cluster_counters", "live_replicas",
           "live_runtimes", "percentile", "summarize"]
