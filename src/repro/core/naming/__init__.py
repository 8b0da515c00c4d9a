"""The extended name service (paper sections 4-5).

The name service is "a fundamental part of our system": it publishes
object references, hides replication behind :class:`ReplicatedContext`
objects and selectors, removes dead objects via auditing, and is itself
replicated on every server with master/slave replication and majority
election.
"""

from repro.core.naming.cache import BindingCache, cache_for
from repro.core.naming.client import NameClient, ns_root_ref
from repro.core.naming.errors import (
    AlreadyBound,
    InvalidName,
    NameNotFound,
    NoMaster,
    NotAContext,
)
from repro.core.naming.replica import NameReplicaProcess, start_name_replica
from repro.core.naming.selectors import BUILTIN_SELECTORS
from repro.core.naming.store import NameStore

__all__ = [
    "AlreadyBound",
    "BUILTIN_SELECTORS",
    "BindingCache",
    "InvalidName",
    "NameClient",
    "cache_for",
    "NameNotFound",
    "NameReplicaProcess",
    "NameStore",
    "NoMaster",
    "NotAContext",
    "ns_root_ref",
    "start_name_replica",
]
