"""IDL declarations for the name service (paper section 4.4).

The operation set matches the paper's ``NamingContext`` interface, plus
``resolveFor`` (the internal recursion carrying the original caller's
address so neighbourhood selectors work across context hops),
``setSelector``/``reportLoadBatch`` (management of builtin selector policies),
and the ``NameReplica`` internal interface used for master/slave
replication and majority election (section 4.6).
"""

from repro.idl import MethodDef, register_interface

NAMING_CONTEXT = register_interface(
    "NamingContext",
    {
        # "Object resolve(in Name name) -- Resolve a name to an object."
        "resolve": ("name",),
        # Internal recursion step: resolve relative to this context on
        # behalf of the original caller at ``caller_ip``.
        "resolveFor": ("name", "caller_ip"),
        # "void bind(in Name name, in Object obj)"
        "bind": ("name", "obj"),
        # "void unbind(in Name name)"
        "unbind": ("name",),
        # "void bindNewContext(in Name name)"
        "bindNewContext": ("name",),
        # "void bindReplContext(in Name name)" -- extended with the
        # initial builtin selector policy.
        "bindReplContext": ("name", "selector"),
        # "void list(in Name name, out BindingList bl)"
        "list": ("name",),
        # "listRepl ... returns binding information about all of the
        # bindings in a replicated context."
        "listRepl": ("name",),
        "setSelector": ("name", "spec"),
        # One coalesced selector-load batch per server per
        # interval; ``entries`` is a list of (path, member, load).
        "reportLoadBatch": ("entries",),
    },
    doc="Hierarchical naming context (paper section 4.4)",
    # resolve is the hottest call in the cluster and load reports are
    # absolute gauge upserts; none of them may queue behind the reply
    # cache.  bind/unbind/bindNewContext/bindReplContext/setSelector
    # mutate the tree and stay dedup'd.
    idempotent=("resolve", "resolveFor", "list", "listRepl",
                "reportLoadBatch"),
)

REPLICATED_CONTEXT = register_interface(
    "ReplicatedContext",
    {},
    base="NamingContext",
    doc="Context whose lookups go through a selector (section 4.5)",
)

SELECTOR = register_interface(
    "Selector",
    {
        # select(bindings, caller_ip) -> chosen member name.  ``bindings``
        # is the Figure 6 list of (name, object reference) pairs.
        "select": ("bindings", "caller_ip"),
    },
    doc="Replica chooser for a ReplicatedContext (section 4.5)",
    idempotent=("select",),
)

NAME_REPLICA = register_interface(
    "NameReplica",
    {
        "forwardUpdate": ("op",),
        # The master streams numbered change-log batches; each
        # entry is (seq, epoch, op) and ``from_seq`` is the seq just
        # before the batch so a receiver detects gaps immediately.
        "applyUpdates": MethodDef("applyUpdates", ("from_seq", "entries"),
                                  oneway=True),
        "requestVote": ("epoch", "candidate_ip", "candidate_seq"),
        # Acknowledged so the master can count reachable replicas: it
        # steps down when it no longer commands a majority.
        "heartbeat": ("epoch", "master_ip", "seq"),
        # Incremental catch-up from the change log: returns
        # ("ops", entries) for a shared-history cursor, or
        # ("snapshot", snap, epoch, digest) when the log was truncated
        # past the cursor or the histories forked.
        "fetchUpdates": ("from_seq", "from_epoch"),
        "status": (),
    },
    doc="Internal replica-to-replica protocol (section 4.6)",
    # The replica protocol is epoch/seq-guarded end to end: a re-sent
    # heartbeat reasserts the same (epoch, seq), requestVote returns the
    # recorded per-epoch answer, and fetchUpdates is a pure cursor read.
    # forwardUpdate is the one true mutation and stays dedup'd.
    idempotent=("requestVote", "heartbeat", "fetchUpdates", "status"),
)
