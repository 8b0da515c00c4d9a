"""Falsifiability fixture: a service-style module with broken call sites.

This module *looks* like production replication code but gets the
protocol wrong in two ways that no call fails on.  The test asserting
each break is flagged proves the conformance checker has teeth -- if
the checker ever goes blind (model extraction breaks, rules stop
visiting call sites), that test fails loudly instead of the checker
silently passing everything.
"""


async def replicate(runtime, ref, rows, deadline):
    await runtime.invoke(ref, "forwardWrite", ("t", "k", rows, False),
                         timeout=3.0)                      # line 13: P005
    runtime.invoke(ref, "put", ("t", "k", rows), timeout=3.0,
                   deadline=deadline).detach()             # line 15: P004
