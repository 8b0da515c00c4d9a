"""The compiled call path: one call plan per (interface, operation).

``OCSRuntime.invoke`` and ``_handle_call`` read an operation's
definition, wire kind and arity from the plan its interface memoised on
first use.  These tests pin what that must not change: a bad call still
fails through its future with the IDL error it always got, a derived
interface's inherited operation still goes out under the derived type's
wire kind, the per-call context stays immutable, and a
``port_unreachable`` notice still finds exactly its own call.
"""

import pytest

from repro.idl import register_interface
from repro.idl.errors import NoSuchMethod, SignatureError, UnknownInterface
from repro.idl.interface import lookup_interface
from repro.ocs import InvalidObjectReference, OCSRuntime
from repro.ocs.objref import ObjectRef
from tests.helpers import small_world

register_interface("PlanBase", {"ping": ("value",)},
                   doc="base interface of the call-plan tests")
register_interface("PlanDerived", {
    "bump": ("value",),
    "slow": ("duration",),
    "context": (),
}, base="PlanBase", doc="derived interface: inherits ping")


class PlanToy:
    def __init__(self, kernel):
        self.kernel = kernel
        self.contexts = []

    def ping(self, ctx, value):
        return value

    def bump(self, ctx, value):
        return len(value)

    async def slow(self, ctx, duration):
        await self.kernel.sleep(duration)
        return duration

    def context(self, ctx):
        self.contexts.append(ctx)
        return ctx.caller


def rig(n_hosts=2):
    """kernel, net, server process, server ref, client runtime."""
    kernel, net, hosts = small_world(n_hosts)
    proc = hosts[0].spawn("toy")
    ref = OCSRuntime(proc, net).export(PlanToy(kernel), "PlanDerived")
    client = OCSRuntime(hosts[-1].spawn("client"), net)
    return kernel, net, proc, ref, client


def with_type(ref, type_id):
    return ObjectRef(ip=ref.ip, port=ref.port, incarnation=ref.incarnation,
                     type_id=type_id, object_id=ref.object_id)


@pytest.mark.parametrize("type_id, method, args, error", [
    ("NoSuchPlanType", "ping", (1,), UnknownInterface),
    ("PlanDerived", "frobnicate", (1,), NoSuchMethod),
    ("PlanDerived", "ping", (1, 2), SignatureError),
    ("PlanDerived", "context", (1,), SignatureError),
])
def test_a_bad_call_fails_through_its_future(type_id, method, args, error):
    kernel, net, _proc, ref, client = rig()
    for _ in range(2):     # first (plan miss) and again (memoised)
        fut = client.invoke(with_type(ref, type_id), method, args)
        assert fut.done() and type(fut.exception()) is error
    # A call that fails at the stub never reaches the wire.
    assert net.messages_sent == 0 and client.calls_sent == 0


def test_a_derived_plan_resolves_an_inherited_operation():
    derived = lookup_interface("PlanDerived")
    plan = derived.plan("ping")
    assert plan.method is lookup_interface("PlanBase").methods["ping"]
    assert (plan.kind, plan.arity) == ("rpc.call.PlanDerived.ping", 1)
    assert derived.plan("ping") is plan     # built once, then memoised
    # On the wire: byte-equal to the kind the stub always formatted.
    kernel, net, _proc, ref, client = rig()
    kinds = []
    send = net.send

    def spy(msg):
        kinds.append(msg.kind)
        send(msg)

    net.send = spy
    assert kernel.run_until_complete(client.invoke(ref, "ping", (3,))) == 3
    assert kinds == [f"rpc.call.{ref.type_id}.ping", "rpc.reply"]


def test_the_call_context_is_immutable():
    kernel, _net, proc, ref, client = rig()
    caller = kernel.run_until_complete(client.invoke(ref, "context", ()))
    (ctx,) = proc.attachments["ocs"]._exports[""].servant.contexts
    assert ctx.caller == caller
    for field in ("caller", "caller_ip", "authenticated", "encrypted",
                  "deadline"):
        with pytest.raises(AttributeError):
            setattr(ctx, field, None)
    assert ctx.caller == caller


def test_each_port_unreachable_fails_only_its_own_call():
    """Two calls in flight to one dead port and one to a live servant:
    each notice fails the call whose datagram it names, at its own
    arrival, and leaves the others pending."""
    kernel, net, hosts = small_world(3)
    live = OCSRuntime(hosts[0].spawn("live"), net).export(PlanToy(kernel),
                                                          "PlanDerived")
    dead_proc = hosts[1].spawn("dead")
    dead = OCSRuntime(dead_proc, net).export(PlanToy(kernel), "PlanDerived")
    dead_proc.kill()
    client = OCSRuntime(hosts[2].spawn("client"), net)
    # The live call is the oldest in flight and the big one the newest,
    # so a notice matched to any call but its own fails the wrong one.
    slow = client.invoke(live, "slow", (1.0,), timeout=5.0)
    small = client.invoke(dead, "ping", (1,), timeout=5.0)
    # ~65 ms on the wire at FDDI rate: still in flight when the small
    # call's notice comes back.
    big = client.invoke(dead, "bump", (bytes(400_000),), timeout=5.0)

    kernel.run(until=0.01)
    assert type(small.exception()) is InvalidObjectReference
    assert "ping" in str(small.exception())
    assert not big.done() and not slow.done()

    kernel.run(until=0.5)
    assert type(big.exception()) is InvalidObjectReference
    assert "bump" in str(big.exception())
    assert not slow.done()

    kernel.run(until=2.0)
    assert slow.result() == 1.0
