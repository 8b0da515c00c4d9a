"""Unit tests for the OCS object-exchange layer."""

import pytest

from repro.idl import register_exception, register_interface
from repro.idl.errors import SignatureError
from repro.net import Network, server_ip
from repro.ocs import (
    CallTimeout,
    InvalidObjectReference,
    OCSRuntime,
    RemoteException,
)
from repro.ocs.objref import ObjectRef
from repro.sim import Host, Kernel

register_interface("TestEcho", {
    "echo": ("value",),
    "fail": ("kind",),
    "slow": ("duration",),
    "add": ("a", "b"),
}, doc="toy interface for runtime tests")

register_interface("TestEchoForged", {"secret": ()},
                   doc="a lying type id for the TestEcho export")


@register_exception
class TeapotError(Exception):
    """A registered application exception."""


class EchoServant:
    def __init__(self, kernel):
        self.kernel = kernel
        self.calls = []

    async def echo(self, ctx, value):
        self.calls.append((ctx.caller, value))
        return value

    async def fail(self, ctx, kind):
        if kind == "registered":
            raise TeapotError("short and stout")
        raise KeyError("unregistered")

    async def slow(self, ctx, duration):
        await self.kernel.sleep(duration)
        return "done"

    def add(self, ctx, a, b):
        # Deliberately synchronous: servants may be plain functions.
        return a + b


@pytest.fixture
def world():
    kernel = Kernel()
    net = Network(kernel)
    hosts = []
    for i in range(3):
        host = Host(kernel, f"server-{i}")
        net.attach(host, server_ip(i))
        hosts.append(host)
    return kernel, net, hosts


def start_echo(kernel, net, host):
    proc = host.spawn("echo-svc")
    runtime = OCSRuntime(proc, net)
    servant = EchoServant(kernel)
    ref = runtime.export(servant, "TestEcho")
    return proc, runtime, servant, ref


def client_runtime(net, host, name="client"):
    proc = host.spawn(name)
    return proc, OCSRuntime(proc, net)


class TestInvocation:
    def test_round_trip(self, world):
        kernel, net, hosts = world
        _, _, servant, ref = start_echo(kernel, net, hosts[0])
        _, cli = client_runtime(net, hosts[1])

        async def main():
            return await cli.invoke(ref, "echo", ("hello",))

        assert kernel.run_until_complete(main()) == "hello"
        assert servant.calls[0][1] == "hello"

    def test_caller_identity_delivered(self, world):
        kernel, net, hosts = world
        _, _, servant, ref = start_echo(kernel, net, hosts[0])
        proc, cli = client_runtime(net, hosts[1], name="vod-app")

        async def main():
            await cli.invoke(ref, "echo", ("x",))

        kernel.run_until_complete(main())
        assert servant.calls[0][0] == "vod-app@server-1"

    def test_wrong_arity_rejected(self, world):
        kernel, net, hosts = world
        _, _, _, ref = start_echo(kernel, net, hosts[0])
        _, cli = client_runtime(net, hosts[1])

        async def main():
            await cli.invoke(ref, "add", (1,))

        with pytest.raises(SignatureError):
            kernel.run_until_complete(main())

    def test_registered_exception_round_trips(self, world):
        kernel, net, hosts = world
        _, _, _, ref = start_echo(kernel, net, hosts[0])
        _, cli = client_runtime(net, hosts[1])

        async def main():
            await cli.invoke(ref, "fail", ("registered",))

        with pytest.raises(TeapotError, match="short and stout"):
            kernel.run_until_complete(main())

    def test_unregistered_exception_becomes_remote(self, world):
        kernel, net, hosts = world
        _, _, _, ref = start_echo(kernel, net, hosts[0])
        _, cli = client_runtime(net, hosts[1])

        async def main():
            await cli.invoke(ref, "fail", ("other",))

        with pytest.raises(RemoteException, match="KeyError"):
            kernel.run_until_complete(main())

    def test_nil_reference(self, world):
        kernel, net, hosts = world
        _, cli = client_runtime(net, hosts[1])

        async def main():
            await cli.invoke(None, "echo", ("x",))

        with pytest.raises(InvalidObjectReference):
            kernel.run_until_complete(main())

    def test_concurrent_calls_to_multithreaded_servant(self, world):
        kernel, net, hosts = world
        _, _, _, ref = start_echo(kernel, net, hosts[0])
        _, cli = client_runtime(net, hosts[1])
        done_times = []

        async def one(d):
            await cli.invoke(ref, "slow", (d,))
            done_times.append(kernel.now)

        async def main():
            from repro.sim import gather
            await gather(kernel, [one(1.0), one(1.0)])

        kernel.run_until_complete(main())
        # Both ~1s: the servant handles calls concurrently.
        assert all(t < 1.5 for t in done_times)


    def test_plain_def_and_async_def_operations_are_interchangeable(
            self, world):
        kernel, net, hosts = world

        class PlainAdd:
            def add(self, ctx, a, b):
                return a + b

        class AsyncAdd:
            async def add(self, ctx, a, b):
                return a + b

        outcomes = []
        for servant in (PlainAdd(), AsyncAdd()):
            name = type(servant).__name__
            ref = OCSRuntime(hosts[0].spawn(name), net).export(servant,
                                                               "TestEcho")
            _, cli = client_runtime(net, hosts[1], name=f"client-{name}")
            sent, start = net.messages_sent, kernel.now
            reply = kernel.run_until_complete(cli.invoke(ref, "add", (2, 3)))
            outcomes.append((reply, net.messages_sent - sent,
                             round(kernel.now - start, 9)))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][:2] == (5, 2)

    def test_operation_outside_the_interface_is_answered_not_raised(
            self, world):
        """A raw call frame naming a servant attribute the interface
        does not declare gets an error reply; it must neither run the
        attribute nor raise out of the kernel."""
        kernel, net, hosts = world
        _, runtime, servant, ref = start_echo(kernel, net, hosts[0])
        servant.secret = lambda ctx: servant.calls.append("secret")
        forged = ObjectRef(ip=ref.ip, port=ref.port,
                           incarnation=ref.incarnation,
                           type_id="TestEchoForged", object_id=ref.object_id)
        _, cli = client_runtime(net, hosts[1])
        fut = cli.invoke(forged, "secret", ())
        kernel.run()
        assert isinstance(fut.exception(), RemoteException)
        assert "NoSuchMethod" in str(fut.exception())
        assert servant.calls == [] and runtime.calls_served == 0


class TestFailureDetection:
    def test_dead_process_gives_invalid_reference(self, world):
        kernel, net, hosts = world
        proc, _, _, ref = start_echo(kernel, net, hosts[0])
        _, cli = client_runtime(net, hosts[1])
        proc.kill()

        async def main():
            await cli.invoke(ref, "echo", ("x",))

        with pytest.raises(InvalidObjectReference):
            kernel.run_until_complete(main())
        # Detection is fast (port-unreachable), not a timeout.
        assert kernel.now < 0.5

    def test_crashed_host_gives_timeout(self, world):
        kernel, net, hosts = world
        _, _, _, ref = start_echo(kernel, net, hosts[0])
        _, cli = client_runtime(net, hosts[1])
        hosts[0].crash()

        async def main():
            await cli.invoke(ref, "echo", ("x",), timeout=2.0)

        with pytest.raises(CallTimeout):
            kernel.run_until_complete(main())
        assert kernel.now == pytest.approx(2.0)

    def test_restarted_process_rejects_stale_ref(self, world):
        kernel, net, hosts = world
        proc, _, _, old_ref = start_echo(kernel, net, hosts[0])
        proc.kill()
        kernel.run(until=1.0)
        # Restart the service: new incarnation, new port.
        start_echo(kernel, net, hosts[0])
        _, cli = client_runtime(net, hosts[1])

        async def main():
            await cli.invoke(old_ref, "echo", ("x",))

        with pytest.raises(InvalidObjectReference):
            kernel.run_until_complete(main())

    def test_unexported_object_rejected(self, world):
        kernel, net, hosts = world
        _, runtime, _, ref = start_echo(kernel, net, hosts[0])
        runtime.unexport("")
        _, cli = client_runtime(net, hosts[1])

        async def main():
            await cli.invoke(ref, "echo", ("x",))

        with pytest.raises(InvalidObjectReference):
            kernel.run_until_complete(main())

    def test_server_dying_mid_call_times_out(self, world):
        kernel, net, hosts = world
        proc, _, _, ref = start_echo(kernel, net, hosts[0])
        _, cli = client_runtime(net, hosts[1])
        kernel.call_later(0.5, proc.kill)

        async def main():
            await cli.invoke(ref, "slow", (10.0,), timeout=2.0)

        with pytest.raises(CallTimeout):
            kernel.run_until_complete(main())


class TestSingleThreadedServants:
    def test_calls_serialize(self, world):
        kernel, net, hosts = world
        proc = hosts[0].spawn("st-svc")
        runtime = OCSRuntime(proc, net)
        servant = EchoServant(kernel)
        ref = runtime.export(servant, "TestEcho", single_threaded=True)
        _, cli = client_runtime(net, hosts[1])
        done_times = []

        async def one(d):
            await cli.invoke(ref, "slow", (d,), timeout=30.0)
            done_times.append(round(kernel.now, 2))

        async def main():
            from repro.sim import gather
            await gather(kernel, [one(1.0), one(1.0)])

        kernel.run_until_complete(main())
        # Second call waits for the first: ~1s then ~2s.
        assert max(done_times) >= 2.0

    def test_busy_servant_cannot_answer_ping(self, world):
        """Single-threaded services miss pings while busy (section 7.2)."""
        kernel, net, hosts = world
        proc = hosts[0].spawn("st-svc")
        runtime = OCSRuntime(proc, net)
        servant = EchoServant(kernel)
        ref = runtime.export(servant, "TestEcho", single_threaded=True)
        _, cli = client_runtime(net, hosts[1])
        outcomes = {}

        async def long_call():
            outcomes["long"] = await cli.invoke(ref, "slow", (10.0,), timeout=30.0)

        async def ping():
            await kernel.sleep(1.0)  # land mid-long-call
            try:
                await cli.invoke(ref, "echo", ("ping",), timeout=2.0)
                outcomes["ping"] = "answered"
            except CallTimeout:
                outcomes["ping"] = "timeout"

        kernel.create_task(long_call())
        kernel.create_task(ping())
        kernel.run(until=60.0)
        assert outcomes["ping"] == "timeout"
        assert outcomes["long"] == "done"


class TestExportRules:
    def test_duplicate_object_id_rejected(self, world):
        kernel, net, hosts = world
        proc = hosts[0].spawn("svc")
        runtime = OCSRuntime(proc, net)
        runtime.export(EchoServant(kernel), "TestEcho")
        from repro.ocs import OCSError
        with pytest.raises(OCSError):
            runtime.export(EchoServant(kernel), "TestEcho")

    def test_multiple_objects_with_ids(self, world):
        kernel, net, hosts = world
        proc = hosts[0].spawn("svc")
        runtime = OCSRuntime(proc, net)
        r1 = runtime.export(EchoServant(kernel), "TestEcho", object_id="a")
        r2 = runtime.export(EchoServant(kernel), "TestEcho", object_id="b")
        assert r1.object_id != r2.object_id
        assert r1.port == r2.port
