"""Additional OCS coverage: oneway semantics and wire accounting."""

import pytest

from repro.idl import MethodDef, register_interface
from repro.net import Network, server_ip
from repro.ocs import OCSRuntime
from repro.sim import Host, Kernel

register_interface("ExtraSvc", {
    "fire": MethodDef("fire", ("event",), oneway=True),
    "echo": ("v",),
    "big": ("n",),
})


class _Servant:
    def __init__(self):
        self.events = []

    async def fire(self, ctx, event):
        self.events.append(event)

    async def echo(self, ctx, v):
        return v

    async def big(self, ctx, n):
        return b"x" * n


@pytest.fixture
def world():
    kernel = Kernel()
    net = Network(kernel)
    hosts = []
    for i in range(2):
        host = Host(kernel, f"s{i}")
        net.attach(host, server_ip(i))
        hosts.append(host)
    server_proc = hosts[0].spawn("svc")
    server_rt = OCSRuntime(server_proc, net)
    servant = _Servant()
    ref = server_rt.export(servant, "ExtraSvc")
    client_proc = hosts[1].spawn("cli")
    client_rt = OCSRuntime(client_proc, net)
    return kernel, net, servant, ref, client_rt


class TestOneway:
    def test_oneway_completes_immediately(self, world):
        kernel, net, servant, ref, cli = world

        async def main():
            fut = cli.invoke(ref, "fire", ("evt",))
            # Oneway futures are already done: no round trip awaited.
            assert fut.done()
            return await fut

        assert kernel.run_until_complete(main()) is None
        kernel.run(until=1.0)
        assert servant.events == ["evt"]

    def test_oneway_to_dead_process_does_not_raise(self, world):
        kernel, net, servant, ref, cli = world
        net.host_at(ref.ip).find_process("svc").kill()

        async def main():
            await cli.invoke(ref, "fire", ("lost",))
            return "sent"

        assert kernel.run_until_complete(main()) == "sent"
        kernel.run(until=1.0)
        assert servant.events == []

    def test_oneway_generates_single_message(self, world):
        kernel, net, _servant, ref, cli = world

        async def main():
            await cli.invoke(ref, "fire", ("evt",))

        kernel.run_until_complete(main())
        kernel.run(until=1.0)
        assert net.sent_by_kind.get("rpc.call.ExtraSvc.fire") == 1
        assert net.sent_by_kind.get("rpc.reply", 0) == 0


class TestWireAccounting:
    def test_reply_bytes_scale_with_result(self, world):
        kernel, net, _servant, ref, cli = world

        async def main():
            await cli.invoke(ref, "big", (10,))
            small = net.bytes_by_kind["rpc.reply"]
            await cli.invoke(ref, "big", (100_000,))
            return small, net.bytes_by_kind["rpc.reply"] - small

        small, big = kernel.run_until_complete(main())
        assert big > small + 90_000

    def test_call_counters(self, world):
        kernel, _net, _servant, ref, cli = world

        async def main():
            for _ in range(3):
                await cli.invoke(ref, "echo", ("x",))

        kernel.run_until_complete(main())
        assert cli.calls_sent == 3
