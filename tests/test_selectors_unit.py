"""Direct unit tests for selector policies and media seeding helpers."""

import pytest

from repro.core.naming.errors import SelectorFailed
from repro.core.naming.selectors import (
    BUILTIN_SELECTORS,
    PreferredMemberSelector,
    SelectorState,
    run_builtin,
)
from repro.net.address import server_ip, settop_ip
from repro.ocs.objref import ObjectRef


def ref_at(ip, port=7000):
    return ObjectRef(ip=ip, port=port, incarnation=(0.0, 1),
                     type_id="NamingContext", object_id="")


@pytest.fixture
def state():
    return SelectorState()


class TestBuiltinCatalog:
    def test_expected_policies_registered(self):
        assert set(BUILTIN_SELECTORS) == {
            "first", "roundrobin", "random", "neighborhood", "sameserver",
            "leastloaded"}

    def test_unknown_policy_rejected(self, state):
        with pytest.raises(SelectorFailed):
            run_builtin("bogus", [("a", None)], "x", "p", state)

    def test_empty_members_rejected(self, state):
        for policy in ("first", "roundrobin", "random"):
            with pytest.raises(SelectorFailed):
                run_builtin(policy, [], "x", "p", state)


class TestNeighborhoodSelector:
    def test_routes_by_caller_neighborhood(self, state):
        bindings = [("1", None), ("2", None)]
        chosen = run_builtin("neighborhood", bindings, settop_ip(2, 0),
                             "svc/cmgr", state)
        assert chosen == "2"

    def test_server_caller_rejected(self, state):
        with pytest.raises(SelectorFailed):
            run_builtin("neighborhood", [("1", None)], server_ip(0),
                        "svc/cmgr", state)

    def test_missing_neighborhood_rejected(self, state):
        with pytest.raises(SelectorFailed):
            run_builtin("neighborhood", [("1", None)], settop_ip(7, 0),
                        "svc/cmgr", state)


class TestSameServerSelector:
    def test_matches_member_name(self, state):
        bindings = [(server_ip(0), None), (server_ip(1), None)]
        assert run_builtin("sameserver", bindings, server_ip(1),
                           "svc/ras", state) == server_ip(1)

    def test_falls_back_to_ref_ip(self, state):
        bindings = [("forge", ref_at(server_ip(0))),
                    ("kiln", ref_at(server_ip(1)))]
        assert run_builtin("sameserver", bindings, server_ip(1),
                           "svc/mds", state) == "kiln"

    def test_no_local_replica_rejected(self, state):
        with pytest.raises(SelectorFailed):
            run_builtin("sameserver", [("x", ref_at(server_ip(0)))],
                        server_ip(2), "svc/ras", state)


class TestLeastLoaded:
    def test_unreported_members_count_as_idle(self, state):
        bindings = [("a", None), ("b", None)]
        state.report_load("p", "a", 5.0)
        assert run_builtin("leastloaded", bindings, "x", "p", state) == "b"

    def test_ties_break_by_name(self, state):
        bindings = [("b", None), ("a", None)]
        assert run_builtin("leastloaded", bindings, "x", "p", state) == "a"

    def test_loads_scoped_per_path(self, state):
        state.report_load("p1", "a", 9.0)
        bindings = [("a", None), ("b", None)]
        # p2 has no loads: ties break to "a".
        assert run_builtin("leastloaded", bindings, "x", "p2", state) == "a"


class TestCustomSelectorServant:
    def test_select_validates_choice(self):
        class Rogue(PreferredMemberSelector):
            def choose(self, bindings, caller_ip):
                return "not-a-member"

        import asyncio  # noqa: F401 - not used; servant is coroutine-based
        servant = Rogue("x")
        from repro.sim import Kernel
        kernel = Kernel()

        async def call():
            return await servant.select(None, [("a", None)], "caller")

        with pytest.raises(SelectorFailed):
            kernel.run_until_complete(call())


class TestMediaSeeding:
    def test_movies_replicated_on_requested_copies(self):
        from repro.cluster import Cluster
        from repro.cluster.media import movie_locations, seed_default_content
        cluster = Cluster(n_servers=3)
        seed_default_content(cluster, copies=2)
        from repro.cluster.media import DEFAULT_MOVIES
        for title in DEFAULT_MOVIES:
            assert len(movie_locations(cluster, title)) == 2

    def test_apps_on_every_server(self):
        from repro.cluster import Cluster
        from repro.cluster.media import DEFAULT_APPS, seed_default_content
        cluster = Cluster(n_servers=2)
        seed_default_content(cluster)
        for host in cluster.servers:
            for app in DEFAULT_APPS:
                assert f"rdsdata/apps/{app}" in host.disk

    def test_blob_wire_size(self):
        from repro.services.data import Blob
        blob = Blob(name="x", size=123_456)
        assert blob.wire_size == 123_456
