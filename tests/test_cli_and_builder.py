"""Tests for the CLI surface and cluster builder mechanics."""

from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.cluster import Cluster, build_cluster, build_full_cluster
from repro.db.service import read_row
from repro.net.address import neighborhood_of


class TestCLIParser:
    def test_all_commands_parse(self):
        parser = build_parser()
        for argv in (["quickstart"], ["drill"], ["evening", "--settops", "2"],
                     ["operator"], ["report"],
                     ["inventory", "--servers", "2", "--seed", "7"]):
            args = parser.parse_args(argv)
            assert callable(args.fn)

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    @pytest.mark.parametrize("argv", [["--determinism-check"],
                                      ["analyze-trace", "--seed", "11"]])
    def test_a_seeded_run_has_one_driver(self, argv, capsys):
        """``repro chaos`` drives every seeded run: no side mode or
        second subcommand parses."""
        from repro.cli import main
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage: repro" in capsys.readouterr().err

    def test_inventory_runs(self, capsys):
        from repro.cli import main
        assert main(["inventory", "--servers", "2", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Service census" in out
        assert "server-1" in out

    def test_chaos_prints_the_nonzero_counters(self, capsys, tmp_path):
        from repro.cli import main
        schedule = (Path(__file__).resolve().parent.parent / "benchmarks"
                    / "schedules" / "e18_hostile_net.json")
        assert main(["chaos", "--schedule", str(schedule), "--seeds", "1",
                     "--settops", "2", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "seed 0: ok" in out
        lines = {}
        for line in out.splitlines():
            prefix, sep, items = line.partition(": ")
            if sep and line.startswith("  "):
                lines[prefix.strip()] = dict(item.split("=")
                                             for item in items.split())
        net, ocs = lines["net"], lines["ocs"]
        for name in ("duplicated", "reordered", "corrupted"):
            assert int(net[name]) > 0
        assert int(ocs["corrupt_dropped"]) > 0
        # Only nonzero counters print: no corrupt frame reached dispatch.
        assert "corrupt_dispatched" not in ocs

    def test_chaos_hb_replay_has_no_races(self, capsys, tmp_path):
        from repro.cli import main
        schedule = (Path(__file__).resolve().parent.parent / "benchmarks"
                    / "schedules" / "e13_kills.json")
        assert main(["chaos", "--hb", "--schedule", str(schedule),
                     "--seed-base", "11", "--seeds", "1", "--settops", "2",
                     "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        hb = [line.split() for line in out.splitlines()
              if line.startswith("  hb: ")]
        assert len(hb) == 1 and "races=0" in hb[0], out


class TestBuilderMechanics:
    def test_neighborhoods_assigned_round_robin(self):
        cluster = Cluster(n_servers=3, neighborhoods_per_server=2)
        assert cluster.neighborhoods == [1, 2, 3, 4, 5, 6]
        assert cluster.neighborhoods_by_server[cluster.server_ips[0]] == [1, 4]
        assert cluster.neighborhoods_by_server[cluster.server_ips[1]] == [2, 5]

    def test_server_for_neighborhood(self):
        cluster = Cluster(n_servers=2, neighborhoods_per_server=2)
        assert cluster.server_for_neighborhood(1) is cluster.servers[0]
        assert cluster.server_for_neighborhood(2) is cluster.servers[1]
        with pytest.raises(ValueError):
            cluster.server_for_neighborhood(99)

    def test_add_settop_updates_plant_map(self):
        cluster = Cluster(n_servers=2)
        settop = cluster.add_settop(1)
        plant = cluster.cluster_config["settops_by_neighborhood"]
        assert settop.ip in plant[1]
        assert neighborhood_of(settop.ip) == 1

    def test_add_settop_unknown_neighborhood_rejected(self):
        cluster = Cluster(n_servers=2)
        with pytest.raises(ValueError):
            cluster.add_settop(42)

    def test_settle_times_out_without_services(self):
        # A cluster whose init starts nothing can never settle.
        cluster = Cluster(n_servers=2, base_services=["ns"])
        # svc/ras never binds: settle's check can't pass.
        assert cluster.settle(timeout=5.0,
                              extra_names=["svc/ras/" + cluster.server_ips[0]]
                              ) is False

    def test_build_cluster_settles(self):
        cluster = build_cluster(n_servers=2, seed=191)
        assert cluster.ns_master_ip() is not None

    def test_full_cluster_placement_written_to_disk(self):
        cluster = build_full_cluster(n_servers=2, seed=192)
        placement = read_row(cluster.servers[0].disk, "config", "placement")
        assert set(placement["mds"]) == set(cluster.server_ips)

    def test_seed_changes_timings_not_structure(self):
        a = build_cluster(n_servers=2, seed=1)
        b = build_cluster(n_servers=2, seed=2)
        assert a.server_ips == b.server_ips
        assert a.neighborhoods == b.neighborhoods

    def test_same_seed_reproduces_master(self):
        a = build_cluster(n_servers=3, seed=55)
        b = build_cluster(n_servers=3, seed=55)
        assert a.ns_master_ip() == b.ns_master_ip()
