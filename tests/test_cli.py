"""Tests for the command-line interface."""

import dataclasses
import json

import pytest

from repro.__main__ import main


@pytest.fixture()
def divider_netlist(tmp_path):
    path = tmp_path / "divider.cir"
    path.write_text(
        ".title cli divider\n"
        "Vin top 0 12\n"
        "Rtop top mid 10k tol=0.05\n"
        "Rbot mid 0 10k tol=0.05\n"
    )
    return str(path)


class TestSimulate:
    def test_prints_operating_point(self, divider_netlist, capsys):
        assert main(["simulate", divider_netlist]) == 0
        out = capsys.readouterr().out
        assert "V(mid)" in out
        assert "V(top) = 12" in out


class TestDiagnose:
    def test_healthy_exit_zero(self, divider_netlist, capsys):
        code = main(["diagnose", divider_netlist, "--probe", "mid=6.0"])
        assert code == 0
        assert "behaves nominally" in capsys.readouterr().out

    def test_faulty_exit_one_with_candidates(self, divider_netlist, capsys):
        code = main(["diagnose", divider_netlist, "--probe", "mid=7.0"])
        assert code == 1
        out = capsys.readouterr().out
        assert "minimal candidates" in out
        assert "fault-mode refinement" in out

    def test_no_refine_flag(self, divider_netlist, capsys):
        main(["diagnose", divider_netlist, "--probe", "mid=7.0", "--no-refine"])
        assert "fault-mode refinement" not in capsys.readouterr().out

    def test_bad_probe_spec(self, divider_netlist):
        with pytest.raises(SystemExit):
            main(["diagnose", divider_netlist, "--probe", "mid"])

    def test_imprecision_flag_sets_measurement_spread(self, divider_netlist, capsys):
        main(["diagnose", divider_netlist, "--probe", "mid=7.0",
              "--imprecision", "0.25", "--json"])
        payload = json.loads(capsys.readouterr().out)
        [m] = payload["measurements"]
        assert m["value"] == [7.0, 7.0, 0.25, 0.25]

    def test_json_output(self, divider_netlist, capsys):
        code = main(["diagnose", divider_netlist, "--probe", "mid=7.0", "--json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "faulty"
        assert payload["circuit"] == "cli divider"
        assert payload["measurements"][0]["point"] == "V(mid)"
        assert len(payload["measurements"][0]["value"]) == 4
        assert payload["suspicions"]
        assert payload["refinements"]

    def test_json_healthy(self, divider_netlist, capsys):
        assert main(["diagnose", divider_netlist, "--probe", "mid=6.0", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "consistent"
        assert payload["candidates"] == []


@pytest.fixture()
def manifest(tmp_path, divider_netlist):
    """A small fleet: duplicated healthy/faulty units plus one crasher."""
    jobs = []
    for i in range(3):
        jobs.append({"unit": f"healthy-{i}", "netlist": divider_netlist,
                     "probes": {"mid": 6.0}})
    for i in range(3):
        jobs.append({"unit": f"faulty-{i}", "netlist": divider_netlist,
                     "probes": {"mid": 7.5},
                     "confirm": {"component": "Rbot", "mode": "high"}})
    jobs.append({"unit": "crasher", "netlist_text": "Rbroken top 0\n",
                 "probes": {"mid": 1.0}})
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"jobs": jobs}))
    return str(path)


class TestBatch:
    ARGS = ["--workers", "2", "--executor", "thread"]

    def test_fleet_report(self, manifest, capsys):
        code = main(["batch", manifest] + self.ARGS)
        assert code == 1  # the crasher surfaces in the exit code
        out = capsys.readouterr().out
        assert "fleet of 7 units" in out
        assert "healthy-0: healthy" in out
        assert "(cached)" in out  # duplicated units replayed
        assert "faulty-0: faulty" in out
        assert "crasher: ERROR" in out
        assert "fleet telemetry" in out
        assert "experience: 1 rule(s)" in out

    def test_json_report(self, manifest, capsys):
        code = main(["batch", manifest, "--json"] + self.ARGS)
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["results"]) == 7
        statuses = {r["unit"]: r["status"] for r in payload["results"]}
        assert statuses["crasher"] == "error"
        assert payload["telemetry"]["counters"]["cache_hits"] > 0
        assert payload["rules_learned"] == 1

    def test_repeat_warms_cache(self, manifest, capsys):
        code = main(["batch", manifest, "--repeat", "2", "--json"] + self.ARGS)
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        # second pass: every healthy/faulty unit replays from cache
        hits = [r for r in payload["results"] if r["cache_hit"]]
        assert len(hits) == 6

    def test_all_ok_exit_zero(self, tmp_path, divider_netlist, capsys):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps([
            {"unit": "a", "netlist": divider_netlist, "probes": {"mid": 6.0}},
        ]))
        assert main(["batch", str(path)] + self.ARGS) == 0

    def test_bad_manifest_exit_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        assert main(["batch", str(path)] + self.ARGS) == 2
        assert "bad manifest" in capsys.readouterr().err


class TestTables:
    def test_single_table(self, capsys):
        assert main(["tables", "figure2"]) == 0
        assert "masking demonstration" in capsys.readouterr().out

    def test_ablations_table_sections(self, capsys):
        assert main(["tables", "ablations"]) == 0
        out = capsys.readouterr().out
        for heading in (
            "conflict-threshold ablation (figure-7 scenarios)",
            "entropy term form",
            "linguistic granularity (best-test choice, scenario 1)",
            "prediction envelopes vs Monte Carlo vs worst-case corners",
        ):
            assert heading in out
        # The engine has no t-norm setting, so there is nothing to ablate.
        assert "t-norm" not in out

    def test_unknown_table(self, capsys):
        # Names are validated before any table is rendered.
        with pytest.raises(SystemExit) as exc:
            main(["tables", "figure5", "figure99"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "figure99" in captured.err


class TestDemo:
    def test_demo_runs(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "short R2" in out
        assert "minimal candidates" in out


class TestWatch:
    @pytest.mark.parametrize(
        "flags", [["--imprecision", "-1"], ["--threshold", "5"], ["--top", "0"]]
    )
    def test_out_of_range_options_exit_two(self, flags, capsys):
        code = main(["watch", "--size", "2", "--duration", "0.002"] + flags)
        assert code == 2
        assert "bad watch options" in capsys.readouterr().err


class TestCorpus:
    # One tiny deterministic recipe keeps every CLI-level corpus test
    # in the sub-second range; the full loop lives in tests/corpus/.
    RECIPE = ["--seed", "5", "--per-class", "1", "--classes", "single-hard"]
    RUN_ARGS = ["--executor", "serial", "--workers", "1"]

    def test_generate_to_stdout(self, capsys):
        assert main(["corpus", "generate"] + self.RECIPE) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["classes"] == ["single-hard"]
        assert len(payload["scenarios"]) == 1

    def test_generate_to_file_then_run_manifest(self, tmp_path, capsys):
        path = tmp_path / "corpus.json"
        assert main(["corpus", "generate", "--out", str(path)] + self.RECIPE) == 0
        assert "wrote 1 scenarios" in capsys.readouterr().out
        code = main(["corpus", "run", "--manifest", str(path)] + self.RUN_ARGS)
        assert code == 0
        out = capsys.readouterr().out
        assert "kernel" not in out
        assert "single-hard" in out
        assert "overall" in out

    def test_run_json_report(self, capsys):
        code = main(["corpus", "run", "--json"] + self.RECIPE + self.RUN_ARGS)
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        cell = payload["kernels"]["reference"]["single-hard"]
        assert cell["accuracy"]["n"] == 1
        assert cell["accuracy"]["failures"] == 0

    def test_floor_breach_exits_one(self, tmp_path, capsys):
        floor = tmp_path / "floor.json"
        floor.write_text(json.dumps({"floors": {"top1": {"overall": 2.0}}}))
        code = main(["corpus", "run", "--floor", str(floor)]
                    + self.RECIPE + self.RUN_ARGS)
        assert code == 1
        assert "FLOOR BREACH" in capsys.readouterr().err

    def test_floor_holds_exits_zero(self, tmp_path, capsys):
        floor = tmp_path / "floor.json"
        floor.write_text(json.dumps({"floors": {"top1": {"overall": 0.0}}}))
        code = main(["corpus", "run", "--floor", str(floor)]
                    + self.RECIPE + self.RUN_ARGS)
        assert code == 0
        assert "accuracy floor holds" in capsys.readouterr().err

    def test_top_k_columns_follow_the_flag(self, capsys):
        code = main(["corpus", "run", "--top-k", "1,2"] + self.RECIPE + self.RUN_ARGS)
        assert code == 0
        header = capsys.readouterr().out.splitlines()[1].split()
        assert header[:4] == ["class", "n", "top1", "top2"]
        assert "top3" not in header and "top5" not in header

    @pytest.mark.parametrize("top_k", ["0,-2", "1,0"])
    def test_top_k_below_one_exit_two(self, top_k, capsys):
        code = main(["corpus", "run", "--top-k", top_k] + self.RECIPE + self.RUN_ARGS)
        assert code == 2
        assert "bad --top-k" in capsys.readouterr().err

    def test_zero_workers_exit_two(self, capsys):
        code = main(["corpus", "run", "--workers", "0"] + self.RECIPE)
        assert code == 2
        assert "bad engine options" in capsys.readouterr().err

    def test_unknown_class_exit_two(self, capsys):
        code = main(["corpus", "generate", "--classes", "nonsense"])
        assert code == 2
        assert "bad corpus recipe" in capsys.readouterr().err


class TestServeAndClusterOptions:
    """``serve``/``cluster`` flags land on the config fields, once each."""

    PLAN = '{"seed": 0, "rules": []}'

    @pytest.fixture()
    def captured(self, monkeypatch):
        import repro.cluster.gateway
        import repro.server.app

        seen = {}

        def capture(config):
            seen["config"] = config
            return 0

        monkeypatch.setattr(repro.server.app, "run", capture)
        monkeypatch.setattr(repro.cluster.gateway, "run", capture)
        return seen

    LIFECYCLE = [
        "--store", "shop.db", "--checkpoint-interval", "7.5",
        "--retain-history", "3.5", "--retain-history-rows", "99",
        "--retain-cache", "1.5",
    ]
    LIFECYCLE_FIELDS = {
        "store": "shop.db", "checkpoint_interval": 7.5,
        "retain_history_days": 3.5, "retain_history_rows": 99,
        "retain_cache_days": 1.5,
    }

    def test_serve_sets_every_field(self, captured):
        argv = [
            "serve", "--host", "0.0.0.0", "--port", "9001", "--workers", "3",
            "--queue-size", "5", "--cache-size", "77", "--timeout", "2.5",
            "--retries", "4", "--max-streams", "6", "--heartbeat", "0.5",
            "--supervise", "--faults", self.PLAN, "--no-lifecycle", *self.LIFECYCLE,
        ]
        assert main(argv) == 0
        config = captured["config"]
        expected = {
            "host": "0.0.0.0", "port": 9001, "workers": 3, "queue_size": 5,
            "cache_size": 77, "timeout": 2.5, "retries": 4, "max_streams": 6,
            "heartbeat": 0.5, "supervise": True, "faults": self.PLAN,
            "lifecycle": False, **self.LIFECYCLE_FIELDS,
        }
        assert {name: getattr(config, name) for name in expected} == expected

    def off_default(self, cls):
        """A value other than its default for every field of ``cls``.

        Derived from the dataclass itself, so a field added without a
        CLI flag fails the round trips below.
        """
        values = {}
        for spec in dataclasses.fields(cls):
            default = spec.default
            if spec.name.endswith("faults"):
                values[spec.name] = self.PLAN
            elif isinstance(default, bool):
                values[spec.name] = not default
            elif isinstance(default, (int, float)):
                values[spec.name] = default + 3
            else:
                values[spec.name] = spec.name + default
        assert all(
            values[spec.name] != spec.default for spec in dataclasses.fields(cls)
        )
        return values

    def test_server_config_argv_round_trips(self, captured):
        from repro.server import ServerConfig

        config = ServerConfig(**self.off_default(ServerConfig))
        assert main(["serve", *config.to_argv()]) == 0
        assert captured["config"] == config
        assert main(["serve", *ServerConfig().to_argv()]) == 0
        assert captured["config"] == ServerConfig()

    def test_cluster_sets_every_field(self, captured):
        from repro.cluster import ClusterConfig

        expected = self.off_default(ClusterConfig)
        flags = {"retain_history_days": "--retain-history",
                 "retain_cache_days": "--retain-cache"}
        argv = ["cluster"]
        for name, value in expected.items():
            flag = flags.get(name, "--" + name.replace("_", "-"))
            argv.extend([flag] if value is True else [flag, str(value)])
        assert main(argv) == 0
        config = captured["config"]
        assert config == ClusterConfig(**expected)
        replica = config.replica_config()
        assert (replica.port, replica.lifecycle) == (0, False)
        assert (replica.faults, replica.store) == (self.PLAN, expected["store"])
        assert (replica.workers, replica.queue_size, replica.cache_size) == (
            expected["workers"], expected["queue_size"], expected["cache_size"]
        )

    def test_bad_serve_options_exit_two(self, captured, capsys):
        assert main(["serve", "--workers", "0"]) == 2
        assert "bad server options" in capsys.readouterr().out
        assert "config" not in captured

    def test_bad_cluster_options_exit_two(self, captured, capsys):
        assert main(["cluster", "--replicas", "0"]) == 2
        assert "bad cluster options" in capsys.readouterr().out
        assert main(["cluster", "--workers", "0"]) == 2
        assert "config" not in captured
