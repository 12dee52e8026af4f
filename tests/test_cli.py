"""CLI tests (in-process via main(argv))."""

import json

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestRun:
    def test_run_prints_metrics(self, capsys):
        code, out = run_cli(
            capsys, "run", "--protocol", "bhmr", "-n", "3", "--duration", "15"
        )
        assert code == 0
        assert "bhmr" in out and "forced" in out

    def test_run_check_rdt_pass(self, capsys):
        code, out = run_cli(
            capsys, "run", "--protocol", "fdas", "-n", "3",
            "--duration", "15", "--check-rdt",
        )
        assert code == 0 and "holds" in out

    def test_run_check_rdt_fail_sets_exit_code(self, capsys):
        code, out = run_cli(
            capsys, "run", "--protocol", "independent", "-n", "3",
            "--duration", "30", "--basic-rate", "0.5", "--check-rdt",
            "--workload-arg", "send_rate=2.0",
        )
        assert code == 1

    def test_unknown_workload_exits(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--workload", "nope"])

    def test_workload_arg_validation(self):
        with pytest.raises(SystemExit):
            main(["run", "--workload-arg", "garbage"])


class TestCompare:
    def test_compare_table(self, capsys):
        code, out = run_cli(
            capsys, "compare", "-n", "3", "--duration", "15",
            "--protocols", "bhmr", "fdas", "--seeds", "0",
        )
        assert code == 0
        assert "bhmr" in out and "fdas" in out and "R" in out


class TestSweep:
    def test_sweep_series(self, capsys):
        code, out = run_cli(
            capsys, "sweep", "-n", "3", "--duration", "12",
            "--rates", "0.1", "0.4", "--seeds", "0",
        )
        assert code == 0
        assert "basic_rate" in out


class TestAnalyze:
    def test_figure1_reports_violation(self, capsys):
        code, out = run_cli(capsys, "analyze", "figure1")
        assert code == 1
        assert "VIOLATED" in out and "Z-cycles" in out

    @pytest.mark.parametrize("shown", [1, 2, 0, -1])
    def test_prints_the_full_checks_first_violations(self, capsys, shown):
        # The check may stop early; what is printed must not change.
        from repro.analysis import check_rdt
        from repro.events import figure1_pattern

        full = check_rdt(figure1_pattern()).violations
        assert len(full) > 2
        code, out = run_cli(
            capsys, "analyze", "figure1", "--max-violations", str(shown)
        )
        printed = [line.strip() for line in out.splitlines() if "R-path" in line]
        assert printed == [repr(v) for v in full[:shown]]

    def test_domino_pattern(self, capsys):
        code, out = run_cli(capsys, "analyze", "domino", "--rounds", "3")
        assert "pattern" in out

    def test_simulated_with_protocol(self, capsys):
        code, out = run_cli(
            capsys, "analyze", "simulated", "--protocol", "bhmr",
            "-n", "3", "--duration", "15",
        )
        assert code == 0 and "holds" in out


class TestRecover:
    def test_recovery_output(self, capsys):
        code, out = run_cli(
            capsys, "recover", "-n", "3", "--duration", "20",
            "--crash-pid", "1", "--crash-time", "10",
        )
        assert code == 0
        assert "recovery line" in out and "events undone" in out


class TestRegistries:
    def test_protocols_listing(self, capsys):
        code, out = run_cli(capsys, "protocols")
        assert code == 0
        assert "bhmr" in out and "independent" in out

    def test_workloads_listing(self, capsys):
        code, out = run_cli(capsys, "workloads")
        assert code == 0
        assert "client-server" in out


class TestModuleEntry:
    def test_python_dash_m(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "protocols"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0 and "bhmr" in proc.stdout


class TestSaveLoad:
    def test_run_save_then_analyze_file(self, capsys, tmp_path):
        path = str(tmp_path / "run.json")
        code, out = run_cli(
            capsys, "run", "--protocol", "bhmr", "-n", "3",
            "--duration", "15", "--save", path,
        )
        assert code == 0 and "saved" in out
        code, out = run_cli(capsys, "analyze", "file", "--path", path)
        assert code == 0 and "holds" in out

    def test_analyze_file_requires_path(self):
        with pytest.raises(SystemExit):
            main(["analyze", "file"])


RUN_ARGS = ["run", "--protocol", "bhmr", "-n", "3", "--duration", "15"]


class TestJsonMode:
    def test_run_json_is_one_canonical_document(self, capsys):
        code, out = run_cli(capsys, *RUN_ARGS, "--json")
        assert code == 0
        doc = json.loads(out)  # exactly one JSON value on stdout
        assert doc["command"] == "run" and doc["protocol"] == "bhmr"
        assert doc["run"]["forced_checkpoints"] > 0
        assert out == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"

    def test_run_json_is_reproducible(self, capsys):
        _, out1 = run_cli(capsys, *RUN_ARGS, "--json")
        _, out2 = run_cli(capsys, *RUN_ARGS, "--json")
        assert out1 == out2

    def test_run_json_check_rdt_field_and_exit_code(self, capsys):
        code, out = run_cli(
            capsys, "run", "--protocol", "independent", "-n", "3",
            "--duration", "30", "--basic-rate", "0.5", "--check-rdt",
            "--workload-arg", "send_rate=2.0", "--json",
        )
        assert code == 1
        assert json.loads(out)["rdt"] is False

    def test_compare_json(self, capsys):
        code, out = run_cli(
            capsys, "compare", "-n", "3", "--duration", "12",
            "--protocols", "bhmr", "fdas", "--seeds", "0", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        names = [p["protocol"] for p in doc["compare"]["protocols"]]
        assert names == ["bhmr", "fdas"]
        for proto in doc["compare"]["protocols"]:
            assert "forced_total" in proto and "basic_total" in proto

    def test_sweep_json_with_metrics_and_profile(self, capsys):
        code, out = run_cli(
            capsys, "sweep", "-n", "3", "--duration", "10",
            "--rates", "0.1", "0.4", "--seeds", "0",
            "--metrics", "--profile", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        stats = doc["sweep"]["stats"]
        counters = doc["metrics"]["counters"]
        assert counters["sweep.cells_run"] == 2
        assert counters["replay.forced"] > 0
        assert any(k.startswith("replay.forced.p") for k in counters)
        assert set(stats["phase_seconds"]) >= {"generate", "simulate"}
        assert set(doc["profile"]) >= {"generate", "simulate"}
        assert len(doc["sweep"]["comparisons"]) == 2


class TestObsFlags:
    def test_trace_flag_writes_deterministic_file(self, capsys, tmp_path):
        a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        code, out = run_cli(capsys, *RUN_ARGS, "--trace", a)
        assert code == 0 and "trace:" in out
        run_cli(capsys, *RUN_ARGS, "--trace", b)
        data = (tmp_path / "a.jsonl").read_bytes()
        assert data == (tmp_path / "b.jsonl").read_bytes() and data
        first = json.loads(data.splitlines()[0])
        assert {"kind", "t", "seq"} <= set(first)

    def test_metrics_flag_prints_table(self, capsys):
        code, out = run_cli(capsys, *RUN_ARGS, "--metrics")
        assert code == 0
        assert "replay.forced" in out and "kernel.events" in out

    def test_profile_flag_prints_phases(self, capsys):
        code, out = run_cli(capsys, *RUN_ARGS, "--profile")
        assert code == 0
        assert "profile:" in out and "simulate=" in out

    def test_sweep_backend_serial_flag(self, capsys):
        code, out = run_cli(
            capsys, "sweep", "-n", "3", "--duration", "10",
            "--rates", "0.1", "--seeds", "0", "--workers", "1",
        )
        assert code == 0 and "basic_rate" in out

    def test_sweep_cache_flag_round_trip(self, capsys, tmp_path):
        args = [
            "sweep", "-n", "3", "--duration", "10", "--rates", "0.1",
            "--seeds", "0", "--cache", str(tmp_path / "cache"), "--json",
            "--metrics",
        ]
        _, cold = run_cli(capsys, *args)
        _, warm = run_cli(capsys, *args)
        assert json.loads(cold)["sweep"]["comparisons"] == \
            json.loads(warm)["sweep"]["comparisons"]
        assert json.loads(warm)["sweep"]["stats"]["cache_hits"] == 1


class TestRegistriesJson:
    """The --json listings: complete, canonical, machine-readable."""

    def test_protocols_json(self, capsys):
        from repro import PROTOCOLS

        code, out = run_cli(capsys, "protocols", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "protocols"
        entries = doc["protocols"]
        assert {e["name"] for e in entries} == set(PROTOCOLS)
        for entry in entries:
            assert set(entry) == {
                "name", "class", "doc", "ensures_rdt", "carries_tdv", "family",
            }
            assert entry["doc"], f"{entry['name']} has no doc line"
            assert entry["family"] in ("rdt", "baseline")
            assert isinstance(entry["ensures_rdt"], bool)

    def test_workloads_json(self, capsys):
        from repro import WORKLOADS

        code, out = run_cli(capsys, "workloads", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "workloads"
        entries = doc["workloads"]
        assert {e["name"] for e in entries} == set(WORKLOADS)
        for entry in entries:
            assert set(entry) == {"name", "class", "doc"}
            assert entry["doc"], f"{entry['name']} has no doc line"

    def test_json_output_is_canonical(self, capsys):
        # Stable byte-for-byte across invocations: sorted keys, no noise.
        _, first = run_cli(capsys, "protocols", "--json")
        _, again = run_cli(capsys, "protocols", "--json")
        assert first == again
        assert json.dumps(json.loads(first), sort_keys=True,
                          separators=(",", ":")) + "\n" == first


class TestServiceVerbs:
    """repro serve / client / loadgen wired through the CLI."""

    @pytest.fixture
    def service(self, tmp_path):
        from repro.serve.server import ServerConfig, serve_in_thread

        config = ServerConfig(unix_path=str(tmp_path / "cli.sock"))
        with serve_in_thread(config) as handle:
            yield handle

    def test_client_roundtrip(self, capsys, service):
        addr = service.connect_address()
        code, out = run_cli(
            capsys, "client", addr, "hello", "--session", "s", "-n", "2"
        )
        assert code == 0
        assert json.loads(out)["ok"] is True
        code, out = run_cli(
            capsys, "client", addr, "checkpoint", "--session", "s", "--pid", "0"
        )
        assert json.loads(out)["index"] == 1
        code, out = run_cli(
            capsys, "client", addr, "query", "--session", "s",
            "--what", "metrics",
        )
        assert json.loads(out)["checkpoints"] == 1

    def test_client_requires_session(self, service):
        with pytest.raises(SystemExit):
            main(["client", service.connect_address(), "hello"])

    def test_client_dead_endpoint_exits_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="cannot connect"):
            main([
                "client", f"unix:{tmp_path}/nobody.sock", "hello",
                "--session", "s", "--timeout", "2",
            ])

    def test_loadgen_json(self, capsys, service):
        code, out = run_cli(
            capsys, "loadgen", service.connect_address(), "--json",
            "--sessions", "2", "-n", "3", "--duration", "10",
            "--window", "16", "--query-every", "20",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "loadgen"
        load = doc["load"]
        assert load["errors"] == 0 and load["shed"] == 0
        assert load["acked"] > 0 and load["queries"] > 0
        assert load["acked"] == sum(load["per_session"].values())
        # Pipelined connections batch: never more writes than frames.
        assert load["frames_per_write"] >= 1.0


#: Per-process knobs with a value their rule refuses.
BAD_SHARD_KNOBS = [
    (["--workers", "0"], "workers"),
    (["--queue-depth", "0"], "queue_depth"),
    (["--fsync-batch", "0"], "fsync_batch"),
    (["--idle-timeout", "-1"], "idle_timeout"),
]


class TestServeKnobs:
    """``repro serve`` hands the flags it was given to ``api.serve``; the
    config dataclasses own every default and rule."""

    @pytest.mark.parametrize(
        "flags, knob", BAD_SHARD_KNOBS + [(["--shard-procs", "0"], "shard_procs")]
    )
    def test_bad_knob_exits_2_with_one_line(self, capsys, tmp_path, flags, knob):
        argv = ["serve", "--unix", str(tmp_path / "s.sock"), *flags]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and knob in err

    @pytest.mark.parametrize("flags, knob", BAD_SHARD_KNOBS)
    def test_bad_per_shard_knob_touches_no_disk(
        self, capsys, tmp_path, flags, knob
    ):
        data = tmp_path / "D"
        argv = [
            "serve", "--unix", str(tmp_path / "r.sock"),
            "--shard-procs", "2", "--data-dir", str(data), *flags,
        ]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert knob in capsys.readouterr().err
        assert not data.exists()

    @staticmethod
    def _config_of(monkeypatch, argv):
        """The config ``repro serve argv`` would deploy, captured where
        ``api.serve`` hands its server to the handle."""
        from repro import api

        class Built(Exception):
            pass

        def capture(server):
            raise Built(server.config)

        monkeypatch.setattr(api, "ServerHandle", capture)
        with pytest.raises(Built) as built:
            main(argv)
        return built.value.args[0]

    def test_ledger_argv_shapes_build_the_same_configs(
        self, monkeypatch, tmp_path
    ):
        """The frozen benchmark's two ``repro serve`` argv shapes
        (``benchmarks/ledger/deploy.py``, ``Deployment.argv``) deploy
        exactly these configs, field for field."""
        from repro.serve.router import RouterConfig
        from repro.serve.server import ServerConfig

        sock = str(tmp_path / "s.sock")
        base = ["serve", "--unix", sock, "--queue-depth", "1024", "--json"]
        single = self._config_of(
            monkeypatch,
            base + ["--workers", "2", "--snapshot-dir", str(tmp_path / "snaps")],
        )
        assert single == ServerConfig(
            host="127.0.0.1", port=7463, unix_path=sock, workers=2,
            queue_depth=1024, idle_timeout=None,
            snapshot_dir=str(tmp_path / "snaps"), wal_dir=None, fsync_batch=64,
        )
        sharded = self._config_of(
            monkeypatch,
            base + ["--shard-procs", "2", "--data-dir", str(tmp_path / "d")],
        )
        assert sharded == RouterConfig(
            host="127.0.0.1", port=7463, unix_path=sock, shard_procs=2,
            data_dir=str(tmp_path / "d"), replicas=64, workers=1,
            queue_depth=1024, idle_timeout=None, fsync_batch=64,
            spawn_timeout=30.0,
        )
        assert not (tmp_path / "d").exists()

    def test_docs_knob_table_is_the_dataclasses(self):
        """docs/SERVICE.md's knob table lists exactly the config fields
        with their defaults, and each CLI flag it names sets that field."""
        import ast
        import dataclasses
        import itertools
        from pathlib import Path

        from repro.cli import build_parser
        from repro.serve.router import RouterConfig
        from repro.serve.server import ServerConfig

        text = (
            Path(__file__).resolve().parents[1] / "docs" / "SERVICE.md"
        ).read_text(encoding="utf-8")
        lines = text.split("### Knobs", 1)[1].splitlines()
        start = next(i for i, line in enumerate(lines) if line.startswith("|"))
        table = itertools.takewhile(lambda l: l.startswith("|"), lines[start:])
        rows = [
            [cell.strip() for cell in line.strip("|").split("|")]
            for line in list(table)[2:]
        ]

        def literal(cell):
            value = ast.literal_eval(cell.strip("`"))
            return type(value), value

        def declared(config):
            return {
                f.name: (type(f.default), f.default)
                for f in dataclasses.fields(config)
            }

        single = {r[0].strip("`"): literal(r[2]) for r in rows if r[2] != "—"}
        sharded = {r[0].strip("`"): literal(r[3]) for r in rows if r[3] != "—"}
        assert single == declared(ServerConfig)
        assert sharded == declared(RouterConfig)

        parser = build_parser()
        bare = vars(parser.parse_args(["serve"]))
        flags = {r[1].strip("`"): r[0].strip("`") for r in rows if r[1] != "—"}
        for flag, field in flags.items():
            given = vars(parser.parse_args(["serve", flag, "1"]))
            assert {k for k in bare if bare[k] != given[k]} == {field}, flag
        obs = {"trace", "metrics", "profile", "json", "command", "func"}
        assert set(bare) - obs == set(flags.values())
