"""Tests for repro.cli — the command-line interface."""

import pytest

from repro.cli import build_parser, main


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])
        capsys.readouterr()

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])
        capsys.readouterr()

    def test_defaults(self):
        args = build_parser().parse_args(["fig6"])
        assert args.runs == 5 and args.nodes == 30
        assert args.jobs == 1 and not args.resume
        assert args.cache_dir == ".repro-cache"

    def test_engine_flags(self):
        args = build_parser().parse_args(
            ["fig6", "--jobs", "4", "--cache-dir", "/tmp/c", "--resume"])
        assert args.jobs == 4 and args.cache_dir == "/tmp/c"
        assert args.resume
        args = build_parser().parse_args(["sweep", "--jobs", "2"])
        assert args.jobs == 2

    def test_compare_set_choices(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--set", "4"])
        capsys.readouterr()

    def test_chaos_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.nodes == 20 and args.factors == "0,0.5,1,2"
        assert args.stranded == "requeue" and not args.json
        assert args.jobs == 1 and args.scenario is None

    def test_chaos_stranded_choices(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "--stranded", "panic"])
        capsys.readouterr()

    def test_simulate_json_flag(self):
        args = build_parser().parse_args(["simulate", "--json"])
        assert args.json


class TestRetiredOptions:
    @staticmethod
    def _usage_error(capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_fig6_thermal_backend_is_a_usage_error(self, capsys):
        self._usage_error(capsys, ["fig6", "--thermal-backend", "sparse"],
                          "--thermal-backend")

    def test_compare_thermal_backend_is_a_usage_error(self, capsys):
        self._usage_error(capsys, ["compare", "--thermal-backend", "dense"],
                          "--thermal-backend")

    def test_serve_warm_seed_is_a_usage_error(self, capsys):
        self._usage_error(capsys, ["serve", "--warm", "seed"], "--warm")


class TestCommands:
    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "Table II" in out
        assert "0.353" in out

    def test_tables_custom_static(self, capsys):
        assert main(["tables", "--static", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "20%" in out

    def test_compare_small(self, capsys):
        assert main(["compare", "--nodes", "15", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "three-stage" in out
        assert "improvement over baseline" in out

    def test_fig6_tiny(self, capsys, tmp_path):
        assert main(["fig6", "--runs", "2", "--nodes", "15",
                     "--seed", "77", "--cache-dir",
                     str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "Figure 6" in out
        assert "set3" in out

    def test_fig6_resume_reports_cache_hits(self, capsys, tmp_path):
        cache = str(tmp_path / "cache")
        args = ["fig6", "--runs", "2", "--nodes", "10", "--seed", "11",
                "--cache-dir", cache]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "6 runs, 0 cache hits, 6 computed" in first
        assert main(args + ["--resume", "--jobs", "2"]) == 0
        second = capsys.readouterr().out
        assert "6 runs, 6 cache hits, 0 computed" in second
        # cached replay reproduces the identical table
        table = [ln for ln in first.splitlines() if ln.startswith("set")]
        assert table == [ln for ln in second.splitlines()
                         if ln.startswith("set")]

    def test_simulate(self, capsys):
        assert main(["simulate", "--nodes", "15", "--seed", "2",
                     "--horizon", "5"]) == 0
        out = capsys.readouterr().out
        assert "planned reward rate" in out
        assert "achieved (DES)" in out

    def test_simulate_json(self, capsys):
        import json

        assert main(["simulate", "--nodes", "15", "--seed", "2",
                     "--horizon", "5", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == 1
        assert doc["planned_reward_rate"] > 0
        assert doc["duration_s"] == 5.0
        assert isinstance(doc["completed"], list)

    @pytest.mark.parametrize("controller", ["interval", "mpc"])
    def test_simulate_controller_json_is_strict(self, capsys, controller):
        import json

        assert main(["simulate", "--nodes", "6", "--horizon", "120",
                     "--epoch-s", "30", "--controller", controller,
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out,
                         parse_constant=_reject_constant)
        assert doc["controller"] == controller
        assert doc["n_epochs"] == 4
        assert doc["reward_rate"] > 0
        assert doc["violation_minutes"] >= 0.0

    def test_tournament_json_without_anchor_is_strict(self, capsys):
        import json

        assert main(["tournament", "--nodes", "6", "--backends",
                     "annealing", "--max-evals", "40", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out,
                         parse_constant=_reject_constant)
        (point,) = doc["points"]
        assert point["backend"] == "annealing"
        assert point["gap_pct"] is None

    def test_chaos_sweep_json(self, capsys, tmp_path):
        import json

        assert main(["chaos", "--nodes", "6", "--seed", "0",
                     "--horizon", "20", "--factors", "0,1",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == 1
        factors = [p["factor"] for p in doc["points"]]
        assert factors == [0.0, 1.0]
        assert doc["points"][0]["reward_retained"] == pytest.approx(1.0)

    def test_chaos_text_table(self, capsys, tmp_path):
        assert main(["chaos", "--nodes", "6", "--seed", "0",
                     "--horizon", "20", "--factors", "0",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "chaos sweep" in out
        assert "retained" in out

    def test_chaos_scenario_file(self, capsys, tmp_path):
        import json

        scenario = {"events": [{"kind": "crac_outage", "start_s": 8.0,
                                "duration_s": 6.0, "target": 0}]}
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(scenario))
        assert main(["chaos", "--nodes", "6", "--seed", "0",
                     "--horizon", "20", "--scenario", str(path),
                     "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_fault_events"] == 1
        assert doc["n_replans"] == 2

    def test_chaos_bad_factors(self, capsys):
        assert main(["chaos", "--factors", "0,nope"]) == 2
        assert "invalid --factors" in capsys.readouterr().err

    def test_sweep_with_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        assert main(["sweep", "--nodes", "12", "--seed", "5",
                     "--points", "3", "--csv", str(csv_path),
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "cap kW" in out
        assert csv_path.exists()
        assert "p_const_kw" in csv_path.read_text()

    def test_fig6_with_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "fig6.csv"
        assert main(["fig6", "--runs", "2", "--nodes", "12",
                     "--seed", "88", "--csv", str(csv_path),
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        capsys.readouterr()
        text = csv_path.read_text()
        assert "mean_improvement_pct" in text
        assert "set3" in text
