"""Command-line surface: file formats, exit codes, determinism."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from msetdim import path_graph, read_edge_list, write_edge_list
from msetdim.records import read_csv


def run_cli(*args: str, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "msetdim", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


class TestGen:
    def test_complete_graph_file(self, tmp_path):
        out = tmp_path / "k5.edges"
        res = run_cli("gen", "--n", "5", "--p", "1", "--out", str(out))
        assert res.returncode == 0
        assert out.read_text().splitlines()[0] == "5 10"

    def test_empty_graph_file(self, tmp_path):
        out = tmp_path / "e5.edges"
        res = run_cli("gen", "--n", "5", "--p", "0", "--out", str(out))
        assert res.returncode == 0
        assert out.read_text() == "5 0\n"

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.edges", tmp_path / "b.edges"
        for out in (a, b):
            res = run_cli("gen", "--n", "200", "--p", "0.05", "--seed", "7", "--out", str(out))
            assert res.returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sibling_config_json(self, tmp_path):
        out = tmp_path / "g.edges"
        run_cli("gen", "--n", "10", "--p", "0.5", "--seed", "3", "--out", str(out))
        meta = json.loads((tmp_path / "g.edges.json").read_text())
        assert meta["config"]["seed"] == 3
        g = read_edge_list(str(out))
        assert g.n == 10

    def test_invalid_p_is_input_error(self, tmp_path):
        res = run_cli("gen", "--n", "5", "--p", "1.5", "--out", str(tmp_path / "x"))
        assert res.returncode == 3


class TestExact:
    def test_path4(self, tmp_path):
        gpath = tmp_path / "p4.edges"
        write_edge_list(path_graph(4), str(gpath))
        res = run_cli("exact", "--graph", str(gpath))
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["beta"] == 1 and doc["beta_ms"] == 1

    def test_k4_reports_inf(self, tmp_path):
        from msetdim import complete_graph

        gpath = tmp_path / "k4.edges"
        write_edge_list(complete_graph(4), str(gpath))
        out = tmp_path / "k4.json"
        res = run_cli("exact", "--graph", str(gpath), "--out", str(out))
        assert res.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["beta_ms"] == "inf"
        assert doc["beta"] == 3

    def test_budget_refusal_exit_code(self, tmp_path):
        gpath = tmp_path / "p30.edges"
        write_edge_list(path_graph(30), str(gpath))
        res = run_cli("exact", "--graph", str(gpath))
        assert res.returncode == 4
        assert "budget" in res.stderr

    def test_malformed_file_exit_code(self, tmp_path):
        bad = tmp_path / "bad.edges"
        bad.write_text("3 9\n0 1\n")
        res = run_cli("exact", "--graph", str(bad))
        assert res.returncode == 3

    def test_missing_file_exit_code(self, tmp_path):
        res = run_cli("exact", "--graph", str(tmp_path / "nope.edges"))
        assert res.returncode == 3

    def test_unknown_flag_usage_error(self):
        res = run_cli("exact", "--frobnicate")
        assert res.returncode == 2

    def test_csv_format(self, tmp_path):
        gpath = tmp_path / "c6.edges"
        from msetdim import cycle_graph

        write_edge_list(cycle_graph(6), str(gpath))
        out = tmp_path / "c6.csv"
        res = run_cli("exact", "--graph", str(gpath), "--format", "csv", "--out", str(out))
        assert res.returncode == 0
        _, header, rows = read_csv(str(out))
        assert header == ["beta", "beta_ms_out", "beta_ms", "subsets_examined"]
        assert rows[0][:3] == ["2", "3", "3"]


class TestCurves:
    def test_known_point_and_domains(self, tmp_path):
        out = tmp_path / "curves.csv"
        res = run_cli("curves", "--points", "50", "--out", str(out))
        assert res.returncode == 0
        config, header, rows = read_csv(str(out))
        assert header == ["x", "y", "level"]
        assert config["command"] == "curves"
        level1 = [(float(x), float(y)) for x, y, lvl in rows if lvl == "1"]
        level4 = [(float(x), float(y)) for x, y, lvl in rows if lvl == "4"]
        assert any(abs(x - 0.5) < 1e-12 and abs(y - 0.75) < 1e-9 for x, y in level1)
        assert all(x <= 0.125 + 1e-12 for x, _ in level4)
        assert all(0.0 < y < 1.0 for _, y in level1 + level4)

    def test_rational_mode(self, tmp_path):
        out = tmp_path / "curves.csv"
        res = run_cli("curves", "--points", "9", "--levels", "1", "--rational", "--out", str(out))
        assert res.returncode == 0
        _, _, rows = read_csv(str(out))
        assert ["1/2", "3/4", "1"] in rows

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            run_cli("curves", "--points", "120", "--out", str(out))
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self, tmp_path):
        out = tmp_path / "curves.json"
        res = run_cli("curves", "--points", "30", "--levels", "1", "--format", "json", "--out", str(out))
        assert res.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["config"]["command"] == "curves"
        assert any(
            rec["x"] == "0.5" and rec["y"] == "0.75" for rec in doc["records"]
        )


class TestRandomized:
    def test_success_on_path(self, tmp_path):
        gpath = tmp_path / "p50.edges"
        write_edge_list(path_graph(50), str(gpath))
        out = tmp_path / "rounds.json"
        res = run_cli(
            "randomized", "--graph", str(gpath), "--r", "1", "--seed", "0",
            "--out", str(out),
        )
        assert res.returncode == 0
        doc = json.loads(out.read_text())
        assert doc["success"] is True
        assert doc["rounds"][-1]["verdict"] == "resolving"

    def test_failure_exit_code_with_witness(self, tmp_path):
        from msetdim import complete_graph

        gpath = tmp_path / "k8.edges"
        write_edge_list(complete_graph(8), str(gpath))
        out = tmp_path / "rounds.json"
        res = run_cli(
            "randomized", "--graph", str(gpath), "--r", "2", "--max-rounds", "4",
            "--seed", "1", "--out", str(out),
        )
        assert res.returncode == 5
        doc = json.loads(out.read_text())
        assert doc["success"] is False
        assert any("witness" in rec for rec in doc["rounds"])

    def test_csv_round_log(self, tmp_path):
        gpath = tmp_path / "p50.edges"
        write_edge_list(path_graph(50), str(gpath))
        out = tmp_path / "rounds.csv"
        res = run_cli(
            "randomized", "--graph", str(gpath), "--r", "1", "--seed", "0",
            "--format", "csv", "--out", str(out),
        )
        assert res.returncode == 0
        _, header, rows = read_csv(str(out))
        assert header == ["round", "r", "sample_size", "verdict", "witness_u", "witness_v"]
        assert rows[-1][3] == "resolving"


class TestLocalize:
    def test_auto_sweep_on_path(self, tmp_path):
        gpath = tmp_path / "p10.edges"
        write_edge_list(path_graph(10), str(gpath))
        out = tmp_path / "transcripts.jsonl"
        res = run_cli("localize", "--graph", str(gpath), "--out", str(out))
        assert res.returncode == 0
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(lines) == 10
        for rec in lines:
            assert rec["recovered"] == [rec["source"]]
            assert sum(rec["observation"]) == len(rec["sensors"])

    def test_explicit_sensors_single_source(self, tmp_path):
        from msetdim import cycle_graph

        gpath = tmp_path / "c6.edges"
        write_edge_list(cycle_graph(6), str(gpath))
        res = run_cli("localize", "--graph", str(gpath), "--sensors", "0", "--source", "1")
        assert res.returncode == 0
        rec = json.loads(res.stdout.splitlines()[-1])
        assert rec["recovered"] == [1, 5]

    def test_auto_on_unresolvable_graph(self, tmp_path):
        from msetdim import complete_graph

        gpath = tmp_path / "k4.edges"
        write_edge_list(complete_graph(4), str(gpath))
        res = run_cli("localize", "--graph", str(gpath))
        assert res.returncode == 5


class TestExpansionAndCensus:
    def test_expansion_csv(self, tmp_path):
        out = tmp_path / "exp.csv"
        res = run_cli(
            "expansion", "--n", "500", "--x", "0.5", "--graph-seed", "2",
            "--samples", "10", "--seed", "1", "--out", str(out),
        )
        assert res.returncode == 0
        config, header, rows = read_csv(str(out))
        assert header[:4] == ["level", "source_size", "sample", "observed"]
        assert config["samples"] == 10
        levels = {int(r[0]) for r in rows}
        assert 0 in levels

    def test_census_csv(self, tmp_path):
        out = tmp_path / "census.csv"
        res = run_cli(
            "census", "--n", "400", "--x", "0.5", "--graph-seed", "2",
            "--set-size", "20", "--k", "2", "--seed", "5", "--out", str(out),
        )
        assert res.returncode == 0
        config, header, rows = read_csv(str(out))
        assert header == ["level", "atypical", "typical", "allowed_coords"]
        assert len(rows) == 3
        for row in rows:
            assert int(row[1]) + int(row[2]) == 400

    def test_census_rejects_duplicate_sensors(self, tmp_path):
        res = run_cli(
            "census", "--n", "100", "--x", "0.5", "--set", "3,3,7", "--k", "1",
            "--out", str(tmp_path / "census.csv"),
        )
        assert res.returncode == 3
        assert "duplicates" in res.stderr

    def test_census_rejects_zero_set_size(self, tmp_path):
        out = tmp_path / "census.csv"
        res = run_cli("census", "--n", "100", "--x", "0.5", "--set-size", "0", "--out", str(out))
        assert res.returncode == 3
        assert res.stderr.startswith("input error:") and not out.exists()


EXACT_PLAN = {"command": "exact", "trials": 2, "seed": 99, "params": {"n": 8, "p": 0.4, "budget": 10}}


class TestCampaign:
    def _plan(self, tmp_path, trials: int) -> str:
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({**EXACT_PLAN, "trials": trials}))
        return str(path)

    def test_zero_trials_header_only(self, tmp_path):
        out = tmp_path / "camp.csv"
        res = run_cli("campaign", self._plan(tmp_path, 0), "--out", str(out))
        assert res.returncode == 0
        _, header, rows = read_csv(str(out))
        assert header == ["trial", "seed", "n", "x", "ok", "beta", "beta_ms_out", "beta_ms"]
        assert rows == []

    def test_one_row_per_trial(self, tmp_path):
        out = tmp_path / "camp.csv"
        res = run_cli("campaign", self._plan(tmp_path, 5), "--out", str(out))
        assert res.returncode == 0
        _, _, rows = read_csv(str(out))
        assert len(rows) == 5
        assert [r[0] for r in rows] == ["0", "1", "2", "3", "4"]

    def test_expansion_campaign_columns(self, tmp_path):
        plan = {
            "command": "expansion",
            "trials": 2,
            "seed": 5,
            "params": {"n": 500, "x": 0.5, "samples": 5},
        }
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        out = tmp_path / "exp.csv"
        res = run_cli("campaign", str(path), "--out", str(out))
        assert res.returncode == 0
        _, header, rows = read_csv(str(out))
        assert header[5:] == [
            "max_dev_L0_s1", "max_dev_L1_s1", "max_dev_L2_s1",
            "max_dev_L0_s2", "max_dev_L1_s2", "max_dev_L2_s2",
        ]
        assert len(rows) == 2
        assert all(r[4] == "1" for r in rows)

    def test_timings_flag_adds_column(self, tmp_path):
        out = tmp_path / "camp.csv"
        res = run_cli("campaign", self._plan(tmp_path, 1), "--timings", "--out", str(out))
        assert res.returncode == 0
        _, header, rows = read_csv(str(out))
        assert header[-1] == "wall_ms"
        assert float(rows[0][-1]) >= 0.0

    def test_thread_count_invariance(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        plan = self._plan(tmp_path, 6)
        res1 = run_cli("campaign", plan, "--threads", "1", "--out", str(a))
        res8 = run_cli("campaign", plan, "--threads", "8", "--out", str(b))
        assert res1.returncode == 0 and res8.returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_merging(self, tmp_path):
        # CLI flags take precedence over the config file.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"points": 10, "levels": "1"}))
        out = tmp_path / "c.csv"
        res = run_cli("curves", "--config", str(cfg), "--points", "20", "--out", str(out))
        assert res.returncode == 0
        stored, _, rows = read_csv(str(out))
        assert stored["points"] == 20
        assert all(r[2] == "1" for r in rows)

    def test_missing_plan_is_input_error(self, tmp_path):
        res = run_cli("campaign", str(tmp_path / "missing.json"))
        assert res.returncode == 3

    def test_bad_trials_recorded_not_fatal(self, tmp_path):
        # sparse enough that some random draws are disconnected: those trials
        # must land as ok=0 rows instead of killing the campaign
        plan = {
            "command": "randomized",
            "trials": 6,
            "seed": 4,
            "params": {"n": 60, "p": 0.03, "max_rounds": 2},
        }
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        out = tmp_path / "camp.csv"
        res = run_cli("campaign", str(path), "--out", str(out))
        assert res.returncode == 0
        _, header, rows = read_csv(str(out))
        assert len(rows) == 6
        assert {r[4] for r in rows} <= {"0", "1"}
        assert any(r[4] == "0" for r in rows)  # seed 4 plan has disconnected draws

    def test_skip_lines_in_trial_order_at_any_thread_count(self, tmp_path):
        # every draw of G(60, p = 0.05) is disconnected, so every trial is
        # skipped and reports it on stderr
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"command": "randomized", "trials": 8, "seed": 4,
                                    "params": {"n": 60, "p": 0.05, "max_rounds": 2}}))
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"camp{threads}.csv"
            res = run_cli("campaign", str(plan), "--threads", threads, "--out", str(out))
            assert res.returncode == 0
            outputs.append((res.stderr, out.read_bytes()))
        assert outputs[0] == outputs[1]
        lines = outputs[0][0].splitlines()
        assert [line.split(" (")[0] for line in lines] == [f"trial {t}" for t in range(8)]
        assert all("skipped" in line for line in lines)

    @pytest.mark.parametrize(
        "command,params",
        [
            ("randomized", {"n": 100, "x": 0.5, "max_round": 1}),
            ("randomized", {"x": 0.5}),
            ("randomized", {"n": "100", "x": 0.5}),
            ("failure-rate", {"n": 100, "x": 0.5}),
            ("expansion", {"n": 100, "p": 0.1}),
            ("randomized", {"n": 100, "p": 2}),
            ("randomized", {"n": 100, "p": "0.5"}),
            ("randomized", {"n": 100, "x": 0.5, "max_rounds": 0}),
            ("failure-rate", {"n": 100, "x": 0.5, "r": "abc"}),
            ("randomized", {"n": True, "x": 0.5}),
            ("expansion", {"n": 100, "x": 0.5, "samples": 2.5}),
            ("census", {"n": 100, "x": 0.5, "set_size": 101}),
        ],
        ids=["unknown-key", "no-n", "string-n", "no-r", "no-x", "bad-p", "string-p",
             "zero-rounds", "string-r", "bool-n", "fractional-samples", "set-size-over-n"],
    )
    def test_bad_params_rejected_before_any_trial(self, tmp_path, command, params):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"command": command, "trials": 2, "seed": 1, "params": params}))
        out = tmp_path / "camp.csv"
        res = run_cli("campaign", str(path), "--out", str(out))
        assert res.returncode == 3
        assert res.stderr.startswith("input error:")
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag,document",
        [
            ("--config", "5"),
            (None, "5"),
            (None, '["command", "trials", "seed"]'),
            (None, json.dumps({**EXACT_PLAN, "params": []})),
            (None, json.dumps({**EXACT_PLAN, "params": None})),
            (None, json.dumps({**EXACT_PLAN, "command": 5})),
            (None, json.dumps({**EXACT_PLAN, "command": ["exact"]})),
            (None, json.dumps({**EXACT_PLAN, "trials": -3})),
            (None, json.dumps({**EXACT_PLAN, "trials": 2.7})),
            (None, json.dumps({**EXACT_PLAN, "trials": True})),
            (None, json.dumps({**EXACT_PLAN, "seed": -1})),
            (None, json.dumps({**EXACT_PLAN, "seed": "1"})),
        ],
        ids=["config-number", "plan-number", "plan-list", "params-list", "params-null",
             "command-number", "command-list", "negative-trials", "fractional-trials",
             "bool-trials", "negative-seed", "string-seed"],
    )
    def test_malformed_documents_rejected_before_any_trial(self, tmp_path, flag, document):
        path = tmp_path / "document.json"
        path.write_text(document)
        out = tmp_path / "camp.csv"
        if flag:  # a valid plan, with the document as --config
            args = (self._plan(tmp_path, 2), flag, str(path))
        else:
            args = (str(path),)
        res = run_cli("campaign", *args, "--out", str(out))
        assert res.returncode == 3
        assert res.stderr.startswith("input error:")
        assert not out.exists()

    def test_census_default_set_size_is_ceil_sqrt(self, tmp_path):
        tables = []
        for extra in ({}, {"set_size": 18}):
            plan = {"command": "census", "trials": 2, "seed": 3,
                    "params": {"n": 300, "x": 0.5, **extra}}
            path = tmp_path / "plan.json"
            path.write_text(json.dumps(plan))
            out = tmp_path / "camp.csv"
            assert run_cli("campaign", str(path), "--out", str(out)).returncode == 0
            _, header, rows = read_csv(str(out))
            tables.append((header, rows))
        assert tables[0] == tables[1]

    def test_budget_error_still_aborts(self, tmp_path):
        plan = {
            "command": "exact",
            "trials": 2,
            "seed": 1,
            "params": {"n": 30, "p": 0.4},
        }
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan))
        res = run_cli("campaign", str(path), "--out", str(tmp_path / "camp.csv"))
        assert res.returncode == 4


def _subparsers():
    from msetdim.cli import _build_parser

    parser = _build_parser()
    (action,) = [a for a in parser._actions if a.dest == "command"]
    return action.choices


_TABULAR_FLAGS = {"--out", "--format", "--threads"}
_GRAPH_FLAGS = {"--graph", "--n", "--p", "--x", "--graph-seed"}
_GRAPH_DEFAULTS = {"graph": None, "n": None, "p": None, "x": None, "graph_seed": 0}

# Flags (positionals by dest) and config defaults of every command.
SURFACE = {
    "gen": (
        {"--out", "--threads", "--n", "--p", "--x", "--seed"},
        {"n": 100, "p": None, "x": None, "seed": 0, "out": "graph.edges", "threads": 1},
    ),
    "exact": (
        _TABULAR_FLAGS | {"--graph", "--budget"},
        {"graph": None, "budget": 16, "out": None, "format": "json", "threads": 1},
    ),
    "curves": (
        _TABULAR_FLAGS | {"--levels", "--points", "--x-min", "--tol", "--rational"},
        {"levels": "1,4", "points": 1000, "x_min": None, "tol": 1e-12, "rational": False,
         "out": "curves.csv", "format": "csv", "threads": 1},
    ),
    "randomized": (
        _TABULAR_FLAGS | _GRAPH_FLAGS | {"--r", "--growth", "--max-rounds", "--seed"},
        {**_GRAPH_DEFAULTS, "r": None, "growth": 2.0, "max_rounds": 12, "seed": 0,
         "out": None, "format": "json", "threads": 1},
    ),
    "localize": (
        {"--out", "--threads", "--graph", "--sensors", "--source", "--budget"},
        {"graph": None, "sensors": "auto", "source": "sweep", "budget": 16, "out": None,
         "threads": 1},
    ),
    "expansion": (
        _TABULAR_FLAGS | _GRAPH_FLAGS | {"--samples", "--multiplier", "--seed"},
        {**_GRAPH_DEFAULTS, "samples": 100, "multiplier": 3.0, "seed": 0,
         "out": "expansion.csv", "format": "csv", "threads": 1},
    ),
    "census": (
        _TABULAR_FLAGS | _GRAPH_FLAGS | {"--set", "--set-size", "--k", "--seed"},
        {**_GRAPH_DEFAULTS, "set": None, "set_size": None, "k": None, "seed": 0,
         "out": "census.csv", "format": "csv", "threads": 1},
    ),
    "campaign": (
        _TABULAR_FLAGS | {"config_file", "--timings"},
        {"config_file": None, "threads": 1, "out": "campaign.csv", "timings": False,
         "format": "csv"},
    ),
}


class TestSurface:
    @pytest.mark.parametrize("command", sorted(SURFACE))
    def test_flags_and_defaults(self, command):
        from msetdim.cli import DEFAULTS

        flags, defaults = SURFACE[command]
        sub = _subparsers()[command]
        seen = {s for a in sub._actions for s in (a.option_strings or [a.dest])}
        assert seen == flags | {"-h", "--help", "--config"}
        assert DEFAULTS[command] == defaults

    def test_commands(self):
        assert list(_subparsers()) == list(SURFACE)

    @pytest.mark.parametrize("command", ["gen", "localize"])
    def test_format_only_where_read(self, command):
        assert run_cli(command, "--format", "json").returncode == 2

    def test_unknown_config_key_is_input_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"points": 10, "colour": "red"}))
        res = run_cli("curves", "--config", str(cfg), "--out", str(tmp_path / "c.csv"))
        assert res.returncode == 3
        assert "colour" in res.stderr

    @pytest.mark.parametrize("command", ["exact", "randomized"])
    def test_csv_needs_out(self, tmp_path, command):
        gpath = tmp_path / "p5.edges"
        write_edge_list(path_graph(5), str(gpath))
        res = run_cli(command, "--graph", str(gpath), "--format", "csv")
        assert res.returncode == 3
        assert "--out" in res.stderr


def test_commands_run_without_scipy(tmp_path):
    # scipy is a test dependency only: importing the package loads none of
    # it, and no command reaches for it once it cannot be imported.
    script = """
import json, os, sys
import msetdim.cli
assert "scipy" not in sys.modules
sys.modules["scipy"] = None
os.chdir(sys.argv[1])
from msetdim import path_graph, write_edge_list
write_edge_list(path_graph(6), "p6.edges")
runs = {
    "curves": ["curves", "--points", "20", "--out", "c.csv"],
    "exact": ["exact", "--graph", "p6.edges", "--out", "e.json"],
    "randomized": ["randomized", "--graph", "p6.edges", "--r", "1", "--out", "r.json"],
    "localize": ["localize", "--graph", "p6.edges", "--out", "l.jsonl"],
    "expansion": ["expansion", "--n", "200", "--x", "0.5", "--samples", "5", "--out", "x.csv"],
    "census": ["census", "--n", "100", "--x", "0.5", "--out", "s.csv"],
}
print(json.dumps({name: msetdim.cli.main(argv) for name, argv in runs.items()}))
"""
    res = subprocess.run([sys.executable, "-c", script, str(tmp_path)], capture_output=True,
                         text=True)
    assert res.returncode == 0, res.stderr
    codes = json.loads(res.stdout.splitlines()[-1])
    assert set(codes) == {"curves", "exact", "randomized", "localize", "expansion", "census"}
    assert all(code in (0, 5) for code in codes.values()), codes
