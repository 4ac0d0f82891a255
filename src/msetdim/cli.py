"""Command-line front end: seeded experiments with CSV/JSON artifacts.

Subcommands: gen, exact, curves, randomized, localize, expansion, census,
campaign.  Flag precedence is CLI > --config file > built-in defaults, and
every run is fully determined by its configuration plus master seed.

Exit codes: 0 success, 2 usage error (bad flags), 3 input error (bad files
or values), 4 budget refusal, 5 verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from . import exact as exact_mod
from . import records
from .construction import (
    CandidateSpec,
    construct_resolving,
    default_target_size,
    draw_census_set,
    estimate_failure_rate,
    typicality_census,
)
from .exponents import regime, regime_from_degree, threshold_curves
from .graphs import (
    Graph,
    RandomGraphSpec,
    audit_expansion,
    generate_gnp,
    predicted_diameter,
    read_edge_list,
    write_edge_list,
)
from .localization import LocalizationIndex, observe
from .seeding import derive_seed, CAMPAIGN_TRIAL

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_BUDGET = 4
EXIT_VERIFY = 5


class InputError(ValueError):
    """Bad input file or parameter combination (exit code 3)."""


# ---------------------------------------------------------------------------
# Output, config and graph plumbing
# ---------------------------------------------------------------------------


def _emit(
    cfg: dict,
    header: list[str],
    rows: list,
    config: dict,
    payload: dict | None = None,
    extra_comments: tuple[str, ...] = (),
) -> None:
    """Write results as CSV to --out, or as JSON to --out or else to stdout.

    The JSON document is `payload`, by default the rows as a record array.
    """
    fmt = cfg.get("format")
    if fmt == "csv":
        if not cfg.get("out"):
            raise InputError("csv format needs --out")
        records.write_csv(cfg["out"], header, rows, config=config,
                          extra_comments=list(extra_comments))
        return
    if fmt != "json":
        raise InputError(f"unknown format {fmt!r} (choose csv or json)")
    if payload is None:
        payload = {
            "records": [
                {key: records.format_value(val) for key, val in zip(header, row)}
                for row in rows
            ]
        }
    if cfg.get("out"):
        records.write_json(cfg["out"], payload, config=config)
    else:
        print(json.dumps({"config": config, **payload}, sort_keys=True, indent=2))


def _read_object(path: str, what: str) -> dict:
    """The JSON object in the file at path; any other document is an InputError."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise InputError(f"{what} must be a JSON object, got {doc!r}")
    return doc


def _merge_config(command: str, args: argparse.Namespace) -> dict:
    cfg = dict(DEFAULTS[command])
    provided = vars(args)
    if provided.get("config"):
        file_cfg = _read_object(provided["config"], "config file")
        unknown = set(file_cfg) - set(cfg)
        if unknown:
            raise InputError(f"unknown config keys for {command}: {sorted(unknown)}")
        cfg.update(file_cfg)
    for key, value in provided.items():
        if key in cfg and value is not None:
            cfg[key] = value
    return cfg


def _build_graph(cfg: dict) -> tuple[Graph, dict]:
    """Graph from --graph file or a (n, p|x, graph_seed) generation spec."""
    if cfg.get("graph"):
        g = read_edge_list(cfg["graph"])
        return g, {"graph": cfg["graph"]}
    if cfg.get("n") is None:
        raise InputError("give --graph FILE or --n with --p/--x")
    spec = RandomGraphSpec(
        n=int(cfg["n"]),
        p=cfg.get("p"),
        x=cfg.get("x"),
        seed=int(cfg.get("graph_seed", 0)),
    )
    return generate_gnp(spec), {
        "n": spec.n,
        "p": spec.p,
        "x": spec.x,
        "graph_seed": spec.seed,
    }


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_gen(cfg: dict) -> int:
    spec = RandomGraphSpec(
        n=int(cfg["n"]), p=cfg.get("p"), x=cfg.get("x"), seed=int(cfg["seed"])
    )
    g = generate_gnp(spec)
    out = cfg["out"]
    write_edge_list(g, out)
    # The edge-list format has no comment syntax, so the config rides in a
    # sibling JSON file.
    records.write_json(
        out + ".json",
        {"n": g.n, "m": g.num_edges},
        config={"command": "gen", "n": spec.n, "p": spec.p, "x": spec.x, "seed": spec.seed},
    )
    print(f"wrote {out}: n={g.n} m={g.num_edges}")
    return EXIT_OK


def cmd_exact(cfg: dict) -> int:
    if not cfg.get("graph"):
        raise InputError("exact needs --graph FILE")
    g = read_edge_list(cfg["graph"])
    result = exact_mod.dimension_report(g, budget=int(cfg["budget"]))
    payload = result.to_json_dict()
    config = {"command": "exact", "graph": cfg["graph"], "budget": int(cfg["budget"])}
    header = ["beta", "beta_ms_out", "beta_ms", "subsets_examined"]
    _emit(cfg, header, [[payload[key] for key in header]], config, payload)
    return EXIT_OK


def cmd_curves(cfg: dict) -> int:
    levels = tuple(int(t) for t in str(cfg["levels"]).split(",") if t)
    rational = bool(cfg["rational"])
    x_min = cfg.get("x_min")
    if x_min is not None and rational:
        x_min = Fraction(str(x_min))
    curves = threshold_curves(
        levels=levels,
        points=int(cfg["points"]),
        x_min=x_min,
        tol=float(cfg["tol"]),
        rational=rational,
    )
    config = {
        "command": "curves",
        "levels": list(levels),
        "points": int(cfg["points"]),
        "x_min": None if cfg.get("x_min") is None else str(cfg["x_min"]),
        "tol": float(cfg["tol"]),
        "rational": rational,
    }
    rows = []
    for curve in curves:
        for x, y in curve.points:
            rows.append((x, y, curve.level))
    _emit(cfg, ["x", "y", "level"], rows, config)
    print(f"wrote {cfg['out']}: {len(rows)} points across levels {list(levels)}")
    return EXIT_OK


def cmd_randomized(cfg: dict) -> int:
    g, graph_cfg = _build_graph(cfg)
    target = cfg.get("r")
    if target is None:
        target = default_target_size(g.n, cfg.get("x"))
    spec = CandidateSpec(
        r=float(target),
        growth=float(cfg["growth"]),
        max_rounds=int(cfg["max_rounds"]),
        seed=int(cfg["seed"]),
    )
    result = construct_resolving(g, spec)
    config = {
        "command": "randomized",
        **graph_cfg,
        "r": spec.r,
        "growth": spec.growth,
        "max_rounds": spec.max_rounds,
        "seed": spec.seed,
    }
    rows = [
        (rec.round, rec.target, rec.sample_size,
         "resolving" if rec.resolving else "collision",
         rec.witness[0] if rec.witness else "",
         rec.witness[1] if rec.witness else "")
        for rec in result.rounds
    ]
    _emit(cfg, ["round", "r", "sample_size", "verdict", "witness_u", "witness_v"], rows,
          config, result.to_json_dict(), (f"summary: success={result.success}",))
    if not result.success:
        print(
            f"no resolving set within {spec.max_rounds} rounds; "
            f"last witness {result.last_witness}",
            file=sys.stderr,
        )
        return EXIT_VERIFY
    return EXIT_OK


def cmd_localize(cfg: dict) -> int:
    if not cfg.get("graph"):
        raise InputError("localize needs --graph FILE")
    g = read_edge_list(cfg["graph"])
    sensors_cfg = cfg["sensors"]
    if sensors_cfg == "auto":
        outcome = exact_mod.multiset_dimension_exact(g, budget=int(cfg["budget"]))
        if outcome.witness is None:
            print("graph has no multiset resolving set; cannot auto-place sensors",
                  file=sys.stderr)
            return EXIT_VERIFY
        sensors = outcome.witness
    else:
        sensors = tuple(int(t) for t in str(sensors_cfg).split(",") if t != "")
    index = LocalizationIndex(g, sensors)
    sources = range(g.n) if cfg["source"] == "sweep" else [int(cfg["source"])]
    transcripts = []
    all_unique = True
    for v0 in sources:
        obs = observe(g, sensors, v0, horizon=index.horizon)
        recovered = index.candidates(obs)
        all_unique = all_unique and recovered == (v0,)
        transcripts.append(
            {
                "sensors": list(sensors),
                "source": int(v0),
                "observation": list(obs.counts),
                "recovered": list(recovered),
            }
        )
    if cfg.get("out"):
        records.write_json_lines(cfg["out"], transcripts)
        print(f"wrote {cfg['out']}: {len(transcripts)} transcripts, "
              f"{'all' if all_unique else 'NOT all'} uniquely recovered")
    else:
        for t in transcripts:
            print(json.dumps(t, sort_keys=True, separators=(",", ":")))
    return EXIT_OK


def cmd_expansion(cfg: dict) -> int:
    g, graph_cfg = _build_graph(cfg)
    if cfg.get("x") is not None:
        params = regime(g.n, float(cfg["x"]))
    else:
        params = regime_from_degree(g.n, g.average_degree)
    report = audit_expansion(
        g,
        params,
        sample_size=int(cfg["samples"]),
        seed=int(cfg["seed"]),
        multiplier=float(cfg["multiplier"]),
    )
    config = {
        "command": "expansion",
        **graph_cfg,
        "samples": int(cfg["samples"]),
        "multiplier": float(cfg["multiplier"]),
        "seed": int(cfg["seed"]),
    }
    rows = []
    for cell in report.levels:
        for idx, obs in enumerate(cell.observed):
            rows.append(
                (
                    cell.level,
                    cell.source_size,
                    idx,
                    obs,
                    cell.expected,
                    abs(obs - cell.expected),
                    cell.flagged,
                )
            )
    summary = (
        f"summary: partial={report.partial} "
        f"flagged_cells={len(report.flagged_cells)} "
        f"tolerance_scale={report.params.spread_tolerance:.6g}"
    )
    _emit(
        cfg,
        ["level", "source_size", "sample", "observed", "expected", "deviation", "flagged"],
        rows,
        config,
        extra_comments=(summary,),
    )
    print(f"wrote {cfg['out']}: {len(rows)} rows; {summary}")
    return EXIT_OK


def _census_size(n: int) -> int:
    """Default census set size: ceil(sqrt(n)) sensors."""
    return math.isqrt(n - 1) + 1


def cmd_census(cfg: dict) -> int:
    g, graph_cfg = _build_graph(cfg)
    if cfg.get("set"):
        members = tuple(int(t) for t in str(cfg["set"]).split(",") if t != "")
    else:
        size = _census_size(g.n) if cfg.get("set_size") is None else cfg["set_size"]
        members = draw_census_set(g, int(size), int(cfg["seed"]))
    if cfg.get("k") is not None:
        k = int(cfg["k"])
    else:
        k = max(predicted_diameter(g.n, g.average_degree) - 1, 0)
    report = typicality_census(g, members, k)
    config = {
        "command": "census",
        **graph_cfg,
        "set_size": len(members),
        "k": k,
        "seed": int(cfg["seed"]),
    }
    rows = [(lvl.level, lvl.atypical_count, g.n - lvl.atypical_count, lvl.allowed_coordinates)
            for lvl in report.levels]
    summary = (
        f"summary: typical={report.typical_count} "
        f"bound={report.signature_space_bound} "
        f"collision_forced={report.collision_forced}"
    )
    _emit(cfg, ["level", "atypical", "typical", "allowed_coords"], rows, config,
          extra_comments=(summary,))
    print(f"wrote {cfg['out']}: {len(rows)} levels; {summary}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Campaigns
# ---------------------------------------------------------------------------


# Plan params each campaign command reads: (default, kind, low, strict).  A
# given value must be a JSON integer (kind int) or number (kind float) above
# low, or at least low unless strict.  Every plan also gives the graph params
# n and one of p or x, whose upper ranges RandomGraphSpec checks;
# _CAMPAIGN_REQUIRED names the params a command cannot run without.
_GRAPH_PARAMS: dict[str, tuple] = {
    "n": (None, int, 1, False),
    "p": (None, float, 0, False),
    "x": (None, float, 0, True),
}
_CAMPAIGN_PARAMS: dict[str, dict[str, tuple]] = {
    "randomized": {"r": (None, float, 0, True), "growth": (2.0, float, 1, True),
                   "max_rounds": (12, int, 1, False)},
    "failure-rate": {"r": (None, float, 0, False), "trials_per_graph": (20, int, 1, False)},
    "exact": {"budget": (exact_mod.DEFAULT_BUDGET, int, 1, False)},
    "expansion": {"samples": (50, int, 1, False), "multiplier": (3.0, float, 0, True)},
    "census": {"set_size": (None, int, 1, False), "k": (None, int, 0, False)},
}
_CAMPAIGN_REQUIRED = {"failure-rate": "r", "expansion": "x"}


def _check_param(command: str, name: str, value, kind: type, low: int, strict: bool) -> None:
    """Raise InputError unless value is of the kind and above low (at least
    low unless strict); JSON booleans are no numbers."""
    types = int if kind is int else (int, float)
    if isinstance(value, types) and not isinstance(value, bool):
        if value > low if strict else value >= low:
            return
    rule = f"{'an integer' if kind is int else 'a number'} {'>' if strict else '>='} {low}"
    raise InputError(f"campaign {command}: {name} must be {rule}, got {value!r}")


def _campaign_plan(command: str, params: dict) -> tuple[RandomGraphSpec, dict]:
    """The plan's graph (seed 0) and its params over the command's defaults,
    every given param checked against its rule before any trial runs."""
    if not isinstance(command, str) or command not in _CAMPAIGN_PARAMS:
        raise InputError(f"unknown campaign command {command!r}")
    if not isinstance(params, dict):
        raise InputError(f"campaign {command}: params must be a JSON object, got {params!r}")
    rules = {**_GRAPH_PARAMS, **_CAMPAIGN_PARAMS[command]}
    unknown = set(params) - set(rules)
    if unknown:
        raise InputError(f"unknown params for campaign {command}: {sorted(unknown)}")
    for name in ("n", _CAMPAIGN_REQUIRED.get(command)):
        if name and params.get(name) is None:
            raise InputError(f"campaign {command} needs params.{name}")
    for name, value in params.items():
        if value is not None:
            _check_param(command, f"params.{name}", value, *rules[name][1:])
    try:
        spec = RandomGraphSpec(n=params["n"], p=params.get("p"), x=params.get("x"), seed=0)
    except ValueError as exc:
        raise InputError(f"campaign {command}: {exc}") from None
    if (params.get("set_size") or 0) > spec.n:
        raise InputError(f"campaign {command}: params.set_size exceeds n={spec.n}")
    defaults = {name: rule[0] for name, rule in _CAMPAIGN_PARAMS[command].items()}
    return spec, {**defaults, **params}


def _campaign_measurements(command: str, params: dict, trial_seed: int | None = None):
    """(columns, values) of one campaign trial.

    The measured-quantity columns are derivable without running any trial;
    the values, in column order, are None unless a trial seed is given.
    """
    spec, params = _campaign_plan(command, params)
    if command == "randomized":
        columns = ["success", "rounds_used", "set_size"]

        def measure(g: Graph) -> list:
            candidate = CandidateSpec(
                r=float(params["r"] or default_target_size(g.n, spec.x)),
                growth=float(params["growth"]),
                max_rounds=int(params["max_rounds"]),
                seed=trial_seed,
            )
            result = construct_resolving(g, candidate)
            return [
                int(result.success),
                result.rounds_used,
                len(result.resolving_set) if result.resolving_set else -1,
            ]
    elif command == "failure-rate":
        columns = ["failure_rate", "failures"]

        def measure(g: Graph) -> list:
            est = estimate_failure_rate(
                g, float(params["r"]), int(params["trials_per_graph"]), trial_seed
            )
            return [est.rate, est.failures]
    elif command == "exact":
        columns = ["beta", "beta_ms_out", "beta_ms"]

        def measure(g: Graph) -> list:
            result = exact_mod.dimension_report(g, budget=int(params["budget"]))
            return [
                result.metric_dim,
                result.outer_multiset_dim,
                "inf" if math.isinf(result.multiset_dim) else result.multiset_dim,
            ]
    elif command == "expansion":
        regime_params = regime(spec.n, float(spec.x))
        cells = [(level, s) for s in (1, 2) for level in range(regime_params.sparse_radius + 2)]
        columns = [f"max_dev_L{level}_s{s}" for level, s in cells]

        def measure(g: Graph) -> list:
            report = audit_expansion(g, regime_params, sample_size=int(params["samples"]),
                                     seed=trial_seed, multiplier=float(params["multiplier"]))
            dev = {(cell.level, cell.source_size): cell.max_abs_deviation
                   for cell in report.levels}
            return [dev[cell] for cell in cells]
    else:
        depth = params["k"]
        if depth is None:
            # Expected (not measured) degree keeps the column set identical
            # across trials, a schema requirement.
            depth = max(predicted_diameter(spec.n, spec.expected_degree) - 1, 0)
        columns = [f"atypical_frac_L{level}" for level in range(int(depth) + 1)]
        columns.append("collision_forced")

        def measure(g: Graph) -> list:
            size = int(params["set_size"] or _census_size(g.n))
            report = typicality_census(g, draw_census_set(g, size, trial_seed), int(depth))
            fractions = [lvl.atypical_count / g.n for lvl in report.levels]
            return fractions + [int(report.collision_forced)]
    if trial_seed is None:
        return columns, None
    return columns, measure(generate_gnp(dataclasses.replace(spec, seed=trial_seed)))


def _campaign_trial(task: tuple) -> tuple[list | str, float]:
    """One seeded trial: (quantity values in column order, elapsed ms).

    Per-draw precondition failures (e.g. a disconnected random graph) give
    the skip message in place of the values, recorded as ok=0 with empty
    value cells, so a long campaign never dies on one bad sample;
    configuration errors (budget refusals, unknown commands) still abort the
    whole campaign.
    """
    command, params, trial, trial_seed = task
    start = time.perf_counter()
    try:
        _, values = _campaign_measurements(command, params, trial_seed)
    except (exact_mod.BudgetExceededError, InputError):
        raise
    except ValueError as exc:
        values = f"trial {trial} (seed {trial_seed}) skipped: {exc}"
    return values, (time.perf_counter() - start) * 1e3


def cmd_campaign(cfg: dict) -> int:
    if not cfg.get("config_file"):
        raise InputError("campaign needs a config file")
    plan = _read_object(cfg["config_file"], "campaign plan")
    for key in ("command", "trials", "seed"):
        if key not in plan:
            raise InputError(f"campaign config missing {key!r}")
    command, trials, master = plan["command"], plan["trials"], plan["seed"]
    _check_param(command, "trials", trials, int, 0, False)
    _check_param(command, "seed", master, int, 0, False)
    params = plan.get("params", {})
    timings = bool(cfg.get("timings"))
    columns, _ = _campaign_measurements(command, params)
    tasks = [
        (command, params, t, derive_seed(master, CAMPAIGN_TRIAL, t))
        for t in range(trials)
    ]
    threads = int(cfg["threads"])
    if threads > 1 and tasks:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(_campaign_trial, tasks))
    else:
        outcomes = [_campaign_trial(t) for t in tasks]
    header = ["trial", "seed", "n", "x", "ok", *columns]
    if timings:
        header.append("wall_ms")
    rows = []
    for (_, _, trial, trial_seed), (values, elapsed) in zip(tasks, outcomes):
        ok = not isinstance(values, str)
        if not ok:
            # printed here, not in the worker, so stderr keeps trial order
            print(values, file=sys.stderr)
        row = [trial, trial_seed, params.get("n"), params.get("x"), int(ok),
               *(values if ok else [""] * len(columns))]
        if timings:
            row.append(elapsed)
        rows.append(row)  # one row per trial, order fixed by trial index
    # Worker count is an execution detail, not configuration: identical plans
    # must give byte-identical files at any thread count.
    config = {
        "command": "campaign",
        "campaign": {k: plan[k] for k in ("command", "trials", "seed")},
        "params": params,
    }
    _emit(cfg, header, rows, config)
    print(f"wrote {cfg['out']}: {len(rows)} trial rows")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Options, parser and dispatch
# ---------------------------------------------------------------------------

# Every option once: name -> (type, default, help).  A dict default is per
# command, None for a command it does not name.  Type bool is a switch, a
# tuple lists the choices, and config_file is campaign's positional plan; any
# other option's flag is its name with "-" for "_".
OPTIONS: dict[str, tuple] = {
    "out": (str, {"gen": "graph.edges", "curves": "curves.csv", "expansion": "expansion.csv",
                  "census": "census.csv", "campaign": "campaign.csv"}, "output path"),
    "format": (("csv", "json"), {"exact": "json", "curves": "csv", "randomized": "json",
                                 "expansion": "csv", "census": "csv", "campaign": "csv"},
               "output format where the command supports both"),
    "threads": (int, 1, "worker pool size (campaign); outputs never depend on it"),
    "graph": (str, None, None),
    "n": (int, {"gen": 100}, None),
    "p": (float, None, None),
    "x": (float, None, None),
    "graph_seed": (int, 0, None),
    "seed": (int, 0, None),
    "budget": (int, exact_mod.DEFAULT_BUDGET, None),
    "levels": (str, "1,4", None),
    "points": (int, 1000, None),
    "x_min": (str, None, None),
    "tol": (float, 1e-12, None),
    "rational": (bool, False, None),
    "r": (float, None, None),
    "growth": (float, 2.0, None),
    "max_rounds": (int, 12, None),
    "sensors": (str, "auto", '"auto" or comma-separated vertices'),
    "source": (str, "sweep", 'vertex id or "sweep"'),
    "samples": (int, 100, None),
    "multiplier": (float, 3.0, None),
    "set": (str, None, "comma-separated sensor vertices"),
    "set_size": (int, None, None),
    "k": (int, None, None),
    "config_file": (str, None, None),
    "timings": (bool, False, "include wall-clock column (breaks byte determinism)"),
}

_TABULAR = ("out", "format", "threads")
_GRAPH = ("graph", "n", "p", "x", "graph_seed")

# command -> (handler, help, its options in flag order)
COMMANDS: dict[str, tuple] = {
    "gen": (cmd_gen, "sample a seeded binomial random graph to an edge-list file",
            ("out", "threads", "n", "p", "x", "seed")),
    "exact": (cmd_exact, "exhaustive dimensions of a small graph (JSON)",
              (*_TABULAR, "graph", "budget")),
    "curves": (cmd_curves, "threshold-exponent level curves (CSV)",
               (*_TABULAR, "levels", "points", "x_min", "tol", "rational")),
    "randomized": (cmd_randomized, "sample-verify-grow construction (JSON round log)",
                   (*_TABULAR, *_GRAPH, "r", "growth", "max_rounds", "seed")),
    "localize": (cmd_localize, "spread/observe/identify transcripts (JSON lines)",
                 ("out", "threads", "graph", "sensors", "source", "budget")),
    "expansion": (cmd_expansion, "sphere-size audit on a random graph (CSV)",
                  (*_TABULAR, *_GRAPH, "samples", "multiplier", "seed")),
    "census": (cmd_census, "typical/atypical vertex census (CSV)",
               (*_TABULAR, *_GRAPH, "set", "set_size", "k", "seed")),
    "campaign": (cmd_campaign, "aggregate seeded trials of another command (CSV)",
                 (*_TABULAR, "config_file", "timings")),
}


def _default(name: str, command: str):
    default = OPTIONS[name][1]
    return default.get(command) if isinstance(default, dict) else default


DEFAULTS: dict[str, dict] = {
    command: {name: _default(name, command) for name in names}
    for command, (_, _, names) in COMMANDS.items()
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="msetdim",
        description="Multiset resolving sets on random and user-supplied graphs.",
        epilog="Exit codes: 0 ok, 2 usage, 3 input error, 4 budget refusal, "
        "5 verification failure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, names) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text, argument_default=None)
        # --config names the file that supplies defaults; it is no config key.
        p.add_argument("--config", help="JSON file with defaults for this command")
        for name in names:
            kind, _, help_opt = OPTIONS[name]
            flag = "--" + name.replace("_", "-")
            if name == "config_file":
                p.add_argument(name, nargs="?", help=help_opt)
            elif kind is bool:
                p.add_argument(flag, action="store_const", const=True, help=help_opt)
            elif isinstance(kind, tuple):
                p.add_argument(flag, choices=kind, help=help_opt)
            else:
                p.add_argument(flag, type=kind, help=help_opt)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args.command, args)
        return COMMANDS[args.command][0](cfg)
    except exact_mod.BudgetExceededError as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, FileNotFoundError) as exc:  # InputError, GraphFormatError, bad JSON
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
