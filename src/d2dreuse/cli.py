"""Command-line front end: scenario generation, experiment runs, and
machine-readable summary/CDF outputs."""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import oracle
from .model import Scenario, read_json
from .oracle import GuardExceededError, brute_report
from .selection import SelectionOptions, SolveReport, run as run_selection
from .solver import InfeasibleError, SolverOptions

AREA_M = 200.0
BS_POWER_DBM = 30.0
DUE_POWER_DBM = 20.0

# (scenario, SelectionOptions, {method: report already made on the scenario})
# -> SolveReport.  Each entry looks its solver up when called, so a wrapper on
# the module attribute (bench/spans.py) sees it.
METHODS = {
    "algo": lambda scenario, options, done: run_selection(scenario, options),
    "brute": lambda scenario, options, done: brute_report(scenario, options.solver, done.get("algo")),
    "orthogonal": lambda scenario, options, done: oracle.orthogonal_baseline(scenario, options.solver),
    "bs_only": lambda scenario, options, done: oracle.bs_only_baseline(scenario, options.solver),
}


def _check_seed(seed: int) -> None:
    # a scenario file holds a seed as a 64-bit integer, and numpy refuses negative ones
    if not 0 <= seed < 2**63:
        raise ValueError(f"scenario seed must lie in [0, 2**63), got {seed}")


def gen_scenario(num_due: int, seed: int, walls_random: int = 0) -> Scenario:
    """Deterministic random drop: BS at the square's center, DUEs uniform."""
    if num_due < 1:
        raise ValueError("need at least one DUE")
    if walls_random < 0:
        raise ValueError(f"walls_random must be nonnegative, got {walls_random}")
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    due_pos = rng.uniform(0.0, AREA_M, size=(num_due, 2))
    positions = np.vstack([[AREA_M / 2.0, AREA_M / 2.0], due_pos])
    powers = np.concatenate([[BS_POWER_DBM], np.full(num_due, DUE_POWER_DBM)])
    walls = None
    if walls_random > 0:
        walls = rng.integers(0, walls_random + 1, size=(1 + num_due, num_due))
    return Scenario(
        num_due=num_due,
        positions=positions,
        tx_power_dbm=powers,
        walls=walls,
        seed=seed,
    )


def config_hash(config: dict) -> str:
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()[:16]


def _option_kinds(cls) -> dict:
    """The numeric fields of an options dataclass, as read_json kinds."""
    return {f.name: type(f.default) for f in dataclasses.fields(cls) if f.default is not dataclasses.MISSING}


# The keys of a run config; "scenario" is a scenario file's path or the
# section read by _load_scenario.
CONFIG_KEYS = {
    "scenario": None,
    "methods": None,
    "solver": _option_kinds(SolverOptions),
    "selection": _option_kinds(SelectionOptions),
    "output_dir": str,
}


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        wr.writerows(rows)


def _load_scenario(spec) -> Scenario:
    if isinstance(spec, str):
        return Scenario.load(spec)
    kinds = {"dues": int, "seed": int, "walls_random": int}
    src = read_json(spec, kinds, "config", "scenario", required=("dues", "seed"))
    return gen_scenario(src["dues"], src["seed"], src.get("walls_random", 0))


def run_experiment(config: dict, out_dir: Path, trace: bool = False) -> tuple[dict, list[str]]:
    """Run the selected methods and write reports, summary and CDF files.

    Returns (per-method reports, names of methods that were infeasible).
    """
    values = read_json(config, CONFIG_KEYS, "config")
    scenario = _load_scenario(values.get("scenario", {}))
    solver_opts = SolverOptions(**values.get("solver", {}))
    selection_opts = SelectionOptions(**values.get("selection", {}), solver=solver_opts)
    methods = values.get("methods", ["algo"])
    if (not isinstance(methods, list) or not methods
            or not all(isinstance(m, str) and m in METHODS for m in methods) or len(set(methods)) < len(methods)):
        raise ValueError(f"methods must be a nonempty subset of {tuple(METHODS)}, got {methods}")
    if "brute" in methods:
        oracle.check_guard(scenario.num_servers)
    chash = config_hash(config)
    out_dir.mkdir(parents=True, exist_ok=True)

    reports: dict[str, SolveReport] = {}
    infeasible: list[str] = []
    for method in methods:
        try:
            rep = reports[method] = METHODS[method](scenario, selection_opts, reports)
        except InfeasibleError as exc:
            infeasible.append(method)
            (out_dir / f"report_{method}.json").write_text(
                json.dumps({"method": method, "status": "INFEASIBLE", "detail": str(exc),
                            "config_hash": chash, "seed": scenario.seed}) + "\n")
            continue

        doc = rep.to_dict()
        doc["config_hash"] = chash
        doc["seed"] = scenario.seed
        # compact: with indent, json falls back to its pure-Python encoder
        (out_dir / f"report_{method}.json").write_text(json.dumps(doc) + "\n")

        rates = np.sort(rep.final_allocation.rates.r_eff) / 1e6
        _write_csv(out_dir / f"cdf_{method}.csv", ["rate_mbps", "quantile"],
                   ([f"{r:.9g}", f"{k / len(rates):.6f}"] for k, r in enumerate(rates, start=1)))
        if trace and method == "algo":
            steps = zip(rep.pattern_set_sizes, rep.objective_trace)
            _write_csv(out_dir / "trace_algo.csv", ["t", "set_size", "objective"],
                       ([t, sz, f"{obj:.12g}"] for t, (sz, obj) in enumerate(steps, start=1)))

    gm_brute = reports["brute"].gm_throughput_mbps if "brute" in reports else None
    rows = []
    for method, rep in reports.items():
        gap = ""
        if gm_brute and method == "algo":
            gap = f"{(gm_brute - rep.gm_throughput_mbps) / gm_brute:.6g}"
        active = int((rep.final_allocation.x > selection_opts.eps1).sum())
        rows.append([method, f"{rep.gm_throughput_mbps:.9g}", f"{rep.pf_objective:.9g}",
                     active, f"{rep.wall_time_s:.4f}", gap, chash, scenario.seed])
    _write_csv(out_dir / "summary.csv", ["method", "gm_mbps", "pf_objective", "active_patterns",
                                         "wall_time_s", "gap_vs_brute", "config_hash", "seed"], rows)
    return reports, infeasible


def _parse_seed_range(spec: str) -> range:
    a, sep, b = spec.partition("..")
    first = int(a)
    last = int(b) if sep else first
    if last < first:
        raise ValueError(f"seed range {spec} is empty: its end is below its start")
    for seed in (first, last):
        _check_seed(seed)
    return range(first, last + 1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="d2dreuse", description="Time-reuse scheduling with D2D relays")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a random scenario file")
    p_gen.add_argument("--dues", type=int, required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--walls-random", type=int, default=0, metavar="K",
                       help="draw per-link wall counts uniformly from 0..K")
    p_gen.add_argument("--out", type=Path, default=Path("scenario.json"))

    p_run = sub.add_parser("run", help="run methods from a config file")
    p_run.add_argument("--config", type=Path, required=True)
    p_run.add_argument("--methods", type=str, default=None,
                       help=f"comma list overriding the config ({','.join(METHODS)})")
    p_run.add_argument("--trace", action="store_true")
    p_run.add_argument("--out-dir", type=Path, default=None)

    p_cmp = sub.add_parser("compare", help="batch algo-vs-brute comparison over seeds")
    p_cmp.add_argument("--seeds", type=str, required=True, help="range a..b or single seed")
    p_cmp.add_argument("--dues", type=int, required=True)
    p_cmp.add_argument("--walls-random", type=int, default=0)
    p_cmp.add_argument("--out", type=Path, default=Path("compare.csv"))

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0

    try:
        if args.command == "gen":
            scenario = gen_scenario(args.dues, args.seed, args.walls_random)
            scenario.save(args.out)
            print(f"wrote {args.out}")
            return 0

        if args.command == "run":
            config = json.loads(args.config.read_text())
            output_dir = read_json(config, CONFIG_KEYS, "config").get("output_dir", "out")
            if args.methods:
                config["methods"] = [m.replace("-", "_") for m in args.methods.split(",")]
            out_dir = args.out_dir or Path(output_dir)
            _, infeasible = run_experiment(config, out_dir, trace=args.trace)
            for m in infeasible:
                print(f"method {m}: INFEASIBLE", file=sys.stderr)
            print(f"wrote results to {out_dir}")
            return 2 if infeasible else 0

        # compare
        oracle.check_guard(args.dues + 1)
        rows = []
        for seed in _parse_seed_range(args.seeds):
            scenario = gen_scenario(args.dues, seed, args.walls_random)
            algo = METHODS["algo"](scenario, SelectionOptions(), {})
            brute = METHODS["brute"](scenario, SelectionOptions(), {"algo": algo})
            rows.append([args.dues, seed, f"{brute.gm_throughput_mbps:.9g}", f"{algo.gm_throughput_mbps:.9g}",
                         f"{brute.wall_time_s:.4f}", f"{algo.wall_time_s:.4f}"])
            print(f"seed {seed}: gm_brute={rows[-1][2]} gm_algo={rows[-1][3]}")
        _write_csv(args.out, ["dues", "seed", "gm_brute_mbps", "gm_algo_mbps", "t_brute_s", "t_algo_s"], rows)
        print(f"wrote {args.out}")
        return 0
    except (ValueError, OSError, json.JSONDecodeError, GuardExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
