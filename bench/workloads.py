"""Benchmark workloads: seeded inputs, the top-level call per scenario, the
output checks, and the layers each workload must reach.

Every call into the program goes through a module attribute
(``selection.run``, ``oracle.brute_force``, ...) so that the tracer's
wrappers see it.  See NOTES.md for why each workload exists.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from d2dreuse import cli, model, oracle, selection
from d2dreuse.solver import SolverOptions

import checks
from spans import arg

# Drop seeds of one run are consecutive from seed * SEED_STRIDE, so runs with
# different --seed values never share a drop.
SEED_STRIDE = 1_000_000
TOLERANCE = SolverOptions().tolerance  # every call uses the default options
TIMING_KEYS = frozenset({"wall_time_s"})


@dataclass
class Outcome:
    """What the checks found on one scenario's output."""

    errors: list[str]
    gm_mbps: float = float("nan")
    cert_gaps: list[float] = field(default_factory=list)
    gap_vs_brute: Optional[float] = None
    doc: object = None  # report JSON of the scenario, for the digest


@dataclass(frozen=True)
class Workload:
    name: str
    make_input: Callable[[int], object]  # drop seed -> Scenario or config
    call: Callable[[object, Path], object]  # the top-level call being timed
    check: Callable[[object, object, Path], Outcome]
    required_layers: tuple[str, ...]

    def input(self, seed: int, j: int):
        return self.make_input(seed * SEED_STRIDE + j)

    def inputs(self, seed: int, count: int) -> list:
        return [self.input(seed, j) for j in range(count)]


def strip_timing(doc):
    """The report JSON without wall-clock fields."""
    if isinstance(doc, dict):
        return {k: strip_timing(v) for k, v in doc.items() if k not in TIMING_KEYS}
    if isinstance(doc, list):
        return [strip_timing(v) for v in doc]
    return doc


def gm_mbps(r_eff: np.ndarray) -> float:
    return float(np.exp(np.log(r_eff).mean()) / 1e6)


# --- select-u12: the pattern-selection loop -------------------------------

SELECT_DUES = 12
WALLS_RANDOM = 4


def blocked_drop(num_due: int, seed: int, walls_random: int, n_blocked: int = 2, wall_count: int = 10):
    """tests/conftest.py::blocked_scenario on a walled random drop: the BS
    links of the first n_blocked DUEs get wall_count walls."""
    sc = cli.gen_scenario(num_due, seed, walls_random=walls_random)
    walls = np.array(sc.walls)
    walls[0, :min(n_blocked, num_due)] = wall_count
    return dataclasses.replace(sc, walls=walls)


def _select_check(scenario, report, out_dir: Path) -> Outcome:
    table = model.build_rate_table(scenario, model.build_gains(scenario), report.final_patterns.members)
    return Outcome(
        errors=checks.check_report("algo", report, table, TOLERANCE),
        gm_mbps=report.gm_throughput_mbps,
        cert_gaps=[checks.cert_gap_rel(report.relaxed_allocation), checks.cert_gap_rel(report.final_allocation)],
        doc=strip_timing(report.to_dict()),
    )


SELECT = Workload(
    name=f"select-u{SELECT_DUES}",
    make_input=lambda s: blocked_drop(SELECT_DUES, s, WALLS_RANDOM),
    call=lambda scenario, out_dir: selection.run(scenario),
    check=_select_check,
    required_layers=(
        "model.build_gains", "model.build_rate_table", "model.pattern_efficiencies",
        "patterns.flip_neighborhood", "patterns.trim",
        "solver.solve_allocation", "solver.solve_fixed_association",
        "selection.run", "selection.propose_candidates", "selection.score_pattern",
        "selection.finalize_on_set", "selection.round_association",
    ),
)


# --- exhaustive-u8: every pattern, then support reduction -----------------

EXHAUSTIVE_DUES = 8


def _exhaustive_call(scenario, out_dir: Path):
    alloc, table = oracle.brute_force(scenario)
    cols, support = oracle.effective_rate_columns(alloc, table)
    reduced = oracle.reduce_support(cols, alloc.x[support])
    return alloc, table, cols, support, reduced


def _exhaustive_check(scenario, result, out_dir: Path) -> Outcome:
    alloc, table, cols, support, reduced = result
    errors = checks.check_allocation("brute", alloc, table, TOLERANCE)
    errors += checks.check_support_reduction(cols, alloc.x[support], reduced, scenario.num_due)
    return Outcome(
        errors=errors,
        gm_mbps=gm_mbps(alloc.rates.r_eff),
        cert_gaps=[checks.cert_gap_rel(alloc)],
        doc={"brute": alloc.to_dict(table), "support": support.tolist(), "reduced_x": reduced.tolist()},
    )


EXHAUSTIVE = Workload(
    name=f"exhaustive-u{EXHAUSTIVE_DUES}",
    make_input=lambda s: cli.gen_scenario(EXHAUSTIVE_DUES, s, walls_random=WALLS_RANDOM),
    call=_exhaustive_call,
    check=_exhaustive_check,
    required_layers=(
        "model.build_gains", "model.build_rate_table", "model.pattern_efficiencies",
        "solver.solve_allocation", "oracle.brute_force", "oracle.effective_rate_columns",
        "oracle.reduce_support",
    ),
)


# --- experiment-u6: the four-method CLI experiment with its reports -------

EXPERIMENT_DUES = 6


def _experiment_config(seed: int) -> dict:
    return {"scenario": {"dues": EXPERIMENT_DUES, "seed": seed, "walls_random": WALLS_RANDOM},
            "methods": list(cli.METHODS)}


def _experiment_check(config: dict, result, out_dir: Path) -> Outcome:
    reports, infeasible = result
    errors = [f"{m}: INFEASIBLE" for m in infeasible]
    src = config["scenario"]
    scenario = cli.gen_scenario(src["dues"], src["seed"], walls_random=src["walls_random"])
    gains = model.build_gains(scenario)
    doc, gaps = {}, []
    for method in config["methods"]:
        report_doc = json.loads((out_dir / f"report_{method}.json").read_text())
        doc[method] = strip_timing(report_doc)
        rep = reports.get(method)
        if rep is None:
            continue
        table = model.build_rate_table(scenario, gains, rep.final_patterns.members)
        errors += checks.check_report(method, rep, table, TOLERANCE)
        gaps += [checks.cert_gap_rel(rep.relaxed_allocation), checks.cert_gap_rel(rep.final_allocation)]
        if report_doc.get("pf_objective") != rep.pf_objective:
            errors.append(f"{method}: report file disagrees with the returned report")
    algo, brute = reports.get("algo"), reports.get("brute")
    outcome = Outcome(errors=errors, cert_gaps=gaps, doc=doc)
    if algo is not None:
        outcome.gm_mbps = algo.gm_throughput_mbps
    if algo is not None and brute is not None:
        if algo.pf_objective > brute.pf_objective + TOLERANCE * max(abs(brute.pf_objective), 1.0):
            errors.append(f"algo PF {algo.pf_objective!r} beats exhaustive PF {brute.pf_objective!r}")
        outcome.gap_vs_brute = (brute.gm_throughput_mbps - algo.gm_throughput_mbps) / brute.gm_throughput_mbps
    return outcome


EXPERIMENT = Workload(
    name=f"experiment-u{EXPERIMENT_DUES}",
    make_input=_experiment_config,
    call=lambda config, out_dir: cli.run_experiment(config, out_dir),
    check=_experiment_check,
    required_layers=(
        "model.build_gains", "model.build_rate_table", "model.pattern_efficiencies",
        "patterns.flip_neighborhood", "patterns.trim",
        "solver.solve_allocation", "solver.solve_fixed_association",
        "selection.run", "selection.propose_candidates", "selection.score_pattern",
        "selection.finalize_on_set", "selection.round_association",
        "oracle.brute_force", "oracle.orthogonal_baseline", "oracle.bs_only_baseline",
        "cli.run_experiment", "cli.brute_report",
    ),
)

WORKLOADS = {w.name: w for w in (SELECT, EXHAUSTIVE, EXPERIMENT)}


# --- traced layers and the work each one counts ---------------------------

def _solve_counts(args, kwargs, alloc) -> dict:
    return {"iterations": alloc.iterations, "patterns": alloc.x.size, "not_converged": int(not alloc.converged)}


def _report_bytes(args, kwargs, result) -> dict:
    out_dir = Path(arg(args, kwargs, 1, "out_dir"))
    return {"report_bytes": sum(f.stat().st_size for f in out_dir.glob("report_*.json"))}


# layer -> (counter names, hook returning their increments)
LAYERS: dict[str, tuple[tuple[str, ...], Optional[Callable]]] = {
    "model.build_gains": ((), None),
    "model.build_rate_table": (("columns",), lambda a, k, table: {"columns": table.num_patterns}),
    "model.pattern_efficiencies": ((), None),
    "patterns.flip_neighborhood": (("candidates",), lambda a, k, cands: {"candidates": len(cands)}),
    "patterns.trim": ((), None),
    "solver.solve_allocation": (("iterations", "patterns", "not_converged"), _solve_counts),
    "solver.solve_fixed_association": (("iterations", "patterns", "not_converged"), _solve_counts),
    "selection.run": (("outer_iters", "stalled"), lambda a, k, rep: {
        "outer_iters": len(rep.objective_trace) - 1, "stalled": int(bool(rep.flags.get("stalled")))}),
    "selection.propose_candidates": (("winners",), lambda a, k, res: {"winners": len(res[0])}),
    "selection.score_pattern": ((), None),
    "selection.finalize_on_set": ((), None),
    "selection.round_association": ((), None),
    "oracle.brute_force": ((), None),
    "oracle.effective_rate_columns": ((), None),
    "oracle.reduce_support": (("support_in", "support_out"), lambda a, k, x: {
        "support_in": int(np.count_nonzero(arg(a, k, 1, "x"))), "support_out": int(np.count_nonzero(x))}),
    "oracle.orthogonal_baseline": ((), None),
    "oracle.bs_only_baseline": ((), None),
    "cli.run_experiment": (("report_bytes",), _report_bytes),
    "cli.brute_report": ((), None),
}
