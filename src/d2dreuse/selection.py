"""Iterative pattern selection: gradient scoring, candidate proposal,
trimming, rounding to single-server association, and the full outer loop."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import patterns as pat
from .model import GainMatrix, RateTable, Rates, Scenario, build_gains, build_rate_table
from .patterns import Pattern, PatternSet
from .solver import Allocation, SolverOptions, pattern_scores, solve_allocation, solve_fixed_association


@dataclass(frozen=True)
class SelectionOptions:
    eps1: float = 1e-4  # trim threshold on pattern time shares
    eps2: float = 1e-4  # objective-change stopping threshold
    max_outer_iters: int = 50
    solver: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self) -> None:
        if not (0 < self.eps1 < 1 and 0 < self.eps2 < 1):
            raise ValueError("eps1 and eps2 must lie in (0, 1)")
        if not self.max_outer_iters >= 1:
            raise ValueError("max_outer_iters must be at least 1")


@dataclass
class SolveReport:
    method: str
    final_patterns: PatternSet
    relaxed_allocation: Allocation
    final_allocation: Allocation
    associations: np.ndarray  # z[u, n, i] over the final pattern set
    objective_trace: list[float]
    wall_time_s: float
    pattern_set_sizes: list[int]
    flags: dict
    warnings: list[str] = field(default_factory=list)

    @property
    def pf_objective(self) -> float:
        return self.final_allocation.objective

    @property
    def gm_throughput_mbps(self) -> float:
        """Geometric mean of the final effective rates, in Mbps."""
        return float(np.exp(np.log(self.final_allocation.rates.r_eff).mean()) / 1e6)

    def schedule_table(self) -> list[dict]:
        """Human-readable schedule: one row per pattern with its time share."""
        return [
            {"pattern": p.bitstring(), "share": float(xi)}
            for p, xi in zip(self.final_patterns, self.final_allocation.x)
        ]

    def to_dict(self) -> dict:
        nz = np.argwhere(self.associations > 0)
        return {
            "method": self.method,
            "patterns": [p.bitstring() for p in self.final_patterns],
            "relaxed": self.relaxed_allocation.to_dict(),
            "final": self.final_allocation.to_dict(),
            "associations": nz.tolist(),
            "objective_trace": self.objective_trace,
            "pf_objective": self.pf_objective,
            "gm_throughput_mbps": self.gm_throughput_mbps,
            "wall_time_s": self.wall_time_s,
            "pattern_set_sizes": self.pattern_set_sizes,
            "flags": self.flags,
            "warnings": self.warnings,
            "schedule": self.schedule_table(),
        }


def _linearize(rate_table: RateTable, rates: Rates) -> tuple[np.ndarray, np.ndarray]:
    if np.any(rates.r_eff <= 0):
        raise ValueError("scoring requires strictly positive effective rates")
    return pattern_scores(rate_table.bandwidth_hz * rate_table.c, 1.0 / rates.r_eff)


def gradient(rate_table: RateTable, rates: Rates) -> np.ndarray:
    """Per-(user, server, pattern) derivative of the PF objective in y."""
    return _linearize(rate_table, rates)[1]


def score_pattern(rate_table: RateTable, rates: Rates) -> np.ndarray:
    """Linearized gain of granting each pattern of the table all the time.

    Per server the best user under the current gradient is picked; a
    pattern's score is the sum of those best entries, the value the
    Frank-Wolfe linear oracle maximizes.
    """
    return _linearize(rate_table, rates)[0]


def propose_candidates(
    current: PatternSet, scenario: Scenario, gains: GainMatrix, rates: Rates
) -> tuple[list[Pattern], float]:
    """Per-server best single-bit-flip candidates not already in the set.

    All candidates are scored in one rate table.  Returns the deduplicated
    winners (one per server at most, ties to the first candidate of the
    server's neighborhood) together with the best candidate score seen, for
    the caller's stopping rule.
    """
    current_masks = {p.mask for p in current}
    hoods = [
        [cand for cand in pat.flip_neighborhood(current, n) if cand.mask not in current_masks]
        for n in range(scenario.num_servers)
    ]
    candidates: dict[int, Pattern] = {}  # first-occurrence order
    for hood in hoods:
        for cand in hood:
            candidates.setdefault(cand.mask, cand)
    if not candidates:
        return [], float("-inf")
    column = {mask: k for k, mask in enumerate(candidates)}
    scores = score_pattern(build_rate_table(scenario, gains, list(candidates.values())), rates)
    winners: list[Pattern] = []
    seen = set(current_masks)
    best_score = float("-inf")
    for hood in hoods:
        if not hood:
            continue
        hood_scores = scores[[column[cand.mask] for cand in hood]]
        k = int(np.argmax(hood_scores))
        best_score = max(best_score, float(hood_scores[k]))
        if hood[k].mask not in seen:
            winners.append(hood[k])
            seen.add(hood[k].mask)
    return winners, best_score


def round_association(allocation: Allocation, rate_table: RateTable) -> np.ndarray:
    """Single-server association: per (user, pattern) keep the server
    carrying the largest data rate; ties and all-zero rows go to server 0."""
    prod = allocation.y * rate_table.c  # (U, N, I)
    best = prod.argmax(axis=1)  # (U, I); argmax ties resolve to the lowest index
    z = np.zeros_like(prod, dtype=int)
    num_users, _, num_patterns = prod.shape
    z[np.arange(num_users)[:, None], best, np.arange(num_patterns)] = 1
    return z


def finalize_on_set(
    scenario: Scenario,
    gains: GainMatrix,
    pattern_set: PatternSet,
    solver_options: SolverOptions,
    solved: Optional[tuple[RateTable, Allocation]] = None,
) -> tuple[RateTable, Allocation, np.ndarray, Allocation]:
    """Relaxed solve, rounding, and fixed-association re-solve on a set.

    solved, when given, is the (rate table, relaxed allocation) pair that a
    caller already computed on exactly this pattern set and these solver
    options; the relaxed solve is then not repeated.  The fixed-association
    solve starts from the relaxed allocation's vertices.
    """
    if solved is None:
        table = build_rate_table(scenario, gains, pattern_set.members)
        relaxed = solve_allocation(table, solver_options)
    else:
        table, relaxed = solved
        if table.patterns != pattern_set.members:
            raise ValueError("the solved rate table is not over this pattern set")
    z = round_association(relaxed, table)
    final = solve_fixed_association(table, z, solver_options, start=relaxed)
    return table, relaxed, z, final


def make_report(
    method: str,
    gains: GainMatrix,
    pattern_set: PatternSet,
    relaxed: Allocation,
    z: np.ndarray,
    final: Allocation,
    trace: list[float],
    sizes: list[int],
    flags: dict,
    t0: float,
) -> SolveReport:
    """Report of a solve whose final pattern set is pattern_set; the wall
    time counts from t0."""
    warnings = [f"link distance clamped to 1 m: server {n} -> user {u}" for n, u in gains.clamped_links]
    return SolveReport(
        method=method,
        final_patterns=pattern_set,
        relaxed_allocation=relaxed,
        final_allocation=final,
        associations=z,
        objective_trace=trace,
        wall_time_s=time.perf_counter() - t0,
        pattern_set_sizes=sizes,
        flags=flags,
        warnings=warnings,
    )


def run(scenario: Scenario, options: SelectionOptions = SelectionOptions()) -> SolveReport:
    """Full pattern-selection loop with final single-server rounding.

    The starting set is the BS-plus-one-relay family augmented with the
    BS-only pattern: without the singleton a lone user is silenced by its
    own relay bit under every starting pattern, and for larger networks
    trimming discards the singleton whenever it is useless.
    """
    t0 = time.perf_counter()
    num_due = scenario.num_due
    gains = build_gains(scenario)
    current = pat.initial_set(num_due).union([Pattern.unit(0, scenario.num_servers)])

    table = build_rate_table(scenario, gains, current.members)
    alloc = solve_allocation(table, options.solver)
    trace = [alloc.objective]
    sizes = [len(current)]
    flags = {"converged": False, "pattern_cap_hit": False, "stalled": False}

    p_prev = -1.0
    p_cur = alloc.objective
    t = 1
    # the BS-only augmentation may push |V^1| to U+1; the size guard only
    # kicks in once trimming has had a chance to act
    while (
        abs(p_cur - p_prev) > options.eps2
        and (len(current) <= num_due or t == 1)
        and t < options.max_outer_iters
    ):
        winners, best_candidate = propose_candidates(current, scenario, gains, alloc.rates)
        if not winners:
            flags["converged"] = True
            break
        in_set = [p in current for p in table.patterns]  # trimming keeps current within the table
        best_in_set = float(score_pattern(table, alloc.rates)[in_set].max())
        if best_candidate <= best_in_set:
            flags["stalled"] = True
            flags["converged"] = True
            break
        extended = current.union(winners)
        table = build_rate_table(scenario, gains, extended.members)
        alloc = solve_allocation(table, options.solver)
        p_prev, p_cur = p_cur, alloc.objective
        trace.append(p_cur)
        current = pat.trim(extended, alloc.x, options.eps1)
        sizes.append(len(current))
        if len(current) > num_due:
            flags["pattern_cap_hit"] = True
        t += 1
    else:
        flags["converged"] = abs(p_cur - p_prev) <= options.eps2

    # the last relaxed solve is reused when trimming kept its whole set
    solved = (table, alloc) if table.patterns == current.members else None
    table, relaxed, z, final = finalize_on_set(scenario, gains, current, options.solver, solved)
    flags["rounding_loss"] = relaxed.objective - final.objective
    return make_report("algo", gains, current, relaxed, z, final, trace, sizes, flags, t0)
