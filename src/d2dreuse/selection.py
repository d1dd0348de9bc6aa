"""Iterative pattern selection: gradient scoring, candidate proposal,
trimming, rounding to single-server association, and the full outer loop."""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

import numpy as np

from . import patterns as pat
from .model import GainMatrix, RateTable, Rates, Scenario, build_gains, build_rate_table, select_columns
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
        relaxed = self.relaxed_allocation.to_dict()
        final = relaxed if self.final_allocation is self.relaxed_allocation else self.final_allocation.to_dict()
        return {
            "method": self.method,
            "patterns": [p.bitstring() for p in self.final_patterns],
            "relaxed": relaxed,
            "final": final,
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


def neighborhoods(current: PatternSet) -> tuple[tuple[Pattern, ...], ...]:
    """The set's single-bit-flip neighborhoods, one per server, without the
    set's members."""
    current_masks = {p.mask for p in current}
    return tuple(
        tuple(cand for cand in pat.flip_neighborhood(current, n) if cand.mask not in current_masks)
        for n in range(current.n_servers)
    )


def candidate_table(
    scenario: Scenario, gains: GainMatrix, current: PatternSet, hoods: tuple[tuple[Pattern, ...], ...]
) -> RateTable:
    """One rate table over the set's members followed by every candidate of
    its neighborhoods hoods, in one efficiency pass."""
    candidates = {cand.mask: cand for hood in hoods for cand in hood}  # first-occurrence order
    return build_rate_table(scenario, gains, current.members + tuple(candidates.values()))


def propose_candidates(
    hoods: tuple[tuple[Pattern, ...], ...], table: RateTable, scores: np.ndarray
) -> tuple[list[Pattern], float]:
    """Per-server best candidates of a set's neighborhoods hoods.

    table holds every candidate (see candidate_table) and scores is
    score_pattern over it.  Returns the deduplicated winners (one per
    server at most, ties to the first candidate of the server's
    neighborhood) together with the best candidate score seen, for the
    caller's stopping rule.
    """
    if not any(hoods):
        return [], float("-inf")
    score_of = dict(zip((p.mask for p in table.patterns), scores.tolist()))
    winners: list[Pattern] = []
    seen: set[int] = set()
    best_score = float("-inf")
    for hood in hoods:
        if not hood:
            continue
        hood_scores = [score_of[cand.mask] for cand in hood]
        best = max(hood_scores)
        winner = hood[hood_scores.index(best)]
        best_score = max(best_score, best)
        if winner.mask not in seen:
            winners.append(winner)
            seen.add(winner.mask)
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
    table: RateTable, relaxed: Allocation, solver_options: SolverOptions
) -> tuple[np.ndarray, Allocation]:
    """Rounding and fixed-association re-solve of a relaxed solve on table.

    The fixed-association solve starts from the relaxed allocation's
    vertices.  Returns the association z and the final allocation.
    """
    z = round_association(relaxed, table)
    return z, solve_fixed_association(table, z, solver_options, start=relaxed)


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


@functools.lru_cache(maxsize=8)
def _start(num_due: int) -> tuple[PatternSet, tuple[tuple[Pattern, ...], ...]]:
    """run's starting set and its neighborhoods.

    Cached for the last few sizes: every drop of one size starts from the
    same set, and it is the only set that repeats across drops (on 30
    select-u12 drops, 377 of 1,365 flip_neighborhood calls repeated an
    earlier call, all of them on this set).
    """
    current = pat.initial_set(num_due).union([Pattern.unit(0, 1 + num_due)])
    return current, neighborhoods(current)


def run(scenario: Scenario, options: SelectionOptions = SelectionOptions()) -> SolveReport:
    """Full pattern-selection loop with final single-server rounding.

    The starting set is the BS-plus-one-relay family augmented with the
    BS-only pattern: without the singleton a lone user is silenced by its
    own relay bit under every starting pattern, and for larger networks
    trimming discards the singleton whenever it is useless.  Every relaxed
    solve after the first starts from the previous one's vertices.
    """
    t0 = time.perf_counter()
    num_due = scenario.num_due
    gains = build_gains(scenario)
    current, hoods = _start(num_due)

    # One efficiency pass per outer iteration: the candidate table holds
    # the set and its candidates, and the next relaxed solve takes its columns.
    priced = candidate_table(scenario, gains, current, hoods)
    table = select_columns(priced, current.members)
    alloc = solve_allocation(table, options.solver)
    trace = [alloc.objective]
    sizes = [len(current)]
    flags = {"converged": False, "pattern_cap_hit": False, "stalled": False}

    p_prev = float("-inf")
    p_cur = alloc.objective
    t = 1
    # the BS-only augmentation may push |V^1| to U+1; the size guard only
    # kicks in once trimming has had a chance to act
    while (
        abs(p_cur - p_prev) > options.eps2
        and (len(current) <= num_due or t == 1)
        and t < options.max_outer_iters
    ):
        if priced is None:
            hoods = neighborhoods(current)
            priced = candidate_table(scenario, gains, current, hoods)
        scores = score_pattern(priced, alloc.rates)
        winners, best_candidate = propose_candidates(hoods, priced, scores)
        if not winners:
            flags["converged"] = True
            break
        if best_candidate <= float(scores[:len(current)].max()):  # the set's columns lead the table
            flags["stalled"] = True
            flags["converged"] = True
            break
        extended = current.union(winners)
        table = select_columns(priced, extended.members)
        alloc = solve_allocation(table, options.solver, start=alloc)
        p_prev, p_cur = p_cur, alloc.objective
        trace.append(p_cur)
        current = pat.trim(extended, alloc.x, options.eps1)
        priced = None
        sizes.append(len(current))
        if len(current) > num_due:
            flags["pattern_cap_hit"] = True
        t += 1
    else:
        flags["converged"] = abs(p_cur - p_prev) <= options.eps2

    if table.patterns != current.members:  # the last trim dropped a pattern
        table = select_columns(table, current.members)
        alloc = solve_allocation(table, options.solver, start=alloc)
    z, final = finalize_on_set(table, alloc, options.solver)
    flags["rounding_loss"] = alloc.objective - final.objective
    return make_report("algo", gains, current, alloc, z, final, trace, sizes, flags, t0)
