"""Ground-truth and baseline solvers: exhaustive pattern enumeration,
support reduction of the optimal time-reuse profile, and the two
comparison schemes (BS-plus-one-relay and BS-only)."""

from __future__ import annotations

import functools
import time

import numpy as np

from .model import RateTable, Scenario, build_gains, build_rate_table
from .patterns import Pattern, PatternSet, initial_set
from .selection import SolveReport, finalize_on_set, make_report, round_association
from .solver import Allocation, SolverOptions, solve_allocation

DEFAULT_GUARD_N = 13


class GuardExceededError(RuntimeError):
    """Exhaustive enumeration refused: too many servers."""


@functools.lru_cache(maxsize=8)
def all_patterns(n_servers: int) -> PatternSet:
    """Every nonempty pattern over n_servers, in mask order.

    Cached for the last few sizes: the set and its patterns are immutable,
    so every call for one size shares the same object.
    """
    return PatternSet(tuple(Pattern(mask, n_servers) for mask in range(1, 1 << n_servers)))


def check_guard(n: int) -> None:
    """Refuse exhaustive enumeration over more than DEFAULT_GUARD_N servers."""
    if n > DEFAULT_GUARD_N:
        raise GuardExceededError(f"{n} servers would need {2**n - 1} patterns (guard {DEFAULT_GUARD_N})")


def brute_force(
    scenario: Scenario, options: SolverOptions = SolverOptions(), start: Allocation | None = None
) -> tuple[Allocation, RateTable]:
    """Optimal relaxed allocation over every feasible reuse pattern,
    solved from start's vertices when an allocation of the scenario is given."""
    check_guard(scenario.num_servers)
    gains = build_gains(scenario)
    table = build_rate_table(scenario, gains, all_patterns(scenario.num_servers).members)
    return solve_allocation(table, options, start), table


def brute_report(
    scenario: Scenario, solver_options: SolverOptions, seed_report: SolveReport | None = None
) -> SolveReport:
    """SolveReport wrapper around the exhaustive relaxed solve; with
    seed_report (a report on the same scenario) given, the solve starts from
    its relaxed allocation, and flags["seeded_by"] names its method."""
    t0 = time.perf_counter()
    start = seed_report.relaxed_allocation if seed_report is not None else None
    alloc, table = brute_force(scenario, solver_options, start)
    z = round_association(alloc, table)
    gains = build_gains(scenario)
    pattern_set = PatternSet(table.patterns)
    flags = {"converged": alloc.converged}
    if seed_report is not None:
        flags["seeded_by"] = seed_report.method
    return make_report("brute", gains, pattern_set, alloc, z, alloc, [alloc.objective], [len(pattern_set)], flags, t0)


def effective_rate_columns(allocation: Allocation, rate_table: RateTable) -> tuple[np.ndarray, np.ndarray]:
    """Per-pattern effective-rate vectors at the solution's time-sharing ratios.

    Only patterns with positive time share contribute a column; the matrix
    satisfies columns @ x[support] = effective rates.  Columns are returned
    in Mbps to keep the later pivoting well scaled.
    """
    support = np.flatnonzero(allocation.x > 0)
    num_users = rate_table.num_users
    w = rate_table.bandwidth_hz
    cols = np.zeros((num_users, len(support)))
    for k, i in enumerate(support):
        tau = allocation.y[:, :, i] / allocation.x[i]
        per_link = w * tau * rate_table.c[:, :, i]
        r_bar = per_link.sum(axis=1)
        r_tilde = per_link.sum(axis=0)  # (N,)
        cols[:, k] = (r_bar - r_tilde[1:]) / 1e6
    return cols, support


def reduce_support(phi: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Sparsify a time-reuse profile while preserving the rate vector.

    Repeatedly finds a null-space direction of the rate-plus-mass
    constraint matrix restricted to the current support and drives one
    coordinate to zero, until the surviving columns are affinely
    independent.  The result keeps phi @ x and the total mass, with at
    most U + 1 (typically U) surviving shares.
    """
    phi = np.asarray(phi, dtype=float)
    x = np.asarray(x, dtype=float).copy()
    if np.any(x < 0):
        raise ValueError("time shares must be nonnegative")
    num_users, k = phi.shape
    if x.shape != (k,):
        raise ValueError("x must align with phi columns")
    a = np.vstack([phi, np.ones(k)])
    b = a @ x  # original rate vector and total mass, preserved throughout
    # row scaling for conditioning; does not change the null space
    row_scale = np.maximum(np.abs(a).max(axis=1), 1.0)
    a_scaled = a / row_scale[:, None]

    while True:
        active = np.flatnonzero(x > 0)
        if len(active) <= 1:
            break
        sub = a_scaled[:, active]
        _, s, vt = np.linalg.svd(sub, full_matrices=True)
        tol = max(sub.shape) * np.finfo(float).eps * (s[0] if len(s) else 1.0)
        rank = int((s > tol).sum())
        if rank >= len(active):
            break  # columns affinely independent: nothing left to remove
        d = vt[-1]
        xa = x[active]
        # step to the first zero in each direction; prefer wiping the
        # smaller share (deterministic, biased toward the sparse face)
        steps = {}
        for sign in (1.0, -1.0):
            dd = sign * d
            pos = dd > 1e-14
            if not pos.any():
                continue
            ratios = xa[pos] / dd[pos]
            j_local = int(np.argmin(ratios))
            t = float(ratios[j_local])
            j = np.flatnonzero(pos)[j_local]
            steps[sign] = (t, j, dd)
        if not steps:
            break
        sign = min(steps, key=lambda sgn: (xa[steps[sgn][1]], -sgn))
        t, j, dd = steps[sign]
        xa = xa - t * dd
        xa[j] = 0.0
        xa = np.maximum(xa, 0.0)
        x[active] = xa
    # final refinement on the surviving support against the original targets
    support = np.flatnonzero(x > 0)
    sol, *_ = np.linalg.lstsq(a[:, support], b, rcond=None)
    if np.all(sol >= -1e-12):
        refined = np.zeros_like(x)
        refined[support] = np.maximum(sol, 0.0)
        if np.abs(a @ refined - b).max() <= np.abs(a @ x - b).max():
            x = refined
    return x


def _fixed_set_report(
    method: str, scenario: Scenario, pattern_set: PatternSet, solver_options: SolverOptions, t0: float
) -> SolveReport:
    """Relaxed solve, rounding and fixed-association re-solve on a set
    chosen without selection."""
    gains = build_gains(scenario)
    table = build_rate_table(scenario, gains, pattern_set.members)
    relaxed = solve_allocation(table, solver_options)
    z, final = finalize_on_set(table, relaxed, solver_options)
    flags = {"converged": relaxed.converged and final.converged}
    return make_report(
        method, gains, pattern_set, relaxed, z, final, [relaxed.objective], [len(pattern_set)], flags, t0
    )


def orthogonal_baseline(scenario: Scenario, solver_options: SolverOptions = SolverOptions()) -> SolveReport:
    """BS plus exactly one relay active at a time; no pattern selection."""
    t0 = time.perf_counter()
    return _fixed_set_report("orthogonal", scenario, initial_set(scenario.num_due), solver_options, t0)


def bs_only_baseline(scenario: Scenario, solver_options: SolverOptions = SolverOptions()) -> SolveReport:
    """No relaying: the BS transmits alone and time-shares its users."""
    t0 = time.perf_counter()
    pattern_set = PatternSet((Pattern.unit(0, scenario.num_servers),))
    return _fixed_set_report("bs_only", scenario, pattern_set, solver_options, t0)
