"""Optimal time-reuse scheduling and relaying for cellular networks with
cooperative D2D relays: network model, proportional-fairness solver,
pattern selection, ground-truth oracles, and an experiment CLI."""

from .model import (
    GainMatrix,
    PathLossParams,
    RateTable,
    Rates,
    Scenario,
    build_gains,
    build_rate_table,
    dbm_to_watts,
    path_loss_db,
    rates_from_allocation,
)
from .patterns import Pattern, PatternSet, flip_neighborhood, hamming, initial_set, trim
from .selection import SelectionOptions, SolveReport, round_association, run, score_pattern
from .selection import candidate_table, gradient, neighborhoods, propose_candidates
from .solver import (
    Allocation,
    InfeasibleError,
    SolverOptions,
    SolveStats,
    directional_objective,
    solve_allocation,
    solve_fixed_association,
)
from .oracle import (
    GuardExceededError,
    brute_force,
    bs_only_baseline,
    orthogonal_baseline,
    reduce_support,
)

__all__ = [
    "Allocation",
    "GainMatrix",
    "GuardExceededError",
    "InfeasibleError",
    "PathLossParams",
    "Pattern",
    "PatternSet",
    "RateTable",
    "Rates",
    "Scenario",
    "SelectionOptions",
    "SolveReport",
    "SolverOptions",
    "SolveStats",
    "brute_force",
    "bs_only_baseline",
    "build_gains",
    "build_rate_table",
    "candidate_table",
    "dbm_to_watts",
    "directional_objective",
    "flip_neighborhood",
    "gradient",
    "hamming",
    "initial_set",
    "neighborhoods",
    "orthogonal_baseline",
    "path_loss_db",
    "propose_candidates",
    "rates_from_allocation",
    "reduce_support",
    "round_association",
    "run",
    "score_pattern",
    "solve_allocation",
    "solve_fixed_association",
    "trim",
]

__version__ = "0.1.0"
