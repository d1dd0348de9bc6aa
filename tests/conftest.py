import dataclasses

import numpy as np
import pytest

from d2dreuse import Scenario
from d2dreuse.cli import gen_scenario
from d2dreuse.model import rates_from_allocation


def blocked_scenario(num_due, seed, n_blocked=2, wall_count=10, walls_random=0):
    """Random drop with the first n_blocked BS links heavily walled."""
    sc = gen_scenario(num_due, seed=seed, walls_random=walls_random)
    walls = np.array(sc.walls)
    for k in range(min(n_blocked, num_due)):
        walls[0, k] = wall_count
    return dataclasses.replace(sc, walls=walls)


def pf_objective_delta(table, y_plus, y_minus):
    """PF objective change sum_u log r_eff(y_plus) - log r_eff(y_minus).

    Central-difference references need this difference to round-off
    accuracy, and the direct forms cancel catastrophically.  Subtracting two
    directional_objective values subtracts sums of logs of about 60, whose
    round-off of a few 1e-15, divided by a step of 2e-6, swamps small
    gradient entries.  Subtracting the two r_eff vectors still carries the
    round-off of r_eff = r_bar - r_tilde, which leaves about 1e-10 where
    serving a user from its own relay changes nothing.  Rates are linear in
    y, so the rate change is taken as the rates of the step y_plus - y_minus
    and summed per user as log1p of the relative change.
    """
    r_minus = rates_from_allocation(table, y_minus).r_eff
    r_step = rates_from_allocation(table, y_plus - y_minus).r_eff
    return float(np.log1p(r_step / r_minus).sum())


def two_cluster_scenario():
    """Five DUEs in a hand-built blockage topology: one relay pair on the
    left, one relay serving two blocked users on the right."""
    positions = np.array(
        [
            [100.0, 100.0],  # BS
            [40.0, 100.0],   # DUE 1, BS link blocked, near DUE 2
            [55.0, 100.0],   # DUE 2, relay for DUE 1
            [150.0, 100.0],  # DUE 3, relay for DUEs 4 and 5
            [162.0, 92.0],   # DUE 4, BS link blocked
            [162.0, 108.0],  # DUE 5, BS link blocked
        ]
    )
    walls = np.zeros((6, 5), dtype=int)
    walls[0, 0] = 12
    walls[0, 3] = 12
    walls[0, 4] = 12
    return Scenario(
        num_due=5,
        positions=positions,
        tx_power_dbm=np.array([30.0, 20.0, 20.0, 20.0, 20.0, 20.0]),
        walls=walls,
        seed=0,
    )


@pytest.fixture
def five_due_blockage():
    return two_cluster_scenario()
