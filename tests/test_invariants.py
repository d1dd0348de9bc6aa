"""Metamorphic invariants, orderings and degenerate inputs.

Relabelling the DUEs permutes the problem, and scaling the bandwidth at a
fixed noise power scales every rate, so both have a known effect on the
solution.  Brute force bounds `run` from above and the two baselines from
below.  Degenerate drops must end in a result or InfeasibleError,
never in a crash or a hang.
"""

import dataclasses
import json

import numpy as np
import pytest

from d2dreuse.cli import METHODS, gen_scenario, run_experiment
from d2dreuse.oracle import brute_force, brute_report, bs_only_baseline, orthogonal_baseline
from d2dreuse.selection import SelectionOptions, run
from d2dreuse.solver import InfeasibleError, SolverOptions

from conftest import blocked_scenario

TOL = SolverOptions().tolerance


def relabel(scenario, perm):
    """The same drop with new DUE u being old DUE perm[u]."""
    servers = np.concatenate([[0], 1 + perm])
    return dataclasses.replace(
        scenario,
        positions=scenario.positions[servers],
        tx_power_dbm=scenario.tx_power_dbm[servers],
        walls=scenario.walls[np.ix_(servers, perm)],
    )


def scale_bandwidth(scenario, k):
    """Bandwidth times k with the noise power over the band unchanged."""
    return dataclasses.replace(
        scenario,
        bandwidth_hz=k * scenario.bandwidth_hz,
        noise_psd_dbm_hz=scenario.noise_psd_dbm_hz - 10.0 * np.log10(k),
    )


@pytest.fixture(scope="module")
def drop():
    sc = gen_scenario(6, seed=11, walls_random=4)
    return sc, brute_force(sc)[0], run(sc)


class TestMetamorphic:
    def test_relabelling_dues_permutes_rates_and_keeps_pf(self, drop):
        sc, brute, algo = drop
        bound = TOL * max(abs(brute.objective), 1.0)
        # Both solves end within `bound` of the optimal PF, and sum(log r) is
        # strongly concave around it, so each rate is within a relative
        # sqrt(2 * bound) of the optimal rate.
        rate_bound = 2.0 * np.sqrt(2.0 * bound)
        rng = np.random.default_rng(3)
        for _ in range(3):
            perm = rng.permutation(sc.num_due)
            sc_perm = relabel(sc, perm)
            brute_perm = brute_force(sc_perm)[0]
            rate_err = float(np.abs(brute_perm.rates.r_eff / brute.rates.r_eff[perm] - 1.0).max())
            brute_err = abs(brute_perm.objective - brute.objective)
            algo_err = abs(run(sc_perm).pf_objective - algo.pf_objective)
            print(f"perm {perm.tolist()}: brute PF error {brute_err:.2e}, run PF error {algo_err:.2e} "
                  f"(bound {bound:.2e}); brute rate error {rate_err:.2e} (bound {rate_bound:.2e})")
            assert brute_err <= bound
            assert algo_err <= bound
            assert rate_err <= rate_bound

    @staticmethod
    def check_bandwidth_shift(drop, k):
        sc, brute, algo = drop
        bound = TOL * max(abs(brute.objective), 1.0)
        shift = sc.num_due * np.log(k)
        sc_k = scale_bandwidth(sc, k)
        brute_err = abs(brute_force(sc_k)[0].objective - brute.objective - shift)
        algo_err = abs(run(sc_k).pf_objective - algo.pf_objective - shift)
        print(f"k = {k}: brute PF shift error {brute_err:.2e}, run PF shift error {algo_err:.2e} "
              f"(bound {bound:.2e})")
        assert brute_err <= bound
        assert algo_err <= bound

    @pytest.mark.parametrize("k", [0.5, 3.0])
    def test_scaling_bandwidth_shifts_pf_by_u_ln_k(self, drop, k):
        self.check_bandwidth_shift(drop, k)

    def test_scaling_bandwidth_to_a_first_relaxed_pf_of_minus_one_shifts_pf_by_u_ln_k(self, drop):
        # -1 is a PF value like any other: the selection loop still prices
        # candidates when its first relaxed solve lands on it
        sc, _, algo = drop
        self.check_bandwidth_shift(drop, np.exp((-1.0 - algo.objective_trace[0]) / sc.num_due))


class TestOrdering:
    def test_run_between_baselines_and_brute_force(self):
        """On 100 small walled drops, run's PF is at most brute force's and at
        least each baseline's, both within tol*max(|obj|,1)."""
        worst_brute = worst_base = -np.inf
        for u in (3, 4, 5, 6):
            for s in range(25):
                sc = gen_scenario(u, 9000 + s, walls_random=4)
                algo = run(sc).pf_objective
                bound = TOL * max(abs(algo), 1.0)
                worst_brute = max(worst_brute, (algo - brute_report(sc, SolverOptions()).pf_objective) / bound)
                for baseline in (orthogonal_baseline, bs_only_baseline):
                    worst_base = max(worst_base, (baseline(sc).pf_objective - algo) / bound)
        print(f"100 drops: worst (run - brute) / bound {worst_brute:.2e}, "
              f"worst (baseline - run) / bound {worst_base:.2e}; each must be <= 1")
        assert worst_brute <= 1.0
        assert worst_base <= 1.0


class TestSparsity:
    def test_every_allocation_holds_at_most_u_plus_1_patterns(self):
        """The solvers' own output is as sparse as Caratheodory allows: each
        relaxed and final allocation of every method holds at most U+1
        vertices and at most U+1 positive shares, with no support reduction."""
        drops = [gen_scenario(u, s, walls_random=4) for u in (4, 6, 8) for s in range(5)]
        drops += [blocked_scenario(12, seed=s) for s in range(3)]
        worst, checked = -np.inf, 0
        for sc in drops:
            done = {}
            for method in METHODS:
                if method == "brute" and sc.num_due > 8:
                    continue
                rep = done[method] = METHODS[method](sc, SelectionOptions(), done)
                for alloc in (rep.relaxed_allocation, rep.final_allocation):
                    size = max(len(alloc.vertices), int(np.count_nonzero(alloc.x > 0)))
                    assert size <= sc.num_due + 1, (method, sc.num_due, sc.seed, size)
                    worst = max(worst, size - sc.num_due)
                    checked += 1
        print(f"{checked} allocations: at most U{worst:+d} vertices or positive shares; must be <= U+1")


class TestDegenerateInputs:
    def test_single_due(self):
        sc = gen_scenario(1, seed=4)
        brute = brute_force(sc)[0].objective
        bound = TOL * max(abs(brute), 1.0)
        errs = [abs(run(sc).pf_objective - brute), abs(bs_only_baseline(sc).pf_objective - brute)]
        print(f"U = 1: run and bs_only PF errors vs brute {errs[0]:.2e}, {errs[1]:.2e} (bound {bound:.2e})")
        assert max(errs) <= bound
        # the only orthogonal pattern switches on the user's own relay
        with pytest.raises(InfeasibleError):
            orthogonal_baseline(sc)

    def test_colocated_nodes_report_clamped_links(self, tmp_path):
        sc = gen_scenario(3, seed=4)
        sc = dataclasses.replace(sc, positions=np.tile(sc.positions[0], (sc.num_servers, 1)))
        sc.save(tmp_path / "scenario.json")
        config = {"scenario": str(tmp_path / "scenario.json"), "methods": list(METHODS)}
        reports, infeasible = run_experiment(config, tmp_path / "out")
        assert infeasible == [] and set(reports) == set(METHODS)
        clamped = [(n, u) for n in range(sc.num_servers) for u in range(sc.num_due) if n != 1 + u]
        expected = [f"link distance clamped to 1 m: server {n} -> user {u}" for n, u in clamped]
        for method in METHODS:
            doc = json.loads((tmp_path / "out" / f"report_{method}.json").read_text())
            assert doc["warnings"] == expected, method
            assert np.isfinite(doc["pf_objective"])

    @pytest.mark.parametrize("method", [run, brute_force, orthogonal_baseline, bs_only_baseline])
    def test_every_link_walled_is_infeasible(self, method):
        sc = gen_scenario(3, seed=4)
        sc = dataclasses.replace(sc, walls=np.full((sc.num_servers, sc.num_due), 60))
        with pytest.raises(InfeasibleError):
            method(sc)
