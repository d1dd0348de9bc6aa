import numpy as np
import pytest

from d2dreuse import InfeasibleError, Scenario, SolverOptions
from d2dreuse.cli import gen_scenario
from d2dreuse.selection import run
from d2dreuse.oracle import (
    GuardExceededError,
    all_patterns,
    brute_force,
    brute_report,
    bs_only_baseline,
    effective_rate_columns,
    orthogonal_baseline,
    reduce_support,
)


class TestAllPatterns:
    def test_counts_and_uniqueness(self):
        for n in (1, 2, 4):
            pats = all_patterns(n)
            assert len(pats) == 2**n - 1
            assert len({p.mask for p in pats}) == len(pats)

    def test_no_all_zero_member(self):
        assert all(p.mask != 0 for p in all_patterns(3))

    def test_cached_set_is_shared_and_unchanged(self):
        first = all_patterns(5)
        masks = [(p.mask, p.n_servers) for p in first]
        brute_force(gen_scenario(4, seed=2))  # 5 servers: uses and returns the cached set
        second = all_patterns(5)
        assert second is first
        assert [(p.mask, p.n_servers) for p in second] == masks == [(m, 5) for m in range(1, 32)]


class TestBruteForce:
    def test_guard(self):
        sc = gen_scenario(13, seed=0)  # 14 servers
        with pytest.raises(GuardExceededError):
            brute_force(sc)

    def test_ten_dues_converge_with_certificate(self):
        # 2047 patterns; from the sparse start (U+1 greedy vertices and the
        # starved users' covers) the active set peaks at 19 vertices
        sc = gen_scenario(10, seed=5)
        alloc, table = brute_force(sc)
        assert table.num_patterns == 2047
        assert alloc.converged
        assert alloc.fw_gap <= SolverOptions().tolerance * max(abs(alloc.objective), 1.0)
        assert np.all(alloc.rates.r_eff > 0)

    def test_single_due_uses_bs_alone(self):
        # with one DUE the relay can only silence or self-serve, so the
        # whole horizon goes to the BS-only pattern
        sc = gen_scenario(1, seed=5)
        alloc, table = brute_force(sc)
        i_bs = [p.bitstring() for p in table.patterns].index("10")
        assert alloc.x[i_bs] == pytest.approx(1.0, abs=1e-9)

    def test_dominates_any_subset_solve(self):
        from d2dreuse.model import build_gains, build_rate_table
        from d2dreuse.patterns import initial_set
        from d2dreuse.solver import solve_allocation

        sc = gen_scenario(3, seed=9)
        alloc, _ = brute_force(sc)
        gains = build_gains(sc)
        sub = build_rate_table(sc, gains, initial_set(3).members)
        sub_alloc = solve_allocation(sub)
        assert alloc.objective >= sub_alloc.objective - 1e-6 * abs(alloc.objective)


class TestSeededBrute:
    """brute_report seeded with run's report starts from run's relaxed
    optimum, a point of the exhaustive problem, and reaches its optimum."""

    @pytest.mark.parametrize("num_dues", [3, 5, 8])
    def test_seeded_solve_reaches_the_cold_optimum(self, num_dues):
        tol = SolverOptions().tolerance
        iterations = []
        for seed in range(4):
            sc = gen_scenario(num_dues, seed=300 + seed, walls_random=4)
            algo = run(sc)
            seeded = brute_report(sc, SolverOptions(), algo)
            cold = brute_report(sc, SolverOptions())
            bound = tol * max(abs(cold.pf_objective), 1.0)
            assert seeded.flags == {"converged": True, "seeded_by": "algo"}
            assert cold.flags == {"converged": True}
            assert abs(seeded.pf_objective - cold.pf_objective) <= bound
            assert seeded.pf_objective >= algo.relaxed_allocation.objective - bound
            # the table holds every pattern, so this certificate is over all of them
            alloc = seeded.relaxed_allocation
            assert alloc.x.size == 2 ** (num_dues + 1) - 1
            assert alloc.fw_gap <= tol * max(abs(alloc.objective), 1.0)
            assert seeded.final_allocation is alloc
            iterations.append((alloc.iterations, cold.relaxed_allocation.iterations))
        # starting at run's relaxed optimum saves Frank-Wolfe iterations
        assert sum(s for s, _ in iterations) < sum(c for _, c in iterations)
        print(f"PASS U={num_dues}: (seeded, cold) iterations {iterations}")


class TestEffectiveRateColumns:
    def test_reproduces_rates(self):
        sc = gen_scenario(3, seed=14)
        alloc, table = brute_force(sc)
        cols, support = effective_rate_columns(alloc, table)
        assert np.all(alloc.x[support] > 0)
        recon = cols @ alloc.x[support]
        assert np.allclose(recon, alloc.rates.r_eff / 1e6, rtol=1e-9, atol=1e-9)


class TestReduceSupport:
    def test_duplicate_columns_merge(self):
        phi = np.array([[1.0, 1.0], [2.0, 2.0]])
        x = np.array([0.3, 0.7])
        x2 = reduce_support(phi, x)
        assert (x2 > 0).sum() == 1
        assert np.allclose(phi @ x2, phi @ x)
        assert x2.sum() == pytest.approx(1.0)

    def test_independent_columns_untouched(self):
        phi = np.array([[1.0, 0.0], [0.0, 1.0]])
        x = np.array([0.4, 0.6])
        assert np.allclose(reduce_support(phi, x), x)

    def test_random_overcomplete_profiles(self):
        rng = np.random.default_rng(22)
        for u, k, sparse in [(2, 5, False)] * 30 + [(8, 200, True), (12, 60, True)] * 5:
            phi = rng.uniform(0.0, 3.0, size=(u, k))
            x = rng.dirichlet(np.ones(k))
            if sparse:
                # about 70% of the rate entries and 30% of the shares are zero
                phi[rng.random((u, k)) < 0.7] = 0.0
                x[rng.random(k) < 0.3] = 0.0
                x /= x.sum()
            x2 = reduce_support(phi, x)
            assert (x2 > 0).sum() <= u + 1
            assert np.all(x2 >= 0)
            assert np.abs(phi @ x2 - phi @ x).max() <= 1e-9
            assert x2.sum() == pytest.approx(x.sum(), abs=1e-9)

    def test_brute_force_profile_with_independent_columns_comes_back_bit_identical(self):
        sc = gen_scenario(8, seed=1_000_000, walls_random=4)  # the first exhaustive-u8 drop of `--seed 1`
        alloc, table = brute_force(sc)
        cols, support = effective_rate_columns(alloc, table)
        x = alloc.x[support]
        assert np.linalg.matrix_rank(np.vstack([cols, np.ones(len(x))])) == len(x)
        assert np.array_equal(reduce_support(cols, x), x)

    def test_rejects_negative_shares(self):
        with pytest.raises(ValueError):
            reduce_support(np.ones((1, 2)), np.array([0.5, -0.1]))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            reduce_support(np.ones((1, 2)), np.ones(3))


class TestBaselines:
    def test_brute_dominates_baselines(self):
        sc = gen_scenario(4, seed=6)
        alloc, _ = brute_force(sc)
        for baseline in (orthogonal_baseline, bs_only_baseline):
            rep = baseline(sc)
            assert alloc.objective >= rep.relaxed_allocation.objective - 1e-6 * abs(alloc.objective)

    def test_orthogonal_pattern_family(self):
        sc = gen_scenario(3, seed=1)
        rep = orthogonal_baseline(sc)
        assert len(rep.final_patterns) == 3
        for u, p in enumerate(rep.final_patterns):
            assert p.active_set == (0, 1 + u)

    def test_bs_only_single_pattern(self):
        sc = gen_scenario(3, seed=1)
        rep = bs_only_baseline(sc)
        assert [p.bitstring() for p in rep.final_patterns] == ["1000"]
        assert rep.final_allocation.x[0] == pytest.approx(1.0)

    def test_orthogonal_infeasible_for_single_due(self):
        # the only pattern (BS + the user's own relay) silences the user
        sc = gen_scenario(1, seed=3)
        with pytest.raises(InfeasibleError):
            orthogonal_baseline(sc)
