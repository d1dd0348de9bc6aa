import numpy as np
import pytest

from d2dreuse import InfeasibleError, Scenario, SolverOptions
from d2dreuse.cli import gen_scenario
from d2dreuse.oracle import (
    GuardExceededError,
    all_patterns,
    brute_force,
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
        for _ in range(30):
            u, k = 2, 5
            phi = rng.uniform(0.0, 3.0, size=(u, k))
            x = rng.dirichlet(np.ones(k))
            x2 = reduce_support(phi, x)
            assert (x2 > 0).sum() <= u + 1
            assert np.all(x2 >= 0)
            assert np.abs(phi @ x2 - phi @ x).max() <= 1e-9
            assert x2.sum() == pytest.approx(x.sum(), abs=1e-9)

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
