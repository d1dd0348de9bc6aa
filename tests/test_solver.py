import numpy as np
import pytest

from d2dreuse import (
    InfeasibleError,
    SolverOptions,
    build_gains,
    build_rate_table,
    directional_objective,
    solve_allocation,
    solve_fixed_association,
)
from d2dreuse.cli import gen_scenario
from d2dreuse.oracle import all_patterns
from d2dreuse.selection import round_association
from d2dreuse.solver import _line_search, _phi, _phi_prime, _sparse_start, _vertex_rates

from test_model import synthetic_table


def check_certificate(alloc, equality=True, tol=1e-8):
    assert alloc.x.sum() == pytest.approx(1.0, abs=tol)
    assert np.all(alloc.x >= -1e-12)
    assert np.all(alloc.y >= -1e-12)
    col = alloc.y.sum(axis=0)  # (N, I)
    if equality:
        assert np.abs(col - alloc.x[None, :]).max() <= tol
    else:
        assert np.all(col <= alloc.x[None, :] + tol)
    assert np.all(alloc.rates.r_eff > 0)
    assert alloc.fw_gap <= 1e-6 * abs(alloc.objective) + 1e-12


class TestDirectionalObjective:
    def test_known_value(self):
        c = np.zeros((1, 2, 1))
        c[0, 0, 0] = 2.0
        table = synthetic_table(c, bandwidth=1.0)
        y = np.zeros((1, 2, 1))
        y[0, 0, 0] = 0.5
        assert directional_objective(table, y) == pytest.approx(np.log(1.0))

    def test_relay_subtraction(self):
        c = np.zeros((2, 3, 1))
        c[1, 0, 0] = 3.0
        c[0, 2, 0] = 2.0
        table = synthetic_table(c, bandwidth=1.0)
        y = np.zeros((2, 3, 1))
        y[1, 0, 0] = 0.5
        y[0, 2, 0] = 0.25
        # R2 = 1.5 - 0.5 = 1.0, R1 = 0.5
        assert directional_objective(table, y) == pytest.approx(np.log(0.5))

    def test_nonpositive_rate_is_minus_inf(self):
        c = np.zeros((2, 3, 1))
        c[1, 0, 0] = 3.0
        table = synthetic_table(c, bandwidth=1.0)
        y = np.zeros((2, 3, 1))
        y[1, 0, 0] = 1.0  # user 0 gets nothing
        assert directional_objective(table, y) == float("-inf")


def bisection_line_search(r_base, d_r, gamma_max, eps):
    """Reference step rule: 80 bisection steps on the sign of the
    surrogate's derivative along r_base + gamma * d_r."""

    def deriv(g):
        return float(np.dot(d_r, _phi_prime(r_base + g * d_r, eps)))

    if deriv(gamma_max) >= 0.0:
        return gamma_max
    lo, hi = 0.0, gamma_max
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if deriv(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestLineSearch:
    VALUE_RTOL = 1e-13  # surrogate value at the two steps, relative
    GAMMA_RTOL = 1e-9  # step difference, relative to gamma_max

    @staticmethod
    def draws(count=600):
        """Frank-Wolfe and away steps toward random vertices, plus steps
        along which every rate grows; the rate floor ranges from the
        solver's scale to above the smallest starting rate."""
        rng = np.random.default_rng(41)
        for k in range(count):
            num_users = int(rng.integers(2, 13))
            r_base = np.exp(rng.uniform(np.log(1e5), np.log(1e8), num_users))
            vertex = np.where(rng.random(num_users) < 0.5, rng.uniform(0.0, 2e8, num_users), 0.0)
            vertex -= np.where(rng.random(num_users) < 0.2, rng.uniform(0.0, 5e7, num_users), 0.0)
            if k % 3 == 0:
                d_r, gamma_max = vertex - r_base, 1.0
            elif k % 3 == 1:
                w = rng.uniform(0.01, 0.95)
                d_r, gamma_max = r_base - vertex, w / (1.0 - w)
            else:
                d_r, gamma_max = np.abs(vertex - r_base), 1.0
            eps = (2.0, 0.5 * r_base.min(), 3.0 * r_base.min())[int(rng.integers(3))]
            yield r_base, d_r, gamma_max, eps

    def test_matches_bisection_reference(self):
        kinds = {"interior": 0, "gamma_max": 0, "crosses_floor": 0}
        for r_base, d_r, gamma_max, eps in self.draws():
            got = _line_search(r_base, d_r, gamma_max, eps)
            ref = bisection_line_search(r_base, d_r, gamma_max, eps)
            assert 0.0 <= got <= gamma_max
            assert abs(got - ref) <= self.GAMMA_RTOL * gamma_max, (got, ref, gamma_max)
            f_got = float(_phi(r_base + got * d_r, eps).sum())
            f_ref = float(_phi(r_base + ref * d_r, eps).sum())
            assert abs(f_got - f_ref) <= self.VALUE_RTOL * max(abs(f_ref), 1.0), (f_got, f_ref)
            if ref == gamma_max:
                kinds["gamma_max"] += 1
            elif ref > 1e-9 * gamma_max:
                kinds["interior"] += 1
            if np.any((r_base >= eps) != (r_base + gamma_max * d_r >= eps)):
                kinds["crosses_floor"] += 1
        assert min(kinds.values()) >= 100, kinds

    def test_endpoints(self):
        r_base = np.array([1.0, 2.0])
        assert _line_search(r_base, np.array([1.0, 1.0]), 0.7, 1e-3) == 0.7
        assert _line_search(r_base, np.array([-1.0, -1.0]), 0.7, 1e-3) == 0.0


def vertex_rates_loop(wc, num_bs, i, assign):
    """Reference: effective-rate vector of one vertex, server by server."""
    phi = np.zeros(wc.shape[0])
    for n, u in enumerate(assign):
        if u < 0:
            continue
        phi[u] += wc[u, n, i]
        if n >= num_bs:
            phi[n - num_bs] -= wc[u, n, i]
    return phi


class TestVertexRates:
    def test_matches_loop_reference(self):
        rng = np.random.default_rng(17)
        for num_bs in (1, 2):
            wc = rng.uniform(0.0, 1e8, size=(5, num_bs + 5, 9))
            patterns = rng.integers(0, 9, size=12)
            assign = rng.integers(-1, 5, size=(num_bs + 5, 12))
            phi = _vertex_rates(wc, num_bs, patterns, assign)
            for k in range(12):
                ref = vertex_rates_loop(wc, num_bs, patterns[k], assign[:, k])
                # same terms summed in another order: a few ulps of the largest term
                assert np.abs(phi[k] - ref).max() <= 8 * np.finfo(float).eps * 1e8 * assign.shape[0]


class TestSparseStart:
    def test_keeps_u_plus_one_vertices_ties_to_lower_index(self):
        c = np.zeros((2, 3, 6))
        c[0, 0, :] = 2.0
        c[1, 0, :] = 1.0
        c[1, 2, :] = 3.0
        wc = 2e7 * c
        patterns, assign, weights = _sparse_start(wc, 1, None, 1e-8 * wc.max())
        assert patterns.tolist() == [0, 1, 2]
        assert assign.tolist() == [[0, 0, 0], [0, 0, 0], [1, 1, 1]]
        assert weights == pytest.approx([1 / 3] * 3)

    def test_pattern_order_does_not_change_the_optimum(self):
        tol = SolverOptions().tolerance
        rng = np.random.default_rng(6)
        for seed in (5, 8, 13):
            sc = gen_scenario(6, seed=seed, walls_random=4)
            gains = build_gains(sc)
            pats = all_patterns(sc.num_servers).members
            perm = rng.permutation(len(pats))
            a1 = solve_allocation(build_rate_table(sc, gains, pats))
            a2 = solve_allocation(build_rate_table(sc, gains, [pats[k] for k in perm]))
            assert a1.converged and a2.converged
            assert abs(a1.objective - a2.objective) <= tol * max(abs(a1.objective), 1.0)
            check_certificate(a1)
            check_certificate(a2)


class TestSolveAllocation:
    def test_single_user_single_pattern(self):
        c = np.zeros((1, 2, 1))
        c[0, 0, 0] = 2.0
        alloc = solve_allocation(synthetic_table(c))
        assert alloc.converged
        assert alloc.x[0] == pytest.approx(1.0)
        assert alloc.rates.r_eff[0] == pytest.approx(40e6)
        assert alloc.objective == pytest.approx(np.log(40e6))
        check_certificate(alloc)

    def test_two_users_share_one_server_equally(self):
        # PF split on a single server is 1/2 each regardless of efficiency
        for c2 in (2.0, 4.0):
            c = np.zeros((2, 3, 1))
            c[0, 0, 0] = 2.0
            c[1, 0, 0] = c2
            alloc = solve_allocation(synthetic_table(c))
            assert alloc.y[0, 0, 0] == pytest.approx(0.5, abs=1e-7)
            assert alloc.y[1, 0, 0] == pytest.approx(0.5, abs=1e-7)
            assert alloc.rates.r_eff[1] == pytest.approx(0.5 * c2 * 2e7, rel=1e-6)

    def test_two_disjoint_patterns_split_time_equally(self):
        c = np.zeros((2, 3, 2))
        c[0, 0, 0] = 4.0  # pattern 0: BS serves user 0
        c[1, 0, 1] = 2.0  # pattern 1: BS serves user 1
        alloc = solve_allocation(synthetic_table(c))
        assert alloc.x == pytest.approx([0.5, 0.5], abs=1e-7)
        assert alloc.rates.r_eff == pytest.approx([40e6, 20e6], rel=1e-6)
        check_certificate(alloc)

    def test_relay_chain_closed_form(self):
        # pattern 0: BS -> user 1 at 4 b/s/Hz; pattern 1: user 1's server
        # forwards to user 0 at 2 b/s/Hz.  Maximizing
        # ln(2 x1) + ln(4 (1 - x1) - 2 x1) gives x1 = 1/3.
        c = np.zeros((2, 3, 2))
        c[1, 0, 0] = 4.0
        c[0, 2, 1] = 2.0
        alloc = solve_allocation(synthetic_table(c))
        assert alloc.x == pytest.approx([2.0 / 3.0, 1.0 / 3.0], abs=1e-6)
        assert alloc.rates.r_eff[0] == pytest.approx(2e7 * 2.0 / 3.0, rel=1e-6)
        assert alloc.rates.r_eff[1] == pytest.approx(4e7, rel=1e-6)
        assert alloc.objective == pytest.approx(np.log(2e7 * 2 / 3) + np.log(4e7), abs=1e-7)
        check_certificate(alloc)

    def test_infeasible_user_without_links(self):
        c = np.zeros((2, 3, 1))
        c[0, 0, 0] = 2.0  # user 1 has no positive-efficiency entry anywhere
        with pytest.raises(InfeasibleError):
            solve_allocation(synthetic_table(c))

    def test_iteration_budget_reported(self):
        c = np.zeros((2, 3, 2))
        c[1, 0, 0] = 4.0
        c[0, 2, 1] = 2.0
        alloc = solve_allocation(synthetic_table(c), SolverOptions(max_iters=1))
        assert not alloc.converged
        assert alloc.iterations == 1

    def test_real_scenario_certificate(self):
        sc = gen_scenario(3, seed=7)
        gains = build_gains(sc)
        table = build_rate_table(sc, gains, all_patterns(sc.num_servers).members)
        alloc = solve_allocation(table)
        assert alloc.converged
        check_certificate(alloc)

    def test_deterministic(self):
        sc = gen_scenario(4, seed=11)
        gains = build_gains(sc)
        table = build_rate_table(sc, gains, all_patterns(sc.num_servers).members)
        a1 = solve_allocation(table)
        a2 = solve_allocation(table)
        assert np.array_equal(a1.x, a2.x)
        assert np.array_equal(a1.y, a2.y)
        assert a1.objective == a2.objective

    def test_pattern_permutation_invariant_objective(self):
        sc = gen_scenario(3, seed=5)
        gains = build_gains(sc)
        pats = all_patterns(sc.num_servers).members
        t1 = build_rate_table(sc, gains, pats)
        t2 = build_rate_table(sc, gains, pats[::-1])
        a1 = solve_allocation(t1)
        a2 = solve_allocation(t2)
        assert a1.objective == pytest.approx(a2.objective, abs=1e-7)

    def test_vertices_rebuild_x_and_stay_out_of_to_dict(self):
        sc = gen_scenario(4, seed=11)
        table = build_rate_table(sc, build_gains(sc), all_patterns(sc.num_servers).members)
        alloc = solve_allocation(table)
        x = np.zeros_like(alloc.x)
        for (i, assign), w in alloc.vertices:
            assert len(assign) == sc.num_servers
            x[i] += w
        assert np.array_equal(x, alloc.x)
        assert "vertices" not in alloc.to_dict(table)

    def test_to_dict_round_trips_nonzeros(self):
        c = np.zeros((1, 2, 1))
        c[0, 0, 0] = 2.0
        table = synthetic_table(c)
        alloc = solve_allocation(table)
        d = alloc.to_dict(table)
        assert d["patterns"] == ["10"]
        assert d["rates_mbps"] == pytest.approx([40.0])
        y2 = np.zeros_like(alloc.y)
        for u, n, i, v in d["y_nonzero"]:
            y2[u, n, i] = v
        assert np.allclose(y2, alloc.y)


class TestSolveFixedAssociation:
    def test_matches_relaxed_when_rounding_is_exact(self):
        c = np.zeros((2, 3, 2))
        c[0, 0, 0] = 4.0
        c[1, 0, 1] = 2.0
        table = synthetic_table(c)
        z = np.zeros_like(c, dtype=int)
        z[:, 0, :] = 1  # everyone on the BS in both patterns
        fixed = solve_fixed_association(table, z)
        relaxed = solve_allocation(table)
        assert fixed.objective == pytest.approx(relaxed.objective, abs=1e-7)
        check_certificate(fixed, equality=False)

    def test_idle_server_allowed(self):
        # both users associated to the BS; the relay server stays idle
        c = np.zeros((2, 3, 1))
        c[0, 0, 0] = 2.0
        c[1, 0, 0] = 2.0
        c[0, 2, 0] = 5.0  # attractive relay link that z forbids
        table = synthetic_table(c)
        z = np.zeros_like(c, dtype=int)
        z[:, 0, :] = 1
        fixed = solve_fixed_association(table, z)
        assert np.all(fixed.y[:, 2, :] == 0)
        assert fixed.rates.r_eff == pytest.approx([20e6, 20e6], rel=1e-6)
        check_certificate(fixed, equality=False)

    def test_infeasible_when_forced_onto_dead_link(self):
        c = np.zeros((2, 3, 1))
        c[0, 0, 0] = 2.0
        c[1, 0, 0] = 2.0
        table = synthetic_table(c)
        z = np.zeros_like(c, dtype=int)
        z[0, 0, 0] = 1
        z[1, 1, 0] = 1  # user 1 forced onto a zero-efficiency server
        with pytest.raises(InfeasibleError):
            solve_fixed_association(table, z)

    def test_z_validation(self):
        c = np.zeros((1, 2, 1))
        c[0, 0, 0] = 2.0
        table = synthetic_table(c)
        with pytest.raises(ValueError):
            solve_fixed_association(table, np.zeros((1, 2, 1), dtype=int))
        with pytest.raises(ValueError):
            solve_fixed_association(table, np.ones((1, 2, 1), dtype=int))
        with pytest.raises(ValueError):
            solve_fixed_association(table, np.zeros((2, 2, 1), dtype=int))

    def test_warm_start_matches_cold_start(self):
        tol = SolverOptions().tolerance
        for seed in (3, 4, 9):
            sc = gen_scenario(5, seed=seed, walls_random=4)
            table = build_rate_table(sc, build_gains(sc), all_patterns(sc.num_servers).members)
            relaxed = solve_allocation(table)
            z = round_association(relaxed, table)
            cold = solve_fixed_association(table, z)
            warm = solve_fixed_association(table, z, start=relaxed)
            assert warm.converged
            assert abs(warm.objective - cold.objective) <= tol * max(abs(cold.objective), 1.0)
            assert np.all(warm.y[~z.astype(bool)] == 0)
            check_certificate(warm, equality=False)

    def test_start_must_come_from_the_same_table(self):
        c = np.zeros((1, 2, 2))
        c[0, 0, :] = 2.0
        small = solve_allocation(synthetic_table(c[:, :, :1]))
        z = np.zeros_like(c, dtype=int)
        z[0, 0, :] = 1
        with pytest.raises(ValueError):
            solve_fixed_association(synthetic_table(c), z, start=small)

    def test_never_beats_relaxed_on_real_scenario(self):
        sc = gen_scenario(4, seed=3)
        gains = build_gains(sc)
        table = build_rate_table(sc, gains, all_patterns(sc.num_servers).members)
        relaxed = solve_allocation(table)
        z = round_association(relaxed, table)
        fixed = solve_fixed_association(table, z)
        assert fixed.objective <= relaxed.objective + 1e-6 * abs(relaxed.objective)
        check_certificate(fixed, equality=False)
