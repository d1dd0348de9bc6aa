import dataclasses

import numpy as np
import pytest

from d2dreuse import (
    InfeasibleError,
    RateTable,
    SolverOptions,
    SolveStats,
    build_gains,
    build_rate_table,
    directional_objective,
    solve_allocation,
    solve_fixed_association,
    solver,
)
from d2dreuse.cli import gen_scenario
from d2dreuse.oracle import all_patterns, brute_force
from d2dreuse.patterns import Pattern, initial_set
from d2dreuse.selection import round_association, run, score_pattern
from d2dreuse.solver import (
    _ActiveSet,
    _active_set,
    _corrective_newton,
    _phi,
    _phi_derivs,
    _sparse_start,
    _vertex_rates,
    _warm_start,
)

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


def phi_reference(r, eps):
    """The surrogate log and its derivatives by the general formulas."""
    inv = np.where(r >= eps, 1.0 / np.maximum(r, eps), 1.0 / eps)
    return (
        np.where(r >= eps, np.log(np.maximum(r, eps)), np.log(eps) - 1.0 + r / eps),
        inv,
        np.where(r >= eps, inv * inv, 0.0),
    )


class TestPhi:
    def test_above_the_floor_bit_identical_to_the_general_formula(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            eps = 10.0 ** rng.uniform(-2, 4)
            r = eps * np.exp(rng.uniform(0.0, 20.0, int(rng.integers(1, 40))))
            r[0] = eps  # on the floor counts as above it
            value, slope, curv = phi_reference(r, eps)
            assert np.array_equal(_phi(r, eps), value)
            assert np.array_equal(_phi_derivs(r, eps)[0], slope)
            assert np.array_equal(_phi_derivs(r, eps)[1], curv)

    def test_below_the_floor_takes_the_tangent_branch(self):
        eps = 2.0
        r = np.array([-3.0, 0.0, 1.0, 2.0, 8.0])
        value, slope, curv = phi_reference(r, eps)
        assert np.array_equal(_phi(r, eps), value)
        assert np.array_equal(_phi_derivs(r, eps)[0], slope)
        assert np.array_equal(_phi_derivs(r, eps)[1], curv)
        assert _phi(r, eps)[:3] == pytest.approx(np.log(eps) - 1.0 + r[:3] / eps, rel=1e-15)
        assert _phi_derivs(r, eps)[0].tolist() == [0.5, 0.5, 0.5, 0.5, 0.125]
        assert _phi_derivs(r, eps)[1].tolist() == [0.0, 0.0, 0.0, 0.25, 1.0 / 64.0]


def vertex_rates_loop(wc, i, assign):
    """Reference: effective-rate vector of one vertex, server by server;
    relay server n belongs to user n - 1."""
    phi = np.zeros(wc.shape[0])
    for n, u in enumerate(assign):
        phi[u] += wc[u, n, i]
        if n >= 1:
            phi[n - 1] -= wc[u, n, i]
    return phi


class TestVertexRates:
    def test_matches_loop_reference(self):
        rng = np.random.default_rng(17)
        wc = rng.uniform(0.0, 1e8, size=(5, 6, 9))
        patterns = rng.integers(0, 9, size=12)
        assign = rng.integers(0, 5, size=(6, 12))
        phi = _vertex_rates(wc, patterns, assign)
        for k in range(12):
            ref = vertex_rates_loop(wc, patterns[k], assign[:, k])
            # same terms summed in another order: a few ulps of the largest term
            assert np.abs(phi[k] - ref).max() <= 8 * np.finfo(float).eps * 1e8 * assign.shape[0]


class TestActiveSet:
    def test_prune_keeps_order_of_the_survivors(self):
        active = _ActiveSet(2)
        keys = [(i, (i % 2,)) for i in range(5)]
        for k, key in enumerate(keys):
            active.w[active.add(key, np.array([k, -k]))] = (0.4, 0.0, 0.3, 1e-17, 0.3)[k]
        active.prune()
        assert active.keys == [keys[0], keys[2], keys[4]]
        assert active.index == {keys[0]: 0, keys[2]: 1, keys[4]: 2}
        assert active.phi[:3].tolist() == [[0, 0], [2, -2], [4, -4]]
        assert active.w[:3].tolist() == [0.4, 0.3, 0.3]
        assert active.add(keys[1], np.array([9.0, 9.0])) == 3 and active.w[3] == 0.0
        assert active.add(keys[2], np.array([9.0, 9.0])) == 1


class TestCorrectiveNewton:
    def test_optimal_weights_take_one_kkt_solve_and_no_armijo_step(self, monkeypatch):
        sc = gen_scenario(6, seed=4, walls_random=4)
        alloc, table = brute_force(sc)
        wc = table.bandwidth_hz * table.c
        eps = 1e-8 * float(wc.max())
        active = _active_set(wc, *_warm_start(alloc.vertices, wc))
        active.normalize()
        _corrective_newton(active, eps)  # polish the weights to the optimum
        w = active.w[: len(active)].copy()
        phi_calls = []
        real_phi = solver._phi
        monkeypatch.setattr(solver, "_phi", lambda r, e: phi_calls.append(1) or real_phi(r, e))
        assert _corrective_newton(active, eps) == (1, False)
        assert len(phi_calls) == 1  # the value at the start; no Armijo trial point
        assert np.array_equal(active.w[: len(active)], w)


class TestTerminationRules:
    @staticmethod
    def active_set(rows):
        active = _ActiveSet(2)
        for k, (phi, w) in enumerate(rows):
            active.w[active.add((k, (0,)), np.array(phi))] = w
        return active

    def test_a_zero_weight_vertex_pushed_below_zero_is_dropped_outside_the_step_budget(self):
        # two vertices far from their optimal weights (1/2 each), so both
        # Newton steps are used; the third vertex, at weight 0, is dominated
        # by their even mix and gets a negative Newton component
        rows = [([1.0, 0.0], 0.9), ([0.0, 1.0], 0.1)]
        ref = self.active_set(rows)
        assert _corrective_newton(ref, 1e-8) == (solver._MAX_NEWTON_ROUNDS, True)
        active = self.active_set(rows + [([0.1, 0.1], 0.0)])
        assert _corrective_newton(active, 1e-8) == (solver._MAX_NEWTON_ROUNDS + 1, True)
        assert active.keys == ref.keys and active.dropped == 1
        assert np.array_equal(active.w[:2], ref.w[:2])

    def test_a_held_vertex_with_no_weight_moved_ends_the_solve_unconverged(self, monkeypatch):
        _, table = brute_force(gen_scenario(5, seed=1, walls_random=4))
        monkeypatch.setattr(solver, "_corrective_newton", lambda active, eps: (0, False))
        alloc = solve_allocation(table)
        # iteration 1 adds the oracle vertex, iteration 2 finds it held
        assert not alloc.converged and alloc.iterations == 2
        assert alloc.stats == SolveStats(fw_steps=1, polish_only=1, peak_active=6)
        st = alloc.stats
        assert st.fw_steps + st.polish_only + st.shrinks == alloc.iterations

    def test_drops_that_cycled_without_the_rules_converge(self):
        # without the drop rule, the fixed-association solve of this run took
        # all 200,000 iterations; with a one-step budget that also counted
        # the re-solve after a drop, this exhaustive solve added and dropped
        # one vertex 1,994 times in 2,000 iterations
        report = run(gen_scenario(6, 52000007, walls_random=4))
        assert report.relaxed_allocation.converged and report.final_allocation.converged
        alloc, _ = brute_force(gen_scenario(8, 7000010, walls_random=4))
        assert alloc.converged and alloc.iterations < 100
        print(f"PASS run converged in {report.final_allocation.iterations} final iterations;"
              f" brute force in {alloc.iterations} iterations (bound 100)")


class TestSolveStats:
    def test_exact_counts_on_a_fixed_drop(self):
        alloc, table = brute_force(gen_scenario(5, seed=1, walls_random=4))
        assert alloc.iterations == 7
        assert alloc.stats == SolveStats(
            fw_steps=4, polish_only=2, newton_rounds=12, dropped=4, shrinks=0, peak_active=6,
        )
        assert alloc.to_dict(table)["stats"] == dataclasses.asdict(alloc.stats)

    @pytest.mark.parametrize("num_dues, seed", [(4, 2), (6, 8), (8, 5)])
    def test_every_iteration_is_counted_once(self, num_dues, seed):
        alloc, table = brute_force(gen_scenario(num_dues, seed=seed, walls_random=4))
        z = round_association(alloc, table)
        final = solve_fixed_association(table, z, start=alloc)
        for a in (alloc, final):
            st = a.stats
            assert a.converged
            assert st.fw_steps + st.polish_only + st.shrinks + 1 == a.iterations
            assert st.newton_rounds >= st.fw_steps + st.polish_only
            assert 1 <= len(a.vertices) <= st.peak_active


class TestSparseStart:
    @staticmethod
    def drained_table():
        """Pattern 0 has the BS alone on; in patterns 1-5 user 1's relay
        (server 2) also forwards to user 0.  User 1's only link is the BS's,
        so a vertex in which server 2 serves user 0 drains user 1."""
        c = np.zeros((2, 3, 6))
        c[0, 0, :] = 2.0
        c[1, 0, :] = 1.0
        c[0, 2, 1:] = 3.0
        return 2e7 * c

    @staticmethod
    def start(wc):
        return _sparse_start(wc, wc.max(axis=2))

    def test_one_vertex_per_user_served_by_the_bs_on_its_best_bs_pattern(self):
        wc = self.drained_table()
        wc[1, 0, 3] *= 2.0  # user 1's best BS pattern is now 3; user 0's tie goes to pattern 0
        patterns, assign, weights = self.start(wc)
        assert patterns.tolist() == [0, 3]
        # the BS serves the vertex's user; every other server serves the
        # first user it has zero efficiency to, so user 1's relay (server 2)
        # serves user 1 and not user 0 on pattern 3
        assert assign.tolist() == [[0, 1], [0, 0], [0, 1]]
        assert weights == pytest.approx([1 / 2] * 2)
        phi = _vertex_rates(wc, patterns, assign)
        assert phi.tolist() == [[4e7, 0.0], [0.0, 4e7]]

    def test_a_user_the_bs_never_reaches_is_served_by_its_best_link(self):
        # user 1's only links are from user 0's relay (server 1), best on pattern 2
        c = np.zeros((2, 3, 4))
        c[0, 0, :] = 2.0
        c[0, 1, :] = 3.0
        c[1, 1, :] = 1.0
        c[1, 1, 2] = 1.5
        wc = 2e7 * c
        patterns, assign, weights = self.start(wc)
        assert patterns.tolist() == [0, 2]
        assert assign[1, 1] == 1
        phi = _vertex_rates(wc, patterns, assign)
        assert phi[1].tolist() == [-3e7, 3e7]  # what the relay forwards comes out of user 0's rate
        assert weights == pytest.approx([1 / 2] * 2)
        assert np.all(phi.mean(axis=0) > 0)

    def test_the_uniform_mix_serves_everyone_and_drains_no_one(self):
        for seed in range(10):
            _, table = brute_force(gen_scenario(8, seed=seed, walls_random=4))
            wc = table.bandwidth_hz * table.c
            patterns, assign, weights = self.start(wc)
            assert np.all(wc[:, 0, :].max(axis=1) > 0)  # the BS reaches every user of these drops
            assert len(patterns) == 8 and np.all(weights == 1 / 8)
            assert assign[0].tolist() == list(range(8))
            assert np.all(wc[np.arange(8), 0, patterns] == wc[:, 0, :].max(axis=1))
            phi = _vertex_rates(wc, patterns, assign)
            assert np.all(phi >= 0)
            assert np.all(weights @ phi > 0)

    def test_warm_start_keeps_the_keys_of_a_solution(self):
        # every start vertex is held under the oracle's key, so a solution's
        # vertices come back unchanged
        for seed in range(10):
            alloc, table = brute_force(gen_scenario(8, seed=seed, walls_random=4))
            wc = table.bandwidth_hz * table.c
            patterns, assign, weights = _warm_start(alloc.vertices, wc)
            keys = [(int(i), tuple(a)) for i, a in zip(patterns, assign.T.tolist())]
            assert keys == [key for key, _ in alloc.vertices]
            assert weights.tolist() == [w for _, w in alloc.vertices]

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


class TestStartFromAnotherTable:
    """solve_allocation(table, start=alloc) with alloc solved on another
    table of the same scenario: the start's vertices are carried over by
    pattern mask, and those of patterns the table lacks are dropped."""

    @staticmethod
    def carried_masks(start, table):
        return [(table.patterns[i].mask, assign, w) for (i, assign), w in solver._carry(start, table)]

    def test_a_start_lands_on_its_patterns_whatever_the_column_order(self):
        rng = np.random.default_rng(3)
        for seed in (5, 8, 13):
            sc = gen_scenario(6, seed=seed, walls_random=4)
            alloc, table = brute_force(sc)
            perm = rng.permutation(table.num_patterns)
            shuffled = build_rate_table(sc, build_gains(sc), [table.patterns[k] for k in perm])
            # the same vertices and weights, each under its pattern's new column
            assert self.carried_masks(alloc, shuffled) == [
                (table.patterns[i].mask, assign, w) for (i, assign), w in alloc.vertices]
            warm = solve_allocation(shuffled, start=alloc)
            # the start is optimal on the permuted table too: it certifies at
            # the first iteration, with the time shares permuted
            assert warm.converged and warm.iterations == 1
            np.testing.assert_allclose(warm.x, alloc.x[perm], rtol=0, atol=1e-15)  # renormalized
            assert warm.objective == pytest.approx(alloc.objective, rel=1e-12)

    def test_vertices_of_absent_patterns_are_dropped_and_the_rest_renormalized(self):
        tol = SolverOptions().tolerance
        for seed in (5, 8, 13):
            sc = gen_scenario(6, seed=seed, walls_random=4)
            alloc, table = brute_force(sc)
            support = [table.patterns[i] for i in np.flatnonzero(alloc.x > 0)]
            gone = {support[0].mask}
            sub = build_rate_table(sc, build_gains(sc), [p for p in table.patterns if p.mask not in gone])
            carried = self.carried_masks(alloc, sub)
            kept = [(table.patterns[i].mask, assign, w) for (i, assign), w in alloc.vertices
                    if table.patterns[i].mask not in gone]
            assert carried == kept and 0 < len(carried) < len(alloc.vertices)
            assert sum(w for _, _, w in carried) < 1.0
            warm = solve_allocation(sub, start=alloc)
            cold = solve_allocation(sub)
            assert warm.x.sum() == pytest.approx(1.0, abs=1e-12)
            assert warm.converged and warm.x[[p.mask in gone for p in sub.patterns]].sum() == 0.0
            assert abs(warm.objective - cold.objective) <= tol * max(abs(cold.objective), 1.0)
            check_certificate(warm)

    def test_a_start_that_leaves_a_user_at_zero_rate_still_converges(self):
        tol = SolverOptions().tolerance
        starved = 0
        for seed in range(6):
            sc = gen_scenario(6, seed=seed, walls_random=4)
            alloc, table = brute_force(sc)
            # keep the pattern of the first vertex and every pattern the
            # solution does not use, so one pattern's vertices survive
            first = table.patterns[alloc.vertices[0][0][0]]
            keep = [p for i, p in enumerate(table.patterns) if p is first or alloc.x[i] == 0]
            sub = build_rate_table(sc, build_gains(sc), keep)
            carried = solver._carry(alloc, sub)
            wc = sub.bandwidth_hz * sub.c
            patterns, assign, weights = _warm_start(carried, wc)
            rates = weights @ _vertex_rates(wc, patterns, assign)
            if rates.min() > 0:
                continue
            starved += 1
            warm = solve_allocation(sub, start=alloc)
            cold = solve_allocation(sub)
            assert warm.converged
            assert abs(warm.objective - cold.objective) <= tol * max(abs(cold.objective), 1.0)
            check_certificate(warm)
        assert starved >= 3

    def test_a_start_whose_patterns_are_all_absent_is_a_cold_start(self):
        sc = gen_scenario(5, seed=2, walls_random=4)
        alloc, table = brute_force(sc)
        unused = [p for i, p in enumerate(table.patterns) if alloc.x[i] == 0]
        sub = build_rate_table(sc, build_gains(sc), unused)
        assert solver._carry(alloc, sub) == ()
        warm, cold = solve_allocation(sub, start=alloc), solve_allocation(sub)
        assert np.array_equal(warm.x, cold.x) and warm.objective == cold.objective


class TestStepDesign:
    # Every iteration adds the oracle vertex and re-optimizes all vertex
    # weights with at most two Newton steps, so a solve ends once the
    # oracle has found the optimal vertices.  These drops took 1, 5 and 7
    # iterations.
    ITER_BOUND = 100

    @pytest.mark.parametrize("num_dues", [3, 4, 6])
    def test_small_exhaustive_solves_converge_in_few_iterations(self, num_dues):
        tol = SolverOptions().tolerance
        alloc, _ = brute_force(gen_scenario(num_dues, 5, walls_random=4), SolverOptions(max_iters=self.ITER_BOUND))
        assert alloc.converged
        assert alloc.iterations <= self.ITER_BOUND
        assert alloc.fw_gap <= tol * max(abs(alloc.objective), 1.0)
        print(f"PASS U={num_dues}: {alloc.iterations} iterations (bound {self.ITER_BOUND}),"
              f" relative gap {alloc.fw_gap / max(abs(alloc.objective), 1.0):.2e}")


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

    def test_seventy_dues_converge_with_certificate(self):
        # 71 servers: pattern masks wider than 64 bits
        sc = gen_scenario(70, seed=5)
        members = initial_set(70).union([Pattern.unit(0, 71)]).members
        alloc = solve_allocation(build_rate_table(sc, build_gains(sc), members))
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
        with pytest.raises(ValueError, match="only 0 and 1"):
            solve_fixed_association(table, np.array([2, -1]).reshape(1, 2, 1))  # sums to 1
        # a boolean mask is a valid z, and the same one as its 0/1 form
        mask = np.array([True, False]).reshape(1, 2, 1)
        for start in (None, solve_allocation(table)):
            a = solve_fixed_association(table, mask, start=start)
            b = solve_fixed_association(table, mask.astype(int), start=start)
            assert np.array_equal(a.y, b.y) and a.objective == b.objective

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


class TestFixedAssociationFromACertifiedStart:
    """A start whose rounding loses no rate and that certifies on the masked
    table is returned restricted to z, with no Frank-Wolfe solve."""

    @staticmethod
    def count_solves(monkeypatch):
        calls = []
        real = solver._fw_solve
        monkeypatch.setattr(solver, "_fw_solve", lambda *a, **k: calls.append(1) or real(*a, **k))
        return calls

    @pytest.mark.parametrize("num_dues", [4, 6, 8])
    def test_lossless_rounding_returns_the_start_restricted_to_z(self, num_dues, monkeypatch):
        tol = SolverOptions().tolerance
        start, table = brute_force(gen_scenario(num_dues, seed=1, walls_random=4))
        z = round_association(start, table)
        assert not np.any(start.y * table.c * (1 - z))  # lossless
        calls = self.count_solves(monkeypatch)
        final = solve_fixed_association(table, z, start=start)
        assert calls == []
        assert np.array_equal(final.y, start.y * z) and np.array_equal(final.x, start.x)
        assert np.array_equal(final.rates.r_eff, start.rates.r_eff)
        assert final.objective == start.objective
        masked = RateTable(table.patterns, table.c * z, table.bandwidth_hz)
        inv = 1.0 / final.rates.r_eff
        assert final.fw_gap == float(score_pattern(masked, final.rates).max()) - float(np.dot(inv, final.rates.r_eff))
        assert final.fw_gap <= tol * max(abs(final.objective), 1.0)
        st = final.stats
        assert final.converged and final.iterations == 1
        assert st.fw_steps + st.polish_only + st.shrinks + 1 == final.iterations
        assert st.newton_rounds >= st.fw_steps + st.polish_only
        assert 1 <= len(final.vertices) <= st.peak_active
        cold = solve_fixed_association(table, z)  # the full solve on the masked table
        assert calls == [1] and cold.converged
        assert abs(final.objective - cold.objective) <= tol * max(abs(cold.objective), 1.0)
        check_certificate(final, equality=False)
        # the warm-started solve that the early return stands in for exits at
        # its first iteration with the same point, certificate and counts; y
        # differs only where the efficiency is 0 (which user an idle server
        # is recorded as serving)
        warm = solver._fw_solve(masked, SolverOptions(), start=start.vertices)
        assert warm.iterations == 1 and warm.converged and warm.stats == final.stats
        assert np.array_equal(warm.x, final.x) and np.array_equal(warm.rates.r_eff, final.rates.r_eff)
        assert (warm.objective, warm.fw_gap) == (final.objective, final.fw_gap)
        assert np.array_equal(warm.y * z * table.c, final.y * table.c)

    def test_lossy_rounding_goes_through_the_solve(self, monkeypatch):
        start, table = brute_force(gen_scenario(4, seed=5, walls_random=4))
        z = round_association(start, table)
        assert np.any(start.y * table.c * (1 - z))  # the relaxed solution splits a user's service
        calls = self.count_solves(monkeypatch)
        final = solve_fixed_association(table, z, start=start)
        assert calls == [1]
        check_certificate(final, equality=False)

    def test_a_start_that_fails_the_masked_certificate_goes_through_the_solve(self, monkeypatch):
        tol = SolverOptions().tolerance
        _, table = brute_force(gen_scenario(6, seed=0, walls_random=4))
        start = solve_allocation(table, SolverOptions(max_iters=2))
        z = round_association(start, table)
        assert not np.any(start.y * table.c * (1 - z))
        masked = RateTable(table.patterns, table.c * z, table.bandwidth_hz)
        inv = 1.0 / start.rates.r_eff
        assert score_pattern(masked, start.rates).max() - inv @ start.rates.r_eff > tol * abs(start.objective)
        calls = self.count_solves(monkeypatch)
        final = solve_fixed_association(table, z, start=start)
        assert calls == [1]
        check_certificate(final, equality=False)
