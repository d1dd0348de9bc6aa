import numpy as np
import pytest

from d2dreuse import (
    Pattern,
    PatternSet,
    SelectionOptions,
    SolverOptions,
    build_gains,
    build_rate_table,
    gradient,
    propose_candidates,
    round_association,
    run,
    score_pattern,
    solve_allocation,
)
from d2dreuse.cli import brute_report, gen_scenario
from d2dreuse.model import rates_from_allocation
from d2dreuse.oracle import all_patterns, bs_only_baseline, orthogonal_baseline
from d2dreuse.patterns import initial_set
from d2dreuse.selection import finalize_on_set

from conftest import blocked_scenario, pf_objective_delta
from test_model import synthetic_table


def random_interior_point(rng, num_users, num_patterns):
    """Synthetic table and y with comfortably positive effective rates."""
    n = 1 + num_users
    c = rng.uniform(0.5, 4.0, size=(num_users, n, num_patterns))
    c[:, 1:, :] *= 0.05  # keep relay forwarding small against BS service
    table = synthetic_table(c)
    y = rng.uniform(0.01, 0.2, size=(num_users, n, num_patterns))
    rates = rates_from_allocation(table, None, y)
    assert np.all(rates.r_eff > 0)
    return table, y, rates


class TestGradient:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(12)
        table, y, rates = random_interior_point(rng, 3, 2)
        g = gradient(table, rates)
        h = 1e-6
        for _ in range(25):
            u, n, i = (int(rng.integers(s)) for s in y.shape)
            yp, ym = y.copy(), y.copy()
            yp[u, n, i] += h
            ym[u, n, i] -= h
            fd = pf_objective_delta(table, yp, ym) / (2 * h)
            assert g[u, n, i] == pytest.approx(fd, rel=1e-5, abs=1e-12)

    def test_own_relay_entry_is_zero(self):
        # serving user u from its own relay both adds and removes the rate
        rng = np.random.default_rng(13)
        table, y, rates = random_interior_point(rng, 2, 1)
        g = gradient(table, rates)
        assert g[0, 1, 0] == 0.0
        assert g[1, 2, 0] == 0.0

    def test_rejects_nonpositive_rates(self):
        c = np.zeros((1, 2, 1))
        c[0, 0, 0] = 2.0
        table = synthetic_table(c)
        rates = rates_from_allocation(table, None, np.zeros((1, 2, 1)))
        with pytest.raises(ValueError):
            gradient(table, rates)


class TestScorePattern:
    def setup_method(self):
        self.sc = gen_scenario(3, seed=21)
        self.gains = build_gains(self.sc)
        table = build_rate_table(self.sc, self.gains, all_patterns(self.sc.num_servers).members)
        self.alloc = solve_allocation(table)

    def test_matches_gradient_of_singleton_table(self):
        for mask in (1, 3, 9, 13):
            cand = Pattern(mask, self.sc.num_servers)
            table = build_rate_table(self.sc, self.gains, (cand,))
            g = gradient(table, self.alloc.rates)[:, :, 0]
            expected = float(g.max(axis=0).sum())
            score, best_users = score_pattern(cand, self.sc, self.gains, self.alloc.rates)
            assert score == pytest.approx(expected, rel=1e-12)
            assert np.array_equal(best_users, g.argmax(axis=0))

    def test_score_is_gradient_value_of_full_time_vertex(self):
        cand = Pattern(5, self.sc.num_servers)
        score, best_users = score_pattern(cand, self.sc, self.gains, self.alloc.rates)
        table = build_rate_table(self.sc, self.gains, (cand,))
        y = np.zeros_like(table.c)
        for n, u in enumerate(best_users):
            y[u, n, 0] = 1.0
        g = gradient(table, self.alloc.rates)
        assert score == pytest.approx(float((g * y).sum()), rel=1e-12)


class TestProposeCandidates:
    def setup_method(self):
        self.sc = gen_scenario(3, seed=8)
        self.gains = build_gains(self.sc)
        from d2dreuse.patterns import initial_set

        self.current = initial_set(1, 3)
        table = build_rate_table(self.sc, self.gains, self.current.members)
        self.alloc = solve_allocation(table)

    def test_winners_are_new_distance_one_patterns(self):
        from d2dreuse.patterns import hamming

        winners, best = propose_candidates(self.current, self.sc, self.gains, self.alloc.rates)
        assert winners
        assert len(winners) <= self.sc.num_servers
        masks = {p.mask for p in self.current}
        for w in winners:
            assert w.mask not in masks
            assert min(hamming(w, m) for m in self.current) == 1
        assert best == pytest.approx(
            max(score_pattern(w, self.sc, self.gains, self.alloc.rates)[0] for w in winners)
        )

    def test_empty_when_set_is_complete(self):
        full = all_patterns(self.sc.num_servers)
        table = build_rate_table(self.sc, self.gains, full.members)
        alloc = solve_allocation(table)
        winners, best = propose_candidates(full, self.sc, self.gains, alloc.rates)
        assert winners == []
        assert best == float("-inf")

    def test_cache_is_filled_and_reused(self):
        cache = {}
        propose_candidates(self.current, self.sc, self.gains, self.alloc.rates, cache)
        assert cache
        frozen = dict(cache)
        propose_candidates(self.current, self.sc, self.gains, self.alloc.rates, cache)
        assert cache == frozen


class TestRoundAssociation:
    def test_picks_highest_rate_server(self):
        c = np.zeros((1, 3, 1))
        c[0, 0, 0] = 1.0
        c[0, 2, 0] = 5.0
        table = synthetic_table(c)
        y = np.zeros_like(c)
        y[0, 0, 0] = 0.6
        y[0, 2, 0] = 0.4  # 0.4 * 5 > 0.6 * 1
        z = round_association_from(table, y)
        assert z[0, 2, 0] == 1 and z.sum() == 1

    def test_all_zero_row_falls_back_to_server_zero(self):
        c = np.zeros((2, 3, 1))
        c[0, 0, 0] = 2.0
        table = synthetic_table(c)
        y = np.zeros_like(c)
        y[0, 0, 0] = 1.0
        z = round_association_from(table, y)
        assert z[1, 0, 0] == 1

    def test_one_hot_per_user_and_pattern(self):
        sc = gen_scenario(4, seed=2)
        gains = build_gains(sc)
        table = build_rate_table(sc, gains, all_patterns(sc.num_servers).members)
        alloc = solve_allocation(table)
        z = round_association(alloc, table)
        assert np.all(z.sum(axis=1) == 1)


class TestFinalizeOnSet:
    def test_reused_relaxed_solve_equals_a_fresh_one(self):
        sc = blocked_scenario(6, seed=3)
        gains = build_gains(sc)
        pattern_set = initial_set(sc.num_bs, sc.num_due)
        table = build_rate_table(sc, gains, pattern_set.members)
        solved = (table, solve_allocation(table))
        _, relaxed, z, final = finalize_on_set(sc, gains, pattern_set, SolverOptions(), solved)
        _, fresh, z_fresh, final_fresh = finalize_on_set(sc, gains, pattern_set, SolverOptions())
        assert relaxed is solved[1]
        for a, b in ((relaxed, fresh), (final, final_fresh)):
            assert np.array_equal(a.x, b.x)
            assert np.array_equal(a.y, b.y)
            assert np.array_equal(a.rates.r_eff, b.rates.r_eff)
            assert a.objective == b.objective and a.fw_gap == b.fw_gap
        assert np.array_equal(z, z_fresh)

    def test_rejects_a_solve_on_another_set(self):
        sc = gen_scenario(3, seed=1)
        gains = build_gains(sc)
        pattern_set = initial_set(sc.num_bs, sc.num_due)
        other = build_rate_table(sc, gains, pattern_set.members[::-1])
        with pytest.raises(ValueError):
            finalize_on_set(sc, gains, pattern_set, SolverOptions(), (other, solve_allocation(other)))


def round_association_from(table, y):
    from d2dreuse.solver import Allocation
    from d2dreuse.model import rates_from_allocation

    x = y.sum(axis=(0, 1))
    alloc = Allocation(
        x=x, y=y, rates=rates_from_allocation(table, x, y),
        objective=0.0, fw_gap=0.0, iterations=0, converged=True,
    )
    return round_association(alloc, table)


class TestRun:
    def test_blocked_scenario_report(self):
        sc = blocked_scenario(4, seed=31)
        rep = run(sc)
        assert rep.method == "algo"
        assert len(rep.objective_trace) >= 1
        tol = 2 * SelectionOptions().solver.tolerance
        for a, b in zip(rep.objective_trace, rep.objective_trace[1:]):
            assert b >= a - tol * max(abs(a), 1.0)
        assert np.all(rep.associations.sum(axis=1) == 1)
        assert rep.final_allocation.x.sum() == pytest.approx(1.0, abs=1e-8)
        assert rep.wall_time_s > 0
        assert len(rep.pattern_set_sizes) == len(rep.objective_trace)
        shares = [row["share"] for row in rep.schedule_table()]
        assert sum(shares) == pytest.approx(1.0, abs=1e-8)
        expected_gm = float(np.exp(np.log(rep.final_allocation.rates.r_eff).mean()) / 1e6)
        assert rep.gm_throughput_mbps == pytest.approx(expected_gm)
        assert rep.flags["rounding_loss"] >= -1e-6 * abs(rep.relaxed_allocation.objective)

    def test_single_user(self):
        sc = gen_scenario(1, seed=0)
        rep = run(sc)
        assert rep.final_allocation.rates.r_eff[0] > 0
        assert len(rep.final_patterns) >= 1

    def test_matches_brute_force_on_small_drop(self):
        sc = blocked_scenario(4, seed=17)
        rep = run(sc)
        brute = brute_report(sc, SelectionOptions().solver)
        gap = (brute.gm_throughput_mbps - rep.gm_throughput_mbps) / brute.gm_throughput_mbps
        assert gap <= 0.05

    def test_never_below_fixed_baselines(self):
        sc = blocked_scenario(5, seed=9)
        rep = run(sc)
        assert rep.pf_objective >= orthogonal_baseline(sc).pf_objective - 1e-6
        assert rep.pf_objective >= bs_only_baseline(sc).pf_objective - 1e-6

    def test_trim_keeps_set_within_user_budget(self):
        for seed in (1, 2, 3):
            sc = gen_scenario(5, seed=seed)
            rep = run(sc)
            if not rep.flags["pattern_cap_hit"]:
                assert len(rep.final_patterns) <= sc.num_due + 1

    def test_to_dict_serializes(self):
        import json

        sc = blocked_scenario(3, seed=4)
        doc = run(sc).to_dict()
        text = json.dumps(doc)
        assert "pf_objective" in doc and "schedule" in doc
        assert json.loads(text)["patterns"] == doc["patterns"]
