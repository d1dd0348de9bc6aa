import numpy as np
import pytest

from d2dreuse import (
    Pattern,
    SelectionOptions,
    SolverOptions,
    build_gains,
    build_rate_table,
    candidate_table,
    gradient,
    neighborhoods,
    propose_candidates,
    round_association,
    run,
    score_pattern,
    solve_allocation,
    solve_fixed_association,
)
from d2dreuse.cli import brute_report, gen_scenario
from d2dreuse.model import pattern_efficiencies, rates_from_allocation, select_columns
from d2dreuse.oracle import all_patterns, bs_only_baseline, orthogonal_baseline
from d2dreuse.patterns import flip_neighborhood, hamming, initial_set
from d2dreuse.selection import finalize_on_set
from d2dreuse.solver import _lmo

from conftest import blocked_scenario, pf_objective_delta
from test_model import synthetic_table


def random_interior_point(rng, num_users, num_patterns):
    """Synthetic table and y with comfortably positive effective rates."""
    n = 1 + num_users
    c = rng.uniform(0.5, 4.0, size=(num_users, n, num_patterns))
    c[:, 1:, :] *= 0.05  # keep relay forwarding small against BS service
    table = synthetic_table(c)
    y = rng.uniform(0.01, 0.2, size=(num_users, n, num_patterns))
    rates = rates_from_allocation(table, y)
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
        rates = rates_from_allocation(table, np.zeros((1, 2, 1)))
        with pytest.raises(ValueError):
            gradient(table, rates)


def old_best_entries(cand, scenario, gains, rates):
    """Reference: per-server best entries of the per-candidate score that
    the table scoring replaced; the score is their sum."""
    c = pattern_efficiencies(scenario, gains, [cand])[:, :, 0]  # (U, N)
    inv = 1.0 / rates.r_eff
    coef = inv[:, None] - np.concatenate([[0.0], inv])[None, :]
    p = scenario.bandwidth_hz * c * coef
    return p.max(axis=0)


def old_score(cand, scenario, gains, rates):
    return float(old_best_entries(cand, scenario, gains, rates).sum())


def old_propose(current, scenario, gains, rates):
    """Reference: the per-candidate proposal loop (strict > keeps the first
    of equal scores)."""
    scores = {}
    winners = []
    current_masks = {p.mask for p in current}
    seen = set(current_masks)
    best_score = float("-inf")
    for n in range(scenario.num_servers):
        best, best_n = None, float("-inf")
        for cand in flip_neighborhood(current, n):
            if cand.mask in current_masks:
                continue
            if cand.mask not in scores:
                scores[cand.mask] = old_score(cand, scenario, gains, rates)
            if scores[cand.mask] > best_n:
                best_n, best = scores[cand.mask], cand
        if best is not None:
            best_score = max(best_score, best_n)
            if best.mask not in seen:
                winners.append(best)
                seen.add(best.mask)
    return winners, best_score


def propose(current, scenario, gains, rates):
    hoods = neighborhoods(current)
    table = candidate_table(scenario, gains, current, hoods)
    return propose_candidates(hoods, table, score_pattern(table, rates))


def summation_bound(scenario, gains, cand, rates):
    """Round-off allowed between two summation orders of a score: each
    order of N terms is off by at most N ulps of the sum of magnitudes."""
    magnitude = float(np.abs(old_best_entries(cand, scenario, gains, rates)).sum())
    return 2 * scenario.num_servers * np.finfo(float).eps * magnitude


def start_point(scenario):
    """run's first candidate set and the relaxed rates on it."""
    gains = build_gains(scenario)
    current = initial_set(scenario.num_due).union([Pattern.unit(0, scenario.num_servers)])
    alloc = solve_allocation(build_rate_table(scenario, gains, current.members))
    return gains, current, alloc


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
            (score,) = score_pattern(table, self.alloc.rates)
            assert score == pytest.approx(expected, rel=1e-12)

    def test_score_is_gradient_value_of_full_time_vertex(self):
        cand = Pattern(5, self.sc.num_servers)
        table = build_rate_table(self.sc, self.gains, (cand,))
        g = gradient(table, self.alloc.rates)
        y = np.zeros_like(table.c)
        for n, u in enumerate(g[:, :, 0].argmax(axis=0)):
            y[u, n, 0] = 1.0
        (score,) = score_pattern(table, self.alloc.rates)
        assert score == pytest.approx(float((g * y).sum()), rel=1e-12)

    @pytest.mark.parametrize("num_due, seed", [(3, 21), (5, 4), (12, 8)])
    def test_table_scores_match_per_candidate_formula(self, num_due, seed):
        sc = gen_scenario(num_due, seed=seed, walls_random=4)
        gains, current, alloc = start_point(sc)
        rng = np.random.default_rng(seed)
        pool = 2 ** min(sc.num_servers, 16) - 1
        masks = 1 + rng.choice(pool, size=min(pool, 40), replace=False)
        cands = [Pattern(int(m), sc.num_servers) for m in masks]
        table = build_rate_table(sc, gains, cands)
        scores = score_pattern(table, alloc.rates)
        assert scores.shape == (len(cands),)
        for k, cand in enumerate(cands):
            ref = old_score(cand, sc, gains, alloc.rates)
            if sc.num_servers < 8:
                assert scores[k] == ref
            else:
                assert abs(scores[k] - ref) <= summation_bound(sc, gains, cand, alloc.rates)
        # the best table score, less inv . r, is the Frank-Wolfe oracle's gap
        wc = table.bandwidth_hz * table.c
        inv = 1.0 / alloc.rates.r_eff
        i_star, _, lmo_gap = _lmo(wc, inv, alloc.rates.r_eff)
        assert int(np.argmax(scores)) == i_star
        assert scores.max() - float(np.dot(inv, alloc.rates.r_eff)) == lmo_gap

    def test_rejects_nonpositive_rates(self):
        table = build_rate_table(self.sc, self.gains, (Pattern(1, self.sc.num_servers),))
        rates = rates_from_allocation(table, np.zeros_like(table.c))
        with pytest.raises(ValueError):
            score_pattern(table, rates)


class TestProposeCandidates:
    def setup_method(self):
        self.sc = gen_scenario(3, seed=8)
        self.gains = build_gains(self.sc)
        self.current = initial_set(3)
        table = build_rate_table(self.sc, self.gains, self.current.members)
        self.alloc = solve_allocation(table)

    def test_winners_are_new_distance_one_patterns(self):
        winners, best = propose(self.current, self.sc, self.gains, self.alloc.rates)
        assert winners
        assert len(winners) <= self.sc.num_servers
        masks = {p.mask for p in self.current}
        for w in winners:
            assert w.mask not in masks
            assert min(hamming(w, m) for m in self.current) == 1
        table = build_rate_table(self.sc, self.gains, winners)
        assert best == pytest.approx(float(score_pattern(table, self.alloc.rates).max()))

    def test_empty_when_set_is_complete(self):
        full = all_patterns(self.sc.num_servers)
        table = build_rate_table(self.sc, self.gains, full.members)
        alloc = solve_allocation(table)
        winners, best = propose(full, self.sc, self.gains, alloc.rates)
        assert winners == []
        assert best == float("-inf")

    @pytest.mark.parametrize("num_due, seed", [(3, 8), (4, 2), (6, 3), (6, 14), (12, 5), (12, 92)])
    def test_matches_per_candidate_loop(self, num_due, seed):
        sc = blocked_scenario(num_due, seed=seed)
        gains, current, alloc = start_point(sc)
        # the start set, then the larger set after one extension
        for _ in range(2):
            winners, best = propose(current, sc, gains, alloc.rates)
            ref_winners, ref_best = old_propose(current, sc, gains, alloc.rates)
            assert winners == ref_winners
            # the best score is a winner's
            bounds = [summation_bound(sc, gains, w, alloc.rates) for w in ref_winners]
            assert abs(best - ref_best) <= (max(bounds) if sc.num_servers >= 8 else 0.0)
            current = current.union(winners)
            alloc = solve_allocation(build_rate_table(sc, gains, current.members))


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

    def test_matches_loop_reference(self):
        sc = gen_scenario(6, seed=4, walls_random=4)
        gains = build_gains(sc)
        brute = build_rate_table(sc, gains, all_patterns(sc.num_servers).members)
        blocked = blocked_scenario(6, seed=3)
        rep = run(blocked)
        final = build_rate_table(blocked, build_gains(blocked), rep.final_patterns.members)
        assert np.array_equal(round_association(rep.relaxed_allocation, final), rep.associations)
        for table, alloc in ((brute, solve_allocation(brute)), (final, rep.relaxed_allocation)):
            z = round_association(alloc, table)
            assert np.array_equal(z, loop_round_association(alloc, table))


class TestFinalizeOnSet:
    def test_rounds_and_warm_starts_the_fixed_solve(self):
        sc = blocked_scenario(6, seed=3)
        table = build_rate_table(sc, build_gains(sc), initial_set(sc.num_due).members)
        relaxed = solve_allocation(table)
        z, final = finalize_on_set(table, relaxed, SolverOptions())
        assert np.array_equal(z, round_association(relaxed, table))
        expected = solve_fixed_association(table, z, SolverOptions(), start=relaxed)
        assert np.array_equal(final.x, expected.x) and np.array_equal(final.y, expected.y)
        assert np.array_equal(final.rates.r_eff, expected.rates.r_eff)
        assert (final.objective, final.fw_gap) == (expected.objective, expected.fw_gap)

    def test_baseline_report_is_the_finalized_solve_on_its_set(self):
        sc = blocked_scenario(6, seed=3)
        pattern_set = initial_set(sc.num_due)
        table = build_rate_table(sc, build_gains(sc), pattern_set.members)
        relaxed = solve_allocation(table)
        z, final = finalize_on_set(table, relaxed, SolverOptions())
        rep = orthogonal_baseline(sc)
        assert rep.final_patterns.members == pattern_set.members
        assert np.array_equal(rep.associations, z)
        for a, b in ((rep.relaxed_allocation, relaxed), (rep.final_allocation, final)):
            assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
            assert a.objective == b.objective and a.fw_gap == b.fw_gap


def loop_round_association(alloc, table):
    """Reference: the per-(user, pattern) loop that round_association replaced."""
    prod = alloc.y * table.c
    best = prod.argmax(axis=1)
    z = np.zeros_like(prod, dtype=int)
    for u in range(prod.shape[0]):
        for i in range(prod.shape[2]):
            z[u, best[u, i], i] = 1
    return z


def round_association_from(table, y):
    from d2dreuse.solver import Allocation
    from d2dreuse.model import rates_from_allocation

    x = y.sum(axis=(0, 1))
    alloc = Allocation(
        x=x, y=y, rates=rates_from_allocation(table, y),
        objective=0.0, fw_gap=0.0, iterations=0, converged=True,
    )
    return round_association(alloc, table)


class TestRun:
    def test_options_reject_outer_iteration_budget_below_one(self):
        for bad in (0, -2):
            with pytest.raises(ValueError, match="max_outer_iters must be at least 1"):
                SelectionOptions(max_outer_iters=bad)
        assert SelectionOptions(max_outer_iters=1).max_outer_iters == 1

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

    def test_the_set_leads_each_candidate_table_with_its_own_scores(self, monkeypatch):
        # run's stall test reads the set's columns of the candidate table's scores
        import d2dreuse.selection as selection

        built, scored = [], []  # (candidate table, size of its set), (table, set size, rates)
        real_table, real_score = selection.candidate_table, selection.score_pattern

        def table_of(scenario, gains, current, hoods):
            built.append((real_table(scenario, gains, current, hoods), len(current)))
            return built[-1][0]

        def score(table, rates):
            assert table is built[-1][0]
            scored.append((*built[-1], rates))
            return real_score(table, rates)

        monkeypatch.setattr(selection, "candidate_table", table_of)
        monkeypatch.setattr(selection, "score_pattern", score)
        for seed in range(20):  # the select-u12 benchmark drops
            run(blocked_scenario(12, seed=seed, walls_random=4))
        assert scored
        for table, size, rates in scored:
            own = select_columns(table, table.patterns[:size])
            assert np.array_equal(real_score(table, rates)[:size], real_score(own, rates))
        print(f"PASS set scores of {len(scored)} candidate tables equal score_pattern on the set bit for bit")

    def test_a_trimmed_final_set_takes_its_columns_from_the_last_table(self, monkeypatch):
        # when the last trim dropped a pattern, run re-solves the trimmed set
        # on select_columns of the last table, which must be the table a
        # fresh build gives, down to the strides that reductions follow
        import d2dreuse.selection as selection

        solved, starts, finalized = [], [], []
        real_solve, real_finalize = selection.solve_allocation, selection.finalize_on_set

        def solve_spy(t, o, start=None):
            solved.append(t)
            starts.append(start)
            return real_solve(t, o, start)

        monkeypatch.setattr(selection, "solve_allocation", solve_spy)
        monkeypatch.setattr(selection, "finalize_on_set", lambda t, r, o: finalized.append(t) or real_finalize(t, r, o))
        trimmed = 0
        for seed in range(20):  # the select-u12 benchmark drops
            sc = blocked_scenario(12, seed=seed, walls_random=4)
            solved.clear()
            starts.clear()
            rep = run(sc)
            # the first solve is cold; the extended and trimmed ones start
            # from the solution at hand
            assert starts[0] is None and all(s is not None and s.vertices for s in starts[1:])
            if len(solved) == len(rep.objective_trace):
                continue  # the last relaxed solve was on the final set
            trimmed += 1
            table = finalized[-1]
            assert table is solved[-1]
            fresh = build_rate_table(sc, build_gains(sc), rep.final_patterns.members)
            assert table.patterns == fresh.patterns
            assert np.array_equal(table.c, fresh.c) and table.c.strides == fresh.c.strides
        assert trimmed >= 10
        print(f"PASS {trimmed} of 20 trimmed final tables equal a fresh build in values and strides")

    def test_to_dict_serializes(self):
        import json

        sc = blocked_scenario(3, seed=4)
        doc = run(sc).to_dict()
        text = json.dumps(doc)
        assert "pf_objective" in doc and "schedule" in doc
        assert json.loads(text)["patterns"] == doc["patterns"]
