"""Acceptance gate: each test covers one release criterion end to end and
emits a single PASS line with the measured numbers (visible with -rP/-s)."""

import time

import numpy as np
import pytest

from d2dreuse import (
    SelectionOptions,
    SolverOptions,
    build_gains,
    build_rate_table,
    directional_objective,
    gradient,
    run,
    solve_allocation,
)
from d2dreuse.cli import brute_report, gen_scenario
from d2dreuse.model import rates_from_allocation
from d2dreuse.oracle import (
    all_patterns,
    brute_force,
    bs_only_baseline,
    effective_rate_columns,
    orthogonal_baseline,
    reduce_support,
)

from conftest import blocked_scenario, pf_objective_delta, two_cluster_scenario

SOLVER_TOL = SolverOptions().tolerance


@pytest.fixture(scope="module")
def ordering_runs():
    """10 blocked drops at U = 12: selection algorithm vs both baselines."""
    out = []
    for seed in range(10):
        sc = blocked_scenario(12, seed=seed)
        out.append((sc, run(sc), orthogonal_baseline(sc), bs_only_baseline(sc)))
    return out


@pytest.fixture(scope="module")
def gap_runs():
    """20 seeds cycling U in {4, 5, 6}: algorithm and exhaustive baseline."""
    out = []
    for k in range(20):
        dues = (4, 5, 6)[k % 3]
        sc = gen_scenario(dues, seed=100 + k)
        out.append((dues, run(sc), brute_report(sc, SolverOptions())))
    return out


def test_criterion_1_support_bound_after_reduction():
    """Optimal profiles sparsify to at most U patterns (U+1 worst case)."""
    t0 = time.perf_counter()
    within_u = 0
    total = 0
    for k in range(20):
        dues = (3, 4, 5)[k % 3]
        sc = gen_scenario(dues, seed=200 + k)
        alloc, table = brute_force(sc)
        cols, support = effective_rate_columns(alloc, table)
        reduced = reduce_support(cols, alloc.x[support])
        size = int((reduced > 0).sum())
        total += 1
        assert size <= dues + 1
        if size <= dues:
            within_u += 1
    elapsed = time.perf_counter() - t0
    assert within_u >= 0.95 * total
    assert elapsed <= 120
    print(f"criterion 1 PASS: support <= U on {within_u}/{total} drops, "
          f"<= U+1 on all, {elapsed:.1f}s")


def _cpu_seconds(call, *args):
    t0 = time.process_time()
    call(*args)
    return time.process_time() - t0


def test_criterion_2_gap_to_brute_force_and_timing(gap_runs):
    """Median GM gap <= 2%, max <= 5%; algorithm faster than brute at U=6."""
    gaps = []
    t_algo6, t_brute6 = [], []
    for k, (dues, algo, brute) in enumerate(gap_runs):
        gap = (brute.gm_throughput_mbps - algo.gm_throughput_mbps) / brute.gm_throughput_mbps
        gaps.append(gap)
        if dues == 6:
            # each call takes about a millisecond here, so it is timed in CPU
            # time, best of 3 calls with the two methods alternating
            sc = gen_scenario(dues, seed=100 + k)
            times = [(_cpu_seconds(run, sc), _cpu_seconds(brute_report, sc, SolverOptions())) for _ in range(3)]
            best_algo, best_brute = np.min(times, axis=0)
            t_algo6.append(best_algo)
            t_brute6.append(best_brute)
    med, worst = float(np.median(gaps)), float(np.max(gaps))
    assert med <= 0.02
    assert worst <= 0.05
    # the ordering claim is evaluated on medians over the drops
    t_algo, t_brute = np.median(t_algo6), np.median(t_brute6)
    assert t_algo < t_brute
    print(f"criterion 2 PASS: median gap {med:.2e}, max gap {worst:.2e}, median CPU t_algo(U=6) "
          f"{1e3 * t_algo:.2f} ms < t_brute {1e3 * t_brute:.2f} ms (ratio {t_algo / t_brute:.3f})")


def test_criterion_3_beats_both_baselines(ordering_runs):
    """GM ordering on blocked drops, strict win on at least 8 of 10."""
    tol = 1e-3
    strict = 0
    for _, algo, orth, bs in ordering_runs:
        assert algo.gm_throughput_mbps >= orth.gm_throughput_mbps * (1 - tol)
        assert algo.gm_throughput_mbps >= bs.gm_throughput_mbps * (1 - tol)
        if (algo.gm_throughput_mbps > orth.gm_throughput_mbps
                and algo.gm_throughput_mbps > bs.gm_throughput_mbps):
            strict += 1
    assert strict >= 8
    print(f"criterion 3 PASS: strict improvement on {strict}/10 blocked drops")


def test_criterion_4_blockage_topology_schedule(five_due_blockage):
    """Hand-built 5-DUE blockage drop: few patterns, non-orthogonal reuse."""
    rep = run(five_due_blockage)
    active = [row for row in rep.schedule_table() if row["share"] > 1e-4]
    assert 1 <= len(active) <= 5
    multi = [row for row in active if row["pattern"].count("1") >= 2]
    assert multi, "expected at least one pattern with two simultaneously active servers"
    print(f"criterion 4 PASS: {len(active)} active patterns, "
          f"{len(multi)} with >= 2 active servers")


def test_criterion_5_gradient_matches_finite_differences():
    """Analytic PF gradient vs central differences on 100 interior points."""
    rng = np.random.default_rng(77)
    bound = 1e-5
    worst, worst_at = 0.0, None
    worst_obj_diff = 0.0
    checked = 0
    for point in range(100):
        dues = int(rng.integers(2, 5))
        sc = gen_scenario(dues, seed=300 + point)
        gains = build_gains(sc)
        table = build_rate_table(sc, gains, all_patterns(sc.num_servers).members)
        opt = solve_allocation(table)
        # random feasible y mixed toward the optimum until rates are positive
        num_users, num_servers, num_patterns = table.c.shape
        x = rng.dirichlet(np.ones(num_patterns))
        y_rand = np.empty_like(table.c)
        for i in range(num_patterns):
            for n in range(num_servers):
                y_rand[:, n, i] = x[i] * rng.dirichlet(np.ones(num_users))
        for theta in (0.5, 0.2, 0.05, 0.01):
            y = (1 - theta) * opt.y + theta * y_rand
            rates = rates_from_allocation(table, y)
            if np.all(rates.r_eff > 0):
                break
        else:
            pytest.fail("could not build an interior point")
        g = gradient(table, rates)
        h = 1e-6
        for _ in range(3):
            u, n, i = (int(rng.integers(s)) for s in y.shape)
            yp, ym = y.copy(), y.copy()
            yp[u, n, i] += h
            ym[u, n, i] -= h
            delta = pf_objective_delta(table, yp, ym)
            # the objective the solver certifies moves by the same amount,
            # up to the round-off of its sum of logs
            obj_diff = abs(directional_objective(table, yp) - directional_objective(table, ym) - delta)
            assert obj_diff <= 1e-12, (point, u, n, i, obj_diff)
            worst_obj_diff = max(worst_obj_diff, obj_diff)
            fd = delta / (2 * h)
            scale = max(abs(fd), 1e-8)
            err = abs(g[u, n, i] - fd) / scale
            if err > worst:
                worst, worst_at = err, (point, u, n, i)
            checked += 1
    assert worst <= bound, (worst, worst_at)
    point, u, n, i = worst_at
    print(f"criterion 5 PASS: max relative gradient error {worst:.2e} "
          f"over {checked} sampled coordinates, at point {point} (u={u}, n={n}, i={i}), "
          f"{bound / worst:.0f}x below the {bound:.0e} bound; objective differences "
          f"agree to {worst_obj_diff:.1e}")


def test_criterion_6_solver_certificates(ordering_runs, gap_runs):
    """Every allocation: mass one, coupled y, nonnegativity, small gap,
    positive rates.  Relaxed solves couple with equality, fixed-association
    solves with the one-sided per-server cap."""
    checked = 0
    reports = [r for tup in ordering_runs for r in tup[1:]]
    reports += [r for tup in gap_runs for r in tup[1:]]
    for rep in reports:
        for alloc, equality in ((rep.relaxed_allocation, True), (rep.final_allocation, False)):
            assert alloc.x.sum() == pytest.approx(1.0, abs=1e-8)
            col = alloc.y.sum(axis=0)
            if equality:
                assert np.abs(col - alloc.x[None, :]).max() <= 1e-8
            else:
                assert np.all(col <= alloc.x[None, :] + 1e-8)
            assert alloc.y.min() >= -1e-12
            assert alloc.fw_gap <= 1e-6 * abs(alloc.objective) + 1e-12
            assert np.all(alloc.rates.r_eff > 0)
            checked += 1
    print(f"criterion 6 PASS: certificates hold for {checked} allocations")


def test_criterion_7_monotone_outer_loop(ordering_runs, gap_runs, five_due_blockage):
    """Objective trace of the selection loop never decreases beyond noise."""
    traces = [rep.objective_trace for _, rep, _, _ in ordering_runs]
    traces += [algo.objective_trace for _, algo, _ in gap_runs]
    traces.append(run(five_due_blockage).objective_trace)
    # most acceptance drops stop after one outer iteration (the starting
    # set is already optimal); add heavily blocked drops known to take
    # several expansion steps so the check actually sees transitions
    for dues, seed in ((6, 13), (9, 16), (12, 16), (6, 21), (12, 24)):
        sc = blocked_scenario(dues, seed=seed, n_blocked=3, wall_count=12)
        traces.append(run(sc).objective_trace)
    steps = 0
    for trace in traces:
        for a, b in zip(trace, trace[1:]):
            assert b >= a - 2 * SOLVER_TOL * max(abs(a), 1.0)
            steps += 1
    assert steps > 0
    print(f"criterion 7 PASS: {len(traces)} traces, {steps} outer steps monotone")


def test_criterion_8_rounding_never_beats_relaxation(ordering_runs, gap_runs):
    """Single-association objective stays below the relaxed optimum."""
    checked = 0
    reports = [r for tup in ordering_runs for r in tup[1:]]
    reports += [r for tup in gap_runs for r in tup[1:]]
    for rep in reports:
        bound = rep.relaxed_allocation.objective
        assert rep.final_allocation.objective <= bound + 1e-6 * abs(bound)
        checked += 1
    print(f"criterion 8 PASS: relaxation bound holds on {checked} runs")


def test_criterion_9_wall_time_at_scale():
    """Full selection runs finish well inside the desk-scale budgets."""
    sc12 = blocked_scenario(12, seed=91)
    t0 = time.perf_counter()
    run(sc12)
    t12 = time.perf_counter() - t0
    assert t12 <= 60

    sc30 = blocked_scenario(30, seed=92)
    t0 = time.perf_counter()
    run(sc30)
    t30 = time.perf_counter() - t0
    assert t30 <= 600
    print(f"criterion 9 PASS: U=12 in {t12:.2f}s (limit 60), U=30 in {t30:.2f}s (limit 600)")
