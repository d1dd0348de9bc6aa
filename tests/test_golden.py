"""PF gate on fixed drops: the objectives the solver reached before the
on-demand Newton polish, kept as constants.  A solver change may move a
PF only within the solver tolerance, and every allocation keeps its
certificate.  Each test prints its worst margin (visible with -s)."""

import pytest

from d2dreuse import SolverOptions, run
from d2dreuse.cli import gen_scenario
from d2dreuse.oracle import brute_force

TOL = SolverOptions().tolerance

# brute_force(gen_scenario(8, seed, walls_random=4)).objective
BRUTE_U8_PF = {
    0: 132.1940093763099,
    1: 133.80492267530894,
    2: 132.87482390098336,
    3: 132.64359152023238,
    4: 132.75249812698775,
    5: 132.34481708231667,
    6: 133.88469567431184,
    7: 132.41564850053578,
    8: 132.86066039502728,
    9: 129.0698425467177,
}

# run(gen_scenario(12, seed, walls_random=4)).pf_objective
RUN_U12_PF = {
    0: 194.90665649732847,
    1: 195.22596994317152,
    2: 197.0457924367647,
    3: 196.25981477914706,
    4: 194.16385132449423,
}


def bound(obj):
    return TOL * max(abs(obj), 1.0)


def check_certificate(alloc):
    assert alloc.converged
    assert alloc.fw_gap <= bound(alloc.objective)
    return alloc.fw_gap / bound(alloc.objective)


def test_brute_force_u8_pf_and_certificates():
    worst_pf = worst_gap = 0.0
    for seed, ref in BRUTE_U8_PF.items():
        alloc, _ = brute_force(gen_scenario(8, seed, walls_random=4))
        assert abs(alloc.objective - ref) <= bound(ref), (seed, alloc.objective, ref)
        worst_pf = max(worst_pf, abs(alloc.objective - ref) / bound(ref))
        worst_gap = max(worst_gap, check_certificate(alloc))
    print(f"PASS brute U=8, 10 drops: worst |PF change| {worst_pf:.2e} and worst fw_gap {worst_gap:.2e}"
          f" of the bound tol*max(|obj|,1)")


@pytest.mark.parametrize("seed", sorted(RUN_U12_PF))
def test_run_u12_pf_and_certificates(seed):
    ref = RUN_U12_PF[seed]
    rep = run(gen_scenario(12, seed, walls_random=4))
    assert abs(rep.pf_objective - ref) <= bound(ref), (rep.pf_objective, ref)
    gaps = [check_certificate(a) for a in (rep.relaxed_allocation, rep.final_allocation)]
    print(f"PASS run U=12 seed {seed}: |PF change| {abs(rep.pf_objective - ref) / bound(ref):.2e} and worst"
          f" fw_gap {max(gaps):.2e} of the bound")
