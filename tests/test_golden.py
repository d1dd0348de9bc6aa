"""Golden gates on fixed drops.

PF gate: the objectives the solver reached before the on-demand Newton
polish, kept as constants.  A solver change may move a PF only within
the solver tolerance, and every allocation keeps its certificate.  Each
test prints its worst margin (visible with -s).

Report gate: tests/golden/reports_u6.json holds, per method of a
four-method run_experiment, the pattern list, the associations, the
supports of the relaxed and final x, and the PF.  Sets and supports must
match exactly and the PF within the solver tolerance.  A change that
moves a set or a support regenerates the file with
`PYTHONPATH=src python tests/test_golden.py` and says why.
"""

import json
import sys
from pathlib import Path

import pytest

from d2dreuse import SolverOptions, run
from d2dreuse.cli import gen_scenario, run_experiment
from d2dreuse.oracle import brute_force

TOL = SolverOptions().tolerance
REPORT_GOLDEN = Path(__file__).with_name("golden") / "reports_u6.json"
REPORT_SEEDS = (0, 1, 2)
METHODS = ("algo", "brute", "orthogonal", "bs_only")

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


def report_summary(seed, out_dir):
    """Per method: the sets, supports and PF of the report file that
    run_experiment writes for gen_scenario(6, seed, walls_random=4)."""
    config = {"scenario": {"dues": 6, "seed": seed, "walls_random": 4}, "methods": list(METHODS)}
    run_experiment(config, Path(out_dir))
    summary = {}
    for method in METHODS:
        doc = json.loads((Path(out_dir) / f"report_{method}.json").read_text())
        summary[method] = {
            "patterns": doc["patterns"],
            "associations": doc["associations"],
            "relaxed_support": [i for i, xi in enumerate(doc["relaxed"]["x"]) if xi > 0],
            "final_support": [i for i, xi in enumerate(doc["final"]["x"]) if xi > 0],
            "pf_objective": doc["pf_objective"],
        }
    return summary


@pytest.mark.parametrize("seed", REPORT_SEEDS)
def test_report_sets_supports_and_pf(seed, tmp_path):
    golden = json.loads(REPORT_GOLDEN.read_text())[str(seed)]
    summary = report_summary(seed, tmp_path)
    margins = []
    for method in METHODS:
        got, ref = summary[method], golden[method]
        for key in ("patterns", "associations", "relaxed_support", "final_support"):
            assert got[key] == ref[key], (method, key)
        pf, ref_pf = got["pf_objective"], ref["pf_objective"]
        assert abs(pf - ref_pf) <= bound(ref_pf), (method, pf, ref_pf)
        margins.append(abs(pf - ref_pf) / bound(ref_pf))
    print(f"PASS report U=6 seed {seed}: sets and supports equal, worst |PF change| {max(margins):.2e} of the bound")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        goldens = {str(seed): report_summary(seed, tmp) for seed in REPORT_SEEDS}
    REPORT_GOLDEN.parent.mkdir(exist_ok=True)
    # one line per (seed, method), so a regenerated file diffs by method
    seeds = [
        f'"{seed}": {{\n' + ",\n".join(f'  "{m}": {json.dumps(v)}' for m, v in per.items()) + "\n}"
        for seed, per in goldens.items()
    ]
    REPORT_GOLDEN.write_text("{" + ",\n".join(seeds) + "}\n")
    print(f"wrote {REPORT_GOLDEN}", file=sys.stderr)
