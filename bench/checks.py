"""Output checks on what the program returns.

Each check returns a list of messages, empty when the output is correct.
Rates are recomputed here from the rate table with plain numpy, so a check
does not trust the program's own bookkeeping.
"""

from __future__ import annotations

import numpy as np

MASS_TOL = 1e-9  # time shares are sums of convex weights
REL_TOL = 1e-9  # recomputed objective against the reported one


def _rel(a: float) -> float:
    return max(abs(a), 1.0)


def recompute_r_eff(table, y: np.ndarray) -> np.ndarray:
    """Effective rates W * (received - forwarded) from y and the table."""
    contrib = table.bandwidth_hz * y * table.c  # (U, N, I)
    received = contrib.sum(axis=(1, 2))
    served = contrib.sum(axis=(0, 2))
    return received - served[table.num_bs:]


def cert_gap_rel(alloc) -> float:
    return float(alloc.fw_gap) / _rel(alloc.objective)


def check_allocation(tag: str, alloc, table, tolerance: float, z: np.ndarray | None = None) -> list[str]:
    """Unit mass, y coupled to x, positive rates, consistent objective, and
    the gap certificate.  With z given the allocation is a fixed-association
    one: its server columns may fall short of x but never exceed it, and y
    lives only on the associated entries."""
    errs = []
    x, y = np.asarray(alloc.x), np.asarray(alloc.y)
    if x.shape != (table.num_patterns,) or y.shape != table.c.shape:
        return [f"{tag}: x{x.shape} / y{y.shape} do not match the table {table.c.shape}"]
    if x.min() < 0 or abs(x.sum() - 1.0) > MASS_TOL:
        errs.append(f"{tag}: x not on the simplex (min {x.min():.3g}, sum-1 {x.sum() - 1.0:.3g})")
    if y.min() < 0:
        errs.append(f"{tag}: negative y entry {y.min():.3g}")
    cols = y.sum(axis=0)  # (N, I) time each server spends per pattern
    if z is None:
        active = np.array([p.bits() for p in table.patterns], dtype=bool).T  # (N, I)
        dev = np.abs(cols - x[None, :])[active]
        if dev.size and dev.max() > MASS_TOL:
            errs.append(f"{tag}: relaxed y columns differ from x by {dev.max():.3g}")
    else:
        excess = (cols - x[None, :]).max()
        if excess > MASS_TOL:
            errs.append(f"{tag}: fixed-association y columns exceed x by {excess:.3g}")
        if np.any(y[~np.asarray(z, dtype=bool)] != 0):
            errs.append(f"{tag}: y outside the association")
    r_eff = recompute_r_eff(table, y)
    if np.any(r_eff <= 0):
        return errs + [f"{tag}: nonpositive effective rate {r_eff.min():.3g}"]
    if not np.allclose(alloc.rates.r_eff, r_eff, rtol=REL_TOL, atol=0.0):
        errs.append(f"{tag}: reported rates differ from the recomputed ones")
    pf = float(np.log(r_eff).sum())
    if abs(alloc.objective - pf) > REL_TOL * _rel(pf):
        errs.append(f"{tag}: objective {alloc.objective!r} != sum log r_eff {pf!r}")
    if alloc.converged and not cert_gap_rel(alloc) <= tolerance:
        errs.append(f"{tag}: converged but fw_gap/max(|obj|,1) = {cert_gap_rel(alloc):.3g} > {tolerance:g}")
    return errs


def check_report(tag: str, report, table, tolerance: float) -> list[str]:
    """A SolveReport: its allocations, the rounding, and its summary numbers.
    A report whose final allocation is the relaxed one (exhaustive search)
    has no fixed-association solve to check."""
    errs = check_allocation(f"{tag}.relaxed", report.relaxed_allocation, table, tolerance)
    z = np.asarray(report.associations)
    if z.shape != table.c.shape or np.any(z.sum(axis=1) != 1):
        errs.append(f"{tag}: associations are not one server per (user, pattern)")
    elif report.final_allocation is not report.relaxed_allocation:
        errs += check_allocation(f"{tag}.final", report.final_allocation, table, tolerance, z=z)
    if report.pf_objective != report.final_allocation.objective:
        errs.append(f"{tag}: pf_objective differs from the final allocation's objective")
    gm = float(np.exp(np.log(report.final_allocation.rates.r_eff).mean()) / 1e6)
    if not np.isclose(report.gm_throughput_mbps, gm, rtol=REL_TOL, atol=0.0):
        errs.append(f"{tag}: gm_throughput_mbps {report.gm_throughput_mbps!r} != {gm!r}")
    return errs


def check_support_reduction(cols: np.ndarray, x_in: np.ndarray, x_out: np.ndarray, num_due: int) -> list[str]:
    """reduce_support keeps the rate vector and the mass, with at most U+1 shares."""
    errs = []
    if x_out.shape != x_in.shape or x_out.min() < 0:
        return [f"reduce_support: bad output shape {x_out.shape} or negative share"]
    before, after = cols @ x_in, cols @ x_out
    if np.abs(after - before).max() > 1e-6 * max(np.abs(before).max(), 1.0):
        errs.append(f"reduce_support: rate vector moved by {np.abs(after - before).max():.3g} Mbps")
    if abs(x_out.sum() - x_in.sum()) > 1e-8:
        errs.append(f"reduce_support: mass moved by {x_out.sum() - x_in.sum():.3g}")
    support = int(np.count_nonzero(x_out))
    if support > num_due + 1:
        errs.append(f"reduce_support: support {support} > U+1 = {num_due + 1}")
    return errs
