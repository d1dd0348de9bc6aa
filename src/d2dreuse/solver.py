"""Proportional-fairness time allocation over a fixed pattern set.

The concave program (maximize sum of log effective rates over the
time-share polytope) is solved with away-step Frank-Wolfe.  The linear
oracle decomposes exactly: pick one pattern, then for each server the
user with the largest gradient entry, so every iterate is an explicit
convex combination of (pattern, per-server user assignment) vertices.

The start is sparse: an optimum needs only about U active patterns
(Caratheodory), so the solve begins from the U+1 per-pattern greedy
vertices with the largest linearized gain at the uniform mix of all of
them, and the oracle brings in any other vertex it needs.  This keeps the
active set, and with it the corrective Newton system over the vertex
weights, near U+1 however many patterns the table holds.  A caller may
instead start from the vertices of an earlier solution.

Strict rate positivity is handled with a tangent-extended logarithm: below
a small rate floor the log is continued linearly, which keeps the
surrogate concave and finite everywhere.  Whenever the returned point has
all rates above the floor, the surrogate and the true objective share
value and gradient there, so the Frank-Wolfe gap certificate transfers.
Steps are sized by exact maximization of the surrogate along the step
direction, with a 1-D Newton method safeguarded by bisection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .model import RateTable, Rates, rates_from_allocation


class InfeasibleError(RuntimeError):
    """No allocation with strictly positive effective rates exists."""


@dataclass(frozen=True)
class SolverOptions:
    tolerance: float = 1e-6  # relative optimality-gap target
    max_iters: int = 200_000

    def __post_init__(self) -> None:
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")


@dataclass(frozen=True)
class Allocation:
    """Solved time shares with rate bookkeeping and a gap certificate."""

    x: np.ndarray  # (I,) per-pattern time fractions
    y: np.ndarray  # (U, N, I) per-user time fractions
    rates: Rates
    objective: float  # sum of natural-log effective rates
    fw_gap: float
    iterations: int
    converged: bool
    # ((pattern index, per-server user or -1), weight) pairs of the returned
    # convex combination; a later solve can start from them
    vertices: tuple = field(default=(), repr=False, compare=False)

    def to_dict(self, rate_table: Optional[RateTable] = None) -> dict:
        nz = np.argwhere(self.y > 0)
        d = {
            "x": self.x.tolist(),
            "y_nonzero": [[int(u), int(n), int(i), float(self.y[u, n, i])] for u, n, i in nz],
            "rates_mbps": (self.rates.r_eff / 1e6).tolist(),
            "objective": self.objective,
            "fw_gap": self.fw_gap,
            "iterations": self.iterations,
            "converged": self.converged,
        }
        if rate_table is not None:
            d["patterns"] = [p.bitstring() for p in rate_table.patterns]
        return d


def directional_objective(rate_table: RateTable, y: np.ndarray) -> float:
    """PF objective of a feasible point; -inf flags a nonpositive rate."""
    rates = rates_from_allocation(rate_table, None, y)
    if np.any(rates.r_eff <= 0):
        return float("-inf")
    return float(np.log(rates.r_eff).sum())


def _phi(r: np.ndarray, eps: float) -> np.ndarray:
    """Natural log with a linear tangent continuation below eps."""
    return np.where(r >= eps, np.log(np.maximum(r, eps)), np.log(eps) - 1.0 + r / eps)


def _phi_prime(r: np.ndarray, eps: float) -> np.ndarray:
    return np.where(r >= eps, 1.0 / np.maximum(r, eps), 1.0 / eps)


def _lmo(wc: np.ndarray, inv: np.ndarray, num_bs: int, allowed: Optional[np.ndarray]):
    """Best vertex for the linearized objective.

    Returns (pattern index, per-server user assignment, score).  The score
    per pattern is the sum over servers of the best gradient entry; with a
    fixed association mask a server may stay idle (assignment -1) when all
    of its allowed entries are negative.
    """
    coef = inv[:, None] - np.concatenate([np.zeros(num_bs), inv])[None, :]
    p = wc * coef[:, :, None]
    if allowed is not None:
        p = np.where(allowed, p, -np.inf)
    per_server = p.max(axis=0)  # (N, I)
    if allowed is not None:
        per_server = np.maximum(per_server, 0.0)
    scores = per_server.sum(axis=0)
    i_star = int(np.argmax(scores))
    col = p[:, :, i_star]  # (U, N)
    assign = col.argmax(axis=0).astype(int)
    if allowed is not None:
        assign[col.max(axis=0) < 0.0] = -1
    return i_star, tuple(int(a) for a in assign), float(scores[i_star])


def _vertex_rates(wc: np.ndarray, num_bs: int, patterns: np.ndarray, assign: np.ndarray) -> np.ndarray:
    """Effective-rate vectors of vertices, one row per vertex.

    Vertex k gives pattern patterns[k] all the time, with server n serving
    user assign[n, k] (-1: idle).  What a relay server sends is subtracted
    from the rate of the user that owns the relay.
    """
    num_users, num_servers, _ = wc.shape
    num_vertices = len(patterns)
    served = assign >= 0
    users = np.where(served, assign, 0)
    vals = np.where(served, wc[users, np.arange(num_servers)[:, None], patterns[None, :]], 0.0)  # (N, K)
    rows = users + num_users * np.arange(num_vertices)[None, :]
    phi = np.bincount(rows.ravel(), weights=vals.ravel(), minlength=num_vertices * num_users)
    phi = phi.reshape(num_vertices, num_users)
    phi -= vals[num_bs:].T
    return phi


_MAX_LINE_SEARCH_STEPS = 100  # bisection alone needs about 40 to reach the stop width
_LINE_SEARCH_REL_WIDTH = 1e-12  # stop width relative to gamma_max


def _line_search(r_base: np.ndarray, d_r: np.ndarray, gamma_max: float, eps: float) -> float:
    """Exact maximization of the surrogate along r_base + gamma * d_r.

    The surrogate is concave in gamma, so its derivative falls and has at
    most one root in [0, gamma_max].  Newton's method on that derivative
    finds the root; a step that leaves the current bracket of the root is
    replaced by bisection.  Returns gamma_max when the derivative is still
    nonnegative there, and 0 when it is already nonpositive at 0.
    """
    d_sq = d_r * d_r

    def derivs(g: float) -> tuple[float, float]:
        r = r_base + g * d_r
        inv = 1.0 / np.maximum(r, eps)  # tangent slope 1/eps below the floor
        curv = np.where(r >= eps, inv * inv, 0.0)
        return float(np.dot(d_r, inv)), -float(np.dot(d_sq, curv))

    d1, _ = derivs(gamma_max)
    if d1 >= 0.0:
        return gamma_max
    g = 0.0
    d1, d2 = derivs(g)
    if d1 <= 0.0:
        return 0.0
    lo, hi = 0.0, gamma_max
    width = _LINE_SEARCH_REL_WIDTH * gamma_max
    for _ in range(_MAX_LINE_SEARCH_STEPS):
        if d2 < 0.0:
            step = -d1 / d2
            if abs(step) <= width:
                return min(max(g + step, lo), hi)
            g_new = g + step
        else:
            g_new = hi  # no curvature: bisect
        if not lo < g_new < hi:
            g_new = 0.5 * (lo + hi)
        if abs(g_new - g) <= width:
            return g_new
        g = g_new
        d1, d2 = derivs(g)
        if d1 > 0.0:
            lo = g
        elif d1 < 0.0:
            hi = g
        else:
            return g
        if hi - lo <= width:
            break
    return g


class _ActiveSet:
    """Vertices of the current iterate with their convex weights."""

    def __init__(self, num_users: int):
        self._cap = 64
        self.phi = np.zeros((self._cap, num_users))
        self.w = np.zeros(self._cap)
        self.keys: list[tuple[int, tuple[int, ...]]] = []
        self.index: dict[tuple[int, tuple[int, ...]], int] = {}

    def __len__(self) -> int:
        return len(self.keys)

    def add(self, key, phi_vec: np.ndarray) -> int:
        idx = self.index.get(key)
        if idx is not None:
            return idx
        n = len(self.keys)
        if n == self._cap:
            self._cap *= 2
            self.phi = np.vstack([self.phi, np.zeros_like(self.phi)])
            self.w = np.concatenate([self.w, np.zeros_like(self.w)])
        self.phi[n] = phi_vec
        self.w[n] = 0.0
        self.keys.append(key)
        self.index[key] = n
        return n

    def remove(self, idx: int) -> None:
        last = len(self.keys) - 1
        key = self.keys[idx]
        del self.index[key]
        if idx != last:
            self.keys[idx] = self.keys[last]
            self.index[self.keys[idx]] = idx
            self.phi[idx] = self.phi[last]
            self.w[idx] = self.w[last]
        self.keys.pop()
        self.w[last] = 0.0

    def prune(self, floor: float = 1e-16) -> None:
        for idx in range(len(self.keys) - 1, -1, -1):
            if self.w[idx] < floor:
                self.remove(idx)

    def normalize(self) -> None:
        n = len(self.keys)
        self.w[:n] /= self.w[:n].sum()

    def rates(self) -> np.ndarray:
        n = len(self.keys)
        return self.phi[:n].T @ self.w[:n]


def _corrective_newton(active: "_ActiveSet", eps: float, max_rounds: int = 20) -> None:
    """Re-optimize the weights over the current vertices (simplex Newton).

    Frank-Wolfe discovers vertices quickly but zig-zags on the final
    weights; this equality-constrained Newton polish removes that tail.
    Vertices driven to zero weight are dropped.
    """
    while max_rounds > 0:
        max_rounds -= 1
        n = len(active)
        if n <= 1:
            return
        p_mat = active.phi[:n]
        w = active.w[:n].copy()
        r = p_mat.T @ w
        g = p_mat @ _phi_prime(r, eps)
        curv = np.where(r >= eps, 1.0 / np.maximum(r, eps) ** 2, 0.0)
        h = (p_mat * curv[None, :]) @ p_mat.T
        reg = 1e-10 * (np.trace(h) / n + 1.0)
        kkt = np.zeros((n + 1, n + 1))
        kkt[:n, :n] = h + reg * np.eye(n)
        kkt[:n, n] = 1.0
        kkt[n, :n] = 1.0
        rhs = np.concatenate([g, [0.0]])
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            return
        dw = sol[:n]
        g_dot_d = float(g @ dw)
        if g_dot_d <= 0 or np.abs(dw).max() < 1e-18:
            return
        neg = dw < 0
        t_max = 1.0
        if neg.any():
            t_max = min(1.0, float(np.min(w[neg] / -dw[neg])))
        if t_max <= 0:
            return
        f0 = float(_phi(r, eps).sum())
        t = t_max
        accepted = False
        for _ in range(40):
            r_new = p_mat.T @ (w + t * dw)
            if float(_phi(r_new, eps).sum()) > f0 + 1e-4 * t * g_dot_d:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            return
        active.w[:n] = np.maximum(w + t * dw, 0.0)
        active.prune()
        active.normalize()
        if t * g_dot_d < 1e-14 * (abs(f0) + 1.0):
            return  # negligible improvement left on this vertex set


def _active_set(
    wc: np.ndarray, num_bs: int, patterns: np.ndarray, assign: np.ndarray, weights: np.ndarray
) -> _ActiveSet:
    """Active set over the vertices (patterns[k], assign[:, k]) with the
    given weights; vertices that are equal merge their weights."""
    phi = _vertex_rates(wc, num_bs, patterns, assign)
    active = _ActiveSet(wc.shape[0])
    for k, w in enumerate(weights):
        idx = active.add((int(patterns[k]), tuple(assign[:, k].tolist())), phi[k])
        active.w[idx] += w
    return active


def _sparse_start(wc: np.ndarray, num_bs: int, allowed: Optional[np.ndarray], eps: float):
    """The U+1 per-pattern greedy vertices of largest linearized PF gain.

    A pattern's greedy vertex lets every server serve its best user (under
    a fixed association, its best allowed user, or nobody when none has a
    positive efficiency).  Gains are taken at the uniform mix of all these
    vertices and ties go to the lower pattern index.  Returns the kept
    vertices as (patterns, assign, weights), with equal weights.
    """
    num_users, _, num_patterns = wc.shape
    col = wc if allowed is None else np.where(allowed, wc, -np.inf)
    assign = col.argmax(axis=0)  # (N, I)
    if allowed is not None:
        assign[col.max(axis=0) <= 0.0] = -1
    phi = _vertex_rates(wc, num_bs, np.arange(num_patterns), assign)
    gain = phi @ _phi_prime(phi.mean(axis=0), eps)
    keep = np.argsort(-gain, kind="stable")[: num_users + 1]
    return keep, assign[:, keep], np.full(len(keep), 1.0 / len(keep))


def _warm_start(vertices: tuple, allowed: Optional[np.ndarray]):
    """An earlier solution's vertices as (patterns, assign, weights).

    With an association mask, a server whose user the mask forbids goes
    idle.
    """
    patterns = np.array([i for (i, _), _ in vertices])
    assign = np.array([a for (_, a), _ in vertices]).T  # (N, K)
    if allowed is not None:
        servers = np.arange(assign.shape[0])[:, None]
        ok = (assign >= 0) & allowed[np.maximum(assign, 0), servers, patterns[None, :]]
        assign = np.where(ok, assign, -1)
    return patterns, assign, np.array([w for _, w in vertices])


def _fw_solve(
    rate_table: RateTable,
    options: SolverOptions,
    allowed: Optional[np.ndarray] = None,
    start: tuple = (),
) -> Allocation:
    wc = rate_table.bandwidth_hz * rate_table.c
    if allowed is not None:
        usable = (wc > 0) & allowed
    else:
        usable = wc > 0
    if not np.all(usable.any(axis=(1, 2))):
        raise InfeasibleError("a user has no positive-efficiency link under this pattern set")

    num_bs = rate_table.num_bs
    tol = options.tolerance
    eps = 1e-8 * float(wc.max())
    if start:
        active = _active_set(wc, num_bs, *_warm_start(start, allowed))
    else:
        active = _active_set(wc, num_bs, *_sparse_start(wc, num_bs, allowed, eps))
    active.normalize()

    shrinks = 0
    it = 0
    while it < options.max_iters:
        it += 1
        if it % 5 == 0:
            _corrective_newton(active, eps)
        r = active.rates()
        min_r = float(r.min())
        inv = _phi_prime(r, eps)
        obj = float(_phi(r, eps).sum())
        grad_dot_y = float(np.dot(inv, r))

        i_star, assign, score = _lmo(wc, inv, num_bs, allowed)
        gap_fw = score - grad_dot_y

        if gap_fw <= tol * max(abs(obj), 1.0):
            if min_r >= eps:
                # exit on the certificate that is returned, whose rates are
                # recomputed from (x, y) and may differ in the last bits
                alloc = _assemble(rate_table, active, it, True, allowed)
                if alloc.fw_gap <= tol * max(abs(alloc.objective), 1.0):
                    return alloc
            else:
                # surrogate optimal but some rate still under the floor
                shrinks += 1
                if shrinks > 6:
                    break
                eps = eps * 1e-3 if min_r <= 0 else min(eps * 1e-3, 0.25 * min_r)
                continue

        n_active = len(active)
        vals = active.phi[:n_active] @ inv
        a_idx = int(np.argmin(vals))
        gap_away = grad_dot_y - float(vals[a_idx])

        if gap_fw >= gap_away or active.w[a_idx] >= 1.0 - 1e-12:
            # Frank-Wolfe step toward the oracle vertex
            key = (i_star, assign)
            s_idx = active.add(key, _vertex_rates(wc, num_bs, np.array([i_star]), np.array([assign]).T)[0])
            d_r = active.phi[s_idx] - r
            gamma = _line_search(r, d_r, 1.0, eps)
            n_active = len(active)
            active.w[:n_active] *= 1.0 - gamma
            active.w[s_idx] += gamma
        else:
            # away step: shift weight off the worst active vertex
            w_a = float(active.w[a_idx])
            gamma_max = w_a / (1.0 - w_a)
            d_r = r - active.phi[a_idx]
            gamma = _line_search(r, d_r, gamma_max, eps)
            active.w[:n_active] *= 1.0 + gamma
            active.w[a_idx] -= gamma
            if active.w[a_idx] < 1e-16:
                active.remove(a_idx)
        active.prune()
        active.normalize()

    r = active.rates()
    if float(r.min()) <= 0.0:
        raise InfeasibleError("no strictly positive effective-rate point found")
    return _assemble(rate_table, active, it, False, allowed)


def _assemble(
    rate_table: RateTable,
    active: _ActiveSet,
    iterations: int,
    converged: bool,
    allowed: Optional[np.ndarray] = None,
) -> Allocation:
    num_users, num_servers, num_patterns = rate_table.c.shape
    x = np.zeros(num_patterns)
    y = np.zeros((num_users, num_servers, num_patterns))
    for idx, (i, assign) in enumerate(active.keys):
        w = float(active.w[idx])
        x[i] += w
        for n, u in enumerate(assign):
            if u >= 0:
                y[u, n, i] += w
    rates = rates_from_allocation(rate_table, x, y)
    objective = float(np.log(rates.r_eff).sum())
    # certificate with the exact gradient at the returned point
    wc = rate_table.bandwidth_hz * rate_table.c
    inv = 1.0 / rates.r_eff
    _, _, score = _lmo(wc, inv, rate_table.num_bs, allowed)
    fw_gap = score - float(np.dot(inv, rates.r_eff))
    vertices = tuple((key, float(w)) for key, w in zip(active.keys, active.w))
    return Allocation(
        x=x, y=y, rates=rates, objective=objective, fw_gap=fw_gap, iterations=iterations,
        converged=converged, vertices=vertices,
    )


def solve_allocation(rate_table: RateTable, options: SolverOptions = SolverOptions()) -> Allocation:
    """Maximize the PF objective over all fractional associations.

    Active servers split their pattern time fully across users (equality
    coupling), so each returned y column sums to the pattern share.
    Raises InfeasibleError when no all-positive-rate point exists; a run
    that exhausts the iteration budget returns its best iterate with
    converged=False.
    """
    return _fw_solve(rate_table, options)


def solve_fixed_association(
    rate_table: RateTable,
    z: np.ndarray,
    options: SolverOptions = SolverOptions(),
    start: Optional[Allocation] = None,
) -> Allocation:
    """PF allocation with a frozen single-server association.

    z[u, n, i] is a one-hot server choice per (user, pattern).  Time shares
    obey the one-sided cap per server and pattern: with z fixed a server
    may end up with no profitable user under some pattern and then stays
    idle for that slice.  With start given (an allocation on the same
    table, typically the relaxed one that z was rounded from), the solve
    begins at its vertices with every server that z does not associate to
    its user left idle; iterations then count from that point.
    """
    z = np.asarray(z)
    if z.shape != rate_table.c.shape:
        raise ValueError("z must match the rate table shape")
    sums = z.sum(axis=1)
    if not np.all(sums == 1):
        raise ValueError("each (user, pattern) must be associated to exactly one server")
    if start is not None and start.x.shape != (rate_table.num_patterns,):
        raise ValueError("start must be an allocation on the same rate table")
    mask = z.astype(bool)
    vertices = start.vertices if start is not None else ()
    return _fw_solve(rate_table, options, allowed=mask, start=vertices)
