"""Proportional-fairness time allocation over a fixed pattern set.

The concave program (maximize sum of log effective rates over the
time-share polytope) is solved by fully corrective Frank-Wolfe
(simplicial decomposition).  The linear oracle decomposes exactly: pick
one pattern, then for each server the user with the largest gradient
entry, so every iterate is an explicit convex combination of (pattern,
per-server user assignment) vertices.  Each iteration that does not
certify adds the oracle vertex at weight 0 (unless it is already held)
and re-optimizes the weights over all held vertices with at most two
steps of Newton's method on the simplex; that is the one weight update,
with no step-size search and no schedule.  Two rules keep it moving:

* a vertex at weight 0 whose Newton component is negative leaves the
  active set, and the Newton system is solved again over the rest, a
  re-solve that the two-step budget does not count; and
* an iteration whose oracle vertex is already held and whose
  re-optimization moves no weight ends the solve unconverged, since the
  next iteration would repeat it.

The Newton steps drop the vertices they drive to zero weight and so keep
the active set small.  The start is not re-optimized before its first
certificate test.

The start is sparse: an optimum needs only about U active patterns
(Caratheodory), so the solve begins from one vertex per user, in which
the BS serves that user alone on its best BS pattern, and the oracle
brings in any other vertex it needs.  Relaying is zero-sum in effective
rate (what a relay forwards comes out of its owner's rate), so these
vertices drain no one, and their uniform mix gives every user the BS
reaches a positive rate.  This keeps the active set, and with it
the corrective Newton system over the vertex weights, small however many
patterns the table holds.  A caller may instead start from an earlier
solution on any table of the same scenario (see solve_allocation).

Strict rate positivity is handled with a tangent-extended logarithm: below
a small rate floor the log is continued linearly, which keeps the
surrogate concave and finite everywhere.  Whenever the returned point has
all rates above the floor, the surrogate and the true objective share
value and gradient there, so the Frank-Wolfe gap certificate transfers.
"""
from __future__ import annotations

import dataclasses
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
        if not 0 < self.tolerance < float("inf"):  # json reads Infinity and 1e400 as inf
            raise ValueError(f"tolerance must be positive and finite, got {self.tolerance}")
        if not self.max_iters >= 1:
            raise ValueError("max_iters must be at least 1")


@dataclass(frozen=True)
class SolveStats:
    """What one Frank-Wolfe solve did, counted as it ran.

    Every iteration either adds its oracle vertex (fw_steps), finds it
    already held (polish_only), shrinks the rate floor, or returns the
    certificate; so fw_steps + polish_only + shrinks + converged equals
    the iteration count.  Each of the first two re-optimizes the weights.
    """

    fw_steps: int = 0
    polish_only: int = 0
    newton_rounds: int = 0  # KKT solves, re-solves after a drop included
    dropped: int = 0  # vertices pruned at zero weight
    shrinks: int = 0  # rate-floor reductions
    peak_active: int = 0  # largest active-set size

    def to_dict(self) -> dict:
        return dict(vars(self))


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
    # ((pattern index, per-server user), weight) pairs of the returned convex
    # combination; a later solve can start from them
    vertices: tuple = field(default=(), repr=False, compare=False)
    # the patterns of the table's columns, which the vertices' indices name
    patterns: tuple = field(default=(), repr=False, compare=False)
    stats: SolveStats = field(default=SolveStats(), compare=False)

    def to_dict(self, rate_table: Optional[RateTable] = None) -> dict:
        nz = np.argwhere(self.y > 0)
        d = {
            "x": self.x.tolist(),
            "y_nonzero": [idx + [v] for idx, v in zip(nz.tolist(), self.y[tuple(nz.T)].tolist())],
            "rates_mbps": (self.rates.r_eff / 1e6).tolist(),
            "objective": self.objective,
            "fw_gap": self.fw_gap,
            "iterations": self.iterations,
            "converged": self.converged,
            "stats": self.stats.to_dict(),
        }
        if rate_table is not None:
            d["patterns"] = [p.bitstring() for p in rate_table.patterns]
        return d


def directional_objective(rate_table: RateTable, y: np.ndarray) -> float:
    """PF objective of a feasible point; -inf flags a nonpositive rate."""
    rates = rates_from_allocation(rate_table, y)
    if np.any(rates.r_eff <= 0):
        return float("-inf")
    return float(np.log(rates.r_eff).sum())


def _phi(r: np.ndarray, eps: float) -> np.ndarray:
    """Natural log with a linear tangent continuation below eps."""
    if r.min() >= eps:  # the usual case: no rate under the floor
        return np.log(r)
    return np.where(r >= eps, np.log(np.maximum(r, eps)), np.log(eps) - 1.0 + r / eps)


def _phi_derivs(r: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Slope of _phi and its curvature magnitude -_phi''.

    The slope is 1/r, continued by the tangent slope 1/eps below the
    floor, where the curvature is 0.
    """
    if r.min() >= eps:
        inv = 1.0 / r
        return inv, inv * inv
    inv = 1.0 / np.maximum(r, eps)
    return inv, np.where(r >= eps, inv * inv, 0.0)


def pattern_scores(wc: np.ndarray, inv: np.ndarray):
    """Linearized PF gain of every pattern's best vertex.

    wc[u, n, i] is the bandwidth-weighted efficiency and inv the derivative
    of the (surrogate) log at the current rates.  Serving user u from server
    n adds to u's rate and, when n = 1+v is user v's relay, takes the same
    amount from v, so the weighted tensor is wc * (inv[u] - inv[v]), with
    0 in place of inv[v] for the BS.  A pattern's score is the sum over
    servers of its best entry.  Every server has an entry of at least 0:
    an off server's entries and a masked table's forbidden entries are 0,
    the BS's are wc * inv[u] >= 0, and relay 1+v's entry for its own user
    v has coefficient 0.  So no server is ever better left idle, and a
    server with nothing to give serves a user it gives nothing to.
    Returns (scores (I,), weighted tensor (U, N, I)).
    """
    coef = inv[:, None] - np.concatenate([[0.0], inv])[None, :]
    p = wc * coef[:, :, None]
    return p.max(axis=0).sum(axis=0), p


def _lmo(wc: np.ndarray, inv: np.ndarray):
    """Best vertex for the linearized objective.

    Returns (pattern index, per-server user assignment, score).  Every
    server serves the first user of largest entry; where that entry is 0
    this is the first user the server has zero efficiency to.
    """
    scores, p = pattern_scores(wc, inv)
    i_star = int(np.argmax(scores))
    assign = p[:, :, i_star].argmax(axis=0)
    return i_star, tuple(assign.tolist()), float(scores[i_star])


def _vertex_rates(wc: np.ndarray, patterns: np.ndarray, assign: np.ndarray) -> np.ndarray:
    """Effective-rate vectors of vertices, one row per vertex.

    Vertex k gives pattern patterns[k] all the time, with server n serving
    user assign[n, k]; a server with zero efficiency to its user adds
    nothing.  What a relay server sends is subtracted from the rate of the
    user that owns the relay.
    """
    num_users, num_servers, _ = wc.shape
    num_vertices = len(patterns)
    vals = wc[assign, np.arange(num_servers)[:, None], patterns[None, :]]  # (N, K)
    rows = assign + num_users * np.arange(num_vertices)[None, :]
    phi = np.bincount(rows.ravel(), weights=vals.ravel(), minlength=num_vertices * num_users)
    phi = phi.reshape(num_vertices, num_users)
    phi -= vals[1:].T
    return phi


_MAX_NEWTON_ROUNDS = 2  # Newton steps per re-optimization; re-solves after a drop are free
_PRUNE_FLOOR = 1e-16  # active-set weight under which a vertex is dropped


class _ActiveSet:
    """Vertices of the current iterate with their convex weights."""

    def __init__(self, num_users: int):
        self._cap = 64
        self.phi = np.zeros((self._cap, num_users))
        self.w = np.zeros(self._cap)
        self.keys: list[tuple[int, tuple[int, ...]]] = []
        self.index: dict[tuple[int, tuple[int, ...]], int] = {}
        self.dropped = 0  # vertices pruned so far
        self.peak = 0  # largest size reached

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
        self.peak = max(self.peak, n + 1)
        return n

    def prune(self) -> None:
        """Drop the vertices whose weight fell under _PRUNE_FLOOR, keeping order."""
        n = len(self.keys)
        if self.w[:n].min() >= _PRUNE_FLOOR:
            return
        keep = np.flatnonzero(self.w[:n] >= _PRUNE_FLOOR)
        self.phi[: len(keep)] = self.phi[keep]
        self.w[: len(keep)] = self.w[keep]
        self.keys = [self.keys[k] for k in keep]
        self.index = {key: k for k, key in enumerate(self.keys)}
        self.dropped += n - len(keep)

    def normalize(self) -> None:
        n = len(self.keys)
        self.w[:n] /= self.w[:n].sum()

    def rates(self) -> np.ndarray:
        n = len(self.keys)
        return self.phi[:n].T @ self.w[:n]


def _corrective_newton(active: "_ActiveSet", eps: float) -> tuple[int, bool]:
    """Re-optimize the weights over the current vertices (simplex Newton).

    Takes at most _MAX_NEWTON_ROUNDS Armijo-damped Newton steps of the
    equality-constrained problem and drops the vertices a step drives to
    zero weight.  A vertex at weight 0 (an oracle vertex just added) whose
    Newton component is negative is dropped instead of capping the step
    at 0, and the system is solved again over the rest; that re-solve is
    not a step.  Returns the number of KKT solves and whether any weight
    moved.
    """
    rounds = steps = 0
    moved = False
    while steps < _MAX_NEWTON_ROUNDS:
        n = len(active)
        if n <= 1:
            break
        rounds += 1
        p_mat = active.phi[:n]
        w = active.w[:n].copy()
        r = p_mat.T @ w
        slope, curv = _phi_derivs(r, eps)
        kkt = np.ones((n + 1, n + 1))
        kkt[n, n] = 0.0
        kkt[:n, :n] = (p_mat * curv) @ p_mat.T
        h_diag = kkt.reshape(-1)[: n * (n + 2) : n + 2]  # view of the Hessian's diagonal
        h_diag += 1e-10 * (h_diag.sum() / n + 1.0)
        rhs = np.zeros(n + 1)
        rhs[:n] = p_mat @ slope
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            break
        dw = sol[:n]
        if np.any(dw[w <= 0] < 0):
            active.prune()
            continue
        steps += 1
        g_dot_d = float(rhs[:n] @ dw)  # the squared Newton decrement
        f0 = float(_phi(r, eps).sum())
        if g_dot_d <= 1e-13 * (abs(f0) + 1.0) or np.abs(dw).max() < 1e-18:
            break  # no gain that the Armijo test could resolve
        neg = dw < 0
        t_max = 1.0
        if neg.any():
            t_max = min(1.0, float(np.min(w[neg] / -dw[neg])))
        t = t_max
        accepted = False
        for _ in range(40):
            r_new = p_mat.T @ (w + t * dw)
            if float(_phi(r_new, eps).sum()) > f0 + 1e-4 * t * g_dot_d:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
        active.w[:n] = np.maximum(w + t * dw, 0.0)
        active.prune()
        active.normalize()
        moved = True
        if t * g_dot_d < 1e-14 * (abs(f0) + 1.0):
            break  # negligible improvement left on this vertex set
    return rounds, moved


def _active_set(wc: np.ndarray, patterns: np.ndarray, assign: np.ndarray, weights: np.ndarray) -> _ActiveSet:
    """Active set over the vertices (patterns[k], assign[:, k]) with the
    given weights; vertices that are equal merge their weights."""
    phi = _vertex_rates(wc, patterns, assign)
    active = _ActiveSet(wc.shape[0])
    for k, w in enumerate(weights):
        idx = active.add((int(patterns[k]), tuple(assign[:, k].tolist())), phi[k])
        active.w[idx] += w
    return active


def _first_zero(wc: np.ndarray, patterns: np.ndarray) -> np.ndarray:
    """First user each server has zero efficiency to under patterns[k],
    shape (N, K).

    This is the user the oracle gives a server whose best entry is 0, so a
    vertex that records its idle servers this way is held under the
    oracle's key.
    """
    servers = np.arange(wc.shape[1])[:, None]
    return (wc[:, servers, patterns[None, :]] == 0).argmax(axis=0)


def _sparse_start(wc: np.ndarray, link: np.ndarray):
    """One vertex per user, as (patterns, assign, weights) with equal
    weights; link[u, n] is user u's largest efficiency from server n.

    In user u's vertex the BS serves u alone, on the pattern of u's largest
    BS efficiency, and every other server serves the first user it has
    zero efficiency to (_first_zero), so the vertex is held under the
    oracle's key and drains no one: what a relay forwards comes out of its
    owner's rate.  A user the BS never reaches is served instead by its
    best server, on that server's best pattern for it.  Ties go to the
    lower index.
    """
    num_users = wc.shape[0]
    users = np.arange(num_users)
    servers = np.where(link[:, 0] > 0, 0, link.argmax(axis=1))
    patterns = wc[users, servers].argmax(axis=1)
    assign = _first_zero(wc, patterns)
    assign[servers, users] = users
    return patterns, assign, np.full(num_users, 1.0 / num_users)


def _warm_start(vertices: tuple, wc: np.ndarray):
    """An earlier solution's vertices, on the table wc, as (patterns,
    assign, weights).

    A server with zero efficiency to its user in wc (one whose user a
    masked table forbids) is recorded as serving the first user it has
    zero efficiency to (_first_zero), so that one vertex is not held twice
    under two keys.
    """
    patterns = np.array([i for (i, _), _ in vertices])
    assign = np.array([a for (_, a), _ in vertices]).T  # (N, K)
    servers = np.arange(assign.shape[0])[:, None]
    assign = np.where(wc[assign, servers, patterns[None, :]] == 0, _first_zero(wc, patterns), assign)
    return patterns, assign, np.array([w for _, w in vertices])


def _fw_solve(rate_table: RateTable, options: SolverOptions, start: tuple = ()) -> Allocation:
    wc = rate_table.bandwidth_hz * rate_table.c
    link = wc.max(axis=2)  # (U, N): each user's best efficiency from each server
    if not np.all(link.max(axis=1) > 0):
        raise InfeasibleError("a user has no positive-efficiency link under this pattern set")

    tol = options.tolerance
    eps = 1e-8 * float(link.max())
    active = _active_set(wc, *(_warm_start(start, wc) if start else _sparse_start(wc, link)))
    active.normalize()

    counts = dict.fromkeys(("fw_steps", "polish_only", "newton_rounds", "shrinks"), 0)
    it = 0
    while it < options.max_iters:
        it += 1
        r = active.rates()
        min_r = float(r.min())
        inv = _phi_derivs(r, eps)[0]
        obj = float(_phi(r, eps).sum())

        i_star, assign, score = _lmo(wc, inv)
        gap_fw = score - float(np.dot(inv, r))

        if gap_fw <= tol * max(abs(obj), 1.0):
            if min_r >= eps:
                # exit on the certificate that is returned, whose rates are
                # recomputed from (x, y) and may differ in the last bits
                alloc = _assemble(rate_table, active, it, True, counts)
                if alloc.fw_gap <= tol * max(abs(alloc.objective), 1.0):
                    return alloc
            else:
                # surrogate optimal but some rate still under the floor
                counts["shrinks"] += 1
                if counts["shrinks"] > 6:
                    break
                eps = eps * 1e-3 if min_r <= 0 else min(eps * 1e-3, 0.25 * min_r)
                continue

        # fully corrective step: add the oracle vertex at weight 0, then
        # re-optimize the weights over every held vertex
        key = (i_star, assign)
        held = key in active.index
        if held:
            counts["polish_only"] += 1
        else:
            counts["fw_steps"] += 1
            active.add(key, _vertex_rates(wc, np.array([i_star]), np.array([assign]).T)[0])
        rounds, moved = _corrective_newton(active, eps)
        counts["newton_rounds"] += rounds
        if held and not moved:
            break  # the next iteration would repeat this one

    r = active.rates()
    if float(r.min()) <= 0.0:
        raise InfeasibleError("no strictly positive effective-rate point found")
    return _assemble(rate_table, active, it, False, counts)


def _certificate(wc: np.ndarray, rates: Rates) -> float:
    """The Frank-Wolfe gap, with the exact gradient at rates."""
    inv = 1.0 / rates.r_eff
    return float(pattern_scores(wc, inv)[0].max()) - float(np.dot(inv, rates.r_eff))


def _assemble(rate_table: RateTable, active: _ActiveSet, iterations: int, converged: bool, counts: dict) -> Allocation:
    num_users, num_servers, num_patterns = rate_table.c.shape
    x = np.zeros(num_patterns)
    y = np.zeros((num_users, num_servers, num_patterns))
    servers = np.arange(num_servers)
    for idx, (i, assign) in enumerate(active.keys):
        w = float(active.w[idx])
        x[i] += w
        y[list(assign), servers, i] += w
    rates = rates_from_allocation(rate_table, y)
    objective = float(np.log(rates.r_eff).sum())
    fw_gap = _certificate(rate_table.bandwidth_hz * rate_table.c, rates)
    vertices = tuple((key, float(w)) for key, w in zip(active.keys, active.w))
    return Allocation(
        x=x, y=y, rates=rates, objective=objective, fw_gap=fw_gap, iterations=iterations,
        converged=converged, vertices=vertices, patterns=rate_table.patterns,
        stats=SolveStats(**counts, dropped=active.dropped, peak_active=active.peak),
    )


def _carry(start: Allocation, rate_table: RateTable) -> tuple:
    """start's vertices on rate_table's columns, matched by pattern mask,
    less those of patterns the table lacks (the solve renormalizes)."""
    column = {p.mask: k for k, p in enumerate(rate_table.patterns)}
    masks = [p.mask for p in start.patterns]
    return tuple(((column[masks[i]], assign), w) for (i, assign), w in start.vertices if masks[i] in column)


def solve_allocation(
    rate_table: RateTable, options: SolverOptions = SolverOptions(), start: Optional[Allocation] = None
) -> Allocation:
    """Maximize the PF objective over all fractional associations.

    Active servers split their pattern time fully across users (equality
    coupling), so each returned y column sums to the pattern share.  With
    start given (an allocation of the same scenario, on any table), the
    solve begins at start's vertices on the patterns this table holds, and
    iterations count from that point; when it holds none of them, the
    solve starts cold.  Raises InfeasibleError when no all-positive-rate
    point exists; a run that exhausts the iteration budget returns its
    best iterate with converged=False.
    """
    return _fw_solve(rate_table, options, _carry(start, rate_table) if start is not None else ())


def solve_fixed_association(
    rate_table: RateTable,
    z: np.ndarray,
    options: SolverOptions = SolverOptions(),
    start: Optional[Allocation] = None,
) -> Allocation:
    """PF allocation with a frozen single-server association.

    z[u, n, i] is a binary, one-hot server choice per (user, pattern).  The
    relaxed problem is solved on the table masked by z, whose forbidden
    entries are 0, and the returned y is restricted to z.  Time shares obey
    the one-sided cap per server and pattern: a server with no profitable
    user under some pattern serves one it has zero efficiency to, which
    the restriction removes, so its y column sums to less than the pattern
    share.  With start given (an allocation on the same table, typically
    the relaxed one that z was rounded from), the solve begins at its
    vertices; iterations then count from that point.  When the start
    carries rate only on z and already certifies on the masked table, it
    is returned restricted to z, as a solve that exits at its first
    iteration.
    """
    z = np.asarray(z)
    if z.shape != rate_table.c.shape:
        raise ValueError("z must match the rate table shape")
    if not np.all((z == 0) | (z == 1)):
        raise ValueError("z must hold only 0 and 1")
    if not np.all(z.sum(axis=1) == 1):
        raise ValueError("each (user, pattern) must be associated to exactly one server")
    if start is not None and start.x.shape != (rate_table.num_patterns,):
        raise ValueError("start must be an allocation on the same rate table")
    masked = RateTable(rate_table.patterns, rate_table.c * z, rate_table.bandwidth_hz)
    if start is not None and not np.any(start.y * rate_table.c * (z == 0)):
        # Rounding lost no rate, so the start's rates are its rates on the
        # masked table.  If they certify there, the warm-started solve would
        # rebuild them from the start's vertices only to exit at its first
        # iteration; that exit is taken here, on the same rate floor and
        # certificate, with the same counts.
        wc = masked.bandwidth_hz * masked.c
        fw_gap = _certificate(wc, start.rates)
        if (float(start.rates.r_eff.min()) >= 1e-8 * float(wc.max())
                and fw_gap <= options.tolerance * max(abs(start.objective), 1.0)):
            return dataclasses.replace(
                start, y=start.y * z, fw_gap=fw_gap, iterations=1, converged=True,
                stats=SolveStats(peak_active=len(start.vertices)),
            )
    alloc = _fw_solve(masked, options, start=start.vertices if start is not None else ())
    return dataclasses.replace(alloc, y=alloc.y * z)
