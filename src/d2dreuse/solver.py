"""Proportional-fairness time allocation over a fixed pattern set.

The concave program (maximize sum of log effective rates over the
time-share polytope) is solved by fully corrective Frank-Wolfe
(simplicial decomposition).  The linear oracle decomposes exactly: pick
one pattern, then for each server the user with the largest gradient
entry, so every iterate is an explicit convex combination of (pattern,
per-server user assignment) vertices.  A vertex is its pattern and its
rate vector, the only part of it the objective sees.  Each iteration
that does not certify adds the oracle vertex at weight 0 (unless it is
already held) and re-optimizes the weights over all held vertices with
at most two steps of Newton's method on the simplex, which drop the
vertices they drive to zero weight; that is the one weight update, with
no step-size search and no schedule.  Two rules keep it moving: a vertex
at weight 0 whose Newton component is negative leaves the active set,
and the system is solved again over the rest without using up a step;
and an iteration whose oracle vertex is already held and whose
re-optimization moves no weight ends the solve, as the next would
repeat it.

Each weight update leaves one rate state, from which the next oracle
call, certificate test and Newton round start: the rates phi.T @ w of
the vertex rates and weights, the log's slope and curvature there, and
the objective.  The solve returns its exit state: the rates, objective
and fw_gap are that state's, and y, assembled from the same vertices,
agrees with those rates to round-off.  Every exit tests that state, so
converged says whether fw_gap certifies.

A cold start is one vertex per user (an optimum needs only about U
active patterns, by Caratheodory): the BS serves that user alone on its
best BS pattern and every relay serves its own user.  Relaying is
zero-sum in effective rate (what a relay forwards comes out of its
owner's rate), so these vertices drain no one, and their uniform mix
gives every user the BS reaches a positive rate.  A caller may instead
start from an earlier solution on any table of the same scenario (see
solve_allocation).  No start is re-optimized before its first test.

Strict rate positivity is handled with a tangent-extended logarithm:
below a small rate floor the log is continued linearly, which keeps the
surrogate concave and finite everywhere.  Above the floor the surrogate
and the true log share value and gradient, so the Frank-Wolfe gap
transfers; an exit with a rate under the floor is tested on the true log.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

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
    already held (polish_only), shrinks the rate floor, or certifies and
    returns; each of the first two re-optimizes the weights.  A solve that
    stops otherwise tests the state it returns within its last iteration.
    So fw_steps + polish_only + shrinks equals the iteration count, plus 1
    when the solve certified at the start of an iteration.
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
    # ((Pattern, per-server user), weight) pairs of the returned convex
    # combination; a later solve on any table of the scenario can start from them
    vertices: tuple = field(default=(), repr=False, compare=False)
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


def _lmo(wc: np.ndarray, inv: np.ndarray, r: np.ndarray):
    """Best vertex for the objective linearized at rates r with slope inv.

    Returns (pattern index, per-server user assignment, Frank-Wolfe gap),
    the gap being the vertex's score less inv . r.  Every server serves
    the first user of largest entry; which user a server whose largest
    entry is 0 serves does not change the vertex's rates.
    """
    scores, p = pattern_scores(wc, inv)
    i_star = int(np.argmax(scores))
    assign = p[:, :, i_star].argmax(axis=0)
    return i_star, assign, float(scores[i_star]) - float(np.dot(inv, r))


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


_RATE_FLOOR = 1e-8  # the surrogate log's starting floor, relative to the largest efficiency
_MAX_NEWTON_ROUNDS = 2  # Newton steps per re-optimization; re-solves after a drop are free
_PRUNE_FLOOR = 1e-16  # active-set weight under which a vertex is dropped


class _RateState(NamedTuple):
    """Rates phi.T @ w of an active set, _phi's slope and curvature there, and the surrogate objective."""

    r: np.ndarray
    slope: np.ndarray
    curv: np.ndarray
    obj: float


class _ActiveSet:
    """Vertices of the current iterate with their convex weights.

    Vertex k gives pattern pat[k] all the time, with server n serving user
    asg[k, n]; phi[k] is its effective-rate vector and w[k] its weight.
    """

    def __init__(self, wc: np.ndarray, patterns: np.ndarray, assign: np.ndarray, weights: np.ndarray):
        self.pat = patterns  # (K,)
        self.asg = assign.T  # (K, N)
        self.phi = _vertex_rates(wc, patterns, assign)  # (K, U)
        self.w = np.array(weights, dtype=float)  # a copy: normalize divides in place
        self.dropped = 0  # vertices pruned so far
        self.peak = len(patterns)  # largest size reached

    def __len__(self) -> int:
        return len(self.pat)

    def find(self, i: int, phi_row: np.ndarray) -> int:
        """Index of the held vertex on pattern i with rate vector phi_row,
        or -1 when it is not held; its assignment may differ in which user
        a server with nothing to give serves."""
        for k in np.flatnonzero(self.pat == i):
            if (self.phi[k] == phi_row).all():
                return int(k)
        return -1

    def add(self, i: int, assign: np.ndarray, phi_row: np.ndarray) -> None:
        """Append the vertex (i, assign) at weight 0."""
        self.pat = np.concatenate((self.pat, [i]))
        self.asg = np.concatenate((self.asg, assign[None]))
        self.phi = np.concatenate((self.phi, phi_row[None]))
        self.w = np.concatenate((self.w, [0.0]))
        self.peak = max(self.peak, len(self.pat))

    def prune(self) -> None:
        """Drop the vertices whose weight fell under _PRUNE_FLOOR, keeping order."""
        keep = self.w >= _PRUNE_FLOOR
        if keep.all():
            return
        self.dropped += len(keep) - int(keep.sum())
        self.pat, self.asg, self.phi, self.w = self.pat[keep], self.asg[keep], self.phi[keep], self.w[keep]

    def normalize(self) -> None:
        self.w /= self.w.sum()

    def rates(self) -> np.ndarray:
        return self.phi.T @ self.w

    def state(self, eps: float) -> _RateState:
        r = self.rates()
        return _RateState(r, *_phi_derivs(r, eps), float(_phi(r, eps).sum()))


def _corrective_newton(active: "_ActiveSet", eps: float, state: _RateState) -> tuple[int, bool, _RateState]:
    """Re-optimize the weights over the current vertices (simplex Newton).

    Takes at most _MAX_NEWTON_ROUNDS Armijo-damped Newton steps of the
    equality-constrained problem and drops the vertices a step drives to
    zero weight.  A vertex at weight 0 (an oracle vertex just added) whose
    Newton component is negative is dropped instead of capping the step
    at 0, and the system is solved again over the rest; that re-solve is
    not a step.  The first round starts from state, that of the weights as
    they come in.  Returns the KKT solve count, whether any weight moved,
    and the state of the weights it leaves, recomputed after any change and
    when none moved (a vertex added at weight 0 can move their last bits).
    """
    rounds, steps, moved, stale = 0, 0, False, False
    while steps < _MAX_NEWTON_ROUNDS:
        n = len(active)
        if n <= 1:
            break
        if stale:
            state, stale = active.state(eps), False
        rounds += 1
        p_mat, w = active.phi, active.w
        kkt = np.ones((n + 1, n + 1))
        kkt[n, n] = 0.0
        kkt[:n, :n] = (p_mat * state.curv) @ p_mat.T
        h_diag = kkt.reshape(-1)[: n * (n + 2) : n + 2]  # view of the Hessian's diagonal
        h_diag += 1e-10 * (h_diag.sum() / n + 1.0)
        rhs = np.zeros(n + 1)
        rhs[:n] = p_mat @ state.slope
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            break
        dw = sol[:n]
        if np.any(dw[w <= 0] < 0):
            active.prune()
            stale = True
            continue
        steps += 1
        g_dot_d = float(rhs[:n] @ dw)  # the squared Newton decrement
        f0 = state.obj
        if g_dot_d <= 1e-13 * (abs(f0) + 1.0) or np.abs(dw).max() < 1e-18:
            break  # no gain that the Armijo test could resolve
        neg = dw < 0
        t = min(1.0, float(np.min(w[neg] / -dw[neg]))) if neg.any() else 1.0
        for _ in range(40):
            if float(_phi(p_mat.T @ (w + t * dw), eps).sum()) > f0 + 1e-4 * t * g_dot_d:
                break
            t *= 0.5
        else:
            break  # no Armijo point
        active.w = np.maximum(w + t * dw, 0.0)
        active.prune()
        active.normalize()
        moved = stale = True
        if t * g_dot_d < 1e-14 * (abs(f0) + 1.0):
            break  # negligible improvement left on this vertex set
    return rounds, moved, active.state(eps) if stale or not moved else state


def _sparse_start(wc: np.ndarray, link: np.ndarray):
    """One vertex per user, as (patterns, assign, weights) with equal
    weights; link[u, n] is user u's largest efficiency from server n.

    In user u's vertex the BS serves u alone, on the pattern of u's largest
    BS efficiency, and every relay serves its own user, which drains no
    one: what a relay forwards comes out of its owner's rate.  A user the
    BS never reaches is served instead by its best server, on that
    server's best pattern for it.  Ties go to the lower index.
    """
    num_users = wc.shape[0]
    users = np.arange(num_users)
    servers = np.where(link[:, 0] > 0, 0, link.argmax(axis=1))
    patterns = wc[users, servers].argmax(axis=1)
    assign = np.vstack((users, np.broadcast_to(users[:, None], (num_users, num_users))))  # relay 1+v serves v
    assign[servers, users] = users
    return patterns, assign, np.full(num_users, 1.0 / num_users)


def _carry(start: Allocation, rate_table: RateTable):
    """start's vertices on rate_table's columns, matched by pattern mask,
    as (patterns, assign, weights), less those of patterns the table lacks
    (the solve renormalizes); None when no vertex is left."""
    column = {p.mask: k for k, p in enumerate(rate_table.patterns)}
    kept = [(column[p.mask], assign, w) for (p, assign), w in start.vertices if p.mask in column]
    if not kept:
        return None
    patterns, assign, weights = zip(*kept)
    return np.array(patterns), np.array(assign).T, np.array(weights)


def _fw_solve(rate_table: RateTable, options: SolverOptions, start: Optional[Allocation] = None) -> Allocation:
    wc = rate_table.bandwidth_hz * rate_table.c
    link = wc.max(axis=2)  # (U, N): each user's best efficiency from each server
    if not np.all(link.max(axis=1) > 0):
        raise InfeasibleError("a user has no positive-efficiency link under this pattern set")

    tol = options.tolerance
    eps = _RATE_FLOOR * float(link.max())
    carried = _carry(start, rate_table) if start is not None else None
    active = _ActiveSet(wc, *(carried if carried is not None else _sparse_start(wc, link)))
    active.normalize()

    counts = dict.fromkeys(("fw_steps", "polish_only", "newton_rounds", "shrinks"), 0)
    state = active.state(eps)
    for it in range(1, options.max_iters + 1):
        min_r = float(state.r.min())
        i_star, assign, gap_fw = _lmo(wc, state.slope, state.r)
        if gap_fw <= tol * max(abs(state.obj), 1.0):
            if min_r >= eps:
                # this state and its certificate are the ones returned
                return _assemble(rate_table, wc, active, state, gap_fw, it, True, counts)
            # surrogate optimal but some rate still under the floor
            counts["shrinks"] += 1
            if counts["shrinks"] > 6:
                break
            eps = eps * 1e-3 if min_r <= 0 else min(eps * 1e-3, 0.25 * min_r)
            state = active.state(eps)
            continue

        # fully corrective step: add the oracle vertex at weight 0, then
        # re-optimize the weights over every held vertex
        phi_row = _vertex_rates(wc, np.array([i_star]), assign[:, None])[0]
        held = active.find(i_star, phi_row) >= 0
        if held:
            counts["polish_only"] += 1
        else:
            counts["fw_steps"] += 1
            active.add(i_star, assign, phi_row)
        rounds, moved, state = _corrective_newton(active, eps, state)
        counts["newton_rounds"] += rounds
        if held and not moved:
            break  # the next iteration would repeat this one

    # the other exits test the state they return too, on the true log (eps 0)
    if float(state.r.min()) <= 0.0:
        raise InfeasibleError("no strictly positive effective-rate point found")
    state = active.state(0.0)
    gap_fw = _lmo(wc, state.slope, state.r)[2]
    converged = gap_fw <= tol * max(abs(state.obj), 1.0)
    return _assemble(rate_table, wc, active, state, gap_fw, it, converged, counts)


def _assemble(rate_table: RateTable, wc: np.ndarray, active: _ActiveSet, state: _RateState, fw_gap: float,
              iterations: int, converged: bool, counts: dict) -> Allocation:
    """The allocation of the exit state: its rates, objective and gap, with
    x and y added up from its vertices one by one, in the active set's order."""
    num_users, num_servers, num_patterns = rate_table.c.shape
    x = np.zeros(num_patterns)
    y = np.zeros((num_users, num_servers, num_patterns))
    entries = (active.asg, np.arange(num_servers), active.pat[:, None])
    np.add.at(x, active.pat, active.w)
    np.add.at(y, entries, active.w[:, None])
    served = wc[entries] * active.w[:, None]  # (K, N) rate each vertex's servers give
    rates = Rates(r_bar=np.bincount(active.asg.ravel(), served.ravel(), num_users),
                  r_tilde=served.sum(axis=0), r_eff=state.r)
    vertices = tuple(((rate_table.patterns[i], tuple(assign)), w)
                     for i, assign, w in zip(active.pat.tolist(), active.asg.tolist(), active.w.tolist()))
    return Allocation(
        x=x, y=y, rates=rates, objective=state.obj, fw_gap=fw_gap, iterations=iterations,
        converged=converged, vertices=vertices,
        stats=SolveStats(**counts, dropped=active.dropped, peak_active=active.peak),
    )


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
    point exists.  A solve that exhausts the iteration budget returns its
    last iterate, converged only when that iterate certifies.
    """
    return _fw_solve(rate_table, options, start)


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
        # masked table.  If they certify there, a warm-started solve would
        # exit at its first iteration; that exit is taken here, on the same
        # rate floor and certificate, with the same counts.
        wc = masked.bandwidth_hz * masked.c
        r = start.rates.r_eff
        fw_gap = _lmo(wc, 1.0 / r, r)[2]
        if (float(r.min()) >= _RATE_FLOOR * float(wc.max())
                and fw_gap <= options.tolerance * max(abs(start.objective), 1.0)):
            return dataclasses.replace(
                start, y=start.y * z, fw_gap=fw_gap, iterations=1, converged=True,
                stats=SolveStats(peak_active=len(start.vertices)),
            )
    alloc = _fw_solve(masked, options, start)
    return dataclasses.replace(alloc, y=alloc.y * z)
