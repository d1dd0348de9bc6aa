"""Physical network model: geometry, path loss, link efficiencies, and rate
bookkeeping.

One cell: server 0 is the base station and server 1+u is the D2D relay
of user u, so N = 1 + U.  User u receives at node 1+u.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .patterns import Pattern

DISTANCE_FLOOR_M = 1.0
EFFICIENCY_FLOOR = 1e-12  # bits/s/Hz below this are treated as zero
_BLOCK_ENTRIES = 1 << 16  # (pattern, server, user) entries per efficiency block


@dataclass(frozen=True)
class PathLossParams:
    """Coefficients of the a*log10(d_m) + b + w_db*n_w model (dB)."""

    a: float = 37.6
    b: float = 35.3
    w_db: float = 5.0


# JSON kinds that read_json checks: numpy dtype kinds, then their wording
_JSON_KINDS = {int: ("iu", "an integer", "integers"), float: ("iuf", "a number", "numbers"),
               str: ("U", "a string", "strings")}


def _json_value(value, kind, name: str):
    """value as kind (int, float or str), or as a numpy array of kind [int]
    or [float]; a JSON value of another kind is a ValueError naming name."""
    array = isinstance(kind, list)
    base = kind[0] if array else kind
    dtype_kinds, one, many = _JSON_KINDS[base]
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        arr = np.asarray(None)
    if arr.dtype.kind not in dtype_kinds or (arr.ndim > 0) != array:
        what = f"an array of {many}" if array else one
        raise ValueError(f"{name} must be {what}, got {json.dumps(value, default=repr)[:60]}")
    return arr.astype(base) if array else base(value)


def read_json(obj, kinds: dict, name: str, section: str | None = None, required=(), nullable=()) -> dict:
    """The entries of obj, a JSON object named name ("scenario", "config"),
    or its section `section`, checked against kinds.

    kinds maps every key that obj may hold to the kind of its value: int,
    float or str for a JSON integer, number or string, [int] or [float] for
    an array of integers or numbers, a dict of kinds for a section, or None
    for a value that the caller checks.  Values come back as Python scalars,
    numpy arrays and dicts.  A key in nullable may be null, which reads as
    absent.  A value that is not an object, an unknown key, a missing
    required key or a value of another kind is a ValueError that names the
    key, as in "config solver.max_iters must be an integer, got 2.5".
    """
    if not isinstance(obj, dict):
        raise ValueError(f"{name} section {section} must be an object" if section else f"{name} must be an object")
    unknown = sorted(set(obj) - set(kinds))
    if unknown:
        what = f"{section} option(s)" if section else "option(s)"
        raise ValueError(f"unknown {what} in {name}: {', '.join(unknown)}")
    prefix = f"{name} {section}." if section else f"{name} "
    out = {}
    for key, kind in kinds.items():
        value = obj.get(key)
        if key not in obj or value is None and key in nullable:
            if key in required:
                raise ValueError(f"{prefix}{key} is required")
        elif isinstance(kind, dict):
            out[key] = read_json(value, kind, name, key)
        else:
            out[key] = value if kind is None else _json_value(value, kind, prefix + key)
    return out


# The keys of a scenario file, in the order to_dict writes them: the
# Scenario field that each one holds and the kind of its JSON value (see
# read_json).  A file may also hold "num_bs": 1, which earlier versions wrote.
SCENARIO_KEYS = {
    "num_due": ("num_due", int),
    "positions_m": ("positions", [float]),
    "tx_power_dbm": ("tx_power_dbm", [float]),
    "bandwidth_hz": ("bandwidth_hz", float),
    "noise_psd_dbm_hz": ("noise_psd_dbm_hz", float),
    "pathloss": ("pathloss", {f.name: float for f in fields(PathLossParams)}),
    "walls": ("walls", [int]),
    "seed": ("seed", int),
}


@dataclass(frozen=True)
class Scenario:
    """Static downlink network description.

    positions holds all 1+U node coordinates in meters (the BS first);
    walls[n, u] is the wall count on the link from server n to user u.
    """

    num_due: int
    positions: np.ndarray
    tx_power_dbm: np.ndarray
    bandwidth_hz: float = 2.0e7
    noise_psd_dbm_hz: float = -174.0
    pathloss: PathLossParams = field(default_factory=PathLossParams)
    walls: np.ndarray | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.num_due < 1:
            raise ValueError("need at least one DUE")
        n = self.num_servers
        pos = np.asarray(self.positions, dtype=float)
        if pos.shape != (n, 2):
            raise ValueError(f"positions must be ({n}, 2), got {pos.shape}")
        pw = np.asarray(self.tx_power_dbm, dtype=float)
        if pw.shape != (n,):
            raise ValueError(f"tx_power_dbm must have {n} entries")
        pl = self.pathloss
        finite = {"positions": pos, "tx_power_dbm": pw, "bandwidth_hz": self.bandwidth_hz,
                  "noise_psd_dbm_hz": self.noise_psd_dbm_hz, "pathloss.a": pl.a, "pathloss.b": pl.b,
                  "pathloss.w_db": pl.w_db}
        for name, value in finite.items():
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite")
        if not self.bandwidth_hz > 0:
            raise ValueError("bandwidth must be positive")
        walls = self.walls
        if walls is None:
            walls = np.zeros((n, self.num_due), dtype=int)
        else:
            walls = np.asarray(walls, dtype=int)
            if walls.shape != (n, self.num_due):
                raise ValueError(f"walls must be ({n}, {self.num_due})")
            if np.any(walls < 0):
                raise ValueError("wall counts must be nonnegative")
        for name, arr in (("positions", pos), ("tx_power_dbm", pw), ("walls", walls)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def num_servers(self) -> int:
        return 1 + self.num_due

    def powers_w(self) -> np.ndarray:
        return dbm_to_watts(self.tx_power_dbm)

    def to_dict(self) -> dict:
        doc = {key: getattr(self, attr) for key, (attr, _) in SCENARIO_KEYS.items()}
        doc["pathloss"] = asdict(self.pathloss)
        return {key: v.tolist() if isinstance(v, np.ndarray) else v for key, v in doc.items()}

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        """Inverse of to_dict; an unknown or missing key or a value of the
        wrong type is a ValueError naming the key.  The BS count that
        earlier versions wrote is accepted only as 1."""
        kinds = {key: kind for key, (_, kind) in SCENARIO_KEYS.items()}
        values = read_json(d, {**kinds, "num_bs": int}, "scenario",
                           required=("num_due", "positions_m", "tx_power_dbm"), nullable=("walls", "seed"))
        if values.pop("num_bs", 1) != 1:
            raise ValueError(f"scenario num_bs must be 1, got {json.dumps(d['num_bs'])}")
        if "pathloss" in values:
            values["pathloss"] = PathLossParams(**values["pathloss"])
        return cls(**{SCENARIO_KEYS[key][0]: value for key, value in values.items()})

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "Scenario":
        return cls.from_dict(json.loads(Path(path).read_text()))


@dataclass(frozen=True)
class GainMatrix:
    """Linear power gains g[n, u] plus the noise power over the full band."""

    g: np.ndarray
    noise_power_w: float
    clamped_links: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        g = np.asarray(self.g, dtype=float)
        if np.any(g < 0):
            raise ValueError("gains must be nonnegative")
        if not self.noise_power_w > 0:
            raise ValueError("noise power must be positive")
        g.setflags(write=False)
        object.__setattr__(self, "g", g)


@dataclass(frozen=True)
class RateTable:
    """Spectral efficiencies c[u, n, i] for an ordered list of patterns."""

    patterns: tuple[Pattern, ...]
    c: np.ndarray
    bandwidth_hz: float

    def __post_init__(self) -> None:
        c = np.asarray(self.c, dtype=float)
        c.setflags(write=False)
        object.__setattr__(self, "c", c)

    @property
    def num_bs(self) -> int:
        """Always 1: the model has one BS, server 0."""
        return 1

    @property
    def num_users(self) -> int:
        return self.c.shape[0]

    @property
    def num_servers(self) -> int:
        return self.c.shape[1]

    @property
    def num_patterns(self) -> int:
        return self.c.shape[2]


@dataclass(frozen=True)
class Rates:
    """Per-user received, per-server relay-serving, and effective rates (bits/s)."""

    r_bar: np.ndarray
    r_tilde: np.ndarray
    r_eff: np.ndarray


def dbm_to_watts(p_dbm: float | np.ndarray) -> float | np.ndarray:
    return 10.0 ** (np.asarray(p_dbm, dtype=float) / 10.0) / 1000.0


def path_loss_db(
    d_m: float | np.ndarray, n_w: int | np.ndarray = 0, params: PathLossParams = PathLossParams()
) -> float | np.ndarray:
    """Distance- and wall-dependent attenuation in dB, elementwise on arrays."""
    if np.any(np.asarray(d_m) <= 0):
        raise ValueError("distance must be positive")
    if np.any(np.asarray(n_w) < 0):
        raise ValueError("wall count must be nonnegative")
    return params.a * np.log10(d_m) + params.b + params.w_db * n_w


def build_gains(scenario: Scenario) -> GainMatrix:
    """Average channel gains for every server-to-user link.

    Distances below the 1 m floor are clamped (and reported); the
    self-link g[1+u, u] is forced to zero since a DUE never serves itself.
    """
    u = scenario.num_due
    rx = scenario.positions[1:]  # user u receives at node 1+u
    tx = scenario.positions
    d = np.linalg.norm(tx[:, None, :] - rx[None, :, :], axis=2)
    own = (1 + np.arange(u), np.arange(u))  # self-links g[1+u, u]
    near = d < DISTANCE_FLOOR_M
    near[own] = False
    clamped = tuple(map(tuple, np.argwhere(near).tolist()))  # row-major: (n, u) order
    d = np.maximum(d, DISTANCE_FLOOR_M)
    pl = path_loss_db(d, scenario.walls, scenario.pathloss)
    g = 10.0 ** (-pl / 10.0)
    g[own] = 0.0
    noise_dbm = scenario.noise_psd_dbm_hz + 10.0 * np.log10(scenario.bandwidth_hz)
    return GainMatrix(g=g, noise_power_w=float(dbm_to_watts(noise_dbm)), clamped_links=clamped)


def pattern_efficiencies(scenario: Scenario, gains: GainMatrix, patterns: Sequence[Pattern]) -> np.ndarray:
    """Efficiency tensor c[u, n, k] of K patterns, built in blocks of patterns.

    Each block's SINR is formed in place in a (k, N, U) buffer, so the
    temporaries never outgrow one block, and is copied into the (U, N, K)
    output.  A user whose own relay transmits cannot receive, and
    efficiencies below EFFICIENCY_FLOOR are zero.
    """
    n, u = scenario.num_servers, scenario.num_due
    pats = tuple(patterns)
    if any(p.n_servers != n for p in pats):
        raise ValueError(f"patterns must have {n} servers")
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join(p.mask.to_bytes(width, "little") for p in pats), dtype=np.uint8)
    on = np.unpackbits(packed.reshape(len(pats), width), axis=1, count=n, bitorder="little").astype(bool)
    pg = scenario.powers_w()[:, None] * gains.g  # (N, U) received power of a server that is on
    # Server-major storage: the summation order of every later reduction
    # over the table follows its memory layout.
    out = np.empty((n, u, len(pats)))
    step = max(1, _BLOCK_ENTRIES // (n * u))
    rx = np.empty((min(step, len(pats)), n, u))
    den = np.empty_like(rx)
    for k0 in range(0, len(pats), step):
        blk = on[k0 : k0 + step]
        k = len(blk)
        r, d = rx[:k], den[:k]
        np.multiply(pg, blk[:, :, None].astype(float), out=r)
        # servers are summed in index order, per user, as in a one-pattern sum
        np.subtract(r.sum(axis=1)[:, None, :], r, out=d)  # interference
        d += gains.noise_power_w
        np.divide(r, d, out=d)  # SINR; zero where the server is off
        d += 1.0
        np.log2(d, out=d)
        d.transpose(0, 2, 1)[blk[:, 1:]] = 0.0  # user transmitting as relay cannot receive
        np.putmask(d, d < EFFICIENCY_FLOOR, 0.0)
        out[:, :, k0 : k0 + k] = d.transpose(1, 2, 0)
    return out.transpose(1, 0, 2)


def build_rate_table(scenario: Scenario, gains: GainMatrix, patterns: Sequence[Pattern]) -> RateTable:
    """Efficiency tensor over a duplicate-free pattern list, from one
    blocked pattern_efficiencies call."""
    pats = tuple(patterns)
    if not pats:
        raise ValueError("pattern list must be nonempty")
    if len({p.mask for p in pats}) != len(pats):
        raise ValueError("duplicate patterns")
    c = pattern_efficiencies(scenario, gains, pats)
    return RateTable(patterns=pats, c=c, bandwidth_hz=scenario.bandwidth_hz)


def select_columns(table: RateTable, patterns: Sequence[Pattern]) -> RateTable:
    """The rate table over patterns, all of which table holds, in the
    server-major layout that build_rate_table gives (reductions over users
    then run across patterns, as on a table built directly)."""
    column = {p.mask: k for k, p in enumerate(table.patterns)}
    cols = [column[p.mask] for p in patterns]
    c = table.c.transpose(1, 0, 2).take(cols, axis=2).transpose(1, 0, 2)
    return RateTable(tuple(patterns), c, table.bandwidth_hz)


def rates_from_allocation(rate_table: RateTable, y: np.ndarray) -> Rates:
    """Average, relay-serving, and effective rates of the per-user time
    shares y[u, n, i]."""
    w = rate_table.bandwidth_hz
    contrib = y * rate_table.c  # (U, N, I)
    r_bar = w * contrib.sum(axis=(1, 2))
    r_tilde = w * contrib.sum(axis=(0, 2))
    r_eff = r_bar - r_tilde[1:]
    return Rates(r_bar=r_bar, r_tilde=r_tilde, r_eff=r_eff)
