"""Time-reuse patterns: bitmask representation, neighborhoods, trimming."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np


@dataclass(frozen=True)
class Pattern:
    """Binary activation vector over the N servers, packed as a bitmask.

    Bit n (counting from the least significant bit) holds the ON/OFF state
    of server n (0-based).  The all-zero pattern (nobody transmits) is not
    representable on purpose.
    """

    mask: int
    n_servers: int

    def __post_init__(self) -> None:
        if self.n_servers < 1:
            raise ValueError(f"n_servers must be positive, got {self.n_servers}")
        if type(self.mask) is not int:  # e.g. a numpy integer; tables read masks with int.to_bytes
            object.__setattr__(self, "mask", operator.index(self.mask))
        if not 0 < self.mask < (1 << self.n_servers):
            raise ValueError(f"pattern mask {self.mask:#x} out of range for {self.n_servers} servers")

    @property
    def active_set(self) -> tuple[int, ...]:
        return tuple(n for n in range(self.n_servers) if (self.mask >> n) & 1)

    def is_active(self, n: int) -> bool:
        return bool((self.mask >> operator.index(n)) & 1)

    def bits(self) -> np.ndarray:
        return np.array([(self.mask >> n) & 1 for n in range(self.n_servers)], dtype=np.int8)

    def flip(self, n: int) -> "Pattern":
        """Toggle server n; raises if the result would be the all-zero pattern."""
        if not 0 <= n < self.n_servers:
            raise ValueError(f"server index {n} out of range")
        return Pattern(self.mask ^ (1 << operator.index(n)), self.n_servers)

    def bitstring(self) -> str:
        """Render with server 1 leftmost, as in schedule tables."""
        return "".join("1" if (self.mask >> n) & 1 else "0" for n in range(self.n_servers))

    @classmethod
    def from_bitstring(cls, s: str) -> "Pattern":
        mask = 0
        for n, ch in enumerate(s):
            if ch == "1":
                mask |= 1 << n
            elif ch != "0":
                raise ValueError(f"invalid bitstring {s!r}")
        return cls(mask, len(s))

    @classmethod
    def from_active(cls, active: Iterable[int], n_servers: int) -> "Pattern":
        # operator.index: a numpy integer would shift in int64 and lose bits >= 64
        mask = 0
        for n in active:
            mask |= 1 << operator.index(n)
        return cls(mask, n_servers)

    @classmethod
    def unit(cls, n: int, n_servers: int) -> "Pattern":
        return cls(1 << operator.index(n), n_servers)


@dataclass(frozen=True)
class PatternSet:
    """Ordered, duplicate-free candidate set of reuse patterns."""

    members: tuple[Pattern, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("pattern set must be nonempty")
        n = self.members[0].n_servers
        if any(p.n_servers != n for p in self.members):
            raise ValueError("patterns in a set must share the server count")
        if len({p.mask for p in self.members}) != len(self.members):
            raise ValueError("duplicate patterns in set")

    def __iter__(self) -> Iterator[Pattern]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, p: Pattern) -> bool:
        return p in self.members

    @property
    def n_servers(self) -> int:
        return self.members[0].n_servers

    def union(self, patterns: Iterable[Pattern]) -> "PatternSet":
        """Append new patterns in order, skipping ones already present."""
        out = list(self.members)
        seen = {p.mask for p in out}
        for p in patterns:
            if p.mask not in seen:
                out.append(p)
                seen.add(p.mask)
        return PatternSet(tuple(out))


def initial_set(num_due: int) -> PatternSet:
    """Starting candidate set: the U patterns {e_0 + e_{1+u}}, the BS
    paired with each potential relay."""
    if num_due < 1:
        raise ValueError("need at least one DUE")
    n = 1 + num_due
    return PatternSet(tuple(Pattern.from_active([0, 1 + u], n) for u in range(num_due)))


def hamming(a: Pattern, b: Pattern) -> int:
    """Number of differing server states (XOR popcount)."""
    if a.n_servers != b.n_servers:
        raise ValueError("patterns have different lengths")
    return bin(a.mask ^ b.mask).count("1")


def flip_neighborhood(pattern_set: PatternSet, n: int) -> list[Pattern]:
    """All patterns reachable by toggling server n in some member.

    Members equal to the singleton e_n are skipped (their flip would be the
    all-zero pattern).  Output is deduplicated, in first-occurrence order.
    """
    unit_mask = 1 << operator.index(n)
    out: list[Pattern] = []
    seen: set[int] = set()
    for p in pattern_set:
        if p.mask == unit_mask:
            continue
        flipped = p.mask ^ unit_mask
        if flipped not in seen:
            seen.add(flipped)
            out.append(Pattern(flipped, p.n_servers))
    return out


def trim(pattern_set: PatternSet, x: Sequence[float], eps1: float) -> PatternSet:
    """Drop patterns whose time share is at most eps1.

    If every share is below the threshold, the single largest-share pattern
    is kept (ties to the lower index) so the selection loop never runs dry.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (len(pattern_set),):
        raise ValueError("time shares must align with the pattern set")
    if not 0.0 < eps1 < 1.0:
        raise ValueError("eps1 must lie in (0, 1)")
    kept = [p for p, xi in zip(pattern_set, x) if xi > eps1]
    if not kept:
        kept = [pattern_set.members[int(np.argmax(x))]]
    return PatternSet(tuple(kept))
