"""Brute-force ground truth: exact dominating-set counts by subset enumeration.

A subset S dominates iff the OR of its closed-neighborhood masks covers all
vertices.  The scan splits each subset mask into low and high halves: the
unions of all low-half subsets are tabulated once (vectorized with numpy),
then each high-half assignment is checked against the table in one shot.
Counts fit in int64 comfortably below the hard cap (C(30,15) < 2^28).
"""
from __future__ import annotations

from itertools import combinations

import numpy as np

from .graph import Graph
from .poly import DomPoly

DEFAULT_CAP = 24
HARD_CAP = 30

_LOW_BITS = 18  # per-chunk table size: 2^18 entries


class EnumerationCapError(RuntimeError):
    """Graph too large for exhaustive enumeration (never silently approximated)."""

    def __init__(self, n: int, cap: int):
        super().__init__(f"graph has {n} vertices, enumeration cap is {cap}")
        self.n = n
        self.cap = cap


def _check_cap(n: int, cap: int | None) -> None:
    cap = DEFAULT_CAP if cap is None else cap
    if cap > HARD_CAP:
        raise ValueError(f"cap {cap} exceeds hard safety limit {HARD_CAP}")
    if n > cap:
        raise EnumerationCapError(n, cap)


def _low_tables(closed: list[int], low: int) -> tuple[np.ndarray, np.ndarray]:
    """Union-of-closed-masks and popcount for every subset of the low vertices."""
    union = np.zeros(1 << low, dtype=np.uint64)
    pop = np.zeros(1 << low, dtype=np.int64)
    for v in range(low):
        half = 1 << v
        union[half : 2 * half] = union[:half] | np.uint64(closed[v])
        pop[half : 2 * half] = pop[:half] + 1
    return union, pop


def _high_info(closed: list[int], low: int, n: int, high: int) -> tuple[int, int]:
    mask = 0
    size = 0
    for v in range(low, n):
        if high >> (v - low) & 1:
            mask |= closed[v]
            size += 1
    return mask, size


def domination_table(g: Graph, cap: int | None = None) -> list[int]:
    """counts[i] = number of dominating sets of size i, i = 0..n."""
    _check_cap(g.n, cap)
    n = g.n
    closed = [g.closed(v) for v in range(n)]
    low = min(n, _LOW_BITS)
    union, pop = _low_tables(closed, low)
    full = np.uint64(g.full_mask)
    counts = [0] * (n + 1)
    for high in range(1 << (n - low)):
        hmask, hsize = _high_info(closed, low, n, high)
        sizes = pop[(union | np.uint64(hmask)) == full]
        if sizes.size:
            for i, k in enumerate(np.bincount(sizes)):
                if k:
                    counts[i + hsize] += int(k)
    return counts


def domination_polynomial(g: Graph, cap: int | None = None) -> DomPoly:
    """D(G,x) by exhaustive enumeration; D = 1 for the 0-vertex graph."""
    return DomPoly(domination_table(g, cap=cap))


def count_dominating_sets(g: Graph, cap: int | None = None) -> int:
    """D(G,1) as a pure count (no size binning)."""
    _check_cap(g.n, cap)
    n = g.n
    closed = [g.closed(v) for v in range(n)]
    low = min(n, _LOW_BITS)
    union, _ = _low_tables(closed, low)
    full = np.uint64(g.full_mask)
    total = 0
    for high in range(1 << (n - low)):
        hmask, _ = _high_info(closed, low, n, high)
        total += int(np.count_nonzero((union | np.uint64(hmask)) == full))
    return total


def domination_number(g: Graph, cap: int | None = None) -> int:
    """Smallest dominating-set size, by increasing-cardinality search."""
    _check_cap(g.n, cap)
    full = g.full_mask
    if full == 0:
        return 0
    closed = [g.closed(v) for v in range(g.n)]
    for size in range(1, g.n + 1):
        for combo in combinations(range(g.n), size):
            m = 0
            for v in combo:
                m |= closed[v]
            if m == full:
                return size
    raise AssertionError("full vertex set always dominates")  # pragma: no cover


def restricted_polynomial(g: Graph, u: int, cap: int | None = None) -> DomPoly:
    """p_u(G,x): dominating sets of G-u that avoid every vertex of N_G(u).

    Only subsets of V(G-u) \\ N(u) are enumerated.
    """
    g._check_vertex(u)
    _check_cap(g.n, cap)
    forbidden = set(g.neighbors(u))
    h = g.delete_vertices([u])
    # relabel: old w maps to w - 1 if w > u
    allowed = [w - (w > u) for w in range(g.n) if w != u and w not in forbidden]
    closed = [h.closed(v) for v in allowed]
    full = h.full_mask
    counts = [0] * (h.n + 1)
    for mask in range(1 << len(allowed)):
        m = 0
        size = 0
        rest = mask
        while rest:
            b = rest & -rest
            m |= closed[b.bit_length() - 1]
            size += 1
            rest ^= b
        if m == full:
            counts[size] += 1
    return DomPoly(counts)
