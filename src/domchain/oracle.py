"""Brute-force ground truth: exact dominating-set counts by subset enumeration.

Every entry point runs one kernel, `_scan(closed, target)`: it counts, by
size, the subsets of the candidate closed-neighbourhood masks whose union
covers the target mask.  `domination_table` passes every vertex,
`restricted_polynomial` the allowed vertices of G-u; `domination_polynomial`,
`count_dominating_sets` (the sum of the table) and `domination_number` (its
first nonzero index) all read the table.

The kernel splits the candidates into a low half of at most `_LOW_BITS` and
a high half.  The unions of all low subsets are tabulated once with numpy,
laid out by popcount.  The high assignments are grouped by their union mask
and each distinct mask is checked against the low table in one vectorized
pass; `np.add.reduceat` over the popcount segments yields the size
histogram, which is convolved with the group's high-size counts.  The table
uses the narrowest unsigned word that holds the target, as every pass reads
all of it.  Per-size hits are summed in int32, half the width of numpy's
default sum, which is exact because a segment holds at most 2^_LOW_BITS
entries.  A group whose union with the whole low table misses the target is
skipped, since no low subset can complete it.  When some target vertex lies
in no candidate mask, no subset covers the target, and the scan returns zero
counts before it builds any table.  Counts stay below 2^30, so int64 is
exact.

`_LOW_BITS` is 16, so that the arrays of one scan fit in a 2 MB L2 cache:
the uint32 table (256 KB), the int64 popcount permutation (512 KB), the
gathered copy and each group's `union | mask` (256 KB each) and the bool
`hit` (64 KB) come to about 1.3 MB, against about 2.6 MB at 17 and 5 MB at
18.  On a 2-CPU Xeon VM with 2 MB of L2 per core, the step from 17 to 16
took a pass of the benchmark's `enumerate` workload from 63 to 46 ms and one
of `verify` from 143 to 108 ms (at 18: 102 and 199 ms).  A narrower table
leaves more candidates to the high half, so more groups and a longer
pure-Python merge: sparse graphs at the hard cap favour a wider table, and
P_30 scans in 1.7 ms at 18, 1.9 ms at 16 and 2.9 ms at 15.

numpy is imported inside the two functions that use it, not at module level,
so a process that never enumerates subsets (`sequence`, `compute --method
recurrence`) never pays the numpy import, most of its start-up time.
"""
from __future__ import annotations

import functools
import math
import operator
from typing import TYPE_CHECKING

from .graph import Graph
from .poly import DomPoly

if TYPE_CHECKING:
    import numpy as np

DEFAULT_CAP = 24
HARD_CAP = 30

_LOW_BITS = 16  # low table size: 2^16 entries, about 1.3 MB of arrays per scan


class EnumerationCapError(RuntimeError):
    """Graph too large for exhaustive enumeration (never silently approximated): n vertices
    to enumerate against the cap; `of` is the graph's order when p_u enumerates only the n
    vertices outside N[u]."""

    def __init__(self, n: int, cap: int, of: int | None = None):
        what = f"graph has {n}" if of is None else f"p_u enumerates {n} of {of}"
        super().__init__(f"{what} vertices, enumeration cap is {cap}")
        self.n = n
        self.cap = cap


def check_cap(cap: int | None) -> int:
    """The enumeration cap to use: DEFAULT_CAP for None, else `cap` within 0..HARD_CAP."""
    if cap is None:
        return DEFAULT_CAP
    if not 0 <= cap <= HARD_CAP:
        raise ValueError(f"cap {cap} is outside the hard safety limits 0..{HARD_CAP}")
    return cap


def check_order(n: int, cap: int | None, of: int | None = None) -> None:
    """Raise EnumerationCapError when n items are more than the cap (resolved by check_cap);
    `of`, if given, is the order of the graph they are taken from."""
    cap = check_cap(cap)
    if n > cap:
        raise EnumerationCapError(n, cap, of)


@functools.cache  # built on first use per width, never at import
def _popcount_order(bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Subsets of `bits` items sorted by size, and each size's first index."""
    import numpy as np

    pop = np.zeros(1 << bits, dtype=np.int8)
    for v in range(bits):
        np.add(pop[: 1 << v], 1, out=pop[1 << v : 2 << v])
    row = np.array([math.comb(bits, k) for k in range(bits + 1)], dtype=np.int64)
    return np.argsort(pop, kind="stable"), np.cumsum(row) - row


def _scan(closed: list[int], target: int) -> np.ndarray:
    """counts[k] = number of k-subsets of the candidates whose closed masks cover target."""
    import numpy as np

    counts = np.zeros(len(closed) + 1, dtype=np.int64)
    if target & ~functools.reduce(operator.or_, closed, 0):
        return counts  # some target vertex cannot be covered
    low, high, reach = [m & target for m in closed], [], 0
    while len(low) > _LOW_BITS:  # a compact high half has few distinct unions
        m = min(low, key=lambda m: ((reach | m).bit_count(), -m.bit_count()))
        low.remove(m)
        high.append(m)
        reach |= m
    perm, starts = _popcount_order(len(low))
    dtype = np.uint32 if target >> 32 == 0 else np.uint64 if target >> 64 == 0 else object
    union = np.zeros(1 << len(low), dtype=dtype)
    for v, m in enumerate(low):
        np.bitwise_or(union[: 1 << v], m, out=union[1 << v : 2 << v])
    low_all = int(union[-1])
    union = union[perm]
    groups: dict[int, list[int]] = {0: [1]}  # high union mask -> assignments by size
    for m in high:
        grown: dict[int, list[int]] = {}
        for mask, sizes in groups.items():
            for key, by_size in ((mask, sizes + [0]), (mask | m, [0] + sizes)):
                acc = grown.get(key)
                grown[key] = by_size if acc is None else [a + b for a, b in zip(acc, by_size)]
        groups = grown
    for mask, sizes in groups.items():
        if mask | low_all == target:
            hit = (union | mask) == target
            counts += np.convolve(np.add.reduceat(hit, starts, dtype=np.int32), sizes)
    return counts


def domination_table(g: Graph, cap: int | None = None) -> list[int]:
    """counts[i] = number of dominating sets of size i, i = 0..n."""
    check_order(g.n, cap)
    return _scan([g.closed(v) for v in range(g.n)], g.full_mask).tolist()


def domination_polynomial(g: Graph, cap: int | None = None) -> DomPoly:
    """D(G,x) by exhaustive enumeration; D = 1 for the 0-vertex graph."""
    return DomPoly(domination_table(g, cap=cap))


def count_dominating_sets(g: Graph, cap: int | None = None) -> int:
    """D(G,1), the number of dominating sets."""
    return sum(domination_table(g, cap=cap))


def domination_number(g: Graph, cap: int | None = None) -> int:
    """Smallest dominating-set size: the first nonzero entry of the table."""
    return next(k for k, c in enumerate(domination_table(g, cap=cap)) if c)


def restricted_polynomial(g: Graph, u: int, cap: int | None = None) -> DomPoly:
    """p_u(G,x): dominating sets of G-u that avoid every vertex of N_G(u).

    Only subsets of V(G-u) \\ N(u) are enumerated, and only their number is
    held to the cap, so G itself may exceed it.
    """
    g._check_vertex(u)
    target = g.full_mask & ~(1 << u)
    around = g.closed(u)
    allowed = [w for w in range(g.n) if not around >> w & 1]
    check_order(len(allowed), cap, g.n)
    return DomPoly(_scan([g.closed(w) for w in allowed], target).tolist())
