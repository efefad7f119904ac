"""Block transfer matrices of the chain systems, and the certificate that proves each system.

A chain member is one block repeated n times, glued at single cut vertices,
with an optional gadget at the free terminal.  A vertex DP carries the
terminal in one of three states: 0 not yet dominated, 1 dominated and not
chosen, 2 chosen.  Gluing one block on takes
state i to state j with weight M[j][i], the sum of x^|S| over the subsets S
of the block's new vertices that dominate every vertex leaving the frontier
and leave the new terminal in state j.  X_0 is one vertex, v0 = (1, 0, x), and
a gadget s finishes state j with weight u_s[j] (the plain chain's "gadget" is
the terminal alone, u = (0, 1, 1)).  So

    D(X_n + gadget s, x) = u_s^T M^n v0

(the transfer-matrix method, Stanley, Enumerative Combinatorics I, 4.7; the
three-state vertex DP of Telle and Proskurowski, SIAM J. Discrete Math. 1997).
families states each system's tables as one `System`; M, v0 and every u_s
are read from its block and gadgets only, never from its identities.

The three-point lemma.  Every identity is a fixed Z[x]-combination of such
terms, so on the graphs its residual r_n = lhs_n - rhs_n equals
c^T M^(n - d) v0 for n >= d, its look-back depth.  By Cayley-Hamilton,
M^3 = tr(M) M^2 - e2(M) M + det(M) I, so r_(n+3) = tr r_(n+2) - e2 r_(n+1) +
det r_n: if r_n is zero at n0, n0 + 1 and n0 + 2, it is zero for every
n >= n0, where n0 = max(start, first graph n + d).  `refutation` checks
exactly that for each adopted identity of a system, then that every stated
base equals its transfer value, and names the first failure; by induction
over the pass's evaluation order, every stream value of a system with none
is its graph's domination polynomial, for every n.
"""
from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

from .poly import DomPoly

if TYPE_CHECKING:
    from .graph import Graph

V0 = (DomPoly.one(), DomPoly(), DomPoly.x())  # X_0, the one-vertex chain, by terminal state

Vector = tuple[DomPoly, DomPoly, DomPoly]
Block = tuple[int, tuple[tuple[int, int], ...]]  # width, edges in local labels 0..width


class System(NamedTuple):
    """One closed system's tables, as the certificate reads them."""

    block: Block
    first_n: int                                # the first n that is a graph
    gadgets: tuple[tuple[str, Graph | None], ...]  # each stream with its gadget (None: the chain)
    rules: tuple[tuple[object, Graph | None], ...]  # each adopted Identity, its left side's gadget
    bases: tuple[tuple[str, int, DomPoly], ...]  # (stream, n, stated value)


def _glue(n: int, adj: list[int], keep: int | None) -> dict[tuple[int, int], DomPoly]:
    """{(i, j): weight} for a small graph on vertices 0..n-1 glued at its vertex 0 in state i.

    Sums x^|S| over subsets S of vertices 1..n-1 that dominate every vertex but
    `keep`; j is the state `keep` is left in (0 when every vertex must be dominated).
    """
    rest = (1 << n) - 1 & ~(0 if keep is None else 1 << keep)
    out: dict[tuple[int, int], DomPoly] = {}
    for i in range(3):
        for s in range(0, 1 << n, 2):  # bit 0 clear: vertex 0 is the glued terminal
            chosen = s | (i == 2)
            covered = chosen | (i == 1)
            for v in range(n):
                if chosen >> v & 1:
                    covered |= adj[v]
            if covered & rest != rest:
                continue
            j = 0 if keep is None else 2 if chosen >> keep & 1 else covered >> keep & 1
            out[i, j] = out.get((i, j), DomPoly()) + DomPoly.monomial(1, s.bit_count())
    return out


def matrix(block: Block) -> tuple[Vector, Vector, Vector]:
    """M(x) of the block: row j, column i, the weight of state i -> j."""
    width, edges = block
    adj = [0] * (width + 1)
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    w = _glue(width + 1, adj, width)
    return tuple(tuple(w.get((i, j), DomPoly()) for i in range(3)) for j in range(3))


def finish(gadget: Graph | None) -> Vector:
    """u_s: the weight with which the gadget (None: the bare terminal) finishes each state."""
    n, adj = (1, [0]) if gadget is None else (gadget.n, list(gadget.adj))
    w = _glue(n, adj, None)
    return tuple(w.get((j, 0), DomPoly()) for j in range(3))


def _dot(u: Vector, v: Vector) -> DomPoly:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def states(block: Block, hi: int) -> list[Vector]:
    """M^n v0 for n = 0..hi."""
    m = matrix(block)
    out = [V0]
    while len(out) <= hi:
        out.append(tuple(_dot(row, out[-1]) for row in m))
    return out


def _n0(system: System, e) -> int:
    """The first n at which the Identity e's residual is checked."""
    depth = max(-off for _, refs in e.terms for _, off in refs)
    return max(e.start, system.first_n + depth)


def residuals(system: System, e, gadget: Graph | None) -> list[DomPoly]:
    """lhs - rhs of the Identity e, its left side finished by `gadget`, at n0, n0 + 1, n0 + 2."""
    n0 = _n0(system, e)
    ws = states(system.block, n0 + 2)
    u = {s: finish(g) for s, g in system.gadgets}
    lhs = finish(gadget)
    return [_dot(lhs, ws[n]) - e.rhs(n, lambda s, k: _dot(u[s], ws[k]))
            for n in range(n0, n0 + 3)]


def refutation(system: System) -> tuple[str, str] | None:
    """(what, why) of the first failure, or None when the system is proven for every n.

    Each adopted identity in turn fails at the first of its three n with a
    nonzero residual; failing none, the first stated base that is not its
    transfer value fails.
    """
    for e, g in system.rules:
        for n, r in enumerate(residuals(system, e, g), _n0(system, e)):
            if not r.is_zero():
                return e.label, f"nonzero residual {r.to_text()} at n={n}"
    ws = states(system.block, max(k for _, k, _ in system.bases))
    u = dict(system.gadgets)
    for s, k, p in system.bases:
        want = _dot(finish(u[s]), ws[k])
        if want != p:
            return f"{s} base n={k}", f"stated {p.to_text()}, transfer value {want.to_text()}"
    return None


@lru_cache(maxsize=None)
def certify(system: System) -> bool:
    """Whether every adopted identity of the system and every stated base is proven for all n."""
    return refutation(system) is None
