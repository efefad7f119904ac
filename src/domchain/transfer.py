"""Block transfer matrices of the chain systems: the values the certificate checks each identity on.

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
M, v0 and every u_s are read from a block and gadgets only, never from the
identities.

The three-point lemma.  An identity reading n - d..n is a fixed
Z[x]-combination of such terms, so on the graphs its residual r_n = lhs_n -
rhs_n is c^T M^(n - d) v0 for n >= d.  By Cayley-Hamilton, r_(n+3) = tr(M)
r_(n+2) - e2(M) r_(n+1) + det(M) r_n, so r_n zero at start, start + 1 and
start + 2 (start >= d) makes it zero for every n >= start.  The certificate
(families._certify) takes each rule's r_n on these values.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

from .poly import DomPoly

if TYPE_CHECKING:
    from .graph import Graph

V0 = (DomPoly.one(), DomPoly(), DomPoly.x())  # X_0, the one-vertex chain, by terminal state

Vector = tuple[DomPoly, DomPoly, DomPoly]
Block = tuple[int, tuple[tuple[int, int], ...]]  # width, edges in local labels 0..width


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


def dot(u: Vector, v: Vector) -> DomPoly:
    """u^T v; dot(finish(gadget), states(block, n)[n]) is D(X_n + gadget)."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def characteristic(block: Block) -> tuple[DomPoly, ...]:
    """(c1, c2, c3) = (tr M, -e2(M), det M), trailing zero terms dropped.

    By Cayley-Hamilton every u^T M^n v0 obeys a_n = c1 a_(n-1) + c2 a_(n-2) + c3 a_(n-3):
    one scalar recurrence per stream.  T's M has a zero row, so det M = 0 and T's is order 2.
    """
    m = matrix(block)

    def minor(i: int, j: int) -> DomPoly:
        return m[i][i] * m[j][j] - m[i][j] * m[j][i]

    cofactors = (minor(1, 2), m[1][2] * m[2][0] - m[1][0] * m[2][2],
                 m[1][0] * m[2][1] - m[1][1] * m[2][0])
    cs = [m[0][0] + m[1][1] + m[2][2], -(minor(0, 1) + minor(0, 2) + minor(1, 2)),
          dot(m[0], cofactors)]
    while cs and cs[-1].is_zero():
        cs.pop()
    return tuple(cs)


def states(block: Block, hi: int) -> list[Vector]:
    """M^n v0 for n = 0..hi."""
    m = matrix(block)
    out = [V0]
    while len(out) <= hi:
        out.append(tuple(dot(row, out[-1]) for row in m))
    return out
