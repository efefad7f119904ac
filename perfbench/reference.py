"""Reference values computed without the code paths under test.

Everything here works on plain ints and adjacency bitmasks, so a defect in
`DomPoly`, the oracle, the recurrences or the stream systems cannot hide
behind a reference that shares it.
"""
from __future__ import annotations

import re

MOD = (1 << 61) - 1  # Mersenne prime for Schwartz-Zippel evaluation checks


def dp_prefix_values(n: int, adj: list[int], x: int, mod: int | None = None) -> list[int]:
    """D(G[0..v], x) for every prefix v of the vertex order, by a frontier DP.

    Each active vertex is in one of three states: 0 not yet dominated,
    1 dominated and not chosen, 2 chosen.  A vertex leaves the frontier once
    its last neighbour has been processed.  The cost is exponential only in
    the frontier width, which is at most 4 for the chain graphs in label
    order.  With `mod` the values are reduced modulo it.
    """
    last = [max(v, adj[v].bit_length() - 1) for v in range(n)]
    active: list[int] = []
    table: dict[tuple, int] = {(): 1}
    out = []
    for v in range(n):
        pos = [i for i, w in enumerate(active) if adj[v] >> w & 1]
        new: dict[tuple, int] = {}
        for st, val in table.items():
            s = list(st)
            for i in pos:
                if s[i] == 0:
                    s[i] = 1
            s.append(2)
            key = tuple(s)
            new[key] = new.get(key, 0) + val * x
            key = st + ((1 if any(st[i] == 2 for i in pos) else 0),)
            new[key] = new.get(key, 0) + val
        active.append(v)
        keep = [i for i, w in enumerate(active) if last[w] > v]
        if len(keep) < len(active):
            drop = [i for i, w in enumerate(active) if last[w] <= v]
            table = {}
            for st, val in new.items():
                if any(st[i] == 0 for i in drop):
                    continue
                key = tuple(st[i] for i in keep)
                table[key] = table.get(key, 0) + val
            active = [active[i] for i in keep]
        else:
            table = new
        if mod is not None:
            table = {k: val % mod for k, val in table.items()}
        total = sum(val for st, val in table.items() if 0 not in st)
        out.append(total % mod if mod is not None else total)
    return out


def dp_value(n: int, adj: list[int], x: int, mod: int | None = None) -> int:
    """D(G, x) by the frontier DP (1 for the empty graph)."""
    return dp_prefix_values(n, adj, x, mod)[-1] if n else 1


def eval_coeffs(coeffs: list[int], x: int, mod: int | None = None) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
        if mod is not None:
            acc %= mod
    return acc


_TERM = re.compile(r"([+-]?)(\d*)(x(?:\^(\d+))?)?")


def parse_poly_text(text: str) -> dict[int, int]:
    """{power: coefficient} of a rendering like 'x^5+5x^4+10x^3+8x^2+x'."""
    out: dict[int, int] = {}
    pos = 0
    text = text.strip()
    if text == "0":
        return out
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m or m.end() == pos or not (m.group(2) or m.group(3)):
            raise ValueError(f"bad polynomial text at {pos}: {text[pos:pos + 20]!r}")
        coef = int(m.group(2)) if m.group(2) else 1
        power = (int(m.group(4)) if m.group(4) else 1) if m.group(3) else 0
        out[power] = out.get(power, 0) + (-coef if m.group(1) == "-" else coef)
        pos = m.end()
    return out


def path_cycle_coeffs(kind: str, n: int) -> list[int]:
    """Coefficients of D(P_n) or D(C_n) by p_n = x(p_{n-1} + p_{n-2} + p_{n-3})."""
    seq = {
        "path": [[0, 1], [0, 2, 1], [0, 1, 3, 1]],
        "cycle": [[0, 1], [0, 2, 1], [0, 3, 3, 1]],
    }[kind]
    while len(seq) < n:
        s = [0] * (len(seq) + 2)
        for q in seq[-3:]:
            for i, c in enumerate(q):
                s[i + 1] += c
        seq.append(s)
    return seq[n - 1]


def edge_coeffs(n: int, adj: list[int]) -> dict[int, int]:
    """d(G,k) for k in {1, 2, n-2, n-1, n}, counted directly from adjacency."""
    full = (1 << n) - 1
    closed = [adj[v] | 1 << v for v in range(n)]
    d1 = sum(1 for v in range(n) if closed[v] == full)
    d2 = sum(1 for u in range(n) for v in range(u + 1, n) if closed[u] | closed[v] == full)
    dn1 = sum(1 for v in range(n) if adj[v])
    dn2 = sum(
        1 for u in range(n) for v in range(u + 1, n)
        if adj[u] & ~(1 << v) and adj[v] & ~(1 << u)
    )
    return {1: d1, 2: d2, n - 2: dn2, n - 1: dn1, n: 1}


def t_counts(n_max: int) -> list[int]:
    """t_0..t_{n_max} with the formal seed t_0 = 2 and t_n = 3t_{n-1} + 2t_{n-2}."""
    seq = [2, 7]
    while len(seq) <= n_max:
        seq.append(3 * seq[-1] + 2 * seq[-2])
    return seq[: n_max + 1]
