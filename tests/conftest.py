import importlib.util
import random
from dataclasses import replace
from pathlib import Path

import pytest

from domchain import families
from domchain.graph import Graph, disjoint_union
from domchain.poly import DomPoly

_p = DomPoly.from_text

# the paper's stated initial values of the T/Q/O systems, below each adopted
# identity's start n; the trivial ones too (X_0 is one vertex, x; X+e_0 is one
# edge, x^2+2x).  The pass takes its own from the transfer matrix, and these
# are checked against it and against the oracle.
STATED_BASES = {
    "T": {1: _p("x^3+3x^2+3x"), 2: _p("x^5+5x^4+10x^3+8x^2+x")},
    "Q": {0: _p("x"), 1: _p("x^4+4x^3+6x^2"), 2: _p("x^7+7x^6+21x^5+29x^4+15x^3")},
    "Q+e": {0: _p("x^2+2x"), 1: _p("x^5+5x^4+9x^3+4x^2")},
    "Qtri": {0: _p("x^3+3x^2+3x")},
    "Q2": {0: _p("x^3+3x^2+x")},
    "Qp": {0: _p("x^3+3x^2+x")},
    "O": {0: _p("x"), 1: _p("x^4+4x^3+6x^2")},
    "O+e": {0: _p("x^2+2x"), 1: _p("x^5+5x^4+9x^3+4x^2")},
    "Otri": {0: _p("x^3+3x^2+3x")},
    "O2": {0: _p("x^3+3x^2+x")},
    "Op": {0: _p("x^4+4x^3+6x^2+2x")},
}


def with_multiplier(monkeypatch, fam: str, lhs: str, old: str, new: str) -> None:
    """Replace one multiplier of the adopted identity for `lhs` in the live table."""
    def swap(e):
        if not (e.adopted and e.lhs == lhs):
            return e
        return replace(e, terms=tuple((_p(new) if m == _p(old) else m, refs)
                                      for m, refs in e.terms))
    monkeypatch.setitem(families.IDENTITIES, fam, tuple(map(swap, families.IDENTITIES[fam])))


def random_connected_graph(rng: random.Random, n: int, extra_p: float = 0.3) -> Graph:
    """Random spanning tree plus extra edges with probability extra_p."""
    edges = set()
    for v in range(1, n):
        u = rng.randrange(v)
        edges.add((u, v))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < extra_p:
                edges.add((u, v))
    return Graph.from_edges(n, sorted(edges))


def random_graph(rng: random.Random, n: int, p: float = 0.4) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph.from_edges(n, edges)


def random_disconnected_graph(rng: random.Random, max_total: int = 14) -> Graph:
    """Two or three connected components, disconnected by construction."""
    k = rng.choice([2, 2, 3])
    g = None
    budget = max_total
    for i in range(k):
        remaining = k - 1 - i
        hi = min(7, budget - 2 * remaining)
        size = rng.randint(2, max(2, hi))
        budget -= size
        comp = random_connected_graph(rng, size)
        g = comp if g is None else disjoint_union(g, comp)
    return g


@pytest.fixture
def rng():
    return random.Random(20260823)


@pytest.fixture(scope="session")
def reference():
    """perfbench/reference.py: exact values by a frontier DP that shares no code with domchain."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"
    spec = importlib.util.spec_from_file_location("domchain_test_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
