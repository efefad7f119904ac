import importlib.util
import random
from pathlib import Path

import pytest

from domchain.graph import Graph, disjoint_union


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
