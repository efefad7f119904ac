"""Seeded request lists for the four workloads, their reference values and checks.

Each workload is a fixed list of request slots.  The seed fills in the
inputs of every slot (edges, labels, chain lengths within a narrow range,
flags) but never the slot's size class, so runs with different seeds do the
same amount of work and their timings can be compared.

A request's output is checked against values computed before the timed
passes start, by an independent method wherever one exists (see
`reference.py`), and against the previous outputs for the same input.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import random
from dataclasses import dataclass, field

import reference as ref
import domchain.cli as cli
import domchain.decompose as decompose
import domchain.families as families
import domchain.graph as graph
import domchain.oracle as oracle
import domchain.verify as verify

WORKLOADS = ("enumerate", "chains", "decompose", "verify")
SIZES = ("full", "tiny")


@dataclass
class Request:
    kind: str
    args: tuple
    ref: dict = field(default_factory=dict)
    last: object = None  # canonical rendering of the first output, for later passes


# -- graph generation (benchmark side, plain bitmasks) -------------------------

def _adj(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _edges(adj: list[int]) -> list[tuple[int, int]]:
    return [(u, v) for u in range(len(adj)) for v in range(u + 1, len(adj)) if adj[u] >> v & 1]


def _relabel(rng: random.Random, n: int, edges) -> list[tuple[int, int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges]


def gnm(rng: random.Random, n: int, density: float) -> list[tuple[int, int]]:
    """Uniform random graph with exactly round(density * C(n,2)) edges."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return rng.sample(pairs, round(density * len(pairs)))


def planted(rng: random.Random, n: int, k: int) -> list[tuple[int, int]]:
    """Sparse graph with domination number exactly k.

    k centres each own a private pendant leaf, and every other vertex hangs
    off at least one centre: a dominating set needs a centre or its leaf for
    each pair (so gamma >= k) and the centres dominate everything (gamma <= k).
    Followers take the low labels and the centre/leaf pairs the high ones, so
    the increasing-cardinality search scans all smaller sets and almost all
    k-sets before it meets a dominating one: its cost depends on n and k only.
    """
    followers = list(range(n - 2 * k))
    pairs = list(range(n - 2 * k, n))
    rng.shuffle(pairs)
    centres, leaves = pairs[:k], pairs[k:]
    edges = set(zip(centres, leaves))
    for f in followers:
        edges.add((rng.choice(centres), f))
    others = centres + followers
    for _ in range(n // 4):
        a, b = rng.sample(others, 2)
        edges.add((a, b))
    return sorted({(min(a, b), max(a, b)) for a, b in edges})


def edge_list_text(rng: random.Random, n: int, edges, label: str) -> str:
    lines = [f"# {label}", f"{n} {len(edges)}"]
    order = list(edges)
    rng.shuffle(order)
    lines += [f"{u} {v}" if rng.random() < 0.5 else f"{v} {u}" for u, v in order]
    return "\n".join(lines) + "\n"


def _shape_edges(rng, shape, n, param):
    if shape == "gnm":
        return _relabel(rng, n, gnm(rng, n, param))
    if shape == "planted":
        return planted(rng, n, param)
    if shape == "path":
        return _relabel(rng, n, [(i, i + 1) for i in range(n - 1)])
    if shape == "cycle":
        return _relabel(rng, n, [(i, (i + 1) % n) for i in range(n)])
    raise ValueError(shape)


# -- enumerate ------------------------------------------------------------------

# (shape, n, density or planted gamma, ops): p = polynomial, c = count, g = gamma.
# The slots form cost plateaus so that the percentiles land inside one: the
# eight largest requests (27- and 25-vertex dense scans, a 24-vertex gamma
# search) hold the 90th percentile, the dense 20-vertex group the median.  In
# a dense graph nearly every subset dominates, so the scan cost depends on n
# alone and the plateaus stay flat for every seed; sparse graphs, whose cost
# varies with the seed, stay small.
ENUMERATE_SLOTS = {
    "full": [
        # 90th-percentile plateau
        ("gnm", 27, 0.6, "p"), ("planted", 24, 7, "g"),
        ("gnm", 25, 0.6, "p"), ("gnm", 25, 0.6, "p"), ("gnm", 25, 0.6, "p"),
        ("gnm", 25, 0.6, "p"), ("gnm", 25, 0.6, "p"), ("gnm", 25, 0.6, "p"),
        # 21-24 vertices, gamma searches
        ("gnm", 24, 0.5, "pc"), ("gnm", 24, 0.3, "p"), ("gnm", 23, 0.4, "p"),
        ("gnm", 22, 0.3, "p"), ("planted", 22, 7, "pg"), ("cycle", 22, None, "p"),
        ("gnm", 21, 0.35, "p"), ("planted", 20, 7, "g"), ("planted", 20, 6, "g"),
        # median plateau: dense 20-vertex scans
        ("gnm", 20, 0.6, "pc"), ("gnm", 20, 0.6, "p"), ("gnm", 20, 0.6, "p"),
        ("gnm", 20, 0.6, "p"), ("gnm", 20, 0.6, "p"), ("gnm", 20, 0.6, "p"),
        ("gnm", 20, 0.6, "p"), ("gnm", 20, 0.6, "p"), ("gnm", 20, 0.6, "p"),
        # 16-20 vertices, sparse and planted
        ("gnm", 20, 0.2, "p"), ("planted", 20, 7, "pc"), ("path", 20, None, "p"),
        ("gnm", 19, 0.4, "pc"), ("gnm", 18, 0.25, "pc"), ("gnm", 18, 0.6, "p"),
        ("planted", 18, 6, "pg"), ("gnm", 17, 0.3, "p"), ("gnm", 17, 0.1, "p"),
        ("path", 17, None, "pc"), ("gnm", 16, 0.2, "p"), ("gnm", 16, 0.5, "pc"),
        ("planted", 16, 5, "pcg"), ("cycle", 16, None, "p"),
    ],
    "tiny": [
        ("gnm", 12, 0.3, "pc"), ("planted", 10, 3, "pcg"),
        ("path", 8, None, "p"), ("cycle", 9, None, "p"),
    ],
}
ENUMERATE_CAP = 30
_OPS = {"p": "poly", "c": "count", "g": "gamma"}


def gen_enumerate(rng: random.Random, size: str) -> list[Request]:
    reqs = []
    for i, (shape, n, param, ops) in enumerate(ENUMERATE_SLOTS[size]):
        edges = _shape_edges(rng, shape, n, param)
        text = edge_list_text(rng, n, edges, f"slot {i}: {shape} n={n}")
        info = {"n": n, "adj": _adj(n, edges), "shape": shape,
                "gamma": param if shape == "planted" else None}
        for op in ops:
            reqs.append(Request(_OPS[op], (text, info)))
    return reqs


def ref_enumerate(reqs: list[Request]) -> None:
    """Count, direct coefficients, planted gamma and closed forms per graph.

    Every graph with a count request also has a polynomial request, so the
    count cross-checks D(G,1) and the planted gamma checks the search."""
    done: dict[str, dict] = {}
    for r in reqs:
        text, info = r.args
        if text not in done:
            n, adj = info["n"], info["adj"]
            entry = {
                "count": oracle.count_dominating_sets(graph.parse_edge_list(text), cap=ENUMERATE_CAP),
                "edge_coeffs": ref.edge_coeffs(n, adj),
                "gamma": info["gamma"],
            }
            if info["shape"] in ("path", "cycle"):
                entry["closed_form"] = tuple(ref.path_cycle_coeffs(info["shape"], n))
            done[text] = entry
        r.ref = done[text]


def run_enumerate(r: Request):
    g = graph.parse_edge_list(r.args[0])
    if r.kind == "poly":
        return oracle.domination_polynomial(g, cap=ENUMERATE_CAP)
    if r.kind == "count":
        return oracle.count_dominating_sets(g, cap=ENUMERATE_CAP)
    return oracle.domination_number(g, cap=ENUMERATE_CAP)


def check_enumerate(r: Request, out) -> str | None:
    e = r.ref
    if r.kind == "count":
        return None if out == e["count"] else f"count {out} != reference count {e['count']}"
    if r.kind == "gamma":
        return None if out == e["gamma"] else f"domination_number {out} != planted {e['gamma']}"
    c = out.coeffs
    if sum(c) != e["count"]:
        return f"D(G,1) {sum(c)} != count_dominating_sets {e['count']}"
    for k, want in e["edge_coeffs"].items():
        got = c[k] if k < len(c) else 0
        if got != want:
            return f"d(G,{k}) = {got}, counted directly {want}"
    if e["gamma"] is not None and _gamma(c) != e["gamma"]:
        return f"polynomial gamma {_gamma(c)} != planted {e['gamma']}"
    if "closed_form" in e and c != e["closed_form"]:
        return "path/cycle polynomial breaks p_n = x(p_{n-1}+p_{n-2}+p_{n-3})"
    return None


def _gamma(coeffs) -> int | None:
    return next((i for i, c in enumerate(coeffs) if c), None)


# -- chains ---------------------------------------------------------------------

def gen_chains(rng: random.Random, size: str) -> list[Request]:
    """Every family near n = 120 (the median plateau), Q, O and T far longer
    (the 90th percentile), pure-int T tables, and CLI sequence/range calls.
    The seed moves each n within a narrow band, so the cost barely moves."""
    u = rng.randint
    fmt = ("text", "json", "csv")
    if size == "tiny":
        reqs = [Request("family", (f, u(3, 5))) for f in families.FAMILY_NAMES]
        reqs += [Request("tcoeff", (u(6, 9),)), Request("tcount", (u(20, 30),)),
                 Request("sequence", ("T", u(10, 14), "json")),
                 Request("sequence", ("Q", u(4, 6), "csv")),
                 Request("nrange", (rng.choice("QO"), u(3, 4), 2))]
        return reqs
    reqs = [Request("family", (f, u(115, 125))) for f in families.FAMILY_NAMES]
    reqs += [
        Request("family", ("Q", u(270, 280))),
        Request("family", ("O", u(270, 280))),
        Request("family", ("T", u(790, 810))),
        Request("family", ("T", u(340, 360))),
        Request("tcoeff", (u(190, 210),)),
        Request("tcount", (u(600, 700),)),
        Request("sequence", ("T", u(700, 800), rng.choice(fmt))),
        Request("sequence", ("Q", u(115, 125), rng.choice(fmt))),
        Request("sequence", ("O", u(115, 125), rng.choice(fmt))),
        Request("nrange", (rng.choice("QO"), u(95, 105), 3)),
    ]
    return reqs


def _call_cli(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"domchain {' '.join(argv)} exited with {code}")
    return buf.getvalue()


def run_chains(r: Request):
    a = r.args
    if r.kind == "family":
        return families.family_polynomial(a[0], a[1])
    if r.kind == "tcoeff":
        return families.t_coefficient_table(a[0])
    if r.kind == "tcount":
        return families.t_count_sequence(a[0])
    if r.kind == "sequence":
        return _call_cli(["sequence", "--family", a[0], "--max-n", str(a[1]), "--format", a[2]])
    lo, span = a[1], a[2]
    return _call_cli(["compute", "--family", a[0], "--n-range", f"{lo}:{lo + span}",
                      "--method", "recurrence", "--format", "csv"])


def _chain_prefix(family: str, n_max: int, x: int, mod: int | None) -> list[int]:
    """D(X_k, x) for k = 0..n_max (T: k = 1..n_max at index k) from one DP pass."""
    g = families.build_chain(family, n_max)
    vals = ref.dp_prefix_values(g.n, list(g.adj), x, mod)
    step = 2 if family == "T" else 3
    return [vals[step * k] if step * k < len(vals) else None for k in range(n_max + 1)]


def ref_chains(reqs: list[Request], point: int) -> None:
    for r in reqs:
        a = r.args
        if r.kind == "family":
            g = families.build_chain(a[0], a[1])
            adj = list(g.adj)
            r.ref = {"order": g.n, "count": ref.dp_value(g.n, adj, 1),
                     "at_point": ref.dp_value(g.n, adj, point, ref.MOD), "point": point}
            if a[0] == "T":
                r.ref["table"] = tuple(families.t_coefficient_table(a[1]))
                r.ref["t_count"] = families.t_count_sequence(a[1])[a[1]]
        elif r.kind == "tcoeff":
            r.ref = {"count": _chain_prefix("T", a[0], 1, None)[a[0]],
                     "at_point": _chain_prefix("T", a[0], point, ref.MOD)[a[0]], "point": point}
        elif r.kind == "tcount":
            counts = _chain_prefix("T", a[0], 1, None)
            r.ref = {"values": [2] + counts[1:]}
        elif r.kind == "sequence":
            counts = _chain_prefix(a[0], a[1], 1, None)
            r.ref = {"values": [2] + counts[1:] if a[0] == "T" else counts[1:]}
        else:
            fam, lo, span = a
            counts = _chain_prefix(fam, lo + span, 1, None)
            at = _chain_prefix(fam, lo + span, point, ref.MOD)
            r.ref = {"rows": [(n, counts[n], at[n]) for n in range(lo, lo + span + 1)],
                     "point": point}


def _parse_values(text: str, fmt: str) -> list[int]:
    if fmt == "json":
        return [int(v) for v in json.loads(text)["values"]]
    if fmt == "csv":
        return [int(row[1]) for row in list(csv.reader(io.StringIO(text)))[1:]]
    return [int(v) for v in text.strip().split(", ")]


def check_chains(r: Request, out) -> str | None:
    e, a = r.ref, r.args
    if r.kind == "family":
        c = out.coeffs
        if len(c) - 1 != e["order"] or c[-1] != 1:
            return f"degree {len(c) - 1} / leading {c[-1] if c else 0} for {e['order']} vertices"
        if sum(c) != e["count"]:
            return "D(G,1) differs from the frontier DP count"
        if ref.eval_coeffs(list(c), e["point"], ref.MOD) != e["at_point"]:
            return "D(G,r) mod p differs from the frontier DP"
        if a[0] == "T" and (c != e["table"] or sum(c) != e["t_count"]):
            return "T polynomial disagrees with t_coefficient_table / t_count_sequence"
        return None
    if r.kind == "tcoeff":
        if sum(out) != e["count"] or ref.eval_coeffs(out, e["point"], ref.MOD) != e["at_point"]:
            return "t_coefficient_table row differs from the frontier DP"
        return None
    if r.kind == "tcount":
        if out != e["values"] or out != ref.t_counts(a[0]):
            return "t_count_sequence differs from the frontier DP counts"
        return None
    if r.kind == "sequence":
        got = _parse_values(out, a[2])
        if got != e["values"]:
            return f"sequence {a[0]} differs from the frontier DP counts"
        if a[0] == "T" and got != ref.t_counts(a[1]):
            return "T sequence breaks t_n = 3t_{n-1} + 2t_{n-2}"
        return None
    rows = list(csv.reader(io.StringIO(out)))
    if rows[0] != ["family", "n", "degree", "gamma", "count_at_1", "polynomial"]:
        return f"unexpected CSV header {rows[0]}"
    if len(rows) - 1 != len(e["rows"]):
        return "wrong number of CSV rows"
    for row, (n, count, at) in zip(rows[1:], e["rows"]):
        terms = ref.parse_poly_text(row[5])
        coeffs = [terms.get(k, 0) for k in range(max(terms) + 1)]
        if (row[0], int(row[1])) != (a[0], n) or int(row[4]) != count or sum(coeffs) != count:
            return f"row n={n}: count differs from the frontier DP"
        if int(row[2]) != len(coeffs) - 1 or int(row[3]) != _gamma(coeffs):
            return f"row n={n}: degree/gamma columns disagree with the polynomial"
        if ref.eval_coeffs(coeffs, e["point"], ref.MOD) != at:
            return f"row n={n}: D(G,r) mod p differs from the frontier DP"
    return None


# -- decompose ------------------------------------------------------------------

# (shape, size, param, method): v = vertex, e = edge, p = components product.
# Cycles, paths and chains keep their canonical labels: relabelling changes
# the pivot order and with it the recursion, so their cost is the same for
# every seed and they carry most of the time; the seeded random graphs and
# unions carry the variety.
DECOMPOSE_SLOTS = {
    "full": [
        # above 120 ms: the 90th-percentile group
        ("chain", 6, "Q", "v"), ("chain", 9, "T", "v"), ("chain", 6, "O", "p"),
        ("cycle", 18, None, "e"), ("chain", 5, "Op", "p"), ("chain", 5, "Otri", "e"),
        ("cycle", 18, None, "v"), ("gnm", 22, 0.5, "p"),
        # 50-80 ms: the median plateau
        ("cycle", 17, None, "v"), ("cycle", 17, None, "p"), ("path", 17, None, "p"),
        ("path", 16, None, "e"), ("cycle", 16, None, "e"), ("chain", 8, "T", "v"),
        ("chain", 8, "T", "e"), ("chain", 5, "Q", "e"), ("chain", 5, "O+e", "v"),
        # below 45 ms
        ("gnm", 16, 0.35, "p"), ("gnm", 16, 0.4, "e"), ("gnm", 17, 0.5, "v"),
        ("gnm", 14, 0.35, "v"), ("cycles", 17, None, "v"), ("gnms", 18, 0.3, "e"),
        ("mixed", 16, None, "p"),
    ],
    "tiny": [
        ("cycle", 9, None, "v"), ("chain", 3, "T", "e"), ("gnm", 10, 0.3, "p"),
        ("cycles", 10, None, "v"),
    ],
}


def _union(parts: list[tuple[int, list]]) -> tuple[int, list]:
    n, edges = 0, []
    for m, es in parts:
        edges += [(u + n, v + n) for u, v in es]
        n += m
    return n, edges


def _decompose_graph(rng, shape, size, param) -> tuple[int, list]:
    if shape == "gnm":
        return size, _shape_edges(rng, shape, size, param)
    if shape == "cycle":
        return size, [(i, (i + 1) % size) for i in range(size)]
    if shape == "path":
        return size, [(i, i + 1) for i in range(size - 1)]
    if shape == "chain":
        g = families.build_chain(param, size)
        return g.n, _edges(list(g.adj))
    if shape == "cycles":
        a = rng.randint(size // 2 - 1, size // 2)
        n, edges = _union([(a, _shape_edges(rng, "cycle", a, None)),
                           (size - a, _shape_edges(rng, "cycle", size - a, None))])
    elif shape == "mixed":
        t = families.build_chain("T", 2)
        q = families.build_chain("Q", 2)
        rest = size - t.n - q.n
        n, edges = _union([(t.n, _edges(list(t.adj))), (q.n, _edges(list(q.adj))),
                           (rest, _shape_edges(rng, "cycle", rest, None))])
    else:
        half = size // 2
        n, edges = _union([(half, _shape_edges(rng, "gnm", half, param)),
                           (size - half, _shape_edges(rng, "gnm", size - half, param))])
    return n, _relabel(rng, n, edges)


_METHODS = {"v": "vertex", "e": "edge", "p": "product"}


def gen_decompose(rng: random.Random, size: str) -> list[Request]:
    reqs = []
    for shape, n, param, method in DECOMPOSE_SLOTS[size]:
        n, edges = _decompose_graph(rng, shape, n, param)
        reqs.append(Request(_METHODS[method], (graph.Graph.from_edges(n, edges), shape)))
    return reqs


def ref_decompose(reqs: list[Request]) -> None:
    for r in reqs:
        g, shape = r.args
        r.ref = {"poly": oracle.domination_polynomial(g).coeffs,
                 "edge_coeffs": ref.edge_coeffs(g.n, list(g.adj))}
        if shape in ("cycle", "path"):
            r.ref["closed_form"] = tuple(ref.path_cycle_coeffs(shape, g.n))


def run_decompose(r: Request):
    """Returns (polynomial, memo entries left in the caller's memo)."""
    g = r.args[0]
    memo: dict = {}
    if r.kind == "vertex":
        p = decompose.vertex_recurrence(g, memo=memo)
    elif r.kind == "edge":
        p = decompose.edge_recurrence(g, memo=memo)
    else:
        p = decompose.components_product(g, memo=memo)
    return p, len(memo)


def check_decompose(r: Request, out) -> str | None:
    c = out[0].coeffs
    e = r.ref
    if c != e["poly"]:
        return f"{r.kind} recurrence differs from the oracle polynomial"
    for k, want in e["edge_coeffs"].items():
        if (c[k] if k < len(c) else 0) != want:
            return f"d(G,{k}) differs from the direct count"
    if "closed_form" in e and c != e["closed_form"]:
        return "path/cycle polynomial breaks p_n = x(p_{n-1}+p_{n-2}+p_{n-3})"
    return None


# -- verify ---------------------------------------------------------------------

# each slot: (families, max_n choices, cap choices, literal choices); cap None
# is the default 24.  The choices of one slot scan the same graphs (a larger
# max_n stops at the same cap; T has no literal variants), so the seed varies
# the input and the family order but not the cost.  The three raised-cap
# slots hold the 90th percentile, the 55-80 ms group the median.
VERIFY_SLOTS = {
    "full": [
        ("T", (13, 14), (28,), (False, True)),
        ("Q", (8, 9), (25, 26), (True,)),
        ("O", (7, 8), (25, 26, 27), (True,)),
        ("TQO", (6,), (None, 24), (True,)),
        ("TQO", (6,), (None, 24), (False,)),
        ("T", (11,), (None, 24), (False, True)),
        ("Q", (6,), (None, 24), (True,)),
        ("O", (7, 8), (24,), (True,)),
        ("O", (6,), (None, 24), (True,)),
        ("Q", (6,), (None, 24), (False,)),
        ("O", (6,), (None, 24), (False,)),
        ("TQ", (6,), (None, 24), (False,)),
        ("TO", (6,), (None, 24), (False,)),
        ("TO", (6,), (None, 24), (True,)),
        ("TQO", (5,), (None, 24), (False,)),
        ("QO", (5,), (None, 24), (False,)),
        ("Q", (5,), (None, 24), (False,)),
        ("O", (5,), (None, 24), (True,)),
        ("T", (7, 8), (None, 24), (False, True)),
        ("TQO", (4,), (None, 24), (False,)),
    ],
    "tiny": [
        ("T", (4,), (None,), (False,)),
        ("Q", (3,), (24,), (True,)),
        ("O", (3,), (None,), (False, True)),
        ("TQO", (3,), (None,), (False,)),
    ],
}


def verify_key(fams: str, max_n: int, cap: int | None, literal: bool) -> str:
    return f"{''.join(sorted(fams))}|{max_n}|{cap or 24}|{int(literal)}"


def verify_menu(size: str) -> list[tuple[str, int, int | None, bool]]:
    """Every parameter combination a seed can draw (the golden table's keys)."""
    return [(f, m, c, lit) for f, ms, cs, lits in VERIFY_SLOTS[size]
            for m in ms for c in cs for lit in lits]


def gen_verify(rng: random.Random, size: str) -> list[Request]:
    reqs = []
    for fams, ms, caps, lits in VERIFY_SLOTS[size]:
        order = list(fams)
        rng.shuffle(order)
        reqs.append(Request("verify", (tuple(order), rng.choice(ms), rng.choice(caps),
                                       rng.choice(lits))))
    return reqs


def ref_verify(reqs: list[Request], golden: dict) -> None:
    for r in reqs:
        fams, max_n, cap, lit = r.args
        r.ref = {"counts": golden["verify_counts"][verify_key("".join(fams), max_n, cap, lit)]}


def run_verify(r: Request):
    fams, max_n, cap, lit = r.args
    return verify.verify_families(max_n=max_n, family_subset=fams, include_literal=lit, cap=cap)


def verify_counts(report) -> list[int]:
    return [len(report.checks), len(report.errata), sum(1 for c in report.checks if c.match)]


def check_verify(r: Request, out) -> str | None:
    if not out.all_match:
        return "verify report has a mismatching adopted identity"
    if verify_counts(out) != r.ref["counts"]:
        return f"checks/errata/matches {verify_counts(out)} != seed commit {r.ref['counts']}"
    return None


# -- every workload ---------------------------------------------------------------

# One small request per pass that calls into every layer (about 10 ms), so each
# per-layer metric is measured on every workload and the "no change" side of
# a prediction reads a small measured time rather than nothing.  Its inputs
# are fixed: paths and cycles with closed forms, Q_3, T_2.
TOUCH_CYCLE = 19  # above the 18-bit scan table, so ns_per_subset has a sample


def gen_touch(rng: random.Random) -> Request:
    n = TOUCH_CYCLE
    return Request("touch", (edge_list_text(rng, n, _shape_edges(rng, "cycle", n, None), "touch"),))


def ref_touch(r: Request, point: int) -> None:
    q3 = families.build_chain("Q", 3)
    t2 = families.build_chain("T", 2)
    r.ref = {
        "cycle": tuple(ref.path_cycle_coeffs("cycle", TOUCH_CYCLE)),
        "c8": tuple(ref.path_cycle_coeffs("cycle", 8)),
        "c12": tuple(ref.path_cycle_coeffs("cycle", 12)),
        "q3": (ref.dp_value(q3.n, list(q3.adj), 1), ref.dp_value(q3.n, list(q3.adj), point, ref.MOD)),
        "t2": (ref.dp_value(t2.n, list(t2.adj), 1), ref.dp_value(t2.n, list(t2.adj), point, ref.MOD)),
        "point": point,
    }


def run_touch(r: Request) -> tuple:
    c8 = graph.cycle_graph(8)
    report = verify.verify_families(max_n=2, family_subset=("T",))
    return (
        oracle.domination_polynomial(graph.parse_edge_list(r.args[0]), cap=ENUMERATE_CAP).coeffs,
        oracle.count_dominating_sets(c8),
        oracle.domination_number(c8),
        decompose.vertex_recurrence(graph.cycle_graph(12), memo={}).coeffs,
        families.family_polynomial("Q", 3).coeffs,
        (len(report.checks), sum(c.match for c in report.checks), report.all_match),
        _call_cli(["compute", "--family", "T", "--n", "2", "--format", "json"]),
    )


def check_touch(r: Request, out) -> str | None:
    e, x = r.ref, r.ref["point"]
    cycle, count8, gamma8, c12, q3, report, cli_json = out
    t2 = [int(c) for c in json.loads(cli_json)["coeffs"]]
    if cycle != e["cycle"] or c12 != e["c12"]:
        return "cycle polynomial breaks p_n = x(p_{n-1}+p_{n-2}+p_{n-3})"
    if count8 != sum(e["c8"]) or gamma8 != _gamma(e["c8"]):
        return "C_8 count or domination number differs from the closed form"
    if (sum(q3), ref.eval_coeffs(list(q3), x, ref.MOD)) != e["q3"]:
        return "Q_3 differs from the frontier DP"
    if (sum(t2), ref.eval_coeffs(t2, x, ref.MOD)) != e["t2"]:
        return "CLI T_2 differs from the frontier DP"
    if report != (4, 4, True):
        return f"verify T, max_n 2: checks/matches/all_match {report} != (4, 4, True)"
    return None


# -- dispatch -------------------------------------------------------------------

def generate(workload: str, seed: int, size: str) -> list[Request]:
    rng = random.Random(f"{workload}:{size}:{seed}")
    reqs = {"enumerate": gen_enumerate, "chains": gen_chains,
            "decompose": gen_decompose, "verify": gen_verify}[workload](rng, size)
    reqs.append(gen_touch(rng))
    rng.shuffle(reqs)
    return reqs


def prepare(workload: str, seed: int, reqs: list[Request], golden: dict) -> None:
    """Fill every request's reference values (untimed)."""
    point = random.Random(f"point:{seed}").randrange(2, ref.MOD - 1)
    touch = [r for r in reqs if r.kind == "touch"]
    own = [r for r in reqs if r.kind != "touch"]
    for r in touch:
        ref_touch(r, point)
    if workload == "enumerate":
        ref_enumerate(own)
    elif workload == "chains":
        ref_chains(own, point)
    elif workload == "decompose":
        ref_decompose(own)
    else:
        ref_verify(own, golden)


RUN = {"enumerate": run_enumerate, "chains": run_chains,
       "decompose": run_decompose, "verify": run_verify}
CHECK = {"enumerate": check_enumerate, "chains": check_chains,
         "decompose": check_decompose, "verify": check_verify}


def run(workload: str, r: Request):
    """The timed call of one request."""
    return run_touch(r) if r.kind == "touch" else RUN[workload](r)


def canonical(workload: str, r: Request, out) -> str:
    """Stable text form of an output, for repeat checks and the golden digest."""
    if r.kind == "touch":
        return repr(out)
    if workload == "decompose":
        out = out[0]
    if isinstance(out, (str, int)):
        return str(out)
    if isinstance(out, list):
        return ",".join(map(str, out))
    if workload == "verify":
        return json.dumps(out.to_json_dict(), sort_keys=True)
    return ",".join(map(str, out.coeffs))


def check(workload: str, r: Request, out) -> str | None:
    """Reason the output is wrong, or None; also compares with the first output."""
    reason = check_touch(r, out) if r.kind == "touch" else CHECK[workload](r, out)
    if reason is not None or r.kind == "verify":  # verify counts are checked exactly
        return reason
    text = canonical(workload, r, out)
    if r.last is None:
        r.last = text
    elif text != r.last:
        return "output differs from the previous pass"
    return None


def digest(workload: str, reqs: list[Request], outs: list) -> str:
    h = hashlib.sha256()
    for i, (r, out) in enumerate(zip(reqs, outs)):
        h.update(f"{i}:{r.kind}:{canonical(workload, r, out)}\n".encode())
    return h.hexdigest()


def cli_inputs(workload: str, size: str) -> tuple[list[str], dict[str, str]]:
    """Fixed CLI command of the workload and the input files it reads."""
    tiny = size == "tiny"
    if workload == "chains":
        lo, hi = (5, 7) if tiny else (100, 103)
        return ["compute", "--family", "Q", "--n-range", f"{lo}:{hi}",
                "--method", "recurrence", "--format", "csv"], {}
    if workload == "verify":
        return ["verify", "--max-n", "4" if tiny else "7", "--literal-paper",
                "--format", "json"], {}
    rng = random.Random(f"cli:{workload}:{size}")
    if workload == "enumerate":
        n, density, extra = (12 if tiny else 25), 0.3, ["--format", "json", "--cap", "30"]
    else:
        n, density, extra = (10 if tiny else 18), 0.3, ["--method", "edge"]
    text = edge_list_text(rng, n, _shape_edges(rng, "gnm", n, density), f"{workload} cli input")
    name = f"{workload}.edges"
    return ["compute", "--file", name] + extra, {name: text}
