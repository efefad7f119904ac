"""Spans around calls into each domchain layer, recorded from outside the package.

`instrument` swaps the public functions and methods of every layer module for
wrappers that record one span per call: name, start, end, parent span and
request id.  Spans stay in memory (compact arrays) until the run ends;
`layer_metrics` turns them into the per-layer metrics.  Nothing under `src/`
is edited: the wrappers replace module attributes and class attributes, and
the returned `restore` function puts the originals back.
"""
from __future__ import annotations

import csv
import json
import time
import types
from array import array

import numpy as np

LAYERS = ("graph", "poly", "oracle", "decompose", "families", "verify", "cli")

# span names that turn a result into text under a CLI call
RENDER = frozenset({
    "poly.to_text", "poly.from_text", "poly.coeff_strings", "poly.from_coeff_strings",
    "verify.report_to_text", "verify.report_to_json", "cli.json_dumps", "cli.csv_writerow",
})
SURGERY = frozenset({
    "graph.induced", "graph.delete_vertices", "graph.delete_closed_neighborhood",
    "graph.contract_vertex", "graph.delete_edge", "graph.append_pendant",
    "graph.disjoint_union", "graph.coalesce",
})
ADD_OPS = frozenset({"poly.__add__", "poly.__sub__", "poly.__neg__", "poly.scale_by_monomial"})
SCANS = frozenset({"oracle.domination_table", "oracle.count_dominating_sets"})

# every per-layer metric `layer_metrics` reports, with its unit; values are
# means per traced pass of the request list
PER_LAYER_UNITS = {
    "oracle.scan_calls": "count", "oracle.scan_s": "s", "oracle.subsets": "count",
    "oracle.ns_per_subset": "ns", "oracle.small_scan_us": "us",
    "oracle.restricted_calls": "count", "oracle.restricted_s": "s",
    "oracle.restricted_subsets": "count", "oracle.count_s": "s", "oracle.gamma_s": "s",
    "oracle.self_s": "s",
    "decompose.leaf_scans": "count", "decompose.repeat_leaf_ratio": "ratio",
    "decompose.memo_entries": "count", "decompose.self_s": "s",
    "poly.mul_calls": "count", "poly.mul_s": "s", "poly.mul_terms": "count",
    "poly.max_coeff_bits": "bits", "poly.add_calls": "count", "poly.add_s": "s",
    "poly.div_calls": "count", "poly.self_s": "s",
    "families.self_s": "s", "families.stream_steps": "count",
    "graph.surgery_calls": "count", "graph.surgery_s": "s", "graph.parse_s": "s",
    "graph.self_s": "s",
    "verify.checks": "count", "verify.self_s": "s", "verify.oracle_scans": "count",
    "verify.repeat_scan_ratio": "ratio",
    "cli.self_s": "s", "cli.render_s": "s",
    "bench.other_s": "s", "trace.wall_s": "s", "trace.overhead_ratio": "ratio",
}


class Tracer:
    """In-memory span store; `on` gates recording so set-up and checks stay untraced."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.on = False
        self.request = -1
        self.current = -1
        self.next_id = 0
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.sid = array("q")
        self.name = array("q")
        self.parent = array("q")
        self.req = array("q")
        self.start = array("d")
        self.end = array("d")
        self.attr = array("d")   # vertex count, subsets, terms or stream steps
        self.key = array("q")    # graph hash for scans, coefficient bits for products

    def __len__(self) -> int:
        return len(self.sid)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, attr=None):
        """Wrapper that records a span per call; `attr(args, result)` gives (attr, key)."""
        nid = self.name_id(name)
        tr = self

        def traced(*args, **kwargs):
            if not tr.on:
                return fn(*args, **kwargs)
            sid = tr.next_id
            tr.next_id = sid + 1
            parent = tr.current
            tr.current = sid
            t0 = tr.clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = tr.clock()
                tr.current = parent
                a, k = attr(args, result) if ok and attr is not None else (0.0, 0)
                tr.sid.append(sid)
                tr.name.append(nid)
                tr.parent.append(parent)
                tr.req.append(tr.request)
                tr.start.append(t0)
                tr.end.append(t1)
                tr.attr.append(a)
                tr.key.append(k)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def write_jsonl(self, path) -> None:
        """One JSON object per span, in completion order."""
        with open(path, "w") as f:
            for i in range(len(self)):
                f.write(json.dumps({
                    "id": self.sid[i], "name": self.names[self.name[i]],
                    "parent": self.parent[i], "request": self.req[i],
                    "start": self.start[i], "end": self.end[i],
                    "attr": self.attr[i], "key": self.key[i],
                }) + "\n")


# -- attribute extractors (run after the call, outside the span) -------------

def _scan_attr(args, result):
    g = args[0]
    return float(g.n), hash(g)


def _restricted_attr(args, result):
    g, u = args[0], args[1]
    return float(2 ** (g.n - 1 - g.adj[u].bit_count())), 0


def _mul_attr(args, result):
    c = result.coeffs
    bits = max(max(c).bit_length(), min(c).bit_length()) if c else 0
    return float(len(args[0].coeffs) * len(args[1].coeffs)), bits


def _stream_attr(args, result):
    return float(args[0] + 1), 0


def _t_poly_attr(args, result):
    return float(max(args[0] - 2, 0)), 0


_FUNCTIONS = {
    "graph": ("disjoint_union", "coalesce", "connected_components", "parse_edge_list",
              "format_edge_list", "complete_graph", "path_graph", "cycle_graph"),
    "oracle": ("domination_table", "domination_polynomial", "count_dominating_sets",
               "domination_number", "restricted_polynomial"),
    "decompose": ("vertex_recurrence", "edge_recurrence", "edge_recurrence_bracket",
                  "components_product"),
    "families": ("family_polynomial", "t_polynomial", "t_coefficient_table", "t_count_sequence",
                 "q_stream", "o_stream", "q_polynomial", "o_polynomial", "build_chain",
                 "attach_gadget", "triangle_chain", "para_chain", "ortho_chain", "family_order"),
    "verify": ("verify_families",),
    "cli": ("main", "cmd_compute", "cmd_verify", "cmd_sequence", "cmd_bench"),
}
# (layer, class name, method, span name)
_METHODS = (
    [("graph", "Graph", m, f"graph.{m}") for m in (
        "induced", "delete_vertices", "delete_closed_neighborhood", "contract_vertex",
        "delete_edge", "append_pendant", "from_edges")]
    + [("poly", "DomPoly", m, f"poly.{m}") for m in (
        "__add__", "__sub__", "__neg__", "__mul__", "scale_by_monomial", "eval_at",
        "divide_exact_by_x_minus_1", "to_text", "coeff_strings", "from_text",
        "from_coeff_strings")]
    + [("verify", "VerificationReport", "to_text", "verify.report_to_text"),
       ("verify", "VerificationReport", "to_json_dict", "verify.report_to_json")]
)
_ATTRS = {
    "oracle.domination_table": _scan_attr,
    "oracle.count_dominating_sets": _scan_attr,
    "oracle.domination_number": _scan_attr,
    "oracle.restricted_polynomial": _restricted_attr,
    "poly.__mul__": _mul_attr,
    "families.q_stream": _stream_attr,
    "families.o_stream": _stream_attr,
    "families.t_polynomial": _t_poly_attr,
}


class _CsvWriter:
    __slots__ = ("_w", "_row")

    def __init__(self, w, row):
        self._w = w
        self._row = row

    def writerow(self, row):
        return self._row(self._w, row)


def instrument(tracer: Tracer, modules: dict[str, types.ModuleType]):
    """Wrap every listed entry point of the layer modules; return a restore function.

    `modules` maps "package" and each layer name to its module.  A function is
    replaced in every domchain namespace that holds it, so calls through
    `from .graph import parse_edge_list` style imports are traced too.
    """
    undo: list[tuple[object, str, object]] = []
    namespaces = list(modules.values())

    for layer, names in _FUNCTIONS.items():
        for fname in names:
            fn = getattr(modules[layer], fname)
            span = f"{layer}.{fname}"
            wrapped = tracer.wrap(fn, span, _ATTRS.get(span))
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is fn:
                        undo.append((ns, attr, value))
                        setattr(ns, attr, wrapped)

    for layer, cls_name, meth, span in _METHODS:
        cls = getattr(modules[layer], cls_name)
        raw = cls.__dict__[meth]
        undo.append((cls, meth, raw))
        if isinstance(raw, classmethod):
            setattr(cls, meth, classmethod(tracer.wrap(raw.__func__, span)))
        else:
            setattr(cls, meth, tracer.wrap(raw, span, _ATTRS.get(span)))

    cli = modules["cli"]
    dumps = tracer.wrap(json.dumps, "cli.json_dumps")
    row = tracer.wrap(lambda w, r: w.writerow(r), "cli.csv_writerow")
    undo.append((cli, "json", cli.json))
    undo.append((cli, "csv", cli.csv))
    cli.json = types.SimpleNamespace(dumps=dumps)
    cli.csv = types.SimpleNamespace(writer=lambda f, *a, **k: _CsvWriter(csv.writer(f, *a, **k), row))

    def restore():
        for obj, attr, value in reversed(undo):
            setattr(obj, attr, value)

    return restore


# -- aggregation --------------------------------------------------------------

def span_table(tracer: Tracer) -> dict[str, np.ndarray]:
    """Spans as numpy columns indexed by span id, with self time and ancestry."""
    n = len(tracer)
    sid = np.array(tracer.sid, dtype=np.int64)
    order = np.argsort(sid, kind="stable")
    if not np.array_equal(sid[order], np.arange(n)):
        raise ValueError("span ids are not contiguous: a span was left open")
    col = {
        name: np.array(getattr(tracer, name), dtype=dtype)[order]
        for name, dtype in (("name", np.int64), ("parent", np.int64), ("req", np.int64),
                            ("start", np.float64), ("end", np.float64),
                            ("attr", np.float64), ("key", np.int64))
    }
    dur = col["end"] - col["start"]
    has_parent = col["parent"] >= 0
    child = np.bincount(col["parent"][has_parent], weights=dur[has_parent], minlength=n)
    col["dur"] = dur
    col["self"] = dur - child[:n]
    layer_index = {name: i for i, name in enumerate(LAYERS)}
    name_layer = np.array([layer_index[s.split(".")[0]] for s in tracer.names] + [0], dtype=np.int64)
    name_render = np.array([s in RENDER for s in tracer.names] + [False])
    col["layer"] = name_layer[col["name"]]
    # ancestors' layers as a bitmask (bit 7 marks a render ancestor); a parent
    # always has a smaller id, so propagating once per nesting level settles it
    own = (1 << col["layer"]) | (name_render[col["name"]].astype(np.int64) << 7)
    has = col["parent"] >= 0
    p = np.where(has, col["parent"], 0)
    anc = np.zeros(n, dtype=np.int64)
    while True:
        nxt = np.where(has, anc[p] | own[p], 0)
        if np.array_equal(nxt, anc):
            break
        anc = nxt
    col["anc"] = anc
    return col


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _repeat_ratio(req: np.ndarray, key: np.ndarray) -> float:
    """Share of scans whose graph was already scanned earlier in the same request."""
    seen = set()
    repeats = 0
    for pair in zip(req.tolist(), key.tolist()):
        if pair in seen:
            repeats += 1
        seen.add(pair)
    return _ratio(repeats, len(req))


def layer_metrics(tracer: Tracer, passes: int, traced_wall: float, untraced_wall: float,
                  counters: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics, each a mean per traced pass of the request list.

    `traced_wall` is the summed wall time of the traced passes and
    `untraced_wall` the median wall time of an untraced pass in the same run;
    `counters` holds values read by the benchmark itself (memo sizes, checks).
    """
    t = span_table(tracer)
    dur, self_t, attr, anc = t["dur"], t["self"], t["attr"], t["anc"]

    def pick(*span_names):
        ids = [tracer.name_id(s) for s in span_names]
        return np.isin(t["name"], ids)

    per = 1.0 / passes
    out: dict[str, float] = {}
    for i, layer in enumerate(LAYERS):
        out[f"{layer}.self_s"] = float(self_t[t["layer"] == i].sum()) * per
    covered = float(self_t.sum())
    out["bench.other_s"] = (traced_wall - covered) * per
    out["trace.wall_s"] = traced_wall * per
    out["trace.overhead_ratio"] = _ratio(traced_wall * per, untraced_wall)

    scan = pick("oracle.domination_table")
    n_v = attr[scan]
    big = n_v > 18
    out["oracle.scan_calls"] = float(scan.sum()) * per
    out["oracle.scan_s"] = float(dur[scan].sum()) * per
    out["oracle.subsets"] = float(np.exp2(n_v).sum()) * per
    out["oracle.ns_per_subset"] = _ratio(float(dur[scan][big].sum()) * 1e9, float(np.exp2(n_v[big]).sum()))
    out["oracle.small_scan_us"] = _ratio(float(dur[scan][~big].sum()) * 1e6, float((~big).sum()))
    restricted = pick("oracle.restricted_polynomial")
    out["oracle.restricted_calls"] = float(restricted.sum()) * per
    out["oracle.restricted_s"] = float(dur[restricted].sum()) * per
    out["oracle.restricted_subsets"] = float(attr[restricted].sum()) * per
    out["oracle.count_s"] = float(dur[pick("oracle.count_dominating_sets")].sum()) * per
    out["oracle.gamma_s"] = float(dur[pick("oracle.domination_number")].sum()) * per

    leaf = scan & (anc & (1 << LAYERS.index("decompose")) != 0)
    out["decompose.leaf_scans"] = float(leaf.sum()) * per
    out["decompose.repeat_leaf_ratio"] = _repeat_ratio(t["req"][leaf], t["key"][leaf])

    mul = pick("poly.__mul__")
    add = pick(*ADD_OPS)
    out["poly.mul_calls"] = float(mul.sum()) * per
    out["poly.mul_s"] = float(dur[mul].sum()) * per
    out["poly.mul_terms"] = float(attr[mul].sum()) * per
    out["poly.max_coeff_bits"] = float(t["key"][mul].max()) if mul.any() else 0.0
    out["poly.add_calls"] = float(add.sum()) * per
    out["poly.add_s"] = float(dur[add].sum()) * per
    out["poly.div_calls"] = float(pick("poly.divide_exact_by_x_minus_1").sum()) * per

    out["families.stream_steps"] = float(attr[pick("families.q_stream", "families.o_stream",
                                                   "families.t_polynomial")].sum()) * per

    surgery = pick(*SURGERY)
    out["graph.surgery_calls"] = float(surgery.sum()) * per
    out["graph.surgery_s"] = float(self_t[surgery].sum()) * per
    out["graph.parse_s"] = float(dur[pick("graph.parse_edge_list")].sum()) * per

    vscan = pick(*SCANS) & (anc & (1 << LAYERS.index("verify")) != 0)
    out["verify.oracle_scans"] = float(vscan.sum()) * per
    out["verify.repeat_scan_ratio"] = _repeat_ratio(t["req"][vscan], t["key"][vscan])

    is_render = pick(*RENDER)
    under_cli = anc & (1 << LAYERS.index("cli")) != 0
    top_render = is_render & under_cli & (anc & 128 == 0)
    out["cli.render_s"] = float(dur[top_render].sum()) * per

    for name in ("decompose.memo_entries", "verify.checks"):
        out[name] = counters.get(name, 0.0) * per
    return {name: out[name] for name in PER_LAYER_UNITS}
