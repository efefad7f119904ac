"""Tests of the benchmark itself: span accounting, percentile rule, failure
counting, reference methods, and a tiny run of every workload."""
from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys

import pytest

import run
import tracing

sys.path.insert(0, str(run.SRC))
import reference  # noqa: E402
import workloads  # noqa: E402
from domchain import Graph, build_chain, domination_polynomial, FAMILY_NAMES  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_self_time_of_nested_spans():
    now = [0.0]
    tr = tracing.Tracer(clock=lambda: now[0])

    def tick(dt):
        now[0] += dt

    leaf = tr.wrap(lambda: tick(1.0), "poly.__add__")

    def mid_body():
        tick(1.0)
        leaf()
        tick(1.0)

    mid = tr.wrap(mid_body, "oracle.domination_polynomial")

    def top_body():
        tick(2.0)
        mid()
        mid()
        tick(1.0)

    top = tr.wrap(top_body, "decompose.vertex_recurrence")
    tr.on = True
    top()
    tr.on = False
    tick(1.0)  # time outside every span
    t = tracing.span_table(tr)
    # ids in call order: top 0, mid 1, leaf 2, mid 3, leaf 4
    assert t["dur"].tolist() == [9.0, 3.0, 1.0, 3.0, 1.0]
    assert t["self"].tolist() == [3.0, 2.0, 1.0, 2.0, 1.0]
    assert t["parent"].tolist() == [-1, 0, 1, 0, 3]
    decompose_bit = 1 << tracing.LAYERS.index("decompose")
    oracle_bit = 1 << tracing.LAYERS.index("oracle")
    assert t["anc"][2] == decompose_bit | oracle_bit

    m = tracing.layer_metrics(tr, passes=1, traced_wall=10.0, untraced_wall=5.0, counters={})
    assert (m["decompose.self_s"], m["oracle.self_s"], m["poly.self_s"]) == (3.0, 4.0, 2.0)
    assert m["bench.other_s"] == 1.0
    assert sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS) + m["bench.other_s"] == 10.0
    assert m["trace.overhead_ratio"] == 2.0
    assert m["poly.add_calls"] == 2.0 and m["poly.add_s"] == 2.0


def test_untraced_calls_record_nothing():
    tr = tracing.Tracer()
    f = tr.wrap(lambda x: x + 1, "poly.__add__")
    assert f(1) == 2
    assert len(tr) == 0


def test_p90_needs_ten_samples_beyond_it():
    xs = [float(i) for i in range(1, 100)]
    assert run.percentile(xs, 90) == 90.0
    assert run.beyond(xs, 90.0) == 9
    assert not run.p90_resolved(xs)
    xs.append(100.0)
    assert run.beyond(xs, run.percentile(xs, 90)) == 10
    assert run.p90_resolved(xs)
    assert run.percentile(xs, 50) == 50.0


def test_wrong_reference_value_counts_as_failure():
    reqs = workloads.generate("enumerate", 0, "tiny")
    workloads.prepare("enumerate", 0, reqs, run.load_golden())
    loop = run.Loop("enumerate", reqs)
    loop.one_pass()
    assert (loop.attempted, loop.failed) == (len(reqs), 0)

    victim = next(r for r in reqs if r.kind == "poly")
    victim.ref = dict(victim.ref, count=victim.ref["count"] + 1)
    loop.one_pass()
    assert (loop.attempted, loop.failed) == (2 * len(reqs), 1)
    assert "count_dominating_sets" in loop.failures[0]


def test_wrong_verify_counts_count_as_failure():
    reqs = workloads.generate("verify", 0, "tiny")
    workloads.prepare("verify", 0, reqs, run.load_golden())
    victim = next(r for r in reqs if r.kind == "verify")
    victim.ref = {"counts": [c + 1 for c in victim.ref["counts"]]}
    loop = run.Loop("verify", reqs)
    loop.one_pass()
    assert loop.failed == 1


def test_reference_methods_agree_with_oracle():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(5, 12)
        g = Graph.from_edges(n, workloads.gnm(rng, n, rng.random() * 0.6))
        p = domination_polynomial(g)
        adj = list(g.adj)
        assert reference.dp_value(n, adj, 1) == p.eval_at(1)
        assert reference.dp_value(n, adj, 5, reference.MOD) == p.eval_at(5) % reference.MOD
        assert all(p[k] == v for k, v in reference.edge_coeffs(n, adj).items())
        assert reference.parse_poly_text(p.to_text()) == {i: c for i, c in enumerate(p.coeffs) if c}
    for family in FAMILY_NAMES:
        g = build_chain(family, 3)
        assert reference.dp_value(g.n, list(g.adj), 3) == domination_polynomial(g).eval_at(3)
    assert reference.t_counts(4) == [2, 7, 25, 89, 317]


def test_planted_graphs_have_the_planted_domination_number():
    rng = random.Random(3)
    for n, k in ((10, 3), (12, 4), (13, 3)):
        edges = workloads.planted(rng, n, k)
        assert domination_polynomial(Graph.from_edges(n, edges)).gamma() == k


def test_benchmark_json_matches_the_metrics_the_code_reports():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.E2E_METRICS)
    assert all(m["unit"] == run.E2E_UNITS[m["name"]] for m in SPEC["end_to_end"])
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.PER_LAYER_UNITS
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def _bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_traced_run_prints_every_metric(workload):
    proc = _bench("--workload", workload, "--seed", "0", "--seconds", "0", "--trace", "1",
                  "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    # every layer is reached on every workload, so no time reads as nothing
    times = {k: v["value"] for k, v in result["metrics"].items() if v["unit"] in ("s", "us", "ns")}
    assert all(v > 0 for v in times.values()), times
    table = "\n".join(lines[:-1])
    for m in SPEC["end_to_end"] + SPEC["per_layer"] + [{"name": "fail_ratio"}]:
        assert f" {m['name']} " in table


def test_untraced_run_reports_end_to_end_metrics():
    proc = _bench("--workload", "verify", "--seed", "0", "--seconds", "0", "--trace", "0",
                  "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "chains", "--seed", "0", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
