"""domchain benchmark: one closed-loop client, seeded workloads, checked outputs.

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory, nothing is installed.  The last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics` (the
end-to-end metrics with `--trace 0`, the per-layer metrics with `--trace 1`).
The lines before it print every metric with its unit and the run metadata.
See perfbench/README.md for the metric dictionary.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing

# `workloads` imports domchain, so it is imported inside the functions that
# need it, after main() has put the checkout's src/ on sys.path.

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

PROBES_MIN = {"full": 5, "tiny": 1}   # fresh-process samples per run, each of setup_s and cli_s
PROBES_MAX = {"full": 12, "tiny": 1}
MIN_BEYOND_P90 = 10
CHILD_TIMEOUT_S = 120
UNTRACED_SHARE = 1 / 3  # share of a traced run spent on untraced passes (overhead baseline)

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "req_p50_ms": "ms", "req_p90_ms": "ms",
             "cli_s": "s", "peak_rss_mb": "MB", "fail_ratio": "ratio"}
# fail_ratio is printed but is no metric of the result line: it is 0 on a
# correct program, and the result line carries `attempted` and `failed`
E2E_METRICS = ("setup_s", "wall_s", "req_p50_ms", "req_p90_ms", "cli_s", "peak_rss_mb")


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100)."""
    xs = sorted(samples)
    rank = max(1, -(-len(xs) * q // 100))  # ceil without floats
    return xs[int(rank) - 1]


def beyond(samples: list[float], value: float) -> int:
    return sum(1 for s in samples if s > value)


def p90_resolved(samples: list[float]) -> bool:
    """True once at least MIN_BEYOND_P90 samples lie above the 90th percentile."""
    return bool(samples) and beyond(samples, percentile(samples, 90)) >= MIN_BEYOND_P90


def load_golden() -> dict:
    path = HERE / "golden.json"
    return json.loads(path.read_text()) if path.exists() else {}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def read_commit() -> str:
    """HEAD commit from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref_name = head[5:]
        ref_file = git / ref_name
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref_name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(args, samples: dict) -> dict:
    import numpy
    return {
        "commit": read_commit(), "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": args.trace, "oracle_threads": 1,
        "samples": samples,
    }


# -- fresh-process measurements ------------------------------------------------

class Probes:
    """Fresh-process samples, taken between passes so they span the whole run.

    `setup` holds spawn-to-ready times of a process that imports domchain and
    builds the workload's inputs; `cli` holds wall times of a `domchain`
    process running the workload's fixed command, whose stdout must match
    the seed commit's.  One child runs at a time and is waited for.
    """

    def __init__(self, args, golden: dict):
        import workloads
        self.args = args
        self.setup: list[float] = []
        self.cli: list[float] = []
        self.cli_bad = 0
        self.probe_cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
                          "--workload", args.workload, "--seed", str(args.seed),
                          "--size", args.size]
        argv, files = workloads.cli_inputs(args.workload, args.size)
        self.cli_cmd = [sys.executable, "-m", "domchain.cli"] + argv
        self.cli_want = golden.get("cli", {}).get(f"{args.workload}:{args.size}")
        self.work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
        for name, text in files.items():
            (self.work / name).write_text(text)

    def once(self) -> None:
        t0 = time.perf_counter()
        with subprocess.Popen(self.probe_cmd, stdout=subprocess.PIPE, cwd=ROOT, env=child_env(),
                              text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            try:
                code = proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
        self.setup.append(t1 - t0)

        t0 = time.perf_counter()
        proc = subprocess.run(self.cli_cmd, cwd=self.work, env=child_env(), capture_output=True,
                              timeout=CHILD_TIMEOUT_S)
        self.cli.append(time.perf_counter() - t0)
        if proc.returncode != 0 or hashlib.sha256(proc.stdout).hexdigest() != self.cli_want:
            self.cli_bad += 1

    def between_passes(self) -> None:
        if len(self.setup) < PROBES_MAX[self.args.size]:
            self.once()

    def finish(self) -> None:
        while len(self.setup) < PROBES_MIN[self.args.size]:
            self.once()

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


# -- the closed loop -----------------------------------------------------------

class Loop:
    """Runs the request list pass after pass; records latencies and failures."""

    def __init__(self, workload: str, reqs: list, tracer=None):
        import workloads
        self.w = workloads
        self.workload = workload
        self.reqs = reqs
        self.tracer = tracer
        self.latencies: list[float] = []
        self.pass_walls: list[float] = []
        self.traced_walls: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.counters = {"decompose.memo_entries": 0.0, "verify.checks": 0.0}
        self.next_request = 0

    def median_pass(self) -> float:
        """Wall time of one pass, as the sum over requests of each request's
        median latency across the untraced passes; a burst of contention that
        slows part of a pass moves no request's median."""
        n = len(self.reqs)
        return sum(statistics.median(self.latencies[i::n]) for i in range(n))

    def one_pass(self, traced: bool = False) -> list:
        results = []
        tr = self.tracer
        if traced:
            tr.on = True
        p0 = time.perf_counter()
        for r in self.reqs:
            if traced:
                tr.request = self.next_request
            self.next_request += 1
            t0 = time.perf_counter()
            try:
                out, err = self.w.run(self.workload, r), None
            except Exception as e:  # a failed request is counted, not fatal
                out, err = None, f"{type(e).__name__}: {e}"
            results.append((out, err, time.perf_counter() - t0))
        wall = time.perf_counter() - p0
        if traced:
            tr.on = False
            self.traced_walls.append(wall)
        else:
            self.pass_walls.append(wall)
            self.latencies.extend(lat for _, _, lat in results)
        outs = []
        for r, (out, err, _) in zip(self.reqs, results):
            self.attempted += 1
            reason = err if err is not None else self.w.check(self.workload, r, out)
            if reason is not None:
                self.failed += 1
                if len(self.failures) < 20:
                    self.failures.append(f"{r.kind} request: {reason}")
            elif traced:
                if r.kind in ("vertex", "edge", "product"):
                    self.counters["decompose.memo_entries"] += out[1]
                elif r.kind == "verify":
                    self.counters["verify.checks"] += len(out.checks)
            outs.append(out)
        return outs


def run_workload(args, golden: dict, probes: Probes) -> dict:
    import workloads
    reqs = workloads.generate(args.workload, args.seed, args.size)
    workloads.prepare(args.workload, args.seed, reqs, golden)
    tracer = tracing.Tracer() if args.trace else None
    loop = Loop(args.workload, reqs, tracer)

    # a traced run spends a third of its time untraced, as the overhead
    # baseline; only an untraced run needs the 90th percentile resolved
    start = time.perf_counter()
    untraced_until = start + (args.seconds * UNTRACED_SHARE if args.trace else args.seconds)
    outs = loop.one_pass()
    digest_key = f"{args.workload}:{args.size}:{args.seed}"
    want = golden.get("outputs", {}).get(digest_key)
    got = workloads.digest(args.workload, reqs, outs) if loop.failed == 0 else None
    if want is not None:
        loop.attempted += 1
        if got != want:
            loop.failed += 1
            loop.failures.append(f"output digest for {digest_key} differs from the seed commit")
    probes.between_passes()
    while time.perf_counter() < untraced_until or not (args.trace or p90_resolved(loop.latencies)):
        loop.one_pass()
        probes.between_passes()
    layer = {}
    if args.trace:
        import domchain
        mods = {"package": domchain, **{m: sys.modules[f"domchain.{m}"] for m in tracing.LAYERS}}
        restore = tracing.instrument(tracer, mods)
        try:
            while True:
                loop.one_pass(traced=True)
                probes.between_passes()
                if time.perf_counter() - start >= args.seconds:
                    break
        finally:
            restore()
        layer = tracing.layer_metrics(tracer, len(loop.traced_walls), sum(loop.traced_walls),
                                      statistics.median(loop.pass_walls), loop.counters)
        if args.out:
            Path(args.out).mkdir(parents=True, exist_ok=True)
            tracer.write_jsonl(Path(args.out) / f"spans-{args.workload}-{args.seed}.jsonl")
    return {"loop": loop, "layer": layer, "digest": got, "spans": len(tracer) if tracer else 0}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="domchain benchmark")
    p.add_argument("--workload", required=True, choices=("enumerate", "chains", "decompose", "verify"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: small inputs for the benchmark's own tests")
    p.add_argument("--out", metavar="DIR", default=None,
                   help="also write the result (and spans when tracing) as files in DIR")
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "domchain" / "__init__.py").is_file():
        print(f"perfbench: no domchain sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import domchain
    if Path(domchain.__file__).resolve().parent != (SRC / "domchain").resolve():
        print(f"perfbench: imported domchain from {domchain.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.probe:
        workloads.generate(args.workload, args.seed, args.size)
        print("ready", flush=True)
        return 0

    golden = load_golden()
    probes = Probes(args, golden)
    try:
        res = run_workload(args, golden, probes)
        probes.finish()
    finally:
        probes.close()
    setup, cli_times = probes.setup, probes.cli
    loop = res["loop"]
    loop.attempted += len(cli_times)
    loop.failed += probes.cli_bad
    if probes.cli_bad:
        loop.failures.append(f"{probes.cli_bad} CLI run(s) exited non-zero or changed stdout")

    lat_ms = [x * 1000 for x in loop.latencies]
    e2e = {
        "setup_s": statistics.median(setup),
        "wall_s": loop.median_pass(),
        "req_p50_ms": percentile(lat_ms, 50),
        "req_p90_ms": percentile(lat_ms, 90),
        "cli_s": statistics.median(cli_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "fail_ratio": loop.failed / loop.attempted,
    }
    samples = {"setup_s": len(setup), "wall_s": len(loop.pass_walls), "requests": len(lat_ms),
               "attempted": loop.attempted,
               "beyond_p90": beyond(lat_ms, e2e["req_p90_ms"]), "cli_s": len(cli_times),
               "traced_passes": len(loop.traced_walls), "spans": res["spans"]}
    meta = metadata(args, samples)
    correct = loop.failed == 0

    print(f"perfbench {args.workload} seed={args.seed} size={args.size} trace={args.trace}: "
          f"{len(loop.pass_walls)} untraced + {len(loop.traced_walls)} traced passes of "
          f"{len(loop.reqs)} requests, closed loop, 1 client, oracle threads=1")
    sample_key = {"req_p50_ms": "requests", "req_p90_ms": "requests", "fail_ratio": "attempted"}
    for name, value in e2e.items():
        n = samples.get(sample_key.get(name, name), 1)
        print(f"  {name:<28} {value:>14.6g} {E2E_UNITS[name]:<6} (samples: {n})")
    for name, value in res["layer"].items():
        print(f"  {name:<28} {value:>14.6g} {tracing.PER_LAYER_UNITS[name]}")
    for f in loop.failures:
        print(f"  FAILED {f}")
    print("meta " + json.dumps(meta))

    if args.trace:
        metrics = {k: {"value": v, "unit": tracing.PER_LAYER_UNITS[k]} for k, v in res["layer"].items()}
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items() if k in E2E_METRICS}
    result = {"correct": correct, "attempted": loop.attempted, "failed": loop.failed,
              "metrics": metrics}
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        full = dict(result, meta=meta, end_to_end=e2e, per_layer=res["layer"],
                    pass_walls=loop.pass_walls, traced_walls=loop.traced_walls,
                    failures=loop.failures, digest=res["digest"])
        (out / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(full, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
