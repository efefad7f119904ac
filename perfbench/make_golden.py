"""Regenerate perfbench/golden.json from the current sources.

    python3 perfbench/make_golden.py

The golden file pins what the seed commit printed and returned: the stdout
digest of each workload's CLI command, the verify check/errata/match counts
of every parameter combination a seed can draw, and the output digest of the
default seed (0).  Regenerate it only when an output is meant to change.
"""
from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402


def cli_digest(workload: str, size: str) -> str:
    argv, files = workloads.cli_inputs(workload, size)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as work:
        for name, text in files.items():
            (Path(work) / name).write_text(text)
        proc = subprocess.run([sys.executable, "-m", "domchain.cli"] + argv, cwd=work,
                              env=run.child_env(), capture_output=True, check=True)
    return hashlib.sha256(proc.stdout).hexdigest()


def output_digest(workload: str, size: str, seed: int, golden: dict) -> str:
    reqs = workloads.generate(workload, seed, size)
    workloads.prepare(workload, seed, reqs, golden)
    outs = [workloads.run(workload, r) for r in reqs]
    for r, out in zip(reqs, outs):
        reason = workloads.check(workload, r, out)
        if reason is not None:
            raise SystemExit(f"{workload}/{size}: {r.kind}: {reason}")
    return workloads.digest(workload, reqs, outs)


def main() -> None:
    golden: dict = {"verify_counts": {}, "cli": {}, "outputs": {}}
    for size in workloads.SIZES:
        for fams, max_n, cap, lit in workloads.verify_menu(size):
            report = workloads.verify.verify_families(max_n=max_n, family_subset=tuple(fams),
                                                      include_literal=lit, cap=cap)
            if not report.all_match:
                raise SystemExit(f"verify {fams} {max_n} {cap} {lit} does not match")
            key = workloads.verify_key(fams, max_n, cap, lit)
            golden["verify_counts"][key] = workloads.verify_counts(report)
    for size in workloads.SIZES:
        for w in workloads.WORKLOADS:
            golden["cli"][f"{w}:{size}"] = cli_digest(w, size)
            golden["outputs"][f"{w}:{size}:0"] = output_digest(w, size, 0, golden)
            print(w, size, "done", flush=True)
    (run.HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
