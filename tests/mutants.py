"""Hand mutants of src/domchain, and a runner that reports the ones tier-1 lets through.

Each mutant is one string replacement in one file under src/.  The runner copies
src/, tests/ and perfbench/reference.py (tests/conftest.py loads it) to a
temporary directory, applies one mutant there, and runs `python -m pytest -q -x
tests` in it with PYTHONPATH=src.  A failing run kills the mutant.  A mutant
marked equivalent changes no behaviour, so it is expected to survive.

    python tests/mutants.py              # every mutant, one tier-1 run each
    python tests/mutants.py --check      # no tests: each old text occurs once in its file

The exit status is 0 when every mutant that is not equivalent is killed and no
equivalent one is (with --check: when every old text occurs exactly once), and
1 otherwise.  A tier-1 run cut off after TIMEOUT seconds kills its mutant.  pytest
does not collect this file: its name is not test_*.py.
"""
from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT = 900  # seconds per tier-1 run


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root, under src/
    old: str   # occurs exactly once in the file
    new: str
    equivalent: bool = False


FAMILIES = "src/domchain/families.py"

MUTANTS = (
    Mutant("residuals checked to start + 1 only", FAMILIES,
           "characteristic) + 2)", "characteristic) + 1)"),
    Mutant("residual skipped at n = start", FAMILIES,
           "if n >= e.start:", "if n > e.start:"),
    Mutant("look-back one n below the first graph n allowed", FAMILIES,
           "if low < first:", "if low < first - 1:"),
    Mutant("stream_values' unknown-system refusal dropped", FAMILIES,
           '    if family not in STREAMS:\n'
           '        raise ValueError(f"no system {family!r}; systems are {STREAMS}")\n', ""),
    Mutant("T's zero det M kept, so T's rule has order 3", "src/domchain/transfer.py",
           "    while cs and cs[-1].is_zero():\n        cs.pop()\n", ""),
    Mutant("_proven returns a copy of its values", FAMILIES,
           "    return want\n", "    return dict(want)\n", equivalent=True),
    Mutant("an identity may read its own stream at offset 0", FAMILIES,
           "streams[:i] if off == 0", "streams[:i + 1] if off == 0"),
    Mutant("_held takes e = gamma - 1", FAMILIES,
           "    e = p.gamma() or 0\n", "    e = max((p.gamma() or 0) - 1, 0)\n"),
    Mutant("_proven skips the characteristic rules", FAMILIES,
           "for rules in (identities, characteristic):", "for rules in (identities,):"),
    Mutant("an identity may read any stream ahead in n", FAMILIES,
           "if off == 0 else ()", "if off == 0 else streams"),
    Mutant("check_n's recurrence limit checks only the family itself", FAMILIES,
           "(family,) + (STREAMS[family[0]] if recurrence else ())", "(family,)"),
)


def stale() -> list[str]:
    """One line per mutant whose old text does not occur exactly once in its file."""
    out = []
    for m in MUTANTS:
        count = (ROOT / m.path).read_text().count(m.old)
        if count != 1:
            out.append(f"{m.name}: old text occurs {count} times in {m.path}")
    return out


def run(m: Mutant) -> tuple[bool, str]:
    """(killed, the first failure pytest names or why the run stopped) for one mutant."""
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis", ".pytest_cache")
    with tempfile.TemporaryDirectory(prefix="domchain-mutant-") as tmp:
        work = Path(tmp)
        for d in ("src", "tests"):
            shutil.copytree(ROOT / d, work / d, ignore=skip)
        (work / "perfbench").mkdir()
        shutil.copy2(ROOT / "perfbench" / "reference.py", work / "perfbench")
        target = work / m.path
        target.write_text(target.read_text().replace(m.old, m.new, 1))
        env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        try:
            done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p",
                                   "no:cacheprovider", "tests"], cwd=work, env=env,
                                  capture_output=True, text=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            return True, f"timed out after {TIMEOUT} s"
    failed = [line for line in done.stdout.splitlines() if line.startswith(("FAILED", "ERROR"))]
    summary = done.stdout.strip().splitlines()[-1:] or [f"exit {done.returncode}"]
    return done.returncode != 0, (failed or summary)[0]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="only check that each mutant's old text occurs once in its file")
    args = parser.parse_args(argv)
    problems = stale()
    for line in problems:
        print(f"stale: {line}")
    if args.check or problems:
        if not problems:
            print(f"{len(MUTANTS)} mutants: each old text occurs once in its file")
        return 1 if problems else 0
    tally = {"killed": 0, "equivalent": 0, "survived": 0}
    wrong = 0
    for m in MUTANTS:
        start = time.perf_counter()
        killed, detail = run(m)
        if m.equivalent:
            status = "equivalent" + (", but killed" if killed else "")
            wrong += killed
            tally["equivalent"] += 1
        else:
            status = "killed" if killed else "SURVIVED"
            wrong += not killed
            tally["killed" if killed else "survived"] += 1
        print(f"{status:<24} {m.name}  ({time.perf_counter() - start:.0f} s; {detail})",
              flush=True)
    print(", ".join(f"{n} {what}" for what, n in tally.items()))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
