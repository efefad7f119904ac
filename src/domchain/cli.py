"""Command-line front end: compute, verify, sequence, bench.

Exit codes: 0 success / all-match, 1 usage or input error, 2 verification
mismatch, a closed system its certificate refutes or the edge identity failing
its own check, 3 enumeration cap exceeded.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys
import time

from . import decompose, families, oracle, verify
from .graph import parse_edge_list
from .poly import DomPoly, ExactDivisionError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_CAP = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; 2 is reserved for verification
    # mismatches here, so route usage errors to exit code 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _parse_range(text: str) -> range:
    """'A:B' -> inclusive range A..B."""
    try:
        a, b = text.split(":")
        lo, hi = int(a), int(b)
    except ValueError:
        raise ValueError(f"expected range 'A:B', got {text!r}") from None
    if lo > hi:
        raise ValueError(f"empty range {text!r}")
    return range(lo, hi + 1)


def _sink(output: str | None):
    """stdout, or the --output file opened for writing: for use once every refusal is past."""
    return contextlib.nullcontext(sys.stdout) if output is None else open(output, "w")


# -- compute -----------------------------------------------------------------

def _compute_one(method, g, cap):
    evaluate = {"oracle": oracle.domination_polynomial, "vertex": decompose.vertex_recurrence,
                "edge": decompose.edge_recurrence, "product": decompose.components_product}[method]
    return evaluate(g, cap=cap)


def _record(family: str | None, n: int, p: DomPoly) -> dict:
    return {
        "n": n,
        "family": family,
        "coeffs": p.coeff_strings(),
        "gamma": p.gamma(),
        "count_at_1": str(p.eval_at(1)),
        "degree": p.degree,
    }


def cmd_compute(args) -> int:
    cap = oracle.check_cap(args.cap)
    if args.file is not None:
        if args.family is not None:
            raise ValueError("--file and --family are mutually exclusive")
        if args.method == "recurrence":
            raise ValueError("--method recurrence requires a --family input")
        with open(args.file) as f:
            g = parse_edge_list(f.read())
        results = [(g.n, _compute_one(args.method, g, cap))]
    else:
        if args.family is None:
            raise ValueError("--n and --n-range need --family")
        ns = range(args.n, args.n + 1) if args.n is not None else _parse_range(args.n_range)
        if args.method == "recurrence":
            results = families.family_values(args.family, ns[0], ns[-1])
        else:
            families.check_n(args.family, ns[0], ns[-1])
            if args.method == "oracle":
                for n in ns:
                    oracle.check_order(families.family_order(args.family, n), cap)
            results = [(n, _compute_one(args.method, families.build_chain(args.family, n), cap))
                       for n in ns]

    single = args.n_range is None
    with _sink(args.output) as out:
        if args.format == "csv":  # csv.writer's bytes: no field here needs quoting
            out.write("family,n,degree,gamma,count_at_1,polynomial\r\n")
            for n, p in results:
                out.write(f"{args.family or ''},{n},{p.degree},{p.gamma()},{p.eval_at(1)},"
                          f"{p.to_text()}\r\n")
        elif args.format == "json" and single:
            (n, p), = results
            out.write(json.dumps(_record(args.family, n, p), indent=2) + "\n")
        elif args.format == "json":  # json.dumps(records, indent=2), one record at a time
            sep = "[\n  "
            for n, p in results:
                record = json.dumps(_record(args.family, n, p), indent=2)
                out.write(sep + record.replace("\n", "\n  "))
                sep = ",\n  "
            out.write("\n]\n")
        else:
            for n, p in results:
                out.write(f"{p.to_text()}\n" if single else f"n={n} degree={p.degree} "
                          f"gamma={p.gamma()} count={p.eval_at(1)} {p.to_text()}\n")
    return EXIT_OK


# -- verify ------------------------------------------------------------------

def cmd_verify(args) -> int:
    subset = (args.family,) if args.family else None
    report = verify.verify_families(  # checks --cap before anything else
        max_n=args.max_n,
        family_subset=subset,
        include_literal=args.literal_paper,
        cap=args.cap,
    )
    with _sink(args.output) as out:
        out.write(json.dumps(report.to_json_dict(), indent=2) + "\n" if args.format == "json"
                  else report.to_text())
    return EXIT_OK if report.all_match else EXIT_MISMATCH


# -- sequence ------------------------------------------------------------------

def cmd_sequence(args) -> int:
    start, values = families.count_sequence(args.family, args.max_n)
    with _sink(args.output) as out:
        if args.format == "json":
            out.write(json.dumps({"family": args.family, "start_n": start,
                                  "values": [str(v) for v in values]}, indent=2) + "\n")
        elif args.format == "csv":
            w = csv.writer(out)
            w.writerow(["n", "count"])
            for row in enumerate(values, start=start):
                w.writerow(row)
        else:
            out.write(", ".join(str(v) for v in values) + "\n")
    return EXIT_OK


# -- bench ---------------------------------------------------------------------

def cmd_bench(args) -> int:
    cap = oracle.check_cap(args.cap)
    ns = _parse_range(args.n_range)
    walked = families.family_values(args.family, ns[0], ns[-1])
    mismatch = False
    with _sink(args.output) as out:
        w = csv.writer(out)
        w.writerow(["family", "n", "vertices", "subsets",
                    "oracle_seconds", "recurrence_seconds", "speedup", "status"])
        rec_s, t0 = 0.0, time.perf_counter()
        for n, rec in walked:  # rec_s: the walk's own time to reach n, the oracle's left out
            rec_s += time.perf_counter() - t0
            order = families.family_order(args.family, n)
            if order > cap:
                w.writerow([args.family, n, order, 2 ** order, "", f"{rec_s:.6f}", "",
                            f"skipped: {order} vertices exceeds cap {cap}"])
            else:
                g = families.build_chain(args.family, n)
                t0 = time.perf_counter()
                orc = oracle.domination_polynomial(g, cap=cap)
                orc_s = time.perf_counter() - t0
                mismatch |= orc != rec
                speedup = orc_s / rec_s if rec_s > 0 else float("inf")
                w.writerow([args.family, n, order, 2 ** order, f"{orc_s:.6f}", f"{rec_s:.6f}",
                            f"{speedup:.1f}", "ok" if orc == rec else "MISMATCH"])
            t0 = time.perf_counter()
    return EXIT_MISMATCH if mismatch else EXIT_OK


# -- argument wiring -------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="domchain",
                     description="Exact domination polynomials of graphs and cactus chains.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("text", "json", "csv"), cap=True):
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--output", metavar="PATH", default=None,
                       help="write to file instead of stdout")
        if cap:
            p.add_argument("--cap", type=int, default=None,
                           help=f"enumeration cap override (max {oracle.HARD_CAP})")

    p = sub.add_parser("compute", help="compute a domination polynomial")
    p.add_argument("--family", choices=families.FAMILY_NAMES, default=None)
    size = p.add_mutually_exclusive_group(required=True)
    size.add_argument("--n", type=int, default=None)
    size.add_argument("--n-range", metavar="A:B", default=None)
    size.add_argument("--file", metavar="PATH", default=None,
                      help="edge-list input instead of a family")
    p.add_argument("--method",
                   choices=("oracle", "vertex", "edge", "product", "recurrence"),
                   default="oracle")
    common(p)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("verify", help="cross-check every chain identity against the oracle")
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--family", choices=families.CHAIN_FAMILIES, default=None)
    p.add_argument("--literal-paper", action="store_true",
                   help="also run the literally-published variants of disputed identities")
    common(p, formats=("text", "json"))
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sequence", help="total dominating-set counts along a family")
    p.add_argument("--family", choices=families.CHAIN_FAMILIES, required=True)
    p.add_argument("--max-n", type=int, default=10)
    common(p, cap=False)  # sequence never enumerates
    p.set_defaults(func=cmd_sequence)

    p = sub.add_parser("bench", help="time oracle vs closed recurrence (CSV)")
    p.add_argument("--family", choices=families.FAMILY_NAMES, default="T")
    p.add_argument("--n-range", metavar="A:B", default="1:8")
    p.add_argument("--output", metavar="PATH", default=None)
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=cmd_bench)

    return parser


def _joined_ranges(argv: list[str]) -> list[str]:
    """argv with each `--n-range X` joined into `--n-range=X`, for every prefix from `--n-`.

    argparse reads a value such as -1:3 as a flag; joined to its option, it
    reaches the range checks like any other value.  `--n` is an option of its own.
    """
    out: list[str] = []
    for tok in argv:
        if (out and len(out[-1]) >= 4 and "--n-range".startswith(out[-1])
                and tok[:1] == "-" and tok[1:2].isdigit()):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_joined_ranges(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except oracle.EnumerationCapError as e:
        print(f"domchain: {e}", file=sys.stderr)
        return EXIT_CAP
    except (families.RecurrenceConfigError, ExactDivisionError) as e:
        # a closed system its certificate refutes, or the edge identity failing its own check
        print(f"domchain: {e}", file=sys.stderr)
        return EXIT_MISMATCH
    except (ValueError, OSError) as e:  # EdgeListParseError is a ValueError
        print(f"domchain: error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
