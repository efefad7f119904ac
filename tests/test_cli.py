import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import pytest

import domchain
from domchain import cli, decompose, families, transfer
from domchain.families import FAMILY_NAMES, t_polynomial
from domchain.graph import complete_graph, format_edge_list, path_graph
from domchain.poly import DomPoly
from conftest import with_multiplier


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCompute:
    def test_family_text(self, capsys):
        code, out, _ = run(capsys, "compute", "--family", "T", "--n", "2")
        assert code == 0
        assert out == "x^5+5x^4+10x^3+8x^2+x\n"

    def test_methods_agree(self, capsys):
        outputs = set()
        for method in ("oracle", "vertex", "edge", "product", "recurrence"):
            code, out, _ = run(capsys, "compute", "--family", "Q", "--n", "3",
                               "--method", method)
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "compute", "--family", "Q", "--n", "2",
                           "--format", "json")
        assert code == 0
        rec = json.loads(out)
        assert rec["family"] == "Q" and rec["n"] == 2
        assert rec["coeffs"] == ["0", "0", "0", "15", "29", "21", "7", "1"]
        assert rec["gamma"] == 3
        assert rec["count_at_1"] == "73"

    def test_n_range_records(self, capsys):
        code, out, _ = run(capsys, "compute", "--family", "T", "--n-range", "1:3",
                           "--format", "json")
        assert code == 0
        recs = json.loads(out)
        assert [r["n"] for r in recs] == [1, 2, 3]
        assert all({"n", "family", "coeffs", "gamma", "count_at_1", "degree"} <= set(r)
                   for r in recs)

    def test_csv_columns(self, capsys):
        code, out, _ = run(capsys, "compute", "--family", "T", "--n-range", "1:2",
                           "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["family", "n", "degree", "gamma", "count_at_1", "polynomial"]
        assert rows[1] == ["T", "1", "3", "1", "7", "x^3+3x^2+3x"]

    def test_file_input(self, capsys, tmp_path):
        p = tmp_path / "k1.edges"
        p.write_text("1 0\n")
        code, out, _ = run(capsys, "compute", "--file", str(p))
        assert code == 0 and out == "x\n"

    def test_file_parse_error_reports_line(self, capsys, tmp_path):
        p = tmp_path / "bad.edges"
        p.write_text("2 1\n0 0\n")
        code, _, err = run(capsys, "compute", "--file", str(p))
        assert code == 1
        assert "line 2" in err

    def test_file_huge_header_is_input_error(self, capsys, tmp_path):
        p = tmp_path / "huge.edges"
        p.write_text("1000000000 0\n")
        code, out, err = run(capsys, "compute", "--file", str(p))
        assert code == 1 and out == "" and "line 1" in err

    def test_vertex_method_past_cap(self, capsys):
        # T_6 has 13 vertices; every set the recurrence enumerates fits cap 12
        code, out, _ = run(capsys, "compute", "--family", "T", "--n", "6",
                           "--method", "vertex", "--cap", "12")
        assert code == 0 and out == t_polynomial(6).to_text() + "\n"
        code, _, err = run(capsys, "compute", "--family", "T", "--n", "6", "--cap", "12")
        assert code == 3 and "cap" in err

    def test_recurrence_needs_family(self, capsys, tmp_path):
        p = tmp_path / "g.edges"
        p.write_text("2 1\n0 1\n")
        code, _, err = run(capsys, "compute", "--file", str(p), "--method", "recurrence")
        assert code == 1 and "recurrence" in err

    def test_cap_exceeded(self, capsys):
        code, _, err = run(capsys, "compute", "--family", "T", "--n", "15")
        assert code == 3 and "cap" in err

    def test_cap_above_hard_limit(self, capsys):
        code, _, err = run(capsys, "compute", "--family", "T", "--n", "1", "--cap", "31")
        assert code == 1 and "30" in err

    def test_cap_override_allows_larger(self, capsys):
        code, out, _ = run(capsys, "compute", "--family", "T", "--n", "12",
                           "--cap", "26", "--method", "oracle")
        assert code == 0
        rec_code, rec_out, _ = run(capsys, "compute", "--family", "T", "--n", "12",
                                   "--method", "recurrence")
        assert rec_code == 0 and out == rec_out

    def test_missing_arguments(self, capsys):
        for argv in (["compute", "--family", "T"], ["compute"]):
            with pytest.raises(SystemExit) as ei:
                cli.main(argv)
            assert ei.value.code == 1

    @pytest.mark.parametrize("argv, clash", [
        (["--family", "T", "--n", "2", "--n-range", "1:3"], "--n-range: not allowed with argument --n"),
        (["--file", "g.edges", "--n", "7"], "--n: not allowed with argument --file"),
        (["--file", "g.edges", "--n-range", "1:3"], "--n-range: not allowed with argument --file"),
    ], ids=["n and n-range", "file and n", "file and n-range"])
    def test_one_input_shape(self, capsys, monkeypatch, tmp_path, argv, clash):
        # --n, --n-range and --file each say what compute reads; a second one is refused,
        # not silently dropped
        monkeypatch.chdir(tmp_path)
        (tmp_path / "g.edges").write_text("2 1\n0 1\n")
        with pytest.raises(SystemExit) as ei:
            cli.main(["compute", *argv])
        assert ei.value.code == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err.endswith(f"domchain compute: error: argument {clash}\n")

    @pytest.mark.parametrize("argv, message", [
        (["--family", "T", "--n-range", "5:3"], "empty range '5:3'"),
        (["--file", "g.edges", "--family", "T"], "--file and --family are mutually exclusive"),
        (["--n", "2"], "--n and --n-range need --family"),
    ], ids=["empty range", "file and family", "n without family"])
    def test_input_refusals(self, capsys, argv, message):
        code, out, err = run(capsys, "compute", *argv)
        assert (code, out, err) == (1, "", f"domchain: error: {message}\n")

    def test_unknown_flag_exits_one(self, capsys):
        with pytest.raises(SystemExit) as ei:
            cli.main(["compute", "--bogus"])
        assert ei.value.code == 1

    def test_output_file(self, capsys, tmp_path):
        dest = tmp_path / "out.txt"
        code, out, _ = run(capsys, "compute", "--family", "T", "--n", "2",
                           "--output", str(dest))
        assert code == 0 and out == ""
        assert dest.read_text() == "x^5+5x^4+10x^3+8x^2+x\n"

    @pytest.mark.parametrize("fam", FAMILY_NAMES)
    def test_recurrence_range_equals_single_n(self, capsys, fam):
        lo = 1 if fam in ("T", "Q", "O") else 0
        code, out, _ = run(capsys, "compute", "--family", fam, "--n-range", f"{lo}:{lo + 4}",
                           "--method", "recurrence", "--format", "json")
        assert code == 0
        singles = []
        for n in range(lo, lo + 5):
            code, one, _ = run(capsys, "compute", "--family", fam, "--n", str(n),
                               "--method", "recurrence", "--format", "json")
            assert code == 0
            singles.append(json.loads(one))
        assert json.loads(out) == singles

    def test_recurrence_range_below_chain_start(self, capsys):
        code, out, err = run(capsys, "compute", "--family", "Q", "--n-range", "0:3",
                             "--method", "recurrence")
        assert code == 1 and out == ""
        assert "start at n = 1" in err

    @pytest.mark.parametrize("method", ["recurrence", "oracle"])
    def test_n_range_json_bytes(self, capsys, method):
        # written a record at a time, the bytes of one json.dumps of the whole list
        code, out, _ = run(capsys, "compute", "--family", "Q", "--n-range", "1:4",
                           "--method", method, "--format", "json")
        records = [cli._record("Q", n, families.family_polynomial("Q", n)) for n in range(1, 5)]
        assert (code, out) == (0, json.dumps(records, indent=2) + "\n")

    @pytest.mark.parametrize("argv, want", [
        (("--family", "T", "--n", "5000"), 1),
        (("--family", "Q", "--n-range", "3330:3334", "--method", "recurrence"), 1),
        (("--family", "O", "--n-range", "1:5", "--method", "recurrence"), 2),
        (("--family", "Q", "--n-range", "5:9", "--cap", "24"), 3),
    ], ids=["vertex limit", "vertex limit, recurrence range", "unproven system",
            "cap within a range"])
    def test_refused_run_creates_no_output_file(self, capsys, monkeypatch, tmp_path, argv,
                                                want):
        if want == 2:  # Op identity (iii) with -2x for -x
            with_multiplier(monkeypatch, "O", "Op", "-x", "-2x")
        dest = tmp_path / "out.txt"
        code, out, err = run(capsys, "compute", *argv, "--output", str(dest))
        assert (code, out) == (want, "") and err.startswith("domchain: ")
        assert not dest.exists()

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_recurrence_range_holds_one_polynomial_at_a_time(self, fmt):
        # each member is written as the pass yields it; a list of all 150 members
        # and of their lines peaks at many times the top member's own command
        families.family_polynomial("Q", 150)  # the certificate is cached before either peak
        one = TestSequence._peak_bytes(lambda: cli.main([
            "compute", "--family", "Q", "--n", "150", "--method", "recurrence",
            "--format", fmt, "--output", os.devnull]))
        rng = TestSequence._peak_bytes(lambda: cli.main([
            "compute", "--family", "Q", "--n-range", "1:150", "--method", "recurrence",
            "--format", fmt, "--output", os.devnull]))
        assert rng <= 2 * one, (rng, one)


class TestInternalCheckFailures:
    """A closed system its certificate refutes, or the edge identity failing its own check,
    exits 2, not a traceback."""

    def test_unproven_recurrence_refused(self, capsys, monkeypatch):
        rule, = families.IDENTITIES["T"]
        (_, refs), *rest = rule.terms
        bad = replace(rule, terms=((DomPoly.from_text("x^2+20x"), refs), *rest))
        monkeypatch.setitem(families.IDENTITIES, "T", (bad,))
        code, out, err = run(capsys, "compute", "--family", "T", "--n", "5",
                             "--method", "recurrence")
        assert (code, out, err) == (
            2, "", "domchain: T-chain order-2 polynomial recurrence: nonzero residual "
                   "-18x^6-90x^5-180x^4-144x^3-18x^2 at n=3\n")

    def test_edge_bracket_not_divisible(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(decompose, "edge_recurrence_bracket",
                            lambda g, u, v, **kw: (DomPoly.x(), DomPoly.one()))
        path = tmp_path / "p3.edges"
        path.write_text(format_edge_list(path_graph(3)))
        code, out, err = run(capsys, "compute", "--file", str(path), "--method", "edge")
        assert (code, out, err) == (
            2, "", "domchain: (x-1) does not divide polynomial: remainder 1\n")


class TestVerify:
    def test_all_match_exit_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-n", "3")
        assert code == 0
        assert "ALL MATCH" in out

    def test_family_subset(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "T", "--max-n", "8")
        assert code == 0
        assert "Q" not in out.split("errata")[0]

    def test_literal_paper_flags_variants(self, capsys):
        code, out, _ = run(capsys, "verify", "--literal-paper", "--max-n", "4")
        assert code == 0  # adopted forms still all match
        assert "MISMATCH" in out and "literal variant" in out
        assert "errata" in out

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "verify", "--max-n", "2", "--format", "json")
        assert code == 0
        rep = json.loads(out)
        assert rep["all_match"] is True
        assert rep["checks"] and rep["errata"]


class TestSequence:
    def test_t_sequence_text(self, capsys):
        code, out, _ = run(capsys, "sequence", "--family", "T", "--max-n", "4")
        assert code == 0 and out == "2, 7, 25, 89, 317\n"

    def test_t_short(self, capsys):
        code, out, _ = run(capsys, "sequence", "--family", "T", "--max-n", "1")
        assert code == 0 and out == "2, 7\n"

    def test_q_sequence(self, capsys):
        code, out, _ = run(capsys, "sequence", "--family", "Q", "--max-n", "2")
        assert code == 0 and out == "11, 73\n"

    def test_csv_and_json(self, capsys):
        code, out, _ = run(capsys, "sequence", "--family", "O", "--max-n", "2",
                           "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "count"] and rows[1] == ["1", "11"]
        code, out, _ = run(capsys, "sequence", "--family", "T", "--max-n", "2",
                           "--format", "json")
        data = json.loads(out)
        assert data == {"family": "T", "start_n": 0, "values": ["2", "7", "25"]}

    @staticmethod
    def _peak_bytes(f):
        tracemalloc.start()
        try:
            f()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("fam", ["Q", "O"])
    def test_holds_one_polynomial_at_a_time(self, capsys, fam):
        # the counts are summed as the stream pass yields; a list of all 300
        # polynomials would peak at several times one top-n polynomial
        one = self._peak_bytes(lambda: families.family_polynomial(fam, 300))
        seq = self._peak_bytes(lambda: cli.main(["sequence", "--family", fam, "--max-n", "300"]))
        capsys.readouterr()
        assert seq <= 2 * one, (seq, one)


    @pytest.mark.parametrize("fam", ["Q", "O"])
    def test_far_end_equals_reference_dp(self, capsys, reference, fam):
        # the largest admitted n; Q_k is the first 3k + 1 vertices of Q_3332
        g = families.build_chain(fam, 3332)
        want = reference.dp_prefix_values(g.n, list(g.adj), 1)[3::3]
        code, out, _ = run(capsys, "sequence", "--family", fam, "--max-n", "3332")
        assert code == 0
        expected = ", ".join(map(str, want)) + "\n"
        digest = hashlib.sha256(out.encode()).hexdigest()
        if out != expected:  # named by index and digest: a diff of megabytes stalls the report
            got = out.rstrip("\n").split(", ")
            at = next((i for i, (a, b) in enumerate(zip(got, map(str, want))) if a != b),
                      min(len(got), len(want)))
            pytest.fail(f"sequence differs from the reference DP first at index {at}: sha256 "
                        f"{digest}, reference {hashlib.sha256(expected.encode()).hexdigest()}")
        if fam == "Q":
            assert digest.startswith("1eb8f7ac0633ec09")


class TestBench:
    def test_csv_with_skipped_rows(self, capsys):
        code, out, _ = run(capsys, "bench", "--family", "T", "--n-range", "11:12")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][:4] == ["family", "n", "vertices", "subsets"]
        by_n = {r[1]: r for r in rows[1:]}
        assert by_n["11"][-1] == "ok"
        assert by_n["12"][-1].startswith("skipped")
        assert by_n["12"][4] == ""  # no oracle time

    def test_large_recurrence_only(self, capsys):
        code, out, _ = run(capsys, "bench", "--family", "T", "--n-range", "200:200")
        assert code == 0
        row = list(csv.reader(io.StringIO(out)))[1]
        assert row[1] == "200" and row[-1].startswith("skipped")

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, "bench", "--n-range", "5")
        assert code == 1

    def test_mismatch_exits_two(self, capsys, monkeypatch):
        monkeypatch.setattr(families, "family_values",
                            lambda family, lo, hi: ((n, DomPoly.x()) for n in range(lo, hi + 1)))
        code, out, _ = run(capsys, "bench", "--family", "T", "--n-range", "1:2")
        assert code == 2
        assert [r[-1] for r in csv.reader(io.StringIO(out))][1:] == ["MISMATCH"] * 2

    @pytest.mark.parametrize("fam", FAMILY_NAMES)
    def test_every_family_matches_from_its_first_n(self, capsys, fam):
        lo = 1 if fam in families.CHAIN_FAMILIES else 0
        code, out, _ = run(capsys, "bench", "--family", fam, "--n-range", f"{lo}:3")
        assert code == 0
        assert [r[-1] for r in csv.reader(io.StringIO(out))][1:] == ["ok"] * (4 - lo)

    def test_rows_come_from_one_packed_pass(self, capsys, monkeypatch):
        # one packed walk, of Q's characteristic rule up to n = 5; the certificate's
        # residual check runs no walk
        def recorder(cs, initial, hi, bits):
            started.append((cs, hi, bits > 0))
            return real_walk(cs, initial, hi, bits)

        started = []
        real_walk = families._walk
        monkeypatch.setattr(families, "_walk", recorder)
        code, out, _ = run(capsys, "bench", "--family", "Q", "--n-range", "1:5")
        assert (code, started) == (0, [(transfer.characteristic(families._BLOCKS["Q"]), 5, True)])
        # each row's recurrence time is the pass's time to reach its n
        seconds = [float(r[5]) for r in list(csv.reader(io.StringIO(out)))[1:]]
        assert len(seconds) == 5 and seconds == sorted(seconds)


class TestInputBounds:
    """Family sizes and --cap are checked before any graph or stream is built."""

    @pytest.mark.parametrize("argv", [
        ("compute", "--family", "Q", "--n", "1000000000"),
        ("compute", "--family", "T", "--n-range", "1:1000000000", "--method", "recurrence"),
        ("sequence", "--family", "T", "--max-n", "1000000000"),
        ("sequence", "--family", "O", "--max-n", "3334"),
        ("bench", "--family", "Op", "--n-range", "1:1000000000"),
    ], ids=" ".join)
    def test_family_past_vertex_limit(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and "limit is 10000" in err

    def test_vertex_limit_is_inclusive(self, capsys):
        # T_4999 has 9999 vertices: it passes the size check and stops at the cap
        code, _, err = run(capsys, "compute", "--family", "T", "--n", "4999")
        assert code == 3 and "9999 vertices" in err
        code, _, err = run(capsys, "compute", "--family", "T", "--n", "5000")
        assert code == 1 and "10001 vertices" in err

    @pytest.mark.parametrize("cap", ["-1", "31"])
    @pytest.mark.parametrize("argv", [
        ("compute", "--family", "T", "--n", "1"), ("verify",), ("bench",),
    ], ids=" ".join)
    def test_cap_outside_hard_limits(self, capsys, argv, cap):
        code, out, err = run(capsys, *argv, "--cap", cap)
        assert code == 1 and out == "" and "0..30" in err

    def test_sequence_takes_no_cap(self, capsys):
        # sequence never enumerates, so it has no --cap flag
        with pytest.raises(SystemExit) as ei:
            cli.main(["sequence", "--family", "T", "--cap", "5"])
        assert ei.value.code == 1
        assert "unrecognized arguments: --cap 5" in capsys.readouterr().err

    @pytest.mark.parametrize("max_n", ["0", "-3"])
    def test_verify_needs_positive_max_n(self, capsys, monkeypatch, max_n):
        monkeypatch.setattr(families, "build_chain", self._no_build)
        code, out, err = run(capsys, "verify", "--max-n", max_n)
        assert (code, out, err) == (1, "", f"domchain: error: max_n >= 1 required, got {max_n}\n")

    @pytest.mark.parametrize("argv", [("--family", "Q"), ()], ids=" ".join)
    def test_verify_family_past_cap_at_first_n(self, capsys, monkeypatch, argv):
        # Q_1's table graphs have up to 6 vertices; with every family selected T
        # would fit, but Q still refuses the run before anything is built
        monkeypatch.setattr(families, "build_chain", self._no_build)
        code, out, err = run(capsys, "verify", *argv, "--cap", "5")
        assert (code, out, err) == (3, "", "domchain: graph has 6 vertices, enumeration cap is 5\n")

    def test_verify_first_n_at_cap_still_checks(self, capsys):
        # T_1 has 3 vertices: at cap 3 its closed-stream checks run
        code, out, _ = run(capsys, "verify", "--family", "T", "--cap", "3")
        assert code == 0 and out.endswith("adopted checks: 2/2 match; overall: ALL MATCH\n")

    @staticmethod
    def _no_build(*args, **kwargs):
        raise AssertionError("a graph was built")

    def test_oracle_cap_checked_before_building(self, capsys, monkeypatch):
        monkeypatch.setattr(families, "build_chain", self._no_build)
        # Q_5..Q_7 fit cap 24; Q_8 (25 vertices) is the first that does not
        code, out, err = run(capsys, "compute", "--family", "Q", "--n-range", "5:9")
        assert (code, out, err) == (3, "", "domchain: graph has 25 vertices, enumeration cap is 24\n")

    def test_range_start_checked_before_cap(self, capsys, monkeypatch):
        # Q_30 is past the cap, but n = -1 is no Q graph at all, and that is reported first
        monkeypatch.setattr(families, "build_chain", self._no_build)
        code, out, err = run(capsys, "compute", "--family", "Q", "--n-range=-1:30")
        assert (code, out, err) == (1, "", "domchain: error: family Q graphs start at n = 0, got -1\n")

    @pytest.mark.parametrize("argv, message", [
        (("compute", "--family", "T"), "family T graphs start at n = 1, got -1"),
        (("bench", "--family", "T"), "family T recurrences start at n = 1, got -1"),
    ], ids=lambda v: v if isinstance(v, str) else " ".join(v))
    @pytest.mark.parametrize("spelling", [("--n-range", "-1:3"), ("--n-range=-1:3",),
                                          ("--n-ran", "-1:3"), ("--n-", "-1:3")],
                             ids=" ".join)
    def test_range_below_zero_reaches_first_n_refusal(self, capsys, monkeypatch, argv,
                                                      message, spelling):
        # argparse alone reads -1:3 as a flag; every spelling gets the first-n refusal
        monkeypatch.setattr(families, "build_chain", self._no_build)
        code, out, err = run(capsys, *argv, *spelling)
        assert (code, out, err) == (1, "", f"domchain: error: {message}\n")

    def test_bench_refuses_pass_wide_limit_before_timing(self, capsys, monkeypatch):
        # Q_3333 fits, but Q+e_3333 does not: B and the vertex limit are sized for the
        # system's largest stream, so every reader of Q refuses at n = 3333, before any row
        def no_pass(*args, **kwargs):
            raise AssertionError("a recurrence was run")

        monkeypatch.setattr(families, "family_polynomial", no_pass)
        monkeypatch.setattr(families, "_proven", no_pass)
        monkeypatch.setattr(families, "_walk", no_pass)
        code, out, err = run(capsys, "bench", "--family", "Q", "--n-range", "3332:3333")
        assert (code, out, err) == (
            1, "", "domchain: error: family Q+e at n=3333 has 10001 vertices, limit is 10000\n")

    @staticmethod
    def _compute_complete(tmp_path, n, method, seconds=30.0, limit=250):
        """compute --file K_n --method <method> in a child under recursion limit `limit`.

        SIGALRM ends the child if compute itself runs for more than `seconds`.
        """
        path = tmp_path / f"k{n}.edges"
        path.write_text(format_edge_list(complete_graph(n)))
        argv = ["compute", "--file", str(path), "--method", method]
        code = (f"import signal, sys; sys.setrecursionlimit({limit}); from domchain.cli import main; "
                f"signal.setitimer(signal.ITIMER_REAL, {seconds}); sys.exit(main({argv!r}))")
        src = os.path.dirname(os.path.dirname(domchain.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)

    @pytest.mark.parametrize("method", ["vertex", "edge", "product"])
    def test_deep_recursion_is_input_error(self, method, tmp_path):
        # a near-complete graph recurses one level per vertex without reaching the
        # cap: the depth bound refuses K_600 at the default recursion limit, and
        # K_140 under a lowered one, before any recursion
        r = self._compute_complete(tmp_path, 140, method)
        assert r.returncode == 1 and r.stdout == ""
        assert "Traceback" not in r.stderr
        assert r.stderr == ("domchain: error: graph has 140 vertices, "
                            "the general recurrences take at most 115\n")

    @pytest.mark.parametrize("method", ["vertex", "edge", "product"])
    def test_depth_bound_boundary(self, method, tmp_path):
        # (250 - 40) // 2 + 10 = 115: K_115 fits the recursion limit, K_116 is refused at once
        r = self._compute_complete(tmp_path, 115, method)
        assert r.returncode == 0 and r.stderr == ""
        r = self._compute_complete(tmp_path, 116, method, seconds=1.0)
        assert (r.returncode, r.stdout) == (1, "")
        assert r.stderr == ("domchain: error: graph has 116 vertices, "
                            "the general recurrences take at most 115\n")

    @pytest.mark.parametrize("method", ["vertex", "edge"])
    def test_dense_graph_at_default_bound_is_fast(self, method, tmp_path):
        # K_490 sits exactly at the bound of the default limit 1000 and recurses one
        # level per vertex; whole-row surgery keeps each of its steps cheap
        r = self._compute_complete(tmp_path, 490, method, seconds=5.0, limit=1000)
        assert (r.returncode, r.stderr) == (0, "")
        # D(K_n) = (1+x)^n - 1
        assert r.stdout == DomPoly([0, *(math.comb(490, k) for k in range(1, 491))]).to_text() + "\n"


class TestColdStart:
    @pytest.mark.parametrize("argv, loads_numpy", [
        (["sequence", "--family", "Q", "--max-n", "5"], False),
        (["compute", "--family", "Q", "--n-range", "1:3", "--method", "recurrence"], False),
        (["compute", "--family", "T", "--n", "2"], True),
    ])
    def test_numpy_is_loaded_only_by_a_scan(self, argv, loads_numpy):
        # a fresh process: the closed recurrences never enumerate, so never import numpy
        code = (f"import sys; from domchain.cli import main; code = main({argv!r}); "
                f"print('numpy' in sys.modules, file=sys.stderr); sys.exit(code)")
        src = os.path.dirname(os.path.dirname(domchain.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        r = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                           text=True, timeout=60)
        assert (r.returncode, r.stderr) == (0, f"{loads_numpy}\n")
        assert r.stdout
