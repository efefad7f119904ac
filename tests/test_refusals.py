"""Every documented CLI refusal as one table row: argv, exit code and the exact stderr.

Each row runs in-process with the work it must not reach patched to raise, so
"refused before any work" is checked by structure, not by a timeout.  `{name}`
in an argv is the path of the edge-list file of that name (see `_FILES`).
"""
import sys

import pytest

from domchain import cli, families, oracle
from domchain.graph import Graph, complete_graph, format_edge_list
from conftest import with_multiplier

_FILES = {
    "K600": format_edge_list(complete_graph(600)),
    "P2": "2 1\n0 1\n",
    "dup": "3 2\n0 1\n1 0\n",
    "header": "10001 0\n",
}

# name -> the (owner, attribute) pairs of work a refusal must come before; "pass" is
# both the certificate's residual check and the packed or count walk
_WORK = {
    "build_chain": ((families, "build_chain"),),
    "family_polynomial": ((families, "family_polynomial"),),
    "pass": ((families, "_proven"), (families, "_walk")),
    "packing": ((families, "_Packing"),),
    "from_edges": ((Graph, "from_edges"),),
    "scan": ((oracle, "_scan"),),
    "recurse": ((Graph, "contract_vertex"),),
    "compute": ((cli, "_compute_one"),),
    "parse": ((cli, "parse_edge_list"),),
}



def _limit(family: str, n: int, order: int) -> str:
    return f"domchain: error: family {family} at n={n} has {order} vertices, limit is 10000\n"


# (id, argv, work it must not reach, exit code, stderr)
ROWS = [
    ("malformed range", ("compute", "--family", "T", "--n-range", "1-3", "--method", "recurrence"),
     ("pass", "build_chain"), 1, "domchain: error: expected range 'A:B', got '1-3'\n"),
    ("empty range", ("bench", "--family", "T", "--n-range", "5:3"),
     ("family_polynomial", "pass", "build_chain"), 1, "domchain: error: empty range '5:3'\n"),
    ("first graph n", ("compute", "--family", "T", "--n", "0"),
     ("build_chain", "scan"), 1, "domchain: error: family T graphs start at n = 1, got 0\n"),
    ("first graph n, split range", ("compute", "--family", "Q", "--n-range", "-1:30"),
     ("build_chain", "scan"), 1, "domchain: error: family Q graphs start at n = 0, got -1\n"),
    ("first graph n, abbreviated range", ("compute", "--family", "T", "--n-ran", "-1:3"),
     ("build_chain", "scan"), 1, "domchain: error: family T graphs start at n = 1, got -1\n"),
    ("first recurrence n", ("sequence", "--family", "Q", "--max-n", "0"),
     ("pass", "packing"), 1, "domchain: error: family Q recurrences start at n = 1, got 0\n"),
    ("negative T sequence length", ("sequence", "--family", "T", "--max-n", "-1"),
     ("pass", "packing"), 1, "domchain: error: n_max >= 0 required, got -1\n"),
    ("first recurrence n, bench", ("bench", "--family", "T", "--n-range=-1:3"),
     ("family_polynomial", "pass", "build_chain"), 1,
     "domchain: error: family T recurrences start at n = 1, got -1\n"),
    ("verify max n", ("verify", "--max-n", "0"),
     ("build_chain",), 1, "domchain: error: max_n >= 1 required, got 0\n"),
    ("vertex limit", ("compute", "--family", "T", "--n", "5000"),
     ("build_chain", "from_edges", "scan"), 1, _limit("T", 5000, 10001)),
    ("vertex limit, recurrence", ("compute", "--family", "Q", "--n", "3334", "--method",
                                  "recurrence"),
     ("pass", "packing", "from_edges"), 1, _limit("Q", 3334, 10003)),
    ("vertex limit, sequence", ("sequence", "--family", "T", "--max-n", "5000"),
     ("pass", "packing"), 1, _limit("T", 5000, 10001)),
    ("pass-wide limit", ("sequence", "--family", "O", "--max-n", "3333"),
     ("pass", "packing"), 1, _limit("O+e", 3333, 10001)),
    ("pass-wide limit, bench", ("bench", "--family", "Q", "--n-range", "3332:3333"),
     ("family_polynomial", "pass", "build_chain"), 1, _limit("Q+e", 3333, 10001)),
    ("cap", ("compute", "--family", "T", "--n", "15"),
     ("build_chain", "scan"), 3, "domchain: graph has 31 vertices, enumeration cap is 24\n"),
    ("cap within a range", ("compute", "--family", "Q", "--n-range", "5:9", "--cap", "24"),
     ("build_chain", "scan"), 3, "domchain: graph has 25 vertices, enumeration cap is 24\n"),
    ("cap at the pivot", ("compute", "--family", "T", "--n", "400", "--method", "vertex"),
     ("scan", "recurse"), 3, "domchain: p_u enumerates 796 of 801 vertices, enumeration cap is 24\n"),
    ("verify cap", ("verify", "--family", "Q", "--cap", "5"),
     ("build_chain", "scan"), 3, "domchain: graph has 6 vertices, enumeration cap is 5\n"),
    ("hard cap", ("compute", "--family", "T", "--n", "1", "--cap", "31"),
     ("build_chain", "scan"), 1,
     "domchain: error: cap 31 is outside the hard safety limits 0..30\n"),
    ("hard cap, bench", ("bench", "--cap", "-1"),
     ("family_polynomial", "pass", "build_chain"), 1,
     "domchain: error: cap -1 is outside the hard safety limits 0..30\n"),
    ("depth bound", ("compute", "--file", "{K600}", "--method", "vertex"),
     ("recurse",), 1,
     "domchain: error: graph has 600 vertices, the general recurrences take at most 490\n"),
    ("edge-list header", ("compute", "--file", "{header}"),
     ("compute", "from_edges"), 1,
     "domchain: error: line 1: header declares 10001 vertices, limit is 10000\n"),
    ("duplicate edge", ("compute", "--file", "{dup}"),
     ("compute", "from_edges"), 1, "domchain: error: line 3: duplicate edge (1,0)\n"),
    ("file and family", ("compute", "--file", "{P2}", "--family", "T"),
     ("parse", "compute"), 1, "domchain: error: --file and --family are mutually exclusive\n"),
    ("recurrence on a file", ("compute", "--file", "{P2}", "--method", "recurrence"),
     ("parse", "compute"), 1,
     "domchain: error: --method recurrence requires a --family input\n"),
    ("n without family", ("compute", "--n", "3"),
     ("build_chain", "pass"), 1, "domchain: error: --n and --n-range need --family\n"),
    # the certificate takes its residuals; the packed pass must not start
    ("unproven system", ("compute", "--family", "O", "--n", "5", "--method", "recurrence"),
     ("packing", "from_edges"), 2,
     "domchain: O primed identity (iii): nonzero residual x^4+3x^3+x^2 at n=1\n"),
]


@pytest.fixture
def paths(tmp_path):
    out = {}
    for name, text in _FILES.items():
        out[name] = tmp_path / f"{name}.edges"
        out[name].write_text(text)
    return out


def _no_work(*args, **kwargs):
    raise AssertionError("a refused call reached work it must not start")


@pytest.mark.parametrize("argv, work, code, err", [row[1:] for row in ROWS],
                         ids=[row[0] for row in ROWS])
def test_refusal(capsys, monkeypatch, paths, argv, work, code, err):
    for name in work:
        for owner, attribute in _WORK[name]:
            monkeypatch.setattr(owner, attribute, _no_work)
    monkeypatch.setattr(sys, "getrecursionlimit", lambda: 1000)  # the documented depth bound
    if code == 2:  # the unproven system's row: Op identity (iii) with -2x for -x
        with_multiplier(monkeypatch, "O", "Op", "-x", "-2x")
    got = cli.main([a.format(**paths) for a in argv])
    out = capsys.readouterr()
    assert (got, out.out, out.err) == (code, "", err)


def _usage(command: str) -> str:
    sub, = (a for a in cli.build_parser()._actions if a.dest == "command")
    return sub.choices[command].format_usage()


@pytest.mark.parametrize("argv, message", [
    (("compute", "--family", "T", "--n", "2", "--n-range", "1:3"),
     "argument --n-range: not allowed with argument --n"),
    (("compute", "--family", "T", "--n", "2", "--file", "{P2}"),
     "argument --file: not allowed with argument --n"),
], ids=["n and range", "n and file"])
def test_mutually_exclusive_sizes(capsys, monkeypatch, paths, argv, message):
    # argparse refuses these itself, with its usage line, before any command runs
    for name in ("build_chain", "parse", "compute"):
        for owner, attribute in _WORK[name]:
            monkeypatch.setattr(owner, attribute, _no_work)
    with pytest.raises(SystemExit) as ei:
        cli.main([a.format(**paths) for a in argv])
    out = capsys.readouterr()
    assert (ei.value.code, out.out) == (1, "")
    assert out.err == f"{_usage('compute')}domchain compute: error: {message}\n"
