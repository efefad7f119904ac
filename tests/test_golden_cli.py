"""Pinned CLI output: exact stdout bytes (as sha256) and exit code per command.

A refactor of the streams, the verify harness or the CLI must keep every
digest; change one only together with a deliberate change of that output.
"""
import hashlib

import pytest

from domchain import cli
from domchain.families import FAMILY_NAMES


def _cases():
    for fam in (None, "T", "Q", "O"):
        for fmt in ("text", "json"):
            for literal in (False, True):
                argv = ["verify", "--max-n", "6", "--format", fmt]
                if literal:
                    argv.append("--literal-paper")
                if fam:
                    argv += ["--family", fam]
                yield tuple(argv)
    for fam in ("T", "Q", "O"):
        for fmt in ("text", "json", "csv"):
            yield ("sequence", "--family", fam, "--max-n", "25", "--format", fmt)
    for fam in FAMILY_NAMES:
        lo = 1 if fam in ("T", "Q", "O") else 0
        yield ("compute", "--family", fam, "--n-range", f"{lo}:6",
               "--method", "recurrence", "--format", "csv")
    # Q_0 is a graph (the oracle takes it) but the closed Q system starts at n=1
    yield ("compute", "--family", "Q", "--n-range", "0:3")
    yield ("compute", "--family", "Q", "--n-range", "0:3", "--method", "recurrence")


CASES = list(_cases())

GOLDEN = {
    'verify --max-n 6 --format text': (0, "b1eb4c8aea61f329c20488ae276f4b672698c4a59082c4a785b697c7b8a33af3"),
    'verify --max-n 6 --format text --literal-paper': (0, "95336ede873511693498a9fd4b9be1bb8edef366b8df5642024ed03533d27826"),
    'verify --max-n 6 --format json': (0, "e8865dc864673034afe50eb3d1aad005d0acf4220dd06c2d2f1bcaf3fb976203"),
    'verify --max-n 6 --format json --literal-paper': (0, "01d2bf3e6eaa258f7d0580c8b7e51a67bd69eb9468f6c828543dd48c5f0d49c2"),
    'verify --max-n 6 --format text --family T': (0, "e16c735d87fcbde615e2c3e0e26955e9eb3ae73fc2b63e8ea4013d15ebd085a5"),
    'verify --max-n 6 --format text --literal-paper --family T': (0, "e16c735d87fcbde615e2c3e0e26955e9eb3ae73fc2b63e8ea4013d15ebd085a5"),
    'verify --max-n 6 --format json --family T': (0, "c1a883ce80b02ba6fd90378018b189bbe218dac117c3709a41ffc30d8e8d1e42"),
    'verify --max-n 6 --format json --literal-paper --family T': (0, "c1a883ce80b02ba6fd90378018b189bbe218dac117c3709a41ffc30d8e8d1e42"),
    'verify --max-n 6 --format text --family Q': (0, "c4a3c8f22058ef3032e0ee8f6bf3a786ba409119aa1c0580f800a7203a2a87de"),
    'verify --max-n 6 --format text --literal-paper --family Q': (0, "f246e49e2fdb6455d0fd34ef268361c305762ffa440bfa4c6313dbb215db1aae"),
    'verify --max-n 6 --format json --family Q': (0, "4d75aae469e6aaef61e82bce41f82697c1f268595c7664dbe2abeb77f4d9410d"),
    'verify --max-n 6 --format json --literal-paper --family Q': (0, "1c4c929abbbaaf8188bb1c55715c6ea46ded1bc6e2720f63db194ea1c7dbe468"),
    'verify --max-n 6 --format text --family O': (0, "e6c521f1e125c14f38172f12f963324937653dd3519b211fbe6c27e5d9391254"),
    'verify --max-n 6 --format text --literal-paper --family O': (0, "7d336a9a16f6942be487b56dec4fde395b34df9651844b4af0db0804f68bf2ab"),
    'verify --max-n 6 --format json --family O': (0, "df661c197a080e940df259cef9d5139d79809abadb8ef6a386864486e9011e6c"),
    'verify --max-n 6 --format json --literal-paper --family O': (0, "e3d071944113b1df93aadd3cf5a235db9d11b15aece67b1405e1472368ed82e1"),
    'sequence --family T --max-n 25 --format text': (0, "79e6fcc203c0a55a7fbad907cc607c82bc17a411a9ed834bd8f87a34e4a3d438"),
    'sequence --family T --max-n 25 --format json': (0, "c358eb3452b8f07c1b8e71a4a3443ce691a1d8fb83c55e7575af29a97005710f"),
    'sequence --family T --max-n 25 --format csv': (0, "4d9cb84a0758db824d7779d8cfca17536a9f1d71914e71843967c7a74b0168d5"),
    'sequence --family Q --max-n 25 --format text': (0, "8f1b45dbb2ea9881c3b21c5fec8f1d7a51efb63e31e532ca015d4d6421b962ff"),
    'sequence --family Q --max-n 25 --format json': (0, "cd1708574a9494147ce7be7d6466e578e1a086a9fed1b3638aed2bdc99646622"),
    'sequence --family Q --max-n 25 --format csv': (0, "a8921cc9b22f70927487df6aaae4897477d0bcf5b2470b797e3f12932c60441a"),
    'sequence --family O --max-n 25 --format text': (0, "9164aaaedf78da64bb973d1452fac66945f692bd7dfd01bf4056e3d1dc6dcc05"),
    'sequence --family O --max-n 25 --format json': (0, "333f0d7f942e7c9da0f5e7b47adb1b72cdb4d91f5d38df2f166997ff0537abb9"),
    'sequence --family O --max-n 25 --format csv': (0, "dcae27e813e9e9a4fa92e884296ac56d67d790fc1be75c08730fa09a5f1e2303"),
    'compute --family T --n-range 1:6 --method recurrence --format csv': (0, "012df37360cfc2d2886aa6fc3167e310ffbedc7c48ee1855df11d8956e0d2e8e"),
    'compute --family Q --n-range 1:6 --method recurrence --format csv': (0, "48e329cc65ed7545cf459103ab1cbc5d35e878fd5a1040e64d5f4ae06815a75f"),
    'compute --family O --n-range 1:6 --method recurrence --format csv': (0, "904e1a7ac4fa454bca9c10ece34c7a8e988653b44b7059231df90aa0b1f6eb2b"),
    'compute --family Q+e --n-range 0:6 --method recurrence --format csv': (0, "dd6a7d5e23cdb8b316a346e64fb159ab7288e46d38fdd96aa64b55dd89d47cf6"),
    'compute --family Qtri --n-range 0:6 --method recurrence --format csv': (0, "dd5b01c91405974933c2237cc7297869450df21b3ebf5563f2ec0d0909ee6d1e"),
    'compute --family Q2 --n-range 0:6 --method recurrence --format csv': (0, "aab8371e7413b5c432acf4066cde178b8e6a3fd25c4ca35e549a31919345d94b"),
    'compute --family Qp --n-range 0:6 --method recurrence --format csv': (0, "ef4217a072e8e1d81eabf1cdfaa65d0f9bef3b26c674140cbaf23312d02d301a"),
    'compute --family O+e --n-range 0:6 --method recurrence --format csv': (0, "c523c5c50bc97b46ab1fbd2852674ffcee5f0b66ea91491ebf9599afd2afb397"),
    'compute --family Otri --n-range 0:6 --method recurrence --format csv': (0, "58e682f3118b399d4119e82ccbd6f4a203ddb4db7b7f96a837d5f4f0968c968c"),
    'compute --family O2 --n-range 0:6 --method recurrence --format csv': (0, "d23e31344a381873d3d3f6a3609f78cd7cfaa0662340643dab0ce3915cfee675"),
    'compute --family Op --n-range 0:6 --method recurrence --format csv': (0, "d680eb21f1c0c3a4e58e989c4661d3ac2cbb05a069e20ca1f4e440905c9e8a5e"),
    'compute --family Q --n-range 0:3': (0, "eba8397264f91a22be58208742c4824aa1fb852b3145a936fedbc74ac448e08f"),
    'compute --family Q --n-range 0:3 --method recurrence': (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
}


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_stdout_and_exit_code_are_pinned(capsys, argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN[" ".join(argv)]
