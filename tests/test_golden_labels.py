"""Pinned vertex labels of every family graph: sha256 of its edge-list text.

The labels are part of the contract, not only the graph up to isomorphism:
chain vertices run 0, 1, ... block by block with the terminal last, and
gadget vertices follow upward.  Callers read D(X_k) at the cut vertex of
block k, so a constructor change must keep every digest.
"""
import hashlib

import pytest

from domchain.families import FAMILY_NAMES, attach_gadget, build_chain
from domchain.graph import format_edge_list

KINDS = ("pendant", "triangle", "pendant_path", "two_pendants", "diamond")


def _cases():
    for fam in FAMILY_NAMES:
        for n in range(1 if fam == "T" else 0, 7):
            yield f"{fam} {n}", (lambda f=fam, k=n: build_chain(f, k))
    for fam in ("Q2", "O2"):
        for n in range(7):
            yield (f"{fam} {n} two_pendants",
                   lambda f=fam, k=n: build_chain(f, k, attachment="two_pendants"))
    # gadgets on Q_2/O_2 (7 vertices) at the terminal 6 and at vertex 0
    for fam in ("Q", "O"):
        for kind in KINDS:
            for v in (6, 0):
                yield (f"{fam} 2 {kind}@{v}",
                       lambda f=fam, kd=kind, at=v: attach_gadget(build_chain(f, 2), at, kd))


CASES = dict(_cases())

GOLDEN = {
    'T 1': "7c0343f77a3c54a7b291511fde0fd472255dbdfd45e57dc93771a4b4e021c6ad",
    'T 2': "f0a41fdd13ba026e68c697e399ffc09a5d6faeb6dbdbe2733a5f30129852c693",
    'T 3': "4e7d88dc8854730bfad3a124fdafe8dcbd784956f972eae633ad1ef484ed8389",
    'T 4': "abfc6558cd64273ae54aa6ed99519de44cb33ba8e40c4be3c9e5b89f0d9887dd",
    'T 5': "a38374d78bf081a9099af7b3af9c8d5536f3c8f38281aef4efa1d796c95ed434",
    'T 6': "bf9912189bbf591e9b2cd7444fbb47467ab51ca34b073d4cf030eac09ea497aa",
    'Q 0': "f4a8ae8e74ddfb896a256de4e3099911dcaa6a9302591713898069b0bcd6e3d7",
    'Q 1': "4f9672f5b7ca2a87c1c9b595d2f01dd44e0c0b3924ec2c9a76083064fd6e5cc2",
    'Q 2': "a814c1d930e5707b4fcbae96a9681984843170749db96d1fb7e42da96f4822ff",
    'Q 3': "a947177805130345e39a37607261fc7e0e558dac7a2ec05f2539acc30094ee0d",
    'Q 4': "78e9cfd4be30bee47cd6193c7bf755326539956fd1b030a8d8073d0a16c9e90c",
    'Q 5': "911f72152df1df72e014e8d5439d4308989da10a69aea55a11832c3c593558c1",
    'Q 6': "afa8c549d6254198b81458c845941d739cf36457e8e1c741bcb9ca96761a3879",
    'O 0': "f4a8ae8e74ddfb896a256de4e3099911dcaa6a9302591713898069b0bcd6e3d7",
    'O 1': "e1720ca3c36618f00caded77cfe7f4b46177446041fd96e3f9336a5944f32fa4",
    'O 2': "accd9a8a27b71a2e355f70fe847d09326bd407d2a94010611c3abafcfa72c740",
    'O 3': "5b4703958532c05439251d2afb40707c4817a9d2e6805b59e63f75f29eb27908",
    'O 4': "56b5683ead563830955c06867206c70e88d50b0d159fa975fd5e8ca589b7c8fb",
    'O 5': "756e134569e0830f75b09432618fe8791d4bf9d6fc1f853ff4d8f14277ac8788",
    'O 6': "0d09b0048dd7ae50b3850cafcbbab884fe9bf42c9b3f9496bb2a6b9e02202da1",
    'Q+e 0': "4a6ae7226283a4b6277ce3e77a91585c0cad93929046f3c7bd9105d7ed101834",
    'Q+e 1': "b6a67613ae2c6958b0d91b8d0d10a38579f1be98d01d51c81fcd6ad71fbff1f2",
    'Q+e 2': "9ffa004fd49cb80806577f3a3ddb84d7de38110bcbf84dfacf90961e6d1a9ee1",
    'Q+e 3': "546a214e5fce4351ab39afe7572b323085bb323a3df7c8cea4b54f7daa2c66a4",
    'Q+e 4': "5ec0f9a8491330388c3d69540431da0396babc90fd4cdb9d3b62a8c28d7a3208",
    'Q+e 5': "86efb76fa49dcf80b16b99cd5cc09ddf585e58279b7fd4c4ebd726c2185ec54e",
    'Q+e 6': "37bb01676134d3d24db6bd7e338ef9826523e6e56dc7a0dd982d4d3bee288011",
    'Qtri 0': "7c0343f77a3c54a7b291511fde0fd472255dbdfd45e57dc93771a4b4e021c6ad",
    'Qtri 1': "75c2a836f80b483140f248f54988868a815232bd53a7a3816cd8f30cb1ad9ff4",
    'Qtri 2': "943d00790164ac1ad914f3b3ea078e0ead1a5524e47bba09c0bf872193ef59bb",
    'Qtri 3': "94353b7cfe571e73b882cc9ee51599b9808c4baa24303e5d36fe6cef4ed04f93",
    'Qtri 4': "35b81220da7baf3146e0e45ca4362d4e239ed263cc96f70a6956e0ad44d35435",
    'Qtri 5': "8e5f3a693a2052940763d5179fc063a20680600b6f6ebeb1e40f89d5fd5788f4",
    'Qtri 6': "46bcfc62cdcc238895911d1dc834a1df06f3c27293036a7172b5ed155b34cb85",
    'Q2 0': "de1c2550646acf29b7b36b74d22c72a954ef3aaf0fbd5d5b611f6c9dbc3e70df",
    'Q2 1': "2f27f061760e7fd1334b7f2a31ea77c4811d0d7ccb3c90f316113b83d55277b9",
    'Q2 2': "f9628727d39502ba4789468ddbfc66c5b3bee63c55681822e8902b7a1c906b6f",
    'Q2 3': "7d7af5e8bdd6e0f69f29bed36cbe8e82c50ce1c59aaafa095e3238dd39cb81eb",
    'Q2 4': "595857ef2b411df19799e0691c31153308d57f25b64f38136ef7f787185702a0",
    'Q2 5': "de804abd9ba1b4ab32f1726b02cb751036c218836fdd551f3c2907323a2d74a4",
    'Q2 6': "476187a84c667a56d5f373765ce21f3d4f60ec3956bbd23e05e3b44cc0c654eb",
    'Qp 0': "5a4f9664266d45dc18b7e2925ec6d3c0d5703c1a7b93632fa4b54b5ec6d5de56",
    'Qp 1': "a25c9a8a58fac42f806c6c57d43c00f7e1c9cb3e42a1a26679ca395e249968cf",
    'Qp 2': "e600a4fa3420725de8ffb021dfa14c5164059f7549170dcc787907f88711b725",
    'Qp 3': "c78db9fef13cba41b958d59104395c96fde8c4b34355d524976ae4941b9317a5",
    'Qp 4': "a6da7efd17a0f02648b2fcc988edb88a4d412682fb14b9e8d4f7d720969a2d86",
    'Qp 5': "17af1b08d4204dc81aed95f5b47efb77bd15ea09f0259449429e699aa6c417cf",
    'Qp 6': "0b10b0da656f4151744ee2af9351d7033076cb54c3bd133fff855c4004f8c6cb",
    'O+e 0': "4a6ae7226283a4b6277ce3e77a91585c0cad93929046f3c7bd9105d7ed101834",
    'O+e 1': "f469af3d3218da4c16377f1e19ee62d10c98042316146db0be487cf66e5016fe",
    'O+e 2': "12a25d6906045998a354fa43b95e6b8c8b71d7d67c9dbce9b77f48b745b42335",
    'O+e 3': "d658e9853eaee1ce9015a0cdc575e7b75453f182f221bd9c7049b62f6147025e",
    'O+e 4': "2e913b561931d66208f84043b0a73352cedd0db1458d1e947dcebe337698ffb6",
    'O+e 5': "732a46b2d8ac2040792bc378f35131161980b9bf9dd99f3ebb5d5c3d7a4e58d3",
    'O+e 6': "85e5ccb14bde24fdae6f6be2cbf7cd89447ca10c178c1082fdd6fb8a2c126e62",
    'Otri 0': "7c0343f77a3c54a7b291511fde0fd472255dbdfd45e57dc93771a4b4e021c6ad",
    'Otri 1': "cb382b795407d0b478731c2a0b7521a630ce80db477cd74e11ae48f26ba35e37",
    'Otri 2': "24d1ef0ce877eb31a6dae28d207536792578a09e007e2800cd5c2ced9ab5472c",
    'Otri 3': "b8483f79bcd63b30ad9d34e3704db64adcb45715926185bfd6286562d58c4745",
    'Otri 4': "e040f1512c514a9c11c83780798b376fc33395c09a12722380c55436c4228327",
    'Otri 5': "41214956545037dda43da6ce847d4270d2094139d336bef0ce7570bf444116bb",
    'Otri 6': "1643d63ff3e20832ccfba498a529cea57ee38db47d51a537b7ed67a4613e0ae5",
    'O2 0': "de1c2550646acf29b7b36b74d22c72a954ef3aaf0fbd5d5b611f6c9dbc3e70df",
    'O2 1': "8702b4490ab71f262b67a82b9cc8d00f5b8360bf868062d5731ef4597fc8cc83",
    'O2 2': "acbabc37147d505ca574ab6808e3c74ca76a31ca6086cea09219157910c4e800",
    'O2 3': "c348be334bdadd5073af76a149ea03d704b58fcce918eddbf6c239a87fa829f6",
    'O2 4': "7d233237a4b5997eb94feafee19f6ddfeb515dc6586af097db952a55e71320b4",
    'O2 5': "5a4e0803f68b8d9e3ca3071a94dc068303be67f3a640aaf005282cd56a6c1941",
    'O2 6': "9a14c1f700df9965cfa13058826c6376872fa6be541b86b5b3cc611b617304bc",
    'Op 0': "54395bc380a47539c1a97a5c6dec3eb90d1cbf99cb2644ab20603fb8e990a065",
    'Op 1': "4c5833e94789dd89e3eb43f6fbb4f5f2ebbfd7f118571038475bb15c71739c34",
    'Op 2': "0c1b405c5a3477b0651a964a4c499994926598a883d4991c10f5c77077624359",
    'Op 3': "58105601ea9989cc591a9e307a3b34a9d43d2c8de95770b743c2609b592ac0d2",
    'Op 4': "5dbdc375b7aa450d5dee6afbbb24b8d739a64b1a44f1283ae9ac55d2b11d5313",
    'Op 5': "671571f0c50ef18e051fdef565c4218c54475df1ebc38ddfd6ab4a2f5e7b58c7",
    'Op 6': "77b51c9b628441e3226f533fc38cb4c3ab5f18168fc3ce252419bd3f9a9900a2",
    'Q2 0 two_pendants': "5a4f9664266d45dc18b7e2925ec6d3c0d5703c1a7b93632fa4b54b5ec6d5de56",
    'Q2 1 two_pendants': "a25c9a8a58fac42f806c6c57d43c00f7e1c9cb3e42a1a26679ca395e249968cf",
    'Q2 2 two_pendants': "e600a4fa3420725de8ffb021dfa14c5164059f7549170dcc787907f88711b725",
    'Q2 3 two_pendants': "c78db9fef13cba41b958d59104395c96fde8c4b34355d524976ae4941b9317a5",
    'Q2 4 two_pendants': "a6da7efd17a0f02648b2fcc988edb88a4d412682fb14b9e8d4f7d720969a2d86",
    'Q2 5 two_pendants': "17af1b08d4204dc81aed95f5b47efb77bd15ea09f0259449429e699aa6c417cf",
    'Q2 6 two_pendants': "0b10b0da656f4151744ee2af9351d7033076cb54c3bd133fff855c4004f8c6cb",
    'O2 0 two_pendants': "5a4f9664266d45dc18b7e2925ec6d3c0d5703c1a7b93632fa4b54b5ec6d5de56",
    'O2 1 two_pendants': "977caa0b5f68ee3512cfbfd223a68c681b8c5d19a1fffa0899527ce797482a79",
    'O2 2 two_pendants': "82e0d5f671fd1c32e86463368b4de0ec6c8846220a72da65d6e4ec9ccd1904c2",
    'O2 3 two_pendants': "672d8462cc011e092ea7989257c943d91460e84cd50e732f47e97c92ab085aa8",
    'O2 4 two_pendants': "d7977dd581dbffae12f4496086ea8cc9a9745e9a8e624b2e4ac2d9f059356d99",
    'O2 5 two_pendants': "a4ee436e8260a1034e83cddc31bd4f9021e4ad3178f5f96760486965134dd2a7",
    'O2 6 two_pendants': "fcb9f5987c5b708e20a88f04524a11a38b677cfd90e1066e0cfdbf493f8813e0",
    'Q 2 pendant@6': "9ffa004fd49cb80806577f3a3ddb84d7de38110bcbf84dfacf90961e6d1a9ee1",
    'Q 2 pendant@0': "f7a75372668f087b9f634ac6ba5bcb8c9d27229b1c95f4ac9508d0381b005249",
    'Q 2 triangle@6': "943d00790164ac1ad914f3b3ea078e0ead1a5524e47bba09c0bf872193ef59bb",
    'Q 2 triangle@0': "3a126ae3bd75e337dd94356f9a1bd3b0b6b167054452995f1be56e827ab3d301",
    'Q 2 pendant_path@6': "f9628727d39502ba4789468ddbfc66c5b3bee63c55681822e8902b7a1c906b6f",
    'Q 2 pendant_path@0': "1c47b4004ab1f222fa0c6be5fa40e0495602fd772b7fe634d3e7bee401f22690",
    'Q 2 two_pendants@6': "e600a4fa3420725de8ffb021dfa14c5164059f7549170dcc787907f88711b725",
    'Q 2 two_pendants@0': "c41b37ad5d82d7adc9a4f5b8542c00b7e07344d811852795da5264f836b0898d",
    'Q 2 diamond@6': "af3360c026c57181b5bc11cb5a25de1a731ff16981138c0423c39f784a2c63cb",
    'Q 2 diamond@0': "2ae88fb40e157fd2bc0b650e80044b2ceaeac93a10d2195bda273b0ccb40ae1c",
    'O 2 pendant@6': "12a25d6906045998a354fa43b95e6b8c8b71d7d67c9dbce9b77f48b745b42335",
    'O 2 pendant@0': "de73a264ccb4e18cc89f20b6eac6abfd379372e4ce6fb17aa40ef33c9af92c8a",
    'O 2 triangle@6': "24d1ef0ce877eb31a6dae28d207536792578a09e007e2800cd5c2ced9ab5472c",
    'O 2 triangle@0': "6f619d9dfdce3ca5bccbe4f61a5b6aaca75fcdfa33576306d98a6adde4f27cb2",
    'O 2 pendant_path@6': "acbabc37147d505ca574ab6808e3c74ca76a31ca6086cea09219157910c4e800",
    'O 2 pendant_path@0': "53aa0cfd3f6cd541d7fe771e80fc9a994c598c09eb8ee97d2f365ce0dafc7bbd",
    'O 2 two_pendants@6': "82e0d5f671fd1c32e86463368b4de0ec6c8846220a72da65d6e4ec9ccd1904c2",
    'O 2 two_pendants@0': "161ec9e096f6d908e6821637a265684a2ac4a4caa32b099e9babfdf9f6519036",
    'O 2 diamond@6': "0c1b405c5a3477b0651a964a4c499994926598a883d4991c10f5c77077624359",
    'O 2 diamond@0': "6c90ee1078b72cbddc81c377e1c4b56a2d7e31b19f2e548520a1c2184111c66a",
}


@pytest.mark.parametrize("case", CASES)
def test_edge_list_is_pinned(case):
    text = format_edge_list(CASES[case]())
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[case]


def test_every_case_is_pinned():
    assert set(CASES) == set(GOLDEN)
