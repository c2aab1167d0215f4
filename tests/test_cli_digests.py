"""Byte-level pins of the localization, chamber, ring and structure commands.

Each localization case runs `integrate`, `jk --c`, `jk --sweep --xi` and
`residue` with both methods on a fixture pair and a Chern-monomial class
of degree d-1, d or d+1 (d the valence).  Each chamber case runs `betti`,
`betti --xi` and `jk --sweep` on the unit class without `--xi`, which
prints the first acyclic chamber's witness as `xi`.  Each ring case runs
`cohdim`, `cohdim --basis` (hashed over the sorted file names and their
bytes), `morse --xi` and `morse --xi --l n` up to a fixed degree.  The
structure cases run `validate` (clean, violating and with a swapped
connection), `blowup`, `product`, `complete` and `cycle`; the swapped
`validate` and the `product` also run on the `complete` case's graph, whose
axial values mix denominators.  All
compare the sha256 of stdout with a recorded digest.  Any change to the
JSON these commands print, down to the order of terms, the spelling of a
rational, the witness chosen inside a chamber or the scaling of a basis
class, fails here.
"""
from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import pytest

from gkmcalc import complete_graph
from gkmcalc.cli import main
from gkmcalc.cohomology import chern_class, constant_class
from gkmcalc.gkm_core import relabel

# fixture -> (direction xi, level c for the single-level pushforward)
CASES = {
    "gamma5": ("1,3", "-3/2"),
    "gamma4": ("1,2,4", "-1/97"),
    "blowup": ("1,2", "-1/2"),
    "prod": ("2,3", "-3/2"),
}

# Two Chern monomials per degree; the coefficients give denominators up to 12.
COEFFS = (Fraction(3, 4), Fraction(-5, 6))


def _partitions(total, largest):
    if total == 0:
        yield ()
        return
    for first in range(min(total, largest), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


def _probe(pair, degree):
    cls = None
    for q, mono in zip(COEFFS, _partitions(degree, pair.valence)):
        term = None
        for i in mono:
            term = chern_class(pair, i) if term is None else term * chern_class(pair, i)
        term = term.scaled(q)
        cls = term if cls is None else cls + term
    return cls


def _digest(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, argv
    return hashlib.sha256(out.encode("utf-8")).hexdigest()


def _digests(capsys, tmp_path, pair, xi, c):
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps(pair.to_json()))
    vertex = pair.vertices[-1]
    alphas = [f"--alpha={','.join(str(x) for x in pair.axial_at(vertex, q))}"
              for q in pair.neighbors(vertex)]
    out = {}
    for degree in range(pair.valence - 1, pair.valence + 2):
        cls = _probe(pair, degree)
        cpath = tmp_path / f"p{degree}.json"
        cpath.write_text(json.dumps(cls.to_json()))
        fpath = tmp_path / f"p{degree}_f.json"
        fpath.write_text(json.dumps(cls.value(vertex).to_json()))
        runs = {
            "integrate": ["integrate", str(graph), f"--class={cpath}"],
            "jk-c": ["jk", str(graph), f"--class={cpath}", f"--xi={xi}", f"--c={c}"],
            "sweep": ["jk", str(graph), f"--class={cpath}", "--sweep", f"--xi={xi}"],
            "residue-series": ["residue", f"--poly={fpath}", *alphas, f"--xi={xi}",
                               "--method=series"],
            "residue-formula": ["residue", f"--poly={fpath}", *alphas, f"--xi={xi}",
                                "--method=formula"],
        }
        for name, argv in runs.items():
            out[f"p{degree}:{name}"] = _digest(capsys, argv)
    return out


# Recorded from the polynomial kernel on Fraction coefficients, before the
# integer-numerator rewrite.
DIGESTS = {
    "blowup": {
        "p1:integrate": "14be6ab97208d847cb541400f1226a0998161f4a75cffd5731132a2245466878",
        "p1:jk-c": "47c004aae4faf9b59324fb5e7cb3961b7b739525169e496f08d2e799ae2bb69d",
        "p1:residue-formula": "17ade6d7759a4debd6ca6f8bce3d1e13a9a1a9ee352bbe3f094849399de3b930",
        "p1:residue-series": "17ade6d7759a4debd6ca6f8bce3d1e13a9a1a9ee352bbe3f094849399de3b930",
        "p1:sweep": "5fe00c557791b9293590df635416a534927e60268023261be3796dfb7a156c42",
        "p2:integrate": "684d1c3da46a0598f1e988d31416695eaa470260ebbdc48390f27b97a43e007e",
        "p2:jk-c": "f79ad32acf3e1341dc417d33314774375b9314ff09178ac82b2f08f2c12d2d37",
        "p2:residue-formula": "d3410b63bb83ec8d48523661b72f39c82db758eacb34dcb0f80caea6a6e43648",
        "p2:residue-series": "d3410b63bb83ec8d48523661b72f39c82db758eacb34dcb0f80caea6a6e43648",
        "p2:sweep": "a3047611fa16876f2e3e78e155455299038e3b9c1c41fc749b2210651d9efd80",
        "p3:integrate": "c29a692e8a33e37cfcc34ab323dcdb58b90224ba85b23ab63fa7cae4d92fb795",
        "p3:jk-c": "45ba9e88c4be038c50cb9490f0886b431cb3878d94fa7e7cb726be931b627397",
        "p3:residue-formula": "196993427b0fc141b7bccbf13e6035aaeb14c5df1cdbad885031fb6ee76ae3ec",
        "p3:residue-series": "196993427b0fc141b7bccbf13e6035aaeb14c5df1cdbad885031fb6ee76ae3ec",
        "p3:sweep": "d642985cd27351b8a114d92c336f477bd45dd32f3360aa4f962cf8e0326ed93e",
    },
    "gamma4": {
        "p2:integrate": "1f275427deb9a6d5f7d7b48bc7d1a7f1bba57ae6abc6a4aa60e3dd4a2c1aac03",
        "p2:jk-c": "33fa54fb41d794e3360fe861cea6bc6fb83512a7a804702ea11ba10923bdf65b",
        "p2:residue-formula": "d8ce0dc64529ab8746da581d68707f3e5dbc9a770e1805024ad751addb3b1cb4",
        "p2:residue-series": "d8ce0dc64529ab8746da581d68707f3e5dbc9a770e1805024ad751addb3b1cb4",
        "p2:sweep": "1de0bad8fd60d0857513c423326c99e2ff3ddb5358aad8a6c2b66b1a3b857ff1",
        "p3:integrate": "c7a57c32e75de1adcd94febbfa1ba91e3e071298a96c660ddc31a167fbeb17fb",
        "p3:jk-c": "611ffc548cf21333310b8fc9a619c9b191d735754695a5de1656d8a01911309e",
        "p3:residue-formula": "5fd36ae36855c11f3372437513f46682767d6b8235c4aad296ccdb641c0f0bb8",
        "p3:residue-series": "5fd36ae36855c11f3372437513f46682767d6b8235c4aad296ccdb641c0f0bb8",
        "p3:sweep": "50325e14caa3f2017e5207085ea7cc292297f39a99882a134765bb8766283e6f",
        "p4:integrate": "1f275427deb9a6d5f7d7b48bc7d1a7f1bba57ae6abc6a4aa60e3dd4a2c1aac03",
        "p4:jk-c": "55ab45dbc94e0a0098e5593dd2bca16436236b43195a3b1eb21606291dbcdc16",
        "p4:residue-formula": "4a61c58cd9eb0ba381cb34ff81df7e76bd609a047d34837a324bfc4a0601146c",
        "p4:residue-series": "4a61c58cd9eb0ba381cb34ff81df7e76bd609a047d34837a324bfc4a0601146c",
        "p4:sweep": "72f2657fba9ca9fa05835d358575163e031d814974dde4b09cdc680e1753af9b",
    },
    "gamma5": {
        "p3:integrate": "14be6ab97208d847cb541400f1226a0998161f4a75cffd5731132a2245466878",
        "p3:jk-c": "2e38830f1efbd1d2468a68478c4d5f03b53e5bbef6fc03b68deb4fe505dbd015",
        "p3:residue-formula": "6a30b2ac87a798b998224d70c447a08d1d8bc9259346f08fb3d416f40f1557a6",
        "p3:residue-series": "6a30b2ac87a798b998224d70c447a08d1d8bc9259346f08fb3d416f40f1557a6",
        "p3:sweep": "8ea8cce95951dccd91406046f25543e391dbfc4d217ef7339009a7330f4b8ad7",
        "p4:integrate": "e69cc286d2997cfcb240ae751801dfb9becaa484324f480ec04f4bb09d2b34b2",
        "p4:jk-c": "7f5328812519aaa95ee435201ea979590de5f5cebb715165871a840e60d0d0c3",
        "p4:residue-formula": "77a422c87212f0994ca44fac49bae299aaa5212f4ee5f39145ee855390d5ee42",
        "p4:residue-series": "77a422c87212f0994ca44fac49bae299aaa5212f4ee5f39145ee855390d5ee42",
        "p4:sweep": "8da18e5e8f281002e2c96bfecbcc487acb44262ba84730949306ebf968ed7447",
        "p5:integrate": "14be6ab97208d847cb541400f1226a0998161f4a75cffd5731132a2245466878",
        "p5:jk-c": "428da25a6c2f5150f6cad3104b46fe2484fe451fe7e13b7d1c7ad0d17e6f6e66",
        "p5:residue-formula": "bb2c35d134b8317057253a9470f8347f60227eba1010b2bff5ad4050da6e389e",
        "p5:residue-series": "bb2c35d134b8317057253a9470f8347f60227eba1010b2bff5ad4050da6e389e",
        "p5:sweep": "404ad8aa902f79d88478c43c822b14c77fb0287bcff71b518e667bd069310420",
    },
    "prod": {
        "p2:integrate": "14be6ab97208d847cb541400f1226a0998161f4a75cffd5731132a2245466878",
        "p2:jk-c": "fe7eb39b4b25f8d738e9684d1e128a42bdc6c666196309782bea5bcfdb540821",
        "p2:residue-formula": "e1ea083ecfb57b68d291e2e3cef582cf270267d043dcd40041e2ac58d2f2ca7c",
        "p2:residue-series": "e1ea083ecfb57b68d291e2e3cef582cf270267d043dcd40041e2ac58d2f2ca7c",
        "p2:sweep": "5a2305da8225450e6262986d656698d1799257bf8fb18f89a8c933acd38c0684",
        "p3:integrate": "11690463370e1af3f268b09b76207f3a42d7ce13d82d6a9c574e2927753a7a1d",
        "p3:jk-c": "cded7c40e37230c732017973a33679f520185ef73e3b4cd8b8849b14fd8288d6",
        "p3:residue-formula": "d156b23335c00294556db3e1677dd0a291eaee3b0a4e40d1e7566ce64e52246e",
        "p3:residue-series": "d156b23335c00294556db3e1677dd0a291eaee3b0a4e40d1e7566ce64e52246e",
        "p3:sweep": "1039f94cbc012ef6655591f0e6f7569808b4d248ded179e79830102f77ffc336",
        "p4:integrate": "14be6ab97208d847cb541400f1226a0998161f4a75cffd5731132a2245466878",
        "p4:jk-c": "c6952e54a1a54ee41b2bcfd346a9183c1111c2db57980ca88dfaabe7b794e5b0",
        "p4:residue-formula": "455927812a7117c5eed2eaa59190e39715dbfd10f89fdaf2b33a7ff5a2c3966c",
        "p4:residue-series": "455927812a7117c5eed2eaa59190e39715dbfd10f89fdaf2b33a7ff5a2c3966c",
        "p4:sweep": "9685e7d3be170087d6a96c9a2b88c6a47afa00bd1c5b56be8eac60594b0d8b4d",
    },
}


@pytest.mark.parametrize("fixture", sorted(CASES))
def test_localization_output_is_pinned(request, capsys, tmp_path, fixture):
    pair = request.getfixturevalue(fixture)
    if fixture == "blowup":
        pair = pair[0]
    xi, c = CASES[fixture]
    assert _digests(capsys, tmp_path, pair, xi, c) == DIGESTS[fixture]


# pair -> a direction off every wall, for `betti --xi`
CHAMBER_CASES = {
    "k2": "1",
    "cp2": "1,2",
    "gamma4": "1,2,4",
    "gamma5": "1,3",
    "cycle4": "1,2",
    "blowup": "1,2",
    "prod": "2,3",
    "k6n3": "1,-2,1",
}


def _chamber_pair(request, name):
    if name == "k6n3":
        # 15 wall classes, 162 chambers
        return complete_graph([(t, t * t, t ** 3) for t in range(1, 7)])
    value = request.getfixturevalue(name)
    return value[0] if name == "blowup" else value


def _chamber_digests(capsys, tmp_path, pair, xi):
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps(pair.to_json()))
    unit = tmp_path / "unit.json"
    unit.write_text(json.dumps(constant_class(pair, 1).to_json()))
    runs = {
        "betti": ["betti", str(graph)],
        "betti-xi": ["betti", str(graph), f"--xi={xi}"],
        "sweep": ["jk", str(graph), f"--class={unit}", "--sweep"],
    }
    return {name: _digest(capsys, argv) for name, argv in runs.items()}


# Recorded from the Fourier-Motzkin elimination over Fraction rows, before
# the integer-row rewrite.
CHAMBER_DIGESTS = {
    "blowup": {
        "betti": "d35288f572bf68236409af9478b9226b8f72cab14b9875ba7ec380ffd01dbe04",
        "betti-xi": "79d2a54804e5f274a3c1f7d3eee45b628ce3355d6bad41335606e3c18d57b206",
        "sweep": "8fbc5e80ebc51ed5df62e9075012d66452e8fb76620825002ef19a0c62b67536",
    },
    "cp2": {
        "betti": "ed73b2e919ec6802ddab2f1d2d795ec3efff2b3a35af645a87742dea3b602239",
        "betti-xi": "303785a5560349c8e03d9b9bd34db10616cb3721f89d720f99b0b594f5fea2bb",
        "sweep": "7c38b92f247233af2433a2d7480c51c37ed410f8166c02e349ee45b5421f09cb",
    },
    "cycle4": {
        "betti": "5712827555ec067bf7387d9e358b290aea65e7d0a984fe1c7e4bcaf6e8088722",
        "betti-xi": "26d8134e3e294d679f7ec179d7bfcc9872664ed95e5d3e0d798eda669b68ed73",
        "sweep": "13c95a22050d16f74b47ae997ddca5df9581af16d315ff8e5fdde2c131e44a32",
    },
    "gamma4": {
        "betti": "a8273956399c4a76adb2d2b82fb44dfcc0a1a09f721e89c269849eab71821b51",
        "betti-xi": "c2c318e28be8b9c1c7ff042a5fb8864493cbe29841237ac3d08a42ef76a9bcd5",
        "sweep": "b18efb365c0e8fdf1d13c92fbb582db1b4df9e0b1f8032e972734db72801c5fc",
    },
    "gamma5": {
        "betti": "45ff669f589a9654e62106eea800b32884a56c8e6b047e689c19bfcde9a07c6a",
        "betti-xi": "e377fd338d5f6fdb60c38a396594f50459cf203a0f6d6a83becf6fd34016b45a",
        "sweep": "82a3a8ec0e60e6d962bedd329b1966e3b5a2da405a379037a8bb6b9d315d4e63",
    },
    "k2": {
        "betti": "357dbf9b622f1dec1e154e4fe0d80b50ddc4d67cb594a2ae72e1e5353fb95f24",
        "betti-xi": "48f1c02d6bec5730f56a67732a1fd71bdddabc92d488041d29ed253b6bb311c9",
        "sweep": "62bcaaeaaa5749412dd6a08eae26b05165827fbfeb4b20a2645afbc243e801ae",
    },
    "k6n3": {
        "betti": "2ea74b63c61a26fa021255a6f2125b511ea7f68f3dbbfb94bdda78019b2d960d",
        "betti-xi": "6aedb5c1630ef7dd35681e4d0a3b964a9ad15c884b91e714d93af4e69feded64",
        "sweep": "248a2c915e26d8593fe8da41abba9e35a0e2f45156776e1b80ac7babcbe2a5ae",
    },
    "prod": {
        "betti": "f5f9f214519362d35a991a8dbd5fe1d94f31d5926b7c2d353da5c5d2ee5011e2",
        "betti-xi": "9610a6652c508b837b36d993a97cc2d14e9ff292a56463328eb10147416a7f6b",
        "sweep": "f45274831a26f2186b6cd49a1ec022411c1795dc842dd8a9be5cf512a5683fd3",
    },
}


@pytest.mark.parametrize("name", sorted(CHAMBER_CASES))
def test_chamber_output_is_pinned(request, capsys, tmp_path, name):
    pair = _chamber_pair(request, name)
    got = _chamber_digests(capsys, tmp_path, pair, CHAMBER_CASES[name])
    assert got == CHAMBER_DIGESTS[name]


# pair -> (max degree, a direction off every wall for `morse --xi`)
RING_CASES = {
    "k2": (5, "1"),
    "cp2": (5, "1,2"),
    "gamma4": (4, "1,2,4"),
    "gamma5": (5, "1,3"),
    "cycle4": (5, "1,2"),
    "blowup": (5, "1,2"),
    "prod": (4, "2,3"),
    "k5n3": (4, "1,-2,1"),
    "k6n2": (5, "1,3"),
    "k6n4": (5, "1,-2,1,-1"),
}


def _ring_pair(request, name):
    if name == "k6n4":
        # K6 over (t, ..., t^4): at ladder scale, where the order rows reach the
        # elimination engine decides how much its echelon basis fills in
        return complete_graph([(t, t * t, t ** 3, t ** 4) for t in range(1, 7)])
    value = request.getfixturevalue(name)
    return value[0] if name == "blowup" else value


def _ring_digests(capsys, tmp_path, pair, k, xi):
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps(pair.to_json()))
    out = {
        "cohdim": _digest(capsys, ["cohdim", str(graph), f"--max-degree={k}"]),
        "morse": _digest(capsys, ["morse", str(graph), f"--xi={xi}", f"--max-degree={k}"]),
        "morse-l": _digest(capsys, ["morse", str(graph), f"--xi={xi}", f"--max-degree={k}",
                                    f"--l={pair.n}"]),
    }
    basis = tmp_path / "basis"
    _digest(capsys, ["cohdim", str(graph), f"--max-degree={k}", f"--basis={basis}"])
    files = hashlib.sha256()
    for path in sorted(basis.iterdir()):
        files.update(path.name.encode("utf-8") + b"\0" + path.read_bytes() + b"\0")
    out["cohdim-basis"] = files.hexdigest()
    return out


# Recorded from the compatibility system built with reduce_mod_line on
# Fraction rows, before the integer-row rewrite.
RING_DIGESTS = {
    "blowup": {
        "cohdim": "3f9e6fad11637f97a9ec0ebda73784a5169b90876c295c3be1a4a90cd99f4c78",
        "cohdim-basis": "a781bd0f73b7753fa0a99d2a42b5f7b7b3000d5bdfa8f087f6a99aae841142b6",
        "morse": "8f7f4897b0387332800ea7167172d2d7c8cc30e5948cd96054ff0309fe8eb970",
        "morse-l": "2ce025d541db199c5a5957fdd542fe5739a9a5900bed7054e7383398e8cd133a",
    },
    "cp2": {
        "cohdim": "7e6fdc033996391d0ebb14e576f8ca515c4c6adc15b59b5ba34e2126967868fd",
        "cohdim-basis": "918d29571df232e03e8a6e28f3876f634905ac34b9bfbb12771566e70a7755aa",
        "morse": "6c1621bcdbd8e4323bda2db203d4ae2f4a4cf3b65fddc4c0608f93dcdc9aea58",
        "morse-l": "fb7f0dacc73034a16b4efd388a75dd82c3de641505732a110d45fbb44512df59",
    },
    "cycle4": {
        "cohdim": "3f9e6fad11637f97a9ec0ebda73784a5169b90876c295c3be1a4a90cd99f4c78",
        "cohdim-basis": "accaaae01d796e35ef39cf9291bf85ddcdc8de057cf751c1f48c8aef63c2efa8",
        "morse": "9b322fb34a5d470c17353089eae91fb35ebe5968441c2e839ef5f9c0dbdf64c7",
        "morse-l": "80f02fbe8723cf6d25f163a2333b4f9c33a9b60c19b9843b77b0b280294a9a23",
    },
    "gamma4": {
        "cohdim": "cc025f89d385cefea3bab8c2177c09f343fc7d33dc2728bb0e6ad02a1f685f84",
        "cohdim-basis": "918ecc787dcf24a40e47ec21dafb5b184929b824fcd0f9c0d7b902add681fd48",
        "morse": "4fa3607094695bc6792be3cc4afc7ee59831f69b668094fcbd95377bf6672cb3",
        "morse-l": "a4ef93086aef8e55d533c03667b27937afdbc4f45cc1e117ef87a953da4d93f1",
    },
    "gamma5": {
        "cohdim": "f98a857d932d1e02d4f86988250fc135e3b5343645287ae94c2e6ec0773156d2",
        "cohdim-basis": "b23c2a5baafade8dfc37986c81e76147eab311967c747486e4befcd1c4b52363",
        "morse": "51e1a245049acd8b8bf1a1c1e62928e2d7b2d2a2f7ec401931a5331a305d54be",
        "morse-l": "1aa5294b927ca06b3666700384efb3dff7b6919d15f16d8cfb504f9e626e93e5",
    },
    "k2": {
        "cohdim": "a41fb9a2d3748facbe44472e415a75ba7c391ef2c8ff75f8da9d60e61e4a15b7",
        "cohdim-basis": "8f8f7f76afcdc7ed1af60691bf135d17f9bba2247b23bf1096aa02db796233fe",
        "morse": "1d5447d057fb1384df619a2ca3940506c2868ef52f903d88c3bb74c2b5091a17",
        "morse-l": "a24d4e64e38d639240a0f2c05da9c3baabe0e91ff14bb0f1fb1c040a74f51595",
    },
    "k5n3": {
        "cohdim": "a708f85d7a8bf86b7945a9357c4c157630e484647ae30106a1af2cd011fe4f11",
        "cohdim-basis": "66ebc9737f51e069c9c25606aef9475863e7a194f625a79626ddb42b3f6b553d",
        "morse": "9af2eafd9faf9847be68ad1b46e9da67a4b5ff96e3ab21ed7a452d8e33149e16",
        "morse-l": "44fe8c16952b9acd71791b853c9cd14525bf42f816414d32582190c8721c409c",
    },
    "k6n2": {
        "cohdim": "100bf8db2d189e1d26e58cbcd9498dbe4da888af013fa06122304d2f100ef836",
        "cohdim-basis": "7e747dac3abe8c887d82c3cf8b221fad6ca9c54260bd7f85004fac49174810b9",
        "morse": "7ea7c818a4c4c31e8291218d81e91d74b9bcd711295ccfc2ade71cd6943a37e4",
        "morse-l": "c64429c9e22a9005cddcaa38c0aed68e5c9d4d01426d925628c7349589c5aba0",
    },
    # recorded with rows fed to the elimination engine in input order
    "k6n4": {
        "cohdim": "8225b2b1736d6870ca34cfb147fae6e1d4844164a7545ad52690f58567ddecb6",
        "cohdim-basis": "21a717de6cfadb24c861b66a414fac799371df35424c522e3084a6bc4fbd2cd0",
        "morse": "694b1cc4d2ecda40e4175f5bffee6432a36210a88cd629aae6226e7c03031dbe",
        "morse-l": "fd36b2e528756f289e4ec612a9e9c9940145e4da9a0bf3165b59a750a2658a8a",
    },
    "prod": {
        "cohdim": "55600eb6004d17f742375c7fc06b80519734adeba31d656d01d5a0de0e020a0e",
        "cohdim-basis": "156ced03325826a7d8b6778348f4cd151a2b464bcc8830b5f6bdca72c462c31a",
        "morse": "55f62315dc1991580fbae10937d6e993c7c823da4c1d921b024f0341aebcfdcc",
        "morse-l": "0a8fee5e0d0922e22433e2cc534c0d1ffe85ac6692366f4567d378dec918f08e",
    },
}


@pytest.mark.parametrize("name", sorted(RING_CASES))
def test_ring_output_is_pinned(request, capsys, tmp_path, name):
    pair = _ring_pair(request, name)
    k, xi = RING_CASES[name]
    assert _ring_digests(capsys, tmp_path, pair, k, xi) == RING_DIGESTS[name]


def _structure_runs(tmp_path, cp2, k5n3):
    """argv and expected exit code of each structural command."""

    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    cp2_file = write("cp2.json", cp2.to_json())
    k5_file = write("k5.json", k5n3.to_json())
    # both orientations of one edge pinned to +alpha, one vertex of degree 1
    broken = cp2.to_json()
    first = broken["edges"][0]
    broken["edges"].append({"ends": first["ends"][::-1], "alpha": first["alpha"]})
    broken["edges"].append({"ends": ["3", "4"], "alpha": ["1/2", "-7/3"]})
    broken["vertices"].append("4")
    broken.pop("connection")
    def swapped(pair):
        """The document with two targets of the 1->2 connection map exchanged."""
        doc = pair.to_json()
        m = doc["connection"]["1->2"]
        a, b = sorted(m, key=int)[-2:]
        m[a], m[b] = m[b], m[a]
        return doc

    # the graph of the "complete" case: axial denominators 1, 2, 3, 6, 7, ...
    mixed = complete_graph([(0, 0), ("1/2", 0), (0, "-2/3"), (3, "5/7")])
    mixed_file = write("mixed.json", mixed.to_json())
    seg = relabel(complete_graph([(0, 0), (1, 1)]), {"1": "a", "2": "b"})
    seg_file = write("seg.json", seg.to_json())
    return {
        "validate": (["validate", cp2_file], 0),
        "validate-k5": (["validate", k5_file], 0),
        "validate-violating": (["validate", write("broken.json", broken)], 1),
        "validate-swapped": (["validate", write("swapped.json", swapped(k5n3))], 1),
        "validate-swapped-mixed": (["validate", write("mixed-swapped.json", swapped(mixed))], 1),
        "blowup": (["blowup", cp2_file, "--vertex", "1"], 0),
        "blowup-k5": (["blowup", k5_file, "--vertex", "3"], 0),
        "product": (["product", cp2_file, seg_file], 0),
        "product-mixed": (["product", mixed_file, seg_file], 0),
        "complete": (["complete", "--alphas", "0,0;1/2,0;0,-2/3;3,5/7"], 0),
        "cycle": (["cycle", "--count", "8", "--a1", "1,2", "--a2=-1/3,1"], 0),
    }


# Recorded from the json.dumps(indent=2, sort_keys=True) writer, before the
# one-walk writer; the two mixed-denominator cases from the residue checks on
# Covectors, before the integer residue tables.
STRUCTURE_DIGESTS = {
    "blowup": "4905a271576b044ec2519eece79c90efc5f8dc5eb6d2a1484371f1489e2d13f3",
    "blowup-k5": "22456463739affa91bc161726b5dcd62af7680dca4ada809572d084292e56a0f",
    "complete": "9876e0783e1dd6538055a1023f46d8260abeb4670b4c3c285be411a76824ea6f",
    "cycle": "84f66eb0ac671b6485197d102f0524da2e612308a197e0cfd77a9e915c16c0ec",
    "product": "fa571c156f8ff23f6f4e1964d9c3127450b9ed3b016542391d6a10a59805c659",
    "product-mixed": "117a8fe63412a9d9221572d0df8a05b73537087e57ab071127438e706f7a544a",
    "validate": "a8723451ef7860591a0166c52fc32dd81cba80c446ba5452359d47e9edab9b6d",
    "validate-k5": "4c13ae71bf47e56a816df0fddccca7b4833da413e0c9ce665fe76ccd7d076e65",
    "validate-swapped": "d16cf09c7fbf7eb59f55aacfa16118c861ea68c2273598333576b72733840d50",
    "validate-swapped-mixed": "7044516cb27b7842466079346fef1f72fa67380e98b077d183c34f6abdbba902",
    "validate-violating": "e537a9904182d0af7e5e727574e7db1a00252e7aed038c9b8f4cecc80f8382c7",
}


@pytest.mark.parametrize("name", sorted(STRUCTURE_DIGESTS))
def test_structure_output_is_pinned(capsys, tmp_path, cp2, k5n3, name):
    argv, expected = _structure_runs(tmp_path, cp2, k5n3)[name]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == expected, argv
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == STRUCTURE_DIGESTS[name]
