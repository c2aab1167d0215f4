"""End-to-end chains through the command line, each command's output feeding the next.

Every command runs in-process through ``gkmcalc.cli.main``, and every
document it writes (to stdout, with ``--out`` or with ``--basis``) must be
laid out exactly as ``json.dumps(indent=2, sort_keys=True)`` lays it out.
The chains: basis files feed ``integrate``; each level of a sweep is
reproduced by ``jk --c``; ``residue --method series`` and ``--method
formula`` print byte-identical documents; K7 over (t, ..., t^4) has its
class dimensions read off flow-up classes to degree 12; and the graphs
that ``complete``, ``cycle``, ``product`` and ``blowup`` write are checked
by ``validate``.
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

from gkmcalc import morse_betti
from gkmcalc.cli import main


def _doc(text):
    doc = json.loads(text)
    assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return doc


def _run(capsys, *argv, code=0):
    """Run argv with its exit code checked; its document (from --out if given) and stderr."""
    argv = [str(a) for a in argv]
    got = main(argv)
    captured = capsys.readouterr()
    assert got == code, (argv, captured.err)
    assert "Traceback" not in captured.err
    text = Path(argv[argv.index("--out") + 1]).read_text() if "--out" in argv else captured.out
    return (_doc(text) if text else None), captured.err


def _graph(capsys, tmp_path, name, *command):
    """The graph of a ``complete`` or ``cycle`` document, written on its own as name.json."""
    doc, _ = _run(capsys, *command, "--out", tmp_path / f"{name}doc.json")
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc["graph"]))
    return path


def _moment_curve(count, n):
    """--alphas for the points (t, t^2, ..., t^n), t = 1..count."""
    return ";".join(",".join(str(t**i) for i in range(1, n + 1)) for t in range(1, count + 1))


def _basis(capsys, graph, max_degree, directory):
    """cohdim's dimensions to max_degree and the basis files it writes, by name."""
    dims, _ = _run(capsys, "cohdim", graph, "--max-degree", max_degree, "--basis", directory)
    files = {path.stem: path for path in sorted(directory.iterdir())}
    for path in files.values():
        _doc(path.read_text())
    return dims, files


def _check_levels(capsys, graph, cls, xi, sweep):
    """Each level of the sweep on its own prints the sweep's pushforward at that level."""
    for i, c in enumerate(sweep["levels"]):
        doc, _ = _run(capsys, "jk", graph, "--class", cls, "--xi", xi, f"--c={c}")
        assert doc["c"] == c and doc["polynomial"] == sweep["pushforwards"][i], i


@pytest.fixture()
def cp2(capsys, tmp_path):
    return _graph(capsys, tmp_path, "cp2", "complete", "--alphas", "0,0;1,0;0,1")


@pytest.fixture()
def k5(capsys, tmp_path):
    return _graph(capsys, tmp_path, "k5", "complete", "--alphas", _moment_curve(5, 3))


def test_basis_classes_of_cp2_integrate_to_the_known_values(capsys, tmp_path, cp2):
    dims, basis = _basis(capsys, cp2, 3, tmp_path / "b3")
    assert dims == {"0": 1, "1": 3, "2": 6, "3": 9} and len(basis) == 1 + 3 + 6 + 9
    integrals = {}
    for name, path in basis.items():
        doc, _ = _run(capsys, "integrate", cp2, "--class", path, "--out", tmp_path / "int.json")
        integrals[name] = doc["integral"]["terms"]
    # the six of degree 2 to the constants 1, -1, -1, 0, 0, 1 in file order
    assert [integrals[f"deg2_{i}"] for i in range(6)] == [
        [{"coef": c, "exp": [0, 0]}] if c else [] for c in ("1", "-1", "-1", None, None, "1")
    ]
    # the nine of degree 3 to zero or a homogeneous linear polynomial
    assert all(sum(t["exp"]) == 1 for i in range(9) for t in integrals[f"deg3_{i}"])


def test_each_level_of_a_cp2_sweep_is_its_own_pushforward(capsys, tmp_path, cp2):
    _, basis = _basis(capsys, cp2, 2, tmp_path / "b")
    _run(capsys, "integrate", cp2, "--class", basis["deg2_5"])
    sweep, _ = _run(capsys, "jk", cp2, "--class", basis["deg2_5"], "--sweep", "--xi", "1,2",
                    "--out", tmp_path / "sweep.json")
    _check_levels(capsys, cp2, basis["deg2_5"], "1,2", sweep)


def test_a_basis_class_with_one_value_changed_fails_on_an_edge(capsys, tmp_path, cp2):
    cls = json.loads(_basis(capsys, cp2, 2, tmp_path / "b")[1]["deg2_5"].read_text())
    cls["values"]["3"]["terms"][0]["coef"] = "2"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cls))
    doc, err = _run(capsys, "integrate", cp2, "--class", bad, code=1)
    assert doc is None and "compatibility fails on edge ('2', '3')" in err


def test_k5_basis_files_count_the_class_dimensions_and_feed_a_sweep(capsys, tmp_path, k5):
    # the rank-only dimensions equal the number of basis files written per degree
    dims, _ = _run(capsys, "cohdim", k5, "--max-degree", 3, "--out", tmp_path / "dims.json")
    with_basis, basis = _basis(capsys, k5, 3, tmp_path / "k5b3")
    assert dims == with_basis
    assert all(v == sum(name.startswith(f"deg{k}_") for name in basis) for k, v in dims.items())
    _run(capsys, "jk", k5, "--class", basis["deg0_0"], "--sweep")
    # one degree-3 class whose pushforwards are nonzero constants at four of the six levels
    sweep, _ = _run(capsys, "jk", k5, "--class", basis["deg3_10"], "--sweep",
                    "--out", tmp_path / "k5sweep.json")
    assert sum(1 for p in sweep["pushforwards"] if p["terms"]) == 4
    _check_levels(capsys, k5, basis["deg3_10"], ",".join(sweep["xi"]), sweep)
    morse, _ = _run(capsys, "morse", k5, "--max-degree", 3, "--out", tmp_path / "morse.json")
    assert morse["ok"] is True


def test_k7_class_dimensions_are_read_off_flow_up_classes(capsys, tmp_path, monkeypatch):
    # one vertex for each sigma = 0..6, so dim H^k is the sum of C(k - j + 3, 3)
    # over j = 0..6, that is C(k + 4, 4) - C(k - 3, 4)
    k7 = _graph(capsys, tmp_path, "k7", "complete", "--alphas", _moment_curve(7, 4))

    def refuse(pair, k):
        raise AssertionError("cohdim eliminated a degree instead of reading it off flow-up classes")

    monkeypatch.setattr(morse_betti, "coh_dim", refuse)
    dims, _ = _run(capsys, "cohdim", k7, "--max-degree", 12, "--out", tmp_path / "dims.json")
    assert dims == {str(k): math.comb(k + 4, 4) - math.comb(max(k - 3, 0), 4) for k in range(13)}
    assert dims["12"] == 1694


def test_built_graphs_validate_and_a_swapped_connection_does_not(capsys, tmp_path, k5):
    seg = _graph(capsys, tmp_path, "seg", "complete", "--alphas", "0,0,0;1,1,1")
    cyc = _graph(capsys, tmp_path, "cyc", "cycle", "--count", 8, "--a1", "1,2", "--a2", "3,-1")
    built = [cyc]
    for name, argv in [("k5seg", ["product", k5, seg]), ("k5blown", ["blowup", k5, "--vertex", 1])]:
        doc, _ = _run(capsys, *argv, "--out", tmp_path / f"{name}doc.json")
        built.append(tmp_path / f"{name}.json")
        built[-1].write_text(json.dumps(doc["graph"]))
    for graph in built:
        report, _ = _run(capsys, "validate", graph, "--out", tmp_path / "v.json")
        assert report["ok"] is True, graph
    # two targets of the 1->2 connection map exchanged break reversal and compatibility
    doc = json.loads(k5.read_text())
    m = doc["connection"]["1->2"]
    a, b = sorted(m, key=int)[-2:]
    m[a], m[b] = m[b], m[a]
    swapped = tmp_path / "swapped.json"
    swapped.write_text(json.dumps(doc))
    report, _ = _run(capsys, "validate", swapped, "--out", tmp_path / "v.json", code=1)
    assert {"1.33", "1.34"} <= {v["axiom"] for v in report["violations"]}


def _edges(*edges):
    return [{"ends": [p, q], "alpha": alpha} for p, q, alpha in edges]


def test_a_square_with_unequal_star_residues_fails_axiom_1_18(capsys, tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps({"n": 2, "vertices": ["1", "2", "3", "4"], "edges": _edges(
        ("1", "2", ["1", "0"]), ("2", "3", ["0", "2"]), ("3", "4", ["1", "0"]),
        ("4", "1", ["0", "-1"]))}))
    report, _ = _run(capsys, "validate", path, code=1)
    assert "1.18" in {v["axiom"] for v in report["violations"]}


# Each graph, the command run on it (G for its path) and the violation it exits 1 with.
VIOLATIONS = [
    pytest.param(
        {"n": 2, "vertices": ["a", "b", "c", "d"],
         "edges": _edges(("a", "b", ["0", "1"]), ("a", "c", ["1", "0"]), ("a", "d", ["2", "-1"]))},
        ["blowup", "G", "--vertex", "a"],
        "blow-up at 'a': differences toward 'c' and 'd' relative to 'b' are parallel",
        id="star-with-parallel-differences",
    ),
    pytest.param(
        {"n": 1, "vertices": ["1", "2", "3"],
         "edges": _edges(("1", "2", ["1"]), ("2", "3", ["1"]), ("3", "1", ["1"]))},
        ["morse", "G", "--xi", "1", "--max-degree", "1"],
        "orientation has a directed cycle: 1 -> 2 -> 3",
        id="triangle-pointing-up-along-x",
    ),
]


@pytest.mark.parametrize("graph, argv, message", VIOLATIONS)
def test_hand_written_graphs_exit_1_naming_what_fails(capsys, tmp_path, graph, argv, message):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph))
    doc, err = _run(capsys, *[path if a == "G" else a for a in argv], code=1)
    assert doc is None and err == f"violation: {message}\n"


def _star_alphas(k5):
    """--alpha flags for the edge forms at vertex 1 of the K5 graph."""
    edges = json.loads(k5.read_text())["edges"]
    return ["--alpha=" + ",".join(e["alpha"]) for e in edges if e["ends"][0] == "1"]


def _poly(tmp_path, name, coefs):
    path = tmp_path / f"{name}.json"
    exps = [[2, 1, 1], [0, 4, 1], [1, 0, 3]]
    path.write_text(json.dumps(
        {"n": 3, "terms": [{"exp": e, "coef": c} for e, c in zip(exps, coefs)]}))
    return path


# the second direction's first coordinate is 0, so the series route expands
# in x_1 rather than x_0
@pytest.mark.parametrize("xi", ["1,2,3", "0,-3/2,2"])
def test_both_residue_routes_print_the_same_document(capsys, tmp_path, k5, xi):
    f = _poly(tmp_path, "f", ["1", "-3/2", "2"])
    out = {}
    for method in ("series", "formula"):
        out[method] = tmp_path / f"{method}.json"
        doc, _ = _run(capsys, "residue", "--poly", f, *_star_alphas(k5), "--xi", xi,
                      "--method", method, "--out", out[method])
    assert doc["residue"]["terms"]
    assert out["series"].read_bytes() == out["formula"].read_bytes()


def test_coefficient_spellings_give_the_same_residue(capsys, tmp_path, k5):
    # "３" is a full-width 3; Fraction reads underscores from Python 3.11 on
    ten = "1_0" if sys.version_info >= (3, 11) else "10"
    odd = _poly(tmp_path, "odd", ["３", " -3/6 ", ten])
    plain = _poly(tmp_path, "plain", ["3", "-1/2", "10"])
    for poly in (odd, plain):
        _run(capsys, "residue", "--poly", poly, *_star_alphas(k5), "--xi", "1,2,3",
             "--out", tmp_path / f"{poly.stem}-res.json")
    assert (tmp_path / "odd-res.json").read_bytes() == (tmp_path / "plain-res.json").read_bytes()
