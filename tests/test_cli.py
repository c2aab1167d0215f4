"""End-to-end command tests: golden documents, exit codes, determinism."""
from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

from gkmcalc import blow_up, complete_graph
from gkmcalc.cli import _emit, main
from gkmcalc.cohomology import chern_class, coh_basis, constant_class
from gkmcalc.gkm_core import GkmPair, ValidationReport, Violation, validate_axial
from gkmcalc.polyalg import Covector, Polynomial, Vector


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _run_json(capsys, *argv):
    code, out = _run(capsys, *argv)
    return code, json.loads(out)


@pytest.fixture()
def cp2_file(tmp_path, capsys):
    built = tmp_path / "cp2_built.json"
    code = main(["complete", "--alphas", "0,0;1,0;0,1", "--out", str(built)])
    capsys.readouterr()
    assert code == 0
    path = tmp_path / "cp2.json"
    path.write_text(json.dumps(json.loads(built.read_text())["graph"]))
    return str(path)


@pytest.fixture()
def one_file(tmp_path):
    doc = {
        "degree": 0,
        "values": {
            v: {"n": 2, "terms": [{"exp": [0, 0], "coef": "1"}]} for v in ("1", "2", "3")
        },
    }
    path = tmp_path / "one.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_validate_reports_ok(capsys, cp2_file):
    code, doc = _run_json(capsys, "validate", cp2_file)
    assert code == 0
    assert doc["ok"] and doc["valence"] == 2 and doc["violations"] == []


def test_validate_reports_axiom_violations(capsys, tmp_path, cp2_file):
    # break antisymmetry by pinning both orientations of one edge to +alpha
    bad = json.load(open(cp2_file))
    first = bad["edges"][0]
    bad["edges"] = bad["edges"] + [{"ends": first["ends"][::-1], "alpha": first["alpha"]}]
    bad.pop("connection", None)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, doc = _run_json(capsys, "validate", str(path))
    assert code == 1
    assert not doc["ok"]
    assert "1.16" in {v["axiom"] for v in doc["violations"]}


def test_unreadable_and_malformed_inputs_exit_2(capsys, tmp_path):
    code, out = _run(capsys, "validate", str(tmp_path / "missing.json"))
    assert code == 2
    missing_alpha = {
        "n": 2,
        "vertices": ["a", "b"],
        "edges": [{"ends": ["a", "b"]}],
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(missing_alpha))
    code, _ = _run(capsys, "validate", str(path))
    assert code == 2
    path.write_text("{not json")
    code, _ = _run(capsys, "validate", str(path))
    assert code == 2


def _cp2_doc(edit):
    """The cp2 graph document (edges 0: 1-2, 1: 1-3, 2: 2-3) with one edit applied."""
    doc = complete_graph([(0, 0), (1, 0), (0, 1)]).to_json()
    edit(doc)
    return doc


# Each malformed graph document, with the message GkmPair.from_json or
# GkmPair.__init__ raises for it as a GraphFormatError.
MALFORMED_GRAPHS = [
    pytest.param([], "graph document must be a JSON object", id="not-an-object"),
    pytest.param(_cp2_doc(lambda d: d["edges"].append(dict(d["edges"][0]))),
                 "edge ('1', '2') listed twice with the same orientation", id="edge-listed-twice"),
    pytest.param(_cp2_doc(lambda d: d.update(connection=[])), "'connection' must be an object",
                 id="connection-not-an-object"),
    pytest.param(_cp2_doc(lambda d: d["connection"].update({"1-2": {}})),
                 "connection key '1-2' is not 'p->q'", id="key-not-p-q"),
    pytest.param(_cp2_doc(lambda d: d["connection"]["1->2"].update(x=0)),
                 "connection['1->2'] key 'x' is not an edge index", id="inner-key-not-an-index"),
    pytest.param(_cp2_doc(lambda d: d["connection"].update({"1->2": {"0": 7}})),
                 "connection['1->2'] has an edge index out of range", id="index-out-of-range"),
    pytest.param(_cp2_doc(lambda d: d["connection"].update({"1->2": {"2": 2}})),
                 "connection['1->2']: edge 2 is not incident to '1'", id="edge-not-incident-to-p"),
    pytest.param(_cp2_doc(lambda d: d["connection"].update({"1->2": {"0": 0, "00": 0}})),
                 "connection['1->2'] maps edge 0 twice", id="edge-mapped-twice"),
    pytest.param(_cp2_doc(lambda d: d["connection"].pop("1->2")),
                 "connection must cover every oriented edge exactly (missing [('1', '2')], extra [])",
                 id="oriented-edge-missing"),
    pytest.param({"n": 2, "vertices": [], "edges": []}, "at least one vertex required",
                 id="no-vertices"),
]


@pytest.mark.parametrize("doc,message", MALFORMED_GRAPHS)
def test_malformed_graph_documents_exit_2_with_their_message(capsys, tmp_path, doc, message):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    code = main(["validate", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {path}: {message}\n"


def test_cohdim_table(capsys, cp2_file):
    # the README's dimensions; the edge form (1, -1) has a negative pivot coefficient
    code, doc = _run_json(capsys, "cohdim", cp2_file, "--max-degree", "4")
    assert code == 0
    assert doc == {"0": 1, "1": 3, "2": 6, "3": 9, "4": 12}


def test_cohdim_writes_basis_files(capsys, tmp_path, cp2_file):
    basis_dir = tmp_path / "basis"
    code, doc = _run_json(
        capsys, "cohdim", cp2_file, "--max-degree", "1", "--basis", str(basis_dir)
    )
    assert code == 0
    files = sorted(p.name for p in basis_dir.iterdir())
    assert files == ["deg0_0.json", "deg1_0.json", "deg1_1.json", "deg1_2.json"]
    sample = json.loads((basis_dir / "deg1_0.json").read_text())
    assert sample["degree"] == 1 and set(sample["values"]) == {"1", "2", "3"}


def test_cohdim_basis_makes_its_directory_once(capsys, tmp_path, cp2_file, monkeypatch):
    made = []
    real = Path.mkdir

    def counted(self, *args, **kwargs):
        made.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Path, "mkdir", counted)
    basis_dir = tmp_path / "basis"
    code, doc = _run_json(capsys, "cohdim", cp2_file, "--max-degree", "3", "--basis", str(basis_dir))
    assert code == 0 and doc == {"0": 1, "1": 3, "2": 6, "3": 9}
    assert made == [basis_dir]


def test_cohdim_of_the_eight_cycle_comes_from_elimination(capsys, tmp_path):
    # the flow-up certificate declines this cycle, so every degree is eliminated
    built = tmp_path / "cycle_built.json"
    assert main(["cycle", "--count", "8", "--a1", "1,0", "--a2", "0,1", "--out", str(built)]) == 0
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps(json.loads(built.read_text())["graph"]))
    code, doc = _run_json(capsys, "cohdim", str(path), "--max-degree", "4")
    assert code == 0 and doc == {"0": 1, "1": 8, "2": 16, "3": 24, "4": 32}


def test_integrate_of_one_is_zero(capsys, cp2_file, one_file):
    code, doc = _run_json(capsys, "integrate", cp2_file, "--class", one_file)
    assert code == 0
    assert doc["integral"] == {"n": 2, "terms": []}


def test_integrate_rejects_non_classes(capsys, tmp_path, cp2_file):
    doc = {
        "degree": 1,
        "values": {
            "1": {"n": 2, "terms": [{"exp": [1, 0], "coef": "1"}]},
            "2": {"n": 2, "terms": []},
            "3": {"n": 2, "terms": []},
        },
    }
    path = tmp_path / "fake.json"
    path.write_text(json.dumps(doc))
    code, out = _run(capsys, "integrate", cp2_file, "--class", str(path))
    assert code == 1


def test_residue_command(capsys, tmp_path):
    poly = tmp_path / "f.json"
    poly.write_text(json.dumps({"n": 2, "terms": [{"exp": [2, 0], "coef": "1"}]}))
    code, doc = _run_json(
        capsys,
        "residue",
        "--poly",
        str(poly),
        "--alpha",
        "1,0",
        "--alpha",
        "0,1",
        "--xi",
        "1,1",
    )
    assert code == 0
    assert doc["residue"]["terms"] == [
        {"coef": "1", "exp": [1, 0]},
        {"coef": "-1", "exp": [0, 1]},
    ]
    code, _ = _run(capsys, "residue", "--poly", str(poly), "--alpha", "1,0", "--xi", "1,2,3")
    assert code == 2


def test_betti_command(capsys, cp2_file):
    code, doc = _run_json(capsys, "betti", cp2_file, "--xi", "1,2")
    assert code == 0
    assert doc["betti"] == [1, 1, 1]
    assert doc["bettiAtXi"] == [1, 1, 1]
    assert doc["sigma"] == {"1": 2, "2": 1, "3": 0}
    assert doc["chambers_found"] == 6 and doc["invariant"]


def test_betti_on_a_wall_exits_1(capsys, cp2_file):
    code, _ = _run(capsys, "betti", cp2_file, "--xi", "1,0")
    assert code == 1


def test_jk_sweep(capsys, cp2_file, one_file):
    code, doc = _run_json(
        capsys, "jk", cp2_file, "--class", one_file, "--sweep", "--xi", "1,2"
    )
    assert code == 0
    assert doc["levels"] == ["-3", "-3/2", "-1/2", "1"]
    assert all(p["terms"] == [] for p in doc["pushforwards"])
    assert doc["stepsOk"] and doc["topIsZero"]
    assert doc["xi"] == ["1", "2"]


def test_jk_single_level(capsys, cp2_file, one_file):
    code, doc = _run_json(
        capsys, "jk", cp2_file, "--class", one_file, "--xi", "1,2", "--c=-1/2"
    )
    assert code == 0
    assert doc["c"] == "-1/2"
    assert doc["degree"] == -1
    assert doc["polynomial"]["terms"] == []
    code, _ = _run(capsys, "jk", cp2_file, "--class", one_file, "--xi", "1,2")
    assert code == 2  # neither --sweep nor --c


def test_morse_command(capsys, cp2_file):
    code, doc = _run_json(capsys, "morse", cp2_file, "--max-degree", "4", "--l", "2")
    assert code == 0
    assert doc["ok"]
    assert [row["lhs"] for row in doc["morse"]] == [1, 3, 6, 9, 12]
    assert all(row["ok"] for row in doc["morse"])
    assert doc["equalityReport"]["asserted_equality"] is True


def test_blowup_command(capsys, tmp_path, cp2_file):
    code, doc = _run_json(capsys, "blowup", cp2_file, "--vertex", "1")
    assert code == 0
    assert set(doc["blowDown"]) == {"2", "3", "1#1", "1#2"}
    assert sorted(doc["graph"]["vertices"]) == ["1#1", "1#2", "2", "3"]
    out_path = tmp_path / "sharp.json"
    code, out = _run(
        capsys, "blowup", cp2_file, "--vertex", "1", "--out", str(out_path)
    )
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text()) == doc
    code, _ = _run(capsys, "blowup", cp2_file, "--vertex", "9")
    assert code == 2


def test_product_command(capsys, tmp_path, cp2_file):
    seg = tmp_path / "seg.json"
    code = main(["complete", "--alphas", "0,0;1,1", "--out", str(seg)])
    capsys.readouterr()
    assert code == 0
    doc = json.loads(seg.read_text())
    seg.write_text(json.dumps(doc["graph"]))
    code, out = _run_json(capsys, "product", cp2_file, str(seg))
    assert code == 0
    assert out["report"]["ok"]
    assert len(out["graph"]["vertices"]) == 6


def test_complete_and_cycle_builders(capsys):
    code, doc = _run_json(capsys, "complete", "--alphas", "0,0;1,0;0,1")
    assert code == 0
    assert doc["graph"]["vertices"] == ["1", "2", "3"]
    code, doc = _run_json(capsys, "cycle", "--count", "4", "--a1", "1,0", "--a2", "0,1")
    assert code == 0
    assert len(doc["graph"]["vertices"]) == 4
    code, _ = _run(capsys, "cycle", "--count", "5", "--a1", "1,0", "--a2", "0,1")
    assert code == 1  # a mathematical constraint, not a parse failure
    code, _ = _run(capsys, "complete", "--alphas", "0,0;banana")
    assert code == 2


def test_output_is_deterministic(capsys, cp2_file):
    _, first = _run(capsys, "betti", cp2_file, "--xi", "1,2")
    _, second = _run(capsys, "betti", cp2_file, "--xi", "1,2")
    assert first == second
    assert first.endswith("\n")


def test_validate_round_trips_through_a_subprocess(tmp_path, cp2_file):
    proc = subprocess.run(
        [sys.executable, "-m", "gkmcalc", "validate", cp2_file],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["ok"]


def test_graph_files_round_trip_between_commands(capsys, tmp_path):
    # a graph written by one command is accepted verbatim by the others
    path = tmp_path / "cycle.json"
    code = main(["cycle", "--count", "8", "--a1", "1,0", "--a2", "1,1", "--out", str(path)])
    capsys.readouterr()
    assert code == 0
    graph_only = json.loads(path.read_text())["graph"]
    path.write_text(json.dumps(graph_only))
    code, doc = _run_json(capsys, "betti", str(path))
    assert code == 0
    assert doc["invariant"]


def test_unparseable_level_exits_2(capsys, cp2_file, one_file):
    code = main(["jk", cp2_file, "--class", one_file, "--xi", "1,2", "--c", "abc"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and "bad rational" in captured.err


@pytest.mark.parametrize("command", ["cohdim", "morse"])
def test_negative_max_degree_exits_2(capsys, cp2_file, command):
    code = main([command, cp2_file, "--max-degree", "-3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and "--max-degree" in captured.err


@pytest.mark.parametrize("command, extra, degree", [
    ("cohdim", [], "65536"),
    ("cohdim", [], "100000000000000000000"),
    ("morse", [], "65536"),
    ("morse", ["--l", "2"], "65536"),
])
def test_max_degree_above_the_key_limit_exits_2(capsys, cp2_file, command, extra, degree):
    # no degree past MAX_DEGREE fits a monomial key, so it is refused before any work
    code = main([command, cp2_file, *extra, "--max-degree", degree])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and captured.err.startswith("error: ") and "65535" in captured.err


@pytest.mark.parametrize("command", [["integrate"], ["jk", "--sweep"]])
def test_class_values_that_are_not_an_object_exit_2(capsys, tmp_path, cp2_file, command):
    path = tmp_path / "list_values.json"
    path.write_text(json.dumps({"degree": 0, "values": [{"n": 2, "terms": []}]}))
    code = main([*command, cp2_file, "--class", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and "not a class file" in captured.err


@pytest.mark.parametrize("command", ["integrate", "residue"])
def test_truncated_input_file_is_named_once(capsys, tmp_path, cp2_file, command):
    path = _file(tmp_path / "badc.json", b'{"degree": 0, "values": {')
    if command == "integrate":
        argv = ["integrate", cp2_file, "--class", path]
    else:
        argv = ["residue", "--poly", path, "--alpha", "1,0", "--xi", "1,1"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and captured.err.startswith(f"error: {path} is not valid JSON: ")
    assert captured.err.count(path) == 1


def test_zero_residue_covector_exits_2(capsys, tmp_path):
    poly = tmp_path / "f.json"
    poly.write_text(json.dumps({"n": 2, "terms": [{"exp": [2, 0], "coef": "1"}]}))
    code = main(["residue", "--poly", str(poly), "--alpha", "0,0", "--xi", "1,2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and "--alpha" in captured.err


def test_level_on_a_vertex_exits_2(capsys, cp2_file, one_file):
    # phi is (0, -1, -2) on vertices 1, 2, 3 for xi = (1, 2)
    code = main(["jk", cp2_file, "--class", one_file, "--xi", "1,2", "--c=0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and captured.err == "error: c must avoid the vertex levels\n"


def test_formula_residue_over_parallel_forms_exits_2(capsys, tmp_path):
    poly = tmp_path / "f.json"
    poly.write_text(json.dumps({"n": 2, "terms": [{"exp": [2, 0], "coef": "1"}]}))
    argv = ["residue", "--poly", str(poly), "--alpha", "1,0", "--alpha", "1,0", "--xi", "1,2"]
    assert main(argv + ["--method", "series"]) == 0
    capsys.readouterr()
    code = main(argv + ["--method", "formula"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: formula method needs pairwise independent forms\n"


def test_parallel_cycle_covectors_exit_2(capsys):
    code = main(["cycle", "--count", "4", "--a1", "1,0", "--a2", "2,0"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and "linearly independent" in captured.err


def test_betti_xi_of_the_wrong_dimension_exits_2(capsys, cp2_file):
    code = main(["betti", cp2_file, "--xi", "1,2,3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and "--xi has 3 coordinates" in captured.err


@pytest.mark.parametrize("l", ["0", "-3"])
def test_morse_l_below_one_exits_2(capsys, cp2_file, l):
    code = main(["morse", cp2_file, "--xi", "1,2", "--l", l])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and f"--l must be at least 1, got {l}" in captured.err


def _degree0_class(vertices, n):
    one = {"n": n, "terms": [{"exp": [0] * n, "coef": "1"}]}
    return {"degree": 0, "values": {v: one for v in vertices}}


def _file(path, content):
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(json.dumps(content))
    return str(path)


# Each case builds argv from a temporary directory and the cp2 graph file, and
# names a part of the message it exits with.
BAD_INPUTS = [
    pytest.param(
        lambda tmp, g: ["cycle", "--count", "4", "--a1", "1,0", "--a2", "1,0,0"],
        "axial covectors must share one ambient dimension",
        id="cycle-mixed-dimensions",
    ),
    pytest.param(
        lambda tmp, g: ["complete", "--alphas", "0,0;1,0;1,0"], "points 2 and 3 coincide",
        id="complete-coinciding-points",
    ),
    pytest.param(
        lambda tmp, g: ["complete", "--alphas", "0,0;1,0,0"],
        "all points must share one ambient dimension", id="complete-mixed-dimensions",
    ),
    pytest.param(
        lambda tmp, g: [
            "product",
            g,
            _file(tmp / "seg3.json", complete_graph([(0, 0, 0), (1, 0, 0)]).to_json()),
        ],
        "factors must share one ambient dimension",
        id="product-mixed-dimensions",
    ),
    pytest.param(
        lambda tmp, g: [
            "integrate", g, "--class", _file(tmp / "c.json", _degree0_class("12", 2))
        ],
        "class has no value at vertex '3'",
        id="class-missing-a-vertex",
    ),
    pytest.param(
        lambda tmp, g: [
            "integrate", g, "--class", _file(tmp / "c.json", _degree0_class("123", 3))
        ],
        "value at '1' is not a polynomial in the ambient ring",
        id="class-in-the-wrong-ring",
    ),
    pytest.param(
        lambda tmp, g: [
            "jk", g, "--class", _file(tmp / "c.json", {**_degree0_class("123", 2), "degree": 0.0}),
            "--xi", "1,2", "--c=-1/2",
        ],
        "is not a class file: class 'degree' must be an integer",
        id="class-degree-not-an-integer",
    ),
    pytest.param(
        lambda tmp, g: [
            "residue",
            "--poly",
            _file(tmp / "f.json", {"n": 2, "terms": [{"exp": [2, 0], "coef": "1/0"}]}),
            "--alpha",
            "1,0",
            "--xi",
            "1,1",
        ],
        "is not a polynomial file: bad rational '1/0'",
        id="zero-denominator-coefficient",
    ),
    pytest.param(
        lambda tmp, g: ["validate", g, "--out", str(tmp / "missing" / "x.json")],
        "No such file or directory",
        id="out-in-a-missing-directory",
    ),
    pytest.param(
        lambda tmp, g: [
            "cohdim", g, "--max-degree", "1", "--basis", str(Path(_file(tmp / "f", {})) / "x")
        ],
        "Not a directory",
        id="basis-under-a-file",
    ),
    pytest.param(
        lambda tmp, g: ["validate", _file(tmp / "bin.json", b"\xff\xfe")],
        "is not valid JSON: 'utf-8' codec can't decode",
        id="graph-file-not-utf8",
    ),
]


@pytest.mark.parametrize("argv, message", BAD_INPUTS)
def test_unusable_input_exits_2_with_a_message(capsys, tmp_path, cp2_file, argv, message):
    code = main(argv(tmp_path, cp2_file))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.startswith("error: ") and message in captured.err


@pytest.mark.parametrize("reverse", [["0", "1"], ["1", "1"]])
def test_a_reverse_covector_off_the_forward_one_is_a_wall_of_its_own(capsys, tmp_path, reverse):
    # the walls (1, 0) and the reverse split the plane into four chambers with different
    # histograms, and xi from the first acyclic one gives levels that break the reverse
    graph = _file(tmp_path / "g.json", {"n": 2, "vertices": ["a", "b"], "edges": [
        {"ends": ["a", "b"], "alpha": ["1", "0"]}, {"ends": ["b", "a"], "alpha": reverse}]})
    code = main(["betti", graph])
    captured = capsys.readouterr()
    assert code == 1 and "Traceback" not in captured.err
    assert json.loads(captured.out) == {
        "betti": [0, 2], "chambers_found": 4, "invariant": False, "method": "exhaustive"
    }
    one = _file(tmp_path / "one.json", _degree0_class(["a", "b"], 2))
    for argv in (["morse", graph, "--max-degree", "2"], ["jk", graph, "--class", one, "--sweep"]):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1 and captured.out == "", argv
        assert captured.err.startswith("violation: ") and "Traceback" not in captured.err, argv


@pytest.mark.parametrize("alphas", ["0,0;1,0;2,0", "0,0;1,1;2,2"])
def test_collinear_points_are_a_violation(capsys, alphas):
    code = main(["complete", "--alphas", alphas])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "violation: differences at vertex 1 toward 2 and 3 are parallel\n"


@pytest.mark.parametrize("exp", [[10**12, 0], [65536, 0], [70000, 0], [40000, 30000]])
def test_exponents_above_the_limit_exit_2(capsys, tmp_path, exp):
    poly = _file(tmp_path / "f.json", {"n": 2, "terms": [{"exp": exp, "coef": "1"}]})
    code = main(["residue", "--poly", poly, "--alpha", "1,0", "--xi", "1,1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("error: ") and "limit 65535" in captured.err


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this Python parses integer literals of any length")
@pytest.mark.parametrize("kind", ["graph", "class", "poly"])
def test_integers_past_the_digit_limit_exit_2(capsys, tmp_path, cp2_file, kind):
    # json.load refuses a literal above the int-to-str digit limit (4300 by default)
    big = "9" * (sys.get_int_max_str_digits() + 700)
    graph = json.load(open(cp2_file))
    docs = {
        "graph": graph | {"edges": [{**graph["edges"][0], "alpha": ["BIG", "0"]}]
                          + graph["edges"][1:]},
        "class": {**_degree0_class("123", 2), "values": {
            v: {"n": 2, "terms": [{"exp": [0, 0], "coef": "BIG"}]} for v in "123"}},
        "poly": {"n": 2, "terms": [{"exp": [1, 0], "coef": "BIG"}]},
    }
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(docs[kind]).replace('"BIG"', big))
    argv = {
        "graph": ["validate", str(path)],
        "class": ["integrate", cp2_file, "--class", str(path)],
        "poly": ["residue", "--poly", str(path), "--alpha", "1,0", "--xi", "1,1"],
    }[kind]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("error: ") and "digits" in captured.err
    assert str(sys.get_int_max_str_digits()) in captured.err


def _jsonable_oracle(obj):
    """The document conversion the writer replaced, frozen."""
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (Vector, Covector)):
        return [str(c) for c in obj]
    if hasattr(obj, "to_json"):
        return _jsonable_oracle(obj.to_json())
    if isinstance(obj, dict):
        return {str(k): _jsonable_oracle(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable_oracle(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _library_objects():
    cp2 = complete_graph([(0, 0), (1, 0), (0, 1)])
    broken = cp2.to_json()
    broken["edges"].append({"ends": ["2", "1"], "alpha": broken["edges"][0]["alpha"]})
    blown, down = blow_up(cp2, "1")
    _, basis = coh_basis(cp2, 2)
    return [
        cp2, blown, down, complete_graph([(0,), ("1/3",)]),
        validate_axial(GkmPair.from_json(broken)),
        ValidationReport([Violation("valence", {"degrees": {"1": 2, "10": 3, "2": 1}}),
                          Violation("1.33", {"edge": ("1", "2"), "maps": ["3", "4"]})], None),
        ValidationReport([], 2),
        *basis, chern_class(cp2, 2).scaled(Fraction(-5, 6)), constant_class(cp2, "7/3"),
        Polynomial.zero(2), Polynomial.zero(0), Polynomial.constant(0, "-7/3"),
        Polynomial(3, {(1, 0, 12): Fraction(-10**20, 3), (0, 0, 0): 1}),
        Vector(["1/2", -3, 0]), Covector([]), Covector(["-22/7"]),
    ]


_LIBRARY = _library_objects()
_rationals = st.builds(Fraction, st.integers(-10**25, 10**25), st.integers(1, 10**25))
_texts = st.one_of(st.text(max_size=6),
                   st.sampled_from(["", "\x00\x1f\x7f", " é\\\"/", "\U0001F600", "\ud800"]))
_polys = st.builds(
    Polynomial,
    st.just(2),
    st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), _rationals, max_size=4),
)
_leaves = st.one_of(
    st.integers(-10**40, 10**40), _texts, st.booleans(), st.none(), _rationals, _polys,
    st.lists(_rationals, max_size=3).map(Vector), st.lists(_rationals, max_size=3).map(Covector),
    st.sampled_from(_LIBRARY),
)
_documents = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.one_of(_texts, st.integers(-3, 120)), inner, max_size=4),
    ),
    max_leaves=12,
)


@seed(20261018)
@settings(max_examples=300, deadline=None)
@given(_documents)
def test_writer_matches_json_dumps(doc):
    expected = json.dumps(_jsonable_oracle(doc), indent=2, sort_keys=True) + "\n"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(doc, None)
    assert out.getvalue() == expected


def test_writer_files_and_refusals(tmp_path):
    doc = {10: [], "2": {}, "b": (1, (), {"x": None}), "a": [True, False, Fraction(-1, 3)],
           "é\n": _LIBRARY}
    path = tmp_path / "doc.json"
    _emit(doc, path)
    expected = json.dumps(_jsonable_oracle(doc), indent=2, sort_keys=True) + "\n"
    assert path.read_bytes() == expected.encode("ascii")
    assert list(json.loads(expected)) == ["10", "2", "a", "b", "é\n"]
    for bad in (0.5, {"a": [1, (2, 1.5)]}, [Polynomial.zero(1), {3}], {"x": object()}):
        path = tmp_path / "bad.json"
        with pytest.raises(TypeError):
            _emit(bad, path)
        assert not path.exists()
