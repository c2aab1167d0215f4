"""Seeded fuzz of the command line over mutated input documents and flags.

Each command shape runs against each kind of graph mutation (none
included), five seeded examples per pair, with the class and polynomial
documents drawn intact or mutated once.  Every run must end with exit
code 0, 1 or 2 (argparse's own exit 2 included), no exception may escape
``main``, and a successful run must write a JSON document.
"""
from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from gkmcalc import complete_graph
from gkmcalc.cli import main

GRAPH = complete_graph([(0, 0), (1, 0), (0, 1)]).to_json()
CLASS = {
    "degree": 0,
    "values": {v: {"n": 2, "terms": [{"exp": [0, 0], "coef": "1"}]} for v in ("1", "2", "3")},
}
POLY = {"n": 2, "terms": [{"exp": [2, 0], "coef": "1"}, {"exp": [1, 1], "coef": "-1/2"}]}
DOCS = {"graph": GRAPH, "class": CLASS, "poly": POLY}

JUNK = [[], {}, 0.0, True, None, "abc", "1/0", ""]
XIS = [None, "1,2", "1,0", "1,2,3", "0,0", "abc"]
ALPHAS = ["0,0;1,0;0,1", "0,0;1,0;1,0", "0,0;1,0,0", "0,0;abc", "0,0;1,0;2,0"]
# "1,1" as a reverse covector lies off every wall class of the graph
COVECTORS = ["1,0", "0,1", "2,0", "0,0", "1,0,0", "abc", "1,1"]


def _paths(doc, prefix=()):
    """Every (container path, key) inside a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix, key
        if isinstance(value, (dict, list)) and value:
            yield from _paths(value, prefix + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


MUTATIONS = {
    "graph": ["drop", "replace", "n", "alpha", "reverse"],
    "class": ["drop", "replace", "n", "vertex"],
    "poly": ["drop", "replace", "n"],
}


@st.composite
def documents(draw, graph_kind):
    """The three documents: the graph under graph_kind, the others intact or mutated once."""
    docs = copy.deepcopy(DOCS)
    for name, doc in docs.items():
        if name == "graph":
            kind = graph_kind
        else:
            kind = draw(st.one_of(st.just("none"), st.sampled_from(MUTATIONS[name])))
        if kind in ("drop", "replace"):
            path, key = draw(st.sampled_from(list(_paths(doc))))
            parent = _at(doc, path)
            if kind == "drop":
                del parent[key]
            else:
                parent[key] = draw(st.sampled_from(JUNK))
        elif kind == "n":
            n = draw(st.sampled_from([0, 1, 3]))
            for target in doc["values"].values() if name == "class" else [doc]:
                target["n"] = n
        elif kind == "vertex":
            del doc["values"][draw(st.sampled_from(sorted(doc["values"])))]
        elif kind == "alpha":
            edge = draw(st.sampled_from(doc["edges"]))
            edge["alpha"] = edge["alpha"][:1]
        elif kind == "reverse":
            # an explicit reverse covector, parallel to the forward one or not
            edge = draw(st.sampled_from(doc["edges"]))
            alpha = draw(st.sampled_from(COVECTORS)).split(",")
            doc["edges"].append({"ends": edge["ends"][::-1], "alpha": alpha})
    return docs


def _pick(draw, options):
    return draw(st.sampled_from(options))


def _xi(draw):
    xi = _pick(draw, XIS)
    return [] if xi is None else ["--xi", xi]


def _max_degree(draw):
    return ["--max-degree", _pick(draw, ["-1", "0", "2"])]


# argv of each command shape, with the placeholders GRAPH, CLASS, POLY for the document paths
SHAPES = {
    "validate": lambda draw: ["validate", "GRAPH"],
    "cohdim": lambda draw: ["cohdim", "GRAPH", *_max_degree(draw)],
    "integrate": lambda draw: ["integrate", "GRAPH", "--class", "CLASS"],
    "residue": lambda draw: ["residue", "--poly", "POLY", "--alpha", "1,0", "--alpha", "0,1",
                             "--xi", _pick(draw, XIS) or "1,2"],
    "jk-sweep": lambda draw: ["jk", "GRAPH", "--class", "CLASS", "--sweep", *_xi(draw)],
    "jk-c": lambda draw: ["jk", "GRAPH", "--class", "CLASS", "--c=-1/2", *_xi(draw)],
    "betti": lambda draw: ["betti", "GRAPH", *_xi(draw)],
    "morse": lambda draw: ["morse", "GRAPH", *_max_degree(draw), *_xi(draw)],
    "blowup": lambda draw: ["blowup", "GRAPH", "--vertex", _pick(draw, ["1", "9"])],
    "product": lambda draw: ["product", "GRAPH", "GRAPH"],
    "complete": lambda draw: ["complete", "--alphas", _pick(draw, ALPHAS)],
    "cycle": lambda draw: ["cycle", "--count", _pick(draw, ["4", "5", "8"]),
                           "--a1", _pick(draw, COVECTORS), "--a2", _pick(draw, COVECTORS)],
}


@st.composite
def command_line(draw, shape):
    return SHAPES[shape](draw)


def _with_reverse(alpha):
    """The documents with an explicit reverse covector appended for the first edge."""
    docs = copy.deepcopy(DOCS)
    edges = docs["graph"]["edges"]
    edges.append({"ends": edges[0]["ends"][::-1], "alpha": alpha})
    return docs


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    # module-scoped: the files of distinct documents are shared by all the pairs
    path = tmp_path_factory.mktemp("fuzz")
    (path / "present").mkdir()  # --out goes to present/ or to a missing/ directory
    return path


def _check(workdir, docs, argv, out):
    """Run argv on files holding docs: exit 0, 1 or 2, and JSON whenever it is 0."""
    paths = {}
    for name, doc in docs.items():
        # one file per distinct document: rewriting a file costs far more than
        # creating one on some filesystems, and the examples repeat documents
        text = json.dumps(doc)
        path = workdir / f"{name}-{hashlib.sha256(text.encode()).hexdigest()[:16]}.json"
        if not path.exists():
            path.write_text(text)
        paths[name.upper()] = str(path)
    argv = [paths.get(arg, arg) for arg in argv]
    out_path = None if out is None else workdir / out / "out.json"
    if out_path is not None:
        argv += ["--out", str(out_path)]
        out_path.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the flags
            code = exc.code
    assert code in (0, 1, 2), (argv, stderr.getvalue())
    if code == 0:
        text = stdout.getvalue() if out_path is None else out_path.read_text()
        json.loads(text)


# Every command shape meets every graph mutation kind, so a fault that needs
# one command and one mutation together is reached by construction.
@pytest.mark.parametrize("graph_kind", ["none", *MUTATIONS["graph"]])
@pytest.mark.parametrize("shape", SHAPES)
def test_cli_never_ends_in_a_traceback(workdir, shape, graph_kind):
    @seed(20261018)
    @settings(max_examples=5, deadline=None)
    @given(docs=documents(graph_kind), argv=command_line(shape),
           out=st.sampled_from([None, "present", "missing"]))
    def check(docs, argv, out):
        _check(workdir, docs, argv, out)

    if (shape, graph_kind) == ("betti", "reverse"):
        # a reverse covector off its edge's forward one, whatever the seeded draws give
        check = example(docs=_with_reverse(["1", "1"]), argv=["betti", "GRAPH"], out=None)(check)
    check()
