"""Axiom validation, connection inference, and graph surgery."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from gkmcalc import (
    AmbiguousConnection,
    GkmPair,
    GraphFormatError,
    NoConnection,
    blow_up,
    complete_graph,
    infer_connection,
    product,
    validate_axial,
    validate_connection,
)
from gkmcalc import gkm_core
from gkmcalc.gkm_core import (
    is_totally_geodesic,
    relabel,
    subgraph_gamma_h,
    subpair,
)
from gkmcalc.polyalg import Covector, Polynomial, reduce_mod_line


def _axioms(report):
    return {v.axiom for v in report.violations}


def test_valid_fixtures_validate_clean(cp2, cycle4, gamma5):
    for pair, d in ((cp2, 2), (cycle4, 2), (gamma5, 4)):
        report = validate_axial(pair)
        assert report.ok and report.valence == d
        assert validate_connection(pair, pair.connection).ok


def test_irregular_valence_is_reported():
    pair = GkmPair(
        2,
        ["a", "b", "c"],
        [("a", "b"), ("a", "c")],
        {("a", "b"): (1, 0), ("a", "c"): (0, 1)},
    )
    report = validate_axial(pair)
    assert report.valence is None
    assert "valence" in _axioms(report)


def test_broken_antisymmetry_is_reported():
    pair = GkmPair(
        1,
        ["1", "2"],
        [("1", "2")],
        {("1", "2"): (1,), ("2", "1"): (1,)},
    )
    report = validate_axial(pair)
    assert "1.16" in _axioms(report)
    witness = next(v.witness for v in report.violations if v.axiom == "1.16")
    assert witness == {"edge": ["1", "2"]}


def test_parallel_star_forms_are_reported():
    pair = GkmPair(
        2,
        ["1", "2", "3", "4"],
        [("1", "2"), ("2", "3"), ("3", "4"), ("4", "1")],
        {
            ("1", "2"): (1, 0),
            ("2", "3"): (1, 0),
            ("3", "4"): (1, 0),
            ("4", "1"): (1, 0),
        },
    )
    report = validate_axial(pair)
    assert "1.17" in _axioms(report)


def _square_with_residue_mismatch():
    return GkmPair(
        2,
        ["1", "2", "3", "4"],
        [("1", "2"), ("2", "3"), ("3", "4"), ("4", "1")],
        {
            ("1", "2"): (1, 0),
            ("2", "3"): (0, 2),
            ("3", "4"): (1, 0),
            ("4", "1"): (0, -1),
        },
    )


def test_residue_matching_failure_is_reported():
    report = validate_axial(_square_with_residue_mismatch())
    assert "1.18" in _axioms(report)
    witnessed = [v.witness["edge"] for v in report.violations if v.axiom == "1.18"]
    assert ["1", "2"] in witnessed


def test_no_connection_exists_when_residues_mismatch():
    with pytest.raises(NoConnection):
        infer_connection(_square_with_residue_mismatch())


def test_inference_recovers_the_standard_connection(cp2, gamma4):
    for pair in (cp2, gamma4):
        assert infer_connection(pair) == pair.connection


def test_inference_is_ambiguous_on_the_moment_curve(gamma5):
    # two star residues collide along the edge 1-5, yet the attached
    # standard connection is still one of the compatible choices
    with pytest.raises(AmbiguousConnection):
        infer_connection(gamma5)
    assert validate_connection(gamma5, gamma5.connection).ok


def test_corrupted_connection_violations(cp2):
    conn = {e: dict(m) for e, m in cp2.connection.items()}
    conn[("1", "2")] = {"2": "3", "3": "1"}
    report = validate_connection(cp2, conn)
    assert not report.ok
    assert "1.32" in _axioms(report)
    # the reversal axiom breaks too, since the reverse map no longer inverts
    assert "1.33" in _axioms(report)


def test_connection_compatibility_violation(cycle4):
    conn = {e: dict(m) for e, m in cycle4.connection.items()}
    # keep the bijection shape but pair the wrong opposite neighbors
    m = conn[("1", "2")]
    back = conn[("2", "1")]
    (r,) = [k for k in m if k != "2"]
    (s,) = [k for k in back if k != "1"]
    m[r], m["2"] = m["2"], m[r]
    report = validate_connection(cycle4, conn)
    assert not report.ok
    assert "1.34" in _axioms(report)


@pytest.mark.parametrize(
    "vertices,edges,axial",
    [
        (["a", "a"], [], {}),
        (["a"], [("a", "a")], {("a", "a"): (1,)}),
        (["a", "b"], [("a", "c")], {}),
        (["a", "b"], [("a", "b")], {("a", "b"): (0, 0)}),
        (["a", "b"], [("a", "b")], {}),
        (["a", "b"], [("a", "b"), ("b", "a")], {("a", "b"): (1, 0)}),
        (["a->b", "c"], [], {}),
    ],
)
def test_malformed_graphs_are_rejected(vertices, edges, axial):
    with pytest.raises(GraphFormatError):
        GkmPair(2 if any(len(v) == 2 for v in axial.values()) else 1, vertices, edges, axial)


def test_json_round_trip(cp2, cycle4, gamma5):
    for pair in (cp2, cycle4, gamma5):
        doc = pair.to_json()
        back = GkmPair.from_json(doc)
        assert back == pair
        assert back.connection == pair.connection


def test_from_json_rejects_missing_fields(cp2):
    doc = cp2.to_json()
    del doc["edges"][0]["alpha"]
    with pytest.raises(GraphFormatError):
        GkmPair.from_json(doc)
    with pytest.raises(GraphFormatError):
        GkmPair.from_json({"vertices": ["a"]})


def test_relabel_preserves_structure(cp2):
    named = relabel(cp2, {"1": "p", "2": "q", "3": "r"})
    assert set(named.vertices) == {"p", "q", "r"}
    assert named.axial_at("p", "q") == cp2.axial_at("1", "2")
    assert validate_axial(named).ok
    assert validate_connection(named, named.connection).ok


def test_star_forms_and_edge_access(cp2):
    star = cp2.star_forms("1")
    assert [q for q, _ in star] == list(cp2.neighbors("1"))
    assert cp2.axial_at("2", "1") == -cp2.axial_at("1", "2")
    assert cp2.form("1", "2").parallel_to(cp2.form("2", "1"))
    with pytest.raises(ValueError):
        cp2.axial_at("1", "1")


def test_subpair_restricts_axial(cp2):
    sub = subpair(cp2, ["1", "2"], [("1", "2")])
    assert sub.vertices == ("1", "2")
    assert sub.axial_at("1", "2") == cp2.axial_at("1", "2")
    assert sub.valence == 1


def test_subgraph_of_a_coordinate_subspace(cp2):
    comps = subgraph_gamma_h(cp2, [(0, 1)])
    assert len(comps) == 2
    first, lone = comps
    assert set(first.vertices) == {"1", "2"} and first.valence == 1
    assert lone.vertices == ("3",) and len(lone.edges) == 0


def test_subgraph_rejects_wrong_dimension(cp2):
    with pytest.raises(ValueError):
        subgraph_gamma_h(cp2, [(1, 0, 0)])


def test_totally_geodesic_detection(cp2):
    ok, induced = is_totally_geodesic(cp2, cp2.connection, ["1", "2"], [("1", "2")])
    assert ok and induced[("1", "2")] == {"2": "1"}
    bad, none = is_totally_geodesic(
        cp2, cp2.connection, ["1", "2", "3"], [("1", "2"), ("2", "3")]
    )
    assert not bad and none is None


def test_a_connection_that_is_not_a_mapping_is_a_format_error(cp2):
    with pytest.raises(GraphFormatError, match="^a connection must be a mapping over oriented edges$"):
        validate_connection(cp2, None)
    with pytest.raises(GraphFormatError, match="^a connection must be a mapping over oriented edges$"):
        is_totally_geodesic(cp2, None, ["1", "2"], [("1", "2")])
    listed = {**cp2.connection, ("1", "2"): ["2", "3"]}
    with pytest.raises(GraphFormatError, match="^connection along 1->2 must be a mapping$"):
        validate_connection(cp2, listed)


# --- star residues against the polynomial normal form ---------------------------


def _scaled_copy(pair, edge, q, both=True):
    """The pair with one edge's covector scaled by q (also the reverse when both)."""
    p, r = edge
    axial = dict(pair.axial)
    axial[(p, r)] = axial[(p, r)].scaled(q)
    if both:
        axial[(r, p)] = axial[(r, p)].scaled(q)
    return GkmPair(pair.n, pair.vertices, pair.edges, axial, pair.connection)


def test_json_round_trip_keeps_the_connection_of_a_one_sided_axial_value(cp2):
    # the reverse record shifts later positions in the 'edges' array
    pair = _scaled_copy(cp2, cp2.edges[0], Fraction(3, 2), both=False)
    assert len(pair.to_json()["edges"]) == len(pair.edges) + 1
    assert GkmPair.from_json(pair.to_json()) == pair


def _swapped_connection(pair, edge):
    """The pair's connection with two targets of one oriented edge's map swapped."""
    conn = {e: dict(m) for e, m in pair.connection.items()}
    m = conn[edge]
    a, b = sorted(m)[:2]
    m[a], m[b] = m[b], m[a]
    return conn


def _outcome(fn, *args):
    try:
        result = fn(*args)
    except (AmbiguousConnection, NoConnection, ValueError) as exc:
        return type(exc), str(exc)
    return result if isinstance(result, dict) else result.to_json()


def _axiom_outcomes(cases):
    out = []
    for name, pair, conns in cases:
        out.append((name, "axial", _outcome(validate_axial, pair)))
        out.append((name, "infer", _outcome(infer_connection, pair)))
        for conn in conns:
            out.append((name, "connection", _outcome(validate_connection, pair, conn)))
    return out


def test_axiom_checks_match_the_polynomial_normal_form(family, cp2, gamma4, cycle4, monkeypatch):
    seg = relabel(complete_graph([(0, 0), (1, 1)]), {"1": "a", "2": "b"})
    extra = [
        ("cycle4xseg", product(cycle4, seg)[0]),
        ("gamma4#1", blow_up(gamma4, "1")[0]),
        ("k4n3", complete_graph([(0, 0, 0), (1, 2, 0), ("1/2", 3, 1), (2, -1, "5/3")])),
    ]
    cases = []
    for name, pair in family + extra:
        conns = [pair.connection]
        if pair.valence >= 2:
            conns.append(_swapped_connection(pair, pair.oriented_edges()[0]))
        cases.append((name, pair, conns))
        edge = pair.edges[len(pair.edges) // 2]
        for q, both in ((Fraction(3, 2), True), (Fraction(-2, 5), True), (Fraction(7, 3), False)):
            cases.append((f"{name}*{q}{both}", _scaled_copy(pair, edge, q, both), conns))
    broken = [
        ("mismatch", _square_with_residue_mismatch(), []),
        ("cp2-corrupt", cp2, [{**cp2.connection, ("1", "2"): {"2": "3", "3": "1"}}]),
    ]
    shipped = _axiom_outcomes(cases + broken)
    calls = []

    def normal_form(cov, form):
        f = reduce_mod_line(Polynomial.from_covector(cov), form)
        return Covector([f.coefficient(tuple(int(t == i) for t in range(f.n))) for i in range(f.n)])

    def oracle(pair, p, form):
        calls.append(form)
        return {r: normal_form(pair.axial_at(p, r), form) for r in pair.neighbors(p)}

    monkeypatch.setattr(gkm_core, "_star_residues", oracle)
    assert _axiom_outcomes(cases + broken) == shipped
    assert calls
    # the comparison covers passing and failing checks and both exception types
    kinds = {o[0] if isinstance(o, tuple) else "ok" for _, _, o in shipped}
    assert {"ok", AmbiguousConnection, NoConnection} <= kinds
    flagged = {
        v["axiom"]
        for _, check, o in shipped
        if check != "infer" and isinstance(o, dict)
        for v in o["violations"]
    }
    assert {"1.16", "1.18", "1.32", "1.33", "1.34"} <= flagged


# --- residue matching against the augmenting-path matcher it replaced ---------


def _perfect_matching(adjacent: list[list[int]], nright: int) -> list[int] | None:
    """Deterministic augmenting-path matching; returns right-to-left map or None."""
    match_right = [-1] * nright

    def try_assign(i: int, seen: set[int]) -> bool:
        for j in adjacent[i]:
            if j in seen:
                continue
            seen.add(j)
            if match_right[j] == -1 or try_assign(match_right[j], seen):
                match_right[j] = i
                return True
        return False

    for i in range(len(adjacent)):
        if not try_assign(i, set()):
            return None
    return match_right


def _residues(reduce_covector_mod_line, pair, v, form):
    return [reduce_covector_mod_line(pair.axial_at(v, r), form) for r in pair.neighbors(v)]


def _matching_violations(reduce_covector_mod_line, pair):
    """The 1.18 violations as the matcher finds them, in edge order."""
    degs = pair.degrees()
    out = []
    for p, q in pair.edges:
        if degs[p] != degs[q]:
            continue
        form = pair.form(p, q)
        left, right = (_residues(reduce_covector_mod_line, pair, v, form) for v in (p, q))
        adjacent = [[j for j, w in enumerate(right) if w == v] for v in left]
        if _perfect_matching(adjacent, len(right)) is None:
            out.append({"axiom": "1.18", "witness": {"edge": [p, q]}})
    return out


def _repeated_residue_pairs(seed, count):
    """Small pairs with numerators in -2..2, so star residues often repeat.

    Each covector's coordinates share a denominator drawn from 1..3, so most
    pairs mix denominators and star residues are compared across them.
    """
    rng = random.Random(seed)
    shapes = [
        (["1", "2", "3", "4"], [("1", "2"), ("1", "3"), ("1", "4"), ("2", "3"), ("2", "4"), ("3", "4")]),
        (["1", "2", "3", "4"], [("1", "2"), ("2", "3"), ("3", "4"), ("4", "1")]),
        (["a", "b", "c", "x", "y", "z"], [(u, v) for u in "abc" for v in "xyz"]),
    ]
    out = []
    while len(out) < count:
        vertices, edges = rng.choice(shapes)
        n = rng.choice((2, 3))

        def cov():
            while True:
                den = rng.choice((1, 1, 2, 3))
                c = Covector([Fraction(rng.randint(-2, 2), den) for _ in range(n)])
                if not c.is_zero():
                    return c

        axial = {}
        for p, q in edges:
            axial[(p, q)] = cov()
            axial[(q, p)] = -axial[(p, q)] if rng.random() < 0.8 else cov()
        out.append(GkmPair(n, vertices, edges, axial))
    return out


def _k4_with_star_residues(a_toward_3, a_toward_4, b_toward_3, b_toward_4):
    """K4 in the plane with axial(1 -> 2) = x and the given stars at 1 and 2."""
    axial = {("1", "2"): (1, 0), ("3", "4"): (1, 1)}
    axial.update({("1", "3"): a_toward_3, ("1", "4"): a_toward_4})
    axial.update({("2", "3"): b_toward_3, ("2", "4"): b_toward_4})
    edges = [("1", "2"), ("1", "3"), ("1", "4"), ("2", "3"), ("2", "4"), ("3", "4")]
    return GkmPair(2, ["1", "2", "3", "4"], edges, axial)


def test_residue_multisets_agree_with_the_matching_oracle(reduce_covector_mod_line):
    # residues modulo x along 1-2: {0, 0, y} against {0, y, y}, then {0, y, y} on both sides
    unequal = _k4_with_star_residues((2, 0), (0, 1), (1, 1), (0, 1))
    equal = _k4_with_star_residues((2, 1), (0, 1), (1, 1), (0, 1))
    flagged = {False: 0, True: 0}
    for pair in [unequal, equal] + _repeated_residue_pairs(seed=18, count=300):
        report = validate_axial(pair).to_json()
        expected = [v for v in report["violations"] if v["axiom"] != "1.18"]
        expected += _matching_violations(reduce_covector_mod_line, pair)
        assert report["violations"] == expected
        for p, q in pair.edges:
            stars = [_residues(reduce_covector_mod_line, pair, v, pair.form(p, q)) for v in (p, q)]
            if any(len(set(star)) < len(star) for star in stars) and len(stars[0]) == len(stars[1]):
                flagged[{"axiom": "1.18", "witness": {"edge": [p, q]}} in expected] += 1
    violation = {"axiom": "1.18", "witness": {"edge": ["1", "2"]}}
    assert violation in _matching_violations(reduce_covector_mod_line, unequal)
    assert violation not in _matching_violations(reduce_covector_mod_line, equal)
    # edges with repeated residues occur both with and without a matching
    assert flagged[False] > 0 and flagged[True] > 0


def test_residue_reductions_are_shared_across_the_checks():
    pair = GkmPair.from_json(complete_graph([(t, t * t, t ** 3) for t in range(1, 6)]).to_json())
    built = []

    class Tables(dict):
        def __setitem__(self, key, table):
            built.append((key, table))
            super().__setitem__(key, table)

    pair._residue_cache = Tables()
    assert validate_axial(pair).ok
    assert validate_connection(pair, pair.connection).ok
    try:
        infer_connection(pair)
    except AmbiguousConnection:
        pass
    # one table per end of each edge, one residue per star covector: 2 |E| d
    assert len(built) == len({key for key, _ in built}) == 2 * len(pair.edges) == 20
    assert sum(len(table) for _, table in built) == 2 * len(pair.edges) * pair.valence == 80


def test_connection_errors_are_arithmetic_errors():
    with pytest.raises(ArithmeticError) as info:
        infer_connection(_square_with_residue_mismatch())
    assert isinstance(info.value, NoConnection)
    assert info.value.oriented_edge == ("1", "2") and info.value.at == "4"
    err = AmbiguousConnection(("1", "5"))
    assert isinstance(err, ArithmeticError) and err.oriented_edge == ("1", "5")


def _path_abc():
    """The path a - b - c in dimension 1: irregular, and (a, c) is not an edge."""
    return GkmPair(1, ["a", "b", "c"], [("a", "b"), ("b", "c")], {("a", "b"): [1], ("b", "c"): [2]})


@pytest.mark.parametrize("call, error, message", [
    (lambda cp2: GkmPair(1, ["a", "b", "c"], [("a", "b")], {("a", "b"): [1], ("a", "c"): [1]}),
     GraphFormatError, "axial value given for a non-edge ('a', 'c')"),
    (lambda cp2: subpair(_path_abc(), ["a", "c"], [("a", "c")]),
     ValueError, "('a', 'c') is not an edge of the pair"),
    (lambda cp2: subpair(cp2, ["1"], [("1", "2")]),
     ValueError, "subgraph edge ('1', '2') leaves the vertex set"),
    (lambda cp2: cp2.neighbors("9"), ValueError, "unknown vertex '9'"),
    (lambda cp2: _path_abc().valence, ValueError, "graph is not regular; valence undefined"),
    (lambda cp2: relabel(cp2, {"1": "2"}), ValueError, "relabeling must be injective"),
])
def test_graph_guards_raise_their_messages(cp2, call, error, message):
    with pytest.raises(error) as info:
        call(cp2)
    assert type(info.value) is error and str(info.value) == message
