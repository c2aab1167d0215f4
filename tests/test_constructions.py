"""The four builders and their structural invariants."""
from __future__ import annotations

import pytest

from gkmcalc import (
    blow_up,
    complete_graph,
    cycle_2valent,
    product,
    validate_axial,
    validate_connection,
)
from gkmcalc.gkm_core import relabel
from gkmcalc.polyalg import Covector


def test_complete_graph_structure(cp2):
    assert cp2.vertices == ("1", "2", "3")
    assert cp2.valence == 2
    assert cp2.axial_at("1", "2") == Covector((-1, 0))
    assert cp2.axial_at("1", "3") == Covector((0, -1))
    assert cp2.axial_at("2", "3") == Covector((1, -1))
    assert cp2.connection[("1", "2")] == {"2": "1", "3": "3"}
    assert validate_axial(cp2).ok
    assert validate_connection(cp2, cp2.connection).ok


def test_complete_graph_rejects_degenerate_points():
    with pytest.raises(ValueError):
        complete_graph([])
    with pytest.raises(ValueError):
        complete_graph([(0, 0), (0, 0)])
    with pytest.raises(ValueError, match="^differences at vertex 1 toward 2 and 3 are parallel$"):
        complete_graph([(0, 0), (1, 0), (2, 0)])  # collinear
    with pytest.raises(ValueError, match="^differences at vertex 1 toward 3 and 4 are parallel$"):
        complete_graph([(0, 0), (1, 0), (0, 1), (0, 2)])
    with pytest.raises(ValueError):
        complete_graph([(0, 0), (1,)])


def test_single_point_is_a_valid_pair():
    point = complete_graph([(0, 0)])
    assert point.vertices == ("1",) and len(point.edges) == 0


def test_product_structure(prod):
    assert prod.n == 2
    assert prod.valence == 3
    assert set(prod.vertices) == {f"{i}|{c}" for i in "123" for c in "ab"}
    # factor edges keep their axial values on every slice
    assert prod.axial_at("1|a", "2|a") == Covector((-1, 0))
    assert prod.axial_at("1|b", "2|b") == Covector((-1, 0))
    assert prod.axial_at("1|a", "1|b") == Covector((-1, -1))
    assert validate_axial(prod).ok
    assert validate_connection(prod, prod.connection).ok


def test_product_reports_parallel_star_failure():
    a = complete_graph([(0, 0), (1, 0)])
    b = relabel(complete_graph([(0, 0), (2, 0)]), {"1": "a", "2": "b"})
    pair, report = product(a, b)
    assert not report.ok
    assert "1.17" in {v.axiom for v in report.violations}


def test_product_requires_matching_ambient_dimension(cp2, k2):
    with pytest.raises(ValueError):
        product(cp2, relabel(k2, {"1": "a", "2": "b"}))


def test_product_of_quads_is_the_four_cycle(cycle4):
    kx = complete_graph([(0, 0), (1, 0)])
    ky = relabel(complete_graph([(0, 0), (0, 1)]), {"1": "a", "2": "b"})
    quad, report = product(kx, ky)
    assert report.ok
    image = relabel(cycle4, {"1": "2|b", "2": "1|b", "3": "1|a", "4": "2|a"})
    assert image == quad


def test_blow_up_structure(blowup, cp2):
    sharp, beta = blowup
    assert set(sharp.vertices) == {"2", "3", "1#1", "1#2"}
    assert beta == {"2": "2", "3": "3", "1#1": "1", "1#2": "1"}
    assert sharp.valence == cp2.valence
    # exceptional edge plus one leg toward each old neighbor
    assert frozenset(("1#1", "1#2")) in {frozenset(e) for e in sharp.edges}
    assert sharp.axial_at("1#1", "2") == cp2.axial_at("1", "2")
    assert sharp.axial_at("1#2", "3") == cp2.axial_at("1", "3")
    assert sharp.axial_at("1#1", "1#2") == cp2.axial_at("1", "3") - cp2.axial_at("1", "2")
    assert validate_axial(sharp).ok
    assert validate_connection(sharp, sharp.connection).ok


def test_blow_up_rejects_bad_input(cp2):
    with pytest.raises(ValueError):
        blow_up(cp2, "9")
    # a collinear star: differences of its axial values turn parallel
    from gkmcalc import GkmPair

    star = GkmPair(
        2,
        ["a", "b", "c", "d"],
        [("a", "b"), ("a", "c"), ("a", "d")],
        {("a", "b"): (0, 1), ("a", "c"): (1, 0), ("a", "d"): (2, -1)},
    )
    message = "^blow-up at 'a': differences toward 'c' and 'd' relative to 'b' are parallel$"
    with pytest.raises(ValueError, match=message):
        blow_up(star, "a")


@pytest.mark.parametrize("name, p0", [("cp2", "1"), ("gamma4", "2"), ("k5n3", "3")])
def test_the_exceptional_vertices_carry_the_complete_graph(request, name, p0):
    # p0's place goes to the complete graph on the negated star values
    pair = request.getfixturevalue(name)
    sharp, _ = blow_up(pair, p0)
    qs = sorted(pair.neighbors(p0))
    ps = [f"{p0}#{i + 1}" for i in range(len(qs))]
    expected = relabel(
        complete_graph([-pair.axial_at(p0, q) for q in qs]),
        {str(i + 1): p for i, p in enumerate(ps)},
    )
    inside = set(ps)
    assert {frozenset(e) for e in sharp.edges if set(e) <= inside} == {
        frozenset(e) for e in expected.edges
    }
    for p, q in expected.oriented_edges():
        assert sharp.axial_at(p, q) == expected.axial_at(p, q)
        m = sharp.connection[(p, q)]
        assert {r: s for r, s in m.items() if r in inside} == expected.connection[(p, q)]
        # the one other neighbor, the joining edge's end, goes to the joining edge's end
        assert {r: s for r, s in m.items() if r not in inside} == {
            qs[ps.index(p)]: qs[ps.index(q)]
        }


def test_cycle_structure(cycle4):
    assert cycle4.vertices == ("1", "2", "3", "4")
    assert cycle4.valence == 2
    assert cycle4.axial_at("1", "2") == Covector((1, 0))
    assert cycle4.axial_at("2", "3") == Covector((0, 1))
    assert cycle4.axial_at("3", "4") == Covector((-1, 0))
    assert cycle4.axial_at("4", "1") == Covector((0, -1))
    assert validate_axial(cycle4).ok
    assert validate_connection(cycle4, cycle4.connection).ok


def test_longer_cycles_validate():
    pair = cycle_2valent(8, (1, 0), (1, 1))
    assert len(pair.vertices) == 8
    assert validate_axial(pair).ok
    assert validate_connection(pair, pair.connection).ok


@pytest.mark.parametrize("N", [0, 3, 6, -4])
def test_cycle_length_must_be_a_multiple_of_four(N):
    with pytest.raises(ValueError):
        cycle_2valent(N, (1, 0), (0, 1))


def test_cycle_rejects_degenerate_axial():
    with pytest.raises(ValueError):
        cycle_2valent(4, (1, 0), (2, 0))
    with pytest.raises(ValueError):
        cycle_2valent(4, (1,), (2,))
    with pytest.raises(ValueError):
        cycle_2valent(4, (1, 0), (0, 1, 0))
