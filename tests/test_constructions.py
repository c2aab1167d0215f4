"""The four builders and their structural invariants."""
from __future__ import annotations

import re

import pytest
from hypothesis import assume, given, seed, settings, strategies as st

from gkmcalc import (
    GkmPair,
    blow_up,
    complete_graph,
    cycle_2valent,
    product,
    validate_axial,
    validate_connection,
)
from gkmcalc.gkm_core import relabel
from gkmcalc.polyalg import Covector, InputError, LinearForm, parallel_pairs


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


def _complete_graph_oracle(cov):
    """complete_graph's own point checks, frozen from before the shared point check."""
    N = len(cov)
    for i in range(N):
        for j in range(N):
            if j != i and cov[i] == cov[j]:
                raise InputError(f"points {i + 1} and {j + 1} coincide")
    for i in range(N):
        others = [j for j in range(N) if j != i]
        for a, b in parallel_pairs([LinearForm(cov[i] - cov[j]) for j in others]):
            raise ValueError(
                f"differences at vertex {i + 1} toward {others[a] + 1} "
                f"and {others[b] + 1} are parallel"
            )


def _blow_up_oracle(pair, p0):
    """blow_up's own star checks, frozen from before the shared point check."""
    qs = sorted(pair.neighbors(p0))
    d = len(qs)
    alphas = [pair.axial[(p0, q)] for q in qs]
    for i in range(d):
        for j in range(d):
            if j != i and alphas[i] == alphas[j]:
                raise ValueError(f"axial values toward {qs[i]!r} and {qs[j]!r} coincide")
    for i in range(d):
        others = [j for j in range(d) if j != i]
        for a, b in parallel_pairs([LinearForm(alphas[j] - alphas[i]) for j in others]):
            raise ValueError(
                f"blow-up at {p0!r}: differences toward {qs[others[a]]!r} "
                f"and {qs[others[b]]!r} relative to {qs[i]!r} are parallel"
            )


def _raised(build):
    """The class and text of the ValueError build() raises, or None."""
    try:
        build()
    except ValueError as err:
        return type(err), str(err)
    return None


def _star(values):
    """A star at 'a' with the axial value values[q] toward each named neighbor q."""
    return GkmPair(2, ["a", *values], [("a", q) for q in values],
                   {("a", q): c for q, c in values.items()})


def test_complete_graph_coincidence_message_and_class():
    with pytest.raises(InputError) as got:
        complete_graph([(0, 0), (1, 0), (1, 0)])
    assert type(got.value) is InputError and str(got.value) == "points 2 and 3 coincide"


def test_blow_up_coincidence_is_a_plain_value_error():
    with pytest.raises(ValueError) as got:
        blow_up(_star({"b": (1, 0), "c": (1, 0), "d": (0, 1)}), "a")
    assert type(got.value) is ValueError
    assert str(got.value) == "axial values toward 'b' and 'c' coincide"


def test_a_coincidence_is_reported_before_a_parallel_pair():
    # vertex 1 sees 2 and 3 on one line, and points 3 and 4 coincide
    with pytest.raises(InputError, match="^points 3 and 4 coincide$"):
        complete_graph([(0, 0), (1, 0), (2, 0), (2, 0)])
    # the star differences relative to 'b' are parallel, and 'd' and 'e' coincide
    star = _star({"b": (0, 1), "c": (1, 0), "d": (2, -1), "e": (2, -1)})
    with pytest.raises(ValueError, match="^axial values toward 'd' and 'e' coincide$"):
        blow_up(star, "a")


# small coordinates, so repeated points and collinear triples are common
point2 = st.tuples(st.integers(-2, 2), st.integers(-2, 2))


@seed(20261019)
@settings(max_examples=300, deadline=None)
@given(st.lists(point2, min_size=1, max_size=5))
def test_complete_graph_raises_what_its_old_checks_raised(points):
    want = _raised(lambda: _complete_graph_oracle([Covector(p) for p in points]))
    assert _raised(lambda: complete_graph(points)) == want


@seed(20261019)
@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from("bcdefg"), point2.filter(any), min_size=1, max_size=5))
def test_blow_up_raises_what_its_old_checks_raised(values):
    star = _star(values)
    want = _raised(lambda: _blow_up_oracle(star, "a"))
    assert _raised(lambda: blow_up(star, "a")) == want


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


@pytest.mark.parametrize("N", ["8", 8.0, None, True])
def test_cycle_length_must_be_an_int(N):
    with pytest.raises(InputError, match=f"cycle length must be an int, not {re.escape(repr(N))}$"):
        cycle_2valent(N, (1, 0), (0, 1))


def test_cycle_rejects_degenerate_axial():
    with pytest.raises(ValueError):
        cycle_2valent(4, (1, 0), (2, 0))
    with pytest.raises(ValueError):
        cycle_2valent(4, (1,), (2,))
    with pytest.raises(ValueError):
        cycle_2valent(4, (1, 0), (0, 1, 0))


def _minors(u, v):
    """The 2x2 minors u_r v_s - u_s v_r, r < s, of two coordinate tuples."""
    return [u[r] * v[s] - u[s] * v[r] for r in range(len(u)) for s in range(r + 1, len(u))]


@seed(20261019)
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_consecutive_cycle_values_share_one_wedge(data):
    # the pattern a1, a2, -a1, -a2 has the wedge a2 ^ a1 at every step, wraparound included
    n = data.draw(st.integers(2, 4))
    coords = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    a1, a2 = data.draw(coords), data.draw(coords)
    wedge = _minors(a2, a1)
    assume(any(wedge))  # independent
    N = data.draw(st.sampled_from((4, 8, 12)))
    pair = cycle_2valent(N, a1, a2)
    steps = [pair.axial_at(str(i + 1), str((i + 1) % N + 1)) for i in range(N)]
    for i in range(N):
        assert _minors(steps[(i + 1) % N].coords, steps[i].coords) == wedge
    assert validate_axial(pair).ok


def test_an_isolated_vertex_cannot_be_blown_up():
    with pytest.raises(ValueError) as info:
        blow_up(GkmPair(1, ["a"], [], {}), "a")
    assert type(info.value) is ValueError and str(info.value) == "cannot blow up an isolated vertex"
