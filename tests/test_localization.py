"""Pushforward, cuts, the Kirwan map, and level sweeps."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from gkmcalc import (
    InputError,
    IntegrityError,
    LevelCut,
    NonPolynomialResultError,
    Polynomial,
    Vector,
    chern_class,
    coh_basis,
    complete_graph,
    full_sweep,
    integrate,
    jk_pushforward,
    residue,
)
from gkmcalc import localization, polyalg
from gkmcalc.cohomology import CohClass, constant_class, thom_class_vertex
from gkmcalc.gkm_core import GkmPair
from gkmcalc.localization import (
    cross_section,
    kirwan_map,
    pushforward_localized_sum,
    wall_crossing_step,
)
from gkmcalc.morse_betti import betti, find_acyclic_xi, orient, positively_oriented_function
from gkmcalc.polyalg import Covector, LinearForm


def test_pushforward_of_one_vanishes_on_every_fixture(family):
    for name, pair in family:
        out = integrate(pair, constant_class(pair, 1))
        assert out.is_zero(), name


def test_euler_class_integrates_to_the_vertex_count(family):
    for name, pair in family:
        if pair.valence < 1:
            continue
        euler = chern_class(pair, pair.valence)
        out = integrate(pair, euler)
        assert out == Polynomial.constant(pair.n, len(pair.vertices)), name


def test_degree_law_on_cp2(cp2):
    c1 = chern_class(cp2, 1)
    c2 = chern_class(cp2, 2)
    assert integrate(cp2, c1).is_zero()  # degree would be negative
    assert integrate(cp2, c1 * c2).is_zero()  # sum of the c1 values is zero
    out = integrate(cp2, c1 * c1 * c2)
    assert out == Polynomial(2, {(2, 0): 6, (1, 1): -6, (0, 2): 6})
    assert out.homogeneous_degree() == 4 - 2


def test_pushforward_matches_pointwise_evaluation(cp2):
    c2 = chern_class(cp2, 2)
    f = c2 * c2
    lsum = pushforward_localized_sum(cp2, f)
    out = integrate(cp2, f)
    for pt in ((Fraction(1), Fraction(3)), (Fraction(-2), Fraction(5, 7))):
        assert out.evaluate(pt) == lsum.evaluate(pt)


def test_non_class_input_fails_loudly(cp2):
    fake = CohClass(
        1,
        {
            "1": Polynomial(2, {(1, 0): 1}),
            "2": Polynomial.zero(2),
            "3": Polynomial.zero(2),
        },
    )
    with pytest.raises(NonPolynomialResultError):
        integrate(cp2, fake)
    xi = Vector((1, 2))
    cut = LevelCut(xi, positively_oriented_function(cp2, xi), Fraction(-1, 2))
    with pytest.raises(IntegrityError, match="end values project differently"):
        kirwan_map(cp2, cut, fake)
    with pytest.raises(IntegrityError, match="end values project differently"):
        jk_pushforward(cp2, cut, fake)


def test_non_polynomial_results_carry_their_message_and_fraction(cp2, gamma5):
    fake = CohClass(
        1, {"1": Polynomial(2, {(1, 0): 1}), "2": Polynomial.zero(2), "3": Polynomial.zero(2)}
    )
    with pytest.raises(NonPolynomialResultError) as err:
        integrate(cp2, fake)
    assert str(err.value) == "pushforward did not simplify to a polynomial"
    assert err.value.numerator == Polynomial.constant(2, 1)
    assert err.value.denominators == (LinearForm(Covector((0, 1))),)
    # The two vertices above the cut disagree modulo their edge; each one
    # below agrees with both along its crossing edges, so the restriction
    # check passes and the cross-section sum keeps a denominator.
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    fake = CohClass(1, {
        "5": x, "4": Polynomial.zero(2), "3": 8 * x + 56 * y, "2": 7 * x + 42 * y,
        "1": 6 * x + 30 * y,
    })
    xi = Vector((1, Fraction(-4, 3)))
    cut = LevelCut(xi, positively_oriented_function(gamma5, xi), Fraction(-3, 2))
    assert {p for p, _ in kirwan_map(gamma5, cut, fake)} == {"4", "5"}
    with pytest.raises(NonPolynomialResultError) as err:
        jk_pushforward(gamma5, cut, fake)
    assert str(err.value) == "cross-section pushforward did not simplify to a polynomial"
    assert err.value.numerator == Polynomial.constant(2, Fraction(-99, 16))
    assert err.value.denominators == (LinearForm(Covector((4, 3))),) * 2


def test_level_cut_validation(cp2):
    xi = Vector((1, 2))
    phi = positively_oriented_function(cp2, xi)
    LevelCut(xi, phi, Fraction(-1, 2)).validate(cp2)
    with pytest.raises(ValueError):
        LevelCut(xi, phi, phi["2"]).validate(cp2)  # sits on a vertex level
    with pytest.raises(ValueError):
        LevelCut(Vector((1, 2, 3)), phi, Fraction(1, 2)).validate(cp2)
    with pytest.raises(ValueError):
        LevelCut(xi, {**phi, "2": phi["1"]}, Fraction(1, 2)).validate(cp2)
    backwards = {p: -v for p, v in phi.items()}
    with pytest.raises(ValueError):
        LevelCut(xi, backwards, Fraction(1, 2)).validate(cp2)


def test_a_string_is_refused_where_coordinates_are_expected(cp2):
    """The string "12" is not read as the coordinates (1, 2), wherever a direction enters."""
    phi = positively_oriented_function(cp2, Vector((1, 2)))
    for call in (lambda: Covector("12"), lambda: Vector("12"), lambda: betti(cp2, "12"),
                 lambda: orient(cp2, "12"), lambda: LevelCut("12", phi, Fraction(1, 2))):
        with pytest.raises(InputError, match="not the string '12'"):
            call()


def test_a_lower_end_pairing_that_is_not_positive_is_an_integrity_error():
    """The two axial values of the edge are not opposite, so the cut validates
    while the lower end pairs negatively with xi: the check is reachable."""
    pair = GkmPair(1, ["a", "b"], [("a", "b")], {("a", "b"): [-1], ("b", "a"): [-1]})
    cut = LevelCut([1], {"a": 0, "b": 1}, Fraction(1, 2))
    with pytest.raises(IntegrityError) as err:
        jk_pushforward(pair, cut, constant_class(pair, 1))
    assert str(err.value) == "edge ('b', 'a'): lower-end pairing not positive"


def test_a_cut_whose_xi_lies_on_a_wall_is_refused(cp2):
    """(1, 1) pairs to zero with the form of edge (2, 3); phi is injective and c off its levels."""
    cut = LevelCut([1, 1], {"1": 2, "2": 1, "3": 0}, Fraction(1, 2))
    with pytest.raises(ValueError) as err:
        jk_pushforward(cp2, cut, constant_class(cp2, 1))
    assert str(err.value) == "xi lies on the wall of edge ('2', '3')"


def test_cross_section_picks_the_crossing_edges(cp2):
    xi = Vector((1, 2))
    phi = positively_oriented_function(cp2, xi)  # levels 0, -1, -2
    cut = LevelCut(xi, phi, Fraction(-1, 2))
    edges = cross_section(cp2, cut)
    assert set(edges) == {("1", "2"), ("1", "3")}
    low = LevelCut(xi, phi, Fraction(-3))
    assert cross_section(cp2, low) == []


def test_kirwan_map_lands_in_the_annihilator(cp2):
    xi = Vector((1, 2))
    phi = positively_oriented_function(cp2, xi)
    cut = LevelCut(xi, phi, Fraction(-1, 2))
    c2 = chern_class(cp2, 2)
    image = kirwan_map(cp2, cut, c2)
    assert set(image) == {("1", "2"), ("1", "3")}
    for value in image.values():
        assert value.evaluate(tuple(xi)) == value.coefficient((0, 0))


def test_jk_pushforward_equals_the_residue_sum(cp2):
    xi = Vector((1, 2))
    phi = positively_oriented_function(cp2, xi)
    f = chern_class(cp2, 2)
    cut = LevelCut(xi, phi, Fraction(-1, 2))
    result = jk_pushforward(cp2, cut, f)
    assert result.degree == f.degree - cp2.valence + 1
    total = Polynomial.zero(2)
    for p in cp2.vertices:
        if phi[p] < cut.c:
            alphas = [cp2.axial_at(p, q) for q in cp2.neighbors(p)]
            total = total + residue(f.value(p), alphas, xi)
    assert result.polynomial == total
    assert set(result.per_vertex_residues) == {"2", "3"}


def test_wall_crossing_step_matches_the_residue(cp2):
    xi = Vector((1, 2))
    phi = positively_oriented_function(cp2, xi)
    f = chern_class(cp2, 2)
    hi = LevelCut(xi, phi, Fraction(-1, 2))
    lo = LevelCut(xi, phi, Fraction(-3, 2))
    diff = wall_crossing_step(cp2, hi, lo, f)
    alphas = [cp2.axial_at("2", q) for q in cp2.neighbors("2")]
    assert diff == residue(f.value("2"), alphas, xi)
    with pytest.raises(ValueError):
        wall_crossing_step(cp2, lo, hi, f)
    far = LevelCut(xi, phi, Fraction(1, 2))
    with pytest.raises(ValueError):
        wall_crossing_step(cp2, far, lo, f)  # two vertices between


def test_full_sweep_frozen_levels(cp2):
    out = full_sweep(cp2, Vector((1, 2)), constant_class(cp2, 1))
    assert out["levels"] == [Fraction(-3), Fraction(-3, 2), Fraction(-1, 2), Fraction(1)]
    assert out["stepsOk"] and out["topIsZero"]
    assert all(p.is_zero() for p in out["pushforwards"])


def test_full_sweep_telescopes_on_every_fixture(family):
    for name, pair in family:
        if pair.valence < 1:
            continue
        xi = find_acyclic_xi(pair)
        f = chern_class(pair, 1)
        out = full_sweep(pair, xi, f)
        assert out["stepsOk"] and out["topIsZero"], name
        running = Polynomial.zero(pair.n)
        seen = [out["pushforwards"][0]]
        order = sorted(pair.vertices, key=lambda p: positively_oriented_function(pair, xi)[p])
        for p in order:
            running = running + out["perVertexResidues"][p]
            seen.append(running)
        assert seen == out["pushforwards"], name


def test_sweep_of_a_thom_class_is_silent(cp2):
    # tau restricts to a polynomial times the full star product at every
    # vertex, so each residue vanishes and the sweep never moves, even
    # though the ordinary pushforward of tau is the constant 1
    xi = Vector((1, 2))
    tau = thom_class_vertex(cp2, "2")
    out = full_sweep(cp2, xi, tau)
    assert all(r.is_zero() for r in out["perVertexResidues"].values())
    assert all(p.is_zero() for p in out["pushforwards"])
    assert integrate(cp2, tau) == Polynomial.constant(2, 1)


def test_thom_classes_integrate_to_one(family):
    for name, pair in family:
        if pair.valence < 1:
            continue
        for p in pair.vertices:
            out = integrate(pair, thom_class_vertex(pair, p))
            assert out == Polynomial.constant(pair.n, 1), (name, p)


# --- one Kirwan term per edge per sweep ---------------------------------------


def _count_projections(monkeypatch):
    calls = []
    real = localization._project

    def counted(f, taylor, form, xi):
        calls.append(1)
        return real(f, taylor, form, xi)

    monkeypatch.setattr(localization, "_project", counted)
    return calls


def test_full_sweep_projects_each_edge_once(family, monkeypatch):
    k7 = complete_graph([(t, t * t) for t in range(1, 8)])
    k6 = complete_graph([(t, t * t, t**3) for t in range(1, 7)])
    calls = _count_projections(monkeypatch)
    for name, pair in family + [("k7n2", k7), ("k6n3", k6)]:
        calls.clear()
        full_sweep(pair, find_acyclic_xi(pair), chern_class(pair, 1))
        assert len(calls) == 2 * len(pair.edges), name


def test_wall_crossing_step_projects_each_edge_once(gamma5, monkeypatch):
    xi = find_acyclic_xi(gamma5)
    phi = positively_oriented_function(gamma5, xi)
    levels = sorted(phi.values())
    hi = LevelCut(xi, phi, (levels[2] + levels[3]) / 2)
    lo = LevelCut(xi, phi, (levels[1] + levels[2]) / 2)
    edges = set(cross_section(gamma5, hi)) | set(cross_section(gamma5, lo))
    calls = _count_projections(monkeypatch)
    wall_crossing_step(gamma5, hi, lo, chern_class(gamma5, 2))
    assert len(calls) == 2 * len(edges)



# --- one cut routine for every level pushforward ------------------------------


def test_jk_pushforward_reproduces_every_sweep_level(family, gr24, gr25):
    for name, pair in family + [("gr24", gr24), ("gr25", gr25)]:
        xi = find_acyclic_xi(pair)
        phi = positively_oriented_function(pair, xi)
        f = chern_class(pair, 1) ** (pair.valence + 1)
        out = full_sweep(pair, xi, f)
        # in n = 1 a level pushforward of positive degree is 0
        assert pair.n == 1 or any(not p.is_zero() for p in out["pushforwards"]), name
        for c, value in zip(out["levels"], out["pushforwards"]):
            result = jk_pushforward(pair, LevelCut(xi, phi, c), f)
            assert result.polynomial == value, (name, c)
            below = {p: r for p, r in out["perVertexResidues"].items() if phi[p] < c}
            assert result.per_vertex_residues == below, (name, c)
        assert list(out["perVertexResidues"]) == list(pair.vertices), name


def test_each_public_cut_call_validates_its_cuts_once(k5n3, monkeypatch):
    calls = []
    real = LevelCut.validate

    def counted(self, pair):
        calls.append(self.c)
        return real(self, pair)

    monkeypatch.setattr(LevelCut, "validate", counted)
    xi = find_acyclic_xi(k5n3)
    f = chern_class(k5n3, 3)
    full_sweep(k5n3, xi, f)
    assert calls == []  # positively_oriented_function has checked (xi, phi)
    phi = positively_oriented_function(k5n3, xi)
    levels = sorted(phi.values())
    hi = LevelCut(xi, phi, (levels[2] + levels[3]) / 2)
    lo = LevelCut(xi, phi, (levels[1] + levels[2]) / 2)
    jk_pushforward(k5n3, hi, f)
    assert calls == [hi.c]
    calls.clear()
    wall_crossing_step(k5n3, hi, lo, f)
    assert calls == [hi.c, lo.c]


def test_wall_crossing_step_validates_before_reading_levels(cp2):
    xi = Vector((1, 2))
    phi = positively_oriented_function(cp2, xi)
    del phi["3"]
    hi = LevelCut(xi, phi, Fraction(-1, 2))
    lo = LevelCut(xi, phi, Fraction(-3, 2))
    with pytest.raises(ValueError, match="phi must assign a level to every vertex"):
        wall_crossing_step(cp2, hi, lo, chern_class(cp2, 2))


@pytest.mark.parametrize("m", [1, 3])
def test_a_class_from_another_ring_is_an_input_error(cp2, m):
    f = CohClass(0, {v: Polynomial.constant(m, 1) for v in cp2.vertices})
    xi = Vector((1, 2))
    phi = positively_oriented_function(cp2, xi)
    hi, lo = LevelCut(xi, phi, Fraction(-1, 2)), LevelCut(xi, phi, Fraction(-3, 2))
    calls = [
        lambda: integrate(cp2, f),
        lambda: kirwan_map(cp2, hi, f),
        lambda: jk_pushforward(cp2, hi, f),
        lambda: wall_crossing_step(cp2, hi, lo, f),
        lambda: full_sweep(cp2, xi, f),
    ]
    for call in calls:
        with pytest.raises(InputError, match="value at '1' is not a polynomial in the ambient ring"):
            call()


@pytest.mark.parametrize("drop, extra", [("3", None), (None, "4")])
def test_a_class_on_another_vertex_set_is_an_input_error(cp2, drop, extra):
    values = {v: Polynomial.constant(2, 1) for v in cp2.vertices if v != drop}
    if extra:
        values[extra] = Polynomial.constant(2, 1)
    f = CohClass(0, values)
    xi = Vector((1, 2))
    phi = positively_oriented_function(cp2, xi)
    hi, lo = LevelCut(xi, phi, Fraction(-1, 2)), LevelCut(xi, phi, Fraction(-3, 2))
    message = "class has no value at vertex '3'" if drop else "class has a value at '4'"
    calls = [
        lambda: integrate(cp2, f),
        lambda: kirwan_map(cp2, hi, f),
        lambda: jk_pushforward(cp2, hi, f),
        lambda: wall_crossing_step(cp2, hi, lo, f),
        lambda: full_sweep(cp2, xi, f),
    ]
    for call in calls:
        with pytest.raises(InputError, match=message):
            call()


# --- level cuts as prefixes of one vertex order --------------------------------


def _sweep_levels(phi):
    """One level below all vertices, one between each adjacent pair, one above all."""
    heights = sorted(phi.values())
    return ([heights[0] - 1] + [(a + b) / 2 for a, b in zip(heights, heights[1:])]
            + [heights[-1] + 1])


@pytest.mark.parametrize("name", ["gamma5", "k5n3", "blowup"])
def test_cut_pushforwards_do_not_depend_on_the_order_of_the_levels(name, request):
    pair = request.getfixturevalue(name)
    pair = pair[0] if name == "blowup" else pair
    xi = find_acyclic_xi(pair)
    phi = positively_oriented_function(pair, xi)
    f = chern_class(pair, 1) ** (pair.valence + 1)
    ascending = _sweep_levels(phi)
    want = dict(zip(ascending, localization._cut_pushforwards(pair, xi, phi, f, ascending)[0]))
    assert any(not r.polynomial.is_zero() for r in want.values()), name
    shuffled = list(ascending)
    random.Random(22).shuffle(shuffled)
    for levels in (shuffled, ascending[::-1]):
        results, _ = localization._cut_pushforwards(pair, xi, phi, f, levels)
        for c, result in zip(levels, results):
            assert result == want[c], (name, c)
            below = [p for p in pair.vertices if phi[p] < c]
            assert list(result.per_vertex_residues) == below, (name, c)


def test_cross_section_is_the_edges_leaving_the_prefix(family):
    for name, pair in family:
        xi = find_acyclic_xi(pair)
        phi = positively_oriented_function(pair, xi)
        order = sorted(pair.vertices, key=phi.__getitem__)
        for i, c in enumerate(_sweep_levels(phi)):
            prefix = set(order[:i])
            leaving = [(q, p) if p in prefix else (p, q)
                       for p, q in pair.edges if (p in prefix) != (q in prefix)]
            assert cross_section(pair, LevelCut(xi, phi, c)) == leaving, (name, c)


# --- one Taylor expansion per vertex value --------------------------------------


def test_full_sweep_expands_each_vertex_value_once(monkeypatch):
    k5 = complete_graph([(t, t * t) for t in range(1, 6)])
    f = chern_class(k5, 1) ** 4
    owner = {id(f.value(p)._terms): p for p in k5.vertices}
    assert len(owner) == len(k5.vertices)
    expanded = []
    real = polyalg._taylor

    def counted(terms, n, xi_num):
        if id(terms) in owner:
            expanded.append(owner[id(terms)])
        return real(terms, n, xi_num)

    monkeypatch.setattr(polyalg, "_taylor", counted)
    out = full_sweep(k5, find_acyclic_xi(k5), f)
    assert sorted(expanded) == sorted(k5.vertices)
    assert any(not r.is_zero() for r in out["perVertexResidues"].values())


def test_wall_crossing_step_refuses_cuts_with_different_levels(cp2):
    xi = Vector((1, 2))
    phi = positively_oriented_function(cp2, xi)
    doubled = {p: 2 * v for p, v in phi.items()}
    hi = LevelCut(xi, phi, Fraction(-1, 2))
    lo = LevelCut(xi, doubled, Fraction(-3, 2))
    with pytest.raises(ValueError) as info:
        wall_crossing_step(cp2, hi, lo, constant_class(cp2, 1))
    assert type(info.value) is ValueError and str(info.value) == "cuts must share xi and phi"
