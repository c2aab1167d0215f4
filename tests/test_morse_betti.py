"""Orientations, Betti histograms, chambers, ideals, and the equality tables."""
from __future__ import annotations

import itertools
import json
import random
from collections.abc import Sequence
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

from gkmcalc import (
    GkmPair,
    blow_up,
    complete_graph,
    Vector,
    betti,
    betti_equality_report,
    betti_invariance_check,
    coh_basis,
    ideal_hilbert,
    l_independent,
    morse_inequalities,
    orient,
    positively_oriented_function,
)
from gkmcalc.cohomology import coh_dim, compatibility_rows
from gkmcalc.morse_betti import (
    _axial_classes,
    _chamber_search,
    _chambers,
    _feasible,
    class_dims,
    find_acyclic_xi,
    is_acyclic,
    wall_crossing_check,
)
from gkmcalc import cli, linalg, morse_betti
from gkmcalc.polyalg import Covector, InputError, Polynomial, graded_dim, monomials, pair as pairing


def _cyclic_triangle():
    # every vertex star is parallel, and the x-positive orientation is a loop
    return GkmPair(
        1,
        ["1", "2", "3"],
        [("1", "2"), ("2", "3"), ("3", "1")],
        {("1", "2"): (1,), ("2", "3"): (1,), ("3", "1"): (1,)},
    )


def test_orientation_on_cp2(cp2):
    o = orient(cp2, Vector((1, 2)))
    assert o.sigma == {"1": 2, "2": 1, "3": 0}
    assert set(o.edges) == {("2", "1"), ("3", "1"), ("3", "2")}
    assert o.vertices == cp2.vertices


def test_orientation_rejects_walls(cp2):
    with pytest.raises(ValueError):
        orient(cp2, Vector((1, 0)))  # kills the edge form y
    with pytest.raises(ValueError):
        orient(cp2, Vector((0, 0)))


def test_sigma_flips_under_negation(family):
    for name, pair in family:
        if pair.valence < 1:
            continue
        xi = find_acyclic_xi(pair)
        fwd = orient(pair, xi).sigma
        bwd = orient(pair, Vector(tuple(-c for c in xi))).sigma
        d = pair.valence
        assert all(bwd[p] == d - fwd[p] for p in pair.vertices), name


def test_acyclicity_and_its_witness():
    tri = _cyclic_triangle()
    o = orient(tri, Vector((1,)))
    ok, witness = is_acyclic(o)
    assert not ok
    assert witness is not None and len(witness) >= 3
    # the witness walks actual directed edges
    directed = set(o.edges)
    for a, b in zip(witness, witness[1:] + witness[:1]):
        assert (a, b) in directed
    with pytest.raises(ValueError):
        positively_oriented_function(tri, Vector((1,)))


def test_levels_on_cp2(cp2):
    phi = positively_oriented_function(cp2, Vector((1, 2)))
    assert phi == {"1": Fraction(0), "2": Fraction(-1), "3": Fraction(-2)}


def test_levels_split_ties_on_the_cycle(cycle4):
    phi = positively_oriented_function(cycle4, Vector((1, 2)))
    assert phi == {
        "1": Fraction(-2),
        "2": Fraction(-5, 6),
        "3": Fraction(0),
        "4": Fraction(-2, 3),
    }


def test_levels_increase_along_directed_edges(family):
    for name, pair in family:
        if pair.valence < 1:
            continue
        xi = find_acyclic_xi(pair)
        phi = positively_oriented_function(pair, xi)
        assert len(set(phi.values())) == len(phi), name
        for lo, hi in orient(pair, xi).edges:
            assert phi[lo] < phi[hi], name


@pytest.mark.parametrize(
    "fixture,expected",
    [
        ("k2", [1, 1]),
        ("cp2", [1, 1, 1]),
        ("gamma4", [1, 1, 1, 1]),
        ("gamma5", [1, 1, 1, 1, 1]),
        ("cycle4", [1, 2, 1]),
        ("prod", [1, 2, 2, 1]),
    ],
)
def test_frozen_betti(request, fixture, expected):
    pair = request.getfixturevalue(fixture)
    assert betti(pair, find_acyclic_xi(pair)) == expected


def test_blowup_betti(blowup):
    sharp, _ = blowup
    assert betti(sharp, find_acyclic_xi(sharp)) == [1, 2, 1]


def test_poincare_duality_of_the_histogram(family):
    for name, pair in family:
        if pair.valence < 1:
            continue
        b = betti(pair, find_acyclic_xi(pair))
        assert b == b[::-1], name


@pytest.mark.parametrize(
    "fixture,chambers",
    [
        ("k2", 2),
        ("cp2", 6),
        ("gamma4", 24),
        ("gamma5", 14),
        ("cycle4", 4),
        ("prod", 8),
    ],
)
def test_chamber_counts_and_invariance(request, fixture, chambers):
    pair = request.getfixturevalue(fixture)
    out = betti_invariance_check(pair)
    assert out["invariant"]
    assert out["method"] == "exhaustive"
    assert out["chambers_found"] == chambers
    assert out["betti"] == betti(pair, find_acyclic_xi(pair))


def test_chamber_count_matches_random_sampling(gamma4):
    # independent estimate: sign vectors of many random directions
    rng = random.Random(1)
    classes = _axial_classes(gamma4)
    seen = set()
    for _ in range(4000):
        v = tuple(Fraction(rng.randint(-60, 60), rng.randint(1, 9)) for _ in range(3))
        signs = tuple(
            1 if f.evaluate(Vector(v)) > 0 else (-1 if f.evaluate(Vector(v)) < 0 else 0)
            for f in classes
        )
        if 0 not in signs:
            seen.add(signs)
    assert len(seen) == 24


def _all_sign_vectors(classes, n):
    """Reference oracle: try all 2^m sign vectors, each with one feasibility check."""
    found = []
    for signs in itertools.product((1, -1), repeat=len(classes)):
        rows = [tuple(s * c for c in cls.canonical) for s, cls in zip(signs, classes)]
        w = _feasible(rows, n)
        if w is None:
            continue
        for row in rows:
            assert sum(c * x for c, x in zip(row, w)) > 0
        found.append((signs, w))
    found.sort(key=lambda sw: sw[0])
    return found


def _whitney_count(classes, n):
    """Chambers of a central arrangement: sum over subsets S of (-1)^(|S| - rank S)."""
    normals = [list(cls.canonical) for cls in classes]
    total = 0
    for size in range(len(normals) + 1):
        for subset in itertools.combinations(normals, size):
            total += (-1) ** (size - linalg.rank(list(subset), n))
    return total


def test_chamber_search_matches_the_exhaustive_oracle(family):
    for name, pair in family + [("cyclic triangle", _cyclic_triangle())]:
        classes = _axial_classes(pair)
        expected = _all_sign_vectors(classes, pair.n)
        assert list(_chamber_search(classes, pair.n)) == expected, name
        assert _chambers(classes, pair.n) == (expected, "exhaustive"), name
        acyclic = [
            w for _, w in expected if is_acyclic(orient(pair, Vector(w)))[0]
        ]
        if acyclic:
            assert find_acyclic_xi(pair) == Vector(acyclic[0]), name
        else:
            with pytest.raises(ValueError):
                find_acyclic_xi(pair)


def _pair_named(request, name):
    if name == "k8":
        return complete_graph([(i, i * i) for i in range(1, 9)])
    if name == "k6n4":
        return _moment_curve(6, 4)
    value = request.getfixturevalue(name)
    return value[0] if name == "blowup" else value


@pytest.mark.parametrize(
    "name", ["k2", "cp2", "gamma4", "gamma5", "cycle4", "blowup", "prod", "k8", "k5n3", "k6n4"]
)
def test_chamber_count_equals_the_whitney_count(request, name):
    pair = _pair_named(request, name)
    out = betti_invariance_check(pair)
    assert out["method"] == "exhaustive" and out["invariant"]
    assert out["chambers_found"] == _whitney_count(_axial_classes(pair), pair.n)
    if name == "k8":
        # 13 wall classes: past the size where enumeration used to fall back to sampling
        assert len(_axial_classes(pair)) == 13
        assert out["chambers_found"] == 26
    if name == "k5n3":
        assert out["chambers_found"] == 72
    if name == "k6n4":
        # K6 over (t, t^2, t^3, t^4): 15 wall classes in n = 4
        assert len(_axial_classes(pair)) == 15
        assert out["chambers_found"] == 442


@pytest.mark.parametrize(
    "count,n,expected",
    [(7, 3, ("1", "1", "-11/7")), (6, 4, ("1", "1", "1", "-26/15"))],
)
def test_find_acyclic_xi_on_the_moment_curve_ladder(count, n, expected):
    # the first acyclic chamber's witness, which jk --sweep and morse use without --xi
    assert find_acyclic_xi(_moment_curve(count, n)) == Vector(tuple(Fraction(c) for c in expected))


def _adjacent_witnesses(pair):
    chambers, _ = _chambers(_axial_classes(pair), pair.n)
    for i in range(len(chambers)):
        for j in range(i + 1, len(chambers)):
            si, wi = chambers[i]
            sj, wj = chambers[j]
            if sum(a != b for a, b in zip(si, sj)) == 1:
                return Vector(wi), Vector(wj)
    raise AssertionError("no adjacent chambers found")


def test_wall_crossing_local_picture(cp2):
    lo, hi = _adjacent_witnesses(cp2)
    out = wall_crossing_check(cp2, lo, hi)
    assert out["ok"] and out["others_fixed"]
    assert len(out["edges"]) >= 1
    for rec in out["edges"]:
        r, s = rec["before"]
        assert (s, r) == tuple(rec["after"]) and s == r + 1


def test_wall_crossing_flips_each_class_edge(cycle4):
    lo, hi = _adjacent_witnesses(cycle4)
    out = wall_crossing_check(cycle4, lo, hi)
    assert out["ok"] and out["others_fixed"]
    assert len(out["edges"]) == 2  # both edges of the parallel class trade places


def test_wall_crossing_needs_a_single_wall(cp2):
    xi = Vector((1, 2))
    with pytest.raises(ValueError):
        wall_crossing_check(cp2, xi, Vector((-1, -2)))  # all three classes flip


def test_find_acyclic_xi_properties(family):
    for name, pair in family:
        if pair.valence < 1:
            continue
        xi = find_acyclic_xi(pair)
        assert is_acyclic(orient(pair, xi))[0], name
        assert find_acyclic_xi(pair) == xi  # deterministic


def test_find_acyclic_xi_can_fail():
    with pytest.raises(ValueError):
        find_acyclic_xi(_cyclic_triangle())


def test_l_independence():
    forms = [Covector((1, 0)), Covector((0, 1)), Covector((1, 1))]
    assert l_independent(forms, 1)
    assert l_independent(forms, 2)
    assert not l_independent(forms, 3)
    assert l_independent(forms, 0)
    assert l_independent([], 2)


def test_ideal_hilbert_worked_examples():
    x, y = Covector((1, 0)), Covector((0, 1))
    xy = Covector((1, 1))
    assert ideal_hilbert([x, y], 2, 1) == (2, 2)
    assert ideal_hilbert([x, y], 2, 0) == (0, 1)
    assert ideal_hilbert([x, y, xy], 2, 2) == (3, 3)
    # principal case: the single generator is the product of all the forms
    assert ideal_hilbert([x, y, xy], 1, 3) == (1, 4)
    assert ideal_hilbert([x, y, xy], 1, 4) == (2, 5)
    assert ideal_hilbert([x, y, xy], 1, 2) == (0, 3)
    # more omitted factors than forms leaves nothing to generate with
    assert ideal_hilbert([x, y], 4, 2) == (0, 3)
    assert ideal_hilbert([x, y], 2, -1) == (0, 0)
    with pytest.raises(ValueError):
        ideal_hilbert([], 1, 1)
    with pytest.raises(ValueError):
        ideal_hilbert([x, y], 0, 1)
    with pytest.raises(ValueError):
        ideal_hilbert([x, Covector((1, 0, 0))], 1, 1)


def test_full_ring_is_reached_above_the_critical_degree():
    # for l = n independent forms the ideal fills the whole ring past N - n
    rng = random.Random(17)
    built = 0
    while built < 3:
        n = rng.choice((2, 3))
        N = rng.randint(n, 5)
        forms = []
        while len(forms) < N:
            c = Covector(tuple(rng.randint(-3, 3) for _ in range(n)))
            if not any(c.coords):
                continue
            if l_independent(forms + [c], n):
                forms.append(c)
        built += 1
        for m in range(N - n + 1, N - n + 3):
            dim_ideal, dim_ring = ideal_hilbert(forms, n, m)
            assert dim_ideal == dim_ring


def test_morse_inequalities_on_cp2(cp2):
    out = morse_inequalities(cp2, Vector((1, 2)), 6)
    assert out["ok"]
    assert out["betti"] == [1, 1, 1]
    for row in out["morse"]:
        assert row["lhs"] <= row["rhs"] and row["equality"]
    k2_steps = [s for s in out["steps"] if s["k"] == 2]
    assert [(s["vertex"], s["sigma"], s["gain"]) for s in k2_steps] == [
        ("1", 2, 1),
        ("2", 1, 2),
        ("3", 0, 3),
    ]
    assert [(s["lower"], s["upper"]) for s in k2_steps] == [(0, 1), (0, 2), (3, 3)]
    assert all(s["ok"] for s in out["steps"])


def test_morse_inequalities_across_fixtures(cycle4, gamma5):
    for pair in (cycle4, gamma5):
        out = morse_inequalities(pair, find_acyclic_xi(pair), 4)
        assert out["ok"]
        for row in out["morse"]:
            assert row["lhs"] <= row["rhs"]


def test_equality_report_on_the_complete_graphs(cp2, gamma4):
    for pair, l in ((cp2, 2), (gamma4, 3)):
        out = betti_equality_report(pair, l, 6)
        assert out["star_independence_ok"] and out["unique_min_ok"]
        assert out["asserted_equality"] is True
        assert all(row["equal"] for row in out["table"])
        rhs = [
            sum(
                b * graded_dim(pair.n, row["k"] - r)
                for r, b in enumerate(out["betti"])
            )
            for row in out["table"]
        ]
        assert [row["rhs"] for row in out["table"]] == rhs


def test_equality_report_on_the_cycle(cycle4):
    out = betti_equality_report(cycle4, 2, 4)
    assert out["betti"] == [1, 2, 1]
    assert out["asserted_equality"] is True
    assert all(row["equal"] for row in out["table"])
    # the degree-zero row in particular: one component, beta_0 = 1
    assert out["table"][0]["lhs"] == out["table"][0]["rhs"] == 1


def test_degrees_past_the_key_limit_are_refused(cp2):
    # 65535 is the largest total degree a monomial key holds
    with pytest.raises(InputError, match="limit 65535"):
        morse_inequalities(cp2, Vector([1, 2]), 65536)
    with pytest.raises(InputError, match="limit 65535"):
        betti_equality_report(cp2, 2, 65536)


def test_equality_report_records_hypothesis_failures():
    # the x-parallel edges form an irregular path, so the subgraph test
    # cannot even be posed; the failure is recorded, nothing is asserted
    pair = GkmPair(
        2,
        ["1", "2", "3", "4"],
        [("1", "2"), ("2", "3"), ("3", "4"), ("4", "1")],
        {
            ("1", "2"): (1, 0),
            ("2", "3"): (2, 0),
            ("3", "4"): (3, 0),
            ("4", "1"): (0, 1),
        },
    )
    out = betti_equality_report(pair, 2, 2)
    assert not out["unique_min_ok"]
    assert out["unique_min_failures"]
    assert out["asserted_equality"] is None


# The Fourier-Motzkin elimination over Fraction rows as it stood before
# integer rows, primitive duplicate merging and parent-witness reuse, kept
# unchanged as the reference.  Merging positive multiples of a row moves no
# bound on the eliminated coordinate, so the integer elimination must return
# the very same witness, and the chamber search the very same list.
def _fraction_feasible(rows: Sequence[Sequence[Fraction]], n: int) -> list[Fraction] | None:
    """Rational witness for the strict system row . x > 0, or None.

    The last variable is eliminated by combining rows of opposite sign
    there; a witness for the reduced system is extended by picking the
    last coordinate strictly between the surviving bounds.
    """
    if any(not any(r) for r in rows):
        return None
    if n == 0:
        return []
    lower = [r for r in rows if r[n - 1] > 0]
    upper = [r for r in rows if r[n - 1] < 0]
    reduced: list[tuple[Fraction, ...]] = [tuple(r[: n - 1]) for r in rows if r[n - 1] == 0]
    for a in lower:
        for b in upper:
            reduced.append(
                tuple(a[i] * -b[n - 1] + b[i] * a[n - 1] for i in range(n - 1))
            )
    point = _fraction_feasible(reduced, n - 1)
    if point is None:
        return None
    lo = [-sum(r[i] * point[i] for i in range(n - 1)) / r[n - 1] for r in lower]
    hi = [-sum(r[i] * point[i] for i in range(n - 1)) / r[n - 1] for r in upper]
    if lo and hi:
        a, b = max(lo), min(hi)
        if a >= b:
            raise ArithmeticError("feasibility witness collapsed")
        last = (a + b) / 2
    elif lo:
        last = max(lo) + 1
    elif hi:
        last = min(hi) - 1
    else:
        last = Fraction(1)
    return point + [last]


def _fraction_chambers(classes, n):
    """Pruned sign search with a Fraction feasibility check at every prefix."""
    found = []

    def extend(signs, rows):
        if len(signs) == len(classes):
            found.append((signs, _fraction_feasible(rows, n)))
            return
        for s in (-1, 1):
            grown = rows + [tuple(Fraction(s * c) for c in classes[len(signs)].canonical)]
            if _fraction_feasible(grown, n) is not None:
                extend(signs + (s,), grown)

    extend((), [])
    return found


def _moment_curve(count, n):
    return complete_graph([tuple(t**k for k in range(1, n + 1)) for t in range(1, count + 1)])


MOMENT_CURVES = [(count, 2) for count in range(5, 9)] + [(4, 3), (5, 3)]


def _vector_or_none(witness):
    """The Fraction oracle's witness as the Vector the integer elimination returns."""
    return None if witness is None else Vector(witness)


def test_chamber_witnesses_match_the_fraction_oracle(family):
    pairs = family + [("cyclic triangle", _cyclic_triangle())] + [
        (f"K{count} n={n}", _moment_curve(count, n)) for count, n in MOMENT_CURVES
    ]
    for name, pair in pairs:
        classes = _axial_classes(pair)
        expected = [(signs, Vector(w)) for signs, w in _fraction_chambers(classes, pair.n)]
        assert list(_chamber_search(classes, pair.n)) == expected, name
        assert _chambers(classes, pair.n) == (expected, "exhaustive"), name


@st.composite
def _systems(draw):
    """0-7 integer rows in n = 1..4, with repeats, positive multiples and zero rows."""
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * n), max_size=7))
    extras = draw(st.lists(st.sampled_from(("repeat", "double", "zero")), max_size=7 - len(rows)))
    for kind in extras:
        if kind == "zero":
            rows.append((0,) * n)
        elif rows:
            row = draw(st.sampled_from(rows))
            rows.append(row if kind == "repeat" else tuple(2 * c for c in row))
    return n, draw(st.permutations(rows))


@seed(20261018)
@settings(max_examples=300, deadline=None)
@given(_systems())
def test_feasible_returns_the_fraction_oracle_witness(system):
    n, rows = system
    expected = _fraction_feasible([tuple(Fraction(c) for c in r) for r in rows], n)
    got = _feasible(rows, n)
    assert got == _vector_or_none(expected)
    if got is not None:
        assert type(got) is Vector
        assert all(sum(c * x for c, x in zip(r, got)) > 0 for r in rows)


def _ratio_key(row):
    return Fraction(row[0], row[1])


def _planted_system(rng, n, count):
    """count rows with entries in -50..50, all positive on one random direction."""
    direction = [rng.choice((-1, 1)) * rng.randint(1, 5) for _ in range(n)]
    rows = []
    while len(rows) < count:
        row = tuple(rng.randint(-50, 50) for _ in range(n))
        d = sum(c * x for c, x in zip(row, direction))
        if d:
            rows.append(row if d > 0 else tuple(-c for c in row))
    return rows


def _doubled(row):
    """Twice the row when that stays in -50..50, else the row again."""
    return tuple(2 * c for c in row) if max(map(abs, row)) <= 25 else row


def _oracle_cases(rng, n):
    """(label, rows) systems in -50..50 aimed at each branch of the closed form.

    8-30 rows at n = 2 and 8-16 at n = 3, where the Fraction oracle pays
    for every lower x upper pair at both levels.
    """
    count = rng.randint(8, 30 if n == 2 else 16)
    planted = _planted_system(rng, n, count)
    yield "planted", planted
    lower = [r for r in planted if r[-1] > 0]
    upper = [r for r in planted if r[-1] < 0]
    for side in (lower, upper):
        if not side:
            continue
        if n == 2:
            # the side's two ratio extremes, negated onto the other side: one of
            # them faces the other side's extreme, a ratio both sides share
            for extreme in (min(side, key=_ratio_key), max(side, key=_ratio_key)):
                yield "shared ratio", planted + [tuple(-c for c in extreme)]
                yield "repeated extreme", planted + [extreme, _doubled(extreme), extreme]
        else:
            row = rng.choice(side)
            yield "opposite rows", planted + [tuple(-c for c in row)]
            yield "repeated rows", planted + [row, _doubled(row)]
    yield "lower only", [r[:-1] + (rng.randint(1, 50),) for r in planted]
    yield "upper only", [r[:-1] + (-rng.randint(1, 50),) for r in planted]
    flat = [r[:-1] + (0,) for r in planted if any(r[:-1])]
    if flat:
        yield "flat rows of one sign", planted + flat[:3]
        yield "flat rows of both signs", planted + [flat[0], tuple(-c for c in flat[0])]
    yield "zero row", planted + [(0,) * n]
    yield "random", [tuple(rng.randint(-50, 50) for _ in range(n)) for _ in range(count)]


@pytest.mark.parametrize("n", [2, 3])
def test_feasible_matches_the_fraction_oracle_on_large_systems(n):
    rng = random.Random(1018 + n)
    seen: dict[str, set[bool]] = {}
    for _ in range(40):
        for label, rows in _oracle_cases(rng, n):
            rows = rng.sample(rows, len(rows))
            expected = _fraction_feasible([tuple(Fraction(c) for c in r) for r in rows], n)
            assert _feasible(rows, n) == _vector_or_none(expected), (label, rows)
            seen.setdefault(label, set()).add(expected is not None)
    # each kind of system was drawn, with the outcome it is built to have
    assert seen["planted"] == seen["lower only"] == seen["upper only"] == {True}
    assert seen["zero row"] == seen["flat rows of both signs"] == {False}
    if n == 2:
        assert seen["shared ratio"] == {False}
        assert True in seen["repeated extreme"]


def test_collapsed_bounds_are_an_error(monkeypatch):
    # a reduced witness that leaves no room for the last coordinate is a bug, not infeasibility
    from gkmcalc import morse_betti

    real = morse_betti._feasible
    fake = Vector((1, -1))
    monkeypatch.setattr(morse_betti, "_feasible", lambda rows, n: fake if n == 2 else real(rows, n))
    # at (1, -1) lower (1, 0, 1) and upper (0, 1, -1) both bound the last coordinate by -1
    with pytest.raises(ArithmeticError, match="collapsed"):
        real([(1, 0, 1), (0, 1, -1)], 3)


def test_chamber_leaf_rechecks_its_witness(monkeypatch, cp2):
    from gkmcalc import morse_betti

    real = morse_betti._feasible

    def off_by_sign(rows, n):
        w = real(rows, n)
        return w if w is None or len(rows) < 3 else -w

    monkeypatch.setattr(morse_betti, "_feasible", off_by_sign)
    with pytest.raises(ArithmeticError, match="fails its own system"):
        list(_chamber_search(_axial_classes(cp2), cp2.n))


def _fraction_reuse_prefixes(classes, n):
    """The prefixes the chamber search checks, with its reuse test made on Fraction witnesses."""
    checked = []

    def extend(depth, rows, witness):
        if depth == len(classes):
            return
        for row in (tuple(-c for c in classes[depth].canonical), classes[depth].canonical):
            grown = rows + [row]
            if depth + 1 < len(classes) and sum(c * x for c, x in zip(row, witness)) > 0:
                extend(depth + 1, grown, witness)
                continue
            checked.append(grown)
            w = _fraction_feasible([tuple(map(Fraction, r)) for r in grown], n)
            if w is not None:
                extend(depth + 1, grown, w)

    checked.append([])
    extend(0, [], _fraction_feasible([], n))
    return checked


def test_chamber_search_checks_the_same_prefixes(monkeypatch, family):
    from gkmcalc import morse_betti

    real = morse_betti._feasible
    calls = []

    def recording(rows, n):
        calls.append((n, rows))
        return real(rows, n)

    monkeypatch.setattr(morse_betti, "_feasible", recording)
    for name, pair in family + [("K5 n=3", _moment_curve(5, 3))]:
        classes = _axial_classes(pair)
        calls.clear()
        list(_chamber_search(classes, pair.n))
        # the elimination recurses through the module global with fewer coordinates
        checked = [rows for n, rows in calls if n == pair.n]
        assert checked == _fraction_reuse_prefixes(classes, pair.n), name


# --- orientation signs against Fraction pairings --------------------------------


def _orient_oracle(pair, xi):
    """orient as it was: each incidence's sign from its Fraction pairing with xi."""
    sigma = {v: 0 for v in pair.vertices}
    directed = []
    for p, q in pair.edges:
        vp = sum((a * b for a, b in zip(pair.axial_at(p, q).coords, xi.coords)), Fraction(0))
        vq = sum((a * b for a, b in zip(pair.axial_at(q, p).coords, xi.coords)), Fraction(0))
        if vp == 0 or vq == 0:
            a, b = (p, q) if vp == 0 else (q, p)
            raise ValueError(f"xi lies on a wall: alpha[{a}->{b}](xi) = 0")
        sigma[p] += vp < 0
        sigma[q] += vq < 0
        directed.append((p, q) if vp > 0 else (q, p))
    return sigma, tuple(directed)


def _orient_outcome(fn, pair, xi):
    try:
        result = fn(pair, xi)
    except ValueError as exc:
        return ValueError, str(exc)
    return (result.sigma, result.edges) if hasattr(result, "sigma") else result


def _random_rational(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 7))


def test_orientation_matches_the_fraction_pairing_oracle(family):
    rng = random.Random(20261018)
    walls = 0
    for name, pair in family:
        # rational axial values, each orientation scaled independently
        axial = {e: cov.scaled(_random_rational(rng)) for e, cov in pair.axial.items()}
        scaled = GkmPair(pair.n, pair.vertices, pair.edges, axial)
        for _ in range(12):
            xi = Vector(tuple(_random_rational(rng) for _ in range(pair.n)))
            assert _orient_outcome(orient, scaled, xi) == _orient_outcome(
                _orient_oracle, scaled, xi), name
        # a random direction on the wall of one incidence: solve for one coordinate
        p, q = rng.choice(pair.edges)
        a = axial[(q, p)].coords
        i = next(k for k, c in enumerate(a) if c)
        r = [_random_rational(rng) for _ in range(pair.n)]
        r[i] = -sum((a[k] * r[k] for k in range(pair.n) if k != i), Fraction(0)) / a[i]
        xi = Vector(r)
        got = _orient_outcome(orient, scaled, xi)
        assert got == _orient_outcome(_orient_oracle, scaled, xi), name
        assert got[0] is ValueError and got[1].startswith("xi lies on a wall: alpha["), name
        walls += 1
    assert walls == len(family)


def _ideal_hilbert_oracle(forms, l, m):
    """The former ideal_hilbert, kept as an oracle: dense Fraction rows read from terms()."""
    n = forms[0].n
    total = graded_dim(n, m)
    gdeg = len(forms) - (l - 1)
    if m < gdeg:
        return 0, total
    polys = [Polynomial.from_covector(c) for c in forms]
    col = {mon: i for i, mon in enumerate(monomials(n, m))}
    rows = []
    for omit in itertools.combinations(range(len(forms)), l - 1):
        gen = Polynomial.constant(n, 1)
        for i, g in enumerate(polys):
            if i not in omit:
                gen = gen * g
        for mu in monomials(n, m - gdeg):
            row = [Fraction(0)] * total
            for exp, coef in (gen * Polynomial(n, {mu: 1})).terms():
                row[col[exp]] = coef
            rows.append(row)
    return linalg.rank(rows, total), total


def test_ideal_hilbert_matches_the_dense_oracle():
    rng = random.Random(20261018)
    for n in (1, 2, 3):
        for _ in range(6):
            forms = [Covector(tuple(_random_rational(rng) for _ in range(n)))
                     for _ in range(rng.randint(1, 4))]
            forms.append(forms[0].scaled(Fraction(-3, 2)))  # a repeated parallel class
            for l in range(1, len(forms) + 1):
                for m in range(len(forms) - l + 4):
                    assert ideal_hilbert(forms, l, m) == _ideal_hilbert_oracle(forms, l, m), (
                        forms, l, m)


# --- levels and acyclicity against the depth-first oracle -----------------------


def _upward_successors(orientation):
    succ: dict[str, list[str]] = {v: [] for v in orientation.vertices}
    for p, q in orientation.edges:
        succ[p].append(q)
    return succ


def _postorder(vertices, succ):
    """Iterative depth-first postorder, or the first directed cycle met.

    Returns (postorder, None) on an acyclic graph and (partial postorder,
    cycle vertices) as soon as an edge closes a cycle on the active path.
    """
    # 0 unvisited, 1 on the active path, 2 finished
    state = {v: 0 for v in vertices}
    post: list[str] = []
    for start in vertices:
        if state[start]:
            continue
        stack = [(start, iter(succ[start]))]
        state[start] = 1
        while stack:
            v, it = stack[-1]
            for w in it:
                if state[w] == 0:
                    state[w] = 1
                    stack.append((w, iter(succ[w])))
                    break
                if state[w] == 1:
                    path = [u for u, _ in stack]
                    return post, path[path.index(w):]
            else:
                state[v] = 2
                post.append(v)
                stack.pop()
    return post, None


def _positively_oriented_function_oracle(pair, xi):
    """positively_oriented_function as it was: a depth-first postorder and a measured gap."""
    o = orient(pair, xi)
    succ = _upward_successors(o)
    post, cycle = _postorder(o.vertices, succ)
    if cycle is not None:
        raise ValueError("orientation has a directed cycle: " + " -> ".join(cycle))
    # longest path by postorder DP
    longest: dict[str, int] = {}
    for v in post:
        longest[v] = max((longest[w] + 1 for w in succ[v]), default=0)

    base = {v: Fraction(-longest[v]) for v in o.vertices}
    levels = sorted(set(base.values()))
    if len(levels) > 1:
        gap = min(b - a for a, b in zip(levels, levels[1:]))
        g = gap / 2
    else:
        g = Fraction(1, 2)
    phi = dict(base)
    groups: dict[Fraction, list[str]] = {}
    for v in o.vertices:
        groups.setdefault(base[v], []).append(v)
    for level, members in groups.items():
        if len(members) == 1:
            continue
        r = len(members)
        for i, v in enumerate(members, start=1):
            phi[v] = level + Fraction(i, r + 1) * g
    if len(set(phi.values())) != len(phi):
        raise ArithmeticError("level perturbation failed to separate vertices")
    for p, q in pair.edges:
        if (phi[p] - phi[q]) * pairing(pair.axial_at(q, p), o.xi) <= 0:
            raise ArithmeticError(f"levels not positively oriented on edge ({p}, {q})")
    return phi


def _mixed_triangle():
    # a directed cycle exactly where x, y and x + y share a sign
    return GkmPair(
        2,
        ["1", "2", "3"],
        [("1", "2"), ("2", "3"), ("3", "1")],
        {("1", "2"): (1, 0), ("2", "3"): (0, 1), ("3", "1"): (1, 1)},
    )


def _square_with_chord():
    # upward along x: a -> b -> c -> d -> a and the chord a -> c, two directed cycles
    edges = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "c")]
    return GkmPair(1, ["a", "b", "c", "d"], edges, {e: (1,) for e in edges})


def _assert_directed_cycle(o, witness):
    assert witness and len(set(witness)) == len(witness), witness
    upward = set(o.edges)
    for a, b in zip(witness, witness[1:] + witness[:1]):
        assert (a, b) in upward, (witness, a, b)


def _levels_outcome(fn, pair, xi):
    try:
        return fn(pair, xi)
    except ValueError as exc:
        # the cycle named may differ between the two traversals
        return ValueError, str(exc).partition("cycle:")[0]


def test_levels_match_the_depth_first_oracle(family):
    rng = random.Random(20261019)
    cyclic = 0
    extra = [("mixed triangle", _mixed_triangle()), ("square with chord", _square_with_chord())]
    for name, pair in family + extra:
        xis = [] if name in dict(extra) else [find_acyclic_xi(pair)]
        xis += [Vector(tuple(_random_rational(rng) for _ in range(pair.n))) for _ in range(12)]
        for xi in xis:
            got = _levels_outcome(positively_oriented_function, pair, xi)
            assert got == _levels_outcome(_positively_oriented_function_oracle, pair, xi), name
            if got == (ValueError, "orientation has a directed "):
                cyclic += 1
                _assert_directed_cycle(orient(pair, xi), is_acyclic(orient(pair, xi))[1])
    assert cyclic > 10


def test_acyclicity_matches_the_depth_first_oracle_on_every_chamber(family):
    verdicts = set()
    extra = [("cyclic triangle", _cyclic_triangle()), ("mixed triangle", _mixed_triangle()),
             ("square with chord", _square_with_chord())]
    for name, pair in family + extra:
        for _, witness in _chamber_search(_axial_classes(pair), pair.n):
            o = orient(pair, witness)
            ok, cycle = is_acyclic(o)
            assert ok == (_postorder(o.vertices, _upward_successors(o))[1] is None), name
            if not ok:
                _assert_directed_cycle(o, cycle)
            verdicts.add((name, ok))
    assert {("mixed triangle", True), ("mixed triangle", False)} <= verdicts


def test_cycle_witness_on_the_square_with_a_chord():
    pair = _square_with_chord()
    o = orient(pair, Vector((1,)))
    ok, witness = is_acyclic(o)
    assert not ok
    _assert_directed_cycle(o, witness)
    _assert_directed_cycle(o, _postorder(o.vertices, _upward_successors(o))[1])
    with pytest.raises(ValueError) as err:
        positively_oriented_function(pair, Vector((1,)))
    assert str(err.value) == "orientation has a directed cycle: " + " -> ".join(witness)


# --- one orientation per report -----------------------------------------------


def _count_orientations(monkeypatch, *modules):
    calls = []
    real = morse_betti.orient

    def counted(pair, xi):
        calls.append(xi)
        return real(pair, xi)

    for module in modules:
        monkeypatch.setattr(module, "orient", counted)
    return calls


def test_morse_inequalities_orients_once(k5n3, monkeypatch):
    xi = find_acyclic_xi(k5n3)
    calls = _count_orientations(monkeypatch, morse_betti)
    out = morse_inequalities(k5n3, xi, 2)
    assert out["ok"]
    assert len(calls) == 1


def test_morse_inequalities_computes_each_ideal_dimension_once(k5n3, monkeypatch):
    calls = []
    real = morse_betti.ideal_hilbert

    def counted(forms, l, m):
        calls.append(m)
        return real(forms, l, m)

    monkeypatch.setattr(morse_betti, "ideal_hilbert", counted)
    out = morse_inequalities(k5n3, find_acyclic_xi(k5n3), 3)
    assert out["ok"]
    wanted = [s["k"] - s["sigma"] for s in out["steps"] if s["k"] >= s["sigma"]]
    assert len(wanted) > len(set(wanted))  # the same m recurs across degrees
    assert sorted(calls) == sorted(set(wanted))


def test_betti_with_xi_orients_once(cp2, tmp_path, monkeypatch):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps(cp2.to_json()))
    calls = _count_orientations(monkeypatch, morse_betti, cli)
    assert cli.main(["betti", str(graph), "--xi", "3,7", "--out", str(tmp_path / "b.json")]) == 0
    # the chamber check orients each chamber's witness; the report's own xi once
    assert [list(xi) for xi in calls].count([3, 7]) == 1


def test_an_orientation_stands_in_for_its_direction(family, gr24, gr25):
    for name, pair in family + [("gr24", gr24), ("gr25", gr25)]:
        xi = find_acyclic_xi(pair)
        o = orient(pair, xi)
        assert betti(pair, o) == betti(pair, xi), name
        assert positively_oriented_function(pair, o) == positively_oriented_function(pair, xi), name


def test_negative_degree_bounds_are_refused(cp2):
    # the message cmd_morse prints for --max-degree -1
    with pytest.raises(InputError, match="^--max-degree must be nonnegative, got -1$"):
        morse_inequalities(cp2, Vector([1, 2]), -1)
    with pytest.raises(InputError, match="^--max-degree must be nonnegative, got -3$"):
        betti_equality_report(cp2, 2, -3)


def test_orient_refuses_a_direction_of_the_wrong_length(cp2):
    with pytest.raises(ValueError) as info:
        orient(cp2, [1, 2, 3])
    assert type(info.value) is ValueError and str(info.value) == "xi has 3 coordinates, expected 2"


def test_equality_report_records_a_component_with_two_minima():
    # a and c are both sources (or both sinks) of the x-parallel square
    square = GkmPair(
        2,
        ["a", "b", "c", "d"],
        [("a", "b"), ("c", "b"), ("c", "d"), ("a", "d")],
        {("a", "b"): (1, 0), ("c", "b"): (1, 0), ("c", "d"): (1, 0), ("a", "d"): (1, 0)},
    )
    out = betti_equality_report(square, 2, 1)
    assert out["unique_min_failures"] == [
        {"normals": [[Fraction(1), Fraction(0)]], "component": ["a", "b", "c", "d"], "beta0": 2}
    ]
    assert all(type(x) is Fraction for x in out["unique_min_failures"][0]["normals"][0])


@pytest.mark.parametrize("l", [0, -3])
def test_equality_report_refuses_l_below_one(cp2, l):
    # the message cmd_morse prints for --l 0
    with pytest.raises(InputError) as info:
        betti_equality_report(cp2, l, 2)
    assert str(info.value) == f"--l must be at least 1, got {l}"


@pytest.mark.parametrize("xi2, count", [((-1, -2), 3), ((1, 2), 0), ((2, 3), 0)])
def test_wall_crossing_counts_the_classes_that_change_sign(cp2, xi2, count):
    with pytest.raises(ValueError) as info:
        wall_crossing_check(cp2, Vector((1, 2)), Vector(xi2))
    assert str(info.value) == (
        f"need sign vectors differing in exactly one class, got {count} differences"
    )


# Every fixture of tests/conftest.py with the degree the flow-up certificate
# is checked to: 7, except the larger Gr(3, 6) and Fl(5), checked to the
# degrees test_known_answers.LARGER lists.
CERTIFIED = [
    ("k2", 7), ("k2n2", 7), ("cp2", 7), ("gamma4", 7), ("gamma5", 7), ("k5n3", 7),
    ("k6n2", 7), ("cycle4", 7), ("blowup", 7), ("prod", 7), ("gr24", 7), ("gr25", 7),
    ("fl3", 7), ("fl4", 7), ("gr36", 5), ("fl5", 4),
]


def _fixture_pair(request, name):
    pair = request.getfixturevalue(name)
    return pair[0] if name == "blowup" else pair


def _refuse_elimination(monkeypatch):
    def refuse(pair, k):
        raise AssertionError("class_dims eliminated instead of certifying")

    monkeypatch.setattr(morse_betti, "coh_dim", refuse)


@pytest.mark.parametrize("name, max_k", CERTIFIED)
def test_flow_up_dimensions_equal_elimination(request, monkeypatch, name, max_k):
    pair = _fixture_pair(request, name)
    expected = [coh_dim(pair, k) for k in range(max_k + 1)]
    _refuse_elimination(monkeypatch)
    assert class_dims(pair, max_k) == expected


@pytest.mark.parametrize("name", [name for name, _ in CERTIFIED] + ["cycle8", "parallel_diamond"])
def test_the_level_order_is_the_order_of_descending_levels(request, name):
    # _flow_up_dims walks this order, and morse reports its steps in descending levels
    pair = _fixture_pair(request, name)
    o = orient(pair, find_acyclic_xi(pair))
    phi = positively_oriented_function(pair, o)
    assert morse_betti._upward_order(o)[1] == sorted(pair.vertices, key=phi.get, reverse=True)


def _random_complete_graph(rng, count, n):
    while True:
        points = {tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(count)}
        try:
            return complete_graph(sorted(points))
        except ValueError:  # coinciding points or parallel differences: draw again
            continue


@pytest.mark.parametrize("n, count, max_k", [(2, 4, 5), (2, 6, 5), (3, 5, 4), (4, 5, 3), (4, 6, 3)])
def test_flow_up_dimensions_on_random_complete_graphs_and_blow_ups(monkeypatch, n, count, max_k):
    rng = random.Random(20261020 + 10 * n + count)
    _refuse_elimination(monkeypatch)
    for _ in range(3):
        pair = _random_complete_graph(rng, count, n)
        blown = blow_up(pair, rng.choice(pair.vertices))[0]
        for p in (pair, blown):
            assert class_dims(p, max_k) == [coh_dim(p, k) for k in range(max_k + 1)]


@pytest.mark.parametrize("name, max_k", [(name, min(max_k, 5)) for name, max_k in CERTIFIED[:-2]]
                         + [("gr36", 3), ("fl5", 2)])
def test_morse_inequalities_read_off_the_certificate_equal_the_eliminated_ones(
    request, monkeypatch, name, max_k
):
    pair = _fixture_pair(request, name)
    xi = find_acyclic_xi(pair)
    assert morse_betti._flow_up_dims(pair, orient(pair, xi), max_k) is not None
    certified = morse_inequalities(pair, xi, max_k)
    monkeypatch.setattr(morse_betti, "_flow_up_dims", lambda pair, o, max_k: None)
    assert morse_inequalities(pair, xi, max_k) == certified


def _x_parallel_square():
    edges = [("1", "2"), ("2", "3"), ("3", "4"), ("4", "1")]
    return GkmPair(2, ["1", "2", "3", "4"], edges, {e: (1, 0) for e in edges})


def test_flow_up_certificate_declines_and_elimination_answers(cycle8):
    assert morse_betti._flow_up_dims(cycle8, orient(cycle8, (1, 2)), 4) is None
    assert class_dims(cycle8, 4) == [1, 8, 16, 24, 32]
    # every direction with a positive first coordinate orients the square 1 -> 2 -> 3 -> 4 -> 1
    square = _x_parallel_square()
    assert morse_betti._flow_up_dims(square, orient(square, (1, 2)), 3) is None
    assert class_dims(square, 3) == [coh_dim(square, k) for k in range(4)] == [1, 5, 9, 13]


def test_flow_up_certificate_declines_parallel_downward_forms(parallel_diamond):
    # each vertex of the diamond has its flow-up class, but the two forms
    # below b are parallel, so x^2 need not divide a class's value at b and
    # the closed form would give 3 in degree 1
    pair = parallel_diamond
    assert morse_betti._flow_up_dims(pair, orient(pair, (1,)), 2) is None
    assert class_dims(pair, 2) == [coh_dim(pair, k) for k in range(3)] == [1, 4, 4]


def _step(out, k, vertex):
    return next(s for s in out["steps"] if s["k"] == k and s["vertex"] == vertex)


def test_morse_fallback_on_pairs_the_certificate_declines(cycle8, parallel_diamond):
    # both decline without a patch, so the filtered gains come from elimination
    out = morse_inequalities(cycle8, (1, 2), 4)
    assert [r["lhs"] for r in out["morse"]] == [1, 8, 16, 24, 32]
    assert [r["rhs"] for r in out["morse"]] == [2, 8, 16, 24, 32]
    assert out["ok"] is True
    # the second minimum gains nothing in degree 0, below its upper bound 1
    assert (_step(out, 0, "5")["gain"], _step(out, 0, "5")["upper"]) == (0, 1)
    out = morse_inequalities(parallel_diamond, (1,), 2)
    assert out["ok"] is False
    assert (out["morse"][1]["lhs"], out["morse"][1]["rhs"]) == (4, 3)
    # b gains the class that is x at b and zero elsewhere, above its upper bound 0
    assert (_step(out, 1, "b")["gain"], _step(out, 1, "b")["upper"]) == (1, 0)


def test_compatibility_rows_restricted_to_vertices(cp2):
    assert compatibility_rows(cp2, 3, cp2.vertices) == compatibility_rows(cp2, 3)
    # the classes vanishing off vertex 1: its value is divisible by both star forms
    rows, mons = compatibility_rows(cp2, 3, ["1"])
    assert len(rows) == 2 and all(max(row) < len(mons) for row in rows)
    assert len(mons) - linalg.rank(rows, len(mons)) == graded_dim(2, 1)
