"""Acceptance gate: twelve end-to-end checks over the whole library.

Every check runs at exact arithmetic with zero tolerance and prints a
single PASS or FAIL line; run ``pytest -s tests/test_acceptance.py`` to
see the lines as they appear.  Randomized checks are seeded, so reruns
exercise identical instances.
"""

from __future__ import annotations

import random
from fractions import Fraction

import sympy

from gkmcalc import linalg
from gkmcalc.cohomology import (
    CohClass,
    blowup_class_check,
    chern_class,
    coh_basis,
    compatibility_rows,
    constant_class,
    thom_class_vertex,
)
from gkmcalc.gkm_core import GkmPair
from gkmcalc.localization import full_sweep, integrate
from gkmcalc.morse_betti import (
    _axial_classes,
    _chambers,
    betti,
    betti_equality_report,
    betti_invariance_check,
    find_acyclic_xi,
    ideal_hilbert,
    l_independent,
    morse_inequalities,
    positively_oriented_function,
    wall_crossing_check,
)
from gkmcalc.polyalg import (
    Covector,
    LinearForm,
    Polynomial,
    Vector,
    graded_dim,
    monomials,
    residue,
    residue_partial_fractions,
)

# degrees probed per fixture run from 0 to valence + _DEGREE_SPAN
_DEGREE_SPAN = 3

_CHAMBER_COUNTS = {
    "k2": 2,
    "cp2": 6,
    "gamma4": 24,
    "gamma5": 14,
    "cycle4": 4,
    "blowup": 6,
    "product": 8,
}

_CLASS_CACHE: dict[str, list[CohClass]] = {}


def _report(num: int, body) -> None:
    """Run one check, print its PASS or FAIL line, then assert."""
    try:
        detail = body()
        ok = True
    except Exception as err:  # the line must print even when a check dies
        detail = f"{type(err).__name__}: {err}"
        ok = False
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def _random_classes(name: str, pair: GkmPair, count: int = 200) -> list[CohClass]:
    """Seeded random basis combinations, 200 per fixture, reused across checks."""
    if name not in _CLASS_CACHE:
        rng = random.Random(f"acceptance classes {name}")
        top = pair.valence + _DEGREE_SPAN
        bases = {k: coh_basis(pair, k)[1] for k in range(top + 1)}
        out: list[CohClass] = []
        while len(out) < count:
            k = rng.randrange(top + 1)
            coefs = [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in bases[k]]
            if not any(coefs):
                continue
            cls = None
            for c, b in zip(coefs, bases[k]):
                if c == 0:
                    continue
                cls = b.scaled(c) if cls is None else cls + b.scaled(c)
            out.append(cls)
        _CLASS_CACHE[name] = out
    return _CLASS_CACHE[name]


def _independent_forms(rng: random.Random, n: int, d: int) -> list[LinearForm]:
    forms: list[LinearForm] = []
    while len(forms) < d:
        c = tuple(rng.randint(-4, 4) for _ in range(n))
        if not any(c):
            continue
        cand = LinearForm(Covector(c))
        if all(not cand.parallel_to(f) for f in forms):
            forms.append(cand)
    return forms


def _nonvanishing_xi(rng: random.Random, forms: list[LinearForm], n: int) -> Vector:
    while True:
        xi = Vector(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)))
        if not xi.is_zero() and all(f.evaluate(xi) != 0 for f in forms):
            return xi


def _random_poly(rng: random.Random, n: int, max_deg: int) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(1, 6)):
        while True:
            exp = tuple(rng.randint(0, max_deg) for _ in range(n))
            if sum(exp) <= max_deg:
                break
        terms[exp] = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
    return Polynomial(n, terms)


def _adjacent_witnesses(pair: GkmPair) -> tuple[Vector, Vector]:
    """Two chamber directions whose sign vectors differ in exactly one slot."""
    chambers, _ = _chambers(_axial_classes(pair), pair.n)
    for i in range(len(chambers)):
        for j in range(i + 1, len(chambers)):
            si, wi = chambers[i]
            sj, wj = chambers[j]
            if sum(a != b for a, b in zip(si, sj)) == 1:
                return Vector(tuple(wi)), Vector(tuple(wj))
    raise AssertionError("no adjacent chambers found")


def _poly_to_sympy(value, syms):
    if isinstance(value, Fraction):
        return sympy.Rational(value)
    out = sympy.Integer(0)
    for exp, coef in value.terms():
        term = sympy.Rational(coef)
        for s, e in zip(syms, exp):
            term *= s**e
        out += term
    return out


def test_criterion_01_integral_of_one_vanishes(family):
    def body():
        for name, pair in family:
            value = integrate(pair, constant_class(pair, 1))
            assert value.is_zero(), f"nonzero integral of the constant class on {name}"
        return "integral of 1 vanishes on all 7 fixtures"

    _report(1, body)


def test_criterion_02_randomized_pushforwards(family):
    def body():
        checked = 0
        for name, pair in family:
            d = pair.valence
            for cls in _random_classes(name, pair):
                value = integrate(pair, cls)
                if not value.is_zero():
                    got = value.homogeneous_degree()
                    assert got == cls.degree - d, (
                        f"{name}: pushforward degree {got} for a degree {cls.degree} class"
                    )
                checked += 1
        return f"{checked} randomized classes, every pushforward polynomial of the right degree"

    _report(2, body)


def test_criterion_03_residue_methods_agree():
    def body():
        rng = random.Random("acceptance residues")
        for _ in range(500):
            n = rng.choice((2, 3))
            d = rng.randint(1, 5)
            forms = _independent_forms(rng, n, d)
            xi = _nonvanishing_xi(rng, forms, n)
            f = _random_poly(rng, n, 6)
            a = residue(f, forms, xi, method="series")
            b = residue(f, forms, xi, method="formula")
            assert a == b, "series and formula residues disagree"

        x, y = sympy.symbols("x y")
        prng = random.Random("acceptance partial fractions")
        pool = sorted(set(Fraction(a, b) for a in range(-6, 7) for b in (1, 2, 3) if a))
        cases = 0
        for d in range(1, 5):
            for fdeg in range(6):
                cs = prng.sample(pool, d)
                f_coeffs = [
                    Fraction(prng.randint(-9, 9), prng.randint(1, 3))
                    for _ in range(fdeg + 1)
                ]
                if f_coeffs[-1] == 0:
                    f_coeffs[-1] = Fraction(1)
                zs = [Polynomial(1, {(1,): c}) for c in cs]
                mine = _poly_to_sympy(residue_partial_fractions(f_coeffs, zs), (y,))
                expr = sum(sympy.Rational(c) * x**k for k, c in enumerate(f_coeffs))
                expr = expr / sympy.prod([x - sympy.Rational(c) * y for c in cs])
                oracle = sum(sympy.residue(expr, x, sympy.Rational(c) * y) for c in cs)
                assert sympy.simplify(oracle - mine) == 0, (
                    "evaluation identity differs from the symbolic residue"
                )
                cases += 1
        return f"500 series/formula agreements; evaluation identity on {cases} symbolic cases"

    _report(3, body)


def test_criterion_04_total_residue_vanishes(family):
    def body():
        rng = random.Random("acceptance chambers")
        checked = 0
        for name, pair in family:
            d, n = pair.valence, pair.n
            chambers, _ = _chambers(_axial_classes(pair), n)
            witnesses = [Vector(tuple(w)) for _, w in chambers]
            if len(witnesses) > 5:
                keep = sorted(rng.sample(range(len(witnesses)), 5))
                witnesses = [witnesses[i] for i in keep]
            classes = _random_classes(name, pair)
            mons = {
                k: monomials(n, k) for k in range(d + _DEGREE_SPAN + 1)
            }
            for xi in witnesses:
                table: dict[tuple[str, tuple[int, ...]], Polynomial] = {}
                for p in pair.vertices:
                    alphas = [pair.axial_at(p, q) for q in pair.neighbors(p)]
                    for k, ms in mons.items():
                        for m in ms:
                            table[(p, m)] = residue(
                                Polynomial(n, {m: 1}), alphas, xi, method="formula"
                            )
                for cls in classes:
                    total = Polynomial.zero(n)
                    for p in pair.vertices:
                        for exp, coef in cls.value(p).terms():
                            total = total + table[(p, exp)].scaled(coef)
                    assert total.is_zero(), f"nonzero total residue on {name}"
                    checked += 1
        return f"{checked} class/direction pairs, every total residue zero"

    _report(4, body)


def test_criterion_05_level_sweeps(family):
    def body():
        for name, pair in family:
            xi = find_acyclic_xi(pair)
            phi = positively_oriented_function(pair, xi)
            probes = [constant_class(pair, 1), chern_class(pair, 1)]
            if pair.valence > 1:
                probes.append(chern_class(pair, pair.valence))
            for f in probes:
                doc = full_sweep(pair, xi, f)
                assert doc["stepsOk"] and doc["topIsZero"], f"sweep fails on {name}"
                levels = doc["levels"]
                assert len(levels) == len(pair.vertices) + 1, f"level count on {name}"
                for lo, hi in zip(levels, levels[1:]):
                    inside = [p for p in pair.vertices if lo < phi[p] < hi]
                    assert len(inside) == 1, f"a step is not a single vertex on {name}"
        return "sweeps isolate one vertex per step on all fixtures, three probe classes each"

    _report(5, body)


def test_criterion_06_histogram_invariance_and_wall_crossing(family):
    def body():
        for name, pair in family:
            doc = betti_invariance_check(pair)
            assert doc["invariant"], f"histogram varies across chambers on {name}"
            assert doc["chambers_found"] == _CHAMBER_COUNTS[name], (
                f"{name}: found {doc['chambers_found']} chambers"
            )
            assert doc["method"] == "exhaustive", f"{name} was not enumerated exhaustively"
            lo, hi = _adjacent_witnesses(pair)
            out = wall_crossing_check(pair, lo, hi)
            assert out["ok"] and out["others_fixed"], f"wall crossing fails on {name}"
            for rec in out["edges"]:
                r, s = rec["before"]
                assert s == r + 1 and rec["after"] == [s, r], f"local picture on {name}"
        return "histograms identical across every chamber; one wall checked per fixture"

    _report(6, body)


def test_criterion_07_dimension_identity_and_level_bounds(family, cp2, gamma4):
    def body():
        for pair in (cp2, gamma4):
            xi = find_acyclic_xi(pair)
            hist = betti(pair, xi)
            for k in range(7):
                lhs = coh_basis(pair, k)[0]
                rhs = sum(
                    hist[r] * graded_dim(pair.n, k - r) for r in range(pair.valence + 1)
                )
                assert lhs == rhs, f"dimension identity fails at k={k}"
        dims = [coh_basis(cp2, k)[0] for k in range(7)]
        assert dims == [1, 3, 6, 9, 12, 15, 18], "projective plane dims moved"
        for k in range(7):
            rows, mons = compatibility_rows(cp2, k)
            ncols = len(cp2.vertices) * len(mons)
            assert ncols - linalg.rank(rows, ncols) == dims[k], (
                "rank route disagrees with the basis route"
            )
        for name, pair in family:
            out = morse_inequalities(pair, find_acyclic_xi(pair), 6)
            assert out["ok"], f"bounds fail on {name}"
            assert all(row["ok"] for row in out["morse"]), f"degree bound on {name}"
            assert all(step["ok"] for step in out["steps"]), f"level step bound on {name}"
        return "identity holds to degree 6 on both complete fixtures; bounds hold everywhere"

    _report(7, body)


def test_criterion_08_dimension_equality(cp2, gamma4):
    def body():
        for pair, l in ((cp2, 2), (gamma4, 3)):
            rep = betti_equality_report(pair, l, 6)
            assert rep["star_independence_ok"], f"stars are not {l}-independent"
            assert rep["unique_min_ok"], "a slice has several minima"
            assert rep["asserted_equality"] is True, "equality was not asserted"
            for row in rep["table"]:
                if row["k"] > pair.valence - pair.n:
                    assert row["equal"], f"table row k={row['k']} differs"
        return "equality asserted for the l=2 and l=3 fixtures at every degree past valence-n"

    _report(8, body)


def test_criterion_09_ideal_pieces_reach_the_ring():
    def body():
        rng = random.Random("acceptance ideals")
        done = 0
        while done < 10:
            n = rng.choice((2, 3))
            big = rng.randint(n, 6)
            covs = []
            while len(covs) < big:
                cand = Covector(tuple(Fraction(rng.randint(-4, 4)) for _ in range(n)))
                if not cand.is_zero():
                    covs.append(cand)
            if not l_independent(covs, n):
                continue
            for m in range(big - n + 1, big - n + 5):
                ideal_dim, ring_dim = ideal_hilbert(covs, n, m)
                assert ideal_dim == ring_dim, (
                    f"degree {m} piece misses the ring for {big} forms in dim {n}"
                )
            done += 1
        forms = [Covector((1, 0)), Covector((0, 1)), Covector((1, 1))]
        tail = [graded_dim(2, m) - ideal_hilbert(forms, 1, m)[0] for m in range(6)]
        finite = [graded_dim(2, m) - ideal_hilbert(forms, 2, m)[0] for m in range(6)]
        return (
            "10 random sets reach the full ring four degrees past the threshold; "
            f"quotient tables for three plane forms, l=1: {tail}, l=2: {finite}"
        )

    _report(9, body)


def test_criterion_10_blowup_ring(cp2):
    def body():
        doc = blowup_class_check(cp2, "1", 4)
        assert doc["pullbacksAreClasses"], "a pullback is not a class"
        assert doc["pullbackInjective"], "pullbacks drop rank"
        assert doc["relationHolds"], "ring relation fails"
        dims = ", ".join(
            f"k={row['k']}: {row['sharp']}/{row['base']}" for row in doc["dims"]
        )
        return f"relation exact and pullbacks independent; dims sharp/base {dims}"

    _report(10, body)


def test_criterion_11_vertex_classes_integrate_to_one(family):
    def body():
        count = 0
        for name, pair in family:
            for p in pair.vertices:
                value = integrate(pair, thom_class_vertex(pair, p))
                assert value == Polynomial.constant(pair.n, 1), f"{name} vertex {p}"
                count += 1
        return f"{count} vertex classes across the fixtures, each integrating to 1"

    _report(11, body)


def test_criterion_12_cycle_degree_zero_report(cycle4):
    def body():
        dim0 = coh_basis(cycle4, 0)[0]
        assert dim0 == 1, "constants are not one-dimensional"
        xi = find_acyclic_xi(cycle4)
        hist = betti(cycle4, xi)
        rhs = sum(hist[r] * graded_dim(cycle4.n, -r) for r in range(cycle4.valence + 1))
        return (
            f"dim at degree 0 is {dim0}; identity sides at k=0 are {dim0} and {rhs}; "
            f"histogram gives beta0={hist[0]} on a 4-vertex cycle (reported, not asserted)"
        )

    _report(12, body)
