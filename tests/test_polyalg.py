"""Ring laws, term order, linear forms, exact division, and the residue engine."""
from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, seed, settings, strategies as st

from gkmcalc import chern_class, is_class
from gkmcalc.cohomology import thom_class_vertex
from gkmcalc.polyalg import (
    Covector,
    LinearForm,
    LocalizedSum,
    LocalizedTerm,
    Polynomial,
    Vector,
    divides_exactly,
    graded_dim,
    grlex_key,
    is_polynomial_via_residues,
    monomials,
    pair,
    project_along,
    reduce_mod_line,
    residue,
    residue_partial_fractions,
    simplify,
)

fracs = st.fractions(min_value=-5, max_value=5, max_denominator=6)
exps2 = st.tuples(st.integers(0, 3), st.integers(0, 3))
polys2 = st.dictionaries(exps2, fracs, max_size=5).map(lambda d: Polynomial(2, d))
points2 = st.tuples(fracs, fracs)


@given(polys2, polys2, polys2)
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - b == a + (-b)
    assert a + Polynomial.zero(2) == a
    assert a * Polynomial.constant(2, 1) == a


@given(polys2, polys2, points2)
def test_evaluate_is_a_ring_hom(a, b, pt):
    assert (a + b).evaluate(pt) == a.evaluate(pt) + b.evaluate(pt)
    assert (a * b).evaluate(pt) == a.evaluate(pt) * b.evaluate(pt)


@given(polys2, st.integers(0, 4))
def test_pow_matches_repeated_product(a, k):
    expected = Polynomial.constant(2, 1)
    for _ in range(k):
        expected = expected * a
    assert a**k == expected


@given(polys2)
def test_terms_come_out_grlex_descending(a):
    keys = [grlex_key(exp) for exp, _ in a.terms()]
    assert keys == sorted(keys, reverse=True)
    assert all(coef != 0 for _, coef in a.terms())


@pytest.mark.parametrize("n,k", [(1, 0), (1, 5), (2, 3), (3, 4), (4, 2)])
def test_monomials_and_graded_dim(n, k):
    mons = monomials(n, k)
    assert len(mons) == graded_dim(n, k) == math.comb(k + n - 1, n - 1)
    assert all(sum(m) == k for m in mons)
    keys = [grlex_key(m) for m in mons]
    assert keys == sorted(keys, reverse=True)
    assert len(set(mons)) == len(mons)


def test_graded_dim_negative_degree_is_zero():
    assert graded_dim(3, -1) == 0
    assert monomials(2, 0) == [(0, 0)]


@given(polys2, points2)
def test_substitute_composes_with_evaluate(a, pt):
    images = {0: Polynomial(2, {(0, 1): 2}), 1: Polynomial(2, {(1, 0): 1, (0, 0): 3})}
    composed = a.substitute(images)
    x, y = pt
    assert composed.evaluate(pt) == a.evaluate((2 * y, x + 3))


def test_polynomial_json_round_trip():
    p = Polynomial(2, {(2, 0): Fraction(1, 3), (0, 1): -2, (0, 0): 5})
    doc = p.to_json()
    assert Polynomial.from_json(doc) == p
    keys = [grlex_key(tuple(t["exp"])) for t in doc["terms"]]
    assert keys == sorted(keys, reverse=True)
    assert all(isinstance(t["coef"], str) for t in doc["terms"])


def test_covector_vector_pairing_and_arithmetic():
    c = Covector((1, -2))
    v = Vector((3, Fraction(1, 2)))
    assert pair(c, v) == 2
    assert (c + c).coords == (2, -4)
    assert (-c).coords == (-1, 2)
    assert c.scaled(Fraction(1, 2)).coords == (Fraction(1, 2), -1)
    with pytest.raises(TypeError):
        c + Covector((1, 2, 3))
    with pytest.raises(TypeError):
        c + v


def test_linear_form_canonicalization():
    f = LinearForm(Covector((-2, 4)))
    assert f.canonical == (1, -2)
    assert f.scale == -2
    assert f.pivot() == 1
    g = LinearForm(Covector((1, -2)))
    assert f.parallel_to(g) and g.parallel_to(f)
    assert not f.parallel_to(LinearForm(Covector((1, 1))))
    assert f.canonical_covector() == Covector((1, -2))
    assert f.polynomial() == Polynomial(2, {(1, 0): -2, (0, 1): 4})
    five = LinearForm(Covector((0, 0, 5)))
    assert five.canonical == (0, 0, 1) and five.scale == 5 and five.pivot() == 2
    with pytest.raises(ValueError):
        LinearForm(Covector((0, 0)))


@given(polys2)
def test_reduce_mod_line_is_a_normal_form(f):
    form = LinearForm(Covector((1, -2)))
    r = reduce_mod_line(f, form)
    assert divides_exactly(form, f - r) is not None
    assert reduce_mod_line(r, form) == r
    # adding any multiple of the line does not change the normal form
    g = Polynomial(2, {(1, 1): Fraction(1, 2), (0, 0): 3})
    assert reduce_mod_line(f + form.polynomial() * g, form) == r


@given(polys2)
def test_divides_exactly_inverts_multiplication(g):
    form = LinearForm(Covector((3, 1)))
    assert divides_exactly(form, form.polynomial() * g) == g


def test_divides_exactly_rejects_non_multiples():
    form = LinearForm(Covector((1, 0)))
    assert divides_exactly(form, Polynomial(2, {(0, 1): 1})) is None
    assert divides_exactly(form, Polynomial.constant(2, 1)) is None
    assert divides_exactly(form, Polynomial.zero(2)).is_zero()


def test_project_along_kills_the_form_and_fixes_the_annihilator():
    xi = Vector((1, 2))
    form = LinearForm(Covector((1, 1)))
    assert project_along(form.polynomial(), form, xi).is_zero()
    ann = Polynomial(2, {(1, 0): 2, (0, 1): -1})  # (2, -1) annihilates xi
    assert project_along(ann, form, xi) == ann
    with pytest.raises(ValueError):
        project_along(ann, LinearForm(Covector((2, -1))), xi)


def test_simplify_clears_a_removable_denominator():
    alpha = LinearForm(Covector((1, 0)))
    h = Polynomial(2, {(0, 1): 1, (0, 0): 2})
    f = Polynomial(2, {(1, 1): 1})
    lsum = LocalizedSum(
        2,
        (
            LocalizedTerm(f, (alpha,)),
            LocalizedTerm(alpha.polynomial() * h - f, (alpha,)),
        ),
    )
    numerator, denominators = simplify(lsum)
    assert denominators == ()
    assert numerator == h


def test_simplify_agrees_with_pointwise_evaluation():
    rng = random.Random(3)
    alphas = [LinearForm(Covector(c)) for c in ((1, 0), (0, 1), (1, -1))]
    terms = []
    for i, form in enumerate(alphas):
        num = Polynomial(2, {(i, 0): 1 + i, (0, 1): Fraction(1, 2)})
        terms.append(LocalizedTerm(num, (form, alphas[(i + 1) % 3])))
    lsum = LocalizedSum(2, tuple(terms))
    numerator, denominators = simplify(lsum)
    for _ in range(20):
        pt = (Fraction(rng.randint(1, 30), 7), Fraction(rng.randint(31, 60), 11))
        got = numerator.evaluate(pt)
        for d in denominators:
            got /= d.polynomial().evaluate(pt)
        assert got == lsum.evaluate(pt)


def _random_independent_forms(rng, n, d):
    forms = []
    while len(forms) < d:
        c = tuple(rng.randint(-4, 4) for _ in range(n))
        if not any(c):
            continue
        cand = LinearForm(Covector(c))
        if all(not cand.parallel_to(f) for f in forms):
            forms.append(cand)
    return forms


def _nonvanishing_xi(rng, forms, n):
    while True:
        xi = Vector(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)))
        if not xi.is_zero() and all(f.evaluate(xi) != 0 for f in forms):
            return xi


def _random_poly(rng, n, max_deg):
    terms = {}
    for _ in range(rng.randint(1, 6)):
        while True:
            exp = tuple(rng.randint(0, max_deg) for _ in range(n))
            if sum(exp) <= max_deg:
                break
        terms[exp] = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
    return Polynomial(n, terms)


def test_residue_series_and_formula_agree():
    rng = random.Random(11)
    for _ in range(80):
        n = rng.choice((2, 3))
        d = rng.randint(1, 4)
        forms = _random_independent_forms(rng, n, d)
        xi = _nonvanishing_xi(rng, forms, n)
        f = _random_poly(rng, n, 5)
        a = residue(f, forms, xi, method="series")
        b = residue(f, forms, xi, method="formula")
        assert a == b


def test_residue_is_linear_in_the_numerator():
    rng = random.Random(5)
    forms = _random_independent_forms(rng, 2, 3)
    xi = _nonvanishing_xi(rng, forms, 2)
    f = _random_poly(rng, 2, 4)
    g = _random_poly(rng, 2, 4)
    lhs = residue(f + g.scaled(Fraction(3, 2)), forms, xi)
    rhs = residue(f, forms, xi) + residue(g, forms, xi).scaled(Fraction(3, 2))
    assert lhs == rhs


def test_residue_vanishes_below_the_critical_degree():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.choice((2, 3))
        d = rng.randint(2, 5)
        forms = _random_independent_forms(rng, n, d)
        xi = _nonvanishing_xi(rng, forms, n)
        f = _random_poly(rng, n, d - 2)
        assert residue(f, forms, xi).is_zero()


def test_residue_lands_in_the_annihilator_subring():
    rng = random.Random(13)
    for _ in range(20):
        n = rng.choice((2, 3))
        forms = _random_independent_forms(rng, n, 3)
        xi = _nonvanishing_xi(rng, forms, n)
        f = _random_poly(rng, n, 5)
        r = residue(f, forms, xi)
        # every nonconstant monomial of r is a product of forms vanishing at xi
        assert r.evaluate(tuple(xi)) == r.coefficient((0,) * n)


def test_residue_is_independent_of_the_complement_basis():
    forms = [LinearForm(Covector(c)) for c in ((1, 0), (0, 1), (1, 1))]
    xi = Vector((1, 2))
    f = Polynomial(2, {(3, 1): 1, (1, 1): Fraction(1, 2)})
    default = residue(f, forms, xi)
    basis_a = (Covector((1, 0)), [Covector((2, -1))])
    basis_b = (Covector((-1, 1)), [Covector((-4, 2))])
    assert residue(f, forms, xi, basis=basis_a) == default
    assert residue(f, forms, xi, basis=basis_b) == default


def test_residue_rejects_bad_inputs():
    forms = [LinearForm(Covector((1, 0)))]
    f = Polynomial(2, {(1, 0): 1})
    with pytest.raises(ValueError):
        residue(f, forms, Vector((0, 1)))  # denominator vanishes on xi
    with pytest.raises(ValueError):
        residue(f, forms, Vector((1, 1, 1)))
    with pytest.raises(ValueError):
        residue(f, forms, Vector((1, 1)), method="guess")


def test_residue_partial_fractions_numeric():
    # x^2 / ((x-1)(x-2)): the 1/x coefficient at infinity is 3
    assert residue_partial_fractions([0, 0, 1], [1, 2]) == 3


def test_residue_partial_fractions_symbolic():
    y = Polynomial.variable(1, 0)
    got = residue_partial_fractions(
        [Polynomial.zero(1), Polynomial.zero(1), Polynomial.zero(1), Polynomial.constant(1, 1)],
        [y, y.scaled(2), y.scaled(3)],
    )
    assert got == y.scaled(6)


def test_polynomiality_detector():
    alpha = LinearForm(Covector((1, 0)))
    xi = Vector((1, 0))
    theta = Covector((1, 1))  # theta(xi) = 1, not parallel to alpha
    f = Polynomial(2, {(0, 1): 1})
    honest = LocalizedSum(2, (LocalizedTerm(f * alpha.polynomial(), (alpha,)),))
    assert is_polynomial_via_residues(honest, xi, theta, 2)
    pole = LocalizedSum(2, (LocalizedTerm(Polynomial.constant(2, 1), (alpha,)),))
    assert not is_polynomial_via_residues(pole, xi, theta, 2)
    with pytest.raises(ValueError):
        is_polynomial_via_residues(pole, xi, Covector((2, 0)), 2)  # theta(xi) != 1
    with pytest.raises(ValueError):
        is_polynomial_via_residues(pole, xi, theta, 0)  # below the Vandermonde bound


# --- the kernel against sympy ------------------------------------------------

kernel_settings = settings(max_examples=100, deadline=None)
coefs = st.fractions(min_value=-4, max_value=4, max_denominator=12)


@st.composite
def rings(draw, count, max_exp=3):
    """A variable count n = 1..3 and `count` polynomials in n variables."""
    n = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, max_exp)] * n)
    polys = st.dictionaries(exps, coefs, max_size=5).map(lambda d: Polynomial(n, d))
    return n, [draw(polys) for _ in range(count)]


def _gens(n):
    return sympy.symbols(f"x0:{n}")


def to_sympy(p):
    gens = _gens(p.n)
    expr = sum((sympy.Rational(q.numerator, q.denominator) * sympy.prod(
        [g**e for g, e in zip(gens, exp)]) for exp, q in p.terms()), sympy.Integer(0))
    return sympy.Poly(expr, *gens, domain="QQ")


def from_sympy(poly):
    """The nonzero terms of a sympy polynomial as {exponent tuple: Fraction}."""
    return {tuple(exp): Fraction(int(c.p), int(c.q)) for exp, c in poly.terms() if c}


def assert_matches(p, poly):
    assert dict(p.terms()) == from_sympy(poly)
    assert all(type(q) is Fraction for _, q in p.terms())


@seed(20261018)
@kernel_settings
@given(rings(2), coefs, st.integers(0, 3))
def test_arithmetic_matches_sympy(ring, q, k):
    n, (a, b) = ring
    sa, sb = to_sympy(a), to_sympy(b)
    assert_matches(a + b, sa + sb)
    assert_matches(a - b, sa - sb)
    assert_matches(a * b, sa * sb)
    assert_matches(-a, -sa)
    assert_matches(a.scaled(q), sa * sympy.Rational(q.numerator, q.denominator))
    assert_matches(a**k, sa**k)


@seed(20261018)
@kernel_settings
@given(rings(4, max_exp=2), st.lists(st.sampled_from(("linear", "any", "none")), min_size=3,
                                     max_size=3))
def test_substitute_matches_sympy(ring, kinds):
    """Images are linear, arbitrary (often non-linear) or absent, per variable."""
    n, (f, *candidates) = ring
    images = {}
    for i in range(n):
        img = candidates[i]
        if kinds[i] == "linear":
            img = Polynomial(n, {e: q for e, q in img.terms() if sum(e) == 1})
        if kinds[i] != "none":
            images[i] = img
    gens = _gens(n)
    expected = to_sympy(f).as_expr().xreplace(
        {gens[i]: to_sympy(img).as_expr() for i, img in images.items()})
    assert_matches(f.substitute(images), sympy.Poly(expected, *gens, domain="QQ"))
    assert f.substitute({}) == f


@seed(20261018)
@kernel_settings
@given(rings(1), st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)))
def test_coefficients_come_back_as_fractions(ring, exp):
    n, (a,) = ring
    exp = exp[:n]
    expected = from_sympy(to_sympy(a)).get(exp, Fraction(0))
    got = a.coefficient(exp)
    assert type(got) is Fraction and got == expected
    assert a.coefficient((9,) * n) == Fraction(0)
    assert type(a.coefficient((9,) * n)) is Fraction


@seed(20261018)
@kernel_settings
@given(rings(2), coefs.filter(bool))
def test_equal_polynomials_are_equal_objects(ring, q):
    n, (a, b) = ring
    pairs = [
        ((a * b).scaled(q), a.scaled(q) * b),
        (a + b - b, a),
        ((a - a) * b, Polynomial.zero(n)),
        (a.scaled(q).scaled(1 / q), a),
        (a + b, b + a),
    ]
    for left, right in pairs:
        assert left == right
        assert left.to_json() == right.to_json()
        assert repr(left) == repr(right)


def test_zero_polynomial_and_the_empty_ring():
    zero = Polynomial.zero(2)
    assert zero.is_zero() and zero.terms() == [] and zero.total_degree() == -1
    assert zero == Polynomial(2, {(1, 0): Fraction(1, 3), (0, 1): 0}) - Polynomial(
        2, {(1, 0): Fraction(2, 6)})
    assert zero.to_json() == {"n": 2, "terms": []}
    assert zero * Polynomial.variable(2, 0) == zero and zero**0 == Polynomial.constant(2, 1)
    assert zero.substitute({0: Polynomial.variable(2, 1)}) == zero
    assert zero.coefficient((0, 0)) == 0 and type(zero.coefficient((0, 0))) is Fraction
    assert repr(zero) == "0"

    a = Polynomial(0, {(): Fraction(-3, 4)})
    b = Polynomial.constant(0, "5/6")
    assert (a + b).terms() == [((), Fraction(1, 12))]
    assert (a * b).coefficient(()) == Fraction(-5, 8)
    assert (a - a).is_zero() and (a - a) == Polynomial.zero(0)
    assert (a**3).coefficient(()) == Fraction(-27, 64)
    assert a.substitute({}) == a and a.evaluate(()) == Fraction(-3, 4)
    assert Polynomial.from_json(a.to_json()) == a


# --- exact division against the frozen long division -------------------------


def _long_division_oracle(form, f):
    """The former divides_exactly, kept verbatim as an oracle.

    One long-division step per power of the pivot variable, each step a
    handful of Polynomial operations on the canonical line.
    """
    if f.n != form.n:
        raise ValueError("ring dimension mismatch")
    if f.is_zero():
        return Polynomial.zero(f.n)
    j = form.pivot()
    cj = Fraction(form.canonical[j])
    line = form.canonical_polynomial()
    quotient = Polynomial.zero(f.n)
    remainder = f
    while True:
        parts = remainder.split_by_variable(j)
        top = max(parts) if parts else 0
        if top == 0:
            break
        lead = parts[top]
        exp = tuple(top - 1 if t == j else 0 for t in range(f.n))
        shift = Polynomial(f.n, {exp: 1})
        piece = lead.scaled(1 / cj) * shift
        quotient = quotient + piece
        remainder = remainder - line * piece
    if not remainder.is_zero():
        return None
    return quotient.scaled(1 / form.scale)


@st.composite
def divisions(draw):
    """A form in n = 1..4 variables and f: a multiple, a perturbed multiple, anything, or 0."""
    n = draw(st.integers(1, 4))
    cov = draw(st.lists(st.fractions(-4, 4, max_denominator=3), min_size=n, max_size=n).filter(any))
    form = LinearForm(Covector(cov))
    # total degree 0..5: the exponent tuple counts a list of at most five variable indices
    exps = st.lists(st.integers(0, n - 1), max_size=5).map(
        lambda idx: tuple(idx.count(i) for i in range(n)))
    polys = st.dictionaries(exps, coefs, max_size=5).map(lambda d: Polynomial(n, d))
    g, h = draw(polys), draw(polys)
    kind = draw(st.sampled_from(("multiple", "perturbed", "any", "zero")))
    f = {
        "multiple": form.polynomial() * g,
        "perturbed": form.polynomial() * g + h,
        "any": g,
        "zero": Polynomial.zero(n),
    }[kind]
    return form, f, g if kind == "multiple" else None


def _assert_same_division(form, f):
    got, want = divides_exactly(form, f), _long_division_oracle(form, f)
    assert (got is None) == (want is None), (form, f)
    if want is not None:
        assert got == want and got.to_json() == want.to_json()
    return got


@seed(20261018)
@settings(max_examples=300, deadline=None)
@given(divisions())
def test_divides_exactly_matches_long_division(case):
    form, f, g = case
    got = _assert_same_division(form, f)
    if g is not None:
        assert got == g


def test_divides_exactly_on_pivots_scales_and_one_variable():
    x, y, z = (Polynomial.variable(3, i) for i in range(3))
    # negative pivot coefficient: canonical (1, 0, -3), c_j = -3
    neg = LinearForm(Covector((2, 0, -6)))
    assert neg.canonical == (1, 0, -3) and neg.scale == 2
    g = x * x + y * z.scaled(Fraction(5, 7))
    assert _assert_same_division(neg, neg.polynomial() * g) == g
    assert _assert_same_division(neg, g) is None
    # rational scale: (1/2, -3/4) = (1/4) * (2, -3)
    half = LinearForm(Covector((Fraction(1, 2), Fraction(-3, 4))))
    assert half.scale == Fraction(1, 4)
    u, v = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    g2 = (u - v.scaled(4)) * u.scaled(Fraction(1, 3))
    assert _assert_same_division(half, half.polynomial() * g2) == g2
    # the level coefficients are not multiples of c_j = 2 until lifted by c_j**K
    wide = LinearForm(Covector((1, 2)))
    for f in (v, v * v, u * v + v * v, v**3 + u):
        assert _assert_same_division(wide, f) is None
    assert _assert_same_division(wide, (u + v.scaled(2)) * v * v) == v * v
    # n = 1: every form is a multiple of x0
    t = Polynomial.variable(1, 0)
    one = LinearForm(Covector((Fraction(-5, 3),)))
    assert _assert_same_division(one, t**4) == (t**3).scaled(Fraction(-3, 5))
    assert _assert_same_division(one, Polynomial.constant(1, 2)) is None


def _normal_form_oracle(pair, values):
    """is_class as it was: the first edge whose difference has a nonzero normal form."""
    for p, q in pair.edges:
        if not reduce_mod_line(values[p] - values[q], pair.form(p, q)).is_zero():
            return False, (p, q)
    return True, None


def test_is_class_matches_the_normal_form_oracle(family):
    rng = random.Random(20261018)
    for name, pair in family:
        c1 = chern_class(pair, 1)
        classes = [chern_class(pair, k) for k in range(1, pair.valence + 1)] + [c1 * c1]
        classes += [thom_class_vertex(pair, p) for p in pair.vertices]
        for cls in classes:
            assert is_class(pair, cls.values) == (True, None), name
            for _ in range(3):
                # add one monomial of the class's degree at one vertex
                idx = [rng.randrange(pair.n) for _ in range(cls.degree)]
                exp = tuple(idx.count(i) for i in range(pair.n))
                coef = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3))
                values = dict(cls.values)
                p = rng.choice(pair.vertices)
                values[p] = values[p] + Polynomial(pair.n, {exp: coef})
                assert is_class(pair, values) == _normal_form_oracle(pair, values), name
