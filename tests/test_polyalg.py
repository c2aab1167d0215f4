"""Ring laws, term order, linear forms, exact division, and the residue engine."""
from __future__ import annotations

import copy
import math
import operator
import pickle
import random
from collections.abc import Mapping
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, seed, settings, strategies as st

from gkmcalc import chern_class, is_class, linalg
from gkmcalc.cohomology import thom_class_vertex
from gkmcalc.polyalg import (
    MAX_DEGREE,
    Covector,
    InputError,
    LinearForm,
    LocalizedSum,
    LocalizedTerm,
    Polynomial,
    Vector,
    _divide_by_line,
    _rational,
    _unit,
    as_fraction,
    divides_exactly,
    graded_dim,
    is_polynomial_via_residues,
    monomials,
    pack_monomial,
    pair,
    parallel_pairs,
    project_along,
    project_covector,
    reduce_mod_line,
    residue,
    residue_partial_fractions,
    simplify,
)


def grlex_key(exp):
    """Graded-lexicographic sort key of an exponent tuple: total degree, then the tuple."""
    return (sum(exp), exp)


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
    forms = [LinearForm(Covector(c)) for c in ((1, 0), (0, 1), (2, 0), (0, -1), (1, 1), (-3, 0))]
    assert parallel_pairs(forms) == [(0, 2), (0, 5), (1, 3), (2, 5)]
    assert parallel_pairs(forms[:2]) == []
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


def _project_covector_oracle(beta, form, xi):
    """The projected form as the cross-section and residue formulas wrote it."""
    alpha = form.covector
    return beta - alpha.scaled(pair(beta, xi) / pair(alpha, xi))


def test_project_covector_matches_the_fraction_oracle():
    rng = random.Random(20261019)
    rat = lambda: Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    negative = parallel = 0
    for n in range(1, 5):
        for _ in range(80):
            alpha = Covector(tuple(rat() for _ in range(n)))
            xi = Vector(tuple(rat() for _ in range(n)))
            if alpha.is_zero() or pair(alpha, xi) == 0:
                continue
            form = LinearForm(alpha)
            beta = alpha.scaled(rat()) if rng.random() < 0.2 else Covector(
                tuple(rat() for _ in range(n)))
            got = project_covector(beta, form, xi)
            assert got == _project_covector_oracle(beta, form, xi), (beta, alpha, xi)
            assert pair(got, xi) == 0
            along = beta.is_zero() or LinearForm(beta).parallel_to(form)
            assert got.is_zero() == along
            negative += pair(alpha, xi) < 0
            parallel += along
    assert negative > 20 and parallel > 20
    # a form with denominators, negative on xi, and a parallel beta
    form = LinearForm(Covector((Fraction(-1, 2), Fraction(2, 3))))
    xi = Vector((3, Fraction(1, 4)))
    assert project_covector(Covector((1, Fraction(-4, 3))), form, xi).is_zero()
    assert project_covector(Covector((0, 1)), form, xi) == Covector((Fraction(-3, 32), Fraction(9, 8)))
    with pytest.raises(ValueError, match="form vanishes on xi"):
        project_covector(Covector((0, 1)), form, Vector((4, 3)))


@pytest.mark.parametrize("project,first", [
    (project_covector, lambda n: Covector((1,) + (0,) * (n - 1))),
    (project_along, lambda n: Polynomial.variable(n, n - 1)),
], ids=["covector", "polynomial"])
def test_projections_refuse_arguments_of_different_dimensions(project, first):
    # zip over coordinates of different lengths would truncate to a wrong answer
    with pytest.raises(InputError, match="dimension mismatch"):
        project(first(3), LinearForm((1, 1)), Vector((1, 0)))
    with pytest.raises(InputError, match="dimension mismatch"):
        project(first(2), LinearForm((1, 1, 1)), Vector((1, 0)))
    with pytest.raises(InputError, match="dimension mismatch"):
        project(first(2), LinearForm((1, 1)), Vector((1, 0, 0)))


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


def test_residue_takes_a_plain_sequence_as_xi():
    rng = random.Random(17)
    forms = _random_independent_forms(rng, 3, 3)
    xi = _nonvanishing_xi(rng, forms, 3)
    f = _random_poly(rng, 3, 5)
    for method in ("series", "formula"):
        want = residue(f, forms, xi, method=method)
        assert residue(f, forms, list(xi), method=method) == want
        assert residue(f, forms, tuple(xi), method=method) == want
    g, alphas = Polynomial(2, {(3, 0): 1, (1, 2): -2}), [(1, 0), (1, 1)]
    assert residue(g, alphas, [1, 2]) == residue(g, alphas, Vector((1, 2)))


def test_constructors_return_an_argument_of_their_own_type():
    c, v = Covector((1, Fraction(-2, 3))), Vector((Fraction(1, 2), 0))
    f = LinearForm(c)
    assert Covector(c) is c and Vector(v) is v and LinearForm(f) is f
    assert LinearForm(c).covector is c
    # another coordinate type is rebuilt, not passed through
    assert Covector(v) == Covector(v.coords)


def test_a_form_keeps_a_covector_without_rebuilding_it(monkeypatch):
    built = []
    real = Covector.__new__

    def counted(cls, coords):
        built.append(coords)
        return real(cls, coords)

    monkeypatch.setattr(Covector, "__new__", staticmethod(counted))
    c = Covector((2, -4))
    assert built == [(2, -4)]
    f = LinearForm(c)
    assert f.covector is c and f.canonical == (1, -2) and built == [(2, -4)]
    assert LinearForm([2, -4]) == f and built == [(2, -4), [2, -4]]


def test_residue_takes_forms_and_covectors_alike():
    rng = random.Random(23)
    for _ in range(20):
        n = rng.choice((2, 3))
        forms = _random_independent_forms(rng, n, rng.randint(1, 3))
        xi = _nonvanishing_xi(rng, forms, n)
        f = _random_poly(rng, n, 4)
        covs = [form.covector for form in forms]
        for method in ("series", "formula"):
            assert residue(f, forms, xi, method=method) == residue(f, covs, xi, method=method)


def test_copy_and_pickle_keep_type_and_equality(cp2):
    from gkmcalc.cohomology import CohClass

    c = Covector((Fraction(3, 4), -2))
    cls = CohClass(1, {v: Polynomial.from_covector(c) for v in cp2.vertices})
    cp2.form("1", "2")  # a filled form cache travels with the pair
    objects = [
        c,
        Vector((0, Fraction(-5, 7))),
        LinearForm(c),
        Polynomial(2, {(2, 1): Fraction(1, 3), (0, 0): -4}),
        cp2,
        cls,
    ]
    for obj in objects:
        for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert type(twin) is type(obj) and twin == obj


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
    assert _horner_residue_series(f, forms, xi, basis=basis_a) == default
    assert _horner_residue_series(f, forms, xi, basis=basis_b) == default


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


def _partial_fraction_oracle(f_coeffs, zs, n):
    """sum_i f(z_i) / prod_{j != i} (z_i - z_j) as the x**(d-1) coefficient of f mod prod(x - z_i)."""
    x = sympy.Symbol("x")
    lift = lambda v: (to_sympy(v).as_expr() if isinstance(v, Polynomial)
                      else sympy.Rational(str(as_fraction(v))))
    f = sum((lift(c) * x**r for r, c in enumerate(f_coeffs)), sympy.Integer(0))
    rem = sympy.rem(f, sympy.prod([x - lift(z) for z in zs]), x)
    return sympy.Poly(sympy.expand(rem).coeff(x, len(zs) - 1), *_gens(n), domain="QQ")


def test_residue_partial_fractions_on_constant_polynomial_differences():
    y0, y1 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    base = y0 + y1.scaled(2)
    one = Polynomial.constant(2, 1)
    cases = [
        ([y1, 3, y0 * y1, 1], [base, base + one, base - one.scaled(Fraction(1, 2))]),
        ([y0, "1/2", y1, 0, y0 - y1], [base, base + one.scaled(4)]),
        ([2, y0 * y0], [y0, y0 + one, y0 - one, y0 + one.scaled(3)]),
        ([y0 * y1 * y1, Fraction(-2, 3)], [base, base + one]),
    ]
    for f_coeffs, zs in cases:
        got = residue_partial_fractions(f_coeffs, zs)
        assert type(got) is Polynomial and got.n == 2
        assert_matches(got, _partial_fraction_oracle(f_coeffs, zs, 2))
    # below the critical degree the residue is 0
    assert residue_partial_fractions([y0, 1], [base, base + one, base + one.scaled(2)]).is_zero()
    assert residue_partial_fractions([], [base, base + one]) == Polynomial.zero(2)


def test_residue_partial_fractions_errors_in_order():
    y = Polynomial.variable(2, 0)
    with pytest.raises(InputError, match="bad rational '1/0'"):
        residue_partial_fractions(["1/0"], [y, y])
    with pytest.raises(ValueError, match="z values 0 and 2 coincide"):
        residue_partial_fractions([1], [y, y * y, y])
    with pytest.raises(ValueError, match="z values 1 and 2 coincide"):
        residue_partial_fractions([1], [0, 1, 1])
    with pytest.raises(ValueError, match="^z differences must be constant or homogeneous linear$"):
        residue_partial_fractions([1], [y, y * y])
    with pytest.raises(ValueError, match="^z differences must be constant or homogeneous linear$"):
        residue_partial_fractions([1], [y * y, Polynomial.zero(2)])
    with pytest.raises(ValueError, match="^z differences must be constant or homogeneous linear$"):
        residue_partial_fractions([1], [y, y.scaled(2), 1])
    with pytest.raises(TypeError):
        residue_partial_fractions([0.5], [1, 2])


def test_residue_partial_fractions_of_plain_rationals_is_a_fraction():
    cases = [
        ([0, 0, 1], [1, 2]),
        (["1/2", -3, Fraction(5, 4), 2], ["1/3", 2, Fraction(-5, 2)]),
        ([7], [0, 1]),
        ([], [1, 2]),
        ([Fraction(2, 3)], []),
        ([1, 1], [Fraction(1, 7)]),
    ]
    for f_coeffs, zs in cases:
        got = residue_partial_fractions(f_coeffs, zs)
        want = _partial_fraction_oracle(f_coeffs, zs, 1).as_expr()
        assert type(got) is Fraction and got == Fraction(int(want.p), int(want.q))


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


def test_polynomiality_detector_refuses_a_denominator_that_vanishes_on_xi():
    x0, x1 = LinearForm(Covector((1, 0))), LinearForm(Covector((0, 1)))
    lsum = LocalizedSum(2, (LocalizedTerm(x0.polynomial(), (x0, x1)),))
    with pytest.raises(ValueError, match="denominator 1 vanishes on xi"):
        is_polynomial_via_residues(lsum, Vector((1, 0)), Covector((1, 1)), 2)


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


def _split_by_variable(f, j):
    """The former Polynomial.split_by_variable: f = sum_r x_j^r * part[r], x_j absent from each part."""
    parts = {}
    for exp, q in f.terms():
        parts.setdefault(exp[j], {})[exp[:j] + (0,) + exp[j + 1:]] = q
    return {r: Polynomial(f.n, t) for r, t in parts.items()}


def _reduce_mod_line_oracle(f: Polynomial, form: LinearForm) -> Polynomial:
    """The former reduce_mod_line, kept verbatim as an oracle.

    The pivot variable is replaced by its solution of the form, one
    power of that solution per power of the pivot.
    """
    if f.n != form.n:
        raise ValueError("ring dimension mismatch")
    j = form.pivot()
    c = form.canonical
    rep_terms = {}
    for i, ci in enumerate(c):
        if i != j and ci:
            exp = tuple(1 if t == i else 0 for t in range(f.n))
            rep_terms[exp] = Fraction(-ci, c[j])
    rep = Polynomial(f.n, rep_terms)
    parts = _split_by_variable(f, j)
    out = Polynomial.zero(f.n)
    power = Polynomial.constant(f.n, 1)
    for r in range(max(parts) + 1 if parts else 0):
        if r:
            power = power * rep
        part = parts.get(r)
        if part is not None:
            out = out + part * power
    return out


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
    line = Polynomial.from_covector(form.canonical_covector())
    quotient = Polynomial.zero(f.n)
    remainder = f
    while True:
        parts = _split_by_variable(remainder, j)
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


@seed(20261018)
@settings(max_examples=300, deadline=None)
@given(divisions())
def test_reduce_mod_line_matches_the_substitution_oracle(case):
    form, f, _ = case
    got, want = reduce_mod_line(f, form), _reduce_mod_line_oracle(f, form)
    assert got == want and got.to_json() == want.to_json()


@st.composite
def line_divisions(draw):
    """n = 1..4, a possibly non-primitive rational form and an integer numerator map."""
    n = draw(st.integers(1, 4))
    canonical = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n).filter(any))
    scale = draw(st.fractions(-3, 3, max_denominator=4).filter(bool))
    form = LinearForm(Covector([scale * c for c in canonical]))
    exps = st.lists(st.integers(0, n - 1), max_size=6).map(
        lambda idx: tuple(idx.count(i) for i in range(n)))
    f = draw(st.dictionaries(exps, st.integers(-9, 9).filter(bool), max_size=6))
    return form, Polynomial(n, f)


@seed(20261018)
@settings(max_examples=300, deadline=None)
@given(line_divisions())
@example((LinearForm(Covector((1, -1))), Polynomial(2, {(0, 3): 1, (1, 1): -2})))
@example((LinearForm(Covector((2, -4, 0))), Polynomial(3, {(0, 1, 2): 5, (1, 2, 0): 1})))
@example((LinearForm(Covector((0, 3, 0, -6))), Polynomial(4, {(0, 0, 0, 3): 2, (1, 0, 1, 1): -1})))
@example((LinearForm(Covector((Fraction(-5, 3),))), Polynomial(1, {(5,): 7})))
@example((LinearForm(Covector((1, 2, 3))), Polynomial.zero(3)))
def test_divide_by_line_is_a_division_with_remainder(case):
    """lift * f = line * quotient + remainder on integer numerators, x_j absent from the remainder.

    The examples pin a negative c_j with odd x_j-degree (c_j = -1, then -2
    with lift -8), a non-primitive form whose pivot is not the last
    coordinate, a rational form in one variable, and f = 0.
    """
    form, f = case
    n, c = f.n, form.canonical
    j = form.pivot()
    quotient, remainder, lift = _divide_by_line(f._terms, n, form)
    top = max((exp[j] for exp, _ in f.terms()), default=0)
    assert lift == c[j] ** top
    assert all(type(a) is int and a for t in (quotient, remainder) for a in t.values())
    line = Polynomial(n, {_unit_exp(n, i): ci for i, ci in enumerate(c) if ci})
    q, r = Polynomial._raw(n, quotient), Polynomial._raw(n, remainder)
    assert f.scaled(f._den * lift) == line * q + r
    assert all(exp[j] == 0 for exp, _ in r.terms())
    assert (not remainder) == (_long_division_oracle(form, f) is not None)


def _normal_form_oracle(pair, values):
    """is_class as it was: the first edge whose difference has a nonzero normal form."""
    for p, q in pair.edges:
        if not _reduce_mod_line_oracle(values[p] - values[q], pair.form(p, q)).is_zero():
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


# --- integer coordinates against plain Fraction tuples -----------------------


def _primitive_oracle(coords):
    """LinearForm's canonical key and scale as built on Fraction coordinates, frozen.

    The nonzero coordinates are cleared to integers, divided by their gcd
    and signed so the first nonzero entry is positive.
    """
    nonzero = {i: c for i, c in enumerate(coords) if c}
    i0 = min(nonzero)
    den = math.lcm(*(c.denominator for c in nonzero.values()))
    row = {i: c.numerator * (den // c.denominator) for i, c in nonzero.items()}
    g = math.gcd(*row.values()) if row[i0] > 0 else -math.gcd(*row.values())
    ints = {i: x // g for i, x in row.items()}
    return tuple(ints.get(i, 0) for i in range(len(coords))), coords[i0] / ints[i0]


@st.composite
def spelled(draw, n):
    """n rationals with mixed denominators, each spelled as an int, a string or a Fraction."""
    values = draw(st.lists(st.fractions(-6, 6, max_denominator=8), min_size=n, max_size=n))
    out = []
    for q in values:
        kind = draw(st.sampled_from(("fraction", "str", "int")))
        k = draw(st.integers(1, 3))
        if kind == "int" and q.denominator == 1:
            out.append(int(q))
        elif kind == "str":
            out.append(f" {q.numerator * k}/{q.denominator * k}")
        else:
            out.append(q)
    return values, out


@seed(20261018)
@kernel_settings
@given(st.integers(0, 4).flatmap(lambda n: st.tuples(spelled(n), spelled(n))), coefs)
def test_coordinates_match_fraction_tuples(case, q):
    (a, a_in), (b, b_in) = case
    for cls in (Covector, Vector):
        u, v = cls(a_in), cls(b_in)
        assert u.n == len(a) and u.coords == tuple(a) and list(u) == a
        assert [u[i] for i in range(u.n)] == a
        assert all(type(c) is Fraction for c in (*u.coords, *u))
        assert u.is_zero() == (not any(a))
        assert (u + v).coords == tuple(x + y for x, y in zip(a, b))
        assert (u - v).coords == tuple(x - y for x, y in zip(a, b))
        assert (-u).coords == tuple(-x for x in a)
        assert u.scaled(q).coords == tuple(q * x for x in a)
        assert repr(u) == f"{cls.__name__}({', '.join(str(x) for x in a)})"
        # equal values built from other spellings or by arithmetic are equal objects
        for w in (cls(a), u + v - v, u.scaled(3).scaled(Fraction(1, 3)), -(-u)):
            assert w == u and hash(w) == hash(u) and repr(w) == repr(u)
    got = pair(Covector(a_in), Vector(b_in))
    assert type(got) is Fraction and got == sum((x * y for x, y in zip(a, b)), Fraction(0))
    if any(a):
        form = LinearForm(Covector(a_in))
        assert (form.canonical, form.scale) == _primitive_oracle(a)
        assert all(type(c) is int for c in form.canonical) and type(form.scale) is Fraction


def test_coordinate_spellings_and_rejections():
    half = Covector(("1/2", Fraction(-3, 6), 2))
    assert half == Covector((Fraction(2, 4), "-2/4", "4/2"))
    assert hash(half) == hash(Covector(("2/4", "-1/2", Fraction(2))))
    assert half != Vector(half.coords) and Covector(()) == Covector([])
    assert Covector((0, "0/5")) == Covector((0, 0)) and Covector((0, 0)).is_zero()
    for bad in (0.5, True, None):
        with pytest.raises(TypeError):
            Covector((1, bad))
        with pytest.raises(TypeError):
            half.scaled(bad)


@seed(20261020)
@kernel_settings
@given(st.integers(0, 3).flatmap(lambda n: st.tuples(st.just(n), st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * n), st.integers(-12, 12).filter(bool), max_size=5))),
    st.integers(1, 12))
def test_raw_takes_a_denominator_of_either_sign(case, d):
    n, spec = case
    terms = {pack_monomial(e): c for e, c in spec.items()}
    neg = Polynomial._raw(n, dict(terms), -d)
    assert neg == Polynomial._raw(n, {k: -c for k, c in terms.items()}, d) and neg._den > 0
    assert neg == Polynomial(n, {e: Fraction(-c, d) for e, c in spec.items()})
    num = tuple(spec.values())
    for cls in (Covector, Vector):
        u = cls._raw(num, -d)
        assert u == cls._raw(tuple(-a for a in num), d) and u._den > 0
        assert u.coords == tuple(Fraction(-a, d) for a in num)


# --- linear normal forms on covectors -----------------------------------------
# The library compares star residues as integer tuples; the covector normal
# form it is checked against is the `reduce_covector_mod_line` fixture.


def _unit_exp(n, i):
    return tuple(int(t == i) for t in range(n))


def _assert_normal_form_matches(reduce_covector_mod_line, cov, form):
    got = reduce_covector_mod_line(cov, form)
    want = reduce_mod_line(Polynomial.from_covector(cov), form)
    assert type(got) is Covector and got.n == cov.n
    assert got.coords == tuple(want.coefficient(_unit_exp(cov.n, i)) for i in range(cov.n))
    assert Polynomial.from_covector(got) == want
    assert got[form.pivot()] == 0
    return got


@st.composite
def _normal_form_cases(draw):
    n = draw(st.integers(1, 4))
    entries = st.lists(st.fractions(-4, 4, max_denominator=5), min_size=n, max_size=n)
    form = LinearForm(Covector(draw(entries.filter(any))))
    cov = Covector(draw(entries))
    if draw(st.booleans()):
        # a parallel covector plus a small multiple of another: often a zero result
        cov = form.covector.scaled(draw(coefs)) + cov.scaled(draw(st.sampled_from((0, 1))))
    return cov, form


@seed(20261018)
@kernel_settings
@given(_normal_form_cases())
def test_reduce_covector_mod_line_matches_reduce_mod_line(reduce_covector_mod_line, case):
    _assert_normal_form_matches(reduce_covector_mod_line, *case)


def test_reduce_covector_mod_line_on_zeros_pivots_and_one_variable(reduce_covector_mod_line):
    def check(cov, form):
        return _assert_normal_form_matches(reduce_covector_mod_line, cov, form)

    neg = LinearForm(Covector((2, 0, -6)))  # canonical (1, 0, -3): negative pivot
    assert neg.pivot() == 2 and neg.canonical[2] < 0
    assert check(Covector((1, 1, 1)), neg) == Covector((Fraction(4, 3), 1, 0))
    assert check(Covector(("-1/3", 0, 1)), neg).is_zero()
    assert check(Covector((0, 0, 0)), neg).is_zero()
    half = LinearForm(Covector(("1/2", "-3/4")))
    got = check(Covector(("2/3", "5/7")), half)
    assert got == Covector((Fraction(2, 3) + Fraction(5, 7) * Fraction(2, 3), 0))
    one = LinearForm(Covector(("-5/3",)))
    for c in ((7,), ("2/9",), (0,)):
        assert check(Covector(c), one) == Covector((0,))
    with pytest.raises(ValueError):
        reduce_covector_mod_line(Covector((1, 2)), one)


def _simplify_oracle(lsum):
    """The former simplify, kept verbatim as an oracle.

    Polynomial products by canonical line polynomials to clear, then
    divides_exactly per canonical line to cancel.
    """
    n = lsum.n
    cleaned = []
    canon_forms = {}
    for term in lsum.terms:
        if term.numerator.is_zero():
            continue
        num = term.numerator
        mult = {}
        scale = Fraction(1)
        for form in term.denominators:
            key = form.canonical
            if key not in canon_forms:
                canon_forms[key] = LinearForm(form.canonical_covector())
            mult[key] = mult.get(key, 0) + 1
            scale *= form.scale
        cleaned.append((num.scaled(1 / scale), mult))
    if not cleaned:
        return Polynomial.zero(n), ()
    lcd = {}
    for _, mult in cleaned:
        for key, m in mult.items():
            lcd[key] = max(lcd.get(key, 0), m)
    lines = {key: Polynomial.from_covector(canon_forms[key].canonical_covector()) for key in lcd}
    numerator = Polynomial.zero(n)
    for num, mult in cleaned:
        piece = num
        for key, m in lcd.items():
            for _ in range(m - mult.get(key, 0)):
                piece = piece * lines[key]
        numerator = numerator + piece
    remaining = {k: m for k, m in lcd.items() if m}
    for key in sorted(remaining):
        form = canon_forms[key]
        while remaining[key] > 0 and not numerator.is_zero():
            q = divides_exactly(form, numerator)
            if q is None:
                break
            numerator = q
            remaining[key] -= 1
    if numerator.is_zero():
        return Polynomial.zero(n), ()
    denoms = []
    for key in sorted(remaining):
        denoms.extend(canon_forms[key] for _ in range(remaining[key]))
    return numerator, tuple(denoms)


def _assert_simplify_matches_oracle(lsum):
    got, want = simplify(lsum), _simplify_oracle(lsum)
    assert got == want and got[0].to_json() == want[0].to_json(), lsum
    return got


def test_simplify_builds_each_canonical_line_once():
    x, y, z = (Covector(_unit_exp(3, i)) for i in range(3))
    forms = [LinearForm(c) for c in (x, y, x - y, (y + z).scaled(2), z)]
    one = Polynomial.constant(3, 1)
    terms = [
        LocalizedTerm(one, (forms[0],)),
        LocalizedTerm(Polynomial.variable(3, 1), (forms[1], forms[1], forms[2])),
        LocalizedTerm(one.scaled(-3), (forms[2], forms[2], forms[3])),
        LocalizedTerm(Polynomial.variable(3, 2), (forms[3], forms[3], forms[4], forms[0])),
    ]
    lsum = LocalizedSum(3, tuple(terms))
    numerator, denominators = _assert_simplify_matches_oracle(lsum)
    point = (Fraction(2), Fraction(5, 3), Fraction(-7, 2))
    value = numerator.evaluate(point)
    for form in denominators:
        value /= form.polynomial().evaluate(point)
    assert value == lsum.evaluate(point)


_SCALES = [Fraction(s) for s in ("1", "-1", "2", "-3", "1/2", "-2/3", "3/4")]


def _random_localized_sum(rng, n, seen):
    """A sum over a few lines, each form a random (negative, fractional) multiple of one.

    Half the sums end in a term that makes the whole sum a chosen
    polynomial h (zero when h is), so full cancellation is common.
    """
    lines, count = [], rng.randint(1, 3) if n > 1 else 1
    while len(lines) < count:
        c = tuple(rng.randint(-2, 2) for _ in range(n))
        if any(c) and LinearForm(Covector(c)).canonical not in {
                LinearForm(Covector(d)).canonical for d in lines}:
            lines.append(c)

    def form(line):
        scale = rng.choice(_SCALES)
        return LinearForm(Covector(c * scale for c in line))

    def poly(degree):
        exps = [tuple(rng.randint(0, degree) for _ in range(n)) for _ in range(rng.randint(1, 3))]
        return Polynomial(n, {e: rng.choice(_SCALES) * rng.randint(1, 5) for e in exps})

    terms = []
    for _ in range(rng.randint(1, 4)):
        dens = tuple(form(rng.choice(lines)) for _ in range(rng.randint(0, 3)))
        kind = rng.choice(("zero", "any", "any", "multiple"))
        if kind == "zero":
            num = Polynomial.zero(n)
        else:
            num = poly(2)
            if kind == "multiple":
                for d in dens[: rng.randint(1, 2)]:
                    num = num * d.polynomial()
        terms.append(LocalizedTerm(num, dens))
    if rng.random() < 0.5:
        # last term: h * prod(last) - sum_i num_i * prod(last) / prod(dens_i), so the sum is h
        lcd = {}
        for t in terms:
            mult = {}
            for d in t.denominators:
                mult[d.canonical] = mult.get(d.canonical, 0) + 1
            for key, m in mult.items():
                lcd[key] = max(lcd.get(key, 0), m)
        last = tuple(form(key) for key, m in lcd.items() for _ in range(m))
        full = Polynomial.constant(n, 1)
        for d in last:
            full = full * d.polynomial()
        h = rng.choice((Polynomial.zero(n), poly(1), poly(2)))
        num = h * full
        for t in terms:
            cofactor = full
            for d in t.denominators:
                cofactor = divides_exactly(d, cofactor)
            num = num - t.numerator * cofactor
        terms.append(LocalizedTerm(num, last))
        seen["collapses"] += 1
    canon = [d.canonical for t in terms for d in t.denominators]
    scales = [d.scale for t in terms for d in t.denominators]
    seen["parallel"] += any(canon.count(c) > 1 for c in canon) and any(
        s < 0 for s in scales) and any(s.denominator > 1 for s in scales)
    seen["repeated"] += any(
        len({d.canonical for d in t.denominators}) < len(t.denominators) for t in terms)
    seen["zero term"] += any(t.numerator.is_zero() for t in terms)
    return LocalizedSum(n, tuple(terms))


def test_simplify_matches_the_former_simplify_on_seeded_sums():
    rng = random.Random(20261019)
    seen = dict.fromkeys(("collapses", "parallel", "repeated", "zero term"), 0)
    outcomes = {"zero": 0, "polynomial": 0, "leftover": 0}
    ns = set()
    for _ in range(320):
        n = rng.randint(1, 4)
        ns.add(n)
        lsum = _random_localized_sum(rng, n, seen)
        numerator, denominators = _assert_simplify_matches_oracle(lsum)
        has_dens = any(t.denominators for t in lsum.terms)
        if numerator.is_zero():
            outcomes["zero"] += has_dens
        else:
            outcomes["leftover" if denominators else "polynomial"] += has_dens
    assert ns == {1, 2, 3, 4}
    assert min(seen.values()) >= 20 and min(outcomes.values()) >= 20, (seen, outcomes)


def test_simplify_degree_limit_counts_the_lines_a_term_already_has():
    # x^d / y + 1 / (x + y): clearing gives x^(d+1) + x^d y + y, of degree d + 1
    y, s = LinearForm(Covector((0, 1))), LinearForm(Covector((1, 1)))

    def lsum(d, power=1):
        terms = (LocalizedTerm(Polynomial(2, {(d, 0): 1}), (y,)),
                 LocalizedTerm(Polynomial.constant(2, 1), (s,) * power))
        return LocalizedSum(2, terms)

    numerator, denominators = _assert_simplify_matches_oracle(lsum(MAX_DEGREE - 1))
    assert numerator.total_degree() == MAX_DEGREE
    assert denominators == (LinearForm(Covector((0, 1))), LinearForm(Covector((1, 1))))
    # lines are multiplied in one at a time, so the first degree past the limit is reported
    for simplifier in (simplify, _simplify_oracle):
        for power in (1, 2):
            with pytest.raises(InputError) as err:
                simplifier(lsum(MAX_DEGREE, power))
            assert str(err.value) == "total degree 65536 is above the limit 65535 of monomial keys"


# --- packed monomial keys, and substitution against the Horner oracle ----------


def _horner_oracle(f, images):
    """The former Polynomial.substitute, kept verbatim as an oracle.

    Horner's scheme through Polynomial products and sums on exponent-tuple
    terms; only its reads of the term map go through ``terms()``.
    """
    for img in images.values():
        if img.n != f.n:
            raise ValueError("substitution images must live in the same ring")
    order = sorted(images)

    def split(terms, j):
        parts = {}
        for exp, c in terms.items():
            parts.setdefault(exp[j], {})[exp[:j] + (0,) + exp[j + 1 :]] = c
        return parts

    def horner(terms, depth):
        if depth == len(order):
            return Polynomial(f.n, terms)
        image = images[order[depth]]
        parts = split(terms, order[depth])
        top = max(parts)
        acc = horner(parts[top], depth + 1)
        for r in range(top - 1, -1, -1):
            acc = acc * image
            part = parts.get(r)
            if part is not None:
                acc = acc + horner(part, depth + 1)
        return acc

    if f.is_zero():
        return f
    return horner(dict(f.terms()), 0)


@st.composite
def substitutions(draw):
    """f in n = 0..4 variables, each image linear, arbitrary, zero or absent, over its own denominator."""
    n = draw(st.integers(0, 4))
    exps = st.tuples(*[st.integers(0, 3)] * n)
    polys = st.dictionaries(exps, coefs, max_size=5).map(lambda d: Polynomial(n, d))
    f = draw(st.one_of(polys, st.just(Polynomial.zero(n))))
    images = {}
    for i in range(n):
        kind = draw(st.sampled_from(("linear", "any", "zero", "none")))
        if kind == "none":
            continue
        img = draw(polys) if kind != "zero" else Polynomial.zero(n)
        if kind == "linear":
            img = Polynomial(n, {e: q for e, q in img.terms() if sum(e) == 1})
        images[i] = img.scaled(Fraction(1, draw(st.integers(1, 9))))
    return f, images


@seed(20261018)
@settings(max_examples=300, deadline=None)
@given(substitutions())
def test_substitute_matches_the_horner_oracle(case):
    f, images = case
    got, want = f.substitute(images), _horner_oracle(f, images)
    assert got == want
    assert got.to_json() == want.to_json() and repr(got) == repr(want)


def test_substitute_skips_a_term_whose_image_is_zero():
    # (y**2)**65534 alone is past the limit, but its term is multiplied by a zero image
    y2 = Polynomial(2, {(0, 2): 1})
    images = {0: y2, 1: Polynomial.zero(2)}
    for f, want in ((Polynomial(2, {(MAX_DEGREE - 1, 1): 1}), Polynomial.zero(2)),
                    (Polynomial(2, {(MAX_DEGREE - 1, 1): 1, (1, 0): 3}), y2.scaled(3))):
        assert f.substitute(images) == _horner_oracle(f, images) == want


@seed(20261018)
@kernel_settings
@given(st.integers(0, 4).flatmap(lambda n: st.dictionaries(
    st.tuples(*[st.sampled_from((0, 1, 2, 3, 255, 256, MAX_DEGREE // 4))] * n), coefs,
    max_size=8)))
def test_terms_follow_the_tuple_grlex_sort(spec):
    """Small exponents tie on degree often; the larger ones reach the high bits of a field."""
    n = len(next(iter(spec), ()))
    p = Polynomial(n, spec)
    nonzero = {e: q for e, q in spec.items() if q}
    assert p.terms() == sorted(nonzero.items(), key=lambda t: grlex_key(t[0]), reverse=True)
    for exp, q in nonzero.items():
        assert p.coefficient(exp) == q
    assert Polynomial.from_json(p.to_json()) == p
    assert p.total_degree() == max((sum(e) for e in nonzero), default=-1)


def test_coefficient_of_absent_negative_or_mis_sized_exponents_is_zero():
    p = Polynomial(2, {(1, 2): "3/4", (MAX_DEGREE, 0): 1, (0, 0): -1})
    cases = [(2, 1), (0, 1), (-1, 3), (1, -1), (1,), (1, 2, 0), (), (MAX_DEGREE + 1, 0),
             (1, MAX_DEGREE), (MAX_DEGREE, 0, 0)]
    for exp in cases:
        got = p.coefficient(exp)
        assert type(got) is Fraction and got == 0, exp
    assert p.coefficient([1, 2]) == Fraction(3, 4) and p.coefficient((MAX_DEGREE, 0)) == 1
    assert Polynomial.constant(0, 5).coefficient((0,)) == 0


def test_exponents_above_the_limit_are_refused():
    top = (MAX_DEGREE, 0)
    x = Polynomial(2, {top: 2})
    assert x.terms() == [(top, 2)] and x.homogeneous_degree() == MAX_DEGREE
    for spec in ({(MAX_DEGREE + 1, 0): 1}, {(MAX_DEGREE, 1): 1}, {(10**12, 0): 1}):
        with pytest.raises(InputError, match=str(MAX_DEGREE)):
            Polynomial(2, spec)
    with pytest.raises(InputError, match=str(MAX_DEGREE)):
        Polynomial.from_json({"n": 1, "terms": [{"exp": [10**12], "coef": "1"}]})
    # products and substitutions reaching the limit exactly are exact, one past it raises
    half = Polynomial(2, {(MAX_DEGREE // 2, 0): 1})
    y = Polynomial.variable(2, 1)
    at_limit = half * Polynomial(2, {(MAX_DEGREE - MAX_DEGREE // 2 - 1, 1): 1})
    assert at_limit.terms() == [((MAX_DEGREE - 1, 1), 1)]
    assert (half * half).terms() == [((2 * (MAX_DEGREE // 2), 0), 1)]
    for bad in (lambda: x * y, lambda: half**3, lambda: y * x,
                lambda: (at_limit + y).substitute({1: y * y}),
                lambda: half.substitute({0: y * y * y})):
        with pytest.raises(InputError, match=str(MAX_DEGREE)):
            bad()
    assert x.substitute({0: y}).terms() == [((0, MAX_DEGREE), 2)]
    assert x.substitute({1: y * y}) == x
    assert x.substitute({0: Polynomial.zero(2)}).is_zero()
    assert half.substitute({0: y * y}).terms() == [((0, 2 * (MAX_DEGREE // 2)), 1)]
    assert (x * Polynomial.constant(2, 3)).coefficient(top) == 6


def _from_json_oracle(obj):
    """Polynomial.from_json as it parsed through Polynomial.__init__, frozen: (n, {exp: q})."""
    if not isinstance(obj, Mapping) or "n" not in obj or "terms" not in obj:
        raise ValueError("polynomial object needs 'n' and 'terms'")
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError("'n' must be a nonnegative integer")
    terms = []
    for entry in obj["terms"]:
        if not isinstance(entry, Mapping) or "exp" not in entry or "coef" not in entry:
            raise ValueError("each term needs 'exp' and 'coef'")
        exp = entry["exp"]
        if not isinstance(exp, (list, tuple)) or any(
            not isinstance(e, int) or isinstance(e, bool) or e < 0 for e in exp
        ):
            raise ValueError(f"bad exponent list {exp!r}")
        terms.append((tuple(exp), as_fraction(entry["coef"])))
    acc = {}
    for exp, coef in terms:
        exp = tuple(int(e) for e in exp)
        if len(exp) != n or any(e < 0 for e in exp):
            raise ValueError(f"bad exponent tuple {exp!r} for n={n}")
        if sum(exp) > MAX_DEGREE:  # pack_monomial's check
            raise InputError(
                f"total degree {sum(exp)} is above the limit {MAX_DEGREE} of monomial keys")
        q = as_fraction(coef)
        if q:
            prev = acc.get(exp)
            total = q if prev is None else prev + q
            if total:
                acc[exp] = total
            elif prev is not None:
                del acc[exp]
    return n, acc


def _spelling(rnd):
    """A coefficient as a JSON file may spell it: mostly exact, sometimes not."""
    roll = rnd.random()
    if roll < 0.4:
        return rnd.randint(-6, 6)
    if roll < 0.9:
        return rnd.choice(["{}/{}", " {}/{} ", "\t{}/{}\n"]).format(rnd.randint(-9, 9),
                                                                  rnd.randint(1, 9))
    return rnd.choice(["-0/5", "+1", "1_000", "1/-3", "2/0", "abc", "", "1.5", "1e2", 0.5, 2.0,
                       True, False, None, [1], Fraction(-7, 3)])


@st.composite
def polynomial_documents(draw):
    """Mostly well-formed documents, with duplicate monomials, zeros and every bad spelling."""
    rnd = random.Random(draw(st.integers(0, 2**32)))
    n = rnd.randint(0, 3) if rnd.random() < 0.9 else rnd.choice([-1, True, "2", 1.0, None])
    width = n if type(n) is int and n >= 0 else 2
    pool = [[rnd.randint(0, 4) for _ in range(width)] for _ in range(rnd.randint(1, 4))]
    odd_exps = [[0] * (width + 1), [0] * max(width - 1, 0), [-1] * width, [True] * width,
                [1.5] * width, "11", [40000] * width, [65536] + [0] * (width - 1),
                [MAX_DEGREE] + [0] * (width - 1)]
    odd_entries = [{}, {"exp": [0] * width}, {"coef": "1"}, [], "term"]
    terms = []
    for _ in range(rnd.randint(0, 6)):
        roll = rnd.random()
        exp = rnd.choice(odd_exps) if roll < 0.05 else rnd.choice(pool)
        entry = {"exp": exp, "coef": _spelling(rnd)}
        terms.append(rnd.choice(odd_entries) if roll > 0.97 else entry)
    if rnd.random() < 0.03:
        return rnd.choice([{"n": n}, {"terms": []}, [], "poly", {"n": n, "terms": 5}])
    return {"n": n, "terms": terms}


@seed(20261018)
@settings(max_examples=600, deadline=None)
@given(polynomial_documents())
def test_from_json_parses_exactly_as_before(doc):
    try:
        expected = _from_json_oracle(doc)
    except Exception as err:  # the oracle's refusal, compared below
        with pytest.raises(type(err)) as got:
            Polynomial.from_json(doc)
        assert type(got.value) is type(err) and str(got.value) == str(err)
        return
    p = Polynomial.from_json(doc)
    assert (p.n, dict(p.terms())) == expected
    nums = list(p._terms.values())
    assert p._den > 0 and math.gcd(p._den, *nums) == 1 and all(nums)
    assert p == Polynomial(*expected) and Polynomial.from_json(p.to_json()) == p


def test_from_json_spellings_and_limits():
    doc = {"n": 2, "terms": [{"exp": [1, 0], "coef": " 3/4 "}, {"exp": [0, 1], "coef": 0},
                             {"exp": [1, 0], "coef": "-1/4"}, {"exp": [1, 1], "coef": "2/6"},
                             {"exp": [1, 1], "coef": "-1/3"}, {"exp": [0, 0], "coef": -2}]}
    p = Polynomial.from_json(doc)
    assert p.terms() == [((1, 0), Fraction(1, 2)), ((0, 0), Fraction(-2))]
    assert (p._terms, p._den) == (Polynomial(2, {(1, 0): "1/2", (0, 0): -2})._terms, 2)
    for coef in (0.5, True, None):
        with pytest.raises(TypeError):
            Polynomial.from_json({"n": 1, "terms": [{"exp": [1], "coef": coef}]})
    with pytest.raises(InputError, match="65535"):
        Polynomial.from_json({"n": 2, "terms": [{"exp": [40000, 30000], "coef": "1"}]})
    assert Polynomial.from_json({"n": 0, "terms": []}) == Polynomial.zero(0)


# --- the rational parser against Fraction ------------------------------------

_RATIONAL_CHARS = "0123456789+-/ _.eE\t\n\u3000３٣²"
rational_texts = st.one_of(
    st.text(alphabet=_RATIONAL_CHARS, max_size=8),
    st.from_regex(r"\A[ ]?[+-]?[0-9]{1,12}(/[0-9]{1,12})?[ ]?\Z"),
    st.text(max_size=6),
)


@seed(20261019)
@settings(max_examples=800, deadline=None)
@given(rational_texts)
@example("３")
@example("1_0")
@example(" -3/6 ")
@example("+3")
@example("-0")
@example("1.5")
@example("1e3")
@example("3/0")
@example("3 /4")
@example("9" * 5000)
@example("1/" + "9" * 5000)
def test_rational_parser_agrees_with_fraction(text):
    try:
        want = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(InputError) as refused:
            as_fraction(text)
        with pytest.raises(InputError) as got:
            _rational(text)
        assert str(got.value) == str(refused.value)
        return
    a, b = _rational(text)
    assert type(a) is int and type(b) is int and b > 0 and Fraction(a, b) == want


def test_rational_parser_refuses_what_as_fraction_refuses():
    for value in (1.5, 2.0, True, False, None, [1]):
        with pytest.raises(TypeError) as refused:
            as_fraction(value)
        with pytest.raises(TypeError) as got:
            _rational(value)
        assert str(got.value) == str(refused.value)
    assert _rational(-7) == (-7, 1) and _rational(Fraction(-6, 4)) == (-3, 2)


def _accepted(text) -> bool:
    try:
        Fraction(text)
    except (ValueError, ZeroDivisionError):
        return False
    return True


def _cleared(qs):
    """Fractions cleared to the lcm of their reduced denominators: (numerators, lcm)."""
    den = math.lcm(*(q.denominator for q in qs))
    return [q.numerator * (den // q.denominator) for q in qs], den


@seed(20261019)
@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(
    st.from_regex(r"\A[ ]?[+-]?[0-9]{1,6}(/[0-9]{1,6})?[ ]?\Z").filter(_accepted),
    st.sampled_from(["３", "1_0", " -3/6 ", "+3", "-0", "1.5", "1e3", "٣/4", "\t7\n"]).filter(_accepted),
    st.integers(-9, 9),
), min_size=1, max_size=6))
def test_loaders_store_what_the_fraction_route_stores(coefs):
    qs = [Fraction(c) for c in coefs]
    nums, den = _cleared(qs)
    cov = Covector(coefs)
    assert (list(cov._num), cov._den) == (nums, den)
    exps = [[i % 2, i % 3] for i in range(len(coefs))]
    p = Polynomial.from_json({"n": 2, "terms": [{"exp": e, "coef": c}
                                                for e, c in zip(exps, coefs)]})
    sums: dict = {}
    for e, q in zip(exps, qs):
        sums[tuple(e)] = sums.get(tuple(e), 0) + q
    kept = {e: q for e, q in sums.items() if q}
    nums, den = _cleared(list(kept.values()))
    want = {pack_monomial(e): a for e, a in zip(kept, nums)}
    assert (p._terms, p._den) == (want, den)


# --- the Taylor kernel against the frozen Horner routes -----------------------
# Verbatim copies of project_along and _residue_series (with its complement
# basis) as they were before both moved onto the integer Taylor kernel: a
# general linear substitution through Polynomial.substitute, and a Fraction
# basis inverse.


def _horner_project_along(f: Polynomial, form: LinearForm, xi: Vector) -> Polynomial:
    """Push f into the subring annihilating xi using the form's direction.

    Every generator beta goes to beta - (beta(xi)/form(xi)) * form, which is
    the identification of the form's kernel functions with functions on the
    annihilator of xi.  Requires form(xi) != 0.
    """
    n, a = f.n, form.covector._num
    s = sum(map(operator.mul, a, xi._num))
    if s == 0:
        raise ValueError("form vanishes on xi; projection undefined")
    if s < 0:
        s, a = -s, [-ai for ai in a]
    # on numerators, with S = sum a_i xi_i: x_k goes to (S x_k - xi_k sum_i a_i x_i) / S
    units = [_unit(n, i) for i in range(n)]
    images = {}
    for k, xk in enumerate(xi._num):
        if xk:
            coefs = (s * (i == k) - xk * ai for i, ai in enumerate(a))
            images[k] = Polynomial._raw(n, {u: c for u, c in zip(units, coefs) if c}, s)
    return f.substitute(images)


def _canonical_residue_basis(xi: Vector) -> tuple[Covector, list[Covector]]:
    """Complement basis for the annihilator of xi.

    x is the scaled coordinate covector with x(xi) = 1 at the first index
    where xi is nonzero; the y's are the remaining coordinate covectors
    corrected to kill xi.
    """
    coords = xi.coords
    j = next((i for i, c in enumerate(coords) if c), None)
    if j is None:
        raise ValueError("xi must be nonzero")
    n = xi.n
    x = Covector(tuple(1 / coords[j] if i == j else 0 for i in range(n)))
    ys = []
    for k in range(n):
        if k == j:
            continue
        ek = Covector(tuple(int(i == k) for i in range(n)))
        ys.append(ek - x.scaled(coords[k]))
    return x, ys


def _validate_residue_basis(xi: Vector, basis: tuple[Covector, Sequence[Covector]]):
    x, ys = basis
    if pair(x, xi) != 1:
        raise ValueError("basis covector x must satisfy x(xi) = 1")
    for y in ys:
        if pair(y, xi) != 0:
            raise ValueError("complement covectors must annihilate xi")
    rows = [list(x.coords)] + [list(y.coords) for y in ys]
    if len(rows) != xi.n or linalg.rank(rows, xi.n) != xi.n:
        raise ValueError("residue basis must span the dual space")
    return x, list(ys)


def _horner_residue_series(
    f: Polynomial,
    forms: Sequence[LinearForm],
    xi: Vector,
    basis: tuple[Covector, Sequence[Covector]] | None = None,
) -> Polynomial:
    """Coefficient of 1/x in the geometric-series expansion of f / prod(alpha).

    Works in internal coordinates where slot 0 is x and slots 1..n-1 are a
    basis of the annihilator of xi; the result is re-expanded into ambient
    coordinates, where it lies in the subring of functions killed by xi.
    """
    n = f.n
    if basis is None:
        x, ys = _canonical_residue_basis(xi)
    else:
        x, ys = _validate_residue_basis(xi, basis)
    matrix = [list(col) for col in zip(*(c.coords for c in [x] + ys))]
    inverse = linalg.invert(matrix)
    if inverse is None:
        raise ValueError("residue basis is singular")

    # coordinates of ambient e_k* in the (x, y) basis are column k of M^{-1}
    images = {k: Polynomial.from_covector(Covector(col)) for k, col in enumerate(zip(*inverse))}
    F = f.substitute(images)

    d = len(forms)
    ms = []
    betas = []
    for form in forms:
        alpha = form.covector
        m = pair(alpha, xi)
        coords = [
            sum((r * a for r, a in zip(row, alpha._num) if a), Fraction(0)) / alpha._den
            for row in inverse
        ]
        ms.append(m)
        betas.append(Polynomial.from_covector(Covector([0] + [-c / m for c in coords[1:]])))

    parts = _split_by_variable(F, 0)
    top = max(parts) if parts else 0
    mmax = top - d + 1
    if mmax < 0:
        return Polynomial.zero(n)
    series = [Polynomial.constant(n, 1)] + [Polynomial.zero(n)] * mmax
    for beta in betas:
        powers = [Polynomial.constant(n, 1)]
        for _ in range(mmax):
            powers.append(powers[-1] * beta)
        new = [Polynomial.zero(n) for _ in range(mmax + 1)]
        for a in range(mmax + 1):
            if series[a].is_zero():
                continue
            for b in range(mmax + 1 - a):
                new[a + b] = new[a + b] + series[a] * powers[b]
        series = new
    result = Polynomial.zero(n)
    for r, part in parts.items():
        m = r - d + 1
        if 0 <= m <= mmax:
            result = result + part * series[m]
    scale = Fraction(1)
    for m in ms:
        scale /= m
    result = result.scaled(scale)

    # back to ambient coordinates: slot 0 never survives, slots >= 1 expand
    back = {0: Polynomial.zero(n)}
    for b in range(1, n):
        back[b] = Polynomial.from_covector(ys[b - 1])
    return result.substitute(back)


small = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def directions(draw):
    """n = 1..4 and a nonzero xi, often with zero leading coordinates (pivot j > 0)."""
    n = draw(st.integers(1, 4))
    lead = draw(st.integers(0, n - 1))
    tail = draw(st.lists(small, min_size=n - lead - 1, max_size=n - lead - 1))
    return n, Vector((0,) * lead + (draw(small.filter(bool)),) + tuple(tail))


def _off_xi(cov, xi):
    """The covector, moved off xi's hyperplane along the pivot of xi if it lies on it."""
    if pair(cov, xi):
        return cov
    j = next(i for i, c in enumerate(xi) if c)
    return cov + Covector(tuple(int(i == j) for i in range(xi.n)))


@st.composite
def polynomials(draw, n, degree):
    """Zero for degree -1, else a term of that degree and up to five terms below it."""
    if degree < 0:
        return Polynomial.zero(n)

    def monomial(size):
        return st.lists(st.integers(0, n - 1), min_size=size, max_size=degree).map(
            lambda idx: tuple(idx.count(i) for i in range(n)))

    lead = (draw(monomial(degree)), draw(small.filter(bool)))
    return Polynomial(n, [lead] + draw(st.lists(st.tuples(monomial(0), small), max_size=5)))


@st.composite
def residue_cases(draw):
    """Non-primitive rational forms, some repeated or parallel; deg f from -1 to d + 4."""
    n, xi = draw(directions())
    forms = [LinearForm(_off_xi(Covector(draw(st.lists(small, min_size=n, max_size=n))), xi))
             for _ in range(draw(st.integers(0, 4)))]
    if forms and draw(st.booleans()):
        forms.append(LinearForm(forms[0].covector.scaled(draw(small.filter(bool)))))
    f = draw(polynomials(n, draw(st.integers(-1, len(forms) + 4))))
    return f, forms, xi


@seed(20261018)
@settings(max_examples=250, deadline=None)
@given(residue_cases())
def test_residue_series_matches_the_horner_route(case):
    f, forms, xi = case
    got, want = residue(f, forms, xi), _horner_residue_series(f, forms, xi)
    assert got == want and got.to_json() == want.to_json()


@seed(20261018)
@settings(max_examples=250, deadline=None)
@given(st.data())
def test_project_along_matches_the_horner_route(data):
    n, xi = data.draw(directions())
    cov = _off_xi(Covector(data.draw(st.lists(small, min_size=n, max_size=n))), xi)
    f = data.draw(polynomials(n, data.draw(st.integers(-1, 7))))
    got, want = project_along(f, LinearForm(cov), xi), _horner_project_along(f, LinearForm(cov), xi)
    assert got == want and got.to_json() == want.to_json()


@pytest.mark.parametrize("call, message", [
    (lambda: Polynomial.variable(2, 5), "variable index out of range"),
    (lambda: (Polynomial.variable(2, 0) + Polynomial.constant(2, 1)).homogeneous_degree(),
     "polynomial is not homogeneous"),
    (lambda: reduce_mod_line(Polynomial.variable(3, 0), LinearForm([1, 0])), "ring dimension mismatch"),
    (lambda: divides_exactly(LinearForm([1, 0]), Polynomial.variable(3, 0)), "ring dimension mismatch"),
    (lambda: LocalizedSum(2, (LocalizedTerm(Polynomial.variable(3, 0), ()),)),
     "localized term in the wrong ring"),
    (lambda: residue(Polynomial.variable(2, 0), [], (0, 0)), "xi must be nonzero"),
])
def test_number_layer_guards_raise_their_messages(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError and str(info.value) == message
