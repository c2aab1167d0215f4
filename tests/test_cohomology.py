"""Classes, bases, characteristic classes, and the blow-up ring audit."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, seed, settings, strategies as st

from gkmcalc import coh_basis, chern_class, is_class, is_symplectic
from gkmcalc.cohomology import (
    CohClass,
    _reduction_table,
    _vertex_gains,
    as_class,
    blowup_class_check,
    coh_dim,
    compatibility_rows,
    constant_class,
    gysin,
    pullback,
    thom_class_subobject,
    thom_class_vertex,
    zero_class,
)
from gkmcalc import linalg
from gkmcalc.polyalg import (
    Covector,
    InputError,
    LinearForm,
    Polynomial,
    monomials,
    reduce_mod_line,
)


def grlex_key(exp):
    """Graded-lexicographic sort key of an exponent tuple: total degree, then the tuple."""
    return (sum(exp), exp)


def _oracle_dim(pair, k):
    """Nullspace dimension of the compatibility system, built independently.

    Each edge difference is restricted to the kernel of its axial covector by
    substituting a sympy nullspace parametrization, with one linear condition
    per parameter monomial.
    """
    mons = monomials(pair.n, k)
    unknowns = [(v, m) for v in pair.vertices for m in mons]
    ts = sympy.symbols(f"t0:{max(pair.n - 1, 1)}")
    rows = []
    for p, q in pair.edges:
        alpha = pair.axial_at(p, q)
        kernel = sympy.Matrix([[sympy.Rational(c) for c in alpha.coords]]).nullspace()
        subs = [sum(ts[j] * vec[i] for j, vec in enumerate(kernel)) for i in range(pair.n)]
        restricted = {}
        for m in mons:
            expr = sympy.expand(sympy.prod(s**e for s, e in zip(subs, m)))
            restricted[m] = sympy.Poly(expr, *ts) if expr != 0 else None
        tmons = sorted(
            {tm for poly in restricted.values() if poly is not None for tm in poly.monoms()}
        )
        for tm in tmons:
            row = []
            for v, m in unknowns:
                if v == p:
                    sign = 1
                elif v == q:
                    sign = -1
                else:
                    row.append(sympy.Integer(0))
                    continue
                poly = restricted[m]
                coef = poly.coeff_monomial(tm) if poly is not None else 0
                row.append(sign * coef)
            rows.append(row)
    if not rows:
        return len(unknowns)
    mat = sympy.Matrix(rows)
    return len(unknowns) - mat.rank()


@pytest.mark.parametrize(
    "fixture,ks",
    [("cp2", range(5)), ("cycle4", range(4)), ("gamma4", range(4))],
)
def test_basis_dimension_matches_an_independent_oracle(request, fixture, ks):
    pair = request.getfixturevalue(fixture)
    for k in ks:
        dim, basis = coh_basis(pair, k)
        assert dim == _oracle_dim(pair, k)
        assert len(basis) == dim
        for cls in basis:
            ok, _ = is_class(pair, cls.values)
            assert ok


def test_frozen_dimension_tables(cp2, cycle4, gamma4, gamma5):
    assert [coh_basis(cp2, k)[0] for k in range(7)] == [1, 3, 6, 9, 12, 15, 18]
    assert [coh_basis(cycle4, k)[0] for k in range(7)] == [1, 4, 8, 12, 16, 20, 24]
    assert [coh_basis(gamma4, k)[0] for k in range(5)] == [1, 4, 10, 20, 34]
    assert [coh_basis(gamma5, k)[0] for k in range(6)] == [1, 3, 6, 10, 15, 20]


def test_basis_elements_are_linearly_independent(cp2):
    dim, basis = coh_basis(cp2, 2)
    mons = monomials(2, 2)
    vectors = [
        [cls.value(v).coefficient(m) for v in cp2.vertices for m in mons]
        for cls in basis
    ]
    assert linalg.rank(vectors, len(vectors[0])) == dim


def test_rank_nullity_of_the_compatibility_system(cp2):
    for k in range(4):
        rows, mons = compatibility_rows(cp2, k)
        ncols = len(cp2.vertices) * len(mons)
        dim, _ = coh_basis(cp2, k)
        assert linalg.rank(rows, ncols) + dim == ncols


def test_negative_degree_has_no_classes(cp2):
    assert coh_basis(cp2, -1) == (0, [])
    assert coh_dim(cp2, -1) == 0


def test_a_degree_past_the_key_limit_is_refused_before_any_work(k5n3):
    # monomials(3, 65536) alone would list about 2.1e9 exponent tuples
    for call in (compatibility_rows, coh_dim, coh_basis):
        with pytest.raises(InputError, match="total degree 65536 is above the limit 65535"):
            call(k5n3, 65536)


def test_class_predicate(cp2):
    one = constant_class(cp2, 1)
    ok, witness = is_class(cp2, one.values)
    assert ok and witness is None
    bad = {
        "1": Polynomial.zero(2),
        "2": Polynomial(2, {(0, 1): 1}),
        "3": Polynomial.zero(2),
    }
    ok, witness = is_class(cp2, bad)
    assert not ok
    assert witness is not None
    with pytest.raises(ValueError):
        as_class(cp2, bad)


def _first_failing_edge(pair, values):
    """The first edge whose difference has a nonzero normal form modulo its form."""
    for p, q in pair.edges:
        if not reduce_mod_line(values[p] - values[q], pair.form(p, q)).is_zero():
            return False, (p, q)
    return True, None


@seed(20261019)
@settings(max_examples=200, deadline=None)
@given(st.data())
def test_integer_class_check_matches_the_normal_form(family, data):
    name, pair = data.draw(st.sampled_from(family))
    d = pair.valence
    chern = [chern_class(pair, k) for k in range(1, d + 1)]
    k = data.draw(st.integers(1, 3))
    coefs = st.fractions(min_value=-4, max_value=4, max_denominator=5)
    # a combination of products of Chern classes, all of degree k
    total = zero_class(pair, k)
    for _ in range(data.draw(st.integers(1, 3))):
        product = constant_class(pair, 1)
        while product.degree < k:
            product = product * chern[data.draw(st.integers(1, min(d, k - product.degree))) - 1]
        total = total + product.scaled(data.draw(coefs))
    assert is_class(pair, total.values) == (True, None) == _first_failing_edge(pair, total.values)
    values = dict(total.values)
    p = data.draw(st.sampled_from(pair.vertices))
    exp = data.draw(st.sampled_from(monomials(pair.n, k)))
    values[p] = values[p] + Polynomial(pair.n, {exp: data.draw(coefs)})
    assert is_class(pair, values) == _first_failing_edge(pair, values), name


def test_class_algebra(cp2):
    c1 = chern_class(cp2, 1)
    c2 = chern_class(cp2, 2)
    assert (c1 + c1).degree == 1
    assert (c1 * c1).degree == 2
    assert (c1**3).degree == 3
    assert (c1 * Fraction(2, 3)).value("2") == c1.value("2").scaled(Fraction(2, 3))
    assert (c1 - c1).is_zero()
    with pytest.raises(ValueError):
        c1 + c2
    zero = zero_class(cp2, 5)
    assert zero.is_zero() and zero.degree == 5
    ok, _ = is_class(cp2, (c1 * c2 + zero_class(cp2, 3)).values)
    assert ok


def test_chern_values_on_cp2(cp2):
    c1 = chern_class(cp2, 1)
    assert c1.value("1") == Polynomial(2, {(1, 0): -1, (0, 1): -1})
    assert c1.value("2") == Polynomial(2, {(1, 0): 2, (0, 1): -1})
    assert c1.value("3") == Polynomial(2, {(1, 0): -1, (0, 1): 2})
    ok, _ = is_class(cp2, c1.values)
    assert ok
    euler = chern_class(cp2, 2)
    for p in cp2.vertices:
        prod = Polynomial.constant(2, 1)
        for q in cp2.neighbors(p):
            prod = prod * Polynomial.from_covector(cp2.axial_at(p, q))
        assert euler.value(p) == prod
    with pytest.raises(ValueError):
        chern_class(cp2, 0)
    with pytest.raises(ValueError):
        chern_class(cp2, 3)


def test_chern_classes_are_classes_everywhere(family):
    for name, pair in family:
        if pair.valence < 1:
            continue
        for k in (1, pair.valence):
            ok, _ = is_class(pair, chern_class(pair, k).values)
            assert ok, (name, k)


def _moment_class(points, pair):
    values = {
        v: Polynomial.from_covector(Covector(pt)).scaled(-1)
        for v, pt in zip(pair.vertices, points)
    }
    return CohClass(1, values)


def test_symplectic_detection(cp2, gamma5):
    for pts, pair in (
        ([(0, 0), (1, 0), (0, 1)], cp2),
        ([(i, i * i) for i in range(1, 6)], gamma5),
    ):
        c = _moment_class(pts, pair)
        assert is_symplectic(pair, c)
        assert not is_symplectic(pair, -c)
    squashed = CohClass(
        1,
        {
            "1": Polynomial.zero(2),
            "2": Polynomial(2, {(0, 1): -1}),
            "3": Polynomial(2, {(0, 1): -1}),
        },
    )
    assert not is_symplectic(cp2, squashed)
    with pytest.raises(ValueError):
        is_symplectic(cp2, constant_class(cp2, 1))


def test_thom_class_of_a_vertex(cp2):
    tau = thom_class_vertex(cp2, "2")
    assert tau.degree == 2
    assert tau.value("1").is_zero() and tau.value("3").is_zero()
    expected = Polynomial.from_covector(cp2.axial_at("2", "1")) * Polynomial.from_covector(
        cp2.axial_at("2", "3")
    )
    assert tau.value("2") == expected
    ok, _ = is_class(cp2, tau.values)
    assert ok


def test_thom_class_of_a_subobject(cp2):
    tau = thom_class_subobject(cp2, ["1", "2"], [("1", "2")])
    assert tau.degree == 1
    assert tau.value("3").is_zero()
    assert tau.value("1") == Polynomial.from_covector(cp2.axial_at("1", "3"))
    assert tau.value("2") == Polynomial.from_covector(cp2.axial_at("2", "3"))
    ok, _ = is_class(cp2, tau.values)
    assert ok
    with pytest.raises(ValueError):
        thom_class_subobject(cp2, ["1", "2", "3"], [("1", "2")])


def test_gysin_extends_by_the_thom_class(cp2):
    sub_v, sub_e = ["1", "2"], [("1", "2")]
    one = {v: Polynomial.constant(2, 1) for v in sub_v}
    pushed = gysin(cp2, sub_v, sub_e, CohClass(0, one))
    assert pushed == thom_class_subobject(cp2, sub_v, sub_e)
    g = CohClass(1, {"1": Polynomial.zero(2), "2": Polynomial(2, {(1, 0): 1})})
    lifted = gysin(cp2, sub_v, sub_e, g)
    assert lifted.degree == 2
    ok, _ = is_class(cp2, lifted.values)
    assert ok
    not_a_class = CohClass(1, {"1": Polynomial.zero(2), "2": Polynomial(2, {(0, 1): 1})})
    with pytest.raises(ValueError):
        gysin(cp2, sub_v, sub_e, not_a_class)


def test_pullback_along_the_identity(cp2):
    c1 = chern_class(cp2, 1)
    same = pullback({v: v for v in cp2.vertices}, c1, cp2.vertices)
    assert same == c1


@pytest.mark.parametrize("back_map", [{"1": "1"}, {"1": "1", "2": "4"}])
def test_pullback_refuses_a_vertex_without_an_image_in_the_class(cp2, back_map):
    with pytest.raises(InputError, match="vertex '2' has no image among the vertices of the class"):
        pullback(back_map, chern_class(cp2, 1), ["1", "2"])


def test_blowup_audit_refuses_a_negative_degree_bound(cp2):
    with pytest.raises(InputError, match="--max-degree must be nonnegative, got -1"):
        blowup_class_check(cp2, "1", -1)


def _linear_class_without(pair, drop, n):
    """Values -i * x_0 at the i-th vertex except drop, as polynomials in n variables."""
    values = {v: Polynomial(n, {(1,) + (0,) * (n - 1): -i}) for i, v in enumerate(pair.vertices)}
    return CohClass(1, {v: f for v, f in values.items() if v != drop})


@pytest.mark.parametrize("drop, n, message", [
    ("3", 2, "class has no value at vertex '3'"),
    (None, 3, "value at '1' is not a polynomial in the ambient ring"),
])
def test_class_checks_refuse_a_bad_vertex_set_or_ring(cp2, drop, n, message):
    c = _linear_class_without(cp2, drop, n)
    for check in (is_class, is_symplectic):
        with pytest.raises(InputError, match=message):
            check(cp2, c)


def test_blowup_ring_audit(cp2):
    out = blowup_class_check(cp2, "1", max_k=4)
    assert out["relationHolds"]
    assert out["pullbacksAreClasses"]
    assert out["pullbackInjective"]
    assert [row["k"] for row in out["dims"]] == [0, 1, 2, 3, 4]
    for row in out["dims"]:
        assert row["sharp"] >= row["base"]


def _normal_form_rows(pair, k):
    """The compatibility system as built before integer rows: one
    reduce_mod_line per monomial, dense Fraction rows."""
    n = pair.n
    mons = monomials(n, k)
    M = len(mons)
    ncols = len(pair.vertices) * M
    vindex = {v: i for i, v in enumerate(pair.vertices)}
    rows = []
    reduced_cache = {}
    for p, q in pair.edges:
        form = pair.form(p, q)
        reduced = reduced_cache.get(form.canonical)
        if reduced is None:
            reduced = [reduce_mod_line(Polynomial(n, {m: 1}), form) for m in mons]
            reduced_cache[form.canonical] = reduced
        rowmap = {}
        poff, qoff = vindex[p] * M, vindex[q] * M
        for mi, rp in enumerate(reduced):
            for exp, coef in rp.terms():
                row = rowmap.get(exp)
                if row is None:
                    row = [Fraction(0)] * ncols
                    rowmap[exp] = row
                row[poff + mi] += coef
                row[qoff + mi] -= coef
        for exp in sorted(rowmap, key=grlex_key, reverse=True):
            rows.append(rowmap[exp])
    return rows, mons


def _ring_pair(request, name):
    value = request.getfixturevalue(name)
    return value[0] if name == "blowup" else value


RING_PAIRS = ["k2", "cp2", "gamma4", "gamma5", "cycle4", "blowup", "prod", "k5n3", "k6n2"]


@pytest.mark.parametrize("name", RING_PAIRS)
def test_integer_rows_span_the_normal_form_rows(request, name):
    pair = _ring_pair(request, name)
    for k in range(6):
        rows, mons = compatibility_rows(pair, k)
        frozen, frozen_mons = _normal_form_rows(pair, k)
        assert mons == frozen_mons
        assert len(rows) == len(frozen)
        assert all(isinstance(x, int) for row in rows for x in row.values())
        ncols = len(pair.vertices) * len(mons)
        assert linalg.rref(rows, ncols) == linalg.rref(frozen, ncols)
        dim = coh_dim(pair, k)
        assert dim == coh_basis(pair, k)[0] == ncols - linalg.rank(frozen, ncols)
        # the sympy oracle grows slow with the system, so it checks low degrees
        if k <= {"k5n3": 2, "k6n2": 2}.get(name, 3):
            assert dim == _oracle_dim(pair, k)


@st.composite
def forms(draw):
    """Nonzero integer forms, n = 1..4; the table is built from the primitive canonical one."""
    n = draw(st.integers(1, 4))
    coords = draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n).filter(any))
    return LinearForm(Covector(coords))


@seed(20261018)
@settings(max_examples=150, deadline=None)
@given(forms(), st.integers(0, 4))
def test_reduction_table_scales_the_normal_form(form, k):
    n, c = form.n, form.canonical
    scale = c[form.pivot()] ** k
    mons = monomials(n, k)
    by_exp = {}
    for mi, m in enumerate(mons):
        for exp, coef in reduce_mod_line(Polynomial(n, {m: 1}), form).terms():
            by_exp.setdefault(exp, []).append((mi, scale * coef))
    expected = [by_exp[e] for e in sorted(by_exp, key=grlex_key, reverse=True)]
    assert _reduction_table(form, k, mons) == expected
    if n == 1 and k >= 1:
        assert expected == []


def _cp2_values(*degrees):
    x = Polynomial.variable(2, 0)
    return {v: x ** d for v, d in zip(("1", "2", "3"), degrees)}


@pytest.mark.parametrize("call, message", [
    (lambda cp2: CohClass(-1, {}), "class degree must be nonnegative"),
    (lambda cp2: CohClass(1, _cp2_values(0, 1, 1)), "value at '1' has degree 0, expected 1"),
    (lambda cp2: CohClass(1, _cp2_values(1, 1)) + CohClass(1, _cp2_values(1, 1, 1)),
     "classes live on different vertex sets"),
    (lambda cp2: CohClass(1, _cp2_values(1, 1, 1)) ** -1, "negative power"),
    (lambda cp2: is_class(cp2, _cp2_values(1, 2, 1)), "values mix degrees [1, 2]"),
])
def test_class_guards_raise_their_messages(cp2, call, message):
    with pytest.raises(ValueError) as info:
        call(cp2)
    assert type(info.value) is ValueError and str(info.value) == message


def test_an_integer_times_a_class_is_the_scaled_class():
    c = CohClass(1, _cp2_values(1, 1, 1))
    assert 3 * c == c.scaled(3)


def test_compatibility_rows_refuse_unknown_or_repeated_vertices(cp2):
    rows, mons = compatibility_rows(cp2, 2, ["1"])
    assert len(mons) - linalg.rank(rows, len(mons)) == 1
    for vertices in (["1", "1"], ["1", "zzz"], ["zzz"]):
        with pytest.raises(InputError) as info:
            compatibility_rows(cp2, 2, vertices)
        assert str(info.value) == "the vertex list must name distinct vertices of the pair"


def _reordered(vertices, how):
    order = list(vertices)
    if how == "reversed":
        order.reverse()
    elif how == "shuffled":
        random.Random(len(order)).shuffle(order)
    return order


@pytest.mark.parametrize("how", ["input", "reversed", "shuffled"])
def test_vertex_gains_add_up_to_each_prefix_by_row_rank(
    family, k5n3, cycle8, parallel_diamond, how
):
    pairs = [pair for _, pair in family] + [k5n3, cycle8, parallel_diamond]
    for pair in pairs:
        order = _reordered(pair.vertices, how)
        for k in range(4):
            M = len(monomials(pair.n, k))
            gains = _vertex_gains(pair, k, order)
            assert how != "input" or _vertex_gains(pair, k, pair.vertices) == gains
            for i in range(len(order) + 1):
                rows, _ = compatibility_rows(pair, k, order[:i])
                assert sum(gains[:i]) == i * M - linalg.rank(rows, i * M)
