"""Grassmannians Gr(2, 4), Gr(2, 5), Gr(3, 6) and flag varieties Fl(3), Fl(4),
Fl(5) against closed forms.

Every expected value here comes from a formula the test evaluates itself:
Gaussian binomial coefficients and inversion counts for the Betti numbers,
N! chambers of the braid arrangement, the binomial sum for the class
dimensions, and the degrees behind the integrals of c_1^d.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest

from gkmcalc import (
    GkmPair,
    Polynomial,
    Vector,
    betti_invariance_check,
    chern_class,
    full_sweep,
    integrate,
    morse_inequalities,
    positively_oriented_function,
    validate_axial,
    validate_connection,
)
from gkmcalc.cohomology import coh_dim
from gkmcalc.gkm_core import AmbiguousConnection, infer_connection


def gaussian_binomial(N: int, k: int) -> list[int]:
    """Coefficients of [N choose k]_q, by q-Pascal: [N-1, k-1] + q^k [N-1, k]."""
    if k == 0 or k == N:
        return [1]
    out = [0] * (k * (N - k) + 1)
    for i, c in enumerate(gaussian_binomial(N - 1, k - 1)):
        out[i] += c
    for i, c in enumerate(gaussian_binomial(N - 1, k)):
        out[i + k] += c
    return out


def class_dimension(b: list[int], n: int, k: int) -> int:
    """dim H^k = sum over r <= k of b_r C(k - r + n - 1, n - 1)."""
    return sum(b[r] * math.comb(k - r + n - 1, n - 1) for r in range(min(k, len(b) - 1) + 1))


GRASSMANNIANS = [
    ("gr24", 4, [1, 1, 2, 1, 1], [1, 4, 11, 23, 41]),
    ("gr25", 5, [1, 1, 2, 2, 2, 1, 1], [1, 5, 16, 40, 85]),
]


@pytest.mark.parametrize("name, N, betti, dims", GRASSMANNIANS)
def test_the_formulas_give_the_listed_values(name, N, betti, dims):
    assert gaussian_binomial(N, 2) == betti
    assert [class_dimension(betti, N - 1, k) for k in range(5)] == dims


@pytest.mark.parametrize("name, N, betti, dims", GRASSMANNIANS)
def test_grassmannian_known_answers(request, name, N, betti, dims):
    pair = request.getfixturevalue(name)
    n = N - 1
    assert pair.n == n and pair.valence == 2 * (N - 2)
    assert validate_axial(pair).ok
    assert validate_connection(pair, pair.connection).ok

    b = gaussian_binomial(N, 2)
    report = betti_invariance_check(pair)
    assert report["invariant"] and report["betti"] == b
    assert report["chambers_found"] == math.factorial(N)
    assert [coh_dim(pair, k) for k in range(5)] == [class_dimension(b, n, k) for k in range(5)]

    # a dominant direction: xi_1 < ... < xi_{N-1}, all off x_N = 0
    xi = Vector(list(range(1, N)))
    out = morse_inequalities(pair, xi, 4)
    assert out["ok"] and out["betti"] == b
    assert all(row["equality"] for row in out["morse"])

    sweep = full_sweep(pair, xi, chern_class(pair, 1))
    assert sweep["stepsOk"] and sweep["topIsZero"]
    phi = positively_oriented_function(pair, xi)
    running = sweep["pushforwards"][0]
    for p, value in zip(sorted(pair.vertices, key=phi.get), sweep["pushforwards"][1:]):
        running = running + sweep["perVertexResidues"][p]
        assert running == value
    assert running == Polynomial.zero(n)


def inversion_counts(N: int) -> list[int]:
    """Permutations of 1..N by their number of inversions."""
    out = [0] * (math.comb(N, 2) + 1)
    for w in itertools.permutations(range(N)):
        out[sum(a > b for a, b in itertools.combinations(w, 2))] += 1
    return out


def swap(w: str, t: tuple[int, int]) -> str:
    a, b = t
    u = list(w)
    u[a], u[b] = u[b], u[a]
    return "".join(u)


FLAGS = [
    ("fl3", 3, [1, 2, 2, 1], [1, 4, 9, 15, 21]),
    ("fl4", 4, [1, 3, 5, 6, 5, 3, 1], [1, 6, 20, 49, 98]),
]


@pytest.mark.parametrize("name, N, betti, dims", FLAGS)
def test_the_flag_formulas_give_the_listed_values(name, N, betti, dims):
    assert inversion_counts(N) == betti
    assert [class_dimension(betti, N - 1, k) for k in range(5)] == dims


@pytest.mark.parametrize("name, N, betti, dims", FLAGS)
def test_flag_known_answers(request, name, N, betti, dims):
    pair = request.getfixturevalue(name)
    n, d = N - 1, math.comb(N, 2)
    assert pair.n == n and pair.valence == d and len(pair.vertices) == math.factorial(N)
    assert validate_axial(pair).ok
    assert validate_connection(pair, pair.connection).ok
    # star residues repeat, so no connection is inferred from the axial function alone
    with pytest.raises(AmbiguousConnection):
        infer_connection(GkmPair(n, pair.vertices, pair.edges, pair.axial))
    # right multiplication u -> u.t along (w, w.t) is a family of star
    # bijections, but not one that carries residues along the edge
    swaps = list(itertools.combinations(range(N), 2))
    right = {}
    for p, q in pair.oriented_edges():
        (t,) = [s for s in swaps if swap(p, s) == q]
        right[p, q] = {u: swap(u, t) for u in pair.neighbors(p)}
    report = validate_connection(pair, right)
    assert report.violations and {v.axiom for v in report.violations} == {"1.34"}
    if N == 3:
        assert len(report.violations) == 12

    b = inversion_counts(N)
    report = betti_invariance_check(pair)
    assert report["invariant"] and report["betti"] == b
    assert report["chambers_found"] == math.factorial(N)
    assert [coh_dim(pair, k) for k in range(5)] == [class_dimension(b, n, k) for k in range(5)]

    xi = Vector(list(range(1, N)))
    out = morse_inequalities(pair, xi, 4)
    assert out["ok"] and out["betti"] == b
    assert all(row["equality"] for row in out["morse"])

    c1 = chern_class(pair, 1)
    phi = positively_oriented_function(pair, xi)
    for k in range(1, d + 2):
        sweep = full_sweep(pair, xi, c1**k)
        assert sweep["stepsOk"] and sweep["topIsZero"], k
        running = sweep["pushforwards"][0]
        for p, value in zip(sorted(pair.vertices, key=phi.get), sweep["pushforwards"][1:]):
            running = running + sweep["perVertexResidues"][p]
            assert running == value
        assert running == Polynomial.zero(n)


# Gr(3, 6) and Fl(5): the axioms, Betti numbers, chambers and the class
# dimensions up to degree 5 and degree 4, which take about 0.13 s and 0.65 s
# (Python 3.11, 2-core host).
LARGER = [
    ("gr36", 6, gaussian_binomial(6, 3), [1, 1, 2, 3, 3, 3, 3, 2, 1, 1],
     [1, 6, 22, 63, 153, 329]),
    ("fl5", 5, inversion_counts(5), [1, 4, 9, 15, 20, 22, 20, 15, 9, 4, 1],
     [1, 8, 35, 111, 285]),
]


@pytest.mark.parametrize("name, N, betti, listed_betti, dims", LARGER)
def test_the_larger_formulas_give_the_listed_values(name, N, betti, listed_betti, dims):
    assert betti == listed_betti
    assert [class_dimension(betti, N - 1, k) for k in range(len(dims))] == dims


@pytest.mark.parametrize("name, N, betti, listed_betti, dims", LARGER)
def test_larger_known_answers(request, name, N, betti, listed_betti, dims):
    pair = request.getfixturevalue(name)
    assert pair.n == N - 1
    assert validate_axial(pair).ok
    assert validate_connection(pair, pair.connection).ok
    report = betti_invariance_check(pair)
    assert report["invariant"] and report["betti"] == betti
    assert report["chambers_found"] == math.factorial(N)
    ks = range(len(dims))
    assert [coh_dim(pair, k) for k in ks] == [class_dimension(betti, N - 1, k) for k in ks]


def flag_integral(N: int) -> int:
    """d! 2^d for d = C(N, 2): c_1 = 2 rho, and Borel-Hirzebruch gives
    the integral of lambda^d as d! prod over positive roots of <lambda, a> / <rho, a>."""
    d = math.comb(N, 2)
    return math.factorial(d) * 2**d


def grassmannian_integral(k: int, N: int) -> int:
    """N^d deg Gr(k, N), with d = k(N - k) and deg = d! prod_{i<k} i! / (N - k + i)!."""
    d = k * (N - k)
    deg = math.factorial(d) * math.prod(
        Fraction(math.factorial(i), math.factorial(N - k + i)) for i in range(k))
    assert deg.denominator == 1
    return N**d * int(deg)


INTEGRALS = [
    ("fl3", flag_integral(3), 48),
    ("fl4", flag_integral(4), 46080),
    ("gr24", grassmannian_integral(2, 4), 512),
    ("gr25", grassmannian_integral(2, 5), 78125),
]


@pytest.mark.parametrize("name, value, listed", INTEGRALS)
def test_c1_to_the_valence_integrates_to_its_known_value(request, name, value, listed):
    assert value == listed
    pair = request.getfixturevalue(name)
    c1 = chern_class(pair, 1)
    assert integrate(pair, c1**pair.valence) == Polynomial.constant(pair.n, value)
