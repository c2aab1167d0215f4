"""Grassmannians Gr(2, 4) and Gr(2, 5) against their closed-form answers.

Every expected value here comes from a formula the test evaluates itself:
Gaussian binomial coefficients for the Betti numbers, N! chambers of the
braid arrangement, and the binomial sum for the class dimensions.
"""
from __future__ import annotations

import math

import pytest

from gkmcalc import (
    Polynomial,
    Vector,
    betti_invariance_check,
    chern_class,
    full_sweep,
    morse_inequalities,
    positively_oriented_function,
    validate_axial,
    validate_connection,
)
from gkmcalc.cohomology import coh_dim


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
