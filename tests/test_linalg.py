"""The elimination engine against sympy on small rational matrices."""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

import sympy
from hypothesis import given, seed, settings, strategies as st

from gkmcalc import linalg

entries = st.one_of(st.just(Fraction(0)), st.fractions(-3, 3, max_denominator=4))


@st.composite
def matrices(draw, square=False):
    """Rows of rational entries; about half of them combine earlier rows."""
    nrows = draw(st.integers(0, 6))
    ncols = nrows if square else draw(st.integers(1, 7))
    rows: list[list[Fraction]] = []
    for _ in range(nrows):
        if rows and draw(st.booleans()):
            coeffs = draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
            rows.append([sum((c * r[j] for c, r in zip(coeffs, rows)), Fraction(0))
                         for j in range(ncols)])
        else:
            rows.append(draw(st.lists(entries, min_size=ncols, max_size=ncols)))
    return rows, ncols


def to_sympy(rows, ncols):
    return sympy.Matrix(len(rows), ncols, [sympy.Rational(x.numerator, x.denominator)
                                           for row in rows for x in row])


def to_fractions(matrix):
    return [[Fraction(int(x.p), int(x.q)) for x in matrix.row(i)] for i in range(matrix.rows)]


def primitive(vector):
    scale = lcm(*(x.denominator for x in vector))
    ints = [int(x * scale) for x in vector]
    g = gcd(*ints)
    return [Fraction(x // g) for x in ints]


property_settings = settings(max_examples=100, deadline=None)


@seed(20260917)
@property_settings
@given(matrices(), st.randoms(use_true_random=False))
def test_engine_matches_sympy(matrix, rng):
    rows, ncols = matrix
    m = to_sympy(rows, ncols)
    expected, expected_pivots = m.rref()
    reduced, pivots = linalg.rref(rows, ncols)
    assert pivots == list(expected_pivots)
    assert reduced == to_fractions(expected)[: len(pivots)]

    nullspace = [primitive(to_fractions(v.T)[0]) for v in m.nullspace()]
    assert linalg.kernel_basis(rows, ncols) == nullspace

    rank = linalg.rank(rows, ncols)
    assert rank == m.rank()
    shuffled = list(rows)
    rng.shuffle(shuffled)
    tracker = linalg.RankTracker(ncols)
    assert sum(tracker.add(row) for row in shuffled) == rank == tracker.rank


@seed(20260917)
@property_settings
@given(matrices(square=True))
def test_invert_matches_sympy(matrix):
    rows, n = matrix
    m = to_sympy(rows, n)
    inverse = linalg.invert(rows)
    if m.det() == 0:
        assert inverse is None
    else:
        assert inverse == to_fractions(m.inv())
