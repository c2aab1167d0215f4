"""The elimination engine against sympy on small rational matrices, and its row feed order."""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

import pytest
import sympy
from hypothesis import given, seed, settings, strategies as st

from gkmcalc import linalg
from gkmcalc.cohomology import compatibility_rows

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


def sparse(row):
    return {c: x for c, x in enumerate(row) if x}


@seed(20261018)
@property_settings
@given(matrices())
def test_sparse_rows_reduce_like_dense_rows(matrix):
    rows, ncols = matrix
    dense, mapped = linalg.RankTracker(ncols), linalg.RankTracker(ncols)
    for row in rows:
        assert dense.add(row) == mapped.add(sparse(row))
    assert dense.rank == mapped.rank
    assert dense.reduced() == mapped.reduced()

    mixed = [sparse(row) if i % 2 else row for i, row in enumerate(rows)]
    assert linalg.rank(mixed, ncols) == linalg.rank(rows, ncols)
    assert linalg.kernel_basis(mixed, ncols) == linalg.kernel_basis(rows, ncols)


def test_sparse_row_columns_must_lie_in_range():
    tracker = linalg.RankTracker(3)
    for bad in ({3: 1}, {-1: 1}, {0: 1, 5: 0}):
        with pytest.raises(ValueError):
            tracker.add(bad)
    assert tracker.rank == 0
    assert tracker.add({2: Fraction(1, 2)}) and not tracker.add({})
    with pytest.raises(ValueError):
        tracker.add([1, 2])


def lead(row):
    columns = [c for c, x in (row.items() if isinstance(row, dict) else enumerate(row)) if x]
    return min(columns, default=-1)


@seed(20261019)
@property_settings
@given(matrices(), st.sampled_from(["dense", "sparse", "mixed"]), st.data())
def test_outputs_do_not_depend_on_row_order(matrix, form, data):
    rows, ncols = matrix
    if form != "dense":
        rows = [sparse(row) if form == "sparse" or i % 2 else row for i, row in enumerate(rows)]
    order = data.draw(st.permutations(range(len(rows))))
    shuffled = [rows[i] for i in order]
    assert linalg.rank(shuffled, ncols) == linalg.rank(rows, ncols)
    assert linalg.rref(shuffled, ncols) == linalg.rref(rows, ncols)
    assert linalg.kernel_basis(shuffled, ncols) == linalg.kernel_basis(rows, ncols)
    one_by_one, batch = linalg.RankTracker(ncols), linalg.RankTracker(ncols)
    for row in shuffled:
        one_by_one.add(row)
    batch.extend(rows)
    assert one_by_one.reduced() == batch.reduced()


def test_rows_reach_the_engine_by_descending_leading_column(monkeypatch, k5n3):
    fed = []
    add = linalg.RankTracker.add

    def spy(self, row):
        fed.append(lead(row))
        return add(self, row)

    monkeypatch.setattr(linalg.RankTracker, "add", spy)
    rows, mons = compatibility_rows(k5n3, 3)
    ncols = len(k5n3.vertices) * len(mons)
    assert linalg.rank(rows, ncols) == ncols - 20
    assert len(fed) == len(rows) and len(set(fed)) > 1
    assert fed == sorted(fed, reverse=True)
