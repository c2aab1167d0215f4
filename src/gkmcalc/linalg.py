"""Exact linear algebra over the rationals: one fraction-free elimination engine.

``RankTracker`` is the only elimination routine.  It stores each row
sparsely, as ``{column: int}``, under its pivot (the first nonzero column).
Rows are reduced by integer cross-multiplication, never by division, so no
Fraction arithmetic enters the inner loop; every stored row is kept
primitive (coprime entries, positive pivot) so that repeated
cross-multiplication cannot grow its integers.  Rows reach the engine in
descending order of leading column (``RankTracker.extend``): each new row
then meets only basis rows that start at or right of its own start, so the
basis stays triangular and barely fills in.  One back-substitution pass
gives the reduced echelon form, which is unique, so ``rref``,
``kernel_basis`` and ``invert`` are canonical whatever the feed order.  An
input row is either a dense sequence of Fractions or ints, or a sparse
mapping ``{column: value}`` that leaves out zeros; outputs are dense lists
of Fractions.  A tracker exposes its rank and its reduced form, not its
pivots: a caller that needs the rank each block of columns adds feeds the
transposed columns in block order (``cohomology._vertex_gains``).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from fractions import Fraction
from math import gcd, lcm

Row = Sequence[Fraction | int] | Mapping[int, Fraction | int]
Rows = Sequence[Row]


def _primitive(row: Mapping[int, Fraction | int], lead: int) -> dict[int, int]:
    """Scale a nonzero sparse rational row to coprime integers, positive at ``lead``."""
    try:
        g = gcd(*row.values())
    except TypeError:  # a Fraction entry: clear denominators first
        den = lcm(*(x.denominator for x in row.values()))
        row = {c: x.numerator * (den // x.denominator) for c, x in row.items()}
        g = gcd(*row.values())
    if row[lead] < 0:
        g = -g
    return row if g == 1 else {c: x // g for c, x in row.items()}


def _lead(row: Row) -> int:
    """First nonzero column of a row (a sparse row leaves out zeros), or -1 if none."""
    if isinstance(row, Mapping):
        return min(row, default=-1)
    return next((c for c, x in enumerate(row) if x), -1)


def _eliminate(row: dict[int, int], base: Mapping[int, int], col: int) -> None:
    """Clear ``row[col]`` in place by an integer combination with ``base``."""
    a, b = base[col], row[col]
    g = gcd(a, b)
    a, b = a // g, b // g
    if a != 1:
        for c in row:
            row[c] *= a
    for c, x in base.items():
        y = row.get(c, 0) - b * x
        if y:
            row[c] = y
        else:
            del row[c]


class RankTracker:
    """Incremental echelon basis of a growing pile of rational rows."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        # pivot column -> primitive integer row, positive at the pivot
        self._rows: dict[int, dict[int, int]] = {}

    def add(self, row: Row) -> bool:
        """Reduce a dense or ``{column: value}`` row against the basis; True if rank grew."""
        if isinstance(row, Mapping):
            if row and not (0 <= min(row) and max(row) < self.ncols):
                raise ValueError("row column out of range")
            r = {c: x for c, x in row.items() if x}
        elif len(row) != self.ncols:
            raise ValueError("row length mismatch")
        else:
            r = {c: x for c, x in enumerate(row) if x}
        if not r:
            return False
        pivot = min(r)
        r = _primitive(r, pivot)
        # a row no elimination step touched is still primitive, positive at its pivot
        eliminated = False
        while (base := self._rows.get(pivot)) is not None:
            _eliminate(r, base, pivot)
            if not r:
                return False
            pivot = min(r)
            eliminated = True
        self._rows[pivot] = _primitive(r, pivot) if eliminated else r
        return True

    def extend(self, rows: Rows) -> None:
        """Add a batch of rows, those with the rightmost leading column first."""
        for row in sorted(rows, key=_lead, reverse=True):
            self.add(row)

    @property
    def rank(self) -> int:
        return len(self._rows)

    def reduced(self) -> dict[int, dict[int, int]]:
        """Back-substitute to the reduced echelon form, keyed by ascending pivot."""
        done: dict[int, dict[int, int]] = {}
        for pivot in sorted(self._rows, reverse=True):
            r = self._rows[pivot]
            for later, base in done.items():
                if later in r:
                    _eliminate(r, base, later)
            done[pivot] = _primitive(r, pivot)
        self._rows = dict(reversed(done.items()))
        return self._rows


def _tracker(rows: Rows, ncols: int) -> RankTracker:
    tracker = RankTracker(ncols)
    tracker.extend(rows)
    return tracker


def rank(rows: Rows, ncols: int) -> int:
    return _tracker(rows, ncols).rank


def rref(rows: Rows, ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns the nonzero rows and pivot columns."""
    reduced = _tracker(rows, ncols).reduced()
    dense = [
        [Fraction(r.get(c, 0), r[pivot]) for c in range(ncols)]
        for pivot, r in reduced.items()
    ]
    return dense, list(reduced)


def kernel_basis(rows: Rows, ncols: int) -> list[list[Fraction]]:
    """Echelonized basis of the right kernel, one vector per free column.

    Each basis vector is scaled to a primitive integer vector whose entry at
    its free column is positive, so the output is canonical.
    """
    reduced = _tracker(rows, ncols).reduced()
    # free column -> (pivot, entry, pivot entry) of each reduced row meeting it
    free: dict[int, list[tuple[int, int, int]]] = {
        c: [] for c in range(ncols) if c not in reduced
    }
    for pivot, r in reduced.items():
        lead = r[pivot]
        for c, x in r.items():
            if c != pivot:
                free[c].append((pivot, x, lead))
    basis = []
    for col, entries in free.items():
        # the vector that is 1 at col, -x / lead at each pivot, times the lcm
        scale = lcm(*(lead for _, _, lead in entries))
        v = {col: scale}
        for pivot, x, lead in entries:
            v[pivot] = -x * (scale // lead)
        g = gcd(*v.values())
        vec = [Fraction(0)] * ncols
        for c, x in v.items():
            vec[c] = Fraction(x // g)
        basis.append(vec)
    return basis


def invert(matrix: Rows) -> list[list[Fraction]] | None:
    """Inverse of a square rational matrix, or None if singular."""
    n = len(matrix)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(matrix)]
    reduced, pivots = rref(aug, 2 * n)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in reduced]
