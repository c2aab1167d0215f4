"""The graded ring of vertex-polynomial maps compatible across edges.

A degree-k class assigns to each vertex a homogeneous degree-k
polynomial such that the difference across any edge is divisible by
that edge's axial form.  Bases are computed degreewise by exact kernel
extraction from the divisibility constraints; the distinguished classes
(Chern, Thom, Gysin images, blow-up classes) are built pointwise and
re-checked against the compatibility condition.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .constructions import blow_up
from .gkm_core import GkmPair, is_compatible_subobject, subpair
from .polyalg import (
    InputError,
    Monomial,
    Polynomial,
    _add_into,
    _check_degree,
    _check_max_degree,
    _divide_by_line,
    _reduction_table,
    divides_exactly,
    monomials,
    pack_monomial,
)


@dataclass(frozen=True)
class CohClass:
    """Map from vertices to homogeneous polynomials of one degree."""

    degree: int
    values: Mapping[str, Polynomial]

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("class degree must be nonnegative")
        for v, f in self.values.items():
            d = f.homogeneous_degree()
            if d is not None and d != self.degree:
                raise ValueError(f"value at {v!r} has degree {d}, expected {self.degree}")

    def value(self, p: str) -> Polynomial:
        return self.values[p]

    def is_zero(self) -> bool:
        return all(f.is_zero() for f in self.values.values())

    def _check(self, other: "CohClass") -> None:
        if set(self.values) != set(other.values):
            raise ValueError("classes live on different vertex sets")

    def __add__(self, other: "CohClass") -> "CohClass":
        self._check(other)
        if self.degree != other.degree and not (self.is_zero() or other.is_zero()):
            raise ValueError("cannot add classes of different degrees")
        deg = other.degree if self.is_zero() else self.degree
        return CohClass(deg, {v: f + other.values[v] for v, f in self.values.items()})

    def __sub__(self, other: "CohClass") -> "CohClass":
        return self + (-other)

    def __neg__(self) -> "CohClass":
        return CohClass(self.degree, {v: -f for v, f in self.values.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        self._check(other)
        return CohClass(
            self.degree + other.degree,
            {v: f * other.values[v] for v, f in self.values.items()},
        )

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        return NotImplemented

    def scaled(self, q) -> "CohClass":
        return CohClass(self.degree, {v: f.scaled(q) for v, f in self.values.items()})

    def __pow__(self, k: int) -> "CohClass":
        if k < 0:
            raise ValueError("negative power")
        return CohClass(self.degree * k, {v: f ** k for v, f in self.values.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CohClass)
            and self.degree == other.degree
            and dict(self.values) == dict(other.values)
        )

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "values": {v: f.to_json() for v, f in self.values.items()},
        }

    @classmethod
    def from_json(cls, obj: Mapping) -> "CohClass":
        if not isinstance(obj, Mapping) or "degree" not in obj or "values" not in obj:
            raise ValueError("class object needs 'degree' and 'values'")
        degree = obj["degree"]
        if not isinstance(degree, int) or isinstance(degree, bool):
            raise ValueError("class 'degree' must be an integer")
        if not isinstance(obj["values"], Mapping):
            raise ValueError("class 'values' must map vertices to polynomials")
        values = {v: Polynomial.from_json(f) for v, f in obj["values"].items()}
        return cls(degree, values)


def constant_class(pair: GkmPair, c) -> CohClass:
    return CohClass(0, {v: Polynomial.constant(pair.n, c) for v in pair.vertices})


def zero_class(pair: GkmPair, degree: int) -> CohClass:
    return CohClass(degree, {v: Polynomial.zero(pair.n) for v in pair.vertices})


def _common_degree(values: Mapping[str, Polynomial]) -> int:
    degs = set()
    for f in values.values():
        d = f.homogeneous_degree()
        if d is not None:
            degs.add(d)
    if len(degs) > 1:
        raise ValueError(f"values mix degrees {sorted(degs)}")
    return degs.pop() if degs else 0


def _check_class(pair: GkmPair, values: Mapping[str, Polynomial]) -> None:
    """Raise InputError unless values maps exactly the pair's vertices into the pair's ring."""
    for v in pair.vertices:
        if v not in values:
            raise InputError(f"class has no value at vertex {v!r}")
    if len(values) != len(pair.vertices):
        extra = next(v for v in values if v not in pair.vertices)
        raise InputError(f"class has a value at {extra!r}, which is not a vertex of the pair")
    for v, value in values.items():
        if not isinstance(value, Polynomial) or value.n != pair.n:
            raise InputError(f"value at {v!r} is not a polynomial in the ambient ring")


def is_class(
    pair: GkmPair, candidate: CohClass | Mapping[str, Polynomial]
) -> tuple[bool, tuple[str, str] | None]:
    """Edge-compatibility check; returns (ok, first failing edge or None).

    An edge is compatible when its form divides f(p) - f(q) exactly, which
    is the same as a zero normal form modulo the form (``reduce_mod_line``):
    the remainder of ``_divide_by_line`` on the integer numerator map
    f(p) * den(q) - f(q) * den(p) must be empty.  Values must be
    homogeneous of a single common degree; mixing degrees raises.  A
    candidate on the wrong vertex set or in the wrong ring is unusable
    input and raises InputError (``_check_class``).
    """
    values = candidate.values if isinstance(candidate, CohClass) else candidate
    _check_class(pair, values)
    _common_degree(values)
    for p, q in pair.edges:
        fp, fq = values[p], values[q]
        diff = {k: c * fq._den for k, c in fp._terms.items()}
        _add_into(diff, fq._terms, -fp._den)
        if _divide_by_line(diff, pair.n, pair.form(p, q))[1]:
            return False, (p, q)
    return True, None


def as_class(pair: GkmPair, values: Mapping[str, Polynomial]) -> CohClass:
    """Wrap a vertex-to-polynomial map as a class after full validation."""
    ok, witness = is_class(pair, values)
    if not ok:
        raise ValueError(f"not a class: incompatible across edge {witness}")
    return CohClass(_common_degree(values), dict(values))


def compatibility_rows(
    pair: GkmPair, k: int, vertices: Sequence[str] | None = None
) -> tuple[list[dict[int, int]], list[Monomial]]:
    """Linear constraints cutting out the degree-k classes, as sparse integer rows.

    One unknown per (vertex, degree-k monomial), vertex-major in the order
    of ``vertices`` (default pair.vertices) with monomials graded-lex
    descending; per edge, the normal form of f(p) - f(q) modulo the edge
    form must vanish, contributing one row ``{column: int}`` per reduced
    monomial.  Each row is c_j**k times the normal-form row (c the form's
    primitive canonical covector, j its pivot), so ranks and kernels are
    those of the normal form.  Given a vertex list, the rows are those of
    the classes vanishing off it: only edges meeting the list contribute,
    and an end outside it contributes no entries; a list naming a vertex
    twice or a name that is not a vertex raises ``InputError``.  A degree
    above ``MAX_DEGREE`` raises ``InputError`` before any monomial is listed.
    """
    _check_degree(k)
    mons = monomials(pair.n, k)
    M = len(mons)
    order = pair.vertices if vertices is None else vertices
    offset = {v: i * M for i, v in enumerate(order)}
    if len(offset) != len(order) or not offset.keys() <= set(pair.vertices):
        raise InputError("the vertex list must name distinct vertices of the pair")
    rows: list[dict[int, int]] = []
    tables: dict[tuple[int, ...], list[list[tuple]]] = {}
    for p, q in pair.edges:
        poff, qoff = offset.get(p), offset.get(q)
        if poff is None and qoff is None:
            continue
        form = pair.form(p, q)
        table = tables.get(form.canonical)
        if table is None:
            table = tables[form.canonical] = _reduction_table(form, k, mons)
        for entries in table:
            row = {}
            if poff is not None:
                for mi, coef in entries:
                    row[poff + mi] = coef
            if qoff is not None:
                for mi, coef in entries:
                    row[qoff + mi] = -coef
            rows.append(row)
    return rows, mons


def coh_dim(pair: GkmPair, k: int) -> int:
    """Dimension of the degree-k piece: columns minus the compatibility rank.

    This is the row-rank route, one degree at a time.
    ``morse_betti.class_dims`` reads every degree off flow-up classes when
    they exist (checked by ``_vertex_gains``, an elimination of columns)
    and falls back to this; it stays the independent oracle the
    certificate and the filtered gains are tested against.
    """
    rows, mons = compatibility_rows(pair, k)
    ncols = len(pair.vertices) * len(mons)
    return ncols - linalg.rank(rows, ncols)


def _vertex_gains(pair: GkmPair, k: int, vertices: Sequence[str]) -> list[int]:
    """How much the degree-k classes vanishing off the first i vertices grow at each i.

    The compatibility rows restricted to ``vertices`` are transposed once
    into sparse columns, and one tracker takes the vertices' column blocks
    in list order.  The classes on the first i vertices are the kernel of
    the first i blocks, of dimension i * M minus their column rank, so
    vertex i gains M minus the rank its block adds; the gains sum to the
    classes on the list.
    """
    rows, mons = compatibility_rows(pair, k, vertices)
    M = len(mons)
    count = len(vertices)
    columns: list[dict[int, int]] = [{} for _ in range(count * M)]
    for ri, row in enumerate(rows):
        for c, x in row.items():
            columns[c][ri] = x
    tracker = linalg.RankTracker(len(rows))
    gains = []
    for off in range(0, count * M, M):
        before = tracker.rank
        tracker.extend(columns[off:off + M])
        gains.append(M - tracker.rank + before)
    return gains


def coh_basis(pair: GkmPair, k: int) -> tuple[int, list[CohClass]]:
    """Dimension and echelonized basis of the degree-k piece.

    The kernel of the compatibility system is computed exactly.
    """
    n = pair.n
    rows, mons = compatibility_rows(pair, k)
    M = len(mons)
    kernel = linalg.kernel_basis(rows, len(pair.vertices) * M)
    keys = [pack_monomial(m) for m in mons]
    classes = []
    for vec in kernel:
        # kernel vectors are primitive integer vectors: every entry is over 1
        values = {
            v: Polynomial._raw(
                n, {key: x.numerator for key, x in zip(keys, vec[i * M:(i + 1) * M]) if x}
            )
            for i, v in enumerate(pair.vertices)
        }
        classes.append(CohClass(k, values))
    return len(classes), classes


def chern_class(pair: GkmPair, k: int) -> CohClass:
    """k-th elementary symmetric function of the star forms at each vertex."""
    d = pair.valence
    if not 1 <= k <= d:
        raise ValueError(f"need 1 <= k <= {d}")
    values = {}
    for p in pair.vertices:
        elem = [Polynomial.constant(pair.n, 1)] + [Polynomial.zero(pair.n)] * d
        for q in pair.neighbors(p):
            alpha = Polynomial.from_covector(pair.axial_at(p, q))
            for j in range(min(d, len(elem) - 1), 0, -1):
                elem[j] = elem[j] + elem[j - 1] * alpha
        values[p] = elem[k]
    return CohClass(k, values)


def is_symplectic(pair: GkmPair, c: CohClass) -> bool:
    """Whether c(p) - c(q) is a positive multiple of the axial value at q.

    True exactly when every edge's proportionality factor is positive; a
    difference that is not even proportional makes the answer False.  A
    class on the wrong vertex set or in the wrong ring raises InputError.
    """
    if c.degree != 1:
        raise ValueError("symplectic candidates must have degree 1")
    _check_class(pair, c.values)
    for p, q in pair.edges:
        lam = divides_exactly(pair.form(q, p), c.value(p) - c.value(q))
        if lam is None or lam.coefficient((0,) * pair.n) <= 0:
            return False
    return True


def thom_class_vertex(pair: GkmPair, p: str) -> CohClass:
    """The degree-d class supported on p with value the product of p's star."""
    return thom_class_subobject(pair, [p], [])


def thom_class_subobject(
    pair: GkmPair, sub_vertices: Iterable[str], sub_edges: Iterable
) -> CohClass:
    """Product of the normal star forms on a compatible subgraph, zero outside."""
    sub_vertices = list(sub_vertices)
    sub_edges = [tuple(e) for e in sub_edges]
    if not is_compatible_subobject(pair, sub_vertices, sub_edges):
        raise ValueError("subgraph is not a compatible sub-object")
    d = pair.valence
    keys = {frozenset(e) for e in sub_edges}
    r = 0
    values = {v: Polynomial.zero(pair.n) for v in pair.vertices}
    for p in sub_vertices:
        normal = [q for q in pair.neighbors(p) if frozenset((p, q)) not in keys]
        r = d - len(normal)
        prod = Polynomial.constant(pair.n, 1)
        for q in normal:
            prod = prod * Polynomial.from_covector(pair.axial_at(p, q))
        values[p] = prod
    return CohClass(d - r, values)


def gysin(
    pair: GkmPair,
    sub_vertices: Iterable[str],
    sub_edges: Iterable,
    f1: CohClass,
) -> CohClass:
    """Extend a class of the sub-pair by zero and multiply by the Thom class."""
    sub_vertices = list(sub_vertices)
    sub_edges = [tuple(e) for e in sub_edges]
    sub = subpair(pair, sub_vertices, sub_edges)
    ok, witness = is_class(sub, f1.values)
    if not ok:
        raise ValueError(f"input is not a class of the sub-pair (edge {witness})")
    tau = thom_class_subobject(pair, sub_vertices, sub_edges)
    inside = set(sub_vertices)
    values = {}
    for v in pair.vertices:
        if v in inside:
            values[v] = f1.value(v) * tau.value(v)
        else:
            values[v] = Polynomial.zero(pair.n)
    return CohClass(f1.degree + tau.degree, values)


def pullback(back_map: Mapping[str, str], base_class: CohClass, vertices: Iterable[str]) -> CohClass:
    """Composition with a vertex map: (back_map* f)(v) = f(back_map(v)).

    A vertex whose image is missing or not a vertex of the class raises InputError.
    """
    values = {}
    for v in vertices:
        if back_map.get(v) not in base_class.values:
            raise InputError(f"vertex {v!r} has no image among the vertices of the class")
        values[v] = base_class.value(back_map[v])
    return CohClass(base_class.degree, values)


def blowup_class_check(base: GkmPair, p0: str, max_k: int = 4) -> dict:
    """Blow up at p0 and audit the induced ring structure.

    Checks that pullbacks of a basis along the blow-down map are classes and
    degreewise linearly independent up to max_k, that the alternating-sign
    relation in the singular-locus Thom class holds exactly (with the top
    coefficient the Thom class of p0), and tabulates dimensions of both
    rings for reference.  A negative max_k raises InputError.
    """
    _check_max_degree(max_k)
    sharp, beta = blow_up(base, p0)
    d = base.valence
    ps = [v for v in sharp.vertices if beta[v] == p0]
    locus = set(ps)
    locus_edges = [e for e in sharp.edges if e[0] in locus and e[1] in locus]

    pullback_ok = True
    injective_ok = True
    dims = []
    for k in range(max_k + 1):
        dim_base, basis = coh_basis(base, k)
        vectors = []
        mons = monomials(base.n, k)
        for cls in basis:
            lifted = pullback(beta, cls, sharp.vertices)
            ok, _ = is_class(sharp, lifted.values)
            if not ok:
                pullback_ok = False
            vectors.append(
                [
                    lifted.value(v).coefficient(m)
                    for v in sharp.vertices
                    for m in mons
                ]
            )
        if vectors and linalg.rank(vectors, len(vectors[0])) != dim_base:
            injective_ok = False
        dim_sharp = coh_dim(sharp, k)
        shifted = sum(dims[k - j]["base"] for j in range(1, min(d, k + 1)))
        dims.append({"k": k, "sharp": dim_sharp, "base": dim_base, "shiftedSum": shifted})

    tau = thom_class_subobject(sharp, ps, locus_edges)
    relation = tau**d
    for i in range(1, d + 1):
        coeff = chern_class(base, i) if i < d else thom_class_vertex(base, p0)
        lifted = pullback(beta, coeff, sharp.vertices)
        term = lifted * (tau ** (d - i))
        relation = relation + term.scaled(Fraction((-1) ** i))
    relation_ok = relation.is_zero()

    return {
        "pullbacksAreClasses": pullback_ok,
        "pullbackInjective": injective_ok,
        "relationHolds": relation_ok,
        "dims": dims,
    }
