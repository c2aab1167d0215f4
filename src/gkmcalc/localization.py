"""Pushforwards: fixed-point sums, level cuts, and residue comparisons.

The basic pushforward sums f(p) over the denominators given by each
vertex star and must collapse to a polynomial of degree k - d.  A level
cut (a direction xi, an injective positively oriented level function,
and a regular value c) yields the cross-section pushforward built from
projected star forms; it is computed both ways, via the cross-section
formula and via per-vertex residues below the cut, and the two results
are required to agree exactly.
"""

from __future__ import annotations

from bisect import bisect
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .cohomology import CohClass, _check_class
from .gkm_core import GkmPair, OrientedEdge
from .morse_betti import positively_oriented_function
from .polyalg import (
    InputError,
    LinearForm,
    LocalizedSum,
    LocalizedTerm,
    Polynomial,
    Vector,
    _expansion,
    _project,
    _residue_forms,
    _series,
    as_fraction,
    pair as pairing,
    polynomial_sum,
    project_covector,
)


class IntegrityError(ArithmeticError):
    """Two computations that must agree exactly did not."""


def pushforward_localized_sum(pair: GkmPair, f: CohClass) -> LocalizedSum:
    """The unsimplified sum of f(p) over the product of each star's forms."""
    terms = []
    for p in pair.vertices:
        dens = tuple(pair.form(p, q) for q in pair.neighbors(p))
        terms.append(LocalizedTerm(f.value(p), dens))
    return LocalizedSum(pair.n, tuple(terms))


def _pushforward(lsum: LocalizedSum, expected: int, what: str) -> Polynomial:
    """The polynomial a sum collapses to, which must be zero or of the expected degree."""
    numerator = polynomial_sum(lsum, f"{what} did not simplify to a polynomial")
    if not numerator.is_zero() and (expected < 0 or numerator.homogeneous_degree() != expected):
        raise IntegrityError(f"{what} degree {numerator.homogeneous_degree()} != {expected}")
    return numerator


def integrate(pair: GkmPair, f: CohClass) -> Polynomial:
    """Exact pushforward of a class; homogeneous of degree k - d, zero if k < d.

    A residual denominator after simplification means the input was not a
    class (or the pair invalid) and raises NonPolynomialResultError.
    """
    _check_class(pair, f.values)
    return _pushforward(pushforward_localized_sum(pair, f), f.degree - pair.valence, "pushforward")


@dataclass(frozen=True)
class LevelCut:
    """Direction xi, injective positively oriented levels phi, regular value c."""

    xi: Vector
    phi: Mapping[str, Fraction]
    c: Fraction

    def __post_init__(self):
        object.__setattr__(self, "xi", Vector(self.xi))
        object.__setattr__(self, "phi", {p: as_fraction(v) for p, v in self.phi.items()})
        object.__setattr__(self, "c", as_fraction(self.c))

    def validate(self, pair: GkmPair) -> None:
        if self.xi.n != pair.n:
            raise ValueError("xi has the wrong dimension")
        if set(self.phi) != set(pair.vertices):
            raise ValueError("phi must assign a level to every vertex")
        levels = list(self.phi.values())
        if len(set(levels)) != len(levels):
            raise ValueError("phi must be injective")
        if self.c in set(levels):
            raise InputError("c must avoid the vertex levels")
        for p, q in pair.edges:
            a = pairing(pair.axial_at(q, p), self.xi)
            if a == 0:
                raise ValueError(f"xi lies on the wall of edge ({p!r}, {q!r})")
            if (self.phi[p] - self.phi[q]) * a <= 0:
                raise ValueError(f"phi is not positively oriented on edge ({p!r}, {q!r})")


def _upward_edges(pair: GkmPair, phi: Mapping[str, Fraction]) -> list[OrientedEdge]:
    """Every edge oriented upper vertex first, in input order."""
    return [(p, q) if phi[p] > phi[q] else (q, p) for p, q in pair.edges]


def cross_section(pair: GkmPair, cut: LevelCut) -> list[OrientedEdge]:
    """The edges crossing a validated cut, oriented upper vertex first, in input order."""
    cut.validate(pair)
    phi, c = cut.phi, cut.c
    return [(p, q) for p, q in _upward_edges(pair, phi) if phi[p] > c > phi[q]]


def _kirwan_image(
    pair: GkmPair, xi: Vector, f: CohClass, expansion: Callable, p: str, q: str
) -> Polynomial:
    """Common projection of f(p) and f(q) along the form of the edge (p, q)."""
    form = pair.form(p, q)
    image_p = _project(f.value(p), expansion(p), form, xi)
    image_q = _project(f.value(q), expansion(q), form, xi)
    if image_p != image_q:
        raise IntegrityError(f"edge ({p!r}, {q!r}): end values project differently")
    return image_p


def kirwan_map(pair: GkmPair, cut: LevelCut, f: CohClass) -> dict[OrientedEdge, Polynomial]:
    """Common image of the two end values of f on each cross-section edge.

    Values are projected into the subring annihilating xi along the edge
    form; the p- and q-side images must agree exactly.
    """
    _check_class(pair, f.values)
    expansion = cache(lambda p: _expansion(f.value(p), cut.xi))
    return {e: _kirwan_image(pair, cut.xi, f, expansion, *e) for e in cross_section(pair, cut)}


def _edge_term(
    pair: GkmPair, xi: Vector, f: CohClass, expansion: Callable, p: str, q: str
) -> LocalizedTerm:
    """(1/m_e) f(e) over the projected star forms of the upper vertex p of (p, q)."""
    value = _kirwan_image(pair, xi, f, expansion, p, q)
    alpha_qe = pair.axial_at(q, p)
    m_e = pairing(alpha_qe, xi)
    if m_e <= 0:
        raise IntegrityError(f"edge ({p!r}, {q!r}): lower-end pairing not positive")
    form = pair.form(p, q)
    sharps = []
    for r in pair.neighbors(p):
        if r == q:
            continue
        sharp = project_covector(pair.axial_at(p, r), form, xi)
        if sharp.is_zero():
            raise ValueError(
                f"projected star form vanishes on edge ({p!r}, {q!r}) toward {r!r}"
            )
        sharps.append(LinearForm(sharp))
    return LocalizedTerm(value.scaled(Fraction(1) / m_e), tuple(sharps))


@dataclass(frozen=True)
class JKResult:
    polynomial: Polynomial
    degree: int
    per_vertex_residues: dict[str, Polynomial]


def _cut_pushforwards(
    pair: GkmPair, xi: Vector, phi: Mapping[str, Fraction], f: CohClass, levels: list[Fraction]
) -> tuple[list[JKResult], dict[str, Polynomial]]:
    """Cut pushforwards of f at each level, each checked against its residues.

    The caller has validated (xi, phi) and put every level off the vertex
    levels.  The vertices are sorted by phi once, so the vertices below a
    level are a prefix of that order, and an edge crosses the level when
    its lower end is in the prefix and its upper end is not.  At each level
    the cross-section sum of (1/m_e) f(e) over the projected star forms is
    simplified exactly, must be a polynomial of degree k - d + 1, and must
    equal the sum of the residues of f(p) over the stars of the vertices
    below the level; a disagreement raises IntegrityError.  A term depends
    only on its oriented edge and a residue only on its vertex, so each is
    computed once for all levels, and both ends' Kirwan images and the
    series residue of a vertex share one expansion of its value along xi.
    Returns the results and the residues computed, by vertex.
    """
    _check_class(pair, f.values)
    expansion = cache(lambda p: _expansion(f.value(p), xi))
    expected = f.degree - pair.valence + 1
    order = sorted(pair.vertices, key=phi.__getitem__)
    heights = [phi[p] for p in order]
    rank = {p: i for i, p in enumerate(order)}
    upward = _upward_edges(pair, phi)
    terms: dict[OrientedEdge, LocalizedTerm] = {}
    residues: dict[str, Polynomial] = {}
    results = []
    for c in levels:
        nbelow = bisect(heights, c)  # the vertices below c are order[:nbelow]
        crossing = [(p, q) for p, q in upward if rank[q] < nbelow <= rank[p]]
        for e in crossing:
            if e not in terms:
                terms[e] = _edge_term(pair, xi, f, expansion, *e)
        numerator = _pushforward(LocalizedSum(pair.n, tuple(terms[e] for e in crossing)),
                                 expected, "cross-section pushforward")
        below = [p for p in pair.vertices if rank[p] < nbelow]
        for p in below:
            if p not in residues:
                value = f.value(p)
                forms = _residue_forms(value, [a for _, a in pair.star_forms(p)], xi)
                residues[p] = _series(value, expansion(p), forms, xi)
        per_vertex = {p: residues[p] for p in below}
        if sum(per_vertex.values(), Polynomial.zero(pair.n)) != numerator:
            raise IntegrityError("cross-section sum and residue sum disagree")
        results.append(JKResult(numerator, expected, per_vertex))
    return results, residues


def jk_pushforward(pair: GkmPair, cut: LevelCut, f: CohClass) -> JKResult:
    """Cross-section pushforward of f at the cut, checked against residues.

    The cut is validated here, then computed as one level of
    _cut_pushforwards: an exact polynomial of degree k - d + 1 equal to
    the sum of the residues of f at the vertices below the cut.
    """
    cut.validate(pair)
    return _cut_pushforwards(pair, cut.xi, cut.phi, f, [cut.c])[0][0]


def wall_crossing_step(
    pair: GkmPair, cut_hi: LevelCut, cut_lo: LevelCut, f: CohClass
) -> Polynomial:
    """Difference of the two cut pushforwards across a single vertex.

    Both cuts are validated first.  They must share xi and phi and isolate
    exactly one vertex between their levels; both levels are computed in
    one pass, and the difference must equal the residue of f at that
    vertex.
    """
    cut_hi.validate(pair)
    cut_lo.validate(pair)
    if cut_hi.xi != cut_lo.xi or cut_hi.phi != cut_lo.phi:
        raise ValueError("cuts must share xi and phi")
    if cut_hi.c <= cut_lo.c:
        raise ValueError("first cut must sit above the second")
    between = [p for p in pair.vertices if cut_lo.c < cut_hi.phi[p] < cut_hi.c]
    if len(between) != 1:
        raise ValueError(f"expected exactly one vertex between the levels, got {between}")
    p_r = between[0]
    (hi, lo), residues = _cut_pushforwards(pair, cut_hi.xi, cut_hi.phi, f, [cut_hi.c, cut_lo.c])
    diff = hi.polynomial - lo.polynomial
    if diff != residues[p_r]:
        raise IntegrityError(f"wall-crossing difference at {p_r!r} mismatches its residue")
    return diff


def full_sweep(pair: GkmPair, xi: Vector, f: CohClass) -> dict:
    """Sweep levels from below the minimum to above the maximum, one vertex per step.

    Every intermediate pushforward is computed both ways (_cut_pushforwards
    enforces their agreement), each step difference is compared with the
    residue of the vertex it crosses, and the final value above all
    vertices must vanish.  No LevelCut is validated: positively_oriented_function
    has oriented xi (so its dimension is right) and checked that phi is
    injective with (phi(p) - phi(q)) alpha_{q->p}(xi) > 0 on every edge (so
    xi is on no wall), and each level avoids the vertex levels.
    """
    xi = Vector(xi)
    phi = positively_oriented_function(pair, xi)
    ordered = sorted(pair.vertices, key=phi.__getitem__)
    heights = [phi[p] for p in ordered]
    levels = [heights[0] - 1, *((a + b) / 2 for a, b in zip(heights, heights[1:])), heights[-1] + 1]
    results, residues = _cut_pushforwards(pair, xi, phi, f, levels)
    steps = (results[i + 1].polynomial - results[i].polynomial == residues[p]
             for i, p in enumerate(ordered))
    if not all(steps) or not results[-1].polynomial.is_zero():
        raise IntegrityError("level sweep failed telescoping checks")
    return {
        "levels": levels,
        "pushforwards": [r.polynomial for r in results],
        "perVertexResidues": {p: residues[p] for p in pair.vertices},
        "stepsOk": True,
        "topIsZero": True,
    }
