"""Orientations from a generic direction and what they count.

A direction xi off every wall alpha(xi) = 0 orients each edge toward the
end whose covector is negative on xi.  The per-vertex count of incoming
edges (sigma) has a chamber-invariant histogram, the combinatorial Betti
numbers, and when the orientation is acyclic those numbers bound the
dimensions of the class spaces degree by degree.  This module computes
the orientations, the level functions, the Betti numbers with their
invariance report, the class dimensions read off flow-up classes, the
dimension bounds with exact filtered steps, and the Hilbert functions of
the omit-a-few-factors monomial ideals those bounds rest on.
"""

from __future__ import annotations

import graphlib
import itertools
import math
import operator
from collections.abc import Collection, Iterator, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from . import linalg
from .cohomology import _vertex_gains, coh_dim
from .gkm_core import GkmPair, OrientedEdge, subgraph_gamma_h
from .polyalg import (
    Covector,
    InputError,
    LinearForm,
    Polynomial,
    Vector,
    _check_max_degree,
    graded_dim,
    monomials,
    pack_monomial,
    pair as pairing,
    spell,
)

# A chamber of the wall arrangement: its sign on each wall class, and a
# rational direction inside it.
Chamber = tuple[tuple[int, ...], Vector]


@dataclass(frozen=True)
class Orientation:
    """Edges directed upward: each stored pair (p, q) has alpha at p positive on xi.

    sigma[v] counts the incidences at v whose covector is negative on xi,
    i.e. the number of edges pointing into v.
    """

    xi: Vector
    vertices: tuple[str, ...]
    edges: tuple[OrientedEdge, ...]
    sigma: Mapping[str, int]


def orient(pair: GkmPair, xi) -> Orientation:
    """Orient every edge by the sign of its covector on xi.

    Directions on a wall (some incidence evaluating to zero) are rejected
    with the offending incidence named.  Both denominators are positive, so
    the sign of a pairing is the sign of its integer numerator.
    """
    vec = Vector(xi)
    if vec.n != pair.n:
        raise ValueError(f"xi has {vec.n} coordinates, expected {pair.n}")
    xs = vec._num
    sigma = {v: 0 for v in pair.vertices}
    directed: list[OrientedEdge] = []
    for p, q in pair.edges:
        vp = sum(map(operator.mul, pair.axial_at(p, q)._num, xs))
        vq = sum(map(operator.mul, pair.axial_at(q, p)._num, xs))
        if vp == 0 or vq == 0:
            a, b = (p, q) if vp == 0 else (q, p)
            raise ValueError(f"xi lies on a wall: alpha[{a}->{b}](xi) = 0")
        if vp < 0:
            sigma[p] += 1
        if vq < 0:
            sigma[q] += 1
        directed.append((p, q) if vp > 0 else (q, p))
    return Orientation(vec, tuple(pair.vertices), tuple(directed), sigma)


def _upward_order(
    orientation: Orientation,
) -> tuple[dict[str, int], list[str], list[str] | None]:
    """Longest upward path out of each vertex, the level order, or a directed cycle.

    The level order puts the shorter longest path first and, on ties, the
    later input vertex first: descending ``positively_oriented_function``
    levels, so every vertex comes after its upward successors.  On a
    directed cycle the third entry lists the cycle's distinct vertices
    along the edges; graphlib, which reads successors as predecessors,
    reports it against that direction with its first vertex repeated.
    """
    succ: dict[str, list[str]] = {v: [] for v in orientation.vertices}
    for p, q in orientation.edges:
        succ[p].append(q)
    longest: dict[str, int] = {}
    try:
        for v in graphlib.TopologicalSorter(succ).static_order():
            longest[v] = max((longest[w] + 1 for w in succ[v]), default=0)
    except graphlib.CycleError as err:
        return {}, [], err.args[1][:0:-1]
    return longest, sorted(reversed(orientation.vertices), key=longest.__getitem__), None


def is_acyclic(orientation: Orientation) -> tuple[bool, list[str] | None]:
    """Directed-cycle test; on failure the witness lists the cycle's vertices."""
    cycle = _upward_order(orientation)[2]
    return cycle is None, cycle


def positively_oriented_function(pair: GkmPair, xi) -> dict[str, Fraction]:
    """Injective vertex levels increasing along every upward edge; xi may be an Orientation.

    The base level of a vertex is minus the edge count of the longest
    directed path out of it.  A vertex whose longest path has L > 0 edges
    has a successor at L - 1, so distinct base levels are 1 apart.  The r
    vertices of a tied level are then separated, in input order, by adding
    i/(2(r+1)) for i = 1..r, which stays below half that gap.  Both
    injectivity and the orientation inequality are rechecked exactly.
    """
    o = xi if isinstance(xi, Orientation) else orient(pair, xi)
    longest, _, cycle = _upward_order(o)
    if cycle is not None:
        raise ValueError("orientation has a directed cycle: " + " -> ".join(cycle))
    phi = {v: Fraction(-longest[v]) for v in o.vertices}
    groups: dict[int, list[str]] = {}
    for v in o.vertices:
        groups.setdefault(longest[v], []).append(v)
    for members in groups.values():
        r = len(members)
        if r > 1:
            for i, v in enumerate(members, start=1):
                phi[v] += Fraction(i, 2 * (r + 1))
    if len(set(phi.values())) != len(phi):
        raise ArithmeticError("level perturbation failed to separate vertices")
    for p, q in pair.edges:
        if (phi[p] - phi[q]) * pairing(pair.axial_at(q, p), o.xi) <= 0:
            raise ArithmeticError(f"levels not positively oriented on edge ({p}, {q})")
    return phi


def betti(pair: GkmPair, xi) -> list[int]:
    """Histogram of sigma over the vertices, indexed 0..valence; xi may be an Orientation."""
    o = xi if isinstance(xi, Orientation) else orient(pair, xi)
    out = [0] * (pair.valence + 1)
    for v in pair.vertices:
        out[o.sigma[v]] += 1
    return out


def _axial_classes(pair: GkmPair) -> list[LinearForm]:
    """The walls: distinct parallel classes of both orientations' covectors, first seen first."""
    seen: dict[tuple, LinearForm] = {}
    for p, q in pair.oriented_edges():
        form = pair.form(p, q)
        if form.canonical not in seen:
            seen[form.canonical] = form
    return list(seen.values())


def _ratio_extremes(pairs: Sequence[Sequence[int]]) -> tuple[Sequence[int], Sequence[int]]:
    """The pairs (p, q) with the smallest and the largest p / q, all q of one sign.

    Two such ratios compare as p * q' against p' * q, since q * q' > 0.
    """
    low = high = pairs[0]
    for r in pairs:
        if r[0] * low[1] < low[0] * r[1]:
            low = r
        elif r[0] * high[1] > high[0] * r[1]:
            high = r
    return low, high


def _between(lo: tuple[int, int] | None, hi: tuple[int, int] | None) -> tuple[int, int] | None:
    """A value strictly above the bound lo and below hi, or None if lo >= hi.

    Each bound, and the value, is a pair (p, q), q > 0, standing for p / q;
    a missing bound is None.  The value is the midpoint, one past the only
    bound, or 1 without bounds.
    """
    if lo and hi:
        if lo[0] * hi[1] >= hi[0] * lo[1]:
            return None
        return lo[0] * hi[1] + hi[0] * lo[1], 2 * lo[1] * hi[1]
    if lo:
        return lo[0] + lo[1], lo[1]
    if hi:
        return hi[0] - hi[1], hi[1]
    return 1, 1


def _last_coordinate(
    lower: Sequence[Sequence[int]], upper: Sequence[Sequence[int]], point: Vector
) -> tuple[int, int] | None:
    """A last coordinate strictly between the bounds at point, or None if max(lo) >= min(hi).

    Row r bounds the last coordinate by -(r . point) / r[-1]: from below on
    lower rows (r[-1] > 0), from above on upper rows.  Bounds, over the
    point's denominator, and the coordinate are ``_between``'s integer pairs.
    """
    ip, scale = point._num, point._den
    m = len(ip)
    lo = hi = None
    if lower:
        p, q = _ratio_extremes([(-sum(map(operator.mul, r, ip)), r[m]) for r in lower])[1]
        lo = (p, q * scale)
    if upper:
        p, q = _ratio_extremes([(-sum(map(operator.mul, r, ip)), r[m]) for r in upper])[0]
        hi = (-p, -q * scale)
    return _between(lo, hi)


def _feasible(rows: Collection[Sequence[int]], n: int) -> Vector | None:
    """A ``Vector`` witness for the strict system row . x > 0 over integer rows, or None.

    The last variable is eliminated by combining rows of opposite sign
    there, each combination divided by the gcd of its entries into a set,
    so positive multiples of a row merge; that moves no bound, so the
    witness is the unmerged one.  A witness for the reduced system is
    extended by picking the last coordinate strictly between the bounds.

    At n = 1 every combination is the empty row, so rows of both signs
    give None; otherwise the point is +1 past the lower rows' bound 0, or
    -1 below the upper rows'.  At n = 2 the elimination is decided in
    closed form, with the witness the recursion would give: a combination
    of a lower row (r1 > 0) and an upper row (r1 < 0) has the sign of the
    difference of their ratios r0 / r1, and a ratio the two sides share
    combines into the zero row.  So the reduced 1-D system holds its point
    x0 exactly when the rows with r1 = 0 have the sign of x0 and the bounds
    max(lo) and min(hi) on the last coordinate, -x0 times the facing ratio
    extremes, are strictly apart.  The recursion's point is +1 when that
    holds for +1 and -1 otherwise.  Since the closed form reads only ratios
    and signs, the combinations made at n = 3 go to it unmerged.
    """
    if n == 2:
        flat = [r[0] for r in rows if r[1] == 0]
        lower = [r for r in rows if r[1] > 0]
        upper = [r for r in rows if r[1] < 0]
        l_lo, l_hi = _ratio_extremes(lower) if lower else (None, None)
        u_lo, u_hi = _ratio_extremes(upper) if upper else (None, None)
        for x in (1, -1):
            if all(c * x > 0 for c in flat):
                l, u = (l_lo, u_hi) if x > 0 else (l_hi, u_lo)
                lo = (-x * l[0], l[1]) if lower else None
                hi = (x * u[0], -u[1]) if upper else None
                last = _between(lo, hi)
                if last is not None:
                    return Vector._raw((x * last[1], last[0]), last[1])
        return None
    if any(not any(r) for r in rows):
        return None
    if n == 0:
        return Vector._raw(())
    m = n - 1
    lower = [r for r in rows if r[m] > 0]
    upper = [r for r in rows if r[m] < 0]
    if m == 2:
        # unpacked, and unmerged: the closed form reads only ratios and signs
        reduced = [r[:2] for r in rows if r[2] == 0]
        for a0, a1, a2 in lower:
            for b0, b1, b2 in upper:
                row = (b0 * a2 - a0 * b2, b1 * a2 - a1 * b2)
                if row == (0, 0):
                    return None  # a and b are opposite
                reduced.append(row)
    else:
        reduced = {tuple(r[:m]) for r in rows if r[m] == 0}
        coords = range(m)
        for a in lower:
            pa = a[m]
            for b in upper:
                nb = -b[m]
                row = tuple([a[i] * nb + b[i] * pa for i in coords])
                g = math.gcd(*row)
                if g == 0:
                    return None  # a and b are opposite
                reduced.add(row if g == 1 else tuple([x // g for x in row]))
    point = _feasible(reduced, m)
    if point is None:
        return None
    last = _last_coordinate(lower, upper, point)
    if last is None:
        raise ArithmeticError("feasibility witness collapsed")
    p, q = last
    return Vector._raw(tuple([a * q for a in point._num]) + (p * point._den,), point._den * q)


def _chamber_search(classes: Sequence[LinearForm], n: int) -> Iterator[Chamber]:
    """Every chamber of the wall arrangement as (sign vector, witness), exactly.

    Depth-first over sign prefixes in class order, -1 before +1, so chambers
    come out in ascending sign-vector order; rows are +-1 times each class's
    primitive integer covector.  A prefix whose strict system is infeasible
    is dropped with all its extensions.  Below the last class, a child
    keeps its parent's witness when that is strictly positive on the new
    row; a full-length sign vector's witness is always the feasibility
    witness of its whole system.  A witness's denominator is positive, so
    the reuse test and the leaf self-check are integer dot products with
    its numerators, of the same sign.
    """
    signed = [(tuple(-c for c in cls.canonical), cls.canonical) for cls in classes]

    def extend(signs: tuple[int, ...], rows: list, witness: Vector):
        depth = len(signs)
        if depth == len(classes):
            for row in rows:
                if sum(map(operator.mul, row, witness._num)) <= 0:
                    raise ArithmeticError("feasibility witness fails its own system")
            yield signs, witness
            return
        for s, row in zip((-1, 1), signed[depth]):
            grown = rows + [row]
            reuse = depth + 1 < len(classes) and sum(map(operator.mul, row, witness._num)) > 0
            w = witness if reuse else _feasible(grown, n)
            if w is not None:
                yield from extend(signs + (s,), grown, w)

    yield from extend((), [], _feasible([], n))


def _chambers(classes: Sequence[LinearForm], n: int) -> tuple[list[Chamber], str]:
    """All chambers in ascending sign-vector order, and the method tag the report carries."""
    return list(_chamber_search(classes, n)), "exhaustive"


def betti_invariance_check(pair: GkmPair) -> dict:
    """Betti histograms across every chamber of the wall arrangement.

    Chambers are keyed by the sign vector of the walls (``_axial_classes``,
    both orientations of every edge).  For each chamber the histogram is
    computed twice, from the witness ``Vector`` and from the sign vector
    alone, and all chambers must agree on it.
    """
    classes = _axial_classes(pair)
    chambers, method = _chambers(classes, pair.n)
    cindex = {cls.canonical: i for i, cls in enumerate(classes)}
    incidences: dict[str, list[tuple[int, int]]] = {v: [] for v in pair.vertices}
    for p, q in pair.oriented_edges():
        form = pair.form(p, q)
        incidences[p].append((cindex[form.canonical], 1 if form.scale > 0 else -1))
    d = pair.valence
    betas = []
    for signs, witness in chambers:
        hist = betti(pair, witness)
        from_signs = [0] * (d + 1)
        for v in pair.vertices:
            from_signs[sum(1 for ci, s in incidences[v] if s * signs[ci] < 0)] += 1
        if hist != from_signs:
            raise ArithmeticError("witness histogram disagrees with its sign vector")
        betas.append(hist)
    invariant = all(b == betas[0] for b in betas)
    return {
        "betti": betas[0] if betas else [],
        "chambers_found": len(chambers),
        "invariant": invariant,
        "method": method,
    }


def wall_crossing_check(pair: GkmPair, xi, xi2) -> dict:
    """Compare sigma between two chambers separated by a single wall.

    The two directions must have sign vectors differing in exactly one
    parallel class.  On every edge of that class the lower end's count r
    and the upper end's r+1 trade places; every other vertex keeps its
    count.  Both facts need the compatibility across edges, so this is
    only meaningful for pairs carrying a valid connection.
    """
    o1 = orient(pair, xi)
    o2 = orient(pair, xi2)
    # an edge turns exactly when its class changes sign
    crossed = [(e, e1) for e, e1, e2 in zip(pair.edges, o1.edges, o2.edges) if e1 != e2]
    diff = {pair.form(*e).canonical for e, _ in crossed}
    if len(diff) != 1:
        raise ValueError(
            f"need sign vectors differing in exactly one class, got {len(diff)} differences"
        )
    edge_reports = []
    touched: set[str] = set()
    edges_ok = True
    for e, (low, high) in crossed:
        touched.update(e)
        before = (o1.sigma[low], o1.sigma[high])
        after = (o2.sigma[low], o2.sigma[high])
        ok = before[1] == before[0] + 1 and after == (before[1], before[0])
        edges_ok = edges_ok and ok
        edge_reports.append(
            {"edge": [low, high], "before": list(before), "after": list(after), "ok": ok}
        )
    others_fixed = all(
        o1.sigma[v] == o2.sigma[v] for v in pair.vertices if v not in touched
    )
    return {
        "class": list(diff.pop()),
        "edges": edge_reports,
        "others_fixed": others_fixed,
        "ok": edges_ok and others_fixed,
    }


def find_acyclic_xi(pair: GkmPair) -> Vector:
    """First chamber direction, in sign-vector order, with an acyclic orientation."""
    for _, witness in _chamber_search(_axial_classes(pair), pair.n):
        o = orient(pair, witness)
        if is_acyclic(o)[0]:
            return o.xi
    raise ValueError("no acyclic orientation found in any chamber")


def l_independent(forms: Sequence, l: int) -> bool:
    """True when every l-subset of the forms is linearly independent."""
    covs = [_as_covector(f) for f in forms]
    if l <= 0:
        return True
    n = covs[0].n if covs else 0
    for combo in itertools.combinations(covs, l):
        if linalg.rank([list(c) for c in combo], n) < l:
            return False
    return True


def _as_covector(form) -> Covector:
    return form.covector if isinstance(form, LinearForm) else Covector(form)


def ideal_hilbert(forms: Sequence, l: int, m: int) -> tuple[int, int]:
    """Dimensions of (degree-m piece of the ideal, degree-m piece of the ring).

    The ideal is generated by the products of all the forms except l-1 of
    them, one generator per (l-1)-subset.  Its degree-m piece is spanned
    by generator-times-monomial products and the dimension is an exact
    rank over the rationals.
    """
    covs = [_as_covector(f) for f in forms]
    if not covs:
        raise ValueError("need at least one form")
    n = covs[0].n
    if any(c.n != n for c in covs):
        raise ValueError("forms of mixed dimension")
    if l < 1:
        raise ValueError("need l >= 1")
    if m < 0:
        return 0, 0
    total = graded_dim(n, m)
    gdeg = len(covs) - (l - 1)
    if m < gdeg:
        return 0, total
    polys = [Polynomial.from_covector(c) for c in covs]
    # rows are indexed by packed monomial key; x_0**m has the largest key of degree m
    ncols = pack_monomial((m,) + (0,) * (n - 1)) + 1
    shifts = [pack_monomial(mu) for mu in monomials(n, m - gdeg)]
    rows = []
    for omit in itertools.combinations(range(len(covs)), l - 1):
        skip = set(omit)
        gen = Polynomial.constant(n, 1)
        for i, g in enumerate(polys):
            if i not in skip:
                gen = gen * g
        rows.extend({k + mu: c for k, c in gen._terms.items()} for mu in shifts)
    return linalg.rank(rows, ncols), total


def _flow_up_dims(pair: GkmPair, o: Orientation, max_k: int) -> list[int] | None:
    """Class dimensions in degrees 0..max_k read off flow-up classes, or None.

    List the vertices top first in level order (``_upward_order``).  A
    class vanishing on the vertices after p has at p a value that every
    downward form at p divides; when those forms are pairwise
    non-parallel their product, of degree sigma_p, divides it, so the
    classes on the first i vertices exceed those on the first i - 1 by at
    most dim S^(k - sigma_p).  A flow-up class of p has degree sigma_p,
    vanishes after p and has that product as its value at p; the products
    of the flow-up classes with S^(k - sigma_p) are independent, being
    triangular in that order.  So when every p with sigma_p <= max_k has
    one, dim H^k is the sum over p of dim S^(k - sigma_p) for every
    k <= max_k.

    Existence is checked with one column elimination per sigma value
    s <= max_k (``_vertex_gains``): the degree-s classes vanishing off the
    prefix that ends at the last vertex with sigma = s, column blocks in
    prefix order.  p has a flow-up class exactly when its block gains 1,
    since a degree-sigma_p class vanishing after p is at p a constant
    times the product of its downward forms.
    None means the certificate does not apply: a directed cycle, a vertex
    whose downward forms are parallel or do not number sigma, or a missing
    flow-up class.
    """
    _, order, cycle = _upward_order(o)
    if cycle is not None:
        return None
    below: dict[str, list[tuple[int, ...]]] = {v: [] for v in o.vertices}
    for (_, high), edge in zip(o.edges, pair.edges):
        below[high].append(pair.form(*edge).canonical)
    sigma = o.sigma
    if any(len(forms) != sigma[v] or len(set(forms)) < len(forms) for v, forms in below.items()):
        return None
    last = {sigma[v]: i for i, v in enumerate(order, start=1) if sigma[v] <= max_k}
    for s, end in last.items():
        gains = _vertex_gains(pair, s, order[:end])
        if any(g != 1 for g, v in zip(gains, order) if sigma[v] == s):
            return None
    n = pair.n
    return [sum(graded_dim(n, k - sigma[v]) for v in order) for k in range(max_k + 1)]


def class_dims(pair: GkmPair, max_k: int) -> list[int]:
    """Class-space dimensions in degrees 0..max_k.

    Read off flow-up classes (``_flow_up_dims``) along (1, t, ..., t^(n-1))
    with the least t >= 2 off every wall: a wall excludes the at most
    n - 1 roots of its form's polynomial in t.  When they do not certify,
    each degree is eliminated on its own (``coh_dim``).
    """
    _check_max_degree(max_k)
    walls = _axial_classes(pair)
    t = 2
    while any(sum(c * t**i for i, c in enumerate(w.canonical)) == 0 for w in walls):
        t += 1
    dims = _flow_up_dims(pair, orient(pair, [t**i for i in range(pair.n)]), max_k)
    return dims if dims is not None else [coh_dim(pair, k) for k in range(max_k + 1)]


def morse_inequalities(pair: GkmPair, xi, max_k: int) -> dict:
    """Dimension bounds per degree, globally and one filtration step at a time.

    For each k the class-space dimension is compared against the
    sigma-histogram bound, and each one-vertex step of the filtration by
    descending level (classes vanishing below a level) is bounded above by
    the count of monomials in the complementary degree and below by the
    matching graded piece of the omit-one-factor ideal of the parallel
    classes.  When flow-up classes exist along xi (``_flow_up_dims``),
    the dimensions equal the bound and every step gains its upper bound,
    exactly.  Otherwise each degree is eliminated twice: the dimension is
    the row-rank ``coh_dim``, the steps are the column-block gains of
    ``_vertex_gains`` in descending level order, and the gains must sum
    to that dimension at the bottom level.
    """
    _check_max_degree(max_k)
    o = orient(pair, xi)
    phi = positively_oriented_function(pair, o)
    d = pair.valence
    n = pair.n
    beta = betti(pair, o)
    class_covs = [c.canonical_covector() for c in _axial_classes(pair)]

    @cache
    def ideal_dim(m: int) -> int:
        if m < 0 or not class_covs:
            return 0
        return ideal_hilbert(class_covs, 2, m)[0]

    order = sorted(pair.vertices, key=lambda v: phi[v], reverse=True)
    dims = _flow_up_dims(pair, o, max_k)
    morse_rows = []
    steps = []
    overall = True
    for k in range(max_k + 1):
        if dims is None:
            lhs, gains = coh_dim(pair, k), _vertex_gains(pair, k, order)
            if sum(gains) != lhs:
                raise ArithmeticError(
                    "filtered dimension at the bottom level disagrees with the row rank"
                )
        else:
            lhs, gains = dims[k], [graded_dim(n, k - o.sigma[v]) for v in order]
        rhs = sum(beta[r] * graded_dim(n, k - r) for r in range(d + 1))
        ok_k = lhs <= rhs
        overall = overall and ok_k
        morse_rows.append(
            {"k": k, "lhs": lhs, "rhs": rhs, "ok": ok_k, "equality": lhs == rhs}
        )
        for v, gain in zip(order, gains):
            r = o.sigma[v]
            upper = graded_dim(n, k - r)
            lower = ideal_dim(k - r)
            ok_s = lower <= gain <= upper
            overall = overall and ok_s
            steps.append(
                {
                    "k": k,
                    "vertex": v,
                    "sigma": r,
                    "gain": gain,
                    "upper": upper,
                    "lower": lower,
                    "ok": ok_s,
                }
            )
    return {"betti": beta, "morse": morse_rows, "steps": steps, "ok": overall}


def betti_equality_report(pair: GkmPair, l: int, max_k: int) -> dict:
    """Independence and unique-minimum hypotheses, and the dimension table.

    Hypotheses: the star covectors at every vertex are l-independent, and
    for every subspace annihilating an independent set of fewer than l
    wall normals the components of the induced subgraph each have exactly
    one sigma-zero vertex.  When l equals the ambient dimension and both
    hypotheses hold, the table's two sides must agree for every
    k > valence - n up to max_k; that equality is enforced, anything else
    is only reported.
    """
    _check_max_degree(max_k)
    if l < 1:
        raise InputError(f"--l must be at least 1, got {l}")
    xi = find_acyclic_xi(pair)
    n = pair.n
    d = pair.valence
    indep_failures = [
        p
        for p in pair.vertices
        if not l_independent([f for _, f in pair.star_forms(p)], l)
    ]
    classes = _axial_classes(pair)
    normals = [c.canonical_covector() for c in classes]
    min_failures: list[dict] = []
    seen_spans: set[tuple] = set()
    for size in range(0, l):
        for combo in itertools.combinations(range(len(normals)), size):
            rows = [list(normals[i]) for i in combo]
            h_basis = linalg.kernel_basis(rows, n)
            if len(h_basis) != n - size:
                continue  # the chosen normals are dependent
            key = tuple(tuple(v) for v in h_basis)
            if key in seen_spans:
                continue
            seen_spans.add(key)
            try:
                components = subgraph_gamma_h(pair, h_basis)
            except ValueError as err:
                min_failures.append({"normals": rows, "error": str(err)})
                continue
            for comp in components:
                # xi is a chamber witness of the whole pair, so no edge of comp is on a wall
                beta0 = betti(comp, xi)[0]
                if beta0 != 1:
                    min_failures.append(
                        {"normals": rows, "component": list(comp.vertices), "beta0": beta0}
                    )
    beta = betti(pair, xi)
    table = []
    for k, lhs in enumerate(class_dims(pair, max_k)):
        rhs = sum(beta[r] * graded_dim(n, k - r) for r in range(d + 1))
        table.append({"k": k, "lhs": lhs, "rhs": rhs, "equal": lhs == rhs})
    hypotheses_ok = not indep_failures and not min_failures
    asserted: bool | None = None
    if l == n and hypotheses_ok:
        asserted = True
        for row in table:
            if row["k"] > d - n and not row["equal"]:
                raise ArithmeticError(
                    f"dimension equality failed at k={row['k']} despite the hypotheses"
                )
    return {
        "l": l,
        "n": n,
        "valence": d,
        "xi": [spell(a, xi._den) for a in xi._num],
        "star_independence_ok": not indep_failures,
        "star_independence_failures": indep_failures,
        "unique_min_ok": not min_failures,
        "unique_min_failures": min_failures,
        "betti": beta,
        "table": table,
        "asserted_equality": asserted,
    }
