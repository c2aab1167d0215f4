"""Factories for the standard graph-axial-function pairs.

Complete graphs, products, blow-ups at a vertex, and 2-valent cycles,
each built together with its axial function and (where the inputs allow)
its connection.  Vertex naming is deterministic: complete graphs and
cycles use "1".."N", products join factor names with "|", and a blow-up
at p0 names the new vertices "p0#1".."p0#d" following the sorted order
of p0's neighbors.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence

from . import linalg
from .gkm_core import GkmPair, ValidationReport, validate_axial
from .polyalg import Covector, InputError, LinearForm, parallel_pairs


def _conflict(points: Sequence[Covector]) -> tuple[int, ...] | None:
    """The first bar to a complete graph on the points, by index, or None.

    That is the first pair (i, j), i < j, of coinciding points; failing
    that, the first (i, a, b) with point_i - point_a parallel to
    point_i - point_b, a < b.
    """
    N = len(points)
    for i, j in itertools.combinations(range(N), 2):
        if points[i] == points[j]:
            return i, j
    for i in range(N):
        others = [j for j in range(N) if j != i]
        for a, b in parallel_pairs([LinearForm(points[i] - points[j]) for j in others]):
            return i, others[a], others[b]
    return None


def _complete(names: Sequence[str], points: Sequence[Covector]):
    """Edges, axial values and standard connection of the complete graph on names.

    Returns the edges (names_i, names_j) for i < j, the axial values
    (i -> j) = points_i - points_j in both orientations, and the standard
    connection, which along (i -> j) sends j to i and fixes every other name.
    """
    N = len(names)
    edges, axial, conn = [], {}, {}
    for i in range(N):
        for j in range(N):
            if i == j:
                continue
            if i < j:
                edges.append((names[i], names[j]))
            axial[(names[i], names[j])] = points[i] - points[j]
            conn[(names[i], names[j])] = {
                names[k]: names[i] if k == j else names[k] for k in range(N) if k != i
            }
    return edges, axial, conn


def complete_graph(alphas: Sequence[Covector | Iterable]) -> GkmPair:
    """Complete graph on N vertices with axial (i -> j) = alpha_i - alpha_j.

    Requires, for every i, that the differences alpha_i - alpha_j (j != i)
    are pairwise linearly independent; in particular the alphas are
    distinct.  The standard connection (i -> j): (i,k) -> (j,k) is attached.
    """
    cov = [Covector(a) for a in alphas]
    if not cov:
        raise InputError("need at least one point")
    n = cov[0].n
    if any(c.n != n for c in cov):
        raise InputError("all points must share one ambient dimension")
    match _conflict(cov):
        case (i, j):
            raise InputError(f"points {i + 1} and {j + 1} coincide")
        case (i, a, b):
            raise ValueError(
                f"differences at vertex {i + 1} toward {a + 1} and {b + 1} are parallel"
            )

    names = [str(i + 1) for i in range(len(cov))]
    edges, axial, conn = _complete(names, cov)
    return GkmPair(n, names, edges, axial, conn)


def product(a: GkmPair, b: GkmPair) -> tuple[GkmPair, ValidationReport]:
    """Product pair on V_a x V_b with the disjoint-union axial function.

    The product of valid factors can still violate star independence when
    factor covectors at a composite vertex are parallel, so the result is
    validated rather than trusted; both the pair and its report are
    returned.  The product connection is attached when both factors carry
    one.
    """
    if a.n != b.n:
        raise InputError("factors must share one ambient dimension")

    def name(p: str, q: str) -> str:
        return f"{p}|{q}"

    vertices = [name(p, q) for p in a.vertices for q in b.vertices]
    edges = [(name(p, q), name(p2, q)) for p, p2 in a.edges for q in b.vertices]
    edges += [(name(p, q), name(p, q2)) for p in a.vertices for q, q2 in b.edges]
    axial = {(name(p, q), name(p2, q)): c for (p, p2), c in a.axial.items() for q in b.vertices}
    axial.update({(name(p, q), name(p, q2)): c for (q, q2), c in b.axial.items() for p in a.vertices})

    conn = None
    if a.connection is not None and b.connection is not None:
        maps = {}
        for p, p2 in a.oriented_edges():
            base = a.connection[(p, p2)]
            for q in b.vertices:
                m = {name(r, q): name(base[r], q) for r in a.neighbors(p)}
                for q2 in b.neighbors(q):
                    m[name(p, q2)] = name(p2, q2)
                maps[(name(p, q), name(p2, q))] = m
        for q, q2 in b.oriented_edges():
            base = b.connection[(q, q2)]
            for p in a.vertices:
                m = {name(p, r): name(p, base[r]) for r in b.neighbors(q)}
                for p2 in a.neighbors(p):
                    m[name(p2, q)] = name(p2, q2)
                maps[(name(p, q), name(p, q2))] = m
        conn = maps

    out = GkmPair(a.n, vertices, edges, axial, conn)
    return out, validate_axial(out)


def blow_up(pair: GkmPair, p0: str) -> tuple[GkmPair, dict[str, str]]:
    """Blow up the pair at a vertex, returning the new pair and the blow-down map.

    The vertex p0 with star edges toward q_1 < ... < q_d (sorted by id) is
    replaced by new vertices p_i = "p0#i", each joined to its q_i and to the
    other p_j.  Axial values: old edges keep theirs, (p_i -> q_i) gets the
    old value alpha_i of (p0 -> q_i), and the p_i carry complete_graph's data
    on the points -alpha_i, so (p_i -> p_j) gets alpha_j - alpha_i.  The
    inherited connection is attached when the base pair carries one.
    Requires, for each i, the differences alpha_j - alpha_i (j != i) to be
    pairwise linearly independent.
    """
    if p0 not in pair.vertices:
        raise InputError(f"unknown vertex {p0!r}")
    qs = sorted(pair.neighbors(p0))
    d = len(qs)
    if d < 1:
        raise ValueError("cannot blow up an isolated vertex")
    alphas = [pair.axial[(p0, q)] for q in qs]
    # p0's place goes to the complete graph on the negated star values
    points = [-a for a in alphas]
    match _conflict(points):
        case (i, j):
            raise ValueError(f"axial values toward {qs[i]!r} and {qs[j]!r} coincide")
        case (i, a, b):
            raise ValueError(
                f"blow-up at {p0!r}: differences toward {qs[a]!r} "
                f"and {qs[b]!r} relative to {qs[i]!r} are parallel"
            )

    ps = [f"{p0}#{i + 1}" for i in range(d)]
    joined = dict(zip(qs, ps))
    vertices = [v for v in pair.vertices if v != p0] + ps
    star_edges, star_axial, star_conn = _complete(ps, points)
    edges = [e for e in pair.edges if p0 not in e] + list(zip(ps, qs)) + star_edges
    axial = {e: a for e, a in pair.axial.items() if p0 not in e}
    for i in range(d):
        axial[(ps[i], qs[i])] = alphas[i]
        axial[(qs[i], ps[i])] = pair.axial[(qs[i], p0)]
    axial.update(star_axial)

    conn = None
    if pair.connection is not None:
        # neighbor-level rewrite: the old neighbor p0 of q_i becomes p_i
        def rewrite(v: str, r: str) -> str:
            return joined[v] if r == p0 else r

        conn = {}
        for u, v in pair.oriented_edges():
            if p0 in (u, v):
                continue
            base = pair.connection[(u, v)]
            conn[(u, v)] = {rewrite(u, r): rewrite(v, s) for r, s in base.items()}
        conn.update(star_conn)
        for i in range(d):
            base = pair.connection[(p0, qs[i])]
            forward = {qs[i]: ps[i]}
            for j in range(d):
                if j != i:
                    forward[ps[j]] = base[qs[j]]
                    # along p_i -> p_j the joining edge at p_i goes to the one at p_j
                    conn[(ps[i], ps[j])][qs[i]] = qs[j]
            conn[(ps[i], qs[i])] = forward
            conn[(qs[i], ps[i])] = {s: r for r, s in forward.items()}

    out = GkmPair(pair.n, vertices, edges, axial, conn)
    blow_down = {v: v for v in pair.vertices if v != p0}
    blow_down.update({p: p0 for p in ps})
    return out, blow_down


def cycle_2valent(N: int, a1: Covector | Iterable, a2: Covector | Iterable) -> GkmPair:
    """N-cycle (N = 4k) with the alternating axial pattern a1, a2, -a1, -a2.

    Every two consecutive axial values, wraparound included, have the
    wedge a2 ^ a1, so the wedge condition holds by construction.
    """
    if not isinstance(N, int) or isinstance(N, bool):
        raise InputError(f"cycle length must be an int, not {N!r}")
    if N % 4 != 0 or N <= 0:
        raise ValueError("cycle length must be a positive multiple of 4")
    c1, c2 = Covector(a1), Covector(a2)
    if c1.n != c2.n:
        raise InputError("axial covectors must share one ambient dimension")
    if c1.n < 2:
        raise InputError("need ambient dimension at least 2")
    if linalg.rank([c1.coords, c2.coords], c1.n) < 2:
        raise InputError("the two axial covectors must be linearly independent")

    pattern = [c1, c2, -c1, -c2]
    names = [str(i + 1) for i in range(N)]
    edges = []
    axial = {}
    for i in range(N):
        p, q = names[i], names[(i + 1) % N]
        edges.append((p, q))
        axial[(p, q)] = pattern[i % 4]

    conn = {}
    for i in range(N):
        p, q = names[i], names[(i + 1) % N]
        prev_p, next_q = names[(i - 1) % N], names[(i + 2) % N]
        conn[(p, q)] = {q: p, prev_p: next_q}
        conn[(q, p)] = {p: q, next_q: prev_p}
    return GkmPair(c1.n, names, edges, axial, conn)
