"""Shared fixtures: the standard family of small pairs, three Grassmannians,
three flag varieties, and the covector normal form that star residues are
checked against."""
from __future__ import annotations

import itertools

import pytest

from gkmcalc import GkmPair, complete_graph, cycle_2valent, blow_up, product
from gkmcalc.gkm_core import infer_connection, relabel
from gkmcalc.polyalg import Covector


def grassmannian(k: int, N: int) -> GkmPair:
    """The GKM pair of Gr(k, N) in the quotient by the diagonal.

    Vertices are the k-subsets of {1..N}, named by their digits; the edges
    are the single swaps S -> S - {i} + {j}, with axial covector x_j - x_i
    at S, where x_1..x_{N-1} are the coordinates and x_N is 0 (n = N - 1).
    The connection is the one infer_connection finds.
    """
    def x(i):
        return [int(m == i) for m in range(1, N)]

    name = {s: "".join(map(str, s)) for s in itertools.combinations(range(1, N + 1), k)}
    edges, axial = [], {}
    for a, b in itertools.combinations(name, 2):
        gone, new = set(a) - set(b), set(b) - set(a)
        if len(gone) == 1:
            (i,), (j,) = gone, new
            e = (name[a], name[b])
            edges.append(e)
            axial[e] = [u - v for u, v in zip(x(j), x(i))]
    pair = GkmPair(N - 1, name.values(), edges, axial)
    return GkmPair(N - 1, name.values(), edges, axial, infer_connection(pair))


def flag(N: int) -> GkmPair:
    """The GKM pair of the full flag variety Fl(N) in the quotient by the diagonal.

    Vertices are the permutations w of 1..N in one-line notation, named by
    their digits; the edges are w -- w.(a b) for positions a < b, with
    axial covector x_{w(b)} - x_{w(a)} at w, where x_1..x_{N-1} are the
    coordinates and x_N is 0 (n = N - 1).  Star residues repeat, so the
    connection is given explicitly: along (w, w.t) it sends the neighbour
    w.s to (w.t).s, the same position swap.
    """
    def x(i):
        return [int(m == i) for m in range(1, N)]

    def swap(w, t):
        a, b = t
        u = list(w)
        u[a], u[b] = u[b], u[a]
        return tuple(u)

    name = {w: "".join(map(str, w)) for w in itertools.permutations(range(1, N + 1))}
    swaps = list(itertools.combinations(range(N), 2))
    edges, axial, connection = [], {}, {}
    for w in name:
        for t in swaps:
            v = swap(w, t)
            if name[w] < name[v]:
                edges.append((name[w], name[v]))
                axial[name[w], name[v]] = [p - q for p, q in zip(x(w[t[1]]), x(w[t[0]]))]
            connection[name[w], name[v]] = {name[swap(w, s)]: name[swap(v, s)] for s in swaps}
    return GkmPair(N - 1, name.values(), edges, axial, connection)


@pytest.fixture(scope="session")
def k2():
    # one edge, n = 1, axial(1 -> 2) = -x
    return complete_graph([(0,), (1,)])


@pytest.fixture(scope="session")
def k2n2():
    return complete_graph([(0, 0), (1, 0)])


@pytest.fixture(scope="session")
def cp2():
    return complete_graph([(0, 0), (1, 0), (0, 1)])


@pytest.fixture(scope="session")
def gamma4():
    return complete_graph([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])


@pytest.fixture(scope="session")
def gamma5():
    # moment-curve points keep all stars pairwise independent
    return complete_graph([(i, i * i) for i in range(1, 6)])


@pytest.fixture(scope="session")
def k5n3():
    # moment-curve points in n = 3: ten edges, no two forms parallel
    return complete_graph([(t, t * t, t ** 3) for t in range(1, 6)])


@pytest.fixture(scope="session")
def k6n2():
    return complete_graph([(t, t * t) for t in range(1, 7)])


@pytest.fixture(scope="session")
def cycle4():
    return cycle_2valent(4, (1, 0), (0, 1))


@pytest.fixture(scope="session")
def cycle8():
    # its second minimum along (1, 2) has no degree-0 flow-up class
    return cycle_2valent(8, (1, 0), (0, 1))


@pytest.fixture(scope="session")
def parallel_diamond():
    # d < a, c < b with every edge along x: the two forms below b are parallel
    edges = [("d", "a"), ("a", "b"), ("d", "c"), ("c", "b")]
    return GkmPair(1, ["d", "a", "b", "c"], edges, {e: (1,) for e in edges})


@pytest.fixture(scope="session")
def blowup(cp2):
    """The blow-up of cp2 at vertex '1' together with its blow-down map."""
    return blow_up(cp2, "1")


@pytest.fixture(scope="session")
def prod(cp2):
    """cp2 times a segment with axial class x + y, in the same ambient plane."""
    seg = relabel(complete_graph([(0, 0), (1, 1)]), {"1": "a", "2": "b"})
    pair, report = product(cp2, seg)
    assert report.ok
    return pair


@pytest.fixture(scope="session")
def gr24():
    return grassmannian(2, 4)


@pytest.fixture(scope="session")
def gr25():
    return grassmannian(2, 5)


@pytest.fixture(scope="session")
def gr36():
    return grassmannian(3, 6)


@pytest.fixture(scope="session")
def fl3():
    return flag(3)


@pytest.fixture(scope="session")
def fl4():
    return flag(4)


@pytest.fixture(scope="session")
def fl5():
    # 120 vertices of valence 10, with its explicit connection
    return flag(5)


@pytest.fixture(scope="session")
def family(k2, cp2, gamma4, gamma5, cycle4, blowup, prod):
    """The seven fixtures the acceptance criteria quantify over."""
    return [
        ("k2", k2),
        ("cp2", cp2),
        ("gamma4", gamma4),
        ("gamma5", gamma5),
        ("cycle4", cycle4),
        ("blowup", blowup[0]),
        ("product", prod),
    ]


def _reduce_covector_mod_line(cov, form):
    """``reduce_mod_line`` of a linear form, as a covector, on Fractions.

    With c the canonical covector and j its pivot, coordinate i becomes
    a_i - a_j * c_i / c_j, so coordinate j becomes 0.
    """
    if cov.n != form.n:
        raise ValueError("ring dimension mismatch")
    c, j = form.canonical, form.pivot()
    return Covector([a - cov[j] * ci / c[j] for a, ci in zip(cov, c)])


@pytest.fixture(scope="session")
def reduce_covector_mod_line():
    """The oracle for star residues: each covector reduced on its own denominator."""
    return _reduce_covector_mod_line
