"""Shared fixtures: the standard family of small pairs used across the suite."""
from __future__ import annotations

import pytest

from gkmcalc import complete_graph, cycle_2valent, blow_up, product
from gkmcalc.gkm_core import relabel


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
