"""Output checks that do not trust the op under test.

Each check reads the op's captured stdout (already parsed as JSON) and
the facts the generator kept about its inputs, and returns a list of
problems; an empty list means the output passed.  Paired checks (series
against formula residues) compare whole outputs after the run.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from pathlib import Path

from workloads import Op, betti_numbers, is_generic_acyclic, sigma


def _degrees(poly: dict) -> set[int]:
    return {sum(t["exp"]) for t in poly["terms"]}


def _degree_law(poly: dict, expected: int, what: str) -> list[str]:
    """A pushforward is zero or homogeneous of the expected degree (zero when negative)."""
    degs = _degrees(poly)
    if not degs:
        return []
    if expected < 0 or degs != {expected}:
        return [f"{what} has degrees {sorted(degs)}, expected {expected}"]
    return []


def _dims_identity(op: Op, xi) -> list[int]:
    """dim H^k = sum_r b_r dim S^{k-r}, from a Betti histogram computed here."""
    g = op.graph
    b = betti_numbers(g, xi)
    return [
        sum(b[r] * comb(g.n - 1 + k - r, k - r) for r in range(len(b)) if k >= r)
        for k in range(op.info["max_degree"] + 1)
    ]


def _any_generic_xi(op: Op):
    """The op's own direction, else the first generic one of a fixed family."""
    if "xi" in op.info:
        return op.info["xi"]
    for j in range(1, 1000):
        xi = tuple(Fraction(3**i + j) for i in range(op.graph.n))
        if is_generic_acyclic(op.graph, xi):
            return xi
    raise ValueError(f"no generic direction found for {op.graph.name}")


def _xi_text(xi) -> list[str]:
    return [str(Fraction(c)) for c in xi]


def check(op: Op, doc) -> list[str]:
    kind = op.kind
    g = op.graph
    bad: list[str] = []
    if kind == "integrate":
        bad += _degree_law(doc["integral"], op.info["degree"] - g.valence, "integral")
    elif kind == "jk_level":
        expected = op.info["degree"] - g.valence + 1
        if doc["degree"] != expected:
            bad.append(f"reported degree {doc['degree']}, expected {expected}")
        bad += _degree_law(doc["polynomial"], expected, "cut pushforward")
        if doc["xi"] != _xi_text(op.info["xi"]) or doc["c"] != str(op.info["c"]):
            bad.append("xi or c not echoed")
    elif kind == "sweep":
        if doc["stepsOk"] is not True or doc["topIsZero"] is not True:
            bad.append("sweep does not telescope")
        if len(doc["levels"]) != len(g.vertices) + 1:
            bad.append("sweep has the wrong number of levels")
        expected = op.info["degree"] - g.valence + 1
        for poly in doc["pushforwards"]:
            bad += _degree_law(poly, expected, "sweep pushforward")
        live = any(p["terms"] for p in doc["perVertexResidues"].values())
        if live != op.info["live"]:
            bad.append(f"per-vertex residues {'all zero' if op.info['live'] else 'nonzero'}")
        xi = tuple(Fraction(c) for c in doc["xi"])
        if "xi" in op.info and xi != tuple(op.info["xi"]):
            bad.append("xi not echoed")
        if not is_generic_acyclic(g, xi):
            bad.append("sweep direction is on a wall or cyclic")
    elif kind == "residue":
        bad += _degree_law(doc["residue"], op.info["degree"] - g.valence + 1, "residue")
    elif kind == "cohdim":
        want = _dims_identity(op, _any_generic_xi(op))
        got = [doc.get(str(k)) for k in range(op.info["max_degree"] + 1)]
        if got != want or len(doc) != len(want):
            bad.append(f"dimensions {got}, expected {want}")
        if op.basis_dir is not None:
            files = list(Path(op.basis_dir).glob("deg*_*.json"))
            if len(files) != sum(want):
                bad.append(f"{len(files)} basis files for total dimension {sum(want)}")
    elif kind == "morse":
        xi = op.info["xi"]
        want = _dims_identity(op, xi)
        if doc["ok"] is not True:
            bad.append("morse reports a failed bound")
        if doc["betti"] != betti_numbers(g, xi):
            bad.append("morse Betti numbers differ from the orientation count")
        if [r["lhs"] for r in doc["morse"]] != want or [r["rhs"] for r in doc["morse"]] != want:
            bad.append("morse dimension table differs from the Betti identity")
        if len(doc["steps"]) != len(want) * len(g.vertices):
            bad.append("morse step table has the wrong length")
        if doc["xi"] != _xi_text(xi):
            bad.append("xi not echoed")
    elif kind == "betti":
        if doc["invariant"] is not True or doc["method"] != "exhaustive":
            bad.append(f"invariant={doc['invariant']} method={doc['method']}")
        if sum(doc["betti"]) != len(g.vertices):
            bad.append("Betti numbers do not sum to the vertex count")
        if doc["betti"] != betti_numbers(g, _any_generic_xi(op)):
            bad.append("Betti numbers differ from the orientation count")
        if "xi" in op.info:
            xi = op.info["xi"]
            if doc["sigma"] != sigma(g, xi) or doc["bettiAtXi"] != betti_numbers(g, xi):
                bad.append("sigma at xi differs from the orientation count")
    elif kind == "validate":
        if doc["ok"] is not True or doc["violations"] or doc["valence"] != g.valence:
            bad.append("valid pair reported invalid")
    elif kind == "blowup":
        graph = doc["graph"]
        d = g.valence
        if len(graph["vertices"]) != len(g.vertices) - 1 + d:
            bad.append("blow-up has the wrong vertex count")
        if len(graph["edges"]) != len(g.axial) // 2 + d * (d - 1) // 2:
            bad.append("blow-up has the wrong edge count")
        counts = {v: 0 for v in graph["vertices"]}
        for e in graph["edges"]:
            for v in e["ends"]:
                counts[v] += 1
        if set(counts.values()) != {d}:
            bad.append("blow-up is not regular of the original valence")
        if not set(doc["blowDown"].values()) <= set(g.vertices):
            bad.append("blow-down lands outside the original vertices")
    elif kind == "product":
        graph = doc["graph"]
        if doc["report"]["ok"] is not True:
            bad.append("product reported invalid")
        if len(graph["vertices"]) != len(g.vertices) * op.info["factor_vertices"]:
            bad.append("product has the wrong vertex count")
        if doc["report"]["valence"] != g.valence + op.info["factor_valence"]:
            bad.append("product has the wrong valence")
    else:
        bad.append(f"no check for kind {kind}")
    return bad
