"""Graph-with-axial-function data model and axiom validation.

A pair is a finite simple graph whose oriented edges carry nonzero
covectors (the axial function), optionally together with a connection:
for each oriented edge, a bijection between the edge stars of its two
ends.  Axiom checks never raise on mathematical violations; they return
reports listing each violated axiom with a witness.  The axiom ids used
in reports ("1.16", "1.17", "1.18", "1.32", "1.33", "1.34", plus
"valence" for d-regularity) are opaque strings fixed by the wire format.

Structural problems (unknown vertices, duplicate edges, zero axial
covectors, malformed connections) are a different kind of failure and
raise GraphFormatError at construction time.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

from .polyalg import (
    Covector,
    InputError,
    LinearForm,
    Vector,
    pair as pairing,
    parallel_pairs,
    reduce_covector_mod_line,
    spell,
)

OrientedEdge = tuple[str, str]
Connection = dict[OrientedEdge, dict[str, str]]


class GraphFormatError(InputError):
    """Structurally malformed graph data, as opposed to an axiom violation."""


class AmbiguousConnection(ArithmeticError):
    """Star residues repeat along an edge, so inference cannot pick a unique map."""

    def __init__(self, oriented_edge: OrientedEdge):
        p, q = oriented_edge
        super().__init__(
            f"repeated star residues along {p}->{q}; a connection must be supplied explicitly"
        )
        self.oriented_edge = oriented_edge


class NoConnection(ArithmeticError):
    """No residue-compatible star bijection exists; the axial data is inconsistent."""

    def __init__(self, oriented_edge: OrientedEdge, at: str):
        p, q = oriented_edge
        super().__init__(
            f"no residue match along {p}->{q} for the edge toward {at}"
        )
        self.oriented_edge = oriented_edge
        self.at = at


@dataclass(frozen=True)
class Violation:
    axiom: str
    witness: dict

    def to_json(self) -> dict:
        return {"axiom": self.axiom, "witness": self.witness}


@dataclass
class ValidationReport:
    violations: list[Violation]
    valence: int | None

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "valence": self.valence,
            "violations": [v.to_json() for v in self.violations],
        }


class GkmPair:
    """Finite simple graph with a nonzero axial covector on each oriented edge.

    ``edges`` keeps the input orientation of each unordered edge; ``axial``
    holds both orientations, the reverse defaulting to the negation of the
    forward value when not given explicitly.  ``connection`` is None or a
    plain dict {(p, q): {neighbor of p: neighbor of q}} over every oriented
    edge.  Instances are immutable by convention.
    """

    def __init__(
        self,
        n: int,
        vertices: Iterable[str],
        edges: Iterable[OrientedEdge],
        axial: Mapping[OrientedEdge, Covector | Sequence],
        connection: Mapping[OrientedEdge, Mapping[str, str]] | None = None,
    ):
        self.n = int(n)
        if self.n < 1:
            raise GraphFormatError("ambient dimension must be at least 1")
        vs = list(vertices)
        for v in vs:
            if not isinstance(v, str) or not v:
                raise GraphFormatError(f"vertex ids must be nonempty strings, got {v!r}")
            if "->" in v:
                raise GraphFormatError(f"vertex id {v!r} must not contain '->'")
        if not vs:
            raise GraphFormatError("at least one vertex required")
        if len(set(vs)) != len(vs):
            raise GraphFormatError("duplicate vertex ids")
        self.vertices: tuple[str, ...] = tuple(vs)
        vset = set(vs)

        edge_list: list[OrientedEdge] = []
        adjacency: dict[str, list[str]] = {v: [] for v in vs}
        for e in edges:
            p, q = e
            if p not in vset or q not in vset:
                raise GraphFormatError(f"edge ({p!r}, {q!r}) mentions an unknown vertex")
            if p == q:
                raise GraphFormatError(f"loop at {p!r} not allowed")
            if q in adjacency[p]:
                raise GraphFormatError(f"duplicate edge between {p!r} and {q!r}")
            edge_list.append((p, q))
            adjacency[p].append(q)
            adjacency[q].append(p)
        self.edges: tuple[OrientedEdge, ...] = tuple(edge_list)
        self._adjacency = {v: tuple(nb) for v, nb in adjacency.items()}

        ax: dict[OrientedEdge, Covector] = {}
        for key, val in axial.items():
            p, q = key
            if q not in self._adjacency.get(p, ()):
                raise GraphFormatError(f"axial value given for a non-edge ({p!r}, {q!r})")
            cov = Covector(val)
            if cov.n != self.n:
                raise GraphFormatError(f"axial covector on ({p!r}, {q!r}) has wrong dimension")
            if cov.is_zero():
                raise GraphFormatError(f"axial covector on ({p!r}, {q!r}) is zero")
            ax[(p, q)] = cov
        for p, q in self.edges:
            if (p, q) not in ax and (q, p) not in ax:
                raise GraphFormatError(f"no axial value for edge ({p!r}, {q!r})")
            if (p, q) not in ax:
                ax[(p, q)] = -ax[(q, p)]
            if (q, p) not in ax:
                ax[(q, p)] = -ax[(p, q)]
        self.axial: dict[OrientedEdge, Covector] = ax
        self._form_cache: dict[OrientedEdge, LinearForm] = {}
        self._residue_cache: dict[tuple[str, tuple[int, ...]], dict[str, Covector]] = {}
        self.connection = None if connection is None else _structural_connection(self, connection)

    # --- structure ------------------------------------------------------

    def neighbors(self, p: str) -> tuple[str, ...]:
        try:
            return self._adjacency[p]
        except KeyError:
            raise ValueError(f"unknown vertex {p!r}") from None

    def degrees(self) -> dict[str, int]:
        return {v: len(self._adjacency[v]) for v in self.vertices}

    @property
    def valence(self) -> int:
        degs = {len(self._adjacency[v]) for v in self.vertices}
        if len(degs) != 1:
            raise ValueError("graph is not regular; valence undefined")
        return degs.pop()

    def oriented_edges(self) -> list[OrientedEdge]:
        out = []
        for p, q in self.edges:
            out.append((p, q))
            out.append((q, p))
        return out

    def axial_at(self, p: str, q: str) -> Covector:
        try:
            return self.axial[(p, q)]
        except KeyError:
            raise ValueError(f"({p!r}, {q!r}) is not an oriented edge") from None

    def form(self, p: str, q: str) -> LinearForm:
        got = self._form_cache.get((p, q))
        if got is None:
            got = LinearForm(self.axial_at(p, q))
            self._form_cache[(p, q)] = got
        return got

    def star_forms(self, p: str) -> list[tuple[str, LinearForm]]:
        return [(q, self.form(p, q)) for q in self.neighbors(p)]

    def __eq__(self, other) -> bool:
        """Equality as labeled data: orderings of vertices and edges are ignored."""
        if not isinstance(other, GkmPair):
            return NotImplemented
        if self.n != other.n or set(self.vertices) != set(other.vertices):
            return False
        if {frozenset(e) for e in self.edges} != {frozenset(e) for e in other.edges}:
            return False
        if self.axial != other.axial:
            return False
        return self.connection == other.connection

    __hash__ = None

    # --- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        edges_json = []
        record = {}  # connection indices name positions in the 'edges' array
        for p, q in self.edges:
            record[frozenset((p, q))] = len(edges_json)
            forward = self.axial[(p, q)]
            edges_json.append({"ends": [p, q], "alpha": [spell(a, forward._den) for a in forward._num]})
            backward = self.axial[(q, p)]
            if backward != -forward:
                alpha = [spell(a, backward._den) for a in backward._num]
                edges_json.append({"ends": [q, p], "alpha": alpha})
        out: dict = {"n": self.n, "vertices": list(self.vertices), "edges": edges_json}
        if self.connection is not None:
            conn_json: dict[str, dict[str, int]] = {}
            for p, q in self.oriented_edges():
                m = self.connection[(p, q)]
                inner: dict[str, int] = {}
                for r in self.neighbors(p):
                    inner[str(record[frozenset((p, r))])] = record[frozenset((q, m[r]))]
                conn_json[f"{p}->{q}"] = inner
            out["connection"] = conn_json
        return out

    @classmethod
    def from_json(cls, obj: Mapping) -> "GkmPair":
        if not isinstance(obj, Mapping):
            raise GraphFormatError("graph document must be a JSON object")
        for field in ("n", "vertices", "edges"):
            if field not in obj:
                raise GraphFormatError(f"graph document missing {field!r}")
        n = obj["n"]
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise GraphFormatError("'n' must be a positive integer")
        vertices = obj["vertices"]
        if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
            raise GraphFormatError("'vertices' must be a list of strings")
        raw_edges = obj["edges"]
        if not isinstance(raw_edges, list):
            raise GraphFormatError("'edges' must be a list")

        records: list[tuple[str, str, Covector]] = []
        for i, rec in enumerate(raw_edges):
            if not isinstance(rec, Mapping) or "ends" not in rec or "alpha" not in rec:
                raise GraphFormatError(f"edge {i}: needs 'ends' and 'alpha'")
            ends = rec["ends"]
            if (
                not isinstance(ends, list)
                or len(ends) != 2
                or not all(isinstance(v, str) for v in ends)
            ):
                raise GraphFormatError(f"edge {i}: 'ends' must be two vertex ids")
            alpha = rec["alpha"]
            if not isinstance(alpha, list) or len(alpha) != n:
                raise GraphFormatError(f"edge {i}: 'alpha' must list {n} rationals")
            try:
                cov = Covector(alpha)
            except (ValueError, TypeError) as exc:
                raise GraphFormatError(f"edge {i}, 'alpha': {exc}") from None
            records.append((ends[0], ends[1], cov))

        edge_list: list[OrientedEdge] = []
        axial: dict[OrientedEdge, Covector] = {}
        for p, q, cov in records:
            if (p, q) in axial:
                raise GraphFormatError(f"edge ({p!r}, {q!r}) listed twice with the same orientation")
            if (q, p) not in axial:
                edge_list.append((p, q))
            axial[(p, q)] = cov

        conn = None
        if "connection" in obj and obj["connection"] is not None:
            raw_conn = obj["connection"]
            if not isinstance(raw_conn, Mapping):
                raise GraphFormatError("'connection' must be an object")
            # JSON edge indices refer to positions in the 'edges' array
            index_ends = [(p, q) for p, q, _ in records]
            maps: Connection = {}
            for key, inner in raw_conn.items():
                parts = key.split("->")
                if len(parts) != 2:
                    raise GraphFormatError(f"connection key {key!r} is not 'p->q'")
                p, q = parts
                if not isinstance(inner, Mapping):
                    raise GraphFormatError(f"connection[{key!r}] must be an object")
                m: dict[str, str] = {}
                for k, v in inner.items():
                    try:
                        ki = int(k)
                    except ValueError:
                        raise GraphFormatError(
                            f"connection[{key!r}] key {k!r} is not an edge index"
                        ) from None
                    if not isinstance(v, int) or isinstance(v, bool):
                        raise GraphFormatError(f"connection[{key!r}][{k!r}] must be an edge index")
                    if not 0 <= ki < len(index_ends) or not 0 <= v < len(index_ends):
                        raise GraphFormatError(f"connection[{key!r}] has an edge index out of range")
                    src = index_ends[ki]
                    dst = index_ends[v]
                    if p not in src:
                        raise GraphFormatError(
                            f"connection[{key!r}]: edge {ki} is not incident to {p!r}"
                        )
                    if q not in dst:
                        raise GraphFormatError(
                            f"connection[{key!r}]: edge {v} is not incident to {q!r}"
                        )
                    r = src[0] if src[1] == p else src[1]
                    s = dst[0] if dst[1] == q else dst[1]
                    if r in m:
                        raise GraphFormatError(f"connection[{key!r}] maps edge {ki} twice")
                    m[r] = s
                maps[(p, q)] = m
            conn = maps

        return cls(n, vertices, edge_list, axial, conn)


def _structural_connection(pair: GkmPair, maps) -> Connection:
    """Check that a connection is a total family of star bijections; return a copy."""
    oriented = set(pair.oriented_edges())
    if set(maps) != oriented:
        missing = sorted(oriented - set(maps))
        extra = sorted(set(maps) - oriented)
        raise GraphFormatError(
            f"connection must cover every oriented edge exactly (missing {missing}, extra {extra})"
        )
    out: Connection = {}
    for (p, q), m in maps.items():
        dom = set(m)
        cod = set(m.values())
        if dom != set(pair.neighbors(p)) or len(cod) != len(m) or cod != set(pair.neighbors(q)):
            raise GraphFormatError(
                f"connection along {p}->{q} is not a bijection between the stars"
            )
        out[(p, q)] = dict(m)
    return out


# --- axiom validation ----------------------------------------------------


def _star_residues(pair: GkmPair, p: str, form: LinearForm) -> dict[str, Covector]:
    """Star covectors at p reduced modulo the form's line, by neighbor.

    Memoised on the pair per (p, line): the reduction reads only the form's
    canonical covector, so both orientations of an edge share one table.
    """
    key = (p, form.canonical)
    got = pair._residue_cache.get(key)
    if got is None:
        got = pair._residue_cache[key] = {
            r: reduce_covector_mod_line(pair.axial_at(p, r), form) for r in pair.neighbors(p)
        }
    return got


def validate_axial(pair: GkmPair) -> ValidationReport:
    """Check d-valence, antisymmetry, star independence, and residue matching.

    Violations are reported, never raised, so deliberately broken inputs can
    be inspected.  The residue-matching check ("1.18") asks for a perfect
    matching between the two stars of each edge under agreement of normal
    forms modulo the edge form.  Agreement is an equivalence relation, so
    such a matching exists exactly when the two stars carry the same
    multiset of residues, which is what is compared.  The check is skipped
    for edges whose end degrees already differ, since the valence report
    covers those.
    """
    violations: list[Violation] = []
    degs = pair.degrees()
    distinct = sorted(set(degs.values()))
    valence = distinct[0] if len(distinct) == 1 else None
    if valence is None:
        violations.append(Violation("valence", {"degrees": degs}))

    for p, q in pair.edges:
        if pair.axial_at(q, p) != -pair.axial_at(p, q):
            violations.append(Violation("1.16", {"edge": [p, q]}))

    for p in pair.vertices:
        star = pair.star_forms(p)
        for a, b in parallel_pairs([form for _, form in star]):
            violations.append(
                Violation("1.17", {"vertex": p, "edges": [[p, star[a][0]], [p, star[b][0]]]})
            )

    for p, q in pair.edges:
        if degs[p] != degs[q]:
            continue
        form = pair.form(p, q)
        left = _star_residues(pair, p, form)
        right = _star_residues(pair, q, form)
        if Counter(left.values()) != Counter(right.values()):
            violations.append(Violation("1.18", {"edge": [p, q]}))

    return ValidationReport(violations, valence)


def infer_connection(pair: GkmPair) -> Connection:
    """The unique connection compatible with the axial function, when it exists.

    Along each oriented edge the star residues modulo the edge form must be
    pairwise distinct; repeated residues raise AmbiguousConnection (the data
    admits several compatible bijections) and an unmatched residue raises
    NoConnection (the data admits none).
    """
    maps: Connection = {}
    for p, q in pair.oriented_edges():
        form = pair.form(p, q)
        left = _star_residues(pair, p, form)
        if len(set(left.values())) < len(left):
            raise AmbiguousConnection((p, q))
        targets: dict[Covector, list[str]] = {}
        for s, w in _star_residues(pair, q, form).items():
            targets.setdefault(w, []).append(s)
        m: dict[str, str] = {}
        for r, value in left.items():
            hits = targets.get(value)
            if hits is None:
                raise NoConnection((p, q), r)
            if len(hits) > 1:
                raise AmbiguousConnection((p, q))
            m[r] = hits[0]
        maps[(p, q)] = m
    return maps


def validate_connection(pair: GkmPair, connection) -> ValidationReport:
    """Check the three connection axioms for every oriented edge."""
    conn = _structural_connection(pair, connection)
    violations: list[Violation] = []
    for p, q in pair.oriented_edges():
        m = conn[(p, q)]
        if m.get(q) != p:
            violations.append(Violation("1.32", {"edge": [p, q]}))
        back = conn[(q, p)]
        form = pair.form(p, q)
        left = _star_residues(pair, p, form)
        right = _star_residues(pair, q, form)
        for r, s in m.items():
            if back.get(s) != r:
                violations.append(Violation("1.33", {"edge": [p, q], "maps": [r, s]}))
            if left[r] != right[s]:
                violations.append(Violation("1.34", {"edge": [p, q], "maps": [r, s]}))
    degs = set(pair.degrees().values())
    return ValidationReport(violations, degs.pop() if len(degs) == 1 else None)


# --- subgraphs -------------------------------------------------------------


def _normalize_subgraph(
    pair: GkmPair, sub_vertices: Iterable[str], sub_edges: Iterable
) -> tuple[list[str], set[frozenset]]:
    vs = set(sub_vertices)
    for v in vs:
        if v not in pair._adjacency:
            raise ValueError(f"unknown vertex {v!r} in subgraph")
    keys: set[frozenset] = set()
    for e in sub_edges:
        p, q = e
        if q not in pair._adjacency.get(p, ()):
            raise ValueError(f"({p!r}, {q!r}) is not an edge of the pair")
        if p not in vs or q not in vs:
            raise ValueError(f"subgraph edge ({p!r}, {q!r}) leaves the vertex set")
        keys.add(frozenset((p, q)))
    ordered = [v for v in pair.vertices if v in vs]
    return ordered, keys


def relabel(pair: GkmPair, mapping: Mapping[str, str]) -> GkmPair:
    """Rename vertices through an injective map; structure is carried over."""
    new = {v: mapping.get(v, v) for v in pair.vertices}
    if len(set(new.values())) != len(new):
        raise ValueError("relabeling must be injective")
    edges = [(new[p], new[q]) for p, q in pair.edges]
    axial = {(new[p], new[q]): cov for (p, q), cov in pair.axial.items()}
    conn = None
    if pair.connection is not None:
        conn = {
            (new[p], new[q]): {new[r]: new[s] for r, s in m.items()}
            for (p, q), m in pair.connection.items()
        }
    return GkmPair(pair.n, [new[v] for v in pair.vertices], edges, axial, conn)


def subpair(pair: GkmPair, sub_vertices: Iterable[str], sub_edges: Iterable) -> GkmPair:
    """Restriction of the pair to a subgraph; no connection is attached."""
    ordered, keys = _normalize_subgraph(pair, sub_vertices, sub_edges)
    edges = [e for e in pair.edges if frozenset(e) in keys]
    axial = {e: pair.axial[e] for p, q in edges for e in ((p, q), (q, p))}
    return GkmPair(pair.n, ordered, edges, axial)


def subgraph_gamma_h(pair: GkmPair, h_basis: Sequence[Vector | Sequence]) -> list[GkmPair]:
    """Connected components of the subgraph of edges vanishing on a subspace.

    An edge survives when its axial covector annihilates every basis vector
    of the subspace.  Components are returned in order of their first vertex,
    each as a restricted pair; isolated vertices come out as 0-valent
    single-vertex components.  Each component must be regular, which holds
    for valid pairs.
    """
    basis = [Vector(v) for v in h_basis]
    for v in basis:
        if v.n != pair.n:
            raise ValueError("subspace basis vector has wrong dimension")
    kept: list[OrientedEdge] = []
    for p, q in pair.edges:
        alpha = pair.axial_at(p, q)
        if all(pairing(alpha, v) == 0 for v in basis):
            kept.append((p, q))
    kept_adj: dict[str, list[str]] = {v: [] for v in pair.vertices}
    for p, q in kept:
        kept_adj[p].append(q)
        kept_adj[q].append(p)

    seen: set[str] = set()
    out: list[GkmPair] = []
    for start in pair.vertices:
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        frontier = [start]
        while frontier:
            v = frontier.pop(0)
            for w in kept_adj[v]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    frontier.append(w)
        cset = set(comp)
        comp_edges = [e for e in kept if e[0] in cset]
        sub = subpair(pair, comp, comp_edges)
        if len({len(sub.neighbors(v)) for v in sub.vertices}) != 1:
            raise ValueError("subgraph component is not regular")
        out.append(sub)
    return out


def is_compatible_subobject(
    pair: GkmPair, sub_vertices: Iterable[str], sub_edges: Iterable
) -> bool:
    """True when the subgraph is regular and its restricted axial data is valid."""
    sub = subpair(pair, sub_vertices, sub_edges)
    return validate_axial(sub).ok


def is_totally_geodesic(
    pair: GkmPair, connection, sub_vertices: Iterable[str], sub_edges: Iterable
) -> tuple[bool, Connection | None]:
    """Whether the connection maps each sub-star onto the opposite sub-star.

    Returns (True, induced connection) or (False, None).
    """
    conn = _structural_connection(pair, connection)
    ordered, keys = _normalize_subgraph(pair, sub_vertices, sub_edges)
    sub_adj = {
        p: [r for r in pair.neighbors(p) if frozenset((p, r)) in keys] for p in ordered
    }
    induced: Connection = {}
    for p, q in pair.edges:
        if frozenset((p, q)) not in keys:
            continue
        for a, b in ((p, q), (q, p)):
            m = conn[(a, b)]
            if {m[r] for r in sub_adj[a]} != set(sub_adj[b]):
                return False, None
            induced[(a, b)] = {r: m[r] for r in sub_adj[a]}
    return True, induced
