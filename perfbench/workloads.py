"""Seeded input generation for the three benchmark workloads.

Each workload is a fixed list of CLI operations (ops) on graph, class and
polynomial files written to a work directory.  The seed varies class
coefficients, directions xi, residue inputs, cut levels and blow-up
vertices; graph shapes and degrees are fixed per workload so that the
cost of one cycle of ops stays nearly the same from seed to seed.

The generator builds its inputs with the library's constructors and Chern
classes, but every guard below is computed by this file's own code except
the dead-probe guard, which asks the library for per-vertex residues.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from pathlib import Path

MAX_WALL_CLASSES = 12


class GeneratorError(Exception):
    """A generated op would measure a path the benchmark must not pin."""


@dataclass
class Graph:
    """A generated pair with the facts the output checks need, kept as plain data."""

    name: str
    path: str
    n: int
    valence: int
    vertices: list[str]
    # oriented edge (p, q) -> covector at p toward q
    axial: dict[tuple[str, str], tuple[Fraction, ...]]

    def star(self, p: str) -> list[tuple[Fraction, ...]]:
        return [a for (u, _), a in self.axial.items() if u == p]


@dataclass
class Op:
    """One CLI invocation plus what its output check needs to know."""

    id: str
    argv: list[str]
    kind: str
    graph: Graph | None = None
    info: dict = field(default_factory=dict)
    basis_dir: str | None = None


# --- plain-data geometry used by guards and checks -------------------------


def _primitive_direction(cov) -> tuple[int, ...]:
    """Parallel class of a covector: primitive integer vector, first nonzero > 0."""
    den = 1
    for c in cov:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in cov]
    g = 0
    for v in ints:
        g = gcd(g, v)
    ints = [v // g for v in ints]
    if next(v for v in ints if v) < 0:
        ints = [-v for v in ints]
    return tuple(ints)


def wall_classes(graph: Graph) -> int:
    return len({_primitive_direction(a) for a in graph.axial.values()})


def _dot(cov, xi) -> Fraction:
    return sum((c * x for c, x in zip(cov, xi)), Fraction(0))


def sigma(graph: Graph, xi) -> dict[str, int]:
    """Incoming-edge count per vertex: incidences whose covector is negative on xi."""
    out = {v: 0 for v in graph.vertices}
    for (p, _), a in graph.axial.items():
        if _dot(a, xi) < 0:
            out[p] += 1
    return out


def betti_numbers(graph: Graph, xi) -> list[int]:
    hist = [0] * (graph.valence + 1)
    for s in sigma(graph, xi).values():
        hist[s] += 1
    return hist


def is_generic_acyclic(graph: Graph, xi) -> bool:
    """xi is off every wall and orients the graph without a directed cycle."""
    if any(_dot(a, xi) == 0 for a in graph.axial.values()):
        return False
    succ = {v: [] for v in graph.vertices}
    for (p, q), a in graph.axial.items():
        if _dot(a, xi) > 0:
            succ[p].append(q)
    indeg = {v: 0 for v in graph.vertices}
    for v in succ:
        for w in succ[v]:
            indeg[w] += 1
    ready = [v for v in graph.vertices if indeg[v] == 0]
    seen = 0
    while ready:
        v = ready.pop()
        seen += 1
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                ready.append(w)
    return seen == len(graph.vertices)


def reaches_chambers(argv: list[str]) -> bool:
    """Whether the op makes the CLI enumerate chambers of the wall arrangement."""
    cmd = argv[0]
    has_xi = any(a.startswith("--xi") for a in argv)
    if cmd == "betti":
        return True
    if cmd == "jk":
        return not has_xi
    if cmd == "morse":
        return not has_xi or any(a.startswith("--l") for a in argv)
    return False


# --- generator ------------------------------------------------------------------


def _moment_curve(count: int, n: int) -> list[tuple[int, ...]]:
    return [tuple(t**e for e in range(1, n + 1)) for t in range(1, count + 1)]


def _covector_text(cov) -> str:
    return ",".join(str(Fraction(c)) for c in cov)


class Generator:
    """Writes one workload's inputs under ``root`` and returns its op list."""

    def __init__(self, gk, root: Path, seed: int):
        self.gk = gk
        self.root = root
        self.rng = random.Random(seed)
        self.ops: list[Op] = []
        self._pairs: dict[str, object] = {}

    # graphs

    def write(self, rel: str, doc) -> str:
        path = self.root / rel
        path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
        return str(path)

    def _register(self, name: str, pair) -> Graph:
        self._pairs[name] = pair
        axial = {}
        for p, q in pair.oriented_edges():
            axial[(p, q)] = tuple(pair.axial_at(p, q))
        return Graph(
            name=name,
            path=self.write(f"{name}.json", pair.to_json()),
            n=pair.n,
            valence=pair.valence,
            vertices=list(pair.vertices),
            axial=axial,
        )

    def complete(self, count: int, n: int) -> Graph:
        name = f"K{count}n{n}"
        return self._register(name, self.gk.complete_graph(_moment_curve(count, n)))

    def blown_up(self, base: Graph) -> Graph:
        vertex = self.rng.choice(base.vertices)
        sharp, _ = self.gk.blow_up(self._pairs[base.name], vertex)
        return self._register(f"{base.name}_bl", sharp)

    def segment(self, n: int) -> Graph:
        seg = self.gk.complete_graph([(0,) * n, (1,) * n])
        seg = self.gk.gkm_core.relabel(seg, {"1": "a", "2": "b"})
        return self._register(f"seg{n}", seg)

    def times_segment(self, base: Graph) -> Graph:
        seg = self.segment(base.n)
        pair, report = self.gk.product(self._pairs[base.name], self._pairs[seg.name])
        if not report.ok:
            raise GeneratorError(f"{base.name} x segment fails the axioms")
        return self._register(f"{base.name}_x", pair)

    def xi(self, graph: Graph) -> tuple[Fraction, ...]:
        """Seeded generic direction with small distinct integer entries."""
        for _ in range(1000):
            mags = self.rng.sample(range(1, 10), graph.n)
            xi = tuple(Fraction(m * self.rng.choice((1, -1))) for m in mags)
            if is_generic_acyclic(graph, xi):
                return xi
        raise GeneratorError(f"no generic acyclic direction found for {graph.name}")

    # probe classes

    def probe(self, graph: Graph, degree: int, xi, tag: str) -> tuple[str, object]:
        """A seeded combination of two Chern monomials of the given degree.

        Candidates whose per-vertex residues along xi all vanish are rejected:
        their sweeps would be all zero and pin nothing.
        """
        pair = self._pairs[graph.name]
        monos = list(_partitions(degree, graph.valence))
        chern = {}
        for _ in range(50):
            chosen = self.rng.sample(monos, min(2, len(monos)))
            cls = None
            for mono in chosen:
                term = None
                for i in mono:
                    if i not in chern:
                        chern[i] = self.gk.chern_class(pair, i)
                    term = chern[i] if term is None else term * chern[i]
                sign = self.rng.choice((1, -1))
                term = term.scaled(Fraction(sign * self.rng.randint(1, 9), self.rng.randint(1, 4)))
                cls = term if cls is None else cls + term
            if not probe_is_dead(self.gk, pair, cls, xi):
                path = self.write(f"{graph.name}_{tag}.json", cls.to_json())
                return path, cls
        raise GeneratorError(f"every probe candidate of degree {degree} on {graph.name} is dead")

    def unit_class(self, graph: Graph) -> str:
        one = {"n": graph.n, "terms": [{"coef": "1", "exp": [0] * graph.n}]}
        return self.write(
            f"{graph.name}_one.json", {"degree": 0, "values": {v: one for v in graph.vertices}}
        )

    # ops

    def add(self, op: Op) -> None:
        if (
            op.graph is not None
            and reaches_chambers(op.argv)
            and wall_classes(op.graph) > MAX_WALL_CLASSES
        ):
            raise GeneratorError(
                f"{op.id}: {' '.join(op.argv[:1])} on {op.graph.name} reaches chamber "
                f"enumeration with {wall_classes(op.graph)} wall classes "
                f"(more than {MAX_WALL_CLASSES} are only sampled)"
            )
        self.ops.append(op)


def _partitions(total: int, largest: int):
    """Multisets of Chern indices 1..largest summing to total, as sorted tuples."""
    if total == 0:
        yield ()
        return
    for first in range(min(total, largest), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


def probe_is_dead(gk, pair, cls, xi) -> bool:
    """True when every per-vertex residue of the class along xi vanishes."""
    for p in pair.vertices:
        alphas = [pair.axial_at(p, q) for q in pair.neighbors(p)]
        if not gk.residue(cls.value(p), alphas, gk.Vector(xi)).is_zero():
            return False
    return True


# --- the three workloads -----------------------------------------------------


def _localize(gen: Generator) -> None:
    """Pushforward and residue traffic; --xi is always given."""
    k5 = gen.complete(5, 2)
    graphs = [
        k5,
        gen.complete(6, 2),
        gen.complete(7, 2),
        gen.complete(5, 3),
        gen.blown_up(k5),
        gen.times_segment(k5),
    ]
    for g in graphs:
        d = g.valence
        xi = gen.xi(g)
        xi_arg = f"--xi={_covector_text(xi)}"
        for degree in range(d - 1, d + 3):
            tag = f"p{degree}"
            cpath, cls = gen.probe(g, degree, xi, tag)
            base = f"{g.name}:{tag}"
            info = {"degree": degree, "xi": xi}
            gen.add(Op(f"{base}:integrate", ["integrate", g.path, f"--class={cpath}"],
                       "integrate", g, info))
            level = Fraction(-gen.rng.randint(0, 2)) - Fraction(1, 97)
            gen.add(Op(f"{base}:jk-c", ["jk", g.path, f"--class={cpath}", xi_arg, f"--c={level}"],
                       "jk_level", g, dict(info, c=level)))
            if degree <= d:
                gen.add(Op(f"{base}:sweep", ["jk", g.path, f"--class={cpath}", "--sweep", xi_arg],
                           "sweep", g, dict(info, live=True)))
            p = gen.rng.choice(g.vertices)
            fpath = gen.write(f"{g.name}_{tag}_f.json", cls.value(p).to_json())
            alphas = [f"--alpha={_covector_text(a)}" for a in g.star(p)]
            for method in ("series", "formula"):
                gen.add(Op(f"{base}:residue-{method}",
                           ["residue", f"--poly={fpath}", *alphas, xi_arg, f"--method={method}"],
                           "residue", g, dict(info, pair_id=f"{base}:residue")))


def _ring(gen: Generator) -> None:
    """Class-space traffic: ranks, canonical kernels written to files, Morse steps."""
    k4n3 = gen.complete(4, 3)
    k5n2 = gen.complete(5, 2)
    # graph: (cohdim degrees, cohdim --basis degrees, morse degrees).  Each
    # graph appears at two sizes so that op costs spread evenly, and every op
    # stays short enough for a run to hold 100 of them.
    plan = [
        (k4n3, (3, 4), (3,), (2, 3)),
        (gen.complete(5, 3), (2, 3), (2,), (2, 3)),
        (gen.complete(6, 3), (2, 3), (), ()),
        (k5n2, (4, 5), (4,), (3, 4)),
        (gen.complete(6, 2), (4, 5), (4,), (3, 4)),
        (gen.complete(7, 2), (3, 4), (3,), (3,)),
        (gen.blown_up(k4n3), (2, 3), (3,), (2, 3)),
        (gen.blown_up(k5n2), (4, 5), (4,), (4,)),
        (gen.times_segment(k4n3), (2, 3), (2,), (2,)),
        (gen.times_segment(k5n2), (3, 4), (3,), (3,)),
    ]
    for g, dims, bases, morses in plan:
        xi = gen.xi(g)
        for k in dims:
            gen.add(Op(f"{g.name}:cohdim{k}", ["cohdim", g.path, f"--max-degree={k}"],
                       "cohdim", g, {"max_degree": k}))
        for k in bases:
            bdir = str(gen.root / f"{g.name}_basis{k}")
            gen.add(Op(f"{g.name}:cohdim{k}-basis",
                       ["cohdim", g.path, f"--max-degree={k}", f"--basis={bdir}"],
                       "cohdim", g, {"max_degree": k}, basis_dir=bdir))
        for k in morses:
            gen.add(Op(f"{g.name}:morse{k}",
                       ["morse", g.path, f"--xi={_covector_text(xi)}", f"--max-degree={k}"],
                       "morse", g, {"max_degree": k, "xi": xi}))


def _chambers(gen: Generator) -> None:
    """Exhaustive chamber enumeration, with cheap structural ops riding along."""
    k4n3 = gen.complete(4, 3)
    k5n2 = gen.complete(5, 2)
    k6n2 = gen.complete(6, 2)
    # the two largest arrangements get the enumeration only
    for g in (gen.complete(5, 3), gen.complete(7, 2)):
        gen.add(Op(f"{g.name}:betti", ["betti", g.path], "betti", g))
    full = [k4n3, k5n2, k6n2, gen.blown_up(k4n3), gen.blown_up(k5n2), gen.blown_up(k6n2),
            gen.times_segment(k4n3), gen.times_segment(k5n2)]
    for g in full:
        xi = gen.xi(g)
        gen.add(Op(f"{g.name}:betti", ["betti", g.path], "betti", g))
        gen.add(Op(f"{g.name}:betti-xi", ["betti", g.path, f"--xi={_covector_text(xi)}"],
                   "betti", g, {"xi": xi}))
        gen.add(Op(f"{g.name}:jk-find-xi",
                   ["jk", g.path, f"--class={gen.unit_class(g)}", "--sweep"], "sweep", g,
                   {"degree": 0, "live": False}))
        gen.add(Op(f"{g.name}:validate", ["validate", g.path], "validate", g))
        if g.name.endswith("_x"):
            continue
        # blowing up a vertex a blow-up created can fail the axioms, and a
        # product already containing the segment direction does: both stay out
        vertex = gen.rng.choice([v for v in g.vertices if "#" not in v])
        gen.add(Op(f"{g.name}:blowup", ["blowup", g.path, f"--vertex={vertex}"], "blowup", g))
        seg = gen.segment(g.n)
        gen.add(Op(f"{g.name}:product", ["product", g.path, seg.path], "product", g,
                   {"factor_vertices": len(seg.vertices), "factor_valence": seg.valence}))


WORKLOADS = {"localize": _localize, "ring": _ring, "chambers": _chambers}


def generate(gk, workload: str, root: Path, seed: int) -> list[Op]:
    """Write the workload's inputs under root and return its ops in run order."""
    root.mkdir(parents=True, exist_ok=True)
    gen = Generator(gk, root, seed)
    WORKLOADS[workload](gen)
    # interleave costly and cheap ops so that no stretch of a run is all one kind
    random.Random(seed).shuffle(gen.ops)
    return gen.ops
