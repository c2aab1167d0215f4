"""Per-layer spans recorded from outside the package.

``install`` replaces public functions and methods of the ``gkmcalc``
modules with wrappers that time each call and charge a span's duration,
minus the time of the spans it encloses, to the span's self time.  Only
the traced run imports this module.

Three details keep the counts complete:

- a function re-bound by ``from ... import`` elsewhere (``simplify``,
  ``residue``, ``coh_basis`` and others) is replaced in every ``gkmcalc``
  module namespace that holds it;
- ``Polynomial`` and ``RankTracker`` methods are patched on the class, and
  the ``from_json`` classmethods are re-wrapped as classmethods;
- ``_feasible`` recurses through its module global, so a call made while
  the innermost open span is already ``feasible`` is not a new span:
  ``morse_betti.feasible.calls`` counts feasibility checks, not depth.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from functools import update_wrapper
from time import perf_counter


def _simplify_sizes(sizes, args, result):
    lsum = args[0]
    sizes["polyalg.simplify.terms_in"] += len(lsum.terms)
    lcd: dict[tuple, int] = {}
    for term in lsum.terms:
        if term.numerator.is_zero():
            continue
        mult: dict[tuple, int] = {}
        for form in term.denominators:
            mult[form.canonical] = mult.get(form.canonical, 0) + 1
        for key, m in mult.items():
            lcd[key] = max(lcd.get(key, 0), m)
    sizes["polyalg.simplify.lcd_factors"] += sum(lcd.values())


def _kernel_sizes(sizes, args, result):
    rows, ncols = args[0], args[1]
    sizes["linalg.kernel.cells"] += len(rows) * ncols
    sizes["linalg.kernel.rows"] += len(rows)
    sizes["linalg.kernel.rank"] += ncols - len(result)


def _compat_sizes(sizes, args, result):
    rows, _ = result
    sizes["cohomology.compatibility_rows.cells"] += len(rows) * (len(rows[0]) if rows else 0)


def _chamber_sizes(sizes, args, result):
    sizes["morse_betti.chambers.found"] += len(result[0])


# (module, attribute, span name, size recorder, fold recursion)
SPANS = [
    ("polyalg", "Polynomial.__mul__", "polyalg.mul", None, False),
    ("polyalg", "Polynomial.__rmul__", "polyalg.mul", None, False),
    ("polyalg", "Polynomial.__add__", "polyalg.addsub", None, False),
    ("polyalg", "Polynomial.__sub__", "polyalg.addsub", None, False),
    ("polyalg", "Polynomial.substitute", "polyalg.substitute", None, False),
    ("polyalg", "Polynomial.__init__", "polyalg.construct", None, False),
    ("polyalg", "Polynomial.to_json", "polyalg.json", None, False),
    ("polyalg", "Polynomial.from_json", "polyalg.json", None, False),
    ("polyalg", "divides_exactly", "polyalg.divides_exactly", None, False),
    ("polyalg", "reduce_mod_line", "polyalg.reduce_mod_line", None, False),
    ("polyalg", "simplify", "polyalg.simplify", _simplify_sizes, False),
    ("polyalg", "_residue_series", "polyalg.residue_series", None, False),
    ("polyalg", "_residue_formula", "polyalg.residue_formula", None, False),
    ("linalg", "rref", "linalg.rref", None, False),
    ("linalg", "kernel_basis", "linalg.kernel_basis", _kernel_sizes, False),
    ("linalg", "rank", "linalg.rank", None, False),
    ("linalg", "RankTracker.add", "linalg.rank_add", None, False),
    ("linalg", "invert", "linalg.invert", None, False),
    ("cohomology", "compatibility_rows", "cohomology.compatibility_rows", _compat_sizes, False),
    ("cohomology", "coh_basis", "cohomology.coh_basis", None, False),
    ("cohomology", "is_class", "cohomology.is_class", None, False),
    ("localization", "integrate", "localization.integrate", None, False),
    ("localization", "jk_pushforward", "localization.jk_pushforward", None, False),
    ("localization", "kirwan_map", "localization.kirwan_map", None, False),
    ("localization", "full_sweep", "localization.full_sweep", None, False),
    ("morse_betti", "_chambers", "morse_betti.chambers", _chamber_sizes, False),
    ("morse_betti", "_feasible", "morse_betti.feasible", None, True),
    ("morse_betti", "find_acyclic_xi", "morse_betti.find_acyclic_xi", None, False),
    ("morse_betti", "orient", "morse_betti.orient", None, False),
    ("morse_betti", "morse_inequalities", "morse_betti.morse_inequalities", None, False),
    ("morse_betti", "ideal_hilbert", "morse_betti.ideal_hilbert", None, False),
    ("gkm_core", "GkmPair.from_json", "gkm_core.from_json", None, False),
    ("gkm_core", "validate_axial", "gkm_core.validate", None, False),
    ("gkm_core", "validate_connection", "gkm_core.validate", None, False),
    ("gkm_core", "infer_connection", "gkm_core.infer_connection", None, False),
    ("constructions", "complete_graph", "constructions.build", None, False),
    ("constructions", "product", "constructions.build", None, False),
    ("constructions", "blow_up", "constructions.build", None, False),
    ("constructions", "cycle_2valent", "constructions.build", None, False),
    ("cli", "main", "cli.main", None, False),
    ("cli", "_build_parser", "cli.parse", None, False),
    ("cli", "_load_json", "cli.load", None, False),
    ("cli", "_load_pair", "cli.load", None, False),
    ("cli", "_load_class", "cli.load", None, False),
    ("cli", "_load_poly", "cli.load", None, False),
    ("cli", "_emit", "cli.emit", None, False),
]

# The per-layer metrics the traced run prints, in order, with their units.
PER_LAYER = (
    [
        (f"polyalg.{s}.{k}", "count" if k == "calls" else "s")
        for s in ("mul", "addsub", "substitute", "divides_exactly", "residue_series",
                  "residue_formula", "simplify", "reduce_mod_line")
        for k in ("calls", "self_s")
    ]
    + [
        ("polyalg.simplify.terms_in", "count"),
        ("polyalg.simplify.lcd_factors", "count"),
        ("polyalg.construct.self_s", "s"),
        ("polyalg.json.self_s", "s"),
        ("linalg.rref.self_s", "s"),
        ("linalg.kernel_basis.calls", "count"),
        ("linalg.kernel_basis.self_s", "s"),
        ("linalg.kernel.cells", "count"),
        ("linalg.kernel.rank_ratio", "ratio"),
        ("linalg.rank.calls", "count"),
        ("linalg.rank.self_s", "s"),
        ("linalg.rank_add.calls", "count"),
        ("linalg.rank_add.self_s", "s"),
        ("linalg.invert.calls", "count"),
        ("linalg.invert.self_s", "s"),
        ("cohomology.compatibility_rows.calls", "count"),
        ("cohomology.compatibility_rows.self_s", "s"),
        ("cohomology.compatibility_rows.cells", "count"),
        ("cohomology.coh_basis.calls", "count"),
        ("cohomology.coh_basis.self_s", "s"),
        ("cohomology.is_class.self_s", "s"),
        ("localization.integrate.self_s", "s"),
        ("localization.jk_pushforward.calls", "count"),
        ("localization.jk_pushforward.self_s", "s"),
        ("localization.kirwan_map.self_s", "s"),
        ("localization.full_sweep.self_s", "s"),
        ("morse_betti.chambers.calls", "count"),
        ("morse_betti.chambers.self_s", "s"),
        ("morse_betti.chambers.found", "count"),
        ("morse_betti.feasible.calls", "count"),
        ("morse_betti.feasible.self_s", "s"),
        ("morse_betti.chambers.yield", "ratio"),
        ("morse_betti.find_acyclic_xi.self_s", "s"),
        ("morse_betti.orient.self_s", "s"),
        ("morse_betti.morse_inequalities.self_s", "s"),
        ("morse_betti.ideal_hilbert.calls", "count"),
        ("morse_betti.ideal_hilbert.self_s", "s"),
        ("gkm_core.from_json.calls", "count"),
        ("gkm_core.from_json.self_s", "s"),
        ("gkm_core.validate.self_s", "s"),
        ("gkm_core.infer_connection.self_s", "s"),
        ("constructions.build.self_s", "s"),
        ("cli.load.self_s", "s"),
        ("cli.emit.self_s", "s"),
        ("cli.parse.self_s", "s"),
        ("cli.main.self_s", "s"),
        ("trace.overhead_ratio", "ratio"),
        ("trace.coverage", "ratio"),
    ]
)


class Tracer:
    """Span totals: calls and self seconds per span name, plus size counters."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.sizes: dict[str, int] = defaultdict(int)
        # open spans, innermost last: [name, seconds spent in enclosed spans]
        self._stack: list[list] = []

    def wrap(self, name, fn, sizes=None, fold=False):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        counters = self.sizes

        def traced(*args, **kwargs):
            if fold and stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = perf_counter() - start
                stack.pop()
                self_s[name] += spent - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += spent
            if sizes is not None:
                sizes(counters, args, result)
            return result

        return update_wrapper(traced, fn)

    def snapshot(self) -> dict[str, float]:
        return dict(self.self_s)

    def below_main_seconds(self, since: dict[str, float]) -> float:
        """Self seconds of every span other than cli.main recorded after ``since``."""
        return sum(
            v - since.get(k, 0.0) for k, v in self.self_s.items() if k != "cli.main"
        )

    def metrics(self, overhead_ratio: float, coverage: float) -> dict[str, float]:
        values: dict[str, float] = {}
        for name, _ in PER_LAYER:
            span, _, key = name.rpartition(".")
            if key == "calls":
                values[name] = self.calls.get(span, 0)
            elif key == "self_s":
                values[name] = self.self_s.get(span, 0.0)
            elif name in self.sizes:
                values[name] = self.sizes[name]
        rows = self.sizes["linalg.kernel.rows"]
        values["linalg.kernel.rank_ratio"] = self.sizes["linalg.kernel.rank"] / rows if rows else 0.0
        checks = self.calls["morse_betti.feasible"]
        found = self.sizes["morse_betti.chambers.found"]
        values["morse_betti.chambers.yield"] = found / checks if checks else 0.0
        values["trace.overhead_ratio"] = overhead_ratio
        values["trace.coverage"] = coverage
        for name, _ in PER_LAYER:
            values.setdefault(name, 0)
        return values


def _package_modules():
    return [m for name, m in sys.modules.items() if name.split(".")[0] == "gkmcalc"]


def install(tracer: Tracer) -> None:
    """Wrap every function and method in SPANS, wherever the package binds it."""
    modules = _package_modules()
    for modname, attr, name, sizes, fold in SPANS:
        module = sys.modules[f"gkmcalc.{modname}"]
        owner_name, _, member = attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            raw = owner.__dict__[member]
            if isinstance(raw, classmethod):
                setattr(owner, member, classmethod(tracer.wrap(name, raw.__func__, sizes, fold)))
            else:
                setattr(owner, member, tracer.wrap(name, raw, sizes, fold))
            continue
        original = getattr(module, attr)
        wrapped = tracer.wrap(name, original, sizes, fold)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
