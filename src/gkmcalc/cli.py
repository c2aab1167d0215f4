"""Command-line front end.

Every subcommand reads JSON inputs, runs one library computation, and
writes a single JSON document to stdout (or --out).  Diagnostics go to
stderr.  Exit codes: 0 success; 1 a mathematical violation (a failed
axiom or cross-check, a wall, a directed cycle, a non-class); 2 the
command could not use its input (unreadable or malformed files, bad
flags, mismatched argument shapes, unwritable output paths), which the
raising code marks as InputError.  Nothing ends in a traceback.  Output
is deterministic: keys are sorted and rationals are serialized as "a/b"
strings.

One recursive walk (`_write`, joined once) writes each document byte for
byte as json.dumps(doc, indent=2, sort_keys=True) would, spelling
polynomials and classes from their integer numerators; anything else
raises TypeError before a file is opened.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from .cohomology import CohClass, coh_basis, is_class
from .constructions import blow_up, complete_graph, cycle_2valent, product
from .gkm_core import (
    GkmPair,
    GraphFormatError,
    validate_axial,
    validate_connection,
)
from .localization import LevelCut, full_sweep, jk_pushforward
from .localization import integrate as integrate_class
from .morse_betti import (
    betti,
    betti_equality_report,
    betti_invariance_check,
    class_dims,
    find_acyclic_xi,
    morse_inequalities,
    orient,
    positively_oriented_function,
)
from .polyalg import (
    Covector,
    InputError,
    Polynomial,
    Vector,
    _check_max_degree,
    _unpack,
    residue,
    spell,
)


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as err:
        raise InputError(f"cannot read {path}: {err}") from err
    except ValueError as err:  # bad JSON or UTF-8, integers past the digit limit
        raise InputError(f"{path} is not valid JSON: {err}") from err


def _load_pair(path: str) -> GkmPair:
    try:
        return GkmPair.from_json(_load_json(path))
    except GraphFormatError as err:
        raise InputError(f"{path}: {err}") from err


def _load_class(path: str, pair: GkmPair) -> CohClass:
    doc = _load_json(path)
    try:
        cls = CohClass.from_json(doc)
    except (KeyError, TypeError, ValueError) as err:
        raise InputError(f"{path} is not a class file: {err}") from err
    ok, bad_edge = is_class(pair, cls.values)
    if not ok:
        raise ArithmeticError(f"input is not a class, compatibility fails on edge {bad_edge}")
    return cls


def _load_poly(path: str) -> Polynomial:
    doc = _load_json(path)
    try:
        return Polynomial.from_json(doc)
    except (KeyError, TypeError, ValueError) as err:
        raise InputError(f"{path} is not a polynomial file: {err}") from err


def _write(obj, pad: str, out: list[str]) -> None:
    """Append obj's text at indentation pad, as json.dumps(indent=2, sort_keys=True) spells it."""
    t = type(obj)
    if t is str or t is Fraction:
        out.append(_quote(str(obj)))
    elif t is int:
        out.append(int.__repr__(obj))
    elif t is dict or t is CohClass:
        if t is CohClass:
            obj = {"degree": obj.degree, "values": dict(obj.values)}
        inner = pad + "  "
        doc = {str(k): v for k, v in obj.items()}
        for i, key in enumerate(sorted(doc)):
            out.append(("," if i else "{") + f"\n{inner}{_quote(key)}: ")
            _write(doc[key], inner, out)
        out.append(f"\n{pad}}}" if doc else "{}")
    elif t is list or t is tuple:
        inner = pad + "  "
        for i, item in enumerate(obj):
            out.append(("," if i else "[") + "\n" + inner)
            _write(item, inner, out)
        out.append(f"\n{pad}]" if obj else "[]")
    elif t is Polynomial:
        # {"n", "terms": [{"coef", "exp"}]} straight from the packed numerators
        n, terms, den = obj.n, obj._terms, obj._den
        p1, p2, p3 = pad + "    ", pad + "      ", pad + "        "
        out.append(f'{{\n{pad}  "n": {n},\n{pad}  "terms": ')
        for i, key in enumerate(sorted(terms, reverse=True)):
            exp = f",\n{p3}".join(map(str, _unpack(key, n)))
            exp = f"[\n{p3}{exp}\n{p2}]" if n else "[]"
            out.append(("," if i else "[") + f'\n{p1}{{\n{p2}"coef": "{spell(terms[key], den)}",'
                       f'\n{p2}"exp": {exp}\n{p1}}}')
        out.append(f"\n{pad}  ]\n{pad}}}" if terms else f"[]\n{pad}}}")
    elif t is bool or obj is None:
        out.append("null" if obj is None else "true" if obj else "false")
    elif t is Vector or t is Covector:
        _write([spell(a, obj._den) for a in obj._num], pad, out)
    elif hasattr(obj, "to_json"):
        _write(obj.to_json(), pad, out)
    else:
        raise TypeError(f"cannot serialize {t.__name__}")


def _emit(doc, out: str | Path | None) -> None:
    parts: list[str] = []
    _write(doc, "", parts)
    parts.append("\n")
    text = "".join(parts)
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _xi_from(text: str | None, pair: GkmPair) -> Vector:
    if text is None:
        return find_acyclic_xi(pair)
    xi = Vector(text.split(","))
    if xi.n != pair.n:
        raise InputError(f"--xi has {xi.n} coordinates, the pair needs {pair.n}")
    return xi


def cmd_validate(args):
    gpair = _load_pair(args.graph)
    report = validate_axial(gpair)
    if gpair.connection is not None:
        report.violations.extend(validate_connection(gpair, gpair.connection).violations)
    return report.to_json(), report.ok


def cmd_cohdim(args):
    _check_max_degree(args.max_degree)
    gpair = _load_pair(args.graph)
    if not args.basis:
        return {str(k): dim for k, dim in enumerate(class_dims(gpair, args.max_degree))}, True
    outdir = Path(args.basis)
    outdir.mkdir(parents=True, exist_ok=True)
    dims = {}
    for k in range(args.max_degree + 1):
        dims[str(k)], classes = coh_basis(gpair, k)
        for i, cls in enumerate(classes):
            _emit(cls, outdir / f"deg{k}_{i}.json")
    return dims, True


def cmd_integrate(args):
    gpair = _load_pair(args.graph)
    cls = _load_class(args.cls, gpair)
    value = integrate_class(gpair, cls)
    return {"integral": value}, True


def cmd_residue(args):
    f = _load_poly(args.poly)
    alphas = [Covector(a.split(",")) for a in args.alpha or []]
    xi = Vector(args.xi.split(","))
    if any(a.is_zero() for a in alphas):
        raise InputError("--alpha must be a nonzero covector")
    value = residue(f, alphas, xi, method=args.method)
    return {"residue": value}, True


def cmd_jk(args):
    gpair = _load_pair(args.graph)
    cls = _load_class(args.cls, gpair)
    xi = _xi_from(args.xi, gpair)
    if args.sweep:
        doc = dict(full_sweep(gpair, xi, cls))
        doc["xi"] = xi
        return doc, True
    if args.c is None:
        raise InputError("need either --c LEVEL or --sweep")
    phi = positively_oriented_function(gpair, xi)
    cut = LevelCut(xi, phi, args.c)
    result = jk_pushforward(gpair, cut, cls)
    return {
        "c": cut.c,
        "degree": result.degree,
        "perVertexResidues": result.per_vertex_residues,
        "phi": phi,
        "polynomial": result.polynomial,
        "xi": xi,
    }, True


def cmd_betti(args):
    gpair = _load_pair(args.graph)
    xi = None if args.xi is None else _xi_from(args.xi, gpair)
    doc = dict(betti_invariance_check(gpair))
    if xi is not None:
        o = orient(gpair, xi)
        doc["sigma"], doc["bettiAtXi"] = o.sigma, betti(gpair, o)
    return doc, doc["invariant"]


def cmd_morse(args):
    _check_max_degree(args.max_degree)
    gpair = _load_pair(args.graph)
    xi = _xi_from(args.xi, gpair)
    doc = dict(morse_inequalities(gpair, xi, args.max_degree))
    doc["xi"] = xi
    if args.l is not None:
        doc["equalityReport"] = betti_equality_report(gpair, args.l, args.max_degree)
    return doc, doc["ok"]


def cmd_blowup(args):
    gpair = _load_pair(args.graph)
    sharp, down = blow_up(gpair, args.vertex)
    return {"blowDown": down, "graph": sharp}, True


def cmd_product(args):
    a = _load_pair(args.graph)
    b = _load_pair(args.graph2)
    combined, report = product(a, b)
    return {"graph": combined, "report": report}, report.ok


def cmd_complete(args):
    alphas = [Covector(part.split(",")) for part in args.alphas.split(";")]
    gpair = complete_graph(alphas)
    return {"graph": gpair}, True


def cmd_cycle(args):
    gpair = cycle_2valent(args.count, args.a1.split(","), args.a2.split(","))
    return {"graph": gpair}, True


# Built once per process: in-process callers of main() would otherwise pay
# for the parser on every call.  Callers must not modify the shared parser.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the JSON document to this path instead of stdout")

    parser = argparse.ArgumentParser(
        prog="gkmcalc",
        description="Exact computations on graphs with axial covectors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    x = sub.add_parser("validate", parents=[common], help="check the axioms of a graph file")
    x.add_argument("graph")
    x.set_defaults(func=cmd_validate)

    x = sub.add_parser("cohdim", parents=[common], help="class-space dimensions by degree")
    x.add_argument("graph")
    x.add_argument("--max-degree", type=int, default=4)
    x.add_argument("--basis", help="directory for the basis class files")
    x.set_defaults(func=cmd_cohdim)

    x = sub.add_parser("integrate", parents=[common], help="push a class forward to a point")
    x.add_argument("graph")
    x.add_argument("--class", dest="cls", required=True, help="class JSON file")
    x.set_defaults(func=cmd_integrate)

    x = sub.add_parser("residue", parents=[common], help="residue of f over a product of covectors")
    x.add_argument("--poly", required=True, help="polynomial JSON file")
    x.add_argument("--alpha", action="append", help="denominator covector, repeatable, e.g. 1,0")
    x.add_argument("--xi", required=True, help="direction, e.g. 1,2")
    x.add_argument("--method", choices=("series", "formula"), default="series")
    x.set_defaults(func=cmd_residue)

    x = sub.add_parser("jk", parents=[common], help="level-cut pushforward, one level or a sweep")
    x.add_argument("graph")
    x.add_argument("--class", dest="cls", required=True, help="class JSON file")
    x.add_argument("--xi", help="direction; defaults to the first acyclic chamber")
    x.add_argument("--c", help="regular level, e.g. --c=-1/2")
    x.add_argument("--sweep", action="store_true", help="sweep every level and telescope")
    x.set_defaults(func=cmd_jk)

    x = sub.add_parser("betti", parents=[common], help="Betti histogram and chamber invariance")
    x.add_argument("graph")
    x.add_argument("--xi", help="also report sigma in this one chamber")
    x.set_defaults(func=cmd_betti)

    x = sub.add_parser("morse", parents=[common], help="dimension bounds degree by degree")
    x.add_argument("graph")
    x.add_argument("--xi", help="direction; defaults to the first acyclic chamber")
    x.add_argument("--max-degree", type=int, default=6)
    x.add_argument("--l", type=int, help="also run the l-independence equality report")
    x.set_defaults(func=cmd_morse)

    x = sub.add_parser("blowup", parents=[common], help="blow up one vertex")
    x.add_argument("graph")
    x.add_argument("--vertex", required=True)
    x.set_defaults(func=cmd_blowup)

    x = sub.add_parser("product", parents=[common], help="product of two graph files")
    x.add_argument("graph")
    x.add_argument("graph2")
    x.set_defaults(func=cmd_product)

    x = sub.add_parser("complete", parents=[common], help="complete graph on given covectors")
    x.add_argument("--alphas", required=True, help="semicolon-separated covectors, e.g. 0,0;1,0;0,1")
    x.set_defaults(func=cmd_complete)

    x = sub.add_parser("cycle", parents=[common], help="2-valent cycle with the period-4 pattern")
    x.add_argument("--count", type=int, required=True, help="number of vertices, divisible by 4")
    x.add_argument("--a1", required=True, help="first covector, e.g. 1,0")
    x.add_argument("--a2", required=True, help="second covector, e.g. 0,1")
    x.set_defaults(func=cmd_cycle)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        doc, ok = args.func(args)
        _emit(doc, args.out)
    except (InputError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as err:
        print(f"violation: {err}", file=sys.stderr)
        return 1
    return 0 if ok else 1
