"""Exact combinatorics of graphs with axial covectors.

Everything is computed exactly over the rationals: internally as integer
numerators over one positive denominator, as fractions.Fraction where a
value is handed out; no floats enter any computation.  The modules split
as: linalg (exact elimination: ranks, echelon forms, kernels, inverses),
polyalg (sparse polynomials, linear forms, residues), gkm_core (the graph
data model and axiom validation), constructions (complete graphs,
products, blow-ups, cycles), cohomology (classes and bases), localization
(pushforwards and level cuts), morse_betti (orientations, Betti numbers,
dimension bounds), cli (the gkmcalc command).
"""

from .cohomology import CohClass, chern_class, coh_basis, is_class, is_symplectic
from .constructions import blow_up, complete_graph, cycle_2valent, product
from .gkm_core import (
    AmbiguousConnection,
    GkmPair,
    GraphFormatError,
    NoConnection,
    ValidationReport,
    infer_connection,
    validate_axial,
    validate_connection,
)
from .localization import IntegrityError, LevelCut, full_sweep, integrate, jk_pushforward
from .morse_betti import (
    Orientation,
    betti,
    betti_equality_report,
    betti_invariance_check,
    ideal_hilbert,
    l_independent,
    morse_inequalities,
    orient,
    positively_oriented_function,
)
from .polyalg import (
    Covector,
    InputError,
    LinearForm,
    LocalizedSum,
    LocalizedTerm,
    NonPolynomialResultError,
    Polynomial,
    Vector,
    residue,
    simplify,
)

__version__ = "0.1.0"

__all__ = [
    "AmbiguousConnection",
    "CohClass",
    "Covector",
    "GkmPair",
    "GraphFormatError",
    "InputError",
    "IntegrityError",
    "LevelCut",
    "LinearForm",
    "LocalizedSum",
    "LocalizedTerm",
    "NoConnection",
    "NonPolynomialResultError",
    "Orientation",
    "Polynomial",
    "ValidationReport",
    "Vector",
    "betti",
    "betti_equality_report",
    "betti_invariance_check",
    "blow_up",
    "chern_class",
    "coh_basis",
    "complete_graph",
    "cycle_2valent",
    "full_sweep",
    "ideal_hilbert",
    "infer_connection",
    "integrate",
    "is_class",
    "is_symplectic",
    "jk_pushforward",
    "l_independent",
    "morse_inequalities",
    "orient",
    "positively_oriented_function",
    "product",
    "residue",
    "simplify",
    "validate_axial",
    "validate_connection",
    "__version__",
]
