"""Exact multivariate polynomial algebra, linear forms, and residues.

Arithmetic is exact rational; no floating point is used anywhere in this
package.  Polynomials are sparse maps from packed monomial keys to nonzero
integer numerators over one common positive denominator, kept in lowest
terms; they hand out exponent tuples and `fractions.Fraction`s.  A key
packs an exponent tuple into one int of 16-bit fields, the total degree in
the top field and then e_0 ... e_{n-1}, so multiplying monomials adds keys
and graded-lexicographic order (total degree first, then the exponent
tuple) is int order.  Exponents and total degrees above ``MAX_DEGREE`` =
65535 raise ``InputError``.  Coefficients and coordinates given as text go
through one parser (``_rational``), which reads plain ``a`` and ``a/b``
with ``int`` and hands every other spelling to ``as_fraction``.

A covector is a linear functional on the acting torus's Lie algebra,
written in coordinates; a vector lives in the algebra itself.  Both are
stored like polynomials, as integer numerators over one positive
denominator in lowest terms, and hand out ``Fraction``s.  A
``LinearForm`` couples a nonzero covector with its canonical primitive
integer representative (first nonzero coordinate positive), which is how
parallelism of denominators is detected exactly.  Division by a form's
line has one kernel, ``_divide_by_line``: synthetic division on integer
numerators that returns quotient, remainder and lift.  Exact division
(``divides_exactly``) is its quotient when the remainder vanishes, and
the normal form modulo the form (``reduce_mod_line``) is its remainder.
The compatibility rows of the class ring (``_reduction_table``) write
that normal form in closed form per monomial, and linear arguments are
reduced on covectors directly (``reduce_covector_mod_line``).

The residue of ``f / prod(alpha_i)`` along a direction ``xi`` is
implemented twice, by a truncated geometric-series expansion and by a
partial-fraction formula, checked against each other in the test suite.
Both rest on one kernel, ``_taylor``: the divided derivatives of f along
xi on integer numerators.  Past it they stay independent; ``_project``
and ``_series`` take an expansion already made, so a caller that needs
several projections or a residue of one value expands it once.  The series
route reads the expansion of f in the xi direction off the kernel and
expands prod(1/alpha_i) through the complete homogeneous symmetric
polynomials h_m; the formula route projects f along each form
(``project_along``) and the other forms to their projected forms alpha#
(``project_covector``), and collapses the partial fractions with
``polynomial_sum``.  That is ``simplify`` for every sum that must come
out polynomial: it raises ``NonPolynomialResultError`` when a
denominator is left.  ``simplify`` clears and cancels on integer
numerator maps, cancelling each line through ``_divide_by_line``.  The
tests also pin both routes to frozen copies of their earlier
general-substitution (Horner) versions.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction

Monomial = tuple[int, ...]

_BITS = 16
_MASK = (1 << _BITS) - 1
MAX_DEGREE = _MASK


class InputError(ValueError):
    """The arguments themselves are unusable: unparseable, mis-shaped or mismatched.

    Violations of the mathematics (walls, directed cycles, non-classes,
    failed cross-checks) are raised as other errors.
    """


class NonPolynomialResultError(ArithmeticError):
    """A localized sum that had to be polynomial failed to simplify to one."""

    def __init__(self, message: str, numerator=None, denominators=None):
        super().__init__(message)
        self.numerator = numerator
        self.denominators = denominators


def as_fraction(value: int | str | Fraction) -> Fraction:
    """Parse an exact rational; floats are rejected to keep arithmetic exact."""
    if isinstance(value, bool) or isinstance(value, float):
        raise TypeError(f"exact rational required, got {value!r}")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as err:
            raise InputError(f"bad rational {value!r}: {err}") from err
    raise TypeError(f"exact rational required, got {value!r}")


def _rational(value: int | str | Fraction) -> tuple[int, int]:
    """(numerator, denominator > 0) of an exact rational, not necessarily in lowest terms.

    An int, or an ASCII string ``a`` or ``a/b`` (optional sign on a, digits
    only, b nonzero), is read with ``int``; anything else goes through
    ``as_fraction``, so every rejection raises what ``as_fraction`` raises.
    """
    if type(value) is int:
        return value, 1
    if type(value) is str and value.isascii():
        num, slash, den = value.partition("/")
        if (num[1:] if num[:1] in ("+", "-") else num).isdigit() and (not slash or den.isdigit()):
            try:
                a, b = int(num), int(den) if slash else 1
            except ValueError:  # past the digit limit of int parsing
                pass
            else:
                if b:
                    return a, b
    q = as_fraction(value)
    return q.numerator, q.denominator


def _check_degree(d: int) -> None:
    if d > MAX_DEGREE:
        raise InputError(f"total degree {d} is above the limit {MAX_DEGREE} of monomial keys")


def _check_max_degree(k: int) -> None:
    """A bound on degrees must be nonnegative and at most ``MAX_DEGREE``."""
    if k < 0:
        raise InputError(f"--max-degree must be nonnegative, got {k}")
    _check_degree(k)


def pack_monomial(exp: Monomial) -> int:
    """Key of a nonnegative exponent tuple: total degree on top, then e_0 ... e_{n-1}."""
    key = sum(exp)
    _check_degree(key)
    for e in exp:
        key = key << _BITS | e
    return key


def _unpack(key: int, n: int) -> Monomial:
    exp = [0] * n
    for i in range(n - 1, -1, -1):
        exp[i] = key & _MASK
        key >>= _BITS
    return tuple(exp)


def spell(c: int, den: int) -> str:
    """``str(Fraction(c, den))`` for den > 0, without building the Fraction."""
    g = math.gcd(c, den)
    return str(c // g) if g == den else f"{c // g}/{den // g}"


def _unit(n: int, i: int) -> int:
    """Key of the variable x_i."""
    return 1 << _BITS * n | 1 << _BITS * (n - 1 - i)


class _Coords:
    """Immutable exact rational coordinates with linear arithmetic.

    Stored like ``Polynomial``: ``_num`` is a tuple of integer numerators
    over one positive denominator ``_den``, in lowest terms (the zero tuple
    has denominator 1), so structural equality is mathematical equality.
    ``coords``, indexing and iteration hand out ``Fraction``s.  Built from
    an instance of its own type, the constructor returns that instance; a
    string is refused rather than read as one coordinate per character.
    """

    __slots__ = ("_num", "_den")

    def __new__(cls, coords: Iterable[int | str | Fraction]):
        if type(coords) is cls:
            return coords
        if isinstance(coords, str):
            raise InputError(f"coordinates must be a sequence, not the string {coords!r}")
        pairs = [_rational(c) for c in coords]
        den = math.lcm(*(b for _, b in pairs))
        return cls._raw(tuple(a * (den // b) for a, b in pairs), den)

    def __reduce__(self):
        return self._raw, (self._num, self._den)

    @classmethod
    def _raw(cls, num: tuple[int, ...], den: int = 1):
        """Wrap integer numerators over a nonzero den, reduced to lowest terms."""
        g = math.gcd(den, *num) if den > 0 else -math.gcd(den, *num)
        out = object.__new__(cls)
        out._num = num if g == 1 else tuple(a // g for a in num)
        out._den = den // g
        return out

    @property
    def coords(self) -> tuple[Fraction, ...]:
        den = self._den
        return tuple(Fraction(a, den) for a in self._num)

    @property
    def n(self) -> int:
        return len(self._num)

    def is_zero(self) -> bool:
        return not any(self._num)

    def __getitem__(self, i: int) -> Fraction:
        return Fraction(self._num[i], self._den)

    def __iter__(self):
        return iter(self.coords)

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and (self._num, self._den) == (other._num, other._den)

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._num, self._den))

    def _add_scaled(self, other, sign: int):
        """self + sign * other over the lcm of the two denominators."""
        self._check(other)
        d1, d2 = self._den, other._den
        g = math.gcd(d1, d2)
        f1, f2 = d2 // g, sign * d1 // g
        num = tuple(a * f1 + b * f2 for a, b in zip(self._num, other._num))
        return self._raw(num, d1 * f1)

    def __add__(self, other):
        return self._add_scaled(other, 1)

    def __sub__(self, other):
        return self._add_scaled(other, -1)

    def __neg__(self):
        return self._raw(tuple(-a for a in self._num), self._den)

    def scaled(self, q: int | Fraction) -> "_Coords":
        a, b = _rational(q)
        return self._raw(tuple(a * c for c in self._num), self._den * b)

    def _check(self, other) -> None:
        if type(self) is not type(other) or self.n != other.n:
            raise TypeError("mismatched coordinate tuples")

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(spell(a, self._den) for a in self._num)})"


class Covector(_Coords):
    """Element of the dual of the torus Lie algebra, in coordinates."""


class Vector(_Coords):
    """Element of the torus Lie algebra, in coordinates."""


def pair(cov: Covector, vec: Vector) -> Fraction:
    """Natural pairing <covector, vector>."""
    if cov.n != vec.n:
        raise TypeError("dimension mismatch in pairing")
    return Fraction(sum(map(operator.mul, cov._num, vec._num)), cov._den * vec._den)


def _split(terms: dict[int, int], n: int, j: int) -> dict[int, dict[int, int]]:
    """Group terms by the exponent of x_j, with that exponent zeroed."""
    shift, unit = _BITS * (n - 1 - j), _unit(n, j)
    parts: dict[int, dict[int, int]] = {}
    for key, c in terms.items():
        r = key >> shift & _MASK
        parts.setdefault(r, {})[key - r * unit] = c
    return parts


def _key(exp: Monomial, n: int) -> int:
    if len(exp) != n or any(e < 0 for e in exp):
        raise ValueError(f"bad exponent tuple {exp!r} for n={n}")
    return pack_monomial(exp)


def _clear(terms: list[tuple[int, int, int]]) -> tuple[dict[int, int], int]:
    """Sum (key, numerator, denominator) triples per key over the lcm of the denominators.

    Zeros are dropped; ``Polynomial._raw`` reduces the result to lowest terms.
    """
    den = math.lcm(*(b for _, _, b in terms))
    acc: dict[int, int] = {}
    get = acc.get
    for key, a, b in terms:
        acc[key] = get(key, 0) + a * (den // b)
    return {k: c for k, c in acc.items() if c}, den


def _mul_terms(t1: dict[int, int], t2: dict[int, int]) -> dict[int, int]:
    """Product of two numerator maps; the caller keeps the degree within the limit."""
    out: dict[int, int] = {}
    get = out.get
    items2 = t2.items()
    for k1, c1 in t1.items():
        for k2, c2 in items2:
            key = k1 + k2
            out[key] = get(key, 0) + c1 * c2
    if not all(out.values()):
        out = {k: c for k, c in out.items() if c}
    return out


def _add_into(acc: dict[int, int], terms: dict[int, int], factor: int = 1) -> None:
    """acc += factor * terms in place, for a nonzero int factor."""
    get = acc.get
    for k, c in terms.items():
        c = get(k, 0) + c * factor
        if c:
            acc[k] = c
        else:
            del acc[k]


def _taylor(terms: dict[int, int], n: int, xi_num: Sequence[int]) -> list[dict[int, int]]:
    """Divided directional derivatives T_r = D_xi^r f / r! of a numerator map.

    f(x + t*xi) = sum_r t**r * T_r(x).  With integer xi every T_r has
    integer coefficients, so each pass T_r = D_xi(T_{r-1}) // r is exact.
    The list runs from T_0 = f to the last nonzero T_r.
    """
    steps = [(_unit(n, k), _BITS * (n - 1 - k), a) for k, a in enumerate(xi_num) if a]
    out = [terms]
    while True:
        acc: dict[int, int] = {}
        get = acc.get
        for key, c in out[-1].items():
            for unit, shift, a in steps:
                e = key >> shift & _MASK
                if e:
                    acc[key - unit] = get(key - unit, 0) + c * e * a
        r = len(out)
        acc = {k: c // r for k, c in acc.items() if c}
        if not acc:
            return out
        out.append(acc)


class Polynomial:
    """Sparse exact polynomial in ``n`` variables.

    Coefficients are stored as integer numerators over one common positive
    denominator: ``_terms`` maps packed monomial keys (``pack_monomial``)
    to nonzero ints and ``_den`` is an int.  The pair is kept in lowest
    terms (the gcd of the denominator and every numerator is 1, and zero
    has denominator 1), so structural equality is mathematical equality.
    Parsing, products and substitutions raise ``InputError`` rather than
    pass ``MAX_DEGREE``, so no key field carries into the next.  ``terms``,
    ``coefficient`` and ``evaluate`` speak exponent tuples and
    ``Fraction``s.  Instances are immutable by convention; all operations
    return new objects.
    """

    __slots__ = ("n", "_terms", "_den")

    def __init__(
        self,
        n: int,
        terms: Mapping[Monomial, int | str | Fraction]
        | Iterable[tuple[Monomial, int | str | Fraction]]
        | None = None,
    ):
        self.n = int(n)
        if self.n < 0:
            raise ValueError("variable count must be nonnegative")
        items = terms.items() if isinstance(terms, Mapping) else terms or ()
        p = self._raw(self.n, *_clear(
            [(_key(tuple(int(e) for e in exp), self.n), *_rational(coef)) for exp, coef in items]
        ))
        self._terms, self._den = p._terms, p._den

    # --- constructors -------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Polynomial":
        return cls._raw(n, {})

    @classmethod
    def constant(cls, n: int, c: int | str | Fraction) -> "Polynomial":
        a, b = _rational(c)
        return cls._raw(n, {0: a} if a else {}, b)

    @classmethod
    def variable(cls, n: int, i: int) -> "Polynomial":
        if not 0 <= i < n:
            raise ValueError("variable index out of range")
        return cls._raw(n, {_unit(n, i): 1})

    @classmethod
    def from_covector(cls, cov: Covector) -> "Polynomial":
        n = cov.n
        terms = {_unit(n, i): a for i, a in enumerate(cov._num) if a}
        return cls._raw(n, terms, cov._den)

    @classmethod
    def _raw(cls, n: int, terms: dict[int, int], den: int = 1) -> "Polynomial":
        """Wrap nonzero integer numerators over a nonzero den, reduced to lowest terms."""
        if den != 1:
            g = math.gcd(den, *terms.values()) if den > 0 else -math.gcd(den, *terms.values())
            if g != 1:
                terms = {e: c // g for e, c in terms.items()}
                den //= g
        p = object.__new__(cls)
        p.n = n
        p._terms = terms
        p._den = den
        return p

    # --- inspection ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in canonical (graded-lex, largest first) order."""
        n, den, terms = self.n, self._den, self._terms
        return [(_unpack(k, n), Fraction(terms[k], den)) for k in sorted(terms, reverse=True)]

    def coefficient(self, exp: Monomial) -> Fraction:
        exp = tuple(exp)
        if len(exp) != self.n or min(exp, default=0) < 0 or sum(exp) > MAX_DEGREE:
            return Fraction(0)
        return Fraction(self._terms.get(pack_monomial(exp), 0), self._den)

    def total_degree(self) -> int:
        """Maximum total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(self._terms) >> _BITS * self.n

    def is_homogeneous(self) -> bool:
        shift = _BITS * self.n
        return not self._terms or min(self._terms) >> shift == max(self._terms) >> shift

    def homogeneous_degree(self) -> int | None:
        """Common total degree of a homogeneous polynomial.

        Returns None for the zero polynomial (homogeneous of every degree)
        and raises ValueError if the terms mix degrees.
        """
        if not self._terms:
            return None
        if not self.is_homogeneous():
            raise ValueError("polynomial is not homogeneous")
        return self.total_degree()

    # --- arithmetic ---------------------------------------------------

    def _check(self, other: "Polynomial") -> None:
        if not isinstance(other, Polynomial) or other.n != self.n:
            raise TypeError("mismatched polynomial rings")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.n == other.n
            and self._den == other._den
            and self._terms == other._terms
        )

    def _add_scaled(self, other: "Polynomial", sign: int) -> "Polynomial":
        """self + sign * other over the lcm of the two denominators."""
        self._check(other)
        d1, d2 = self._den, other._den
        g = math.gcd(d1, d2)
        f1, f2 = d2 // g, d1 // g
        out = {e: c * f1 for e, c in self._terms.items()} if f1 != 1 else dict(self._terms)
        _add_into(out, other._terms, sign * f2)
        return self._raw(self.n, out, d1 * f1)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        return self._add_scaled(other, 1)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self._add_scaled(other, -1)

    def __neg__(self) -> "Polynomial":
        return self._raw(self.n, {e: -c for e, c in self._terms.items()}, self._den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        self._check(other)
        if self._terms and other._terms:
            _check_degree(self.total_degree() + other.total_degree())
        return self._raw(self.n, _mul_terms(self._terms, other._terms), self._den * other._den)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        return NotImplemented

    def scaled(self, q: int | Fraction) -> "Polynomial":
        a, b = _rational(q)
        if not a:
            return Polynomial.zero(self.n)
        terms = {e: a * c for e, c in self._terms.items()} if a != 1 else self._terms
        return self._raw(self.n, terms, self._den * b)

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power")
        out = Polynomial.constant(self.n, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    # --- structure ----------------------------------------------------

    def substitute(self, images: Mapping[int, "Polynomial"]) -> "Polynomial":
        """Ring morphism sending x_i to images[i] (default: itself).

        Each term is expanded on its own: its monomial in the variables
        without an image, times ``images[i] ** e_i`` for each variable with
        one, scaled by the coefficient; a term that raises a zero image to a
        positive power is zero and skipped.  A product past ``MAX_DEGREE``
        raises ``InputError`` in ``__mul__``.
        """
        n = self.n
        for i, img in images.items():
            if img.n != n or not 0 <= i < n:
                raise ValueError("substitution images must live in the same ring")
        out = Polynomial.zero(n)
        for exp, c in self.terms():
            if any(exp[i] and img.is_zero() for i, img in images.items()):
                continue
            term = Polynomial(n, {tuple(0 if i in images else e for i, e in enumerate(exp)): c})
            for i, img in images.items():
                term = term * img ** exp[i]
            out = out + term
        return out

    def evaluate(self, point: Sequence[int | Fraction]) -> Fraction:
        if len(point) != self.n:
            raise ValueError("evaluation point has wrong dimension")
        pt = [as_fraction(c) for c in point]
        total = Fraction(0)
        for exp, q in self.terms():
            val = q
            for c, e in zip(pt, exp):
                if e:
                    val *= c**e
            total += val
        return total

    # --- serialization ------------------------------------------------

    def to_json(self) -> dict:
        n, terms, den = self.n, self._terms, self._den
        return {"n": n, "terms": [{"exp": list(_unpack(k, n)), "coef": spell(terms[k], den)}
                                  for k in sorted(terms, reverse=True)]}

    @classmethod
    def from_json(cls, obj: Mapping) -> "Polynomial":
        if not isinstance(obj, Mapping) or "n" not in obj or "terms" not in obj:
            raise ValueError("polynomial object needs 'n' and 'terms'")
        n = obj["n"]
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise ValueError("'n' must be a nonnegative integer")
        terms = []
        for entry in obj["terms"]:
            if not isinstance(entry, Mapping) or "exp" not in entry or "coef" not in entry:
                raise ValueError("each term needs 'exp' and 'coef'")
            exp = entry["exp"]
            if not isinstance(exp, (list, tuple)) or any(
                not isinstance(e, int) or isinstance(e, bool) or e < 0 for e in exp
            ):
                raise ValueError(f"bad exponent list {exp!r}")
            terms.append((tuple(exp), *_rational(entry["coef"])))
        return cls._raw(n, *_clear([(_key(exp, n), a, b) for exp, a, b in terms]))

    def __repr__(self) -> str:
        if not self._terms:
            return "0"
        bits = []
        for exp, q in self.terms():
            mono = "*".join(
                f"x{i}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exp)
                if e
            )
            if mono:
                bits.append(f"{q}*{mono}" if q != 1 else mono)
            else:
                bits.append(str(q))
        return " + ".join(bits)


class LinearForm:
    """A nonzero covector together with its canonical primitive representative.

    Two forms are parallel exactly when their canonical integer tuples agree,
    and ``covector == scale * canonical``; the scale is kept as the integer
    ``_g`` over the covector's denominator.  Built from a form, the
    constructor returns that form; built from a ``Covector``, it keeps
    that covector.
    """

    __slots__ = ("covector", "canonical", "_g")

    def __new__(cls, covector: LinearForm | Covector | Iterable):
        if type(covector) is cls:
            return covector
        if type(covector) is not Covector:
            covector = Covector(covector)
        if covector.is_zero():
            raise ValueError("linear form must be nonzero")
        self = object.__new__(cls)
        self.covector = covector
        num = covector._num
        g = math.gcd(*num) if next(a for a in num if a) > 0 else -math.gcd(*num)
        self.canonical = tuple(a // g for a in num)
        self._g = g
        return self

    def __reduce__(self):
        return LinearForm, (self.covector,)

    @property
    def scale(self) -> Fraction:
        return Fraction(self._g, self.covector._den)

    @property
    def n(self) -> int:
        return self.covector.n

    def parallel_to(self, other: "LinearForm") -> bool:
        return self.canonical == other.canonical

    def polynomial(self) -> Polynomial:
        return Polynomial.from_covector(self.covector)

    def canonical_covector(self) -> Covector:
        return Covector._raw(self.canonical)

    def evaluate(self, vec: Vector) -> Fraction:
        return pair(self.covector, vec)

    def pivot(self) -> int:
        """Highest-index variable with nonzero canonical coefficient."""
        return max(i for i, v in enumerate(self.canonical) if v)

    def __eq__(self, other) -> bool:
        return isinstance(other, LinearForm) and self.covector == other.covector

    def __hash__(self) -> int:
        return hash(self.covector)

    def __repr__(self) -> str:
        return f"LinearForm({self.covector!r})"


def parallel_pairs(forms: Sequence[LinearForm]) -> list[tuple[int, int]]:
    """Index pairs a < b of parallel forms, in lexicographic order."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, form in enumerate(forms):
        groups.setdefault(form.canonical, []).append(i)
    return sorted(ab for group in groups.values() for ab in itertools.combinations(group, 2))


def graded_dim(n: int, k: int) -> int:
    """Dimension of the degree-k piece of a polynomial ring in n variables."""
    if n < 1:
        raise ValueError("need at least one variable")
    if k < 0:
        return 0
    return math.comb(k + n - 1, n - 1)


def monomials(n: int, k: int) -> list[Monomial]:
    """All exponent tuples of total degree k, in canonical order."""
    if k < 0:
        return []
    out: list[Monomial] = []

    def rec(prefix: tuple[int, ...], remaining: int, slots: int) -> None:
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + (e,), remaining - e, slots - 1)

    # descending e_0, then e_1, ...: all of degree k, so descending graded-lex order
    rec((), k, n)
    return out


def _divide_by_line(
    terms: dict[int, int], n: int, form: LinearForm
) -> tuple[dict[int, int], dict[int, int], int]:
    """Synthetic division of a numerator map by the form's canonical line.

    Returns (quotient, remainder, lift) with lift * f = line * quotient +
    remainder, where c is the canonical covector, line = sum_i c_i x_i,
    j is the pivot, K the degree of f in x_j and lift = c_j**K; x_j does
    not appear in the remainder.  Walking the x_j-levels of the lifted f
    from K down to 1, each surviving term a*x**e gives the quotient term
    (a / c_j)*x**(e - e_j) as an exact int division and sends
    -(a / c_j)*c_i*x**(e - e_j + e_i) to the level below for every other
    nonzero c_i.  Level 0 is the remainder.
    """
    if not terms:
        return {}, {}, 1
    c, j = form.canonical, form.pivot()
    cj, uj = c[j], _unit(n, j)
    others = [(_unit(n, i), ci) for i, ci in enumerate(c) if ci and i != j]
    levels = _split(terms, n, j)
    top = max(levels)
    lift = cj**top
    levels = {r: {e: a * lift for e, a in t.items()} for r, t in levels.items()}
    quotient: dict[int, int] = {}
    for r in range(top, 0, -1):
        below = levels.setdefault(r - 1, {})
        for e, a in levels[r].items():
            if not a:
                continue
            b = a // cj
            quotient[e + (r - 1) * uj] = b
            for ui, ci in others:
                below[e + ui] = below.get(e + ui, 0) - b * ci
    return quotient, {e: a for e, a in levels[0].items() if a}, lift


def reduce_mod_line(f: Polynomial, form: LinearForm) -> Polynomial:
    """Canonical normal form of f modulo the ideal generated by the form.

    The pivot variable (highest-index nonzero canonical coordinate) is
    eliminated by solving the form for it, so the result mentions only the
    remaining variables.  This realizes restriction to the form's kernel.
    It is the remainder of ``_divide_by_line`` over the lift.
    """
    if f.n != form.n:
        raise ValueError("ring dimension mismatch")
    _, remainder, lift = _divide_by_line(f._terms, f.n, form)
    return Polynomial._raw(f.n, remainder, f._den * lift)


def _reduction_table(form: LinearForm, k: int, mons: Sequence[Monomial]) -> list[list[tuple]]:
    """Per reduced monomial (graded-lex descending), its (monomial index, coefficient) pairs.

    With c the form's canonical covector, j its pivot and
    rho = -sum_{i != j} c_i x_i, c_j**k times x**e mod the form is
    c_j**(k - e_j) * x**e' * rho**e_j, e' being e with e_j = 0.  The rows
    are keyed by packed monomials, so descending keys are graded-lex order.
    """
    c, j, n = form.canonical, form.pivot(), form.n
    rho = {_unit(n, i): -x for i, x in enumerate(c) if i != j and x}
    powers = [{0: 1}]
    for _ in range(k):
        powers.append(_mul_terms(powers[-1], rho))
    by_key: dict[int, list[tuple[int, int]]] = {}
    for mi, m in enumerate(mons):
        scale, rest = c[j] ** (k - m[j]), pack_monomial(m[:j] + (0,) + m[j + 1:])
        for key, x in powers[m[j]].items():
            by_key.setdefault(rest + key, []).append((mi, scale * x))
    return [by_key[key] for key in sorted(by_key, reverse=True)]


def reduce_covector_mod_line(cov: Covector, form: LinearForm) -> Covector:
    """``reduce_mod_line`` of a linear form, as a covector.

    With c the canonical covector and j its pivot, coordinate i becomes
    a_i - a_j * c_i / c_j, so coordinate j becomes 0.
    """
    if cov.n != form.n:
        raise ValueError("ring dimension mismatch")
    c, j = form.canonical, form.pivot()
    cj, aj = c[j], cov._num[j]
    return Covector._raw(tuple(cj * a - aj * ci for a, ci in zip(cov._num, c)), cov._den * cj)


def divides_exactly(form: LinearForm, f: Polynomial) -> Polynomial | None:
    """Quotient f / form when the division is exact, else None.

    The quotient of ``_divide_by_line`` when its remainder is zero, over
    the lift and the form's scale.
    """
    if f.n != form.n:
        raise ValueError("ring dimension mismatch")
    quotient, remainder, lift = _divide_by_line(f._terms, f.n, form)
    if remainder:
        return None
    d = form.covector._den  # the scale is _g / d
    return Polynomial._raw(f.n, {e: c * d for e, c in quotient.items()}, f._den * lift * form._g)


def _expansion(f: Polynomial, xi: Vector) -> list[dict[int, int]]:
    """``_taylor`` of f's numerator map along xi's numerators."""
    return _taylor(f._terms, f.n, xi._num)


def project_along(f: Polynomial, form: LinearForm, xi: Vector) -> Polynomial:
    """Push f into the subring annihilating xi using the form's direction.

    Every generator beta goes to beta - (beta(xi)/form(xi)) * form, which is
    the identification of the form's kernel functions with functions on the
    annihilator of xi.  Requires form(xi) != 0 and one dimension for all three.
    """
    if f.n != xi.n or form.n != xi.n:
        raise InputError("dimension mismatch")
    return _project(f, _expansion(f, xi), form, xi)


def _project(
    f: Polynomial, taylor: list[dict[int, int]], form: LinearForm, xi: Vector
) -> Polynomial:
    """``project_along`` from f's expansion along xi.

    On numerators, with S = a(xi): f(x - (a(x)/S) xi) = sum_r (-a(x)/S)**r T_r,
    by Horner in -a(x) over S**K for the last Taylor index K.
    """
    n, a = f.n, form.covector._num
    s = sum(map(operator.mul, a, xi._num))
    if s == 0:
        raise ValueError("form vanishes on xi; projection undefined")
    if s < 0:
        s, a = -s, [-ai for ai in a]
    minus_a = {_unit(n, i): -ai for i, ai in enumerate(a) if ai}
    acc, lift = taylor[-1], 1
    for part in reversed(taylor[:-1]):
        acc = _mul_terms(acc, minus_a)
        lift *= s
        _add_into(acc, part, lift)
    return Polynomial._raw(n, acc, f._den * lift)


def project_covector(beta: Covector, form: LinearForm, xi: Vector) -> Covector:
    """beta - (beta(xi)/form(xi)) * form, the projected form beta# along the form.

    On numerators b of beta, a of the form and u of xi, with s = a.u and
    t = b.u, it is (s*b - t*a) over den(beta) * s.  Requires form(xi) != 0
    and one dimension for all three.
    """
    if beta.n != xi.n or form.n != xi.n:
        raise InputError("dimension mismatch")
    a, b, u = form.covector._num, beta._num, xi._num
    s, t = sum(map(operator.mul, a, u)), sum(map(operator.mul, b, u))
    if s == 0:
        raise ValueError("form vanishes on xi; projection undefined")
    return Covector._raw(tuple(bi * s - t * ai for ai, bi in zip(a, b)), beta._den * s)


@dataclass(frozen=True)
class LocalizedTerm:
    """numerator / product(denominators), denominators nonzero linear forms."""

    numerator: Polynomial
    denominators: tuple[LinearForm, ...]

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        val = self.numerator.evaluate(point)
        for form in self.denominators:
            d = form.polynomial().evaluate(point)
            if d == 0:
                raise ZeroDivisionError("denominator vanishes at the point")
            val /= d
        return val


@dataclass(frozen=True)
class LocalizedSum:
    """Finite sum of localized terms in a fixed polynomial ring."""

    n: int
    terms: tuple[LocalizedTerm, ...]

    def __post_init__(self):
        for t in self.terms:
            if t.numerator.n != self.n or any(d.n != self.n for d in t.denominators):
                raise ValueError("localized term in the wrong ring")

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        return sum((t.evaluate(point) for t in self.terms), Fraction(0))


def simplify(lsum: LocalizedSum) -> tuple[Polynomial, tuple[LinearForm, ...]]:
    """Collapse a localized sum to one fraction in lowest terms, on numerator maps.

    Each nonzero term's map is multiplied by the canonical lines its
    denominators lack from the least common one (``_mul_terms``) and added
    at the integer factor that puts its scale den * prod(form.scale), kept
    as an integer numerator and denominator, over one common denominator.
    The lines are then divided out in sorted order (``_divide_by_line`` by
    an input form on the line) while the remainder is empty, each lift
    joining the denominator.  The returned denominators are sorted
    canonical forms.
    """
    n = lsum.n
    prepared = []
    lcd: Counter[Monomial] = Counter()
    carriers: dict[Monomial, LinearForm] = {}
    for term in lsum.terms:
        num, dens = term.numerator, term.denominators
        if num._terms:
            mult: Counter[Monomial] = Counter()
            up, down = num._den, 1
            for form in dens:
                mult[form.canonical] += 1
                carriers[form.canonical] = form
                up *= form._g
                down *= form.covector._den
            lcd |= mult
            prepared.append((num._terms, up, down, mult))
    if not prepared:
        return Polynomial.zero(n), ()
    # the lines go in one at a time, so the first product past the limit has degree MAX_DEGREE + 1
    width, size = _BITS * n, sum(lcd.values())
    top = max((max(terms) >> width) + size - mult.total() for terms, _, _, mult in prepared)
    _check_degree(min(top, MAX_DEGREE + 1))
    lines = {key: {_unit(n, i): c for i, c in enumerate(key) if c} for key in lcd}
    den = math.lcm(*(up for _, up, _, _ in prepared))
    numerator: dict[int, int] = {}
    for terms, up, down, mult in prepared:
        for key, m in lcd.items():
            for _ in range(m - mult[key]):
                terms = _mul_terms(terms, lines[key])
        _add_into(numerator, terms, den // up * down)
    for key in sorted(lcd):
        while lcd[key] and numerator:
            quotient, remainder, lift = _divide_by_line(numerator, n, carriers[key])
            if remainder:
                break
            numerator, den = quotient, den * lift
            lcd[key] -= 1
    if not numerator:
        return Polynomial.zero(n), ()
    canon = {key: LinearForm(Covector._raw(key)) for key, m in lcd.items() if m}
    return Polynomial._raw(n, numerator, den), tuple(canon[key] for key in sorted(lcd.elements()))


def polynomial_sum(lsum: LocalizedSum, what: str) -> Polynomial:
    """``simplify`` of a sum that must be a polynomial.

    A leftover denominator raises ``NonPolynomialResultError`` with the
    message ``what``, the numerator and the denominators.
    """
    numerator, denominators = simplify(lsum)
    if denominators:
        raise NonPolynomialResultError(what, numerator, denominators)
    return numerator


# --- residues ----------------------------------------------------------


def _residue_series(f: Polynomial, forms: Sequence[LinearForm], xi: Vector) -> Polynomial:
    """Coefficient of 1/x in the geometric-series expansion of f / prod(alpha).

    With j the first nonzero index of xi, write a point as x*xi + y with
    y_j = 0.  Then f = sum_r x**r G_r(y), G_r the Taylor term T_r at x_j = 0,
    and alpha_i = m_i x + alpha_i(y) with m_i = alpha_i(xi), so the residue
    is R = sum_r G_r h_{r-d+1}(beta) / prod m_i for beta_i = -alpha_i(y)/m_i,
    h_m the complete homogeneous symmetric polynomials.  Back in ambient
    coordinates, y = x - (x_j/xi_j) xi gives sum_r (-x_j/xi_j)**r T_r(R),
    and R has no x_j, so that is key shifts.  On integer numerators u of
    xi, with M_i = alpha_i(u) and L = lcm(M_i), the betas are c_i / L for
    c_i = -(L/M_i) alpha_i(y); every scalar waits for one division at the end.
    """
    return _series(f, _expansion(f, xi), forms, xi)


def _series(
    f: Polynomial, taylor: list[dict[int, int]], forms: Sequence[LinearForm], xi: Vector
) -> Polynomial:
    """``_residue_series`` from f's expansion along xi."""
    n, d, u = f.n, len(forms), xi._num
    j = next((i for i, c in enumerate(u) if c), None)
    if j is None:
        raise ValueError("xi must be nonzero")
    mmax = f.total_degree() - d + 1
    if mmax < 0:
        return Polynomial.zero(n)
    ms = [sum(map(operator.mul, form.covector._num, u)) for form in forms]
    lcm = math.lcm(*ms)
    # series[a] = L**a h_a(beta) = h_a(c_1 .. c_i) after form i, by h_a += c_i h_{a-1} upwards
    series = [{0: 1}] + [{} for _ in range(mmax)]
    for form, m in zip(forms, ms):
        c = {_unit(n, i): -(lcm // m) * ai for i, ai in enumerate(form.covector._num)
             if ai and i != j}
        if c:
            for a in range(1, mmax + 1):
                _add_into(series[a], _mul_terms(series[a - 1], c))
    shift = _BITS * (n - 1 - j)
    q: dict[int, int] = {}  # R * den(f) * prod M_i * L**mmax / (den(xi) * prod den(alpha_i))
    for r in range(max(d - 1, 0), min(len(taylor), mmax + d)):
        g = {k: c for k, c in taylor[r].items() if not k >> shift & _MASK}
        _add_into(q, _mul_terms(g, series[r - d + 1]), lcm ** (mmax + d - 1 - r))
    back, w = _taylor(q, n, u), -u[j]
    top = len(back) - 1
    scale = xi._den * math.prod(form.covector._den for form in forms)
    den = f._den * math.prod(ms) * lcm**mmax * w**top
    out, uj = {}, _unit(n, j)
    for r, t in enumerate(back):
        factor = scale * w ** (top - r)
        out.update({k + r * uj: c * factor for k, c in t.items()})
    return Polynomial._raw(n, out, den)


def _residue_formula(
    f: Polynomial, forms: Sequence[LinearForm], xi: Vector
) -> Polynomial:
    """Partial-fraction route: sum over i of K_i(f) / (m_i prod alpha#_{j,i}).

    Requires the forms to be pairwise linearly independent, which makes all
    the projected denominators alpha#_{j,i} nonzero.
    """
    n = f.n
    if parallel_pairs(forms):
        raise InputError("formula method needs pairwise independent forms")
    taylor = _expansion(f, xi)
    terms = []
    for i, fi in enumerate(forms):
        ki = _project(f, taylor, fi, xi)
        dens = [LinearForm(project_covector(fj.covector, fi, xi))
                for j, fj in enumerate(forms) if j != i]
        terms.append(LocalizedTerm(ki.scaled(1 / fi.evaluate(xi)), tuple(dens)))
    return polynomial_sum(
        LocalizedSum(n, tuple(terms)), "residue formula did not collapse to a polynomial"
    )


def _residue_forms(
    f: Polynomial, alphas: Sequence[LinearForm | Covector | Iterable], xi: Vector
) -> list[LinearForm]:
    """The alphas as forms, once f, xi and every form share a ring and no form vanishes on xi."""
    forms = [LinearForm(a) for a in alphas]
    if f.n != xi.n or any(form.n != xi.n for form in forms):
        raise InputError("dimension mismatch")
    for idx, form in enumerate(forms):
        if not sum(map(operator.mul, form.covector._num, xi._num)):
            raise ValueError(f"denominator {idx} vanishes on xi")
    return forms


def residue(
    f: Polynomial,
    alphas: Sequence[LinearForm | Covector | Iterable],
    xi: Vector | Sequence,
    method: str = "series",
) -> Polynomial:
    """Residue of f / prod(alpha_i) along xi, as an ambient polynomial.

    The result lies in the subring of polynomials in covectors annihilating
    xi; it does not depend on a choice of complement to xi.  Every alpha_i
    must be nonzero on xi, which may be given as a plain sequence.
    """
    xi = Vector(xi)
    forms = _residue_forms(f, alphas, xi)
    if method == "series":
        return _residue_series(f, forms, xi)
    if method == "formula":
        return _residue_formula(f, forms, xi)
    raise ValueError(f"unknown residue method {method!r}")


def residue_partial_fractions(
    f_coeffs: Sequence[Polynomial | int | str | Fraction],
    zs: Sequence[Polynomial | int | str | Fraction],
) -> Polynomial | Fraction:
    """Residue of f(x) / prod(x - z_i) via evaluation at the z's.

    ``f_coeffs`` lists the coefficients of f by ascending power of x; the
    z's must be pairwise distinct ring elements whose pairwise differences
    are either all constants or all homogeneous linear forms.  Plain
    rationals are lifted into the ring of the first polynomial argument, or
    into the ring in no variables when there is none, and then the answer
    comes back as a ``Fraction``.
    """
    polys = [c for c in (*f_coeffs, *zs) if isinstance(c, Polynomial)]
    n = polys[0].n if polys else 0
    lift = lambda v: v if isinstance(v, Polynomial) else Polynomial.constant(n, v)
    coeffs, zvals = [lift(c) for c in f_coeffs], [lift(z) for z in zs]
    diffs = {}
    for i, j in itertools.combinations(range(len(zvals)), 2):
        d = diffs[i, j] = zvals[i] - zvals[j]
        if d.is_zero():
            raise ValueError(f"z values {i} and {j} coincide")
    degrees = {d.total_degree() if d.is_homogeneous() else -1 for d in diffs.values()}
    linear = degrees == {1}
    if not (linear or degrees <= {0}):
        raise ValueError("z differences must be constant or homogeneous linear")
    terms = []
    for i, z in enumerate(zvals):
        value = Polynomial.zero(n)
        for c in reversed(coeffs):
            value = value * z + c
        scale, dens = Fraction(1), []
        for j in range(len(zvals)):
            if j == i:
                continue
            d = diffs[i, j] if i < j else -diffs[j, i]
            if linear:
                num = tuple(d._terms.get(_unit(n, b), 0) for b in range(n))
                dens.append(LinearForm(Covector._raw(num, d._den)))
            else:
                scale *= Fraction(d._terms[0], d._den)
        terms.append(LocalizedTerm(value.scaled(1 / scale), tuple(dens)))
    numerator = polynomial_sum(
        LocalizedSum(n, tuple(terms)), "partial-fraction residue was not polynomial"
    )
    return numerator if polys else numerator.coefficient(())


def is_polynomial_via_residues(
    lsum: LocalizedSum, xi: Vector, theta: Covector, max_power: int
) -> bool:
    """Polynomiality test: all residues of theta^k * sum vanish, k <= max_power.

    Requires theta(xi) = 1, theta not parallel to any denominator factor, and
    max_power at least the number of distinct denominator parallel classes
    (the Vandermonde bound that makes the test conclusive).
    """
    if pair(theta, xi) != 1:
        raise ValueError("theta must satisfy theta(xi) = 1")
    classes = {form.canonical for term in lsum.terms for form in term.denominators}
    theta_form = LinearForm(theta)
    if theta_form.canonical in classes:
        raise ValueError("theta must not be parallel to a denominator factor")
    if max_power < len(classes):
        raise ValueError(
            f"max_power {max_power} below the number of denominator classes {len(classes)}"
        )
    theta_poly = Polynomial.from_covector(theta)
    power = Polynomial.constant(lsum.n, 1)
    for k in range(max_power + 1):
        if k:
            power = power * theta_poly
        total = Polynomial.zero(lsum.n)
        for term in lsum.terms:
            total = total + residue(term.numerator * power, term.denominators, xi)
        if not total.is_zero():
            return False
    return True
