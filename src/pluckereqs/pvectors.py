"""p-vectors as coefficient maps, wedge construction and simplicity tests.

A p-vector is stored as a sparse map from size-p multi-indices to scalars.
Three scalar fields are supported: exact rationals ("Q", the default,
``fractions.Fraction``), exact Gaussian rationals ("Q_i",
:class:`GaussianRational`) and binary floats ("f64").  Exact fields compare
to zero exactly; the float field uses a relative tolerance: an equation
counts as violated when ``|value| > tol * max_term`` where ``max_term`` is
the largest term magnitude met while evaluating it.  The default ``tol`` is
1e-9.  For coefficients carrying relative noise of size eps, a tolerance of
``32 * eps`` is enough to keep a simple vector violation-free: the relative
form absorbs the quadratic scale of the equations, a T-term equation can
drift by at most ``2*T*eps`` relative to its largest term (T <= 10 here),
and the measured factor at the reference test point is 8.

Decomposability is decided in the standard affine chart of the Plucker
embedding (Griffiths & Harris, *Principles of Algebraic Geometry*, ch. 1
section 5), with no equation system: the coefficients one index away from
a pivot coefficient give p vectors, and ``h`` is simple exactly when their
wedge is a multiple of ``h``.  Both systems cut out the same set, so the
verdict does not depend on the system chosen.  The exact fields need no
division.  For f64, ``tol`` bounds the deviation of that wedge from
``h / lam_max``, where ``lam_max`` is the largest coefficient and the
pivot; :func:`residual` keeps the per-equation relative bound above.

One loop, ``_violations``, evaluates terms.  It reads rows ``(label,
terms)`` and a coefficient map keyed the way the terms are:
:func:`residual` and :func:`evaluate` pass equations on multi-index keys,
and ``check`` passes the raw rows of ``equations._raw_rows`` on bitmask
keys, so it builds no equation.  The exact fields are evaluated on plain
integers: the coefficients are multiplied by the lcm of their
denominators, and a Q_i row is summed as two integers, its real and
imaginary parts.  A violation becomes a ``Fraction`` or
:class:`GaussianRational` only when it is reported.

The identities evaluated here relate basis coefficients only; no inner
product on the underlying space is involved, so no orthonormality
assumption enters the code.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import namedtuple
from collections.abc import Iterable, Iterator, Mapping, Sequence
from fractions import Fraction
from itertools import combinations
from math import frexp, isfinite, lcm, ldexp, prod

from . import _EXPORTS
from .documents import JsonText, json_int, read_document
from .equations import EquationSystem, Label, QuadraticEquation, check_width
from .multiindex import GrassmannParams, MultiIndex, _Record

FIELDS = ("Q", "Q_i", "f64")

__all__ = _EXPORTS["pvectors"]


class GaussianRational(_Record):
    """Exact complex scalar ``re + im*i`` with rational parts, equal to an equal int or Fraction."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=Fraction(0)) -> None:
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    @staticmethod
    def _coerce(value) -> "GaussianRational | None":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(Fraction(value))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        norm = other.norm_sq()
        if not norm:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __eq__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is None else self._values == other._values

    def __hash__(self) -> int:
        return hash(self.re if not self.im else self._values)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def norm_sq(self) -> Fraction:
        """Exact squared modulus ``re**2 + im**2``, built as one reduced fraction."""
        a, b = self.re.numerator, self.re.denominator
        c, d = self.im.numerator, self.im.denominator
        return Fraction(a * a * d * d + c * c * b * b, b * b * d * d)


class _GaussInt:
    """Exact Gaussian integer ``re + im*i``, the cleared form of a Q_i scalar.

    Only the ring operations the wedge and the chart test need are defined;
    integer operands are the real products of the wedge.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: int, im: int) -> None:
        self.re = re
        self.im = im

    def __add__(self, other: "_GaussInt") -> "_GaussInt":
        return _GaussInt(self.re + other.re, self.im + other.im)

    def __neg__(self) -> "_GaussInt":
        return _GaussInt(-self.re, -self.im)

    def __mul__(self, other: "_GaussInt | int") -> "_GaussInt":
        if isinstance(other, int):
            return _GaussInt(self.re * other, self.im * other)
        return _GaussInt(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    def __eq__(self, other) -> bool:
        return isinstance(other, _GaussInt) and self.re == other.re and self.im == other.im


Scalar = Fraction | GaussianRational | float


class PVector(_Record):
    """Sparse coefficients of a p-vector, ``{multi-index: Scalar}``; absent ones are zero."""

    __slots__ = ("params", "coeffs", "field")
    _defaults = {"field": "Q"}

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, idx: Iterable[int]) -> Scalar:
        return self.coeffs.get(tuple(idx), _zero(self.field))


def _zero(field: str) -> Scalar:
    if field == "Q":
        return Fraction(0)
    if field == "Q_i":
        return GaussianRational(Fraction(0))
    return 0.0


def _coerce_scalar(value, field: str) -> Scalar:
    if field == "Q":
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        raise ValueError(f"field Q needs int/Fraction coefficients, got {type(value).__name__}")
    if field == "Q_i":
        coerced = GaussianRational._coerce(value)
        if coerced is None:
            raise ValueError(f"field Q_i cannot hold {type(value).__name__}")
        return coerced
    value = float(value)
    if not isfinite(value):
        raise ValueError(f"field f64 needs finite coefficients, got {value}")
    return value


def pvector(params: GrassmannParams, coeffs: Mapping, field: str = "Q") -> PVector:
    """Validated constructor: checks key shapes, prunes stored zeros.

    Each key becomes the process's one tuple for its multi-index, the tuple
    that generated equations hold too.
    """
    if field not in FIELDS:
        raise ValueError(f"field must be one of {FIELDS}, got {field!r}")
    cleaned: dict[MultiIndex, Scalar] = {}
    for raw_idx, value in coeffs.items():
        idx = params.multiindex(raw_idx, params.p)
        scalar = _coerce_scalar(value, field)
        if scalar:
            cleaned[idx] = scalar
    return PVector(params, cleaned, field)


def scaled(h: PVector, factor) -> PVector:
    """The p-vector ``factor * h`` in the same field."""
    factor = _coerce_scalar(factor, h.field)
    if not factor:
        return PVector(h.params, {}, h.field)
    return PVector(h.params, {idx: factor * v for idx, v in h.coeffs.items()}, h.field)


def _cleared(values: Mapping, field: str) -> tuple[dict, int]:
    """Exact ``values`` times the lcm of their denominators, and that lcm.

    Q scalars become ``int`` and Q_i scalars :class:`_GaussInt`.  Scaling
    keeps the zero set of every homogeneous identity intact and lets the hot
    loops run on machine integers without division.
    """
    if field == "Q":
        denominator = lcm(*(v.denominator for v in values.values()))
        return {
            key: v.numerator * (denominator // v.denominator) for key, v in values.items()
        }, denominator
    denominator = lcm(*(part.denominator for v in values.values() for part in (v.re, v.im)))
    return {
        key: _GaussInt(
            v.re.numerator * (denominator // v.re.denominator),
            v.im.numerator * (denominator // v.im.denominator),
        )
        for key, v in values.items()
    }, denominator


def _uncleared(value: int | _GaussInt, denominator: int) -> Fraction | GaussianRational:
    """The exact scalar ``value / denominator`` in the field ``value`` was cleared from."""
    if isinstance(value, _GaussInt):
        return GaussianRational(Fraction(value.re, denominator), Fraction(value.im, denominator))
    return Fraction(value, denominator)


def _wedge_coeffs(rows: Sequence[Mapping[int, Scalar]]) -> dict[MultiIndex, Scalar]:
    """Non-zero coefficients of the wedge of sparse rows ``{column: value}``.

    Built as ``((r1 ^ r2) ^ r3) ^ ...``: appending ``e_j`` to a sorted
    blade ``e_K`` passes every entry of ``K`` above ``j``, so each product
    carries the sign ``(-1) ** #{k in K : k > j}``.  Only ring operations
    are used, so the result is exact for integer and Gaussian-integer rows.
    """
    blades: dict[MultiIndex, Scalar] = {(): 1}
    for row in rows:
        grown: dict[MultiIndex, Scalar] = {}
        for key, weight in blades.items():
            for j, value in row.items():
                pos = bisect_left(key, j)
                if pos < len(key) and key[pos] == j:
                    continue
                product = weight * value
                if (len(key) - pos) % 2:
                    product = -product
                target = key[:pos] + (j,) + key[pos:]
                grown[target] = grown[target] + product if target in grown else product
        blades = {key: value for key, value in grown.items() if value}
    return blades


def wedge(vectors: Sequence[Sequence]) -> PVector:
    """Wedge together ``p`` coordinate vectors of one length ``n``.

    The coefficient at multi-index ``i`` is the p x p minor of the stacked
    vectors selecting columns ``i``; the result is simple by construction.
    The scalar field is inferred from the entries (float wins over Gaussian
    rational wins over rational).
    """
    rows = [list(v) for v in vectors]
    if not rows:
        raise ValueError("wedge needs at least one vector")
    n = len(rows[0])
    if any(len(r) != n for r in rows):
        raise ValueError(f"all vectors must have length {n}")
    p = len(rows)
    params = GrassmannParams(n, p)
    entries = [v for r in rows for v in r]
    if any(isinstance(v, float) for v in entries):
        field = "f64"
    elif any(isinstance(v, GaussianRational) for v in entries):
        field = "Q_i"
    else:
        field = "Q"
    sparse = []
    for row in rows:
        coerced = (_coerce_scalar(v, field) for v in row)
        sparse.append({col: v for col, v in enumerate(coerced, start=1) if v})
    if field == "f64":
        return PVector(params, _wedge_coeffs(sparse), field)
    # The wedge is multilinear, so it is taken on cleared rows and the
    # product of the row denominators is divided out once at the end.
    cleared = [_cleared(row, field) for row in sparse]
    denominator = prod(row_denominator for _, row_denominator in cleared)
    blades = _wedge_coeffs([row for row, _ in cleared])
    return PVector(params, {idx: _uncleared(v, denominator) for idx, v in blades.items()}, field)


def _term_values(terms: Iterable[tuple[int, object, object]], coeffs: Mapping) -> list:
    """The non-zero products ``coefficient * lam_left * lam_right`` of one row's terms.

    :func:`_violations` runs it on scaled floats and on cleared Q integers;
    a cleared Q_i row is summed there as two integers.
    """
    return [
        coefficient * a * b
        for coefficient, left, right in terms
        if (a := coeffs.get(left)) and (b := coeffs.get(right))
    ]


def evaluate(eq: QuadraticEquation, h: PVector) -> Scalar:
    """Exact (or float) value of one equation at ``h``."""
    if eq.params != h.params:
        raise ValueError(f"equation is for {eq.params}, p-vector for {h.params}")
    # With tolerance 0 every non-zero value is reported.  Only the
    # coefficients the equation reads are cleared or scaled; on f64, h's
    # largest magnitude goes in under a key no term reads, so the sum runs
    # over the residual's power of two and no product overflows.
    coeffs = {key: h.coeffs[key] for _, left, right in eq.terms for key in (left, right) if key in h.coeffs}
    if h.field == "f64" and h.coeffs:
        coeffs[None] = max(map(abs, h.coeffs.values()))
    violated = _violations([(eq.label, eq.terms)], coeffs, h.field, 0.0)
    return next((value for _, value in violated), _zero(h.field))


Residual = namedtuple("Residual", ("max_violation", "violations"))
Residual.__doc__ = """Largest violation magnitude plus every violated label with its value.

The magnitude is ``abs(value)`` for rational and float fields and the exact
squared modulus for Gaussian rationals.
"""


def checked_tolerance(tolerance: float | None) -> float:
    """The float-mode relative tolerance: ``tolerance``, or 1e-9 when it is None.

    It must be a finite number >= 0 whatever the field, so a NaN or an
    infinity cannot pass every equation and a negative value cannot fail
    every one.
    """
    if tolerance is None:
        return 1e-9
    tol = float(tolerance)
    if not (isfinite(tol) and tol >= 0):
        raise ValueError(f"tolerance must be a finite number >= 0, got {tolerance!r}")
    return tol


def _violations(
    rows: Iterable[tuple[Label, Iterable[tuple[int, object, object]]]],
    coeffs: Mapping,
    field: str,
    tol: float,
) -> Iterator[tuple[Label, Scalar]]:
    """Each row ``(label, terms)`` that ``coeffs`` violates, with its value, as it is read.

    A term is ``(coefficient, left, right)``; ``coeffs`` holds the field
    scalars of a p-vector keyed the way the terms are: by multi-index for
    an equation's terms, by mask (``equations._by_mask``) for the raw rows
    of ``equations._raw_rows``.  This is the package's one loop that
    evaluates terms.

    Exact fields run on the cleared coefficients: a Q row is one integer
    sum, a Q_i row two (its real and imaginary parts), and a non-zero value
    becomes one field scalar.  The float field applies the relative
    tolerance ``tol``, which the caller has checked.
    """
    if field == "f64":
        # coeffs / scale, a power of two near the largest coefficient: exact,
        # and no product overflows or underflows.
        scale = ldexp(1.0, frexp(max(map(abs, coeffs.values()), default=1.0))[1] - 1)
        scaled_coeffs = {key: value / scale for key, value in coeffs.items()}
        for label, terms in rows:
            values = _term_values(terms, scaled_coeffs)
            value = 0.0
            for term_value in values:  # left to right, as the tolerance bound assumes
                value += term_value
            if abs(value) > tol * max(map(abs, values), default=0.0):
                yield label, value * scale * scale  # inf or 0.0 outside float range
        return
    cleared, denominator = _cleared(coeffs, field)
    square = denominator * denominator
    if field == "Q":
        for label, terms in rows:
            if value := sum(_term_values(terms, cleared)):
                yield label, Fraction(value, square)
        return
    for label, terms in rows:
        re = im = 0
        for c, left, right in terms:
            if (a := cleared.get(left)) is not None and (b := cleared.get(right)) is not None:
                re += c * (a.re * b.re - a.im * b.im)
                im += c * (a.re * b.im + a.im * b.re)
        if re or im:
            yield label, GaussianRational(Fraction(re, square), Fraction(im, square))


def residual(system: EquationSystem, h: PVector, tolerance: float | None = None) -> Residual:
    """Evaluate every equation of ``system`` at ``h`` and report violations.

    Exact fields report every label with a non-zero value; the float field
    reports values exceeding the relative tolerance (default 1e-9), which
    must be a finite number >= 0 in every field.
    """
    if system.params != h.params:
        raise ValueError(f"system is for {system.params}, p-vector for {h.params}")
    tol = checked_tolerance(tolerance)
    rows = ((eq.label, eq.terms) for eq in system.equations)
    violations = list(_violations(rows, h.coeffs, h.field, tol))
    size = GaussianRational.norm_sq if h.field == "Q_i" else abs
    zero = 0.0 if h.field == "f64" else Fraction(0)
    return Residual(max((size(value) for _, value in violations), default=zero), violations)


def _chart_is_simple(coeffs: Mapping[MultiIndex, object], p: int, tol: float | None = None) -> bool:
    """Decomposability of the non-zero coefficients ``coeffs`` in one affine chart.

    Let ``I = (i_1 < ... < i_p)`` be the pivot key and ``c = coeffs[I]``.
    Row ``a`` holds ``c`` at ``i_a``, zero at the rest of ``I``, and at each
    ``j`` outside ``I`` the coefficient of ``I`` with ``i_a`` replaced by
    ``j``, negated when an odd number of entries of ``I`` lie strictly
    between ``i_a`` and ``j``.  The rows span the point's subspace read in
    the affine chart ``lam_I != 0``, so ``h`` is simple exactly when their
    wedge equals ``c**(p-1) * h``.

    Exact (cleared) coefficients pivot on the smallest key.  Floats (``tol``
    given) pivot on the largest magnitude, ties going to the smallest key,
    and are divided by it, so ``c`` is 1; each wedge coefficient must then
    lie within ``tol`` of the matching coefficient of ``h / c``.
    """
    if tol is None:
        pivot_idx = min(coeffs)
    else:
        pivot_idx = min(coeffs, key=lambda key: (-abs(coeffs[key]), key))
        largest = coeffs[pivot_idx]
        coeffs = {key: value / largest for key, value in coeffs.items()}
    pivot = coeffs[pivot_idx]
    rows = [{i: pivot} for i in pivot_idx]
    for key, value in coeffs.items():
        moved = [pos for pos, j in enumerate(key) if j not in pivot_idx]
        if len(moved) != 1:
            continue
        below = moved[0]  # entries of I other than i_a that lie below j
        a = next(pos for pos, i in enumerate(pivot_idx) if i not in key)
        rows[a][key[below]] = -value if (below - a) % 2 else value
    blades = _wedge_coeffs(rows)
    if tol is not None:
        return all(
            abs(blades.get(key, 0.0) - coeffs.get(key, 0.0)) <= tol
            for key in blades.keys() | coeffs.keys()
        )
    scale = 1
    for _ in range(p - 1):
        scale = scale * pivot
    return len(blades) == len(coeffs) and all(
        blades.get(key) == scale * value for key, value in coeffs.items()
    )


def _normalize_choice(system_choice: str) -> str:
    choice = system_choice.replace("-", "_").lower()
    if choice not in ("plucker", "plucker_like"):
        raise ValueError(f"system choice must be 'plucker' or 'plucker_like', got {system_choice!r}")
    return choice


def is_simple(h: PVector, system_choice: str = "plucker", tolerance: float | None = None) -> bool:
    """Decide decomposability of ``h`` under the chosen equation system.

    Every field is decided by the affine-chart test of :func:`_chart_is_simple`,
    with no equation system built; both systems cut out the Grassmannian, so
    the verdict is the one the equations would give.  For f64, ``tolerance``
    (default 1e-9) bounds the deviation of the chart wedge from
    ``h / lam_max``; :func:`residual` keeps the per-equation relative bound.
    The zero vector is reported simple by convention.

    ``"plucker"`` needs ``1 <= min(p, n-p)``.  ``"plucker_like"`` does not
    check width 2: at p = 1 or n - p = 1 every vector is simple, so the
    answer there is True (``check --m 2`` prints ``simple`` and exits 0),
    although no two-index system exists there (``generate --m 2`` exits 2).
    """
    choice = _normalize_choice(system_choice)
    tol = checked_tolerance(tolerance)
    if choice == "plucker":
        check_width(h.params, 1)
    if h.is_zero:
        return True
    if h.field == "f64":
        return _chart_is_simple(h.coeffs, h.params.p, tol)
    return _chart_is_simple(_cleared(h.coeffs, h.field)[0], h.params.p)


def random_pvector(params: GrassmannParams, seed: int) -> PVector:
    """Independent small rational coefficients per multi-index; seeded."""
    from random import Random  # here and in random_simple only: ``check FILE`` never loads it
    rng = Random(seed)
    coeffs: dict[MultiIndex, Scalar] = {}
    for idx in combinations(params.indices, params.p):
        value = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if value:
            coeffs[idx] = value
    return PVector(params, coeffs, "Q")


def random_simple(params: GrassmannParams, seed: int) -> PVector:
    """Wedge of p random vectors with small rational entries; seeded."""
    from random import Random
    rng = Random(seed)
    vectors = [
        [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(params.n)]
        for _ in range(params.p)
    ]
    return wedge(vectors)


# An optional sign, digits, then at most one of "/digits" or ".digits".  An
# exponent is refused: Fraction expands it exactly, so "1e10000000" alone
# would take seconds to parse.
_EXACT_TEXT = re.compile(r"[+-]?[0-9]+(?:/[0-9]+|\.[0-9]+)?")


def _fraction_from_text(text) -> Fraction:
    if not isinstance(text, str) or not _EXACT_TEXT.fullmatch(text):
        raise ValueError(
            f"exact coefficients must be strings 'a', 'a/b' or 'a.b', got {text!r}"
        )
    return Fraction(text)


def pvector_to_dict(h: PVector) -> dict:
    entries = []
    for idx in sorted(h.coeffs):
        value = h.coeffs[idx]
        entry: dict = {"idx": list(idx)}
        if h.field == "Q":
            entry["re"] = str(value)
        elif h.field == "Q_i":
            entry["re"] = str(value.re)
            if value.im:
                entry["im"] = str(value.im)
        else:
            entry["re"] = float(value)
        entries.append(entry)
    return {"n": h.params.n, "p": h.params.p, "field": h.field, "coeffs": entries}


def _entry_from_dict(entry: dict, field: str) -> tuple[MultiIndex, Scalar]:
    idx = tuple(entry["idx"])
    if "im" in entry and field != "Q_i":
        raise ValueError(f'"im" is allowed only in Q_i coefficients, got field {field!r}')
    if field == "Q":
        return idx, _fraction_from_text(entry["re"])
    if field == "Q_i":
        return idx, GaussianRational(
            _fraction_from_text(entry["re"]),
            _fraction_from_text(entry["im"]) if "im" in entry else Fraction(0),
        )
    value = entry["re"]
    # Not in _coerce_scalar: library callers may pass any real number type.
    if type(value) not in (int, float):
        raise ValueError(f"f64 coefficients must be JSON numbers, got {value!r}")
    return idx, _coerce_scalar(value, field)


def _pvector_from_document(data: dict) -> PVector:
    params = GrassmannParams(json_int(data["n"], "n"), json_int(data["p"], "p"))
    field = data["field"]
    if field not in FIELDS:
        raise ValueError(f"field must be one of {FIELDS}, got {field!r}")
    coeffs: dict[MultiIndex, Scalar] = {}
    for entry in data["coeffs"]:
        idx, value = _entry_from_dict(entry, field)
        if idx in coeffs:
            raise ValueError(f"duplicate coefficient index {idx}")
        coeffs[idx] = value
    return pvector(params, coeffs, field)


def pvector_from_dict(data: dict) -> PVector:
    """Parse the p-vector JSON document; every malformed input raises ``ValueError``."""
    return read_document(_pvector_from_document, data, "p-vector")


def pvector_to_json(h: PVector) -> str:
    import json

    return json.dumps(pvector_to_dict(h), indent=2) + "\n"


def _pvector_from_text(text: JsonText) -> PVector:
    """Read a p-vector document; no key may repeat at the top level or in a coefficient.

    The top-level object and each object entry of a ``"coeffs"`` array are
    read member by member.  A document that is not an object, and an entry
    that is not an object, are decoded whole and refused by
    :func:`_pvector_from_document`.
    """
    if text.peek() != "{":
        data = text.decode()
    else:
        data = {}
        for key in text.members():
            if key == "coeffs" and text.peek() == "[":
                data[key] = [_entry_from_text(text) for _ in text.elements("]")]
            else:
                data[key] = text.decode()
    text.end()
    return _pvector_from_document(data)


def _entry_from_text(text: JsonText):
    """One ``"coeffs"`` entry: an object read member by member, any other value whole."""
    if text.peek() != "{":
        return text.decode()
    return {key: text.decode() for key in text.members()}


def pvector_from_json(text: str) -> PVector:
    return read_document(_pvector_from_text, JsonText(text), "p-vector")
