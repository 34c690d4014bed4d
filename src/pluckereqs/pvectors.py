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

Decomposability in the exact fields is decided in the standard affine chart
of the Plucker embedding (Griffiths & Harris, *Principles of Algebraic
Geometry*, ch. 1 section 5): the smallest non-zero coefficient names a
chart, the coefficients one index away from it give p vectors, and ``h`` is
simple exactly when their wedge is a multiple of ``h``.  This needs no
equation system, and over cleared integers (Q) or Gaussian integers (Q_i)
it needs no division.  Both equation systems cut out the same set, so the
verdict does not depend on the system chosen.  The float field keeps the
equation path, because its verdict is defined by the per-equation relative
tolerance above; it builds the system on every call and caches nothing.

The identities evaluated here relate basis coefficients only; no inner
product on the underlying space is involved, so no orthonormality
assumption enters the code.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import isfinite, lcm, prod
from typing import Iterable, Mapping, NamedTuple, Sequence, Union

from .equations import EquationSystem, Label, QuadraticEquation, QuadTerm, gen_generalized
from .multiindex import GrassmannParams, MultiIndex, as_multiindex

FIELDS = ("Q", "Q_i", "f64")

__all__ = [
    "FIELDS",
    "GaussianRational",
    "PVector",
    "Residual",
    "pvector",
    "scaled",
    "wedge",
    "evaluate",
    "residual",
    "is_simple",
    "random_pvector",
    "random_simple",
    "pvector_to_dict",
    "pvector_from_dict",
    "pvector_to_json",
    "pvector_from_json",
]


@dataclass(frozen=True)
class GaussianRational:
    """Exact complex scalar ``re + im*i`` with rational parts."""

    re: Fraction
    im: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "re", Fraction(self.re))
        object.__setattr__(self, "im", Fraction(self.im))

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

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def norm_sq(self) -> Fraction:
        """Exact squared modulus ``re**2 + im**2``."""
        return self.re * self.re + self.im * self.im


class _GaussInt:
    """Exact Gaussian integer ``re + im*i``, the cleared form of a Q_i scalar.

    Only the ring operations the term kernel and the wedge need are defined;
    integer operands are the real term coefficients.
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


Scalar = Union[Fraction, GaussianRational, float]


@dataclass(frozen=True, eq=True)
class PVector:
    """Sparse coefficients of a p-vector; absent multi-indices are zero."""

    params: GrassmannParams
    coeffs: Mapping[MultiIndex, Scalar]
    field: str = "Q"

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
    """Validated constructor: checks key shapes, prunes stored zeros."""
    if field not in FIELDS:
        raise ValueError(f"field must be one of {FIELDS}, got {field!r}")
    cleaned: dict[MultiIndex, Scalar] = {}
    for raw_idx, value in coeffs.items():
        idx = as_multiindex(raw_idx)
        if len(idx) != params.p:
            raise ValueError(f"coefficient index {idx} must have {params.p} entries")
        if idx and idx[-1] > params.n:
            raise ValueError(f"coefficient index {idx} exceeds n={params.n}")
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


def wedge(vectors: Sequence[Sequence], n: int | None = None) -> PVector:
    """Wedge together ``p`` coordinate vectors of length ``n``.

    The coefficient at multi-index ``i`` is the p x p minor of the stacked
    vectors selecting columns ``i``; the result is simple by construction.
    The scalar field is inferred from the entries (float wins over Gaussian
    rational wins over rational).
    """
    rows = [list(v) for v in vectors]
    if not rows:
        raise ValueError("wedge needs at least one vector")
    if n is None:
        n = len(rows[0])
    if any(len(r) != n for r in rows):
        raise ValueError(f"all vectors must have length {n}")
    p = len(rows)
    params = GrassmannParams(n, p)
    entries = [v for r in rows for v in r]
    if any(isinstance(v, float) for v in entries):
        field = "f64"
    elif any(isinstance(v, (complex, GaussianRational)) for v in entries):
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


def _term_values(terms: Iterable[QuadTerm], coeffs: Mapping[MultiIndex, object]) -> list:
    """The non-zero products ``coefficient * lam_left * lam_right`` of one equation.

    This is the module's only term-evaluation loop.  It runs on field
    scalars, on cleared integers (Q) and on cleared Gaussian integers (Q_i).
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
    values = _term_values(eq.terms, h.coeffs)
    return sum(values[1:], values[0]) if values else _zero(h.field)


class Residual(NamedTuple):
    """Largest violation magnitude plus every violated label with its value.

    The magnitude is ``abs(value)`` for rational and float fields and the
    exact squared modulus for Gaussian rationals.
    """

    max_violation: Scalar
    violations: list[tuple[Label, Scalar]]


def residual(system: EquationSystem, h: PVector, tolerance: float | None = None) -> Residual:
    """Evaluate every equation of ``system`` at ``h`` and report violations.

    Exact fields report every label with a non-zero value; the float field
    reports values exceeding the relative tolerance (default 1e-9).
    """
    if system.params != h.params:
        raise ValueError(f"system is for {system.params}, p-vector for {h.params}")
    violations: list[tuple[Label, Scalar]] = []
    if h.field == "f64":
        tol = 1e-9 if tolerance is None else float(tolerance)
        worst = 0.0
        for eq in system.equations:
            values = _term_values(eq.terms, h.coeffs)
            value = 0.0
            for term_value in values:  # left to right, as the tolerance bound assumes
                value += term_value
            if abs(value) > tol * max(map(abs, values), default=0.0):
                violations.append((eq.label, value))
                worst = max(worst, abs(value))
        return Residual(worst, violations)
    coeffs, denominator = _cleared(h.coeffs, h.field)
    square = denominator * denominator
    zero = 0 if h.field == "Q" else _GaussInt(0, 0)
    for eq in system.equations:
        value = sum(_term_values(eq.terms, coeffs), zero)
        if value:
            violations.append((eq.label, _uncleared(value, square)))
    if h.field == "Q":
        worst = max((abs(v) for _, v in violations), default=Fraction(0))
    else:
        worst = max((v.norm_sq() for _, v in violations), default=Fraction(0))
    return Residual(worst, violations)


def _chart_is_simple(coeffs: Mapping[MultiIndex, int | _GaussInt], p: int) -> bool:
    """Exact decomposability of non-zero cleared coefficients ``coeffs``.

    Let ``I = (i_1 < ... < i_p)`` be the smallest key and ``c = coeffs[I]``.
    Row ``a`` holds ``c`` at ``i_a``, zero at the rest of ``I``, and at each
    ``j`` outside ``I`` the coefficient of ``I`` with ``i_a`` replaced by
    ``j``, negated when an odd number of entries of ``I`` lie strictly
    between ``i_a`` and ``j``.  The rows span the point's subspace read in
    the affine chart ``lam_I != 0``, so ``h`` is simple exactly when their
    wedge equals ``c**(p-1) * h``.
    """
    pivot_idx = min(coeffs)
    pivot = coeffs[pivot_idx]
    rows = [{i: pivot} for i in pivot_idx]
    for key, value in coeffs.items():
        moved = [pos for pos, j in enumerate(key) if j not in pivot_idx]
        if len(moved) != 1:
            continue
        below = moved[0]  # entries of I other than i_a that lie below j
        a = next(pos for pos, i in enumerate(pivot_idx) if i not in key)
        rows[a][key[below]] = -value if (below - a) % 2 else value
    scale = 1
    for _ in range(p - 1):
        scale = scale * pivot
    blades = _wedge_coeffs(rows)
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

    Exact fields (Q, Q_i) are decided by the affine-chart wedge test of
    :func:`_chart_is_simple` on cleared coefficients, with no equation
    system built; both systems cut out the Grassmannian, so the verdict is
    the one the equations would give.  The float field evaluates the chosen
    system under the relative ``tolerance`` (see the module docstring),
    building it on each call.  For the two-index system with p outside
    2..n-2 the system is trivial and every vector passes.  The zero vector
    is reported simple by convention.
    """
    choice = _normalize_choice(system_choice)
    n, p = h.params.n, h.params.p
    if choice == "plucker_like":
        if not 2 <= p <= n - 2:
            return True
        m = 2
    else:
        if not 1 <= p <= n - 1:
            raise ValueError(f"one-index system needs 1 <= p <= n-1, got p={p}, n={n}")
        m = 1
    if h.field == "f64":
        system = gen_generalized(h.params, m)
        return not residual(system, h, tolerance).violations
    if h.is_zero:
        return True
    coeffs, _ = _cleared(h.coeffs, h.field)
    return _chart_is_simple(coeffs, p)


def random_pvector(params: GrassmannParams, seed: int) -> PVector:
    """Independent small rational coefficients per multi-index; seeded."""
    rng = random.Random(seed)
    coeffs: dict[MultiIndex, Scalar] = {}
    for idx in combinations(params.indices, params.p):
        value = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if value:
            coeffs[idx] = value
    return PVector(params, coeffs, "Q")


def random_simple(params: GrassmannParams, seed: int) -> PVector:
    """Wedge of p random vectors with small rational entries; seeded."""
    rng = random.Random(seed)
    vectors = [
        [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(params.n)]
        for _ in range(params.p)
    ]
    return wedge(vectors)


def _fraction_from_text(text) -> Fraction:
    if not isinstance(text, str):
        raise ValueError(f"exact coefficients must be 'num/den' strings, got {text!r}")
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
    idx = as_multiindex(entry["idx"])
    if field == "Q":
        return idx, _fraction_from_text(entry["re"])
    if field == "Q_i":
        return idx, GaussianRational(
            _fraction_from_text(entry["re"]),
            _fraction_from_text(entry["im"]) if "im" in entry else Fraction(0),
        )
    return idx, _coerce_scalar(entry["re"], field)


def pvector_from_dict(data: dict) -> PVector:
    """Parse the p-vector JSON document; every malformed input raises ``ValueError``."""
    try:
        params = GrassmannParams(int(data["n"]), int(data["p"]))
        field = data["field"]
        entries = data["coeffs"]
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed p-vector JSON: {exc}") from exc
    if field not in FIELDS:
        raise ValueError(f"field must be one of {FIELDS}, got {field!r}")
    coeffs: dict[MultiIndex, Scalar] = {}
    try:
        for entry in entries:
            idx, value = _entry_from_dict(entry, field)
            if idx in coeffs:
                raise ValueError(f"duplicate coefficient index {idx}")
            if value:
                coeffs[idx] = value
    except (KeyError, TypeError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"malformed coefficient entry: {type(exc).__name__}: {exc}") from exc
    return pvector(params, coeffs, field)


def pvector_to_json(h: PVector) -> str:
    import json

    return json.dumps(pvector_to_dict(h), indent=2) + "\n"


def pvector_from_json(text: str) -> PVector:
    import json

    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from exc
    return pvector_from_dict(data)
