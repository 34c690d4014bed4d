"""Quadratic coefficient identities on Grassmann coordinates.

Each equation is a signed sum of products of two coefficients, labeled by a
pair ``(j, k)`` of multi-indices.  The classical system moves one index from
``k`` to ``j`` per term; the two-index variant moves two.  Both are produced
in *raw* form (generation order, coefficients exactly +-1, duplicate
monomials possible) and can be normalized to a *canonical* form suitable for
comparison and deduplication.

Canonical form: like monomials collected, zero coefficients dropped, the
coefficient gcd divided out, terms sorted lexicographically by
``(left, right)``, and the overall sign chosen so the first term is
positive.  An empty term list is the trivial equation ``0 = 0``.

Generation works on int bitmasks (bit ``i`` set for index ``i``), the
basis-blade encoding of Dorst, Fontijne & Mann, *Geometric Algebra for
Computer Science* (2007), ch. 19: a set union is ``|``, a difference is
``& ~`` and an inversion count is a popcount.  Masks never leave this
module.  Each term's ``left`` and ``right`` come from the intern table of
``GrassmannParams.multiindex``, the one multi-index reader, so every
equation the process generates or reads, and every p-vector key, shares
one tuple per distinct multi-index.  A system is generated one equation at
a time; the command line renders each one as it comes and holds no whole
system.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

from . import _EXPORTS
from .multiindex import _INTERNED, GrassmannParams, MultiIndex

Label = tuple[MultiIndex, MultiIndex]

__all__ = _EXPORTS["equations"]


class QuadTerm(NamedTuple):
    """One signed monomial ``coefficient * lam_left * lam_right``.

    Storage is normalized so ``left <= right`` lexicographically; the
    monomial itself is an unordered pair.
    """

    coefficient: int
    left: MultiIndex
    right: MultiIndex


def make_term(coefficient: int, a: MultiIndex, b: MultiIndex) -> QuadTerm:
    """Build a term with the unordered monomial stored in sorted order."""
    if coefficient == 0:
        raise ValueError("term coefficient must be non-zero")
    if b < a:
        a, b = b, a
    return QuadTerm(coefficient, a, b)


@dataclass(frozen=True)
class QuadraticEquation:
    """A signed list of quadratic terms with its generating label ``(j, k)``.

    The terms are either as generated (raw) or normalized by
    ``canonicalize``; ``eq.terms == canonicalize(eq).terms`` tells which.
    """

    params: GrassmannParams
    label: Label
    terms: tuple[QuadTerm, ...]

    @property
    def is_trivial(self) -> bool:
        return not canonicalize(self).terms


@dataclass(frozen=True)
class EquationSystem:
    """An ordered collection of equations for fixed (n, p) and half-width m.

    Generated systems are ordered row-major lexicographically over (j, k):
    j ranges over size p-m multi-indices (outer), k over size p+m (inner).
    """

    params: GrassmannParams
    m: int
    equations: tuple[QuadraticEquation, ...]

    def __len__(self) -> int:
        return len(self.equations)

    def __iter__(self):
        return iter(self.equations)


def check_width(params: GrassmannParams, m: int) -> int:
    """Return ``m`` if it is a width a system can move: ``1 <= m <= min(p, n-p)``."""
    bound = min(params.p, params.n - params.p)
    if not 1 <= m <= bound:
        raise ValueError(f"m must satisfy 1 <= m <= min(p, n-p) = {bound}, got {m}")
    return m


class _InternTable(dict):
    """Mask -> multi-index tuple; a missing mask is converted once and kept."""

    def __missing__(self, mask: int) -> MultiIndex:
        idx = tuple(i for i in range(mask.bit_length()) if mask >> i & 1)
        idx = self[mask] = _INTERNED.setdefault(idx, idx)
        return idx


class _MaskTable(dict):
    """Multi-index -> (bitmask, parity-above mask); a missing multi-index is computed once.

    Bit ``i`` of the parity-above mask is the parity of the number of
    entries above ``i``.  Only :func:`raw_equation` asks for masks: a mask
    has as many bits as the largest entry, so no reader builds one.
    """

    def __missing__(self, idx: MultiIndex) -> tuple[int, int]:
        mask = parity = 0
        for i in idx:
            mask |= 1 << i
            parity ^= (1 << i) - 1  # bits 0..i-1: the positions i lies above
        self[idx] = mask, parity
        return mask, parity


_MULTIINDEX_BY_MASK = _InternTable()
_MASKS = _MaskTable()


def raw_equation(params: GrassmannParams, j: Iterable[int], k: Iterable[int], m: int) -> QuadraticEquation:
    """Generate the raw equation for one label ``(j, k)`` moving ``m`` indices.

    One term per size-``m`` subset ``ii`` of ``k \\ j``, in lexicographic
    order over ``ii``, with coefficient ``(-1) ** <j^k | ii>`` where ``^`` is
    the symmetric difference and ``< | >`` the inversion-pair count; the
    term's monomial is ``lam_{j + ii} * lam_{k - ii}``.

    The collected terms are ``(-1) ** (m*p + m*(m-1)/2)`` times the e_k
    coefficient of ``(iota_{e^j} h) ^ h``, where ``iota_{e^j} e_A = sgn(j ||
    A \\ j) e_{A \\ j}``, ``e_C ^ e_B = sgn(C || B) e_k`` and ``sgn`` is the
    sign that sorts the concatenation.  With ``D = j & k`` and ``K' = k \\
    j``, the pairs of ``D`` with ``ii`` give ``|D| m`` inversions, those of
    ``ii`` with ``K' \\ ii`` give ``m (|K'| - m)`` over both sides, and those
    within ``ii`` give ``m(m-1)/2`` on the raw side only; ``|K'| = p + m -
    |D|`` leaves ``m*p + m(m-1)/2``.  The test
    ``test_raw_equation_is_the_contraction_coefficient`` asserts it exactly.

    The sign is read off bitmasks: the parity of the number of indices of
    ``j^k`` above a moved index ``i`` is bit ``i`` of the XOR of the
    parity-above masks of ``j`` and ``k``, since indices in both cancel in
    pairs.  The label is returned with the interned tuples.
    """
    j = params.multiindex(j, params.p - m)
    k = params.multiindex(k, params.p + m)
    j_mask, j_parity = _MASKS[j]
    k_mask, k_parity = _MASKS[k]
    parity = j_parity ^ k_parity
    table = _MULTIINDEX_BY_MASK
    # QuadTerm's own __new__ is a Python-level call; this is the tuple
    # constructor it wraps, at less than half the cost per term.
    new_term = tuple.__new__
    terms = []
    # (bit, parity of the inversion count) for each moved index, ascending.
    moved = [(1 << i, parity >> i & 1) for i in k if not j_mask >> i & 1]
    for ii in combinations(moved, m):
        ii_mask = odd = 0
        for bit, bit_parity in ii:
            ii_mask |= bit
            odd ^= bit_parity
        left = table[j_mask | ii_mask]
        right = table[k_mask ^ ii_mask]  # ii lies inside k
        sign = -1 if odd else 1
        terms.append(new_term(QuadTerm, (sign, left, right) if left <= right else (sign, right, left)))
    return QuadraticEquation(params, (j, k), tuple(terms))


def _raw_equations(params: GrassmannParams, m: int) -> Iterator[QuadraticEquation]:
    """The raw equations of the system moving ``m`` indices, one at a time, in system order.

    ``m`` is checked and the labels are validated and interned before the
    iterator is returned, so a bad width raises here and not at the first
    equation.
    """
    check_width(params, m)
    j_list, k_list = (
        [params.multiindex(idx, size) for idx in combinations(params.indices, size)]
        for size in (params.p - m, params.p + m)
    )
    return (raw_equation(params, j, k, m) for j in j_list for k in k_list)


def gen_generalized(params: GrassmannParams, m: int, jobs: int = 1) -> EquationSystem:
    """Generate the full system moving ``m`` indices per term.

    ``m = 1`` is the classical system, ``m = 2`` the two-index variant; the
    construction is parametric but only those two carry structural
    guarantees.  Requires ``1 <= m <= min(p, n - p)``.  The labels are the
    interned tuples, validated once here and found in the intern table by
    :func:`raw_equation` on every call.

    ``jobs`` is accepted for compatibility and ignored: generation is one
    serial loop, because a process pool was slower at every measured size
    (it pickles each equation back to the parent).
    """
    return EquationSystem(params, m, tuple(_raw_equations(params, m)))


def gen_plucker(params: GrassmannParams, jobs: int = 1) -> EquationSystem:
    """The classical system: C(n, p-1) * C(n, p+1) raw equations."""
    return gen_generalized(params, 1, jobs=jobs)


def gen_plucker_like(params: GrassmannParams, jobs: int = 1) -> EquationSystem:
    """The two-index system: C(n, p-2) * C(n, p+2) raw equations."""
    return gen_generalized(params, 2, jobs=jobs)


# The monomial of a term: canonical order sorts on it, like terms share it.
_MONOMIAL = itemgetter(1, 2)


Collected = dict[tuple[MultiIndex, MultiIndex], int]


def collect_terms(terms: Iterable[QuadTerm]) -> Collected:
    """Collect like monomials into a map ``(left, right) -> coefficient``.

    Zero totals are dropped, so two term lists are equal as polynomials
    exactly when their collected maps are equal.
    """
    return collect_weighted(((1, terms),))


def collect_weighted(weighted: Iterable[tuple[int, Iterable[QuadTerm]]]) -> Collected:
    """Collect ``sum(weight * terms)`` into a map like :func:`collect_terms`.

    Zero totals are dropped, so a signed sum of equations vanishes as a
    polynomial exactly when the returned map is empty; no intermediate
    equation is built.
    """
    acc: Collected = {}
    for weight, terms in weighted:
        for coefficient, left, right in terms:
            key = (left, right)
            total = acc.get(key, 0) + weight * coefficient
            if total:
                acc[key] = total
            elif key in acc:
                del acc[key]
    return acc


def canonicalize(eq: QuadraticEquation) -> QuadraticEquation:
    """Return the canonical form of ``eq``; idempotent.

    One sort keyed on the monomial ``(left, right)`` brings like terms
    together, one pass merges them and drops zero sums, and the gcd of what
    is left, signed by the first term, is divided out.  A term whose
    coefficient does not change is kept as the same ``QuadTerm`` object.
    """
    merged: list[QuadTerm] = []
    for term in sorted(eq.terms, key=_MONOMIAL):
        if merged and merged[-1].left == term.left and merged[-1].right == term.right:
            total = merged[-1].coefficient + term.coefficient
            if total:
                merged[-1] = QuadTerm(total, term.left, term.right)
            else:
                merged.pop()
        else:
            merged.append(term)
    if merged:
        divisor = gcd(*[term.coefficient for term in merged])
        if merged[0].coefficient < 0:
            divisor = -divisor
        if divisor != 1:
            merged = [QuadTerm(c // divisor, left, right) for c, left, right in merged]
    return QuadraticEquation(eq.params, eq.label, tuple(merged))


def linear_combination(
    weighted: Iterable[tuple[int, QuadraticEquation]], params: GrassmannParams
) -> QuadraticEquation:
    """Integer linear combination of equations, as a raw equation labelled ``((), ())``."""
    terms: list[QuadTerm] = []
    for weight, eq in weighted:
        if weight == 0:
            continue
        for term in eq.terms:
            terms.append(QuadTerm(weight * term.coefficient, term.left, term.right))
    return QuadraticEquation(params, ((), ()), tuple(terms))


def _first_occurrences(
    equations: Iterable[QuadraticEquation],
    multiplicity: dict[tuple[QuadTerm, ...], list[Label]] | None = None,
) -> Iterator[QuadraticEquation]:
    """The canonical form of each equation that is non-trivial and not seen before.

    Equations are read and yielded one at a time, so only the distinct
    canonical term tuples are kept.  With ``multiplicity``, every label is
    also appended to the list of its canonical terms there (the empty tuple
    collects the trivial labels).
    """
    seen: set[tuple[QuadTerm, ...]] = set()
    for eq in equations:
        canonical = canonicalize(eq)
        terms = canonical.terms
        if multiplicity is not None:
            multiplicity.setdefault(terms, []).append(eq.label)
        if terms and terms not in seen:
            seen.add(terms)
            yield canonical


def dedupe(
    system: EquationSystem,
) -> tuple[list[QuadraticEquation], dict[tuple[QuadTerm, ...], list[Label]]]:
    """Drop trivial and repeated equations.

    Returns the distinct non-trivial canonical equations in first-occurrence
    order, plus a multiplicity map from canonical term tuple to every source
    label producing it (the empty tuple collects the trivial labels).
    """
    multiplicity: dict[tuple[QuadTerm, ...], list[Label]] = {}
    reduced = list(_first_occurrences(system.equations, multiplicity))
    return reduced, multiplicity


def size_ratio(params: GrassmannParams) -> Fraction:
    """Exact ratio |one-index system| / |two-index system|.

    Equals ``(p+2)(n-p+2) / ((p-1)(n-p-1))`` for ``2 <= p <= n-2``.
    """
    n, p = params.n, params.p
    if not 2 <= p <= n - 2:
        raise ValueError(f"ratio defined for 2 <= p <= n-2, got p={p}, n={n}")
    return Fraction((p + 2) * (n - p + 2), (p - 1) * (n - p - 1))
