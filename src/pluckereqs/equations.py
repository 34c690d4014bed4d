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
``& ~`` and an inversion count is a popcount.  ``_raw_terms`` holds the
generator's sign rule; it gives one label's terms on masks.
Masks leave this module in three places only: the rows of ``_raw_rows``,
which ``check`` evaluates without building any equation, the keys that
``_by_mask`` gives a p-vector's coefficients to match them, and the label
masks that ``census`` counts on and that ``_weights`` yields to
``verify``'s failure walk.  Every other reader gets tuples:
``_tuple_terms`` maps a row's masks to tuples, the smaller factor on the
left, for ``raw_equation`` and for ``generate --raw``, which reads
``_raw_rows`` through it.  Each term's ``left`` and ``right`` come from
the intern table of ``GrassmannParams.multiindex``, the one multi-index
reader, so every equation the process generates or reads, and every
p-vector key, shares one tuple per distinct multi-index.  ``generate``
builds no equation: it passes rows ``(label, terms)`` of plain tuples to
the writer one at a time and holds no whole system.  Canonical forms are
lifted from the blocks Gr(r, 2r), each canonicalized once per call, along
``_weights`` (``_canonical_rows``).
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator, Mapping
from itertools import combinations
from math import gcd
from operator import itemgetter

from . import _EXPORTS
from .multiindex import _INTERNED, GrassmannParams, MultiIndex, _Record, difference

Label = tuple[MultiIndex, MultiIndex]

__all__ = _EXPORTS["equations"]


QuadTerm = namedtuple("QuadTerm", ("coefficient", "left", "right"))
QuadTerm.__doc__ = """One signed monomial ``coefficient * lam_left * lam_right``.

Storage is normalized so ``left <= right`` lexicographically; the monomial
itself is an unordered pair.
"""


def make_term(coefficient: int, a: MultiIndex, b: MultiIndex) -> QuadTerm:
    """Build a term with the unordered monomial stored in sorted order."""
    if coefficient == 0:
        raise ValueError("term coefficient must be non-zero")
    if b < a:
        a, b = b, a
    return QuadTerm(coefficient, a, b)


class QuadraticEquation(_Record):
    """A signed list of quadratic terms with its generating label ``(j, k)``.

    The terms, a tuple of :class:`QuadTerm`, are either as generated (raw)
    or normalized by ``canonicalize``; ``eq.terms == canonicalize(eq).terms``
    tells which.
    """

    __slots__ = ("params", "label", "terms")

    @property
    def is_trivial(self) -> bool:
        return not canonicalize(self).terms


class EquationSystem(_Record):
    """An ordered collection of equations for fixed (n, p) and half-width m.

    Generated systems are ordered row-major lexicographically over (j, k):
    j ranges over size p-m multi-indices (outer), k over size p+m (inner).
    """

    __slots__ = ("params", "m", "equations")

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
    entries above ``i``.  Only the generator and :func:`_by_mask` ask for
    masks: a mask has as many bits as the largest entry, so no reader builds
    one.
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


def _raw_terms(j_mask: int, k: MultiIndex, k_mask: int, parity: int, m: int) -> list[tuple[int, int, int]]:
    """The raw terms of one label as ``(sign, left mask, right mask)``: the sign rule.

    ``parity`` is the XOR of the parity-above masks of ``j`` and ``k``.  One
    term per size-``m`` subset ``ii`` of ``k \\ j``, in lexicographic order;
    the parity of the number of indices of ``j^k`` above a moved index ``i``
    is bit ``i`` of ``parity``, since indices in both cancel in pairs.
    """
    # (bit, parity of the inversion count) for each moved index, ascending.
    moved = [(1 << i, parity >> i & 1) for i in k if not j_mask >> i & 1]
    terms = []
    for ii in combinations(moved, m):
        ii_mask = odd = 0
        for bit, bit_parity in ii:
            ii_mask |= bit
            odd ^= bit_parity
        terms.append((-1 if odd else 1, j_mask | ii_mask, k_mask ^ ii_mask))  # ii lies inside k
    return terms


def _raw_rows(params: GrassmannParams, m: int) -> Iterator[tuple[Label, list[tuple[int, int, int]]]]:
    """Each label of the system moving ``m`` with its :func:`_raw_terms`, in system order.

    The label holds the interned tuples and the terms hold masks, the keys
    of :func:`_by_mask`.  A bad ``m`` raises here, not when read.
    """
    j_list, k_list = _label_lists(params, m)
    k_masks = [(k, *_MASKS[k]) for k in k_list]

    def rows() -> Iterator[tuple[Label, list[tuple[int, int, int]]]]:
        for j in j_list:
            j_mask, j_parity = _MASKS[j]
            for k, k_mask, k_parity in k_masks:
                yield (j, k), _raw_terms(j_mask, k, k_mask, j_parity ^ k_parity, m)

    return rows()


def _by_mask(coeffs: Mapping[MultiIndex, object]) -> dict[int, object]:
    """``coeffs`` keyed by the masks of their multi-indices, the keys of :func:`_raw_rows`'s terms."""
    return {_MASKS[idx][0]: value for idx, value in coeffs.items()}


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

    The label is validated, its terms are read off bitmasks by
    :func:`_raw_terms`, and :func:`_tuple_terms` maps each mask to its
    interned tuple, the smaller of a term's two on the left.
    """
    j = params.multiindex(j, params.p - m)
    k = params.multiindex(k, params.p + m)
    j_mask, j_parity = _MASKS[j]
    k_mask, k_parity = _MASKS[k]
    # QuadTerm's own __new__ is a Python-level call; this is the tuple
    # constructor it wraps, at less than half the cost per term.
    new_term = tuple.__new__
    terms = _tuple_terms(_raw_terms(j_mask, k, k_mask, j_parity ^ k_parity, m))
    return QuadraticEquation(params, (j, k), tuple([new_term(QuadTerm, term) for term in terms]))


def _tuple_terms(terms: list[tuple[int, int, int]]) -> list[tuple[int, MultiIndex, MultiIndex]]:
    """:func:`_raw_terms`' terms on the interned tuples of their masks, the smaller factor on the left."""
    table = _MULTIINDEX_BY_MASK
    ordered = []
    for sign, left, right in terms:
        left, right = table[left], table[right]
        ordered.append((sign, left, right) if left <= right else (sign, right, left))
    return ordered


def _raw_equations(params: GrassmannParams, m: int) -> Iterator[QuadraticEquation]:
    """The raw equations moving ``m``, in system order; a bad ``m`` raises here, not when read.

    Each is built by :func:`raw_equation`, the one function every raw
    equation the library builds passes through; ``generate --raw`` builds
    none and prints the rows of :func:`_raw_rows` through :func:`_tuple_terms`.
    """
    j_list, k_list = _label_lists(params, m)
    return (raw_equation(params, j, k, m) for j in j_list for k in k_list)


def _label_lists(params: GrassmannParams, m: int) -> tuple[list[MultiIndex], ...]:
    """Check ``m``; the interned j's and k's of the system, in order."""
    check_width(params, m)
    return tuple(
        [params.multiindex(idx, size) for idx in combinations(params.indices, size)]
        for size in (params.p - m, params.p + m)
    )


def _block_labels(r: int, m: int) -> Iterator[Label]:
    """The q = 0 labels ``(j, complement of j)`` moving ``m`` in ``GrassmannParams(2r, r)``."""
    indices = tuple(range(1, 2 * r + 1))
    return ((j, difference(indices, j)) for j in combinations(indices, r - m))


def _block_forms(r: int, m: int) -> list[tuple[QuadTerm, ...]]:
    """The canonical terms at each label of :func:`_block_labels`, in that order."""
    block = GrassmannParams(2 * r, r)
    return [canonicalize(raw_equation(block, j, k, m)).terms for j, k in _block_labels(r, m)]


def _weights(params: GrassmannParams, m: int) -> Iterator[tuple[Label, int, int, list[int], MultiIndex]]:
    """Each label moving ``m`` as ``(label, D, j | k, S, j')`` on masks, in system order.

    ``D = j & k``, ``S`` holds the bits of ``j ^ k`` ascending and ``j'`` the
    places in ``S`` (from 1) of ``j``'s entries: the ``j`` of the block label
    of ``structure.strip``, which names that label once ``m`` is known.
    """
    j_list, k_list = _label_lists(params, m)
    bits = [1 << i for i in params.indices]
    k_masks = [(k, _MASKS[k][0]) for k in k_list]
    for j in j_list:
        j_mask = _MASKS[j][0]
        for k, k_mask in k_masks:
            sym = j_mask ^ k_mask
            spread = [bit for bit in bits if sym & bit]
            block_j = tuple([at for at, bit in enumerate(spread, 1) if j_mask & bit])
            yield (j, k), j_mask & k_mask, j_mask | k_mask, spread, block_j


def _canonical_rows(
    params: GrassmannParams, m: int, first_only: bool = False
) -> Iterator[tuple[Label, list[tuple[int, MultiIndex, MultiIndex]]]]:
    """Each label moving ``m`` with its canonical terms, in order; with ``first_only``, ``dedupe``'s.

    The terms are plain ``(c, left, right)`` tuples of interned factors:
    the rows a writer of ``render`` reads, with no equation built.  By
    ``structure.strip``'s corollary, the form at ``(j, k)`` is its block
    form with each factor ``X`` lifted to ``D + S[X]``, as :func:`_weights`
    gives them; a term's factors split ``S``.  Equal non-trivial forms share
    ``D`` and ``S``, and lifting keeps label order, so a first occurrence is
    a block's first.  Block forms are read by :func:`_block_forms`, once per call.
    """
    check_width(params, m)
    templates = {}
    for r in range(m, min(params.p, params.n - params.p) + 1):
        seen = set()
        for (j, _), terms in zip(_block_labels(r, m), _block_forms(r, m)):
            first = bool(terms) and terms not in seen
            seen.add(terms)
            templates[j] = first, [(c, tuple(x - 1 for x in left)) for c, left, _ in terms]
    table = _MULTIINDEX_BY_MASK

    def rows() -> Iterator[tuple[Label, list[tuple[int, MultiIndex, MultiIndex]]]]:
        for label, common, union, spread, block_j in _weights(params, m):
            first, template = templates[block_j]
            if first_only and not first:
                continue
            terms = []
            for c, left in template:
                lift = 0
                for at in left:
                    lift |= spread[at]
                terms.append((c, table[common | lift], table[union ^ lift]))
            yield label, terms

    return rows()


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


def dedupe(
    system: EquationSystem,
) -> tuple[list[QuadraticEquation], dict[tuple[QuadTerm, ...], list[Label]]]:
    """Drop trivial and repeated equations.

    Returns the distinct non-trivial canonical equations in first-occurrence
    order, plus a multiplicity map from canonical term tuple to every source
    label producing it (the empty tuple collects the trivial labels).
    """
    reduced: list[QuadraticEquation] = []
    multiplicity: dict[tuple[QuadTerm, ...], list[Label]] = {}
    for eq in system.equations:
        canonical = canonicalize(eq)
        labels = multiplicity.setdefault(canonical.terms, [])
        if canonical.terms and not labels:
            reduced.append(canonical)
        labels.append(eq.label)
    return reduced, multiplicity


def size_ratio(params: GrassmannParams) -> Fraction:
    """Exact ratio |one-index system| / |two-index system|.

    Equals ``(p+2)(n-p+2) / ((p-1)(n-p-1))`` for ``2 <= p <= n-2``.
    """
    from fractions import Fraction  # only ``census`` needs it

    n, p = params.n, params.p
    if not 2 <= p <= n - 2:
        raise ValueError(f"ratio defined for 2 <= p <= n-2, got p={p}, n={n}")
    return Fraction((p + 2) * (n - p + 2), (p - 1) * (n - p - 1))
