"""Structural relations between the one-index and two-index systems.

Covers four mechanically checkable facts about the two-index system:

* every two-index equation decomposes as a signed sum of one-index raw
  equations (with an overall factor of 2 after collecting like terms);
* stratifying labels by ``q = |j intersect k|`` splits the system into a
  3-term class (q = p-2), a 10-term class (q = p-3) grouped into families
  of six equations sharing one monomial set, and larger classes whose
  sizes follow multinomial counts;
* within a family, the signed sum of any two members collapses to a
  4-term one-index equation with an exact factor ``2 * (-1)**i2``;
* in the larger classes (q <= p-4) no two equations share a monomial
  set, so nothing combines the way a family does (the lemma is proved in
  ``stratum_probe``); which relations those classes satisfy is open, and
  the probe reports their support statistics as data, asserting nothing.

Each decomposition and pair identity is checked on raw polynomials only,
as one signed sum: every term of every raw equation in it goes, times its
weight, into one map keyed by monomial (``equations.collect_weighted``),
and the identity holds exactly when the map ends empty.  The family,
census-distinctness and multiplicity checks read canonical forms, all
from one reader, ``equations._block_forms``, which ``generate`` lifts
its forms from too.

One data path.  By the lemma in :func:`strip` and its corollary, every
raw equation at (n, p), and its canonical form, is the one of a q = 0
label of the block Gr(r, 2r), with its common part added back to both
factors of every term.  So ``census`` and ``verify_structure`` read
equations only at the q = 0 labels of the blocks r = 2..min(p, n-p), and
``stratum_probe`` only at the block r = p - q; one rule reports a failed
block check at each (n, p) label that strips to it.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations, product
from math import comb
from typing import Iterable

from . import _EXPORTS
from .equations import (
    Label,
    QuadraticEquation,
    QuadTerm,
    _block_forms,
    _block_labels,
    _label_lists,
    canonicalize,
    collect_weighted,
    raw_equation,
)
from .multiindex import (
    GrassmannParams,
    MultiIndex,
    difference,
    inversion_pairs,
    multinomial,
    ordered_union,
    symmetric_difference,
)

PROBE_NOTE = "exploratory - no claim"

__all__ = _EXPORTS["structure"]


def _stratum_kind(q_size: int, p: int) -> str:
    """"3-term" (q = p-2, raw pairs collapse), "10-term" (q = p-3,
    family stratum) or "large" (q <= p-4)."""
    if q_size == p - 2:
        return "3-term"
    if q_size == p - 3:
        return "10-term"
    return "large"


@dataclass(frozen=True)
class QClassCensus:
    """Observed vs predicted equation count for one q stratum."""

    q_size: int
    kind: str
    observed: int
    predicted: int
    expected_terms: int
    observed_terms: tuple[int, ...]

    @property
    def ok(self) -> bool:
        terms_ok = self.observed_terms in ((), (self.expected_terms,))
        return self.observed == self.predicted and terms_ok


@dataclass
class CensusReport:
    """Per-stratum counts of the two-index system against predictions."""

    params: GrassmannParams
    total_observed: int
    total_predicted: int
    classes: list[QClassCensus]
    families_observed: int
    families_predicted: int
    all_distinct: bool
    all_nontrivial: bool

    @property
    def three_term(self) -> QClassCensus | None:
        return self._by_kind("3-term")

    @property
    def ten_term(self) -> QClassCensus | None:
        return self._by_kind("10-term")

    @property
    def larger_strata(self) -> dict[int, QClassCensus]:
        return {c.q_size: c for c in self.classes if c.kind == "large"}

    def _by_kind(self, kind: str) -> QClassCensus | None:
        return next((entry for entry in self.classes if entry.kind == kind), None)

    @property
    def ok(self) -> bool:
        return (
            self.total_observed == self.total_predicted
            and all(entry.ok for entry in self.classes)
            and self.families_observed == self.families_predicted
            and self.all_distinct
            and self.all_nontrivial
        )

    def to_dict(self) -> dict:
        return {
            "n": self.params.n,
            "p": self.params.p,
            "total": {"observed": self.total_observed, "predicted": self.total_predicted},
            "classes": [
                {
                    "q_size": entry.q_size,
                    "kind": entry.kind,
                    "observed": entry.observed,
                    "predicted": entry.predicted,
                    "expected_terms": entry.expected_terms,
                    "observed_terms": list(entry.observed_terms),
                }
                for entry in self.classes
            ],
            "families": {
                "observed": self.families_observed,
                "predicted": self.families_predicted,
            },
            "all_distinct": self.all_distinct,
            "all_nontrivial": self.all_nontrivial,
            "ok": self.ok,
        }


def census(params: GrassmannParams) -> CensusReport:
    """Count the two-index system per q stratum and compare to predictions.

    The counts are one pass over the labels in system order that keeps
    none.  A family is counted at its one 10-term label whose element of
    ``j \\ k`` is the smallest of ``j ^ k``.

    What reads an equation is a block fact.  By :func:`strip` and its
    corollary, the canonical forms of stratum q are the lifts of those of
    the q = 0 labels of Gr(r, 2r), r = p - q, once per weight (a choice of
    ``D = j intersect k`` and ``S = j ^ k``), so their term counts are the
    block's.  The monomials ``{A, B}`` of a non-trivial form give ``D = A
    intersect B`` and ``S = A ^ B``, and lifting is injective, so two such
    forms are equal only as lifts of equal block forms at one weight: the
    system is distinct exactly when each block is and at most one label
    in all is trivial.
    """
    n, p = params.n, params.p
    if not 2 <= p <= n - 2:
        raise ValueError(f"census needs 2 <= p <= n-2, got p={p}, n={n}")
    observed, families = [0] * (p - 1), 0
    j_list, k_list = _label_lists(params, 2)
    for j in j_list:
        shared = set(j)
        for k in k_list:
            q_size = len(shared.intersection(k))
            observed[q_size] += 1
            if q_size == p - 3:
                families += min(shared.symmetric_difference(k)) in shared
    classes, trivial, distinct = [], 0, True
    for q_size in range(p - 2, max(0, 2 * p - n) - 1, -1):
        r = p - q_size
        forms = _block_forms(r, 2)
        trivial += forms.count(()) * multinomial(n, [q_size, 2 * r, n - p - r])
        distinct = distinct and len(set(forms)) == len(forms)
        classes.append(
            QClassCensus(
                q_size=q_size,
                kind=_stratum_kind(q_size, p),
                observed=observed[q_size],
                predicted=multinomial(
                    n, [q_size, p - 2 - q_size, p + 2 - q_size, n + q_size - 2 * p]
                ),
                expected_terms=3 if q_size == p - 2 else comb(p + 2 - q_size, 2),
                observed_terms=tuple(sorted({len(terms) for terms in forms})),
            )
        )
    return CensusReport(
        params=params,
        total_observed=sum(observed),
        total_predicted=comb(n, p - 2) * comb(n, p + 2),
        classes=classes,
        families_observed=families,
        families_predicted=multinomial(n, [6, p - 3, n - p - 3]) if 3 <= p <= n - 3 else 0,
        all_distinct=distinct and trivial <= 1,
        all_nontrivial=not trivial,
    )


def one_index_decomposition(
    params: GrassmannParams, j: Iterable[int], k: Iterable[int]
) -> list[tuple[int, Label]]:
    """Signed one-index labels whose raw sum doubles the two-index equation.

    Returns ``[(sign_i, (j+i, k-i)) for i in k\\j]`` with
    ``sign_i = (-1) ** <j^k | i>``; the exact identity is
    ``sum_i sign_i * raw_1(j+i, k-i) == 2 * raw_2(j, k)`` after collecting
    like terms.
    """
    j = params.multiindex(j, params.p - 2)
    k = params.multiindex(k, params.p + 2)
    sym = symmetric_difference(j, k)
    return [
        ((-1) ** inversion_pairs(sym, (i,)), (ordered_union(j, (i,)), difference(k, (i,))))
        for i in difference(k, j)
    ]


def check_decomposition(params: GrassmannParams, j: Iterable[int], k: Iterable[int]) -> bool:
    """Verify the raw decomposition identity exactly for one label.

    ``sum_i sign_i * raw_1(j+i, k-i) - 2 * raw_2(j, k)`` collects to nothing.
    """
    doubled = raw_equation(params, j, k, 2)  # the one read of j and k, maybe one-shot
    weighted = [(-2, doubled.terms)]
    for sign, (pj, pk) in one_index_decomposition(params, *doubled.label):
        weighted.append((sign, raw_equation(params, pj, pk, 1).terms))
    return not collect_weighted(weighted)


@dataclass(frozen=True)
class PairFamily:
    """Six two-index labels sharing one 10-monomial set.

    Member ``i`` (1-based, ascending over ``l``) has ``j = q + l[i]`` and
    ``k = q + (l - l[i])``.
    """

    q: MultiIndex
    l: MultiIndex
    members: tuple[Label, ...]


def pair_families(params: GrassmannParams) -> list[PairFamily]:
    """All families of six same-monomial 10-term equations; [] if p is out of range."""
    n, p = params.n, params.p
    if not 3 <= p <= n - 3:
        return []
    families = []
    for q in combinations(params.indices, p - 3):
        rest = [i for i in params.indices if i not in q]
        for l in combinations(rest, 6):
            members = tuple(
                (ordered_union(q, (li,)), ordered_union(q, difference(l, (li,))))
                for li in l
            )
            families.append(PairFamily(q=q, l=l, members=members))
    return families


def _combined_label(family: PairFamily, i: int, i2: int) -> Label:
    picked = (family.l[i - 1], family.l[i2 - 1])
    return (
        ordered_union(family.q, picked),
        ordered_union(family.q, difference(family.l, picked)),
    )


def pair_combine(
    params: GrassmannParams, family: PairFamily, i: int, i2: int
) -> QuadraticEquation:
    """Canonical form of ``E_i + (-1)**(i+i2) * E_i2`` on raw members.

    The result is the canonical one-index equation for the label built from
    ``q`` plus the two picked ``l`` entries.
    """
    if i == i2:
        raise ValueError("pair combination needs two distinct member indices")
    if not (1 <= i <= 6 and 1 <= i2 <= 6):
        raise ValueError(f"member indices must lie in 1..6, got ({i}, {i2})")
    first = raw_equation(params, *family.members[i - 1], 2)
    second = raw_equation(params, *family.members[i2 - 1], 2)
    # Four monomials survive in a family.
    collected = collect_weighted(((1, first.terms), ((-1) ** (i + i2), second.terms)))
    terms = tuple(QuadTerm(c, left, right) for (left, right), c in collected.items())
    return canonicalize(QuadraticEquation(params, _combined_label(family, i, i2), terms))


def check_pair_combine(params: GrassmannParams, family: PairFamily, i: int, i2: int) -> bool:
    """Exact raw identity ``E_i + (-1)**(i+i2) E_i2 = 2*(-1)**i2 * raw_1(target)``.

    The signed sum of the three raw equations collects to nothing.  This
    also settles that :func:`pair_combine` returns the target's canonical
    form, so that is not compared on its own: an empty sum makes
    ``E_i +- E_i2`` and ``2*(-1)**i2 * target`` one polynomial,
    ``canonicalize`` reads only the collected polynomial, and it gives a
    term list and that list times any non-zero integer the same form,
    because it divides out the gcd signed by the first term.
    """
    weighted = (
        (1, raw_equation(params, *family.members[i - 1], 2).terms),
        ((-1) ** (i + i2), raw_equation(params, *family.members[i2 - 1], 2).terms),
        (-2 * (-1) ** i2, raw_equation(params, *_combined_label(family, i, i2), 1).terms),
    )
    return not collect_weighted(weighted)


@dataclass(frozen=True)
class ProbeReport:
    """Support statistics of one large stratum (q <= p-4).

    Purely observational: no structural claim is attached.  The search
    values are class constants, fixed by the lemma in :func:`stratum_probe`:
    no two equations of a large stratum share a support, so a same-support
    combination search has nothing to try.  ``coefficient_bound``,
    ``combination_sizes``, ``combinations_tried`` and ``collapses`` keep the
    JSON schema of that search until exact per-stratum rank and relation
    data replace them.
    """

    n: int
    p: int
    q_size: int
    admissible: bool
    equation_count: int
    support_group_sizes: tuple[tuple[int, int], ...]
    max_support_overlap: int
    coefficient_bound = 2
    combination_sizes = (2, 3)
    combinations_tried = 0
    collapses = ()
    note = PROBE_NOTE

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "p": self.p,
            "q_size": self.q_size,
            "admissible": self.admissible,
            "equation_count": self.equation_count,
            "support_group_sizes": [list(pair) for pair in self.support_group_sizes],
            "max_support_overlap": self.max_support_overlap,
            "coefficient_bound": self.coefficient_bound,
            "combination_sizes": list(self.combination_sizes),
            "combinations_tried": self.combinations_tried,
            "collapses": list(self.collapses),
            "note": self.note,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def stratum_probe(params: GrassmannParams, q_size: int) -> ProbeReport:
    """Support statistics of the two-index stratum ``|j intersect k| = q_size``.

    Reports the stratum's size, how many equations share each monomial
    support, and the largest overlap of two distinct supports.  A stratum
    is admissible when ``2 <= p <= n-2`` and ``max(0, 2p-n) <= q_size <=
    p-4``; otherwise it is reported empty.

    Lemma: in an admissible stratum every equation has its own support.
    Take a label ``(j, k)`` with ``s = |j intersect k| <= p-4`` and let
    ``q = j intersect k``, ``j' = j \\ k`` (``|j'| = p-2-s >= 2``) and
    ``k' = k \\ j`` (``|k'| = p+2-s >= 6``).  Its monomials are
    ``{q + j' + ii, q + (k' - ii)}`` for the 2-subsets ``ii`` of ``k'``.

    * They are pairwise distinct: ``j'`` is non-empty and disjoint from
      ``k'``, so the factor meeting ``j'`` is ``q + j' + ii`` and it gives
      back ``ii``.  Nothing cancels, and the support is this whole set.
    * Any one monomial ``{A, B}`` gives ``q = A intersect B``.
    * ``j'`` is the only set ``X`` of its size, disjoint from ``q``, such
      that every monomial has a factor containing ``X``.  Such an ``X``
      lies in ``j' + k'``.  One meeting both ``j'`` and ``k'`` fails for an
      ``ii`` avoiding ``X intersect k'`` (``k'`` has at least 5 other
      elements): the first factor misses ``X intersect k'`` and the second
      misses ``j'``.  One inside ``k'`` fails for ``ii = {x, y}`` with
      ``x`` in ``X`` and ``y`` in ``k'`` but not in ``X``: the second
      factor misses ``x``, and the first meets ``k'`` only in ``{x, y}``,
      which cannot hold ``X`` because ``|X| >= 2``.
    * The union of the factors of a monomial is ``q + j' + k'``, so the
      support determines ``k'`` and hence the label ``(q + j', q + k')``.

    At ``s = p-3`` (``|j'| = 1``) exactly the third step fails: every
    singleton of ``j' + k'`` qualifies, which gives the families of six
    equations sharing one support.  Hence every support group of a large
    stratum is a singleton, and no two of its equations can be combined
    over a shared support.

    The probe reads one weight block.  A monomial ``{A, B}`` gives ``D =
    A intersect B`` and ``S = A ^ B``, so two supports meet only when their
    labels share ``D`` and ``S``.  With ``r = p - q_size``, the labels of
    one ``(D, S)`` are the :func:`strip` lifts of the C(2r, r-2) labels
    ``(j, complement of j)`` of ``GrassmannParams(2r, r)``, and lifting is
    injective on monomials, so each ``(D, S)`` has the block's support
    groups and overlaps.  A weight is one choice of ``D`` and ``S``; there
    are ``multinomial(n, [q_size, 2r, n-p-r])``, and the equation count and
    every group count are the block's times that number.
    """
    n, p = params.n, params.p
    admissible = 2 <= p <= n - 2 and max(0, 2 * p - n) <= q_size <= p - 4
    supports, weights = Counter(), 0
    if admissible:
        r = p - q_size
        weights = multinomial(n, [q_size, 2 * r, n - p - r])
        supports.update(frozenset((t.left, t.right) for t in terms) for terms in _block_forms(r, 2))
    groups = Counter(supports.values())
    return ProbeReport(
        n=n, p=p, q_size=q_size, admissible=admissible,
        equation_count=weights * sum(supports.values()),
        support_group_sizes=tuple(sorted((size, weights * count) for size, count in groups.items())),
        max_support_overlap=_max_overlap(supports),
    )


def _max_overlap(supports: Iterable[frozenset]) -> int:
    """Largest ``len(a & b)`` over pairs of distinct supports; 0 if none meet.

    An inverted index maps each monomial to the supports holding it, so
    only pairs that share a monomial are counted, once per shared monomial.
    """
    holders: dict[tuple[MultiIndex, MultiIndex], list[int]] = {}
    for sid, support in enumerate(supports):
        for monomial in support:
            holders.setdefault(monomial, []).append(sid)
    shared: Counter[tuple[int, int]] = Counter()
    for sids in holders.values():
        shared.update(combinations(sids, 2))
    return max(shared.values(), default=0)


@dataclass
class VerifyReport:
    """Aggregate pass/fail data for the structural checks at one (n, p)."""

    params: GrassmannParams
    census: CensusReport
    decompositions_checked: int = 0
    decomposition_failures: list[Label] = field(default_factory=list)
    families_checked: int = 0
    family_failures: list[tuple] = field(default_factory=list)
    combinations_checked: int = 0
    combination_failures: list[tuple] = field(default_factory=list)
    multiplicity_failures: list[Label] = field(default_factory=list)

    @property
    def multiplicity_ok(self) -> bool:
        return not self.multiplicity_failures

    @property
    def ok(self) -> bool:
        return self.first_failure is None

    @property
    def first_failure(self) -> str | None:
        if not self.census.ok:
            return "census counts or distinctness"
        if self.decomposition_failures:
            return f"decomposition identity at label {self.decomposition_failures[0]}"
        if self.family_failures:
            return f"family structure at {self.family_failures[0]}"
        if self.combination_failures:
            return f"pair combination at {self.combination_failures[0]}"
        if self.multiplicity_failures:
            return f"multiplicity at label {self.multiplicity_failures[0]}"
        return None


def strip(
    params: GrassmannParams, label: Iterable[Iterable[int]]
) -> tuple[int, MultiIndex, MultiIndex]:
    """The block label ``(r, j', k')`` of an m-index label ``(j, k)``.

    With ``D = j intersect k``, ``S = j ^ k`` and ``|S| = 2r`` (so ``r = p
    - |D|``), ``j'`` and ``k'`` are ``j \\ D`` and ``k \\ D`` relabeled onto
    ``1..2r`` by the increasing map ``phi: S -> 1..2r``.

    Lemma: the raw equation of ``(j, k)`` at ``params`` is the raw equation
    of ``(j', k')`` at ``GrassmannParams(2r, r)``, moving the same ``m``,
    with each factor ``X`` of each term replaced by its lift ``D +
    phi^-1(X)``: the same terms, in the same order, with the same signs
    and the same left/right order.

    Proof.  The terms run over the m-subsets ``ii`` of ``k \\ j``, which
    lies in ``S``; ``phi`` is increasing, so ``ii -> phi(ii)`` maps them
    onto the m-subsets of ``k'`` in the same lexicographic order.  Since
    ``ii`` avoids ``j`` and ``D``, ``j + ii = D + phi^-1(j' + phi(ii))`` and
    ``k - ii = D + phi^-1(k' - phi(ii))``: every term holds ``D`` in both
    factors.  The sign ``(-1)**<j^k | ii>`` counts the pairs ``x`` in ``S``,
    ``y`` in ``ii`` with ``x > y``; it reads only ``S``, and ``phi`` keeps
    each such comparison.  Both factors have size ``p``; of two sorted
    tuples of one size, the smaller holds the smallest element of their
    symmetric difference.  Adding ``D`` to both, or relabeling them by an
    increasing map, keeps that element's side, so each term keeps its
    left/right order.

    Lifting is injective on monomials, so a signed sum of raw equations
    whose labels share ``D`` and ``S`` collects to nothing exactly when
    its block image does.  The decomposition identity of a two-index label
    is such a sum: each ``(j+i, k-i)`` with ``i`` in ``k \\ j`` has the same
    ``D`` and ``S``, and ``sign_i`` reads only ``S``.  So is the pair
    identity of a family ``(q, l)``, whose members, and each pair's
    target, have ``D = q`` and ``S = l``.

    Corollary: the canonical form of ``(j, k)`` is the lift of the
    canonical form of ``(j', k')``.  Lifting keeps coefficients and is
    injective on monomials, so it commutes with collecting like terms, with
    dropping zeros and with dividing out the gcd.  It keeps the order of
    monomials, so the sorted terms and the sign of the first one are kept
    too: a monomial is compared by its left factor and then its right, and
    of two distinct factors the smaller holds the smallest element of their
    symmetric difference, which lifting keeps, on the same side.
    """
    j, k = (params.multiindex(idx) for idx in label)
    if len(j) > params.p or len(j) + len(k) != 2 * params.p:
        raise ValueError(f"label sizes must be (p-m, p+m) with m >= 0, got ({len(j)}, {len(k)})")
    position = {x: at for at, x in enumerate(symmetric_difference(j, k), 1)}
    return (
        len(position) // 2,
        tuple(position[x] for x in j if x in position),
        tuple(position[x] for x in k if x in position),
    )


def verify_structure(params: GrassmannParams) -> VerifyReport:
    """Run every structural check at one (n, p) and collect failures.

    It runs :func:`census`, whose pass gives the label and family counts,
    and reads equations only on the q = 0 blocks of Gr(r, 2r), by the
    lemma in :func:`strip` and its corollary:

    * the decomposition identity at every two-index label of each block,
      for r = 2..min(p, n-p);
    * when ``3 <= p <= n-3``, on the one r = 3 family: its structure (six
      distinct 10-term forms on one support), that its members are the
      block's 10-term labels, and the pair identity for its 15 pairs.
      Member ``i`` of every family strips to member ``i`` of that one, and
      each pair's target to its target;
    * the 3-term multiplicities on the r = 2 block: the one-index labels
      of a 3-term label's ``D`` and ``S`` strip to the four of that block,
      and equal non-trivial forms share ``D`` and ``S``, so a non-trivial
      3-term form is its label's alone (a trivial one fails).

    On a failed block check, one walk over the (n, p) labels in system
    order files each that strips to a failed block label as a decomposition
    failure and, if the r = 2 check failed, each that strips to ``(2, (),
    (1, 2, 3, 4))`` (the 3-term labels) as a multiplicity failure.  A failed
    family check is reported at every family of :func:`pair_families`.
    """
    n, p = params.n, params.p
    if not 2 <= p <= n - 2:
        raise ValueError(f"verification needs 2 <= p <= n-2, got p={p}, n={n}")
    counts = census(params)
    pairs = list(combinations(range(1, 7), 2))
    report = VerifyReport(params=params, census=counts, decompositions_checked=counts.total_observed)
    report.families_checked = counts.families_observed
    report.combinations_checked = len(pairs) * counts.families_observed

    failed_blocks = {
        (r, j, k)
        for r in range(2, min(p, n - p) + 1)
        for j, k in _block_labels(r, 2)
        if not check_decomposition(GrassmannParams(2 * r, r), j, k)
    }

    if report.families_checked:
        block = GrassmannParams(6, 3)
        block_families = pair_families(block)
        failed_pairs = [
            pair for family in block_families for pair in pairs
            if not check_pair_combine(block, family, *pair)
        ]
        forms = _block_forms(3, 2)
        supports = {frozenset((t.left, t.right) for t in terms) for terms in forms}
        structure_ok = len(supports) == 1 and len(set(forms)) == 6 and set(map(len, forms)) == {10}
        if failed_pairs or not structure_ok:
            for family in pair_families(params):
                if not structure_ok:
                    report.family_failures.append((family.q, family.l))
                report.combination_failures.extend((family.q, family.l, i, i2) for i, i2 in failed_pairs)
        members = sorted(label for family in block_families for label in family.members)
        if members != list(_block_labels(3, 2)):
            report.family_failures.append(("partition", "mismatch"))

    [three_term] = _block_forms(2, 2)
    three_term_failed = _block_forms(2, 1).count(three_term) != 4 or not three_term
    if failed_blocks or three_term_failed:
        for label in product(*_label_lists(params, 2)):
            stripped = strip(params, label)
            if stripped in failed_blocks:
                report.decomposition_failures.append(label)
            if three_term_failed and stripped == (2, (), (1, 2, 3, 4)):
                report.multiplicity_failures.append(label)
    return report
