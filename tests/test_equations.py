from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb, gcd

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pluckereqs import (
    GrassmannParams,
    QuadraticEquation,
    QuadTerm,
    canonicalize,
    collect_terms,
    dedupe,
    gen_generalized,
    gen_plucker,
    gen_plucker_like,
    linear_combination,
    make_term,
    raw_equation,
    size_ratio,
)
from pluckereqs.equations import _canonical_rows, _raw_equations, _raw_rows, collect_weighted
from pluckereqs.multiindex import _INTERNED
from pluckereqs.multiindex import (
    difference,
    inversion_pairs,
    ordered_union,
    symmetric_difference,
)


def test_make_term_normalizes_monomial():
    term = make_term(-1, (4, 5, 6), (1, 2, 3))
    assert (term.left, term.right) == ((1, 2, 3), (4, 5, 6))
    assert term.coefficient == -1
    with pytest.raises(ValueError):
        make_term(0, (1,), (2,))


def test_system_counts_6_3(plucker63, pluckerlike63):
    assert len(plucker63) == 225
    assert len(pluckerlike63) == 36


def test_generation_order_is_row_major(params63, plucker63):
    labels = [eq.label for eq in plucker63]
    assert labels[0] == ((1, 2), (1, 2, 3, 4))
    assert labels[14] == ((1, 2), (3, 4, 5, 6))
    assert labels == sorted(labels)


def test_raw_coefficients_are_unit(plucker63, pluckerlike63):
    for system in (plucker63, pluckerlike63):
        for eq in system:
            assert all(term.coefficient in (1, -1) for term in eq.terms)


def test_raw_term_order_lexicographic_over_moved_subset(params63):
    eq = raw_equation(params63, (1,), (2, 3, 4, 5, 6), 2)
    # moved subsets (2,3), (2,4), ... (5,6) produce lefts 123, 124, ...
    lefts = [term.left for term in eq.terms]
    assert lefts == [
        (1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 2, 6), (1, 3, 4),
        (1, 3, 5), (1, 3, 6), (1, 4, 5), (1, 4, 6), (1, 5, 6),
    ]


def test_raw_leading_sign_can_disagree_with_canonical(params63):
    eq = raw_equation(params63, (1, 2), (3, 4, 5, 6), 1)
    assert eq.terms[0].coefficient == -1
    canon = canonicalize(eq)
    assert canon.terms[0].coefficient == 1


def test_known_canonical_forms(params63):
    canon = canonicalize(raw_equation(params63, (1, 2), (1, 3, 4, 5), 1))
    assert canon.terms == (
        make_term(1, (1, 2, 3), (1, 4, 5)),
        make_term(-1, (1, 2, 4), (1, 3, 5)),
        make_term(1, (1, 2, 5), (1, 3, 4)),
    )
    trivial = canonicalize(raw_equation(params63, (1, 2), (1, 2, 3, 4), 1))
    assert trivial.terms == ()
    assert trivial.is_trivial


def test_top_stratum_collapse_divides_gcd(params63):
    raw = raw_equation(params63, (1,), (1, 2, 3, 4, 5), 2)
    assert len(raw.terms) == 6
    collected = collect_terms(raw.terms)
    assert sorted(abs(c) for c in collected.values()) == [2, 2, 2]
    canon = canonicalize(raw)
    assert len(canon.terms) == 3
    assert all(term.coefficient in (1, -1) for term in canon.terms)


def test_canonicalize_idempotent(pluckerlike63):
    for eq in pluckerlike63:
        once = canonicalize(eq)
        assert canonicalize(once) == once


def _reference_canonical(terms):
    # The definition the keyed-sort canonicalize must meet: collect like
    # monomials in a dict, drop zero sums, sort, divide by the gcd, and
    # sign so the first term is positive.
    acc = {}
    for coefficient, left, right in terms:
        acc[left, right] = acc.get((left, right), 0) + coefficient
    collected = sorted((key, c) for key, c in acc.items() if c)
    if not collected:
        return ()
    divisor = 0
    for _, c in collected:
        divisor = gcd(divisor, c)
    if collected[0][1] < 0:
        divisor = -divisor
    return tuple(QuadTerm(c // divisor, left, right) for (left, right), c in collected)


# A few multi-indices, so that like monomials and cancellations are common.
_FEW_INDICES = st.sampled_from([(1, 2, 3), (1, 2, 4), (1, 3, 5), (2, 4, 6)])
_TERM_LISTS = st.lists(
    st.builds(make_term, st.integers(-3, 3).filter(bool), _FEW_INDICES, _FEW_INDICES),
    max_size=12,
)


@given(_TERM_LISTS, st.integers(1, 6))
@example([], 1)  # the empty equation
@example([make_term(1, (1, 2, 3), (2, 4, 6)), make_term(-1, (1, 2, 3), (2, 4, 6))], 1)  # cancels to 0
@example([make_term(-1, (1, 2, 4), (1, 2, 4)), make_term(2, (1, 2, 3), (1, 2, 3))], 3)  # negative first term
@example([make_term(1, (1, 2, 3), (1, 3, 5)), make_term(1, (1, 3, 5), (1, 2, 3))], 2)  # duplicates, gcd 4
def test_canonicalize_matches_reference(params63, terms, scale):
    terms = [QuadTerm(scale * c, left, right) for c, left, right in terms]
    eq = QuadraticEquation(params63, ((1, 2), (1, 3, 4, 5)), tuple(terms))
    canon = canonicalize(eq)
    assert canon.terms == _reference_canonical(terms)
    assert (canon.params, canon.label) == (eq.params, eq.label)
    assert canonicalize(canon) == canon
    # A term whose coefficient is unchanged is the input's own object.
    for term in canon.terms:
        same_monomial = [t for t in terms if (t.left, t.right) == (term.left, term.right)]
        if same_monomial == [term]:
            assert same_monomial[0] is term


@given(_TERM_LISTS, st.sampled_from([c for c in range(-6, 7) if c]))
@example([], -1)  # the empty equation
@example([make_term(1, (1, 2, 3), (2, 4, 6)), make_term(-1, (1, 2, 3), (2, 4, 6))], 5)  # cancels to 0
@example([make_term(-1, (1, 2, 4), (1, 2, 4)), make_term(2, (1, 2, 3), (1, 2, 3))], -6)  # negative first term
def test_canonicalize_ignores_nonzero_scaling(params63, terms, scale):
    # The pair check in structure rests on this: an exact identity
    # E_i +- E_i2 = 2*(-1)**i2 * target already gives equal canonical forms.
    label = ((1, 2), (1, 3, 4, 5))
    scaled = [QuadTerm(scale * c, left, right) for c, left, right in terms]
    assert (
        canonicalize(QuadraticEquation(params63, label, tuple(scaled))).terms
        == canonicalize(QuadraticEquation(params63, label, tuple(terms))).terms
    )


def _reference_collect_terms(terms):
    # collect_terms as one dict-building loop of its own, before it became
    # the weight-1 case of collect_weighted.
    acc = {}
    for term in terms:
        key = (term.left, term.right)
        total = acc.get(key, 0) + term.coefficient
        if total:
            acc[key] = total
        elif key in acc:
            del acc[key]
    return acc


@given(_TERM_LISTS, _TERM_LISTS, st.integers(-3, 3))
@example([], [], 1)  # the empty list
@example([make_term(2, (1, 2, 3), (2, 4, 6)), make_term(-2, (1, 2, 3), (2, 4, 6))], [], 1)  # cancels to 0
@example(
    [make_term(1, (1, 2, 3), (1, 3, 5)), make_term(-1, (1, 2, 3), (1, 3, 5)),
     make_term(1, (1, 2, 4), (1, 2, 4)), make_term(3, (1, 2, 3), (1, 3, 5))],
    [make_term(1, (1, 2, 4), (1, 2, 4))],
    -1,
)  # a monomial that cancels and comes back, repeated monomials
def test_collect_terms_matches_reference(params63, terms, more, weight):
    collected = collect_terms(terms)
    reference = _reference_collect_terms(terms)
    assert list(collected.items()) == list(reference.items())  # same map, same order
    assert collect_terms(iter(terms)) == reference  # one-shot iterables are read once
    # The weighted loop is the collection of the raw linear combination.
    combination = linear_combination(
        [(1, QuadraticEquation(params63, ((), ()), tuple(terms))),
         (weight, QuadraticEquation(params63, ((), ()), tuple(more)))],
        params63,
    )
    combined = _reference_collect_terms(combination.terms)
    assert collect_weighted([(1, terms), (weight, more)]) == combined
    assert not collect_weighted([(1, terms), (-1, terms)])


def test_canonicalize_tells_raw_from_canonical_up_to_n_8():
    for n in range(1, 9):
        for p in range(1, n + 1):
            params = GrassmannParams(n, p)
            for m in range(1, min(p, n - p) + 1):
                for eq in gen_generalized(params, m):
                    reference = _reference_canonical(eq.terms)
                    canon = canonicalize(eq)
                    assert canon.terms == reference, (n, p, m, eq.label)
                    assert (eq.terms == canon.terms) == (eq.terms == reference)
                    assert canonicalize(canon).terms == canon.terms


def test_canonical_coefficients_unit_for_m_1_and_2():
    for n in range(4, 8):
        for p in range(2, n - 1):
            params = GrassmannParams(n, p)
            for system in (gen_plucker(params), gen_plucker_like(params)):
                for eq in system:
                    canon = canonicalize(eq)
                    assert all(t.coefficient in (1, -1) for t in canon.terms)


def test_dedupe_6_3(plucker63, pluckerlike63):
    reduced, multiplicity = dedupe(plucker63)
    assert len(reduced) == 45
    three_term = [eq for eq in reduced if len(eq.terms) == 3]
    assert len(three_term) == 30
    for eq in three_term:
        assert len(multiplicity[eq.terms]) == 4
    reduced_like, _ = dedupe(pluckerlike63)
    assert len(reduced_like) == 36


def test_dedupe_matches_published_reduced_table(plucker63, golden_reduced):
    reduced, _ = dedupe(plucker63)
    assert {eq.terms for eq in reduced} == {row.terms for row in golden_reduced}


def test_dedupe_first_occurrence_order(plucker63):
    reduced, _ = dedupe(plucker63)
    by_terms = {eq.terms: pos for pos, eq in enumerate(reduced)}
    seen = set()
    expected = []
    for eq in plucker63:
        canon = canonicalize(eq)
        if canon.terms and canon.terms not in seen:
            seen.add(canon.terms)
            expected.append(canon.terms)
    assert [eq.terms for eq in reduced] == expected
    assert len(by_terms) == len(reduced)


def _rows(equations):
    """Each equation as the row ``(label, terms)`` that ``_canonical_rows`` yields."""
    return [(eq.label, list(eq.terms)) for eq in equations]


def _check_canonical_stream(sizes):
    # The lifted block forms against canonicalize on each raw equation, and
    # the first_only stream against dedupe, at every p and m for each n.
    labels = expected = 0
    for n in sizes:
        for p in range(1, n):
            params = GrassmannParams(n, p)
            for m in range(1, min(p, n - p) + 1):
                canonical = [canonicalize(eq) for eq in _raw_equations(params, m)]
                assert list(_canonical_rows(params, m)) == _rows(canonical), (n, p, m)
                reduced, _ = dedupe(gen_generalized(params, m))
                assert list(_canonical_rows(params, m, first_only=True)) == _rows(reduced), (n, p, m)
                labels += len(canonical)
                expected += comb(n, p - m) * comb(n, p + m)
    assert labels == expected


def test_canonical_stream_is_canonicalize_and_dedupe_up_to_n9():
    _check_canonical_stream(range(2, 10))


@pytest.mark.slow
def test_canonical_stream_is_canonicalize_and_dedupe_at_n10():
    _check_canonical_stream([10])


def test_canonical_stream_reads_raw_equation_on_each_call(monkeypatch):
    # A block form is built per call, from the raw_equation of that moment:
    # with the last raw term dropped, the second call's forms follow it.
    import pluckereqs.equations

    params = GrassmannParams(7, 3)
    before = list(_canonical_rows(params, 2))
    raw = pluckereqs.equations.raw_equation

    def dropped(params, j, k, m):
        eq = raw(params, j, k, m)
        return QuadraticEquation(eq.params, eq.label, eq.terms[:-1])

    monkeypatch.setattr(pluckereqs.equations, "raw_equation", dropped)
    after = list(_canonical_rows(params, 2))
    assert after != before
    assert after == _rows(canonicalize(eq) for eq in _raw_equations(params, 2))


def test_canonical_stream_checks_its_width_when_called():
    with pytest.raises(ValueError, match="m must satisfy"):
        _canonical_rows(GrassmannParams(6, 3), 4)


def test_gen_generalized_matches_named_generators(params63):
    assert gen_generalized(params63, 1) == gen_plucker(params63)
    assert gen_generalized(params63, 2) == gen_plucker_like(params63)


def test_gen_generalized_m3_count(params63):
    system = gen_generalized(params63, 3)
    assert len(system) == comb(6, 0) * comb(6, 6) == 1


def test_generator_range_errors():
    with pytest.raises(ValueError):
        gen_plucker(GrassmannParams(5, 5))
    with pytest.raises(ValueError):
        gen_plucker_like(GrassmannParams(6, 5))
    with pytest.raises(ValueError):
        gen_generalized(GrassmannParams(6, 3), 4)
    with pytest.raises(ValueError):
        gen_generalized(GrassmannParams(6, 3), 0)


def test_raw_equation_validates_label(params63):
    with pytest.raises(ValueError):
        raw_equation(params63, (1, 2, 3), (1, 2, 3, 4), 1)
    with pytest.raises(ValueError):
        raw_equation(params63, (1, 7), (1, 2, 3, 4), 1)


def test_raw_equation_validates_every_call_after_caching(params63):
    # After this call (1, 2) and (1, 2, 3, 4) are cached as validated.
    eq = raw_equation(params63, (1, 2), (1, 2, 3, 4), 1)
    j, k = eq.label
    assert eq.label == ((1, 2), (1, 2, 3, 4))
    assert raw_equation(params63, [1, 2], iter((1, 2, 3, 4)), 1) == eq
    # Equal tuples of floats or bools are still refused.
    for bad_j in ((1.0, 2), (True, 2)):
        with pytest.raises(ValueError, match="integers"):
            raw_equation(params63, bad_j, k, 1)
    for bad_k in ((1.0, 2, 3, 4), (True, 2, 3, 4)):
        with pytest.raises(ValueError, match="integers"):
            raw_equation(params63, j, bad_k, 1)
    # A tuple interned at n = 10 is refused under n = 6.
    wide = raw_equation(GrassmannParams(10, 3), (1, 10), (1, 2, 3, 10), 1)
    with pytest.raises(ValueError, match="1..6"):
        raw_equation(params63, wide.label[0], k, 1)
    with pytest.raises(ValueError, match="1..6"):
        raw_equation(params63, j, wide.label[1], 1)
    # A cached tuple of the wrong size is refused.
    term_index = eq.terms[0].left
    with pytest.raises(ValueError, match="entries"):
        raw_equation(params63, term_index, k, 1)
    with pytest.raises(ValueError, match="entries"):
        raw_equation(params63, k, j, 1)
    with pytest.raises(ValueError, match="entries"):
        raw_equation(params63, j, k, 2)


def test_cardinality_and_ratio_small_range():
    for n in range(4, 10):
        for p in range(2, n - 1):
            params = GrassmannParams(n, p)
            one = len(gen_plucker(params))
            two = len(gen_plucker_like(params))
            assert one == comb(n, p - 1) * comb(n, p + 1)
            assert two == comb(n, p - 2) * comb(n, p + 2)
            assert Fraction(one, two) == size_ratio(params)


def test_size_ratio_value(params63):
    assert size_ratio(params63) == Fraction(225, 36)
    with pytest.raises(ValueError):
        size_ratio(GrassmannParams(6, 5))


def test_parallel_generation_matches_sequential(params63):
    assert gen_plucker(params63, jobs=4) == gen_plucker(params63)
    assert gen_plucker_like(params63, jobs=3) == gen_plucker_like(params63)


def test_linear_combination_collects():
    params = GrassmannParams(6, 3)
    eq = raw_equation(params, (1, 2), (1, 3, 4, 5), 1)
    doubled = linear_combination([(1, eq), (1, eq)], params)
    collected = collect_terms(doubled.terms)
    assert all(abs(c) == 2 for c in collected.values())
    cancelled = linear_combination([(1, eq), (-1, eq)], params)
    assert canonicalize(cancelled).terms == ()


def _tuple_reference_equation(params, j, k, m):
    # The docstring formula on tuples: one term per m-subset ii of k \ j,
    # sign (-1)**<j^k | ii>, monomial lam_{j + ii} * lam_{k - ii}.
    sym = symmetric_difference(j, k)
    terms = tuple(
        make_term(-1 if inversion_pairs(sym, ii) & 1 else 1, ordered_union(j, ii), difference(k, ii))
        for ii in combinations(difference(k, j), m)
    )
    return QuadraticEquation(params, (j, k), terms)


def test_bitmask_kernel_matches_tuple_reference():
    labels = 0
    for n in range(1, 9):
        for p in range(1, n + 1):
            params = GrassmannParams(n, p)
            for m in range(1, min(p, n - p) + 1):
                for j in combinations(params.indices, p - m):
                    for k in combinations(params.indices, p + m):
                        assert raw_equation(params, j, k, m) == _tuple_reference_equation(
                            params, j, k, m
                        ), (n, p, m, j, k)
                        labels += 1
    assert labels == sum(
        comb(n, p - m) * comb(n, p + m)
        for n in range(1, 9)
        for p in range(1, n + 1)
        for m in range(1, min(p, n - p) + 1)
    )



def test_raw_rows_are_raw_equation_on_masks():
    # Each row of _raw_rows, its masks read back as sorted index tuples and
    # each monomial put in left <= right order, is raw_equation at its
    # label: the same labels in system order, signs, monomials and term order.
    def indices(mask):
        return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)

    labels = 0
    for n in range(2, 10):
        for p in range(1, n):
            params = GrassmannParams(n, p)
            for m in range(1, min(p, n - p) + 1):
                expected = iter(_raw_equations(params, m))
                for label, terms in _raw_rows(params, m):
                    eq = next(expected)
                    mapped = tuple(
                        (sign, *sorted((indices(left), indices(right)))) for sign, left, right in terms
                    )
                    assert (label, mapped) == (eq.label, eq.terms), (n, p, m, label)
                    labels += 1
                assert next(expected, None) is None
    assert labels == sum(
        comb(n, p - m) * comb(n, p + m)
        for n in range(2, 10) for p in range(1, n) for m in range(1, min(p, n - p) + 1)
    )

def _permutation_sign(seq):
    """The sign of the permutation that sorts ``seq``: (-1) ** inversions."""
    return -1 if sum(a > b for a, b in combinations(seq, 2)) % 2 else 1


def _contraction_coefficient(params, j, k):
    """The e_k coefficient of (iota_{e^j} h) ^ h for h = sum_A h_A e_A.

    As a map from the monomial h_A h_B, keyed ``(A, B)`` in sorted order, to
    its non-zero integer coefficient.  ``iota_{e^j} e_A = sgn(j || A \\ j)
    e_{A \\ j}`` when j lies in A, else 0, and ``e_C ^ e_B = sgn(C || B)
    e_k`` when C and B partition k, else 0; ``sgn(x || y)`` is the sign of
    the concatenation.
    """
    coefficients = Counter()
    for a in combinations(params.indices, params.p):
        c = tuple(x for x in a if x not in j)
        if len(c) + len(j) == len(a) and set(c) <= set(k):
            b = tuple(x for x in k if x not in c)
            coefficients[min(a, b), max(a, b)] += _permutation_sign(j + c) * _permutation_sign(c + b)
    return {key: value for key, value in coefficients.items() if value}


def test_raw_equation_is_the_contraction_coefficient():
    """``raw_equation(params, j, k, m)`` is the e_k coefficient of (iota_{e^j} h) ^ h.

    Exactly: its collected terms are ``(-1) ** (m*p + m*(m-1)/2)`` times
    that coefficient, one sign for the whole system, at every label with
    n <= 8 and every m, trivial labels included.  The parity: with ``D = j
    & k``, ``K' = k \\ j`` and the moved set ``ii`` in ``K'``, the pairs of
    ``D`` with ``ii`` give ``|D| m`` inversions, those of ``ii`` with ``K'
    \\ ii`` give ``m (|K'| - m)`` across the two sides, those within ``ii``
    give ``m(m-1)/2`` on the raw side only, and ``|K'| = p + m - |D|``.
    """
    assert sum(_contraction_identity_labels(n) for n in range(2, 9)) == 13057


@pytest.mark.slow
def test_raw_equation_is_the_contraction_coefficient_at_n9():
    assert _contraction_identity_labels(9) == 41226


def _contraction_identity_labels(n):
    """Assert the contraction identity, with its global sign, at every label
    at n, every p and every m; return the number of labels."""
    labels = 0
    for p in range(1, n):
        params = GrassmannParams(n, p)
        for m in range(1, min(p, n - p) + 1):
            sign = -1 if (m * p + m * (m - 1) // 2) % 2 else 1
            for j in combinations(params.indices, p - m):
                for k in combinations(params.indices, p + m):
                    expected = _contraction_coefficient(params, j, k)
                    collected = collect_terms(raw_equation(params, j, k, m).terms)
                    assert collected == {key: sign * c for key, c in expected.items()}, (n, p, j, k)
                    labels += 1
    return labels


def test_generated_terms_share_one_tuple_per_multiindex():
    params = GrassmannParams(8, 4)
    ids = {
        id(idx)
        for system in (gen_plucker(params), gen_plucker_like(params))
        for eq in system
        for term in eq.terms
        for idx in (term.left, term.right)
    }
    assert len(ids) <= comb(8, 4)


def _sign(idx):
    # The sign of the permutation (I, I^c): (-1) ** (sum(I) - |I|(|I|+1)/2).
    return -1 if (sum(idx) - len(idx) * (len(idx) + 1) // 2) % 2 else 1


def test_complement_duality():
    # lam_I -> sign(I) * lam_{I^c} sends the canonical E_m(j, k) at (n, p) to
    # the canonical E_m(k^c, j^c) at (n, n-p), label by label.  Both labels
    # have the symmetric difference j ^ k and the same moved sets, so this
    # fails a sign rule that reads j or k beyond j ^ k; one that reads only
    # j ^ k and the moved set is checked by the tuple reference above.
    labels = 0
    for n in range(4, 9):
        for p in range(1, n):
            params, dual = GrassmannParams(n, p), GrassmannParams(n, n - p)

            def complement(idx):
                return difference(params.indices, idx)

            for m in range(1, min(p, n - p) + 1):
                for j in combinations(params.indices, p - m):
                    for k in combinations(params.indices, p + m):
                        terms = tuple(
                            make_term(c * _sign(a) * _sign(b), complement(a), complement(b))
                            for c, a, b in canonicalize(raw_equation(params, j, k, m)).terms
                        )
                        mapped = canonicalize(QuadraticEquation(dual, (), terms))
                        expected = canonicalize(raw_equation(dual, complement(k), complement(j), m))
                        assert mapped.terms == expected.terms, (n, p, m, j, k)
                        labels += 1
    assert labels == 13_050


@pytest.mark.parametrize("one", [1.0, True], ids=["float", "bool"])
@pytest.mark.parametrize(
    "reader",
    ["GrassmannParams.multiindex", "raw_equation", "system_from_dict", "chunked_reader", "pvector_from_json"],
)
def test_twin_of_a_cached_multiindex_is_refused(monkeypatch, reader, one):
    # 1.0 and True compare equal to 1, so [1.0, 2, 3] finds the intern table
    # entry of (1, 2, 3); every reader must still refuse it, and keep nothing.
    import io
    import json

    import pluckereqs.documents
    from pluckereqs import pvector_from_json, system_from_dict
    from pluckereqs.render import _load_system

    params = GrassmannParams(6, 3)
    monkeypatch.setattr(pluckereqs.documents, "_CHUNK", 7)

    def read(first):
        idx = [first, 2, 3]
        if reader == "GrassmannParams.multiindex":
            return params.multiindex(idx, 3)
        if reader == "raw_equation":
            return raw_equation(params, idx[:1], [1, 2, 3, 4, 5], 2)
        if reader == "pvector_from_json":
            coeffs = [{"idx": idx, "re": "1"}]
            return pvector_from_json(json.dumps({"n": 6, "p": 3, "field": "Q", "coeffs": coeffs}))
        terms = [{"c": 1, "left": idx, "right": [1, 4, 5]}]
        equation = {"j": [1], "k": [1, 2, 3, 4, 5], "terms": terms}
        system = {"n": 6, "p": 3, "m": 2, "equations": [equation]}
        if reader == "system_from_dict":
            return system_from_dict(system)
        return _load_system(io.StringIO(json.dumps(system)))

    read(1)  # interns the multi-index of ints
    recorded = len(_INTERNED)
    with pytest.raises(ValueError, match="multi-index entries must be integers"):
        read(one)
    assert len(_INTERNED) == recorded


def test_reading_a_multiindex_builds_no_mask_of_its_entries():
    # A bitmask has as many bits as the largest entry, 12.5 MB at this n;
    # the readers build none, so a short document costs little at any n.
    import json
    import tracemalloc

    from pluckereqs import pvector_from_json, system_from_json

    n = 10**8
    pvector_text = json.dumps(
        {"n": n, "p": 2, "field": "Q", "coeffs": [{"idx": [1, n], "re": "1"}]}
    )
    term = {"c": 1, "left": [1, n], "right": [2, n]}
    system_text = json.dumps(
        {"n": n, "p": 2, "m": 1, "equations": [{"j": [n], "k": [1, 2, n], "terms": [term]}]}
    )
    tracemalloc.start()
    try:
        pvector_from_json(pvector_text)
        system_from_json(system_text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
