import json
import weakref
from collections import Counter
from itertools import combinations
from math import comb

import pytest

import pluckereqs.equations
import pluckereqs.structure
from pluckereqs import (
    EquationSystem,
    GrassmannParams,
    QuadraticEquation,
    QuadTerm,
    ProbeReport,
    canonicalize,
    stratum_probe,
    census,
    check_pair_combine,
    check_decomposition,
    collect_terms,
    gen_plucker,
    gen_plucker_like,
    linear_combination,
    multinomial,
    pair_combine,
    pair_families,
    one_index_decomposition,
    raw_equation,
    strip,
    symmetric_difference,
    verify_structure,
)
from pluckereqs.equations import _canonical_rows, _raw_equations
from pluckereqs.multiindex import _INTERNED


def _patch_raw_equation(monkeypatch, change):
    """Make the generator and the structural checks read every raw equation through ``change``."""
    def changed(params, j, k, m):
        return change(raw_equation(params, j, k, m))

    monkeypatch.setattr(pluckereqs.equations, "raw_equation", changed)
    monkeypatch.setattr(pluckereqs.structure, "raw_equation", changed)


def _corrupt_lifts(monkeypatch, corruptions):
    """Corrupt a block label and every label that strips to it, at every (n, p).

    ``corruptions`` maps ``(m, strip label)`` to a change of the raw
    equation.  Lifting keeps term order, so a change by term position is
    the same change at every lift, and the per-label reference, which
    reads the patched generator, sees what the blocks see.
    """
    def corrupt(eq):
        m = len(eq.label[1]) - eq.params.p
        change = corruptions.get((m, strip(eq.params, eq.label)))
        return change(eq) if change else eq

    _patch_raw_equation(monkeypatch, corrupt)


def _drop_last_term(eq):
    return QuadraticEquation(eq.params, eq.label, eq.terms[:-1])


def _flip_first_term(eq):
    first = eq.terms[0]
    terms = (QuadTerm(-first.coefficient, first.left, first.right),) + eq.terms[1:]
    return QuadraticEquation(eq.params, eq.label, terms)


class _RawReads:
    """Every raw equation the structural checks generate, and those still alive.

    Installed as ``raw_equation`` in ``equations``, where the block reader
    ``_block_forms`` reads it, and in ``structure``; the whole-system
    generator is made to fail, so a check that reads a system is caught.
    """

    def __init__(self, monkeypatch):
        self.calls = Counter()
        self.live: dict[int, weakref.ref] = {}
        self.peak = 0

        def whole_system(params, m):
            raise AssertionError(f"a structural check generated the whole m={m} system")

        monkeypatch.setattr(pluckereqs.equations, "raw_equation", self)
        monkeypatch.setattr(pluckereqs.structure, "raw_equation", self)
        monkeypatch.setattr(pluckereqs.equations, "_raw_equations", whole_system)

    def __call__(self, params, j, k, m):
        eq = raw_equation(params, j, k, m)
        self.calls[params, eq.label, m] += 1
        key = id(eq)
        self.live[key] = weakref.ref(eq, lambda _ref, key=key: self.live.pop(key))
        self.peak = max(self.peak, len(self.live))
        return eq

    def all_on_blocks(self, params):
        """Every call is on a q = 0 label of some ``GrassmannParams(2r, r)``, r <= min(p, n-p)."""
        blocks = {GrassmannParams(2 * r, r) for r in range(2, min(params.p, params.n - params.p) + 1)}
        return all(at in blocks and not set(j) & set(k) for at, (j, k), _ in self.calls)


def test_one_index_decomposition_validates_labels(params63):
    with pytest.raises(ValueError):
        one_index_decomposition(params63, (1, 2), (1, 2, 3, 4, 5))
    with pytest.raises(ValueError, match="1..6"):
        one_index_decomposition(params63, [7], [1, 2, 3, 4, 8])


def test_structure_reads_hit_the_generated_tuples():
    # Once both systems are generated, every label that strip and the
    # decomposition read is found in the intern table: nothing new is kept.
    params = GrassmannParams(7, 3)
    one_labels = {eq.label for eq in gen_plucker(params)}
    two = gen_plucker_like(params)
    recorded = len(_INTERNED)
    for eq in two:
        j, k = list(eq.label[0]), list(eq.label[1])
        assert strip(params, (j, k))[0] == params.p - len(set(j) & set(k))
        assert {label for _, label in one_index_decomposition(params, j, k)} <= one_labels
        assert check_decomposition(params, j, k)
    assert len(_INTERNED) == recorded


def test_census_6_3(params63):
    report = census(params63)
    assert report.ok
    assert report.three_term.observed == 30
    assert report.ten_term.observed == 6
    assert report.larger_strata == {}
    assert report.families_observed == 1
    assert report.total_observed == 36


def test_census_top_stratum_equals_three_term_reduced_subset(
    params63, pluckerlike63, plucker63
):
    from pluckereqs import dedupe

    reduced, _ = dedupe(plucker63)
    three_term = {eq.terms for eq in reduced if len(eq.terms) == 3}
    top_stratum_terms = set()
    for eq in pluckerlike63:
        j, k = eq.label
        if len(set(j) & set(k)) == params63.p - 2:
            top_stratum_terms.add(canonicalize(eq).terms)
    assert top_stratum_terms == three_term
    assert len(top_stratum_terms) == 30


def test_census_8_4_large_stratum():
    report = census(GrassmannParams(8, 4))
    assert report.ok
    entry = report.larger_strata[0]
    assert entry.observed == 28 == multinomial(8, [0, 2, 6, 0])
    assert entry.expected_terms == comb(6, 2) == 15
    assert entry.observed_terms == (15,)


def test_census_range_error():
    with pytest.raises(ValueError):
        census(GrassmannParams(6, 5))


def test_one_index_decomposition_labels_and_signs(params63):
    expansion = one_index_decomposition(params63, (1,), (2, 3, 4, 5, 6))
    assert expansion == [
        (1, ((1, 2), (3, 4, 5, 6))),
        (-1, ((1, 3), (2, 4, 5, 6))),
        (1, ((1, 4), (2, 3, 5, 6))),
        (-1, ((1, 5), (2, 3, 4, 6))),
        (1, ((1, 6), (2, 3, 4, 5))),
    ]


def test_decomposition_identity_all_labels_6_3(params63, pluckerlike63):
    for eq in pluckerlike63:
        assert check_decomposition(params63, *eq.label)
        # One-shot iterables are read once, not consumed by validation.
        assert check_decomposition(params63, iter(eq.label[0]), iter(eq.label[1]))


def test_decomposition_identity_with_j_inside_k():
    # j subset of k: four signed labels, right side a doubled 3-term class.
    params = GrassmannParams(6, 4)
    label = ((1, 2), (1, 2, 3, 4, 5, 6))
    expansion = one_index_decomposition(params, *label)
    assert len(expansion) == 4
    assert [j for _, (j, _) in expansion] == [
        (1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 2, 6),
    ]
    assert check_decomposition(params, *label)
    assert len(canonicalize(raw_equation(params, *label, 2)).terms) == 3


def test_decomposition_identity_raw_doubling(params63):
    # The signed one-index sum equals exactly twice the raw two-index form.
    label = ((1,), (2, 3, 4, 5, 6))
    parts = [
        (sign, raw_equation(params63, j, k, 1))
        for sign, (j, k) in one_index_decomposition(params63, *label)
    ]
    lhs = collect_terms(linear_combination(parts, params63).terms)
    rhs = collect_terms(raw_equation(params63, *label, 2).terms)
    assert lhs == {key: 2 * value for key, value in rhs.items()}


def test_decomposition_identity_every_label_up_to_n8():
    for n in range(4, 9):
        for p in range(2, n - 1):
            params = GrassmannParams(n, p)
            for eq in gen_plucker_like(params):
                assert check_decomposition(params, *eq.label)


def test_pair_families_6_3(params63):
    families = pair_families(params63)
    assert len(families) == 1
    family = families[0]
    assert family.q == ()
    assert family.l == (1, 2, 3, 4, 5, 6)
    assert family.members == tuple(
        ((i,), tuple(x for x in range(1, 7) if x != i)) for i in range(1, 7)
    )


def test_pair_families_counts():
    assert len(pair_families(GrassmannParams(7, 4))) == 7
    assert len(pair_families(GrassmannParams(7, 3))) == 7
    assert pair_families(GrassmannParams(6, 2)) == []
    assert pair_families(GrassmannParams(6, 4)) == []


def test_family_members_share_monomials(params63, pluckerlike63):
    family = pair_families(params63)[0]
    canons = [
        canonicalize(raw_equation(params63, j, k, 2)) for j, k in family.members
    ]
    supports = {frozenset((t.left, t.right) for t in eq.terms) for eq in canons}
    assert len(supports) == 1
    assert all(len(eq.terms) == 10 for eq in canons)
    assert len({eq.terms for eq in canons}) == 6
    assert ((1, 2, 3), (4, 5, 6)) in next(iter(supports))


def test_pair_combine_6_3_all_pairs(params63):
    family = pair_families(params63)[0]
    results = set()
    for i, i2 in combinations(range(1, 7), 2):
        assert check_pair_combine(params63, family, i, i2)
        combined = pair_combine(params63, family, i, i2)
        assert len(combined.terms) == 4
        target = canonicalize(
            raw_equation(
                params63,
                tuple(sorted((family.l[i - 1], family.l[i2 - 1]))),
                tuple(x for x in range(1, 7) if x not in (family.l[i - 1], family.l[i2 - 1])),
                1,
            )
        )
        assert combined.terms == target.terms
        results.add(combined.terms)
    assert len(results) == 15


def test_pair_combine_identifies_moved_indices(params63):
    # The two chosen entries are the ones appearing together in exactly one
    # factor of every monomial of the result.
    family = pair_families(params63)[0]
    for i, i2 in combinations(range(1, 7), 2):
        chosen = {family.l[i - 1], family.l[i2 - 1]}
        combined = pair_combine(params63, family, i, i2)
        for term in combined.terms:
            left, right = set(term.left), set(term.right)
            assert chosen <= left or chosen <= right
            assert not (chosen <= left and chosen <= right)


def test_pair_combine_rejects_bad_indices(params63):
    family = pair_families(params63)[0]
    with pytest.raises(ValueError):
        pair_combine(params63, family, 2, 2)
    with pytest.raises(ValueError):
        pair_combine(params63, family, 0, 3)


def test_pair_combine_identity_7_3_and_7_4():
    for n, p in ((7, 3), (7, 4)):
        params = GrassmannParams(n, p)
        for family in pair_families(params):
            for i, i2 in combinations(range(1, 7), 2):
                assert check_pair_combine(params, family, i, i2)


def test_stratum_probe_8_4():
    report = stratum_probe(GrassmannParams(8, 4), 0)
    assert report.admissible
    assert report.equation_count == 28
    # Supports are pairwise distinct, so no same-support combination exists.
    assert report.support_group_sizes == ((1, 28),)
    assert report.combinations_tried == 0
    assert report.collapses == ()
    assert 0 < report.max_support_overlap < 15
    assert report.note == "exploratory - no claim"


def test_stratum_probe_skips_one_index_system_without_groups(monkeypatch):
    # Every support group at (9,4) q=0 is a singleton: nothing to search,
    # so no one-index equation is generated, and no system is built.
    reads = _RawReads(monkeypatch)
    report = stratum_probe(GrassmannParams(9, 4), 0)
    assert report.admissible
    assert report.combinations_tried == 0
    assert reads.calls and {m for _, _, m in reads.calls} == {2}


def test_probe_overlap_matches_pairwise_brute_force():
    # The inverted-index overlap equals the quadratic definition, the largest
    # |a & b| over pairs of distinct supports, at every admissible stratum
    # with n <= 9.
    strata = [
        (n, p, q)
        for n in range(4, 10)
        for p in range(2, n - 1)
        for q in range(max(0, 2 * p - n), p - 3)
    ]
    assert strata == [(8, 4, 0), (9, 4, 0), (9, 5, 1)]
    for n, p, q in strata:
        params = GrassmannParams(n, p)
        supports = {
            frozenset((t.left, t.right) for t in canonicalize(eq).terms)
            for eq in gen_plucker_like(params)
            if len(set(eq.label[0]) & set(eq.label[1])) == q
        }
        brute = max((len(a & b) for a, b in combinations(supports, 2)), default=0)
        assert stratum_probe(params, q).max_support_overlap == brute > 0, (n, p, q)
    max_overlap = pluckereqs.structure._max_overlap
    assert max_overlap([]) == 0
    assert max_overlap([frozenset({1, 2})]) == 0
    assert max_overlap([frozenset({1, 2}), frozenset({3})]) == 0
    assert max_overlap([frozenset({1, 2, 3}), frozenset({2, 3, 4}), frozenset({1, 3, 4})]) == 2


def test_stratum_probe_equals_full_system_filter(monkeypatch):
    # The probe reads one weight block.  Its report equals the one read off
    # the whole two-index system filtered by stratum, at every admissible
    # (n, p, q) with n <= 10, and that system is never generated.
    strata = [
        (n, p, q)
        for n in range(4, 11)
        for p in range(2, n - 1)
        for q in range(max(0, 2 * p - n), p - 3)
    ]
    assert strata == [
        (8, 4, 0), (9, 4, 0), (9, 5, 1), (10, 4, 0), (10, 5, 0), (10, 5, 1), (10, 6, 2)
    ]
    expected = {}
    for n, p, q in strata:
        supports = Counter(
            frozenset((t.left, t.right) for t in canonicalize(eq).terms)
            for eq in gen_plucker_like(GrassmannParams(n, p))
            if len(set(eq.label[0]) & set(eq.label[1])) == q
        )
        expected[n, p, q] = ProbeReport(
            n=n, p=p, q_size=q, admissible=True,
            equation_count=sum(supports.values()),
            support_group_sizes=tuple(sorted(Counter(supports.values()).items())),
            max_support_overlap=pluckereqs.structure._max_overlap(supports),
        )
        assert expected[n, p, q].equation_count == multinomial(
            n, [q, p - 2 - q, p + 2 - q, n + q - 2 * p]
        )

    def whole_system(params, m):
        raise AssertionError(f"the probe generated the whole m={m} system")

    monkeypatch.setattr(pluckereqs.equations, "_raw_equations", whole_system)
    for (n, p, q), report in expected.items():
        assert stratum_probe(GrassmannParams(n, p), q) == report, (n, p, q)


def test_stratum_probe_reads_one_weight_block(monkeypatch):
    # At (12,6) q = 1, r = 5: the probe reads the C(10, 3) labels of the
    # block Gr(5, 10) and no equation of the 15,840 in the stratum.
    calls = []

    def recording(params, j, k, m):
        calls.append(params)
        return raw_equation(params, j, k, m)

    monkeypatch.setattr(pluckereqs.equations, "raw_equation", recording)
    monkeypatch.setattr(pluckereqs.structure, "raw_equation", recording)
    report = stratum_probe(GrassmannParams(12, 6), 1)
    assert calls == [GrassmannParams(10, 5)] * comb(10, 3)  # 120 calls
    assert report.equation_count == multinomial(12, [1, 3, 7, 1]) == 15840
    assert report.support_group_sizes == ((1, 15840),)


def test_large_stratum_support_determines_label():
    # The lemma of stratum_probe, checked on raw equations without the probe:
    # for q <= p-4 nothing cancels and the support of a label's two-index
    # equation determines the label; at q = p-3 every support is shared by
    # exactly six labels, so the bound q <= p-4 is sharp.
    large_labels = 0
    for n in range(6, 10):
        for p in range(3, n - 1):
            params = GrassmannParams(n, p)
            labels_by_support = {}
            for j in combinations(params.indices, p - 2):
                for k in combinations(params.indices, p + 2):
                    q_size = len(set(j) & set(k))
                    if q_size > p - 3:
                        continue
                    support = frozenset(collect_terms(raw_equation(params, j, k, 2).terms))
                    if q_size <= p - 4:
                        assert len(support) == comb(p + 2 - q_size, 2)
                        large_labels += 1
                    labels_by_support.setdefault((q_size, support), []).append((j, k))
            for (q_size, _), labels in labels_by_support.items():
                assert len(labels) == (1 if q_size <= p - 4 else 6), (n, p, labels)
    assert large_labels == sum(
        multinomial(n, [q, p - 2 - q, p + 2 - q, n + q - 2 * p])
        for n in range(6, 10)
        for p in range(4, n - 1)
        for q in range(max(0, 2 * p - n), p - 3)
    ) > 0


def test_stratum_probe_empty(params63):
    report = stratum_probe(params63, 0)
    assert not report.admissible
    assert report.equation_count == 0
    assert report.max_support_overlap == 0
    assert report.collapses == ()


def test_stratum_probe_json_round_trip(params63):
    # The package writes probe JSON and never reads it back: the text must
    # decode to exactly the report's dictionary form.
    for report in (stratum_probe(GrassmannParams(8, 4), 0), stratum_probe(params63, 1)):
        assert isinstance(report, ProbeReport)
        assert json.loads(report.to_json()) == report.to_dict()


def test_verify_structure_6_3(params63):
    report = verify_structure(params63)
    assert report.ok
    assert report.decompositions_checked == 36
    assert report.families_checked == 1
    assert report.combinations_checked == 15
    assert report.multiplicity_ok
    assert report.first_failure is None


def test_verify_structure_range_error():
    with pytest.raises(ValueError):
        verify_structure(GrassmannParams(6, 5))


def test_verify_structure_7_4():
    report = verify_structure(GrassmannParams(7, 4))
    assert report.ok
    assert report.families_checked == 7
    assert report.combinations_checked == 7 * 15


def test_verify_structure_reads_each_system_once_and_holds_none(monkeypatch):
    # verify_structure reads no system, at (n, p) or anywhere: every raw
    # equation it generates is on a q = 0 label of a block Gr(r, 2r), and
    # it reads both widths there.  At (8,4) at most two raw equations are
    # alive at once, and none is left at the end.
    params = GrassmannParams(8, 4)
    reads = _RawReads(monkeypatch)
    assert verify_structure(params).ok
    assert reads.all_on_blocks(params)
    assert {m for _, _, m in reads.calls} == {1, 2}
    assert 1 <= reads.peak <= 2
    assert not reads.live


def test_per_label_checks_catch_flipped_one_index_sign(monkeypatch):
    # Flip one one-index equation at (7,4): the public per-label checks fail
    # at the two two-index labels that decompose through it and at the one
    # pair that collapses to it.  verify_structure checks the identities on
    # the q = 0 blocks and reads no (n, p) one-index label, so a corruption
    # of one (n, p) label is this reference's to find.
    params = GrassmannParams(7, 4)
    flipped = ((1, 2, 3), (1, 4, 5, 6, 7))

    def flip(eq):
        if eq.label != flipped:
            return eq
        terms = tuple(QuadTerm(-t.coefficient, t.left, t.right) for t in eq.terms)
        return QuadraticEquation(eq.params, eq.label, terms)

    _patch_raw_equation(monkeypatch, flip)
    assert _per_label_failures(params) == (
        [((1, 2), (1, 3, 4, 5, 6, 7)), ((1, 3), (1, 2, 4, 5, 6, 7))],
        [((1,), (2, 3, 4, 5, 6, 7), 1, 2)],
    )


def test_verify_structure_names_corrupted_family_and_three_term_class(monkeypatch, capsys):
    # Drop a term of member 1 of the r = 3 block's family and flip the sign
    # of one term of a one-index label of the r = 2 block, and of every
    # label at (7,4) that strips to either.  verify_structure, which reads
    # only the blocks, names every family, every label that decomposes
    # through a corrupted label, every pair with member 1 and the 3-term
    # class, as the per-label reference at (7,4) does, and verify says FAIL.
    from pluckereqs.cli import main

    params = GrassmannParams(7, 4)
    dropped = pair_families(params)[0].members[0]
    flipped = ((1, 2, 3), (1, 2, 4, 5, 6))
    three_term = ((1, 2), (1, 2, 3, 4, 5, 6))
    assert strip(params, dropped) == (3, (1,), (2, 3, 4, 5, 6))
    assert strip(params, flipped) == (2, (1,), (2, 3, 4))
    _corrupt_lifts(monkeypatch, {
        (2, (3, (1,), (2, 3, 4, 5, 6))): _drop_last_term,
        (1, (2, (1,), (2, 3, 4))): _flip_first_term,
    })
    report = verify_structure(params)
    assert not report.ok and not report.census.ok
    assert report.census.to_dict() == _reference_census_dict(params)
    decomposition, combination = _per_label_failures(params)
    assert report.decomposition_failures == decomposition
    assert three_term in decomposition and dropped in decomposition
    assert report.combination_failures == combination
    assert combination == [
        (family.q, family.l, 1, i2) for family in pair_families(params) for i2 in range(2, 7)
    ]
    assert report.family_failures == _per_label_family_failures(params) == [
        (family.q, family.l) for family in pair_families(params)
    ]
    assert report.multiplicity_failures == _per_label_multiplicity_failures(params)
    assert three_term in report.multiplicity_failures
    assert report.first_failure == "census counts or distinctness"
    assert main(["verify", "--n", "7", "--p", "4"]) == 1
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == "VERIFY (n=7, p=4): FAIL at census counts or distinctness"


def test_verify_structure_names_family_with_a_foreign_monomial(params63, monkeypatch):
    # Swap one monomial of the block family's member 1 for one outside the
    # family's support: the member keeps 10 distinct terms and the census
    # passes, so only the one-support check can name the family.  The
    # identities that read the member fail with it.
    family = pair_families(params63)[0]
    swapped = family.members[0]

    def corrupt(eq):
        if eq.params != params63 or eq.label != swapped:
            return eq
        first = eq.terms[0]
        foreign = QuadTerm(first.coefficient, (1, 2, 3), (1, 2, 4))
        return QuadraticEquation(eq.params, eq.label, (foreign,) + eq.terms[1:])

    _patch_raw_equation(monkeypatch, corrupt)
    report = verify_structure(params63)
    assert report.census.ok
    assert report.family_failures == [(family.q, family.l)] == _per_label_family_failures(params63)
    assert report.decomposition_failures == [swapped]
    assert report.combination_failures == [(family.q, family.l, 1, i2) for i2 in range(2, 7)]
    assert report.multiplicity_ok


def test_verify_structure_names_families_missing_a_shared_monomial(monkeypatch):
    # Drop lam_123 lam_456 from every member of the r = 3 block's family, and
    # its lift from every 10-term label: each member keeps one support and a
    # form of its own, so only the 10-term count names the families.  The
    # report equals the per-label reference.
    def drop_shared(eq):
        j, k = eq.label
        if len(j) != eq.params.p - 2 or len(set(j) & set(k)) != eq.params.p - 3:
            return eq
        common, moved = sorted(set(j) & set(k)), sorted(set(j) ^ set(k))
        shared = tuple(
            tuple(sorted(common + [moved[x - 1] for x in half])) for half in ((1, 2, 3), (4, 5, 6))
        )
        return QuadraticEquation(
            eq.params, eq.label, tuple(t for t in eq.terms if (t.left, t.right) != shared)
        )

    _patch_raw_equation(monkeypatch, drop_shared)
    params = GrassmannParams(7, 4)
    report = verify_structure(params)
    assert report.census.ten_term.observed_terms == (9,)
    assert report.census.to_dict() == _reference_census_dict(params)
    assert report.family_failures == _per_label_family_failures(params) == [
        (family.q, family.l) for family in pair_families(params)
    ]
    assert (report.decomposition_failures, report.combination_failures) == _per_label_failures(params)


@pytest.mark.parametrize("n, p", [(4, 2), (6, 3), (7, 4)])
def test_verify_structure_names_a_trivial_three_term_class(monkeypatch, n, p):
    # Every label of the r = 2 block, and every lift, made trivial: the
    # identities still hold, and the census and the multiplicities fail as
    # the per-label reference does.  At (4,2) the one trivial form is the
    # system's only one, so the forms stay distinct; elsewhere each of the
    # multinomial(n, [p-2, 4, n-p-2]) weights lifts it.
    def empty(eq):
        return QuadraticEquation(eq.params, eq.label, ())

    trivial = {(2, (2, (), (1, 2, 3, 4))): empty}
    trivial.update({(1, (2, j, k)): empty for j, k in _q0_labels(2, 1)})
    _corrupt_lifts(monkeypatch, trivial)
    params = GrassmannParams(n, p)
    report = verify_structure(params)
    assert report.census.to_dict() == _reference_census_dict(params)
    assert not report.census.all_nontrivial
    assert report.census.all_distinct is ((n, p) == (4, 2))
    assert (report.decomposition_failures, report.combination_failures) == ([], [])
    assert report.multiplicity_failures == _per_label_multiplicity_failures(params) != []


def test_verify_structure_catches_family_partition_mismatch(monkeypatch):
    # The r = 3 block's family missing from its enumeration leaves its
    # 10-term labels uncovered: the partition fails at (7,4), and nothing
    # else does.  pair_families is read at the block only, since no block
    # check of a family failed.
    params, block = GrassmannParams(7, 4), GrassmannParams(6, 3)
    calls = []

    def dropping(at):
        calls.append(at)
        return pair_families(at)[:-1] if at == block else pair_families(at)

    monkeypatch.setattr(pluckereqs.structure, "pair_families", dropping)
    report = verify_structure(params)
    assert report.census.ok and not report.decomposition_failures
    assert report.families_checked == 7 and report.combinations_checked == 7 * 15
    assert report.family_failures == [("partition", "mismatch")]
    assert report.combination_failures == [] and report.multiplicity_ok
    assert report.first_failure == "family structure at ('partition', 'mismatch')"
    assert calls == [block]


def test_verify_report_first_failure_order(params63):
    # A real corruption that breaks a pair combination or a multiplicity
    # also breaks a decomposition, which is reported first; the order of the
    # later branches is checked on the report itself.  ok is exactly "no
    # first failure".
    report = verify_structure(params63)
    assert report.ok is (report.first_failure is None)
    report.multiplicity_failures.append(((1,), (1, 2, 3, 4, 5)))
    assert report.first_failure == "multiplicity at label ((1,), (1, 2, 3, 4, 5))"
    assert report.ok is (report.first_failure is None)
    report.combination_failures.append(((), (1, 2, 3, 4, 5, 6), 1, 2))
    assert report.first_failure == "pair combination at ((), (1, 2, 3, 4, 5, 6), 1, 2)"
    assert report.ok is (report.first_failure is None)
    report.family_failures.append(((), (1, 2, 3, 4, 5, 6)))
    assert report.first_failure == "family structure at ((), (1, 2, 3, 4, 5, 6))"
    assert report.ok is (report.first_failure is None)
    report.census.all_distinct = False
    assert report.first_failure == "census counts or distinctness"
    assert report.ok is (report.first_failure is None)
    assert not report.ok


@pytest.mark.parametrize("n, p", [(6, 3), (7, 3), (7, 4), (8, 4)])
def test_verify_structure_matches_per_label_checks(n, p):
    # verify_structure's block-checked lists equal the public per-label
    # checks run at every (n, p) label of the generated system.
    params = GrassmannParams(n, p)
    report = verify_structure(params)
    labels = [eq.label for eq in gen_plucker_like(params)]
    families = pair_families(params)
    assert report.decompositions_checked == len(labels)
    assert report.decomposition_failures == [
        label for label in labels if not check_decomposition(params, *label)
    ]
    assert report.families_checked == len(families)
    assert report.combinations_checked == 15 * len(families)
    assert report.combination_failures == [
        (family.q, family.l, i, i2)
        for family in families
        for i, i2 in combinations(range(1, 7), 2)
        if not check_pair_combine(params, family, i, i2)
    ]
    assert report.ok


def _per_label_failures(params):
    """The per-label reference of verify_structure's identity lists.

    :func:`check_decomposition` at every two-index label and
    :func:`check_pair_combine` at every pair of every family, in system
    order, each reading ``raw_equation`` at (n, p).
    """
    labels = [
        (j, k)
        for j in combinations(params.indices, params.p - 2)
        for k in combinations(params.indices, params.p + 2)
    ]
    decomposition = [label for label in labels if not check_decomposition(params, *label)]
    combination = [
        (family.q, family.l, i, i2)
        for family in pair_families(params)
        for i, i2 in combinations(range(1, 7), 2)
        if not check_pair_combine(params, family, i, i2)
    ]
    return decomposition, combination


def _per_label_multiplicity_failures(params):
    """The 3-term labels whose canonical form is not 4x a one-index form and 1x a two-index form."""
    one_counts = Counter(canonicalize(eq).terms for eq in gen_plucker(params))
    two_forms = {eq.label: canonicalize(eq).terms for eq in gen_plucker_like(params)}
    two_counts = Counter(two_forms.values())
    return [
        label
        for label, terms in two_forms.items()
        if len(set(label[0]) & set(label[1])) == params.p - 2
        and (one_counts[terms] != 4 or two_counts[terms] != 1)
    ]


def _per_label_family_failures(params):
    """The reference of verify_structure's family failures, read off the generated system.

    Each family whose members' canonical forms are not six distinct 10-term
    forms on one support, then ``("partition", "mismatch")`` if the members
    are not the 10-term labels.
    """
    forms = {eq.label: canonicalize(eq).terms for eq in gen_plucker_like(params)}
    families = pair_families(params)
    failures = []
    for family in families:
        canons = [forms[label] for label in family.members]
        supports = {frozenset((t.left, t.right) for t in terms) for terms in canons}
        if any(len(terms) != 10 for terms in canons) or len(supports) != 1 or len(set(canons)) != 6:
            failures.append((family.q, family.l))
    members = {label for family in families for label in family.members}
    ten_term = {(j, k) for j, k in forms if len(set(j) & set(k)) == params.p - 3}
    if members != ten_term:
        failures.append(("partition", "mismatch"))
    return failures


# The formulation the one-signed-sum checks replaced, kept as their oracle:
# build the intermediate equations with linear_combination, collect each
# side with collect_terms and compare; canonicalize the raw 20-term pair.
def _reference_decomposition_holds(params, label, raw):
    parts = [(sign, raw(j, k, 1)) for sign, (j, k) in one_index_decomposition(params, *label)]
    lhs = collect_terms(linear_combination(parts, params).terms)
    doubled = linear_combination([(2, raw(*label, 2))], params)
    return lhs == collect_terms(doubled.terms)


def _pair_target_label(family, i, i2):
    picked = {family.l[i - 1], family.l[i2 - 1]}
    return (
        tuple(sorted(set(family.q) | picked)),
        tuple(sorted(set(family.q) | (set(family.l) - picked))),
    )


def _reference_pair_holds(params, family, i, i2, raw):
    first = raw(*family.members[i - 1], 2)
    second = raw(*family.members[i2 - 1], 2)
    combo = linear_combination([(1, first), ((-1) ** (i + i2), second)], params)
    target = raw(*_pair_target_label(family, i, i2), 1)
    scaled_target = linear_combination([(2 * (-1) ** i2, target)], params)
    if collect_terms(combo.terms) != collect_terms(scaled_target.terms):
        return False
    return canonicalize(combo).terms == canonicalize(target).terms


def _reference_failures(params, one_index, two_index):
    raw_by_label = {
        1: {eq.label: eq for eq in one_index},
        2: {eq.label: eq for eq in two_index},
    }

    def raw(j, k, m):
        return raw_by_label[m][j, k]

    decomposition = [
        eq.label for eq in two_index if not _reference_decomposition_holds(params, eq.label, raw)
    ]
    combination = [
        (family.q, family.l, i, i2)
        for family in pair_families(params)
        for i, i2 in combinations(range(1, 7), 2)
        if not _reference_pair_holds(params, family, i, i2, raw)
    ]
    return decomposition, combination


def _replace_equation(system, label, change):
    return EquationSystem(
        system.params, system.m, tuple(change(eq) if eq.label == label else eq for eq in system)
    )


_POINTS_UP_TO_8 = [(n, p) for n in range(4, 9) for p in range(2, n - 1)]


@pytest.mark.parametrize("corruption", ["clean", "scaled_coefficient", "dropped_target_term"])
def test_verify_structure_identities_match_reference(monkeypatch, corruption):
    # The public per-label checks' decomposition and pair-combination
    # failures equal the reference's, label by label, at every 2 <= p <= n-2
    # with n <= 8.
    # "scaled_coefficient" turns one raw two-index coefficient from +-1 into
    # +-3, which keeps every sign and support, so a check that tracked only
    # those would pass; "dropped_target_term" drops one term of the one-index
    # equation a single pair combination collapses to.  Either must name
    # exactly the corrupted labels.
    corrupted_points = 0
    for n, p in _POINTS_UP_TO_8:
        params = GrassmannParams(n, p)
        one_index, two_index = gen_plucker(params), gen_plucker_like(params)
        families = pair_families(params)
        expected_decomposition, expected_combination = [], []
        if corruption == "scaled_coefficient":
            if families:
                family, member = families[-1], 3
                label = family.members[member - 1]
                expected_combination = [
                    (family.q, family.l, i, i2)
                    for i, i2 in combinations(range(1, 7), 2)
                    if member in (i, i2)
                ]
            else:
                label = two_index.equations[len(two_index) // 2].label

            def scale(eq):
                first = eq.terms[0]
                return QuadraticEquation(
                    eq.params, eq.label,
                    (QuadTerm(3 * first.coefficient, first.left, first.right),) + eq.terms[1:],
                )

            two_index = _replace_equation(two_index, label, scale)
            expected_decomposition = [label]
        elif corruption == "dropped_target_term":
            if not families:
                continue
            family, i, i2 = families[0], 2, 5
            target = _pair_target_label(family, i, i2)
            one_index = _replace_equation(
                one_index,
                target,
                lambda eq: QuadraticEquation(eq.params, eq.label, eq.terms[:-1]),
            )
            expected_decomposition = [
                eq.label
                for eq in two_index
                if any(part == target for _, part in one_index_decomposition(params, *eq.label))
            ]
            expected_combination = [(family.q, family.l, i, i2)]
        corrupted_points += corruption != "clean"
        by_label = {
            (m, eq.label): eq for m, system in ((1, one_index), (2, two_index)) for eq in system
        }
        monkeypatch.setattr(
            pluckereqs.structure, "raw_equation", lambda params, j, k, m: by_label[m, (j, k)]
        )
        reference = _reference_failures(params, one_index, two_index)
        assert _per_label_failures(params) == reference, (n, p)
        assert reference == (expected_decomposition, expected_combination), (n, p)
    expected_points = {"clean": 0, "scaled_coefficient": len(_POINTS_UP_TO_8), "dropped_target_term": 6}
    assert corrupted_points == expected_points[corruption]


def test_census_counts_a_repeated_label(monkeypatch):
    # One r = 3 block equation returned in place of another of its stratum:
    # every count still matches the prediction and every form keeps its 10
    # terms, so only the block's distinctness sees the repeat, and at (7,3)
    # each of the 7 weights lifts it.
    params, block = GrassmannParams(7, 3), GrassmannParams(6, 3)
    first, second = ((1,), (2, 3, 4, 5, 6)), ((2,), (1, 3, 4, 5, 6))
    repeated = raw_equation(block, *first, 2)

    def repeating(at, j, k, m):
        eq = raw_equation(at, j, k, m)
        return repeated if (at, eq.label, m) == (block, second, 2) else eq

    monkeypatch.setattr(pluckereqs.equations, "raw_equation", repeating)
    monkeypatch.setattr(pluckereqs.structure, "raw_equation", repeating)
    report = census(params)
    assert report.total_observed == report.total_predicted
    assert all(entry.ok for entry in report.classes)
    assert report.families_observed == report.families_predicted
    assert report.all_nontrivial
    assert not report.all_distinct
    assert not report.ok


def test_census_holds_no_raw_equation(monkeypatch):
    # census reads each q = 0 label of each block Gr(r, 2r) once, r = 2..4
    # at (8,4), and no system: at most two raw equations are alive at once,
    # and none is left at the end.  The labels are counted, not generated.
    params = GrassmannParams(8, 4)
    reads = _RawReads(monkeypatch)
    report = census(params)
    assert report.ok
    assert report.total_observed == comb(8, 2) * comb(8, 6)
    assert reads.all_on_blocks(params)
    assert reads.calls == Counter(
        {(GrassmannParams(2 * r, r), label, 2): 1 for r in (2, 3, 4) for label in _q0_labels(r, 2)}
    )
    assert 1 <= reads.peak <= 2
    assert not reads.live


def test_census_memory_is_bounded():
    # census keeps no label and no (n, p) form: at (10,5), 14,400 labels,
    # it allocates well under 1 MB at its peak.
    import tracemalloc

    tracemalloc.start()
    try:
        assert census(GrassmannParams(10, 5)).ok
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def _q0_labels(r, m):
    """The q = 0 labels ``(j, complement of j)`` moving ``m`` in Gr(r, 2r), in system order."""
    indices = tuple(range(1, 2 * r + 1))
    return [(j, tuple(x for x in indices if x not in j)) for j in combinations(indices, r - m)]


def _reference_census_dict(params):
    # The census as it was computed with a stratum per label, read by |j & k|.
    n, p = params.n, params.p
    system = gen_plucker_like(params)
    canonical = []
    observed, term_counts, families = Counter(), {}, set()
    for eq in system:
        j, k = eq.label
        q_size = len(set(j) & set(k))
        terms = canonicalize(eq).terms
        canonical.append(terms)
        observed[q_size] += 1
        term_counts.setdefault(q_size, set()).add(len(terms))
        if q_size == p - 3:
            families.add((tuple(sorted(set(j) & set(k))), symmetric_difference(j, k)))
    classes, classes_ok = [], []
    for q_size in range(p - 2, max(0, 2 * p - n) - 1, -1):
        kind = "3-term" if q_size == p - 2 else "10-term" if q_size == p - 3 else "large"
        expected_terms = 3 if kind == "3-term" else comb(p + 2 - q_size, 2)
        observed_terms = sorted(term_counts.get(q_size, ()))
        predicted = multinomial(n, [q_size, p - 2 - q_size, p + 2 - q_size, n + q_size - 2 * p])
        classes.append({
            "q_size": q_size,
            "kind": kind,
            "observed": observed[q_size],
            "predicted": predicted,
            "expected_terms": expected_terms,
            "observed_terms": observed_terms,
        })
        classes_ok.append(observed[q_size] == predicted and observed_terms in ([], [expected_terms]))
    total_predicted = comb(n, p - 2) * comb(n, p + 2)
    families_predicted = multinomial(n, [6, p - 3, n - p - 3]) if 3 <= p <= n - 3 else 0
    all_distinct = len(set(canonical)) == len(canonical)
    all_nontrivial = all(canonical)
    ok = (
        len(system) == total_predicted
        and all(classes_ok)
        and len(families) == families_predicted
        and all_distinct
        and all_nontrivial
    )
    return {
        "n": n,
        "p": p,
        "total": {"observed": len(system), "predicted": total_predicted},
        "classes": classes,
        "families": {"observed": len(families), "predicted": families_predicted},
        "all_distinct": all_distinct,
        "all_nontrivial": all_nontrivial,
        "ok": ok,
    }


def test_census_matches_classify_reference_up_to_n9():
    for n in range(4, 10):
        for p in range(2, n - 1):
            params = GrassmannParams(n, p)
            assert census(params).to_dict() == _reference_census_dict(params), (n, p)


def test_strip_relabels_the_symmetric_difference():
    params = GrassmannParams(7, 4)
    assert strip(params, ((1, 3), (1, 2, 4, 5, 6, 7))) == (3, (2,), (1, 3, 4, 5, 6))
    assert strip(params, ((2, 5, 7), (1, 2, 3, 6, 7))) == (2, (3,), (1, 2, 4))
    assert strip(params, ((1, 2, 3, 4), (1, 2, 3, 4))) == (0, (), ())
    # One-shot iterables are read once.
    assert strip(params, (iter([1, 3]), iter([1, 2, 4, 5, 6, 7]))) == (3, (2,), (1, 3, 4, 5, 6))
    with pytest.raises(ValueError, match="label sizes"):
        strip(params, ((1, 2, 3), (1, 2, 3)))
    with pytest.raises(ValueError, match="label sizes"):
        strip(params, ((1, 2, 3, 4, 5), (1, 2, 3)))
    with pytest.raises(ValueError, match="1..7"):
        strip(params, ((1,), (2, 3, 4, 5, 6, 8)))


def test_strip_lemma_every_label_up_to_n9():
    # Lifting the block equation of strip(params, label) back through
    # D = j & k and the increasing relabeling of S = j ^ k gives the raw
    # equation at (n, p): the same terms, signs, left/right order and term
    # order, at every label with n <= 9 and every 1 <= m <= min(p, n-p).
    # So does lifting the block's canonical form (strip's corollary), which
    # the census's distinctness rests on.
    labels = 0
    for n in range(2, 10):
        for p in range(1, n):
            params = GrassmannParams(n, p)
            for m in range(1, min(p, n - p) + 1):
                for eq in _raw_equations(params, m):
                    j, k = eq.label
                    common = set(j) & set(k)
                    moved = sorted(set(j) ^ set(k))

                    def lift(block_idx):
                        return tuple(sorted(common | {moved[x - 1] for x in block_idx}))

                    r, j_block, k_block = strip(params, eq.label)
                    assert r == p - len(common) and (lift(j_block), lift(k_block)) == eq.label
                    block = raw_equation(GrassmannParams(2 * r, r), j_block, k_block, m)
                    lifted = tuple((c, lift(left), lift(right)) for c, left, right in block.terms)
                    assert lifted == eq.terms, (n, p, m, eq.label)
                    canonical = canonicalize(block).terms
                    lifted = tuple((c, lift(left), lift(right)) for c, left, right in canonical)
                    assert lifted == canonicalize(eq).terms, (n, p, m, eq.label)
                    labels += 1
    assert labels == sum(
        comb(n, p - m) * comb(n, p + m)
        for n in range(2, 10) for p in range(1, n) for m in range(1, min(p, n - p) + 1)
    )


@pytest.mark.parametrize("n, p", _POINTS_UP_TO_8 + [(9, 4)])
def test_verify_by_blocks_matches_verify_structure(n, p):
    # verify_structure, which checks the identities once per block label,
    # gives the per-label reference's lists at every 2 <= p <= n-2 with
    # n <= 8, and at (9,4).
    params = GrassmannParams(n, p)
    report = verify_structure(params)
    families = pair_families(params)
    assert report.decompositions_checked == comb(n, p - 2) * comb(n, p + 2)
    decomposition, combination = _per_label_failures(params)
    assert report.decomposition_failures == decomposition
    assert report.combination_failures == combination
    assert report.families_checked == len(families)
    assert report.combinations_checked == 15 * len(families)
    assert report.multiplicity_failures == _per_label_multiplicity_failures(params) == []
    assert report.family_failures == []
    assert report.ok


def test_verify_by_blocks_matches_verify_structure_on_a_corrupted_stream(monkeypatch):
    # A two-index label of the r = 3 block without its last term, and every
    # label that strips to it: verify_structure's report, census included,
    # equals the per-label reference field by field at every point with a
    # family stratum up to n = 8.
    _corrupt_lifts(monkeypatch, {(2, (3, (1,), (2, 3, 4, 5, 6))): _drop_last_term})
    for n, p in [(6, 3), (7, 3), (7, 4), (8, 3), (8, 4), (8, 5)]:
        params = GrassmannParams(n, p)
        report = verify_structure(params)
        assert not report.census.ok
        assert report.census.to_dict() == _reference_census_dict(params), (n, p)
        decomposition, combination = _per_label_failures(params)
        assert report.decomposition_failures == decomposition != [], (n, p)
        assert report.combination_failures == combination != [], (n, p)
        assert report.family_failures == _per_label_family_failures(params), (n, p)
        assert len(report.family_failures) == len(pair_families(params)) == report.families_checked
        assert report.multiplicity_failures == _per_label_multiplicity_failures(params) == []


def _drop_last_one_index_term(eq, m):
    return _drop_last_term(eq) if m == 1 else eq


def _flip_first_two_index_term(eq, m):
    return _flip_first_term(eq) if m == 2 else eq


@pytest.mark.parametrize("mutant", [_drop_last_one_index_term, _flip_first_two_index_term])
def test_verify_by_blocks_fails_where_verify_structure_does(monkeypatch, capsys, mutant):
    # A raw_equation mutant that strip cannot see fails verify_structure,
    # which checks the identities on the blocks, exactly where it fails the
    # per-label reference: it changes every equation of one width at one
    # term position, and lifting keeps term order.  Both the generator and
    # the structural checks read the patched function.
    from pluckereqs.cli import main

    def mutated(params, j, k, m):
        return mutant(raw_equation(params, j, k, m), m)

    monkeypatch.setattr(pluckereqs.equations, "raw_equation", mutated)
    monkeypatch.setattr(pluckereqs.structure, "raw_equation", mutated)
    params = GrassmannParams(7, 4)
    report = verify_structure(params)
    decomposition, combination = _per_label_failures(params)
    assert not report.ok
    assert report.decomposition_failures == decomposition != []
    assert report.combination_failures == combination != []
    assert report.multiplicity_failures == _per_label_multiplicity_failures(params)
    assert report.family_failures == _per_label_family_failures(params)
    assert report.census.to_dict() == _reference_census_dict(params)
    assert main(["verify", "--n", "7", "--p", "4"]) == 1
    last = capsys.readouterr().out.splitlines()[-1]
    assert last == f"VERIFY (n=7, p=4): FAIL at {report.first_failure}"


@pytest.mark.parametrize("n, p", [(8, 4), (9, 4)])
def test_verify_reads_the_one_index_system_only_on_blocks(monkeypatch, capsys, n, p):
    # The command reads no system: every raw equation is on a q = 0 label of
    # a block Gr(r, 2r), 2 <= r <= min(p, n-p), at most two are alive at
    # once, and none is left at the end.  (8, 4) is itself the r = 4 block:
    # the census reads each of its C(8, 2) two-index labels once, and the
    # decomposition once more, with p+2 one-index equations for each.
    # Nothing is read at (9, 4).
    from pluckereqs.cli import main

    params = GrassmannParams(n, p)
    reads = _RawReads(monkeypatch)
    assert main(["verify", "--n", str(n), "--p", str(p)]) == 0
    assert capsys.readouterr().out.endswith("PASS\n")
    assert reads.all_on_blocks(params)
    at_point = Counter()
    for (at, _, m), count in reads.calls.items():
        if at == params:
            at_point[m] += count
    if n == 2 * p:
        assert at_point == {2: 2 * comb(n, p - 2), 1: (p + 2) * comb(n, p - 2)}
    else:
        assert at_point == {}
    assert 1 <= reads.peak <= 2
    assert not reads.live


def _drop_last_term_at(monkeypatch, block, label):
    """Make the structural checks read ``label`` at ``block`` without its last term."""
    def dropped(params, j, k, m):
        eq = raw_equation(params, j, k, m)
        return _drop_last_term(eq) if params == block and eq.label == label else eq

    monkeypatch.setattr(pluckereqs.equations, "raw_equation", dropped)
    monkeypatch.setattr(pluckereqs.structure, "raw_equation", dropped)


# verify_structure checks each identity once per block label and reports a
# failed one at exactly the (n, p) labels and families that strip to it, in
# system order, and nowhere else.
@pytest.mark.parametrize("n, p, decompositions, pairs", [(8, 4, 56, 280), (9, 4, 252, 1260)])
def test_verify_structure_lifts_a_failed_two_index_block_label(
    monkeypatch, n, p, decompositions, pairs
):
    # A two-index label of the r = 3 block, member 1 of its one family.
    params = GrassmannParams(n, p)
    _drop_last_term_at(monkeypatch, GrassmannParams(6, 3), ((1,), (2, 3, 4, 5, 6)))
    report = verify_structure(params)
    expected = [
        eq.label
        for eq in gen_plucker_like(params)
        if strip(params, eq.label) == (3, (1,), (2, 3, 4, 5, 6))
    ]
    assert report.decomposition_failures == expected
    assert len(expected) == decompositions
    assert report.combination_failures == [
        (family.q, family.l, 1, i2) for family in pair_families(params) for i2 in range(2, 7)
    ]
    assert len(report.combination_failures) == pairs
    # The census and the family structure read the block label too.
    assert not report.census.ok
    assert report.family_failures == [(family.q, family.l) for family in pair_families(params)]
    assert report.multiplicity_failures == []


@pytest.mark.parametrize("n, p, three_term", [(8, 4, 420), (9, 4, 1260)])
def test_verify_structure_lifts_a_failed_one_index_block_label(monkeypatch, n, p, three_term):
    # A one-index label of the r = 2 block: every 3-term label decomposes
    # through one of its lifts, and the block's form is no longer 4x one-index.
    params = GrassmannParams(n, p)
    _drop_last_term_at(monkeypatch, GrassmannParams(4, 2), ((1,), (2, 3, 4)))
    report = verify_structure(params)
    expected = [
        (j, k) for j, k in (eq.label for eq in gen_plucker_like(params))
        if len(set(j) & set(k)) == p - 2
    ]
    assert report.multiplicity_failures == report.decomposition_failures == expected
    assert len(expected) == three_term
    assert report.combination_failures == [] and report.census.ok


def test_one_patch_point_reaches_every_block_read(monkeypatch):
    # generate, census and verify read block forms through one reader,
    # equations._block_forms, so patching raw_equation in equations alone
    # reaches all three: an r = 3 block label without its last term changes
    # the canonical stream and fails the census and the family structure.
    params, block, label = GrassmannParams(7, 3), GrassmannParams(6, 3), ((1,), (2, 3, 4, 5, 6))
    clean = list(_canonical_rows(params, 2))

    def dropped(at, j, k, m):
        eq = raw_equation(at, j, k, m)
        return _drop_last_term(eq) if (at, eq.label, m) == (block, label, 2) else eq

    monkeypatch.setattr(pluckereqs.equations, "raw_equation", dropped)
    assert list(_canonical_rows(params, 2)) != clean
    assert not census(params).ok
    assert verify_structure(params).family_failures


def test_census_without_a_family_stratum_has_no_ten_term_class():
    report = census(GrassmannParams(4, 2))
    assert report.ten_term is None and report.larger_strata == {}
    assert report.three_term.observed == 1 and report.ok


def test_a_label_strips_to_the_three_term_block_label_exactly_at_q_equal_p_minus_2():
    # verify_structure files a failed 3-term multiplicity under each label
    # that strips to (2, (), (1, 2, 3, 4)); these are exactly the labels of
    # the 3-term stratum, at every two-index label with n <= 9.
    for n in range(4, 10):
        for p in range(2, n - 1):
            params = GrassmannParams(n, p)
            for j in combinations(params.indices, p - 2):
                for k in combinations(params.indices, p + 2):
                    three_term = len(set(j).intersection(k)) == p - 2
                    assert (strip(params, (j, k)) == (2, (), (1, 2, 3, 4))) is three_term, (j, k)


@pytest.mark.slow
def test_verify_structure_matches_per_label_oracle_at_10_5():
    # The block-checked report equals the per-label oracle, which reads
    # every (n, p) equation, field by field at (10,5).
    params = GrassmannParams(10, 5)
    report = verify_structure(params)
    assert report.census.to_dict() == _reference_census_dict(params)
    assert (report.decomposition_failures, report.combination_failures) == _per_label_failures(params)
    assert report.family_failures == _per_label_family_failures(params) == []
    assert report.multiplicity_failures == _per_label_multiplicity_failures(params) == []
    assert report.ok
