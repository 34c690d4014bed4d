"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import combinations

from pluckereqs import (
    GrassmannParams,
    canonicalize,
    census,
    check_decomposition,
    dedupe,
    gen_plucker,
    gen_plucker_like,
    grassmann_codimension,
    is_simple,
    linear_combination,
    multinomial,
    pair_combine,
    pair_families,
    pvector,
    random_pvector,
    random_simple,
    residual,
    size_ratio,
    symmetric_difference,
    wedge,
)
from pluckereqs.cli import main

PROP1_PARAMS = [(4, 2), (5, 2), (5, 3), (6, 3), (7, 3), (7, 4), (8, 4)]
ALL_PARAMS_4_9 = [(n, p) for n in range(4, 10) for p in range(2, n - 1)]
SIMPLE_PARAMS_4_8 = [(n, p) for n in range(4, 9) for p in range(2, n - 1)]
SEEDS = range(100)
# Criterion 8 compares two oracles on these seeds of each kind of non-simple vector.
ORACLE_SEEDS = range(10)


def report(number: int, name: str, failures: list, started: float) -> None:
    status = "PASS" if not failures else "FAIL"
    elapsed = time.perf_counter() - started
    print(f"[criterion {number:>2}] {name}: {status} ({elapsed:.2f}s)")
    assert not failures, f"criterion {number} failed: {failures[:5]}"


def test_criterion_01_counts_6_3():
    started = time.perf_counter()
    failures = []
    params = GrassmannParams(6, 3)
    one = gen_plucker(params)
    two = gen_plucker_like(params)
    reduced, _ = dedupe(one)
    if len(one) != 225:
        failures.append(f"one-index count {len(one)} != 225")
    if len(two) != 36:
        failures.append(f"two-index count {len(two)} != 36")
    if len(reduced) != 45:
        failures.append(f"reduced count {len(reduced)} != 45")
    if time.perf_counter() - started >= 1.0:
        failures.append("runtime exceeded 1 s")
    report(1, "counts at (6,3)", failures, started)


def test_criterion_02_golden_tables(
    params63, pluckerlike63, plucker63, golden_two_index, golden_selected
):
    started = time.perf_counter()
    failures = []
    for row, eq in zip(golden_two_index, pluckerlike63):
        canon = canonicalize(eq)
        if canon.label != row.label:
            failures.append(f"row {row.ordinal}: label {canon.label} != {row.label}")
        if canon.terms != row.terms:
            failures.append(f"row {row.ordinal}: terms differ")
    selected = {row.ordinal: row for row in golden_selected}
    seven = canonicalize(plucker63.equations[6])
    if seven.terms != selected[7].terms:
        failures.append("one-index row 7 does not match the published form")
    nineteen = canonicalize(plucker63.equations[18])
    if seven.terms != nineteen.terms:
        failures.append("rows 7 and 19 do not canonicalize identically")
    for ordinal, row in selected.items():
        eq = plucker63.equations[ordinal - 1]
        canon = canonicalize(eq)
        if eq.label != row.label or canon.terms != row.terms:
            failures.append(f"one-index row {ordinal} mismatch")
    report(2, "golden table rows", failures, started)


def test_criterion_03_ratio_identity():
    started = time.perf_counter()
    failures = []
    for n, p in ALL_PARAMS_4_9:
        params = GrassmannParams(n, p)
        observed = Fraction(len(gen_plucker(params)), len(gen_plucker_like(params)))
        predicted = Fraction((p + 2) * (n - p + 2), (p - 1) * (n - p - 1))
        if observed != predicted or observed != size_ratio(params):
            failures.append(f"ratio mismatch at ({n},{p})")
    report(3, "system size ratio identity", failures, started)


def test_criterion_04_decomposition_oracle(golden_selected, golden_two_index):
    started = time.perf_counter()
    failures = []
    for n, p in PROP1_PARAMS:
        params = GrassmannParams(n, p)
        for eq in gen_plucker_like(params):
            if not check_decomposition(params, *eq.label):
                failures.append(f"raw identity failed at ({n},{p}) label {eq.label}")
                break
    # Signed sum of the published canonical one-index rows 15, 29, 57, 43, 71.
    params = GrassmannParams(6, 3)
    rows = {row.ordinal: row for row in golden_selected}
    weighted = [
        (1, rows[15]), (1, rows[29]), (1, rows[57]), (-1, rows[43]), (-1, rows[71]),
    ]
    from pluckereqs import QuadraticEquation

    combo = linear_combination(
        [
            (w, QuadraticEquation(params, row.label, row.terms))
            for w, row in weighted
        ],
        params,
    )
    target = golden_two_index[5]
    if canonicalize(combo).terms != target.terms:
        failures.append("canonical row combination does not give two-index row 6")
    if time.perf_counter() - started >= 30.0:
        failures.append("runtime exceeded 30 s")
    report(4, "decomposition into one-index equations", failures, started)


def test_criterion_05_census_4_to_9():
    started = time.perf_counter()
    failures = []
    for n, p in ALL_PARAMS_4_9:
        params = GrassmannParams(n, p)
        rep = census(params)
        if not rep.all_distinct:
            failures.append(f"({n},{p}): canonical forms not distinct")
        if not rep.all_nontrivial:
            failures.append(f"({n},{p}): trivial equation present")
        if not rep.ok:
            failures.append(f"({n},{p}): counts disagree with predictions")
        for entry in rep.classes:
            if entry.kind == "large" and entry.expected_terms < 15:
                failures.append(f"({n},{p}): q={entry.q_size} terms below 15")
        # Families partition the 10-term stratum into groups of six.
        system = gen_plucker_like(params)
        groups: dict = {}
        for eq in system:
            j, k = eq.label
            if len(set(j) & set(k)) == p - 3:
                key = (tuple(sorted(set(j) & set(k))), symmetric_difference(j, k))
                groups.setdefault(key, []).append(eq.label)
        if any(len(member) != 6 for member in groups.values()):
            failures.append(f"({n},{p}): family of size != 6")
        predicted_families = (
            multinomial(n, [6, p - 3, n - p - 3]) if 3 <= p <= n - 3 else 0
        )
        if len(groups) != predicted_families:
            failures.append(f"({n},{p}): family count {len(groups)} != {predicted_families}")
    if time.perf_counter() - started >= 120.0:
        failures.append("runtime exceeded 2 min")
    report(5, "stratum census for 4 <= n <= 9", failures, started)


def test_criterion_06_pair_combination(params63, golden_two_index, golden_reduced):
    started = time.perf_counter()
    failures = []
    family = pair_families(params63)[0]
    results = set()
    for i, i2 in combinations(range(1, 7), 2):
        combined = pair_combine(params63, family, i, i2)
        picked = (family.l[i - 1], family.l[i2 - 1])
        target_label = (
            tuple(sorted(picked)),
            tuple(x for x in range(1, 7) if x not in picked),
        )
        from pluckereqs import raw_equation

        target = canonicalize(raw_equation(params63, *target_label, 1))
        if combined.terms != target.terms:
            failures.append(f"combination ({i},{i2}) missed its one-index target")
        results.add(combined.terms)
    if len(results) != 15:
        failures.append(f"only {len(results)} distinct 4-term results")
    # Published instance: adding two-index rows 6 and 11 gives reduced row 12.
    from pluckereqs import QuadraticEquation

    six = golden_two_index[5]
    eleven = golden_two_index[10]
    summed = linear_combination(
        [
            (1, QuadraticEquation(params63, six.label, six.terms)),
            (1, QuadraticEquation(params63, eleven.label, eleven.terms)),
        ],
        params63,
    )
    if canonicalize(summed).terms != golden_reduced[11].terms:
        failures.append("rows 6 + 11 do not give reduced row 12")
    report(6, "pairwise family combinations", failures, started)


def test_criterion_07_multiplicities(params63, plucker63, pluckerlike63):
    started = time.perf_counter()
    failures = []
    from collections import Counter

    one_counts = Counter(canonicalize(eq).terms for eq in plucker63)
    two_counts = Counter(canonicalize(eq).terms for eq in pluckerlike63)
    three_term_stratum = [
        canonicalize(eq).terms
        for eq in pluckerlike63
        if len(set(eq.label[0]) & set(eq.label[1])) == 1
    ]
    if len(three_term_stratum) != 30:
        failures.append(f"{len(three_term_stratum)} top-stratum labels, expected 30")
    for terms in three_term_stratum:
        if one_counts.get(terms, 0) != 4:
            failures.append(f"{terms}: one-index multiplicity {one_counts.get(terms, 0)} != 4")
        if two_counts.get(terms, 0) != 1:
            failures.append(f"{terms}: two-index multiplicity != 1")
    report(7, "3-term multiplicities across systems", failures, started)


def _near_grassmannian(params, seed):
    """Two seeded non-simple p-vectors next to Gr(p, n).

    The first is (e12 + e34) ^ e5 ^ ... ^ e_{p+2} under the exact change of
    basis g = L * U, with L and U unit triangular (so g is invertible): the
    basis vector e_i becomes the column g_i.  The second is a random wedge
    with one coefficient moved by a small rational.
    """
    n, p = params.n, params.p
    rng = random.Random(seed)
    lower = [[Fraction(int(r == c) if r <= c else rng.randint(-3, 3)) for c in range(n)] for r in range(n)]
    upper = [[Fraction(int(r == c) if r >= c else rng.randint(-3, 3)) for c in range(n)] for r in range(n)]
    columns = [[sum(lower[r][t] * upper[t][c] for t in range(n)) for r in range(n)] for c in range(n)]
    rest = columns[4 : p + 2]
    first, second = wedge(columns[0:2] + rest), wedge(columns[2:4] + rest)
    coeffs = dict(first.coeffs)
    for idx, value in second.coeffs.items():
        coeffs[idx] = coeffs.get(idx, 0) + value
    perturbed = dict(random_simple(params, seed).coeffs)
    idx = rng.choice(sorted(perturbed))
    perturbed[idx] += Fraction(1, rng.randint(50, 99))
    return pvector(params, coeffs), pvector(params, perturbed)


def test_criterion_08_simplicity_oracle():
    # The chart test of is_simple against the equations themselves: each
    # system's residual at h is empty exactly when h is simple.  The vectors
    # are the random ones and two non-simple families near Gr(p, n), where a
    # system that failed to cut out Gr would show.
    started = time.perf_counter()
    failures = []
    for n, p in SIMPLE_PARAMS_4_8:
        params = GrassmannParams(n, p)
        one = gen_plucker(params)
        two = gen_plucker_like(params)
        for seed in SEEDS:
            h = random_simple(params, seed)
            if residual(one, h).violations or residual(two, h).violations:
                failures.append(f"({n},{p}) seed {seed}: wedge vector violated an equation")
                break
        vectors = [(f"random seed {seed}", random_pvector(params, seed)) for seed in ORACLE_SEEDS]
        for seed in ORACLE_SEEDS:
            basis_change, perturbed = _near_grassmannian(params, seed)
            vectors += [(f"2-plane sum seed {seed}", basis_change), (f"perturbed seed {seed}", perturbed)]
        for choice, system in (("plucker", one), ("plucker_like", two)):
            for name, h in vectors:
                if is_simple(h, choice) != (not residual(system, h).violations):
                    failures.append(f"({n},{p}) {name}: {choice} chart test and equations disagree")
                    break
    params = GrassmannParams(6, 3)
    h = pvector(params, {(1, 2, 3): 1, (4, 5, 6): 1})
    for choice, system in (("plucker", gen_plucker(params)), ("plucker_like", gen_plucker_like(params))):
        if is_simple(h, choice):
            failures.append(f"{choice} reports the 2-plane sum as simple")
        if not residual(system, h).violations:
            failures.append(f"{choice} violation list empty")
    report(8, "simplicity oracle on random vectors", failures, started)


def test_criterion_09_codimension():
    started = time.perf_counter()
    failures = []
    if grassmann_codimension(GrassmannParams(6, 3)) != 10:
        failures.append("codimension at (6,3) is not 10")
    report(9, "codimension check", failures, started)


def test_criterion_10_jobs_determinism(capsys):
    started = time.perf_counter()
    failures = []
    for m in ("1", "2"):
        outputs = []
        for jobs in ("1", "8"):
            code = main(
                ["generate", "--n", "6", "--p", "3", "--m", m, "--jobs", jobs]
            )
            captured = capsys.readouterr()
            if code != 0:
                failures.append(f"generate failed with jobs={jobs}")
            outputs.append(captured.out.encode("utf-8"))
        if outputs[0] != outputs[1]:
            failures.append(f"m={m}: output differs between --jobs 1 and --jobs 8")
    with capsys.disabled():
        report(10, "byte-identical parallel generation", failures, started)
