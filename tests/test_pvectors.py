from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pluckereqs import (
    GaussianRational,
    GrassmannParams,
    canonicalize,
    evaluate,
    gen_plucker,
    gen_plucker_like,
    is_simple,
    pvector,
    pvector_from_json,
    pvector_to_json,
    random_pvector,
    random_simple,
    residual,
    scaled,
    wedge,
)

E = [[1 if c == r else 0 for c in range(6)] for r in range(6)]


@pytest.fixture(scope="module")
def h_sum(params63):
    return pvector(params63, {(1, 2, 3): 1, (4, 5, 6): 1})


def test_gaussian_rational_arithmetic():
    a = GaussianRational(Fraction(1, 2), Fraction(1))
    b = GaussianRational(Fraction(2), Fraction(-1, 3))
    assert a + b == GaussianRational(Fraction(5, 2), Fraction(2, 3))
    assert a * b == GaussianRational(Fraction(4, 3), Fraction(11, 6))
    assert (a * b) / b == a
    assert -a + a == GaussianRational(0)
    assert not GaussianRational(0)
    assert 2 * a == GaussianRational(Fraction(1), Fraction(2))
    assert a.norm_sq() == Fraction(5, 4)
    with pytest.raises(ZeroDivisionError):
        a / GaussianRational(0)


def test_pvector_validation(params63):
    h = pvector(params63, {(1, 2, 3): Fraction(1), (1, 2, 4): 0})
    assert (1, 2, 4) not in h.coeffs
    with pytest.raises(ValueError):
        pvector(params63, {(1, 2): 1})
    with pytest.raises(ValueError):
        pvector(params63, {(1, 2, 7): 1})
    with pytest.raises(ValueError):
        pvector(params63, {(1, 2, 3): 1}, field="R")


def test_wedge_basis_vectors(params63):
    h = wedge([E[0], E[1], E[2]])
    assert dict(h.coeffs) == {(1, 2, 3): Fraction(1)}
    assert h.field == "Q"


def test_wedge_sum_vector():
    e1_plus_e4 = [1, 0, 0, 1, 0, 0]
    h = wedge([e1_plus_e4, E[1], E[2]])
    assert dict(h.coeffs) == {(1, 2, 3): Fraction(1), (2, 3, 4): Fraction(1)}


def test_wedge_repeated_vector_is_zero():
    h = wedge([E[0], E[0], E[2]])
    assert h.is_zero
    assert is_simple(h, "plucker") and is_simple(h, "plucker_like")


def _leibniz_minors(rows, zero):
    # Brute-force reference: every p x p minor as a signed permutation sum.
    p, n = len(rows), len(rows[0])
    minors = {}
    for cols in combinations(range(n), p):
        total = zero
        for perm in permutations(range(p)):
            inversions = sum(perm[a] > perm[b] for a, b in combinations(range(p), 2))
            product = -1 if inversions % 2 else 1
            for row, col in zip(rows, perm):
                product = product * row[cols[col]]
            total = total + product
        if total:
            minors[tuple(c + 1 for c in cols)] = total
    return minors


@pytest.mark.parametrize("field", ["Q_i", "f64"])
def test_wedge_matches_leibniz_minors(field):
    if field == "Q_i":
        g = lambda re, im: GaussianRational(Fraction(re), Fraction(im))  # noqa: E731
        rows = [
            [g(1, 2), 0, g(Fraction(1, 2), -1), 3, g(0, 1)],
            [0, g(2, -1), 1, g(-1, Fraction(1, 3)), 2],
            [g(-2, 0), 1, g(0, 3), 0, g(1, 1)],
        ]
        zero = GaussianRational(0)
    else:
        # Dyadic entries keep every float product and sum exact.
        rows = [
            [0.5, 0.0, -1.25, 2.0, 1.0, 0.0],
            [1.0, -2.0, 0.0, 0.75, 0.0, 3.0],
            [0.0, 1.5, 1.0, -1.0, 2.0, 0.25],
        ]
        zero = 0.0
    h = wedge(rows)
    assert h.field == field
    assert dict(h.coeffs) == _leibniz_minors(rows, zero)


def test_wedge_dimension_mismatch():
    with pytest.raises(ValueError):
        wedge([[1, 0], [0, 1, 0]])


def test_wedge_all_plucker_equations_vanish(params63):
    # Independent Laplace-consistency oracle for the generator signs.
    h = random_simple(params63, seed=7)
    for eq in gen_plucker(params63):
        assert evaluate(eq, h) == 0
    for eq in gen_plucker_like(params63):
        assert evaluate(eq, h) == 0


def test_evaluate_monomial_pickout(params63, pluckerlike63, h_sum):
    table4_6 = canonicalize(pluckerlike63.equations[5])
    assert table4_6.label == ((1,), (2, 3, 4, 5, 6))
    assert evaluate(table4_6, h_sum) == 1
    trivial = canonicalize(gen_plucker(params63).equations[0])
    assert evaluate(trivial, h_sum) == 0


def test_evaluate_params_mismatch(h_sum):
    other = gen_plucker(GrassmannParams(7, 3)).equations[0]
    with pytest.raises(ValueError):
        evaluate(other, h_sum)


def test_residual_pluckerlike_on_sum(pluckerlike63, h_sum):
    report = residual(pluckerlike63, h_sum)
    assert len(report.violations) == 6
    labels = {label for label, _ in report.violations}
    assert labels == {
        ((1,), (2, 3, 4, 5, 6)),
        ((2,), (1, 3, 4, 5, 6)),
        ((3,), (1, 2, 4, 5, 6)),
        ((4,), (1, 2, 3, 5, 6)),
        ((5,), (1, 2, 3, 4, 6)),
        ((6,), (1, 2, 3, 4, 5)),
    }
    assert report.max_violation == 1
    assert all(abs(value) == 1 for _, value in report.violations)


def test_residual_plucker_on_sum(plucker63, h_sum):
    report = residual(plucker63, h_sum)
    assert (((1, 2), (3, 4, 5, 6)), Fraction(-1)) in report.violations


def test_residual_zero_vector(params63, pluckerlike63):
    zero = pvector(params63, {})
    report = residual(pluckerlike63, zero)
    assert report.violations == []
    assert report.max_violation == 0


def test_is_simple_examples(params63, h_sum):
    assert not is_simple(h_sum, "plucker")
    assert not is_simple(h_sum, "plucker_like")
    w = wedge([E[0], E[1], E[2]])
    assert is_simple(w, "plucker")
    assert is_simple(w, "plucker-like")


def test_is_simple_vacuous_ranges():
    line = pvector(GrassmannParams(6, 1), {(1,): 1, (4,): 3})
    assert is_simple(line, "plucker")
    assert is_simple(line, "plucker_like")
    hyper = pvector(GrassmannParams(6, 5), {(1, 2, 3, 4, 5): 1})
    assert is_simple(hyper, "plucker_like")
    with pytest.raises(ValueError):
        is_simple(line, "gauss")


def test_residual_scaling_invariance(params63, pluckerlike63):
    h = random_pvector(params63, seed=11)
    base = {label for label, _ in residual(pluckerlike63, h).violations}
    for factor in (Fraction(3, 7), Fraction(-2), 5):
        same = {
            label
            for label, _ in residual(pluckerlike63, scaled(h, factor)).violations
        }
        assert same == base


def test_random_generators_deterministic(params63):
    assert random_pvector(params63, 42) == random_pvector(params63, 42)
    assert random_simple(params63, 42) == random_simple(params63, 42)
    assert random_pvector(params63, 1) != random_pvector(params63, 2)


def test_random_simple_is_simple(params63):
    for seed in range(5):
        h = random_simple(params63, seed)
        assert is_simple(h, "plucker")
        assert is_simple(h, "plucker_like")


def test_random_pvector_verdicts_agree(params63):
    for seed in range(10):
        h = random_pvector(params63, seed)
        assert is_simple(h, "plucker") == is_simple(h, "plucker_like")


def test_vanishing_spot_check_n9():
    # Larger-scale sample of the exact-vanishing property at n = 9.
    for n, p in ((9, 3), (9, 4)):
        params = GrassmannParams(n, p)
        one = gen_plucker(params)
        two = gen_plucker_like(params)
        for seed in range(25):
            h = random_simple(params, seed)
            assert not residual(one, h).violations
            assert not residual(two, h).violations


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_verdict_agreement_property(seed):
    params = GrassmannParams(5, 2)
    h = random_pvector(params, seed)
    assert is_simple(h, "plucker") == is_simple(h, "plucker_like")


def test_gaussian_wedge_is_simple():
    params = GrassmannParams(4, 2)
    i = GaussianRational(Fraction(0), Fraction(1))
    rows = [
        [1, i, 0, GaussianRational(Fraction(1, 2))],
        [0, 1, i, GaussianRational(Fraction(2), Fraction(-1, 3))],
    ]
    h = wedge(rows)
    assert h.field == "Q_i"
    assert is_simple(h, "plucker")
    assert is_simple(h, "plucker_like")
    bumped = dict(h.coeffs)
    bumped[(1, 2)] = bumped.get((1, 2), GaussianRational(0)) + 1
    h_bad = pvector(params, bumped, "Q_i")
    report = residual(gen_plucker(params), h_bad)
    assert report.violations
    assert report.max_violation > 0


def test_float_mode_tolerance_at_reference_point(params63):
    # Reference point for the documented constant: relative noise eps on a
    # simple float vector stays below 32*eps in the relative residual.
    exact = random_simple(params63, seed=3)
    eps = 1e-9
    noisy = {}
    for pos, (idx, value) in enumerate(sorted(exact.coeffs.items())):
        bump = 1 + (eps if pos % 2 == 0 else -eps)
        noisy[idx] = float(value) * bump
    h = pvector(params63, noisy, field="f64")
    both = (gen_plucker(params63), gen_plucker_like(params63))
    measured = 0.0
    for system in both:
        for eq in system:
            value = 0.0
            max_term = 0.0
            for term in eq.terms:
                a = h.coeffs.get(term.left)
                b = h.coeffs.get(term.right)
                if not a or not b:
                    continue
                contribution = term.coefficient * a * b
                value += contribution
                max_term = max(max_term, abs(contribution))
            if max_term:
                measured = max(measured, abs(value) / max_term)
    assert measured <= 32 * eps
    for system in both:
        assert not residual(system, h, tolerance=32 * eps).violations
    # The default 1e-9 tolerance also absorbs eps = 1e-12 noise.
    tiny = {
        idx: float(value) * (1 + (1e-12 if pos % 2 else -1e-12))
        for pos, (idx, value) in enumerate(sorted(exact.coeffs.items()))
    }
    h_tiny = pvector(params63, tiny, field="f64")
    for system in both:
        assert is_simple(h_tiny, "plucker" if system.m == 1 else "plucker_like")


def test_float_mode_detects_gross_violation(params63, pluckerlike63):
    h = pvector(params63, {(1, 2, 3): 1.0, (4, 5, 6): 1.0}, field="f64")
    assert not is_simple(h, "plucker_like")
    report = residual(pluckerlike63, h)
    assert len(report.violations) == 6


def test_pvector_json_round_trip(params63):
    for h in (
        random_pvector(params63, 5),
        random_simple(params63, 5),
        pvector(params63, {}, "Q"),
    ):
        assert pvector_from_json(pvector_to_json(h)) == h


def test_pvector_json_gaussian_and_float(params63):
    g = pvector(
        GrassmannParams(4, 2),
        {(1, 2): GaussianRational(Fraction(1, 2), Fraction(-3))},
        "Q_i",
    )
    assert pvector_from_json(pvector_to_json(g)) == g
    f = pvector(params63, {(1, 2, 3): 0.5}, "f64")
    assert pvector_from_json(pvector_to_json(f)) == f


def test_pvector_json_rejects_malformed():
    with pytest.raises(ValueError):
        pvector_from_json("{")
    with pytest.raises(ValueError):
        pvector_from_json('{"n": 6, "p": 3}')
    with pytest.raises(ValueError):
        pvector_from_json(
            '{"n": 6, "p": 3, "field": "Q", "coeffs": ['
            '{"idx": [1, 2, 3], "re": "1"}, {"idx": [1, 2, 3], "re": "2"}]}'
        )


@lru_cache(maxsize=None)
def _systems(n, p):
    params = GrassmannParams(n, p)
    return gen_plucker(params), gen_plucker_like(params)


@st.composite
def exact_pvectors(draw):
    """Q or Q_i p-vectors at 4 <= n <= 7 that stress the chart pivot.

    Shapes: a wedge (optionally with a zero at the would-be pivot
    ``(1, ..., p)``), a sum of two wedges, or one non-zero coefficient.
    """
    n = draw(st.integers(4, 7))
    p = draw(st.integers(2, n - 2))
    params = GrassmannParams(n, p)
    field = draw(st.sampled_from(["Q", "Q_i"]))
    if field == "Q":
        entry = st.integers(-2, 2)
    else:
        entry = st.builds(GaussianRational, st.integers(-2, 2), st.integers(-2, 2))
    rows = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=p, max_size=p)
    shape = draw(st.sampled_from(["wedge", "zero_pivot", "sum", "single"]))
    if shape == "single":
        idx = draw(st.sampled_from(list(combinations(params.indices, p))))
        coeffs = {idx: draw(entry.filter(bool))}
    elif shape == "sum":
        first, second = wedge(draw(rows), n).coeffs, wedge(draw(rows), n).coeffs
        zero = 0 if field == "Q" else GaussianRational(0)
        coeffs = {
            idx: first.get(idx, zero) + second.get(idx, zero) for idx in {*first, *second}
        }
    else:
        drawn = draw(rows)
        if shape == "zero_pivot":
            # Equal leading p x p blocks in two rows kill the (1..p) minor.
            drawn[0][:p] = drawn[1][:p]
        coeffs = dict(wedge(drawn, n).coeffs)
    denominator = draw(st.integers(1, 6))
    coeffs = {idx: v * Fraction(1, denominator) for idx, v in coeffs.items()}
    return pvector(params, coeffs, field)


@settings(max_examples=80, deadline=None)
@given(exact_pvectors())
@example(pvector(GrassmannParams(6, 3), {(1, 2, 3): 1, (4, 5, 6): 1}))
@example(pvector(GrassmannParams(5, 2), {(2, 4): Fraction(-3, 2)}, "Q"))
def test_chart_verdict_matches_equation_oracle(h):
    # Two independent oracles: the affine-chart wedge test inside is_simple,
    # and "no equation of the system is violated".  The cleared residual is
    # itself pinned against evaluate() on the field's own scalars.
    for system in _systems(h.params.n, h.params.p):
        report = residual(system, h)
        assert report.violations == [
            (eq.label, value) for eq in system if (value := evaluate(eq, h))
        ]
        choice = "plucker" if system.m == 1 else "plucker_like"
        assert is_simple(h, choice) == (not report.violations)
