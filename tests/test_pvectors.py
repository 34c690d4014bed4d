import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pluckereqs import (
    EquationSystem,
    GaussianRational,
    GrassmannParams,
    QuadraticEquation,
    QuadTerm,
    canonicalize,
    evaluate,
    gen_plucker,
    gen_plucker_like,
    is_simple,
    pvector,
    pvector_from_dict,
    pvector_from_json,
    pvector_to_json,
    random_pvector,
    random_simple,
    residual,
    scaled,
    wedge,
)
from pluckereqs.multiindex import _INTERNED

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
    # An int or Fraction operand is exact on either side; any other type is
    # refused by each binary operator, so Python raises TypeError.
    assert a - 1 == GaussianRational(Fraction(-1, 2), Fraction(1))
    assert 1 - a == GaussianRational(Fraction(1, 2), Fraction(-1))
    assert 2 / a == GaussianRational(Fraction(4, 5), Fraction(-8, 5))
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__"):
        assert getattr(a, name)(1.5) is NotImplemented, name
    with pytest.raises(TypeError):
        a + 1.5
    with pytest.raises(TypeError):
        1.5 - a


def test_zero_in_each_field(params63):
    # An absent coefficient reads as the field's own zero, and scaling by 0
    # gives the zero vector of the same field.
    for field, zero in [("Q", Fraction(0)), ("Q_i", GaussianRational(0)), ("f64", 0.0)]:
        h = pvector(params63, {(1, 2, 3): 1}, field)
        value = h.coefficient((4, 5, 6))
        assert value == zero and type(value) is type(zero), field
        assert scaled(h, 0) == pvector(params63, {}, field), field


def test_pvector_validation(params63):
    h = pvector(params63, {(1, 2, 3): Fraction(1), (1, 2, 4): 0})
    assert (1, 2, 4) not in h.coeffs
    with pytest.raises(ValueError):
        pvector(params63, {(1, 2): 1})
    with pytest.raises(ValueError):
        pvector(params63, {(1, 2, 7): 1})
    with pytest.raises(ValueError):
        pvector(params63, {(1, 2, 3): 1}, field="R")
    with pytest.raises(ValueError, match="^field Q needs int/Fraction coefficients, got float$"):
        pvector(params63, {(1, 2, 3): 0.5}, field="Q")
    with pytest.raises(ValueError, match="^field Q_i cannot hold str$"):
        pvector(params63, {(1, 2, 3): "1"}, field="Q_i")


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
    with pytest.raises(ValueError, match="^wedge needs at least one vector$"):
        wedge([])


def test_wedge_refuses_a_complex_entry():
    # No field holds a complex: float, Gaussian rational and rational entries
    # choose the field, and a complex does not make it Q_i.
    with pytest.raises(ValueError, match="^field Q needs int/Fraction coefficients, got complex$"):
        wedge([[1j, 0, 0], [0, 1, 0]])


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


def test_evaluate_f64_does_not_overflow():
    # Every product is 1e400, past the float range: summed as is, each
    # non-trivial equation would read inf - inf = nan.  evaluate scales h
    # as the residual does and reads the exact 0.0 of a simple vector.
    h = wedge([[1e100, 0, 1e100, 1e100], [0, 1e100, 1e100, 2e100]])
    assert is_simple(h) and not residual(gen_plucker(h.params), h).violations
    for system in (gen_plucker(h.params), gen_plucker_like(h.params)):
        assert [evaluate(eq, h) for eq in system] == [0.0] * len(system)


def test_evaluate_params_mismatch(h_sum):
    other = gen_plucker(GrassmannParams(7, 3))
    with pytest.raises(ValueError):
        evaluate(other.equations[0], h_sum)
    with pytest.raises(ValueError, match=r"^system is for GrassmannParams\(n=7, p=3\), p-vector for"):
        residual(other, h_sum)


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


@pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -1.0])
def test_tolerance_must_be_finite_and_non_negative(params63, plucker63, tolerance):
    for field, one in (("Q", 1), ("f64", 1.0)):
        h = pvector(params63, {(1, 2, 3): one, (4, 5, 6): one}, field)
        with pytest.raises(ValueError, match="tolerance"):
            is_simple(h, "plucker", tolerance)
        with pytest.raises(ValueError, match="tolerance"):
            residual(plucker63, h, tolerance)


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


def test_parsed_keys_are_the_generated_tuples(params63):
    generated = {idx: idx for eq in gen_plucker(params63) for t in eq.terms for idx in t[1:]}
    text = pvector_to_json(random_pvector(params63, 5))
    recorded = len(_INTERNED)
    h = pvector_from_json(text)
    assert h.coeffs and all(idx is generated[idx] for idx in h.coeffs)
    assert len(_INTERNED) == recorded


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


def test_pvector_json_refuses_a_repeated_top_level_key():
    # The last "coeffs" would otherwise win and read as the zero vector.
    text = (
        '{"n": 4, "p": 2, "field": "Q", "coeffs": [{"idx": [1, 2], "re": "1"}, '
        '{"idx": [1, 3], "re": "1"}, {"idx": [2, 4], "re": "1"}, {"idx": [3, 4], "re": "1"}], '
        '"coeffs": []}'
    )
    with pytest.raises(ValueError, match="^invalid JSON: Repeated key 'coeffs': line 1 "):
        pvector_from_json(text)
    with pytest.raises(ValueError, match="^invalid JSON: Repeated key 'n': "):
        pvector_from_json('{"n": 4, "p": 2, "field": "Q", "coeffs": [], "n": 5}')


def test_pvector_json_refuses_a_repeated_key_in_a_coefficient():
    # Read last-wins, the second "re" would make e12 + e34 the simple e12.
    text = (
        '{"n":4,"p":2,"field":"Q","coeffs":[{"idx":[1,2],"re":"1"},'
        '{"idx":[3,4],"re":"1","re":"0"}]}'
    )
    with pytest.raises(ValueError) as raised:
        pvector_from_json(text)
    assert str(raised.value) == "invalid JSON: Repeated key 're': line 1 column 85 (char 84)"
    # With one "re", the vector is the non-simple e12 + e34.
    h = pvector_from_json(text.replace(',"re":"0"', ""))
    assert not is_simple(h)


def test_pvector_refuses_im_outside_q_i():
    # Dropped, the "im" would leave the simple e12; with field Q_i the same
    # coefficients are e12 + i e34, which is not simple.
    text = (
        '{"n":4,"p":2,"field":"Q","coeffs":[{"idx":[1,2],"re":"1"},'
        '{"idx":[3,4],"re":"0","im":"1"}]}'
    )
    assert not is_simple(pvector_from_json(text.replace('"Q"', '"Q_i"')))
    with pytest.raises(ValueError, match="""^"im" is allowed only in Q_i coefficients, got field 'Q'$"""):
        pvector_from_json(text)
    entries = [{"idx": [1, 2], "re": 1.0}, {"idx": [3, 4], "re": 0.0, "im": "1"}]
    with pytest.raises(ValueError, match="""^"im" is allowed only in Q_i coefficients, got field 'f64'$"""):
        pvector_from_dict({"n": 4, "p": 2, "field": "f64", "coeffs": entries})


@pytest.mark.parametrize(
    "text, value",
    [("3", Fraction(3)), ("-2/3", Fraction(-2, 3)), ("+4/6", Fraction(2, 3)),
     ("0.25", Fraction(1, 4)), ("-1.50", Fraction(-3, 2)), ("1/0", None)],
)
def test_exact_coefficient_grammar_accepts(text, value):
    doc = '{"n": 3, "p": 1, "field": "Q_i", "coeffs": [{"idx": [1], "re": "1", "im": "%s"}]}'
    if value is None:  # well-formed, but a zero denominator
        with pytest.raises(ValueError):
            pvector_from_json(doc % text)
        return
    assert pvector_from_json(doc % text).coefficient((1,)) == GaussianRational(1, value)


@pytest.mark.parametrize(
    "text", ["1e10000000", "1E5", "2.5e-3", ".5", "5.", "1_000", " 1", "1 ", "0x10",
             "inf", "nan", "1/2/3", "1/-2", "", "\u0661"],
)
def test_exact_coefficient_grammar_rejects(text):
    for field, key in (("Q", "re"), ("Q_i", "re"), ("Q_i", "im")):
        entry = {"idx": [1], "re": "1", key: text}
        doc = {"n": 3, "p": 1, "field": field, "coeffs": [entry]}
        with pytest.raises(ValueError, match="exact coefficients"):
            pvector_from_dict(doc)


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
        first, second = wedge(draw(rows)).coeffs, wedge(draw(rows)).coeffs
        zero = 0 if field == "Q" else GaussianRational(0)
        coeffs = {
            idx: first.get(idx, zero) + second.get(idx, zero) for idx in {*first, *second}
        }
    else:
        drawn = draw(rows)
        if shape == "zero_pivot":
            # Equal leading p x p blocks in two rows kill the (1..p) minor.
            drawn[0][:p] = drawn[1][:p]
        coeffs = dict(wedge(drawn).coeffs)
    denominator = draw(st.integers(1, 6))
    coeffs = {idx: v * Fraction(1, denominator) for idx, v in coeffs.items()}
    return pvector(params, coeffs, field)


_BIG = 10**40


@st.composite
def sparse_exact_pvectors(draw):
    """Q or Q_i p-vectors at 4 <= n <= 7 on a random support, parts up to ~1e40.

    Parts mix small and huge numerators of both signs over small
    denominators, so both integer sums of a Gaussian equation take both signs.
    """
    n = draw(st.integers(4, 7))
    p = draw(st.integers(2, n - 2))
    params = GrassmannParams(n, p)
    field = draw(st.sampled_from(["Q", "Q_i"]))
    numerator = st.one_of(st.integers(-3, 3), st.integers(-_BIG, _BIG), st.sampled_from([-_BIG, _BIG]))
    part = st.builds(Fraction, numerator, st.integers(1, 12))
    value = part if field == "Q" else st.builds(GaussianRational, part, part)
    keys = st.sampled_from(list(combinations(params.indices, p)))
    return pvector(params, draw(st.dictionaries(keys, value, max_size=3 * n)), field)


@settings(max_examples=80, deadline=None)
@given(st.one_of(exact_pvectors(), sparse_exact_pvectors()))
@example(pvector(GrassmannParams(6, 3), {(1, 2, 3): 1, (4, 5, 6): 1}))
@example(pvector(GrassmannParams(5, 2), {(2, 4): Fraction(-3, 2)}, "Q"))
# The wedge of each chart's rows is h plus one coefficient h lacks (e34,
# e145), so only the count of non-zero coefficients tells the two apart.
@example(pvector(GrassmannParams(4, 2), {(1, 2): 1, (1, 4): 1, (2, 3): 1}))
@example(pvector(GrassmannParams(6, 3), {(1, 2, 3): 1, (1, 2, 5): 1, (1, 3, 4): 1}))
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


def _reference_residual(system, h):
    """``residual`` for an exact field, one ``evaluate`` per equation in field arithmetic."""
    violations = [(eq.label, value) for eq in system if (value := evaluate(eq, h))]
    size = abs if h.field == "Q" else GaussianRational.norm_sq
    return max((size(value) for _, value in violations), default=Fraction(0)), violations


def _assert_residual_matches_reference(system, h):
    report = residual(system, h)
    worst, violations = _reference_residual(system, h)
    assert report.violations == violations
    assert report.max_violation == worst
    assert type(report.max_violation) is Fraction


@settings(max_examples=120, deadline=None)
@given(sparse_exact_pvectors())
def test_residual_matches_field_reference(h):
    for system in _systems(h.params.n, h.params.p):
        _assert_residual_matches_reference(system, h)


def _hand_built_system(params):
    """Two labels whose coefficient sums (4 and 5) exceed their term counts (2 and 3)."""
    def equation(label, *terms):
        return QuadraticEquation(params, label, tuple(QuadTerm(*term) for term in terms))

    return EquationSystem(params, 1, (
        equation(((1, 2), (1, 2, 3, 4)), (3, (1, 2, 3), (1, 2, 4)), (1, (1, 2, 5), (1, 2, 6))),
        equation(((1, 3), (1, 3, 4, 5)), (-3, (1, 2, 3), (1, 2, 5)), (1, (1, 2, 4), (1, 2, 6)),
                 (-1, (1, 2, 3), (1, 2, 6))),
    ))


_U = GaussianRational(_BIG, _BIG)  # U*U = 2B**2 i, U*conj(U) = 2B**2
_W = GaussianRational(_BIG, -_BIG)


@pytest.mark.parametrize(
    "values",
    [
        # Keys 123, 124, 125, 126.  In the second equation (coefficients
        # -3, 1, -1, so W = 5 over 3 terms) every term adds the same
        # 2B**2 or 2B**2 i, so one part reaches +-2*W*B**2, the largest
        # value either integer sum can take at these coefficients.
        [_U, -_U, _U, _U],
        [-_U, _U, _U, _U],
        [_U, -_U, _W, _W],
        [-_U, _U, _W, _W],
        [GaussianRational(-_BIG + 1, _BIG - 3), GaussianRational(_BIG, 7),
         GaussianRational(Fraction(-_BIG, 7), _BIG), GaussianRational(0, -_BIG)],
        [Fraction(-_BIG), Fraction(_BIG, 3), Fraction(_BIG - 1), Fraction(-_BIG, 11)],
    ],
)
def test_residual_exact_at_the_packing_bound(values):
    params = GrassmannParams(6, 3)
    system = _hand_built_system(params)
    keys = [(1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 2, 6)]
    field = "Q" if isinstance(values[0], Fraction) else "Q_i"
    h = pvector(params, dict(zip(keys, values)), field)
    _assert_residual_matches_reference(system, h)
    assert len(residual(system, h).violations) == 2
    for generated in _systems(6, 3):
        _assert_residual_matches_reference(generated, h)


@st.composite
def float_pvectors(draw):
    """f64 p-vectors at 4 <= n <= 8: an integer wedge or a sum of two, times a float scale.

    The scale spans most of the float range, so products of two
    coefficients would overflow or underflow without the residual's scaling.
    """
    n = draw(st.integers(4, 8))
    p = draw(st.integers(2, n - 2))
    rows = st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=p, max_size=p)
    coeffs = dict(wedge(draw(rows)).coeffs)
    if draw(st.booleans()):
        for idx, value in wedge(draw(rows)).coeffs.items():
            coeffs[idx] = coeffs.get(idx, 0) + value
    scale = draw(st.floats(1.0, 10.0)) * 10.0 ** draw(st.integers(-250, 250))
    return pvector(GrassmannParams(n, p), {idx: v * scale for idx, v in coeffs.items()}, "f64")


@settings(max_examples=60, deadline=None)
@given(float_pvectors())
@example(pvector(GrassmannParams(6, 3), {(1, 2, 3): 1e200, (4, 5, 6): 1e200}, "f64"))
@example(pvector(GrassmannParams(6, 3), {(1, 2, 3): 1e-200, (4, 5, 6): -1e-200}, "f64"))
def test_float_chart_verdict_matches_equation_oracle(h):
    for system in _systems(h.params.n, h.params.p):
        choice = "plucker" if system.m == 1 else "plucker_like"
        assert is_simple(h, choice) == (not residual(system, h).violations)


def test_float_chart_near_boundary_never_outruns_the_equations():
    # A "not simple" from the chart must be backed by at least one equation
    # the per-equation relative test calls violated.  Seeded wedges get one
    # coefficient perturbed by 1e-11 to 1e-7 of the largest coefficient,
    # which straddles the default tolerance 1e-9.
    rng = random.Random(20261018)
    for _ in range(200):
        n = rng.randint(4, 7)
        p = rng.randint(2, n - 2)
        params = GrassmannParams(n, p)
        rows = [[float(rng.randint(-3, 3)) for _ in range(n)] for _ in range(p)]
        coeffs = dict(wedge(rows).coeffs)
        if not coeffs:
            continue
        largest = max(map(abs, coeffs.values()))
        idx = rng.choice(list(combinations(params.indices, p)))
        bump = rng.choice((-1, 1)) * largest * 10.0 ** rng.uniform(-11, -7)
        coeffs[idx] = coeffs.get(idx, 0.0) + bump
        h = pvector(params, coeffs, "f64")
        for system in _systems(n, p):
            if not is_simple(h, "plucker" if system.m == 1 else "plucker_like"):
                assert residual(system, h).violations
