"""The value contract of the record classes.

Every class below compares by class and fields, prints the repr recorded
here, pickles and copies, and refuses assignment when frozen.  The repr
strings are the ones the package printed when these classes were
dataclasses, so a caller that logs or compares them sees the same text.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from pluckereqs import (
    CensusReport,
    EquationSystem,
    GaussianRational,
    GrassmannParams,
    PairFamily,
    ProbeReport,
    PVector,
    QClassCensus,
    QuadraticEquation,
    QuadTerm,
    Residual,
    VerifyReport,
)


def _records():
    """Each record class once: (value, its repr, whether it is frozen)."""
    params = GrassmannParams(6, 3)
    eq = QuadraticEquation(params, ((1, 2), (3, 4, 5, 6)), (QuadTerm(-1, (1, 2, 3), (4, 5, 6)),))
    stratum = QClassCensus(1, "3-term", 30, 30, 3, (3,))
    counts = CensusReport(params, 30, 30, [stratum], 0, 0, True, True)
    return [
        (params, "GrassmannParams(n=6, p=3)", True),
        (
            eq,
            "QuadraticEquation(params=GrassmannParams(n=6, p=3), label=((1, 2), (3, 4, 5, 6)), "
            "terms=(QuadTerm(coefficient=-1, left=(1, 2, 3), right=(4, 5, 6)),))",
            True,
        ),
        (
            EquationSystem(params, 1, ()),
            "EquationSystem(params=GrassmannParams(n=6, p=3), m=1, equations=())",
            True,
        ),
        (
            GaussianRational(1, Fraction(1, 2)),
            "GaussianRational(re=Fraction(1, 1), im=Fraction(1, 2))",
            True,
        ),
        (
            PVector(GrassmannParams(4, 2), {(1, 2): Fraction(2, 3)}),
            "PVector(params=GrassmannParams(n=4, p=2), coeffs={(1, 2): Fraction(2, 3)}, field='Q')",
            True,
        ),
        (
            stratum,
            "QClassCensus(q_size=1, kind='3-term', observed=30, predicted=30, expected_terms=3, "
            "observed_terms=(3,))",
            True,
        ),
        (
            counts,
            "CensusReport(params=GrassmannParams(n=6, p=3), total_observed=30, total_predicted=30, "
            "classes=[QClassCensus(q_size=1, kind='3-term', observed=30, predicted=30, "
            "expected_terms=3, observed_terms=(3,))], families_observed=0, families_predicted=0, "
            "all_distinct=True, all_nontrivial=True)",
            False,
        ),
        (
            PairFamily(q=(1,), l=(2, 3), members=(((1, 2), (1, 3)),)),
            "PairFamily(q=(1,), l=(2, 3), members=(((1, 2), (1, 3)),))",
            True,
        ),
        (
            ProbeReport(9, 4, 0, True, 12, ((1, 12),), 0),
            "ProbeReport(n=9, p=4, q_size=0, admissible=True, equation_count=12, "
            "support_group_sizes=((1, 12),), max_support_overlap=0)",
            True,
        ),
        (
            VerifyReport(params, CensusReport(params, 0, 0, [], 0, 0, True, True)),
            "VerifyReport(params=GrassmannParams(n=6, p=3), census=CensusReport("
            "params=GrassmannParams(n=6, p=3), total_observed=0, total_predicted=0, classes=[], "
            "families_observed=0, families_predicted=0, all_distinct=True, all_nontrivial=True), "
            "decompositions_checked=0, decomposition_failures=[], families_checked=0, "
            "family_failures=[], combinations_checked=0, combination_failures=[], "
            "multiplicity_failures=[])",
            False,
        ),
    ]


NAMES = [type(value).__name__ for value, _, _ in _records()]
# The two mutable reports, and a frozen p-vector that holds a dict.
UNHASHABLE = {"CensusReport", "PVector", "VerifyReport"}
CASES = pytest.mark.parametrize("index", range(len(NAMES)), ids=NAMES)


@CASES
def test_record_repr(index):
    value, text, _ = _records()[index]
    assert repr(value) == text


@CASES
def test_record_equality_and_hash(index):
    (value, _, _), (twin, _, _) = _records()[index], _records()[index]
    assert value == twin and not value != twin
    assert value is not twin
    assert value != object() and value != tuple(getattr(value, name) for name in value.__match_args__)
    if NAMES[index] not in UNHASHABLE:
        assert hash(value) == hash(twin)
        assert {value: 1}[twin] == 1
    else:
        with pytest.raises(TypeError):
            hash(value)


@CASES
def test_record_frozen_or_mutable(index):
    value, _, frozen = _records()[index]
    for name in value.__match_args__:
        if frozen:
            with pytest.raises(AttributeError):
                setattr(value, name, 0)
            with pytest.raises(AttributeError):
                delattr(value, name)
        else:
            setattr(value, name, 0)
            assert getattr(value, name) == 0


@CASES
def test_record_pickle_and_copy(index):
    value, text, _ = _records()[index]
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is type(value)
        assert twin == value
        assert repr(twin) == text


def test_record_fields_and_match():
    assert GrassmannParams.__match_args__ == ("n", "p")
    assert VerifyReport.__match_args__[:2] == ("params", "census")
    match GrassmannParams(6, 3):
        case GrassmannParams(n, p):
            assert (n, p) == (6, 3)
    # The class constants of a probe report are not fields.
    assert "note" not in ProbeReport.__match_args__
    assert ProbeReport(9, 4, 0, True, 0, (), 0).coefficient_bound == 2


def test_record_keywords_and_defaults():
    params = GrassmannParams(p=3, n=6)
    assert params == GrassmannParams(6, 3) != (6, 3)
    assert {GrassmannParams(6, 3): "Gr(3, 6)"}[params] == "Gr(3, 6)"
    assert PVector(params, {}).field == "Q"
    assert GaussianRational(2) == GaussianRational(Fraction(2), Fraction(0))
    assert type(GaussianRational(2, 1).im) is Fraction
    with pytest.raises(TypeError):
        GrassmannParams(6)
    with pytest.raises(TypeError):
        GrassmannParams(6, 3, 1)
    with pytest.raises(TypeError):
        GrassmannParams(6, p=3, q=1)
    with pytest.raises(ValueError, match="p must satisfy"):
        GrassmannParams(6, 7)
    # GrassmannParams checks its own arguments; these reach _Record's.
    with pytest.raises(TypeError, match=r"^QuadraticEquation\(\) takes 3 arguments, got 4$"):
        QuadraticEquation(1, 2, 3, 4)
    with pytest.raises(TypeError, match=r"^EquationSystem\(\) missing argument 'equations'$"):
        EquationSystem(params, 1)
    with pytest.raises(TypeError, match=r"^PVector\(\) got an unexpected argument 'colour'$"):
        PVector(params, {}, colour=1)


def test_verify_reports_do_not_share_lists():
    params = GrassmannParams(6, 3)
    counts = CensusReport(params, 0, 0, [], 0, 0, True, True)
    first, second = VerifyReport(params, counts), VerifyReport(params, census=counts)
    names = ("decomposition_failures", "family_failures", "combination_failures",
             "multiplicity_failures")
    for name in names:
        getattr(first, name).append(((1,), (2,)))
        assert getattr(second, name) == []
        assert getattr(first, name) is not getattr(second, name)
    assert first.decompositions_checked == second.families_checked == 0


def test_named_tuples_keep_their_fields():
    term = QuadTerm(1, (1, 2), (3, 4))
    assert isinstance(term, tuple) and term == (1, (1, 2), (3, 4))
    assert QuadTerm._fields == ("coefficient", "left", "right")
    assert Residual._fields == ("max_violation", "violations")
    assert isinstance(Residual(0, []), tuple)
    assert repr(term) == "QuadTerm(coefficient=1, left=(1, 2), right=(3, 4))"
