import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pluckereqs import (
    GrassmannParams,
    as_multiindex,
    difference,
    grassmann_codimension,
    intersection,
    inversion_pairs,
    multinomial,
    ordered_union,
    subsets_of_size,
    symmetric_difference,
)
from pluckereqs.equations import _MASKS, _MULTIINDEX_BY_MASK
from pluckereqs.multiindex import _INTERNED, _Memo

multiindices = st.sets(st.integers(1, 12), max_size=6).map(lambda s: tuple(sorted(s)))


def brute_force_inversions(a, b):
    return sum(1 for x in a for y in b if x > y)


def test_as_multiindex_validates():
    assert as_multiindex([1, 3, 4]) == (1, 3, 4)
    assert as_multiindex(()) == ()
    with pytest.raises(ValueError):
        as_multiindex([0, 1])
    with pytest.raises(ValueError):
        as_multiindex([2, 2])
    with pytest.raises(ValueError):
        as_multiindex([3, 1])
    # Entries are never converted: a float or bool is rejected, not truncated.
    for bad in ([1.5, 2, 3], [1.0, 2], [True, 2], ["1", "2"]):
        with pytest.raises(ValueError, match="integers"):
            as_multiindex(bad)


def test_reader_interns_one_tuple_per_value():
    # Read at any n it fits and with or without its size, a value is
    # recorded once, and every read returns that one tuple.
    values = [7, 1009, 4099]
    recorded = len(_INTERNED)
    first = GrassmannParams(4099, 3).multiindex(values, 3)
    assert first == tuple(values)
    for n, size in [(4099, None), (5000, 3), (10**6, None), (10**6, 3)]:
        assert GrassmannParams(n, 3).multiindex(iter(values), size) is first
        assert GrassmannParams(n, 3).multiindex(tuple(values), size) is first
    assert len(_INTERNED) == recorded + 1


@pytest.mark.parametrize(
    "n, values, size, message",
    [
        (5000, [3, 1013, 4111], 2, r"^multi-index \(3, 1013, 4111\) must have 2 entries$"),
        (4110, [3, 1013, 4111], 3, r"^multi-index entries must lie in 1\.\.4110, got \(3, 1013, 4111\)$"),
        (5000, [3, 4111, 1013], 3, r"^multi-index must be strictly increasing, got \(3, 4111, 1013\)$"),
    ],
    ids=["wrong_size", "above_n", "unsorted"],
)
def test_refused_read_records_nothing(n, values, size, message):
    recorded = len(_INTERNED)
    with pytest.raises(ValueError, match=message):
        GrassmannParams(n, 3).multiindex(values, size)
    assert len(_INTERNED) == recorded
    assert tuple(values) not in _INTERNED


def test_params_validation():
    GrassmannParams(6, 3)
    GrassmannParams(1, 1)
    with pytest.raises(ValueError):
        GrassmannParams(5, 6)
    with pytest.raises(ValueError):
        GrassmannParams(5, 0)
    with pytest.raises(ValueError, match="^n must be a positive integer, got 0$"):
        GrassmannParams(0, 1)
    with pytest.raises(ValueError, match="^p must satisfy 1 <= p <= n, got p=6, n=5$"):
        GrassmannParams(5, 6)


@pytest.mark.parametrize(
    "n, p, shown",
    [(6.0, 3, "n=6.0, p=3"), (6, 3.0, "n=6, p=3.0"), (True, True, "n=True, p=True"), ("6", 3, "n='6', p=3")],
)
def test_params_refuse_what_is_not_exactly_int(n, p, shown):
    # 6.0 and True equal ints, so a params built from them would equal
    # GrassmannParams(6, 3) and fail later, in the generators.
    with pytest.raises(ValueError, match=f"^n and p must be integers, got {shown}$"):
        GrassmannParams(n, p)


def test_memo_builds_each_key_once():
    calls = []
    memo = _Memo(lambda key: calls.append(key) or 2 * key)
    assert [memo[key] for key in (3, 1, 3, 3, 1)] == [6, 2, 6, 6, 2]
    assert calls == [3, 1]
    assert memo == {3: 6, 1: 2}
    # The generator's mask tables are memos: a second read is the stored value.
    assert _MASKS[(1, 3)] is _MASKS[(1, 3)] == (0b1010, 0b0110)
    assert _MULTIINDEX_BY_MASK[0b1010] == (1, 3)


def test_inversion_pairs_examples():
    assert inversion_pairs((2, 3, 4, 5), (3,)) == 2
    assert brute_force_inversions((2, 3, 4, 5), (3,)) == 2
    assert inversion_pairs((1, 2, 3), ()) == 0
    assert inversion_pairs((), (1, 2)) == 0
    assert inversion_pairs((1, 2, 3, 4, 5, 6), (2, 3)) == 7
    assert brute_force_inversions((1, 2, 3, 4, 5, 6), (2, 3)) == 7


@given(multiindices, multiindices)
def test_inversion_pairs_matches_brute_force(a, b):
    assert inversion_pairs(a, b) == brute_force_inversions(a, b)


@given(multiindices, multiindices)
def test_inversion_symmetry_identity(a, b):
    shared = len(set(a) & set(b))
    assert inversion_pairs(a, b) + inversion_pairs(b, a) == len(a) * len(b) - shared


def test_set_operations():
    assert ordered_union((1, 2), (3,)) == (1, 2, 3)
    assert symmetric_difference((1, 2), (1, 3, 4, 5)) == (2, 3, 4, 5)
    assert difference((2, 3, 4, 5, 6), (2, 3)) == (4, 5, 6)
    assert intersection((1, 2, 4), (2, 4, 5)) == (2, 4)


@given(multiindices, multiindices)
def test_symmetric_difference_decomposition(a, b):
    assert symmetric_difference(a, b) == ordered_union(difference(a, b), difference(b, a))


def test_subsets_of_size():
    assert list(subsets_of_size((3, 4, 5), 1)) == [(3,), (4,), (5,)]
    pairs = list(subsets_of_size((2, 3, 4, 5, 6), 2))
    assert len(pairs) == 10
    assert pairs[0] == (2, 3)
    assert pairs[-1] == (5, 6)
    assert pairs == sorted(pairs)
    assert list(subsets_of_size((1, 2), 0)) == [()]
    with pytest.raises(ValueError):
        list(subsets_of_size((1, 2), 3))


@given(multiindices, st.integers(0, 6))
def test_subsets_count_matches_multinomial(source, m):
    if m > len(source):
        return
    subsets = list(subsets_of_size(source, m))
    assert len(subsets) == multinomial(len(source), [m, len(source) - m])


def test_multinomial_values():
    assert multinomial(6, [4, 1, 1]) == 30
    assert multinomial(6, [1, 5, 0, 0]) == 6
    assert multinomial(8, [0, 2, 6, 0]) == 28
    assert multinomial(8, [0, 2, 6, 0]) == math.factorial(8) // (
        math.factorial(2) * math.factorial(6)
    )
    assert multinomial(0, []) == 1


def test_multinomial_rejects_bad_parts():
    with pytest.raises(ValueError):
        multinomial(6, [4, 1])
    with pytest.raises(ValueError):
        multinomial(6, [7, -1])


@given(st.integers(0, 20), st.lists(st.integers(0, 8), min_size=1, max_size=5))
def test_multinomial_matches_factorials(n, parts):
    if sum(parts) != n:
        with pytest.raises(ValueError):
            multinomial(n, parts)
        return
    denom = 1
    for part in parts:
        denom *= math.factorial(part)
    assert multinomial(n, parts) == math.factorial(n) // denom


def test_grassmann_codimension():
    assert grassmann_codimension(GrassmannParams(6, 3)) == 10
    assert grassmann_codimension(GrassmannParams(9, 1)) == 0
    assert grassmann_codimension(GrassmannParams(7, 3)) == 22


@given(st.integers(2, 15), st.integers(1, 14))
def test_codimension_duality(n, p):
    if p >= n:
        return
    assert grassmann_codimension(GrassmannParams(n, p)) == grassmann_codimension(
        GrassmannParams(n, n - p)
    )
