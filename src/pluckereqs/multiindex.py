"""Ordered multi-index combinatorics.

A multi-index is a strictly increasing tuple of positive integers such as
``(1, 3, 4)``, used throughout as the subscript of a basis blade or of a
coefficient.  The empty tuple is a valid multi-index.  All operations here
are pure and return plain tuples, so values are hashable and freely
shareable.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterable, Iterator, Sequence
from itertools import combinations
from operator import attrgetter

from . import _EXPORTS

MultiIndex = tuple[int, ...]

__all__ = _EXPORTS["multiindex"]


def as_multiindex(values: Iterable[int]) -> MultiIndex:
    """Validate ``values`` as a multi-index and return it as a tuple.

    >>> as_multiindex([1, 3, 4])
    (1, 3, 4)
    >>> as_multiindex(())
    ()

    Entries must be ``int`` themselves; nothing is converted, so a float or
    a bool is rejected rather than truncated:

    >>> as_multiindex([1.5, 2, 3])
    Traceback (most recent call last):
    ...
    ValueError: multi-index entries must be integers, got 1.5
    """
    idx = tuple(values)
    previous = 0
    for value in idx:
        if type(value) is not int:
            raise ValueError(f"multi-index entries must be integers, got {value!r}")
        if value <= previous:
            if value < 1:
                raise ValueError(f"multi-index entries must be >= 1, got {value}")
            raise ValueError(f"multi-index must be strictly increasing, got {idx}")
        previous = value
    return idx


class _Memo(dict):
    """A dict that builds a missing value once with ``build(key)``: a hit is one dict subscript."""

    def __init__(self, build) -> None:
        super().__init__()
        self.build = build

    def __missing__(self, key):
        value = self[key] = self.build(key)
        return value


class _Record:
    """A value record whose fields are its ``__slots__``, two or more.

    It compares, hashes, pickles and copies as the tuple of its field
    values and prints as a dataclass does.  A subclass names its fields in
    ``__slots__`` and their defaults in ``_defaults``; a list default is
    copied for each instance.  Instances are frozen unless the class is
    declared with ``frozen=False``, which also makes them unhashable.
    """

    __slots__ = ("__weakref__",)
    _defaults: dict = {}

    def __init_subclass__(cls, frozen: bool = True) -> None:
        cls.__match_args__ = cls.__slots__
        cls._values = property(attrgetter(*cls.__slots__))
        if not frozen:
            cls.__setattr__, cls.__delattr__, cls.__hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, *args, **kwargs) -> None:
        names = self.__slots__
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__}() takes {len(names)} arguments, got {len(args)}")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        for name in names[len(args):]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in self._defaults:
                value = self._defaults[name]
                value = value.copy() if value.__class__ is list else value
            else:
                raise TypeError(f"{type(self).__name__}() missing argument {name!r}")
            object.__setattr__(self, name, value)
        if kwargs:
            raise TypeError(f"{type(self).__name__}() got an unexpected argument {[*kwargs][0]!r}")

    def __eq__(self, other):
        return self._values == other._values if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values


class GrassmannParams(_Record):
    """Ambient dimension ``n`` and subspace dimension ``p``, with 1 <= p <= n."""

    __slots__ = ("n", "p")

    def __init__(self, n: int, p: int) -> None:
        if type(n) is not int or type(p) is not int:
            raise ValueError(f"n and p must be integers, got n={n!r}, p={p!r}")
        if n < 1:
            raise ValueError(f"n must be a positive integer, got {n}")
        if not 1 <= p <= n:
            raise ValueError(f"p must satisfy 1 <= p <= n, got p={p}, n={n}")
        super().__init__(n, p)

    @property
    def indices(self) -> range:
        """The index universe 1..n."""
        return range(1, self.n + 1)

    def multiindex(self, values: Iterable[int], size: int | None = None) -> MultiIndex:
        """Validate ``values`` as a multi-index over 1..n and return it interned.

        When ``size`` is given the multi-index must have exactly that many
        entries.  This is the package's one multi-index reader: every label,
        term and coefficient index it reads passes through here.  The result
        is the process's one tuple with that value, the tuple generated
        equations hold too; a tuple is recorded only once it passes.

        >>> GrassmannParams(6, 3).multiindex([1, 4, 6], 3)
        (1, 4, 6)
        >>> GrassmannParams(6, 3).multiindex([1, 2, 3, 4, 8])
        Traceback (most recent call last):
        ...
        ValueError: multi-index entries must lie in 1..6, got (1, 2, 3, 4, 8)
        """
        if values.__class__ is not tuple:
            values = tuple(values)
        try:
            idx = _INTERNED.get(values)
        except TypeError:  # an unhashable entry: never recorded, so refused below
            idx = None
        # 1.0 and True compare equal to 1, so only the recorded tuple itself or
        # one of exactly-int entries skips the entry checks.
        if idx is None or idx is not values and not _INT_ONLY.issuperset(map(type, values)):
            idx = as_multiindex(values)
        if size is not None and len(idx) != size:
            raise ValueError(f"multi-index {idx} must have {size} entries")
        if idx and idx[-1] > self.n:
            raise ValueError(f"multi-index entries must lie in 1..{self.n}, got {idx}")
        return _INTERNED.setdefault(idx, idx)


# One tuple per distinct valid multi-index the process has generated or read.
_INTERNED: dict[MultiIndex, MultiIndex] = {}
_INT_ONLY = {int}


def inversion_pairs(a: Sequence[int], b: Sequence[int]) -> int:
    """Count pairs ``(x, y)`` with ``x`` in ``a``, ``y`` in ``b`` and ``x > y``.

    Both arguments must be sorted ascending (multi-indices are).  Runs a
    binary-search scan instead of the quadratic double loop.

    >>> inversion_pairs((2, 3, 4, 5), (3,))
    2
    >>> inversion_pairs((1, 2, 3, 4, 5, 6), (2, 3))
    7
    """
    count = 0
    for y in b:
        count += len(a) - bisect_right(a, y)
    return count


def ordered_union(a: Iterable[int], b: Iterable[int]) -> MultiIndex:
    """Sorted duplicate-free union of two index sets."""
    return tuple(sorted(set(a) | set(b)))


def difference(a: Iterable[int], b: Iterable[int]) -> MultiIndex:
    """Sorted set difference ``a \\ b``."""
    return tuple(sorted(set(a) - set(b)))


def symmetric_difference(a: Iterable[int], b: Iterable[int]) -> MultiIndex:
    """Sorted symmetric difference of two index sets."""
    return tuple(sorted(set(a) ^ set(b)))


def intersection(a: Iterable[int], b: Iterable[int]) -> MultiIndex:
    """Sorted intersection of two index sets."""
    return tuple(sorted(set(a) & set(b)))


def subsets_of_size(source: Sequence[int], m: int) -> Iterator[MultiIndex]:
    """Yield the size-``m`` subsets of ``source`` in lexicographic order.

    >>> list(subsets_of_size((3, 4, 5), 1))
    [(3,), (4,), (5,)]
    >>> list(subsets_of_size((1, 2), 0))
    [()]
    """
    if not 0 <= m <= len(source):
        raise ValueError(f"subset size must satisfy 0 <= m <= {len(source)}, got {m}")
    return iter(combinations(tuple(source), m))


def multinomial(n: int, parts: Sequence[int]) -> int:
    """Exact multinomial coefficient ``n! / (parts[0]! * parts[1]! * ...)``.

    The parts must be non-negative and sum to ``n``.

    >>> multinomial(6, [4, 1, 1])
    30
    """
    if any(part < 0 for part in parts):
        raise ValueError(f"multinomial parts must be non-negative, got {list(parts)}")
    if sum(parts) != n:
        raise ValueError(f"multinomial parts must sum to {n}, got {list(parts)}")
    result = 1
    remaining = n
    for part in parts:
        result *= math.comb(remaining, part)
        remaining -= part
    return result


def grassmann_codimension(params: GrassmannParams) -> int:
    """Codimension of the embedded Gr(p, n): C(n, p) - 1 - p*(n - p).

    >>> grassmann_codimension(GrassmannParams(6, 3))
    10
    """
    n, p = params.n, params.p
    return math.comb(n, p) - 1 - p * (n - p)
