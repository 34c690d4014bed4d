"""Seeded p-vector inputs for the ``decide`` workload, built without pluckereqs.

The expected verdict of every input is known from its construction, so the
benchmark never asks the code under test what the right answer is:

* a simple vector is the wedge of p integer vectors of rank p, with each
  coefficient an exact p x p minor computed here;
* a non-simple vector is the sum of two such wedges whose spans meet only in
  0 (checked by an exact rank test here); for p >= 2 such a sum is never
  decomposable, because a sum of two decomposable p-vectors is decomposable
  only when their spans share a (p-1)-dimensional subspace;
* Q inputs scale the integer minors by a seeded non-zero rational, Q_i inputs
  additionally by a Gaussian scalar ``a + b*i``, and f64 inputs round the
  exact Q values to the nearest float.

Malformed inputs cover the three input-boundary defects the CLI must reject
with exit status 2 and no traceback.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

# Per pass: (field, simple, m) for each well-formed file.  Fixed counts keep
# every pass the same mix, so medians do not move with the seed.  With the
# three malformed files, ten launches are faster than a simple Q m=1 check and
# eight slower, so the median launch is always one of those five.
WELL_FORMED_MIX = (
    [("Q", True, 1)] * 5
    + [("Q", True, 2)] * 2
    + [("Q", False, 1)] * 3
    + [("Q", False, 2)] * 2
    + [("f64", True, 1), ("f64", True, 2), ("f64", False, 1), ("f64", False, 2)]
    + [("Q_i", True, 1), ("Q_i", True, 2), ("Q_i", False, 1), ("Q_i", False, 2)]
)
MALFORMED_KINDS = ("missing_idx", "zero_denominator", "infinity")
ENTRY_RANGE = 4


class DecideInput(NamedTuple):
    """One ``check`` input file: its JSON text and the expected outcome."""

    name: str
    text: str
    m: int
    field: str
    expected: str  # "simple", "not simple" or "malformed"


def determinant(rows: list[list[int]]) -> int:
    """Exact integer determinant by Bareiss fraction-free elimination."""
    work = [list(r) for r in rows]
    size = len(work)
    sign, previous = 1, 1
    for col in range(size):
        pivot = next((r for r in range(col, size) if work[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            sign = -sign
        for r in range(col + 1, size):
            for c in range(col + 1, size):
                work[r][c] = (work[r][c] * work[col][col] - work[r][col] * work[col][c]) // previous
        previous = work[col][col]
    return sign * work[-1][-1] if size else 1


def rank(rows: list[list[int]]) -> int:
    """Exact rank over Q by Gaussian elimination on fractions."""
    work = [[Fraction(v) for v in r] for r in rows]
    found = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((r for r in range(found, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        work[found], work[pivot] = work[pivot], work[found]
        for r in range(found + 1, len(work)):
            factor = work[r][col] / work[found][col]
            if factor:
                work[r] = [a - factor * b for a, b in zip(work[r], work[found])]
        found += 1
    return found


def minors(rows: list[list[int]]) -> dict[tuple[int, ...], int]:
    """Non-zero p x p minors of a p x n integer matrix, keyed by 1-based columns."""
    n, p = len(rows[0]), len(rows)
    result = {}
    for cols in combinations(range(n), p):
        value = determinant([[row[c] for c in cols] for row in rows])
        if value:
            result[tuple(c + 1 for c in cols)] = value
    return result


def _full_rank_rows(rng: random.Random, count: int, n: int) -> list[list[int]]:
    while True:
        rows = [[rng.randint(-ENTRY_RANGE, ENTRY_RANGE) for _ in range(n)] for _ in range(count)]
        if rank(rows) == count:
            return rows


def integer_pvector(rng: random.Random, n: int, p: int, simple: bool) -> dict[tuple[int, ...], int]:
    """Integer coefficients of a wedge (simple) or of a sum of two independent wedges."""
    if simple:
        return minors(_full_rank_rows(rng, p, n))
    if 2 * p > n:
        raise ValueError(f"a non-simple input needs 2p <= n, got n={n}, p={p}")
    rows = _full_rank_rows(rng, 2 * p, n)
    total = minors(rows[:p])
    for idx, value in minors(rows[p:]).items():
        total[idx] = total.get(idx, 0) + value
    return {idx: v for idx, v in total.items() if v}


def _nonzero(rng: random.Random, bound: int) -> int:
    return rng.choice([v for v in range(-bound, bound + 1) if v])


def pvector_dict(rng: random.Random, n: int, p: int, field: str, simple: bool) -> dict:
    """The p-vector JSON document for one seeded input in the given field."""
    coeffs = integer_pvector(rng, n, p, simple)
    scale = Fraction(_nonzero(rng, 9), rng.randint(1, 9))
    entries = []
    if field == "Q_i":
        re, im = _nonzero(rng, 5), _nonzero(rng, 5)
    for idx in sorted(coeffs):
        value = coeffs[idx] * scale
        entry: dict = {"idx": list(idx)}
        if field == "Q":
            entry["re"] = str(value)
        elif field == "Q_i":
            entry["re"] = str(value * re)
            entry["im"] = str(value * im)
        else:
            entry["re"] = float(value)
        entries.append(entry)
    return {"n": n, "p": p, "field": field, "coeffs": entries}


def malformed_dict(rng: random.Random, n: int, p: int, kind: str) -> dict:
    """A p-vector document broken in one of the ways named by MALFORMED_KINDS."""
    field = "f64" if kind == "infinity" else "Q"
    data = pvector_dict(rng, n, p, field, simple=True)
    first = data["coeffs"][0]
    if kind == "missing_idx":
        del first["idx"]
    elif kind == "zero_denominator":
        first["re"] = "1/0"
    elif kind == "infinity":
        first["re"] = float("inf")
    else:
        raise ValueError(f"unknown malformed kind {kind!r}")
    return data


def decide_pass(seed: int, pass_index: int, n: int, p: int) -> list[DecideInput]:
    """The seeded, shuffled files of one ``decide`` pass."""
    rng = random.Random(f"decide:{seed}:{pass_index}:{n}:{p}")
    inputs = []
    for number, (field, simple, m) in enumerate(WELL_FORMED_MIX):
        data = pvector_dict(rng, n, p, field, simple)
        inputs.append(
            DecideInput(
                f"v{number:02d}", json.dumps(data), m, field, "simple" if simple else "not simple"
            )
        )
    for kind in MALFORMED_KINDS:
        inputs.append(DecideInput(kind, json.dumps(malformed_dict(rng, n, p, kind)), 2, "-", "malformed"))
    rng.shuffle(inputs)
    return inputs
