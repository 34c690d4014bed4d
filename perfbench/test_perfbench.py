"""The benchmark's own tests.  Run from the checkout root:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from endtoend import percentile_tail
from inputs import MALFORMED_KINDS, WELL_FORMED_MIX, decide_pass, determinant, minors, rank

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_determinant_and_rank_match_textbook_cases():
    assert determinant([[2, 0, 1], [1, 3, 2], [1, 1, 2]]) == 6
    assert determinant([[0, 1], [1, 0]]) == -1
    assert determinant([[1, 2], [2, 4]]) == 0
    assert rank([[1, 2, 3], [2, 4, 6], [0, 1, 1]]) == 2


def test_minors_match_the_package_wedge():
    from pluckereqs import wedge

    rng = random.Random(7)
    for n, p in ((6, 3), (9, 4)):
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(p)]
        expected = wedge([[Fraction(v) for v in row] for row in rows]).coeffs
        assert {k: Fraction(v) for k, v in minors(rows).items()} == dict(expected)


def test_decide_pass_has_the_fixed_mix_and_known_verdicts():
    from pluckereqs import is_simple, pvector_from_json

    items = decide_pass(seed=3, pass_index=0, n=6, p=3)
    assert len(items) == len(WELL_FORMED_MIX) + len(MALFORMED_KINDS)
    assert sorted(i.expected for i in items).count("malformed") == len(MALFORMED_KINDS)
    for item in items:
        if item.expected != "malformed":
            h = pvector_from_json(item.text)
            assert h.field == item.field
            assert is_simple(h, "plucker") == (item.expected == "simple")
    assert [i.text for i in decide_pass(3, 0, 6, 3)] == [i.text for i in items]
    assert [i.text for i in decide_pass(4, 0, 6, 3)] != [i.text for i in items]


def test_tail_percentile_needs_ten_samples_beyond():
    assert percentile_tail([1.0] * 10) is None
    value, pct, count = percentile_tail([float(v) for v in range(1, 101)])
    assert (value, pct, count) == (90.0, 90, 100)


def test_smoke_mode_passes():
    done = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().endswith("smoke: PASS")


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "tables", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())
    assert json.loads((tmp_path / "BENCHMARK.json").read_text())["paths"] == ["perfbench"]
