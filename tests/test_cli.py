import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
import weakref
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import comb
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pluckereqs import (
    FORMATS,
    EquationSystem,
    GaussianRational,
    canonicalize,
    dedupe,
    gen_generalized,
    gen_plucker_like,
    pvector,
    pvector_to_json,
    random_pvector,
    random_simple,
    render,
    residual,
    wedge,
)
from pluckereqs.cli import build_parser, main
from pluckereqs.multiindex import GrassmannParams

ROOT = Path(__file__).parent.parent
DATA_DIR = ROOT / "tests" / "data"
_SRC = str(ROOT / "src")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_input_error(result) -> str:
    """A rejected input: exit 2, empty stdout, one ``error:`` line and no traceback."""
    code, out, err = result
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    return err


def test_generate_full_plucker_row_count(capsys):
    code, out, _ = run(capsys, "generate", "--n", "6", "--p", "3", "--m", "1")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 225
    assert lines[0] == "(12,1234): 0 = 0"


def test_generate_dedupe_count(capsys):
    code, out, _ = run(capsys, "generate", "--n", "6", "--p", "3", "--m", "1", "--dedupe")
    assert code == 0
    assert len(out.splitlines()) == 45


def test_generate_refuses_raw_with_dedupe(tmp_path, capsys):
    # Dedupe compares canonical forms, so raw output cannot be deduplicated.
    target = tmp_path / "out.txt"
    for out in ([], ["--out", str(target)]):
        err = assert_input_error(
            run(capsys, "generate", "--n", "6", "--p", "3", "--m", "1", "--raw", "--dedupe", *out)
        )
        assert "--raw and --dedupe" in err
    assert not target.exists()


def test_generate_pluckerlike_latex(capsys):
    code, out, _ = run(capsys, "generate", "--n", "6", "--p", "3", "--m", "2", "--format", "latex")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "\\begin{longtable}{rll}"
    assert len([l for l in lines if l.endswith("\\\\") and l[0].isdigit()]) == 36
    assert (
        "1 & (1,12345) & ${\\lambda}_{123} {\\lambda}_{145} - {\\lambda}_{124}"
        " {\\lambda}_{135} + {\\lambda}_{125} {\\lambda}_{134} = 0$ \\\\" in lines
    )


def test_generate_rejects_bad_params(capsys):
    assert_input_error(run(capsys, "generate", "--n", "6", "--p", "7", "--m", "1"))
    assert_input_error(run(capsys, "generate", "--n", "6", "--p", "3", "--m", "9"))


def test_generate_m3_needs_experimental(capsys):
    err = assert_input_error(run(capsys, "generate", "--n", "6", "--p", "3", "--m", "3"))
    assert "--experimental" in err
    code, out, _ = run(
        capsys, "generate", "--n", "6", "--p", "3", "--m", "3", "--experimental"
    )
    assert code == 0
    assert len(out.splitlines()) == 1


def test_generate_out_file(tmp_path, capsys):
    target = tmp_path / "system.json"
    code, out, _ = run(
        capsys, "generate", "--n", "6", "--p", "3", "--m", "2",
        "--format", "json", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    data = json.loads(target.read_text())
    assert len(data["equations"]) == 36


def test_generate_out_io_error(capsys):
    code, _, err = run(
        capsys, "generate", "--n", "6", "--p", "3", "--m", "1",
        "--out", "/nonexistent-dir/x.txt",
    )
    assert code == 3
    assert "i/o error" in err


def test_generate_jobs_determinism(capsys):
    args = ("generate", "--n", "6", "--p", "3", "--m", "2", "--format", "json")
    _, single, _ = run(capsys, *args, "--jobs", "1")
    _, multi, _ = run(capsys, *args, "--jobs", "8")
    assert single == multi


def test_check_non_simple(tmp_path, capsys):
    params = GrassmannParams(6, 3)
    h = pvector(params, {(1, 2, 3): 1, (4, 5, 6): 1})
    path = tmp_path / "h.json"
    path.write_text(pvector_to_json(h))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1
    assert "not simple" in out
    assert out.count("(") >= 6
    code, out, _ = run(capsys, "check", str(path), "--m", "1")
    assert code == 1


@pytest.mark.parametrize(
    "field, m, batch",
    [
        pytest.param(field, m, batch, id=f"{field}-{m}" + ("-7_char_batches" if batch else ""))
        for batch in (None, 7)
        for field in ("Q", "Q_i", "f64")
        for m in ("1", "2")
    ],
)
def test_check_non_simple_golden_output(capsys, monkeypatch, field, m, batch):
    # Each input at (7,3) is a sum of two scaled wedges; the expected
    # outputs pin every violated label and its exact or float value.
    import pluckereqs.cli

    if batch is not None:
        monkeypatch.setattr(pluckereqs.cli, "_BATCH", batch)
    path = DATA_DIR / f"check_7_3_{field}.json"
    code, out, err = run(capsys, "check", str(path), "--m", m)
    expected = (DATA_DIR / f"check_7_3_{field}_m{m}.out").read_bytes()
    assert (code, err) == (1, "")
    assert out.encode() == expected


def test_check_simple_wedge(tmp_path, capsys):
    h = wedge([[1, 0, 0, 1, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]])
    path = tmp_path / "w.json"
    path.write_text(pvector_to_json(h))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0
    assert out.strip() == "simple"


def test_check_zero_vector(tmp_path, capsys):
    params = GrassmannParams(6, 3)
    path = tmp_path / "zero.json"
    path.write_text(pvector_to_json(pvector(params, {})))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0
    assert "zero vector" in out
    # At p = n no system moves an index: the zero vector is rejected with
    # the same error line as a non-zero vector, not reported simple.
    params = GrassmannParams(3, 3)
    errors = []
    for h in (pvector(params, {}), pvector(params, {(1, 2, 3): 1})):
        path.write_text(pvector_to_json(h))
        errors.append(assert_input_error(run(capsys, "check", str(path), "--m", "1")))
    assert errors[0] == errors[1]
    assert "m must satisfy" in errors[0]


def test_check_malformed_input(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    assert_input_error(run(capsys, "check", str(path)))
    # Nesting deeper than the interpreter recurses is malformed input too.
    path.write_text("[" * 100_000)
    assert_input_error(run(capsys, "check", str(path)))
    code, _, _ = run(capsys, "check", str(tmp_path / "missing.json"))
    assert code == 3


# Malformed JSON texts: empty, trailing data, cut short, broken tokens,
# nesting deeper than the interpreter recurses, a byte order mark.
_BROKEN_JSON = {
    "empty": "",
    "whitespace_only": " \n\t ",
    "trailing_data": "{} x",
    "two_documents": '{"n": 6}\n{"n": 6}',
    "truncated": '{"n": 6, "p": 3',
    "unterminated_string": '{"n": 6, "field": "Q',
    "deep_nesting": "[" * 100_000,
    "bare_word": "{broken",
    "cut_literal": "nul",
    "trailing_comma": '{"n": 6,}',
    "trailing_comma_then_newline": '{"n": 6,\n  }',
    "missing_colon": '{"n" 6}',
    "number_key": "{6: 6}",
    "missing_comma": "[1 2]",
    "bad_escape": '"\\x"',
    "byte_order_mark": "\ufeff{}",
    "error_on_line_4": '{\n  "n": 6,\n  "p": 3\n  "field": "Q"\n}',
}


@pytest.mark.parametrize("text", list(_BROKEN_JSON.values()), ids=list(_BROKEN_JSON))
def test_check_refuses_broken_json_as_json_loads(tmp_path, capsys, text):
    from pluckereqs import pvector_from_json

    try:
        json.loads(text)
    except json.JSONDecodeError as exc:
        message = f"invalid JSON: {exc}"
    except RecursionError:
        message = "p-vector JSON is nested too deeply"
    with pytest.raises(ValueError) as raised:
        pvector_from_json(text)
    assert str(raised.value) == message
    path = tmp_path / "h.json"
    path.write_text(text, encoding="utf-8")
    assert run(capsys, "check", str(path)) == (2, "", f"error: {message}\n")


def test_check_refuses_a_repeated_top_level_key(monkeypatch, capsys):
    # Read with json.loads, the last "coeffs" would win: "simple (zero vector)".
    text = (
        '{"n":4,"p":2,"field":"Q","coeffs":[{"idx":[1,2],"re":"1"},{"idx":[1,3],"re":"1"},'
        '{"idx":[2,4],"re":"1"},{"idx":[3,4],"re":"1"}],"coeffs":[]}'
    )
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    err = assert_input_error(run(capsys, "check", "-"))
    assert err.startswith("error: invalid JSON: Repeated key 'coeffs': ")


def test_check_refuses_a_repeated_key_in_a_coefficient(monkeypatch, capsys):
    # Read last-wins, "re":"0" would make e12 + e34 the simple e12.
    text = '{"n":4,"p":2,"field":"Q","coeffs":[{"idx":[1,2],"re":"1"},{"idx":[3,4],"re":"1","re":"0"}]}'
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    err = assert_input_error(run(capsys, "check", "-"))
    assert err == "error: invalid JSON: Repeated key 're': line 1 column 85 (char 84)\n"


def test_check_refuses_im_outside_q_i(monkeypatch, capsys):
    # Dropped, the "im" would leave e12 and the verdict "simple".
    text = '{"n":4,"p":2,"field":"Q","coeffs":[{"idx":[1,2],"re":"1"},{"idx":[3,4],"re":"0","im":"1"}]}'
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    err = assert_input_error(run(capsys, "check", "-"))
    assert err == """error: "im" is allowed only in Q_i coefficients, got field 'Q'\n"""


def test_check_writes_violations_in_batches(tmp_path, monkeypatch):
    # On a write-through stdout (PYTHONUNBUFFERED=1) each write is one system
    # call: the 2,573 lines of this report go out in one.
    class CountingRaw(io.RawIOBase):
        writes = 0

        def writable(self):
            return True

        def write(self, data):
            self.writes += 1
            return len(data)

    raw = CountingRaw()
    monkeypatch.setattr("sys.stdout", io.TextIOWrapper(raw, encoding="utf-8", write_through=True))
    path = tmp_path / "h.json"
    path.write_text(pvector_to_json(random_pvector(GrassmannParams(8, 4), 1)))
    assert main(["check", str(path), "--m", "1"]) == 1
    assert raw.writes == 1


@pytest.mark.parametrize("batch", [None, 7], ids=["default_batch", "7_char_batches"])
def test_write_output_to_a_text_only_stdout(capsys, monkeypatch, batch):
    # io.StringIO has no binary layer: the batches go to it as text.
    from pluckereqs.cli import _write_output

    if batch is not None:
        monkeypatch.setattr("pluckereqs.cli._BATCH", batch)
    pieces = [render(gen_plucker_like(GrassmannParams(6, 3)), "latex"), "λ\n"]
    _write_output(pieces, None)
    expected = capsys.readouterr().out
    text_only = io.StringIO()
    with redirect_stdout(text_only):
        _write_output(pieces, None)
    assert text_only.getvalue() == expected
    assert expected == "".join(pieces)


@pytest.mark.parametrize(
    "field, entry",
    [
        ("Q", {"re": "1"}),  # no "idx"
        ("Q", {"idx": [1, 2, 3], "re": "1/0"}),
        ("f64", {"idx": [1, 2, 3], "re": float("inf")}),
        ("Q", {"idx": [1.5, 2, 3], "re": "1"}),
        ("Q", {"idx": [True, 2, 3], "re": "1"}),
        ("Q", {"idx": [1, 2, 3], "re": "1e10000000"}),
        ("f64", {"idx": [1, 2, 3], "re": "1.5"}),
        ("f64", {"idx": [1, 2, 3], "re": True}),
        ("f64", {"idx": [1, 2, 3], "re": None}),
    ],
    ids=["missing_idx", "zero_denominator", "infinity", "float_idx", "bool_idx", "exponent",
         "f64_string", "f64_bool", "f64_null"],
)
def test_check_malformed_entry_exits_2(tmp_path, capsys, field, entry):
    other = {"idx": [4, 5, 6], "re": 1.0 if field == "f64" else "1"}
    data = {"n": 6, "p": 3, "field": field, "coeffs": [entry, other]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    started = time.perf_counter()
    result = run(capsys, "check", str(path))
    # Rejected at the boundary: an exact exponent expansion would take seconds.
    assert time.perf_counter() - started < 1.0
    assert_input_error(result)


@pytest.mark.parametrize(
    "n, p, idx",
    [(6.9, 3, [1, 2, 3]), (6, "3", [1, 2, 3]), (6, True, [1]), (True, 1, [1])],
    ids=["float_n", "string_p", "bool_p", "bool_n"],
)
def test_check_non_integer_n_p_exits_2(tmp_path, capsys, n, p, idx):
    # Each document would name a valid vector if n and p were read with int().
    data = {"n": n, "p": p, "field": "Q", "coeffs": [{"idx": idx, "re": "1"}]}
    path = tmp_path / "h.json"
    path.write_text(json.dumps(data))
    err = assert_input_error(run(capsys, "check", str(path)))
    assert "JSON integer" in err


def test_check_refuses_unknown_field(tmp_path, capsys):
    data = {"n": 6, "p": 3, "field": "R", "coeffs": [{"idx": [1, 2, 3], "re": "1"}]}
    path = tmp_path / "h.json"
    path.write_text(json.dumps(data))
    err = assert_input_error(run(capsys, "check", str(path)))
    assert err == "error: field must be one of ('Q', 'Q_i', 'f64'), got 'R'\n"


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-inf", "-1"])
def test_check_rejects_bad_tolerance(tmp_path, capsys, tolerance):
    params = GrassmannParams(6, 3)
    vectors = [
        pvector(params, {(1, 2, 3): 1.0, (4, 5, 6): 1.0}, "f64"),
        wedge([[1.0, 0, 0, 1, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]]),
        pvector(params, {(1, 2, 3): 1, (4, 5, 6): 1}),
        pvector(params, {}, "f64"),
    ]
    path = tmp_path / "h.json"
    for h in vectors:
        path.write_text(pvector_to_json(h))
        for m in ("1", "2"):
            argv = ("check", str(path), "--m", m, f"--tolerance={tolerance}")
            err = assert_input_error(run(capsys, *argv))
            assert "tolerance" in err
    # The selftest reads no tolerance, but a bad one is refused there too.
    selftest = ("--selftest", "2", "--seed", "1", "--n", "6", "--p", "3")
    err = assert_input_error(run(capsys, "check", *selftest, f"--tolerance={tolerance}"))
    assert "tolerance" in err


def _refuse_equations(monkeypatch):
    """Make building a ``QuadraticEquation`` in the generator fail the test."""
    import pluckereqs.equations

    def refused(*args):
        raise AssertionError("a QuadraticEquation was built")

    monkeypatch.setattr(pluckereqs.equations, "QuadraticEquation", refused)


def test_generate_builds_equations_only_to_read_blocks(tmp_path, capsys, monkeypatch):
    # At (10,5) the canonical stream builds a raw and a canonical equation
    # at each label of the blocks Gr(r, 2r), r = 1..5, and none per printed
    # line (44,100 labels); --raw builds none.
    from pluckereqs.equations import QuadraticEquation

    built = []
    init = QuadraticEquation.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(QuadraticEquation, "__init__", counting)
    target = str(tmp_path / "out")
    block_labels = sum(comb(2 * r, r - 1) for r in range(1, 6))
    assert block_labels == 286
    for argv in (["--m", "1"], ["--m", "1", "--dedupe", "--format", "latex"]):
        built.clear()
        assert main(["generate", "--n", "10", "--p", "5", *argv, "--out", target]) == 0
        assert 0 < len(built) <= 2 * block_labels, argv
    built.clear()
    assert main(["generate", "--n", "10", "--p", "5", "--m", "2", "--raw", "--format", "json", "--out", target]) == 0
    assert built == []
    assert capsys.readouterr() == ("", "")


def test_export_builds_no_equation(tmp_path, capsys, monkeypatch):
    # export reads the (10,5) m = 2 document (14,400 equations) into flat
    # rows and writes them: no equation is built.
    from pluckereqs.equations import QuadraticEquation

    source = str(tmp_path / "system.json")
    assert main(["generate", "--n", "10", "--p", "5", "--m", "2", "--raw", "--format", "json", "--out", source]) == 0
    built = []
    init = QuadraticEquation.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(QuadraticEquation, "__init__", counting)
    assert main(["export", "--in", source, "--format", "csv", "--out", str(tmp_path / "out.csv")]) == 0
    assert built == []
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("m", ["1", "2"])
def test_check_f64_builds_system_once(tmp_path, capsys, monkeypatch, m):
    import pluckereqs.equations
    from pluckereqs.equations import _raw_rows

    rows = []

    def counting(params, m):
        for label, terms in _raw_rows(params, m):
            rows.append((m, label))
            yield label, terms

    # check reads every system as raw rows, and builds no equation from them.
    monkeypatch.setattr(pluckereqs.equations, "_raw_rows", counting)
    _refuse_equations(monkeypatch)
    params = GrassmannParams(6, 3)
    path = tmp_path / "h.json"
    path.write_text(pvector_to_json(pvector(params, {(1, 2, 3): 1.0, (4, 5, 6): 1.0}, "f64")))
    code, out, _ = run(capsys, "check", str(path), "--m", m)
    assert code == 1
    assert out.startswith("not simple: ")
    assert len(out.splitlines()) == 1 + int(out.split()[2])
    # One row per label, each read once.
    assert [width for width, _ in rows] == [int(m)] * {"1": 225, "2": 36}[m]
    assert len({label for _, label in rows}) == len(rows)
    # A simple vector is decided in the affine chart: nothing is built.
    rows.clear()
    simple = wedge([[1.0, 0, 0, 0.5, 0, 0], [0, 1, 0, 0, 2, 0], [0, 0, 1, 0, 0, 3]])
    path.write_text(pvector_to_json(simple))
    code, out, _ = run(capsys, "check", str(path), "--m", m)
    assert (code, out, rows) == (0, "simple\n", [])
    # p outside 2..n-2: every vector is simple, nothing is built.
    path.write_text(pvector_to_json(pvector(GrassmannParams(6, 1), {(1,): 1.0}, "f64")))
    code, out, _ = run(capsys, "check", str(path), "--m", "2")
    assert (code, out, rows) == (0, "simple\n", [])


def test_selftest_builds_no_equation(capsys, monkeypatch):
    # The selftest reads both systems as raw rows, up to the first violation.
    import pluckereqs.equations
    from pluckereqs.equations import _raw_rows

    widths = []

    def counting(params, m):
        widths.append(m)
        return _raw_rows(params, m)

    monkeypatch.setattr(pluckereqs.equations, "_raw_rows", counting)
    _refuse_equations(monkeypatch)
    code, out, _ = run(capsys, "check", "--selftest", "3", "--seed", "1", "--n", "6", "--p", "3")
    assert (code, out) == (0, "selftest: 3 wedge vectors clean, 3/3 verdicts agree\n")
    assert widths == [1, 2] * 3


class _Terms(list):
    """A row's terms in a list that, unlike a plain list, can be weakly referenced."""


@pytest.mark.parametrize("field", ["Q", "Q_i"])
@pytest.mark.parametrize("m", [1, 2])
def test_check_holds_no_raw_equation(tmp_path, capsys, monkeypatch, field, m):
    # A non-simple check evaluates each raw row as it is generated and
    # builds no equation: at (8,4) at most two rows are alive at once, the
    # one just read and the next one generated, and every label is read.
    import pluckereqs.equations
    from pluckereqs.equations import _raw_rows

    params = GrassmannParams(8, 4)
    live: dict[int, weakref.ref] = {}
    seen = peak = 0

    def tracked(params, m):
        nonlocal seen, peak
        for label, terms in _raw_rows(params, m):
            terms = _Terms(terms)
            key = id(terms)
            live[key] = weakref.ref(terms, lambda _ref, key=key: live.pop(key))
            seen += 1
            peak = max(peak, len(live))
            yield label, terms

    monkeypatch.setattr(pluckereqs.equations, "_raw_rows", tracked)
    _refuse_equations(monkeypatch)
    h = random_pvector(params, 5)
    if field == "Q_i":
        h = pvector(params, {idx: GaussianRational(v, -v / 3) for idx, v in h.coeffs.items()}, field)
    path = tmp_path / "h.json"
    path.write_text(pvector_to_json(h))
    code, out, _ = run(capsys, "check", str(path), "--m", str(m))
    assert code == 1
    assert out.startswith("not simple: ")
    assert seen == comb(8, 4 - m) * comb(8, 4 + m)
    assert 1 <= peak <= 2
    assert not live


def _check_inputs(params, field):
    """A seeded random p-vector and a sum of two wedges, in ``field``."""
    random_h = random_pvector(params, 3).coeffs
    first, second = random_simple(params, 5).coeffs, random_simple(params, 6).coeffs
    if field == "Q_i":  # a random imaginary part, and a Gaussian multiple of one wedge
        im = random_pvector(params, 4).coeffs
        random_h = {idx: GaussianRational(v, im.get(idx, 0)) for idx, v in random_h.items()}
        second = {idx: GaussianRational(1, Fraction(-1, 3)) * v for idx, v in second.items()}
    summed = {idx: first.get(idx, 0) + second.get(idx, 0) for idx in first.keys() | second.keys()}
    cast = float if field == "f64" else (lambda value: value)
    return [pvector(params, {idx: cast(v) for idx, v in c.items()}, field) for c in (random_h, summed)]


@pytest.mark.parametrize("field", ["Q", "Q_i", "f64"])
def test_check_lines_are_the_residual_on_tuple_keys(tmp_path, capsys, field):
    # check evaluates raw rows on mask keys; residual evaluates the generated
    # system's equations on tuple keys.  Both give the same violations, with
    # the same values, in the same order, for both systems at every
    # 2 <= p <= n-2 with n <= 8.
    from pluckereqs.render import _label_formatter

    path = tmp_path / "h.json"
    points = 0
    for n in range(4, 9):
        for p in range(2, n - 1):
            params = GrassmannParams(n, p)
            label_text = _label_formatter(n)
            for h in _check_inputs(params, field):
                path.write_text(pvector_to_json(h))
                for m in range(1, min(2, p, n - p) + 1):
                    violations = residual(gen_generalized(params, m), h).violations
                    assert violations, (n, p, m)
                    expected = [f"not simple: {len(violations)} violated equations\n"]
                    expected += [f"  {label_text(label)} = {value}\n" for label, value in violations]
                    code, out, _ = run(capsys, "check", str(path), "--m", str(m))
                    assert (code, out) == (1, "".join(expected)), (n, p, m)
                    points += 1
    assert points == 2 * sum(min(2, p, n - p) for n in range(4, 9) for p in range(2, n - 1))


@pytest.mark.parametrize("scale", [1e160, 1e200, 1e300, 1e-200])
def test_check_f64_non_simple_at_any_scale(tmp_path, capsys, scale):
    # Products of two coefficients leave the float range at these scales;
    # the verdict and the violation count must not.
    params = GrassmannParams(6, 3)
    path = tmp_path / "h.json"
    for m in ("1", "2"):
        counts = []
        for factor in (1.0, scale):
            h = pvector(params, {(1, 2, 3): factor, (4, 5, 6): factor}, "f64")
            path.write_text(pvector_to_json(h))
            code, out, _ = run(capsys, "check", str(path), "--m", m)
            assert code == 1
            assert out.startswith("not simple: ")
            counts.append(int(out.split()[2]))
        assert counts[0] == counts[1] > 0


def test_check_param_mismatch(tmp_path, capsys):
    params = GrassmannParams(6, 3)
    path = tmp_path / "h.json"
    path.write_text(pvector_to_json(pvector(params, {(1, 2, 3): 1})))
    err = assert_input_error(run(capsys, "check", str(path), "--n", "7"))
    assert "does not match" in err
    err = assert_input_error(run(capsys, "check", str(path), "--p", "2"))
    assert "does not match" in err


def test_check_selftest(capsys):
    code, out, _ = run(
        capsys, "check", "--selftest", "5", "--seed", "9", "--n", "6", "--p", "3"
    )
    assert code == 0
    assert "5/5 verdicts agree" in out
    err = assert_input_error(run(capsys, "check", "--selftest", "5", "--n", "6", "--p", "3"))
    assert "--seed" in err
    err = assert_input_error(run(capsys, "check", "--selftest", "5", "--seed", "9"))
    assert "--n and --p" in err
    for count in ("0", "-5"):
        err = assert_input_error(
            run(capsys, "check", "--selftest", count, "--seed", "9", "--n", "6", "--p", "3")
        )
        assert "N >= 1" in err


def test_check_selftest_refuses_p_equal_to_n(capsys):
    # No equation system exists at p = n, so there is nothing to test against;
    # the refusal names --selftest, not the --m that was never given.
    err = assert_input_error(
        run(capsys, "check", "--selftest", "2", "--seed", "1", "--n", "3", "--p", "3")
    )
    assert "--selftest" in err and "p = n" in err and "--m" not in err


def test_check_selftest_reports_flagged_wedges(capsys, monkeypatch):
    # A "wedge" that is not simple must be named and fail the selftest.
    import pluckereqs.pvectors

    monkeypatch.setattr(pluckereqs.pvectors, "random_simple", pluckereqs.pvectors.random_pvector)
    code, out, _ = run(capsys, "check", "--selftest", "3", "--seed", "9", "--n", "6", "--p", "3")
    assert code == 1
    assert out.splitlines() == [
        f"simple vector at seed {seed} flagged as non-simple" for seed in (9, 10, 11)
    ] + ["selftest: 3 of 3 wedge vectors flagged as non-simple, 3/3 verdicts agree"]


def test_check_selftest_verdicts_can_disagree(capsys, monkeypatch):
    # A chart test that calls every vector simple disagrees with the
    # equations on each random vector, and the selftest must say so.
    import pluckereqs.pvectors

    monkeypatch.setattr(pluckereqs.pvectors, "_chart_is_simple", lambda *args: True)
    code, out, _ = run(capsys, "check", "--selftest", "5", "--seed", "9", "--n", "6", "--p", "3")
    assert code == 1
    assert out == "selftest: 5 wedge vectors clean, 0/5 verdicts agree\n"


def test_check_refuses_file_with_selftest(capsys):
    # The selftest reads no input, so a file next to it would go unchecked.
    path = DATA_DIR / "check_7_3_Q.json"
    for argv in (
        (str(path), "--selftest", "5", "--seed", "1", "--n", "6", "--p", "3"),
        ("-", "--selftest", "5", "--seed", "1", "--n", "6", "--p", "3"),
    ):
        err = assert_input_error(run(capsys, "check", *argv))
        assert "--selftest" in err


def test_check_refuses_m_with_selftest(capsys, monkeypatch):
    # The selftest runs both systems, so --m would go unread.  It is refused
    # before any work: no seeded vector is drawn.
    import pluckereqs.pvectors

    drawn = []
    for name in ("random_simple", "random_pvector"):
        monkeypatch.setattr(pluckereqs.pvectors, name, lambda params, seed: drawn.append(seed))
    for m in ("1", "2"):
        argv = ("--selftest", "5", "--seed", "1", "--n", "6", "--p", "3", "--m", m)
        err = assert_input_error(run(capsys, "check", *argv))
        assert "--m" in err
    assert drawn == []


def test_check_refuses_seed_without_selftest(capsys):
    # Only the selftest reads --seed, so with a file it would be dropped.
    path = DATA_DIR / "check_7_3_Q.json"
    for source in (str(path), "-"):
        err = assert_input_error(run(capsys, "check", source, "--seed", "5"))
        assert "--seed" in err


def test_export_no_labels(tmp_path, capsys):
    # Text drops the labels and LaTeX the label column; JSON and CSV keep
    # labels as data, so the flag is refused there before the input is read.
    system = gen_plucker_like(GrassmannParams(6, 3))
    path = tmp_path / "sys.json"
    path.write_text(render(system, "json"))
    for fmt in ("text", "latex"):
        code, out, _ = run(capsys, "export", "--in", str(path), "--format", fmt, "--no-labels")
        assert code == 0
        assert out == render(system, fmt, with_labels=False) != render(system, fmt)
    for fmt in ("json", "csv"):
        missing = str(tmp_path / "missing.json")
        err = assert_input_error(
            run(capsys, "export", "--in", missing, "--format", fmt, "--no-labels")
        )
        assert "--no-labels" in err


# Every name pluckereqs exported before the structural checks were loaded
# on first use.
PACKAGE_NAMES = """
EquationSystem Label QuadraticEquation QuadTerm canonicalize collect_terms dedupe
gen_generalized gen_plucker gen_plucker_like linear_combination make_term raw_equation
size_ratio GrassmannParams MultiIndex as_multiindex difference grassmann_codimension
intersection inversion_pairs multinomial ordered_union subsets_of_size symmetric_difference
GaussianRational PVector Residual evaluate is_simple pvector pvector_from_dict
pvector_from_json pvector_to_dict pvector_to_json random_pvector random_simple residual
scaled wedge equation_latex equation_text render system_from_dict system_from_json
system_to_dict CensusReport PairFamily ProbeReport VerifyReport stratum_probe census
check_pair_combine check_decomposition pair_combine pair_families
one_index_decomposition verify_structure __version__
""".split()


PACKAGE = {"pluckereqs", "pluckereqs.cli"}
SYSTEM = PACKAGE | {"pluckereqs.documents", "pluckereqs.equations", "pluckereqs.multiindex"}
DECIDE = SYSTEM | {"pluckereqs.pvectors"}
STRUCTURE = PACKAGE | {"pluckereqs.equations", "pluckereqs.multiindex", "pluckereqs.structure"}


# Standard modules no launch loads: ``dataclasses`` alone imports
# ``inspect``, ``ast``, ``dis`` and ``tokenize``, and ``typing`` is not
# loaded by a bare interpreter.
HEAVY = {"dataclasses", "inspect", "typing"}


# Each subcommand loads only the submodules it runs, and none of HEAVY nor
# the standard modules it does not use (``random`` is for ``--selftest``
# only): the launch of a command pays for no other part of the package.
# Each row also launches with ``python -S``, so that no ``.pth`` file of
# site-packages loads a module before the package.
@pytest.mark.parametrize(
    "argv, code, modules, unused",
    [
        (["--help"], 0, PACKAGE, {"json", "fractions", "random"}),
        (["generate", "--n", "six"], 2, PACKAGE, {"json", "fractions", "random"}),
        (["generate", "--n", "6", "--p", "3", "--m", "1"], 0, SYSTEM | {"pluckereqs.render"},
         {"fractions", "random"}),
        (["export", "--in", "{system}", "--format", "csv"], 0, SYSTEM | {"pluckereqs.render"},
         {"fractions", "random"}),
        (["check", "{simple}"], 0, DECIDE, {"random"}),
        (["check", "--selftest", "3", "--seed", "1", "--n", "6", "--p", "3"], 0, DECIDE, set()),
        (["check", str(DATA_DIR / "check_7_3_Q.json")], 1, DECIDE | {"pluckereqs.render"},
         {"random"}),
        (["check", str(DATA_DIR / "check_7_3_Q_i.json"), "--m", "1"], 1,
         DECIDE | {"pluckereqs.render"}, {"random"}),
        (["verify", "--n", "6", "--p", "3"], 0, STRUCTURE, {"json", "fractions", "random"}),
        (["census", "--n", "6", "--p", "3"], 0, STRUCTURE, {"json", "random"}),
        (["probe", "--n", "6", "--p", "3", "--q", "0"], 0, STRUCTURE, {"fractions", "random"}),
    ],
    ids=["help", "usage_error", "generate", "export", "check_simple", "selftest",
         "check_non_simple_Q", "check_non_simple_Q_i", "verify", "census", "probe"],
)
def test_cli_subcommand_loads_only_its_modules(tmp_path, argv, code, modules, unused):
    system = tmp_path / "system.json"
    system.write_text(render(gen_plucker_like(GrassmannParams(6, 3)), "json"))
    simple = tmp_path / "simple.json"
    rows = [[1, 2, 0, 1, 0, 3], [0, 1, 1, 0, 2, 1], [1, 0, 0, 2, 1, 1]]
    simple.write_text(pvector_to_json(wedge(rows)))
    argv = [arg.format(system=system, simple=simple) for arg in argv]
    script = f"""
import sys
before = set(sys.modules)
from pluckereqs.cli import main
assert main({argv!r}) == {code!r}
loaded = {{name for name in sys.modules if name.split(".")[0] == "pluckereqs"}}
assert loaded == {modules!r}, sorted(loaded)
stdlib = {{*{HEAVY!r}, *{unused!r}}} & (sys.modules.keys() - before)
assert not stdlib, sorted(stdlib)
import pluckereqs
for name in {PACKAGE_NAMES!r}:
    getattr(pluckereqs, name)
assert "pluckereqs.structure" in sys.modules
from pluckereqs import census
assert census.__module__ == "pluckereqs.structure"
namespace = {{}}
exec("from pluckereqs import *", namespace)
assert {{*{PACKAGE_NAMES!r}}} - {{"__version__"}} <= namespace.keys()
"""
    src = str(Path(__file__).parent.parent / "src")
    for flags in ([], ["-S"]):
        result = subprocess.run(
            [sys.executable, *flags, "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert result.returncode == 0, (flags, result.stderr)


def test_every_submodule_loads_only_the_standard_library():
    # Every submodule, imported in an isolated interpreter without site (so
    # no .pth file loads anything first), loads nothing outside the standard
    # library (``sys.stdlib_module_names``, Python 3.10+) but the package
    # itself, and none of HEAVY nor ``random``, which only the seeded
    # p-vector draws of --selftest import.
    src = Path(__file__).parent.parent / "src"
    # Listed from the files: pkgutil itself imports typing.
    names = sorted(path.stem for path in (src / "pluckereqs").glob("[!_]*.py"))
    assert {"cli", "equations", "multiindex", "pvectors", "render", "structure"} <= {*names}
    script = f"""
import importlib, sys
sys.path.insert(0, {str(src)!r})
before = set(sys.modules)
for name in {names!r}:
    importlib.import_module("pluckereqs." + name)
extra = {{name.split(".")[0] for name in set(sys.modules) - before}}
extra -= set(sys.stdlib_module_names) | {{"pluckereqs"}}
assert not extra, sorted(extra)
heavy = {{*{sorted(HEAVY)!r}, "random"}} & set(sys.modules)
assert not heavy, sorted(heavy)
"""
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-c", script], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "--n", "6", "--p", "3")
    assert code == 0
    assert "PASS" in out


def test_verify_out_of_range(capsys):
    err = assert_input_error(run(capsys, "verify", "--n", "6", "--p", "5"))
    assert "2 <= p <= n-2" in err


def test_verify_larger_params(capsys):
    code, out, _ = run(capsys, "verify", "--n", "9", "--p", "4")
    assert code == 0
    assert "3024/3024 labels ok" in out


def test_jobs_flag_and_env_var_are_ignored(capsys, monkeypatch):
    import multiprocessing.process

    def no_workers(self):
        raise AssertionError("a worker process was started")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_workers)
    args = ("generate", "--n", "6", "--p", "3")
    expected = run(capsys, *args, "--jobs", "1")
    assert expected[0] == 0
    assert run(capsys, *args, "--jobs", "8") == expected
    for value in ("4", "junk"):
        monkeypatch.setenv("PLUCKEREQS_JOBS", value)
        assert run(capsys, *args) == expected


def test_export_reads_stdin(monkeypatch, capsys):
    import io

    from pluckereqs import gen_plucker_like, render
    from pluckereqs.multiindex import GrassmannParams

    payload = render(gen_plucker_like(GrassmannParams(6, 3)), "json")
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    code, out, _ = run(capsys, "export", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "ordinal,j,k,coefficient,left,right"


def test_export_empty_system_text(tmp_path, capsys):
    # A system with no equations is one empty line in text.
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({"n": 6, "p": 3, "m": 2, "equations": []}))
    assert run(capsys, "export", "--in", str(path), "--format", "text") == (0, "\n", "")


def test_census_text(capsys):
    code, out, _ = run(capsys, "census", "--n", "6", "--p", "3")
    assert code == 0
    assert "total 36/36" in out
    assert "= 6.25" in out


def test_census_8_4_includes_large_stratum(capsys):
    code, out, _ = run(capsys, "census", "--n", "8", "--p", "4")
    assert code == 0
    assert any(
        line.split()[:5] == ["large", "0", "28", "28", "15"]
        for line in out.splitlines()
        if line.strip().startswith("large")
    )


def test_census_json(capsys):
    code, out, _ = run(capsys, "census", "--n", "6", "--p", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["total"] == {"observed": 36, "predicted": 36}


def test_census_out_of_range(capsys):
    err = assert_input_error(run(capsys, "census", "--n", "6", "--p", "1"))
    assert "2 <= p <= n-2" in err


def test_export_round_trip(tmp_path, capsys):
    source = tmp_path / "sys.json"
    code, _, _ = run(
        capsys, "generate", "--n", "6", "--p", "3", "--m", "2",
        "--format", "json", "--out", str(source),
    )
    assert code == 0
    code, out, _ = run(capsys, "export", "--in", str(source), "--format", "text")
    assert code == 0
    assert len(out.splitlines()) == 36
    code, _, _ = run(capsys, "export", "--in", str(tmp_path / "nope.json"))
    assert code == 3


_TERM = {"c": 1, "left": [1, 2, 3], "right": [1, 4, 5]}
_EQUATION = {"j": [1], "k": [2, 3, 4, 5, 6], "terms": [_TERM]}


def _system_json(n=6, m=2, entry=_EQUATION) -> str:
    return json.dumps({"n": n, "p": 3, "m": m, "equations": [entry]})


def _twin_index_cases() -> tuple[list[str], list[str]]:
    """Documents holding a valid multi-index and its float or bool twin, in either order.

    The twin replaces the leading 1 by ``1.0`` or ``true``, which compare
    equal to 1, so a reader that validated the int form first must still
    reject the twin, and one that met the twin first must not let it in.
    """
    valid = {"j": [1], "k": [1, 2, 3, 4, 5], "left": [1, 2, 3], "right": [1, 4, 5]}
    term = {"c": 1, "left": valid["left"], "right": valid["right"]}
    base = {"j": valid["j"], "k": valid["k"], "terms": [term]}
    texts, ids = [], []
    for field, values in valid.items():
        for kind, one in (("float", 1.0), ("bool", True)):
            twin = json.loads(json.dumps(base))
            (twin["terms"][0] if field in ("left", "right") else twin)[field] = [one, *values[1:]]
            for order, equations in (("after", [base, twin]), ("before", [twin, base])):
                texts.append(json.dumps({"n": 6, "p": 3, "m": 2, "equations": equations}))
                ids.append(f"{kind}_{field}_{order}_equal_int")
    return texts, ids


_TWIN_TEXTS, _TWIN_IDS = _twin_index_cases()


@pytest.mark.parametrize(
    "text",
    [
        _system_json(entry={"j": [1], "k": [2, 3, 4, 5, 6]}),
        _system_json(entry=5),
        _system_json(entry={**_EQUATION, "terms": [{**_TERM, "c": 1.5}]}),
        _system_json(entry={**_EQUATION, "terms": [{**_TERM, "c": True}]}),
        _system_json(entry={**_EQUATION, "terms": [{**_TERM, "right": [4, 5, 10]}]}),
        _system_json(entry={**_EQUATION, "terms": [{**_TERM, "left": [1, 2]}]}),
        _system_json(entry={**_EQUATION, "k": [2, 3, 4, 5, 10]}),
        _system_json(entry={**_EQUATION, "terms": [{**_TERM, "left": [1, 4, 5], "right": [1, 2, 3]}]}),
        _system_json(n="6"),
        _system_json(m=-4),
        _system_json(m=0),
        _system_json(m=4),
        "[" * 100_000,
        _system_json(m=1),
        # A multi-index is validated once per document; an equal-valued float
        # or bool after a valid [1, 2, 3] must not pass as its repeat.
        _system_json(entry={**_EQUATION, "terms": [_TERM, {**_TERM, "left": [1.0, 2, 3]}]}),
        _system_json(entry={**_EQUATION, "terms": [_TERM, {**_TERM, "left": [True, 2, 3]}]}),
        *_TWIN_TEXTS,
    ],
    ids=[
        "missing_terms", "entry_not_object", "float_c", "bool_c",
        "index_above_n", "short_term", "label_above_n", "term_left_above_right", "string_n",
        "negative_m", "zero_m", "m_above_min_p_n_minus_p", "deep_nesting",
        "label_sizes_not_m", "float_index_after_equal_int", "bool_index_after_equal_int",
        *_TWIN_IDS,
    ],
)
def test_export_malformed_system_exits_2(tmp_path, capsys, text):
    path = tmp_path / "sys.json"
    path.write_text(_system_json())
    assert run(capsys, "export", "--in", str(path))[0] == 0
    path.write_text(text)
    assert_input_error(run(capsys, "export", "--in", str(path)))


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"left": [True, 2, 3]}, "multi-index entries must be integers, got True"),
        ({"left": [1.0, 2, 3]}, "multi-index entries must be integers, got 1.0"),
        ({"left": [[1], 2, 3]}, "multi-index entries must be integers, got [1]"),
        ({"left": [1, 2]}, "multi-index (1, 2) must have 3 entries"),
        ({"left": [1, 2, 7]}, "multi-index entries must lie in 1..6, got (1, 2, 7)"),
        ({"left": [1, 3, 2]}, "multi-index must be strictly increasing, got (1, 3, 2)"),
        ({"left": [4, 5, 6], "right": [1, 2, 3]}, "terms must be stored with left <= right"),
        ({"c": 0}, "term coefficient must be non-zero"),
        ({"left": [1, 2, 7], "right": 5}, "multi-index entries must lie in 1..6, got (1, 2, 7)"),
    ],
    ids=["bool", "float", "unhashable", "short", "above_n", "not_increasing", "right_below_left", "zero_c",
         "left_before_non_list_right"],
)
def test_export_refuses_a_repeated_factor_in_a_bad_form(tmp_path, capsys, bad, message):
    # Term 1 reads the factor [1, 2, 3]; term 2 repeats it in a bad form.  A
    # factor seen once must not let its bad twin through, and each refusal
    # says what the reader of a first sighting says.
    first = {"c": 1, "left": [1, 2, 3], "right": [4, 5, 6]}
    entry = {"j": [1, 2], "k": [1, 2, 3, 4], "terms": [first, {**first, **bad}]}
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({"n": 6, "p": 3, "m": 1, "equations": [entry]}))
    for fmt in FORMATS:
        assert run(capsys, "export", "--in", str(path), "--format", fmt) == (2, "", f"error: {message}\n")


def test_export_checks_a_label_equal_to_a_factor_read_before(tmp_path, capsys):
    # The label j = [1, 2, 3] equals a term factor of the first equation,
    # but at m = 1 a label j has p - 1 = 2 entries.
    first = {"j": [1, 2], "k": [1, 2, 3, 4], "terms": [{"c": 1, "left": [1, 2, 3], "right": [4, 5, 6]}]}
    second = {**first, "j": [1, 2, 3]}
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({"n": 6, "p": 3, "m": 1, "equations": [first, second]}))
    message = "error: multi-index (1, 2, 3) must have 2 entries\n"
    assert run(capsys, "export", "--in", str(path), "--format", "csv") == (2, "", message)


@pytest.mark.parametrize(
    "outcome, code",
    [(0, 0), (1, 1), (ValueError("bad input"), 2), (OSError("disk"), 3)],
    ids=["ok", "negative", "value_error", "os_error"],
)
@pytest.mark.parametrize("caller_enabled", [True, False], ids=["gc_on", "gc_off"])
def test_main_pauses_gc_for_the_command_only(capsys, monkeypatch, outcome, code, caller_enabled):
    import pluckereqs.cli

    seen = []

    def command(args):
        seen.append(gc.isenabled())
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    monkeypatch.setattr(pluckereqs.cli, "cmd_verify", command)
    was_enabled = gc.isenabled()
    try:
        gc.enable() if caller_enabled else gc.disable()
        assert run(capsys, "verify", "--n", "6", "--p", "3")[0] == code
        assert gc.isenabled() is caller_enabled
    finally:
        gc.enable() if was_enabled else gc.disable()
    assert seen == [False]


def test_probe_json(capsys):
    code, out, _ = run(capsys, "probe", "--n", "8", "--p", "4", "--q", "0")
    assert code == 0
    data = json.loads(out)
    assert data["equation_count"] == 28
    assert data["note"] == "exploratory - no claim"
    code, out, _ = run(capsys, "probe", "--n", "6", "--p", "3", "--q", "0", "--format", "text")
    assert code == 0
    assert "admissible=False" in out


def test_probe_text_golden_output(capsys):
    # The text report of an admissible stratum, byte for byte, fixed
    # search values included.
    assert run(capsys, "probe", "--n", "9", "--p", "4", "--q", "0", "--format", "text") == (
        0,
        "probe (n=9, p=4, q=0): 252 equations, admissible=True\n"
        "support groups (size, count): [(1, 252)]\n"
        "max support overlap: 7\n"
        "combinations tried: 0, collapses found: 0\n"
        "note: exploratory - no claim\n",
        "",
    )


def test_usage_errors(capsys):
    code, _, _ = run(capsys, "generate", "--n", "6")
    assert code == 2
    code, _, _ = run(capsys, "nonsense")
    assert code == 2
    code, _, _ = run(capsys, "--help")
    assert code == 0


# A placeholder string that the fuzz test swaps for nested brackets after
# encoding, because json.dumps itself refuses nesting that deep.
_NESTED = "@@nested@@"


def _paths(node, prefix=()):
    """Every (container path, key) pair of a decoded JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix, key
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _walk(node, path):
    for key in path:
        node = node[key]
    return node


_VALID_DOCUMENTS = {
    "check": pvector_to_json(
        wedge([[1, 0, 0, 1, 0, 0], [0, 1, 0, 0, 2, 0], [0, 0, 1, 0, 0, -3]])
    ),
    "export": render(gen_plucker_like(GrassmannParams(6, 3)), "json"),
}
_JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-10, 10),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4),
    st.lists(st.integers(-3, 9), max_size=4),
    st.dictionaries(st.sampled_from(["n", "p", "idx", "re", "j"]), st.integers(0, 9), max_size=2),
    st.just(_NESTED),
)


@st.composite
def _mutated_documents(draw):
    """A valid (6,3) p-vector or system document with one mutation applied."""
    command = draw(st.sampled_from(sorted(_VALID_DOCUMENTS)))
    data = json.loads(_VALID_DOCUMENTS[command])
    mutation = draw(st.sampled_from(["delete", "replace", "wrap"]))
    depth = draw(st.sampled_from([2, 900, 100_000]))
    nested = "[" * depth + "]" * depth
    if mutation == "wrap":
        opener, closer = draw(st.sampled_from([("[", "]"), ('{"x": ', "}")]))
        return command, opener * depth + json.dumps(data) + closer * depth
    paths = list(_paths(data))
    if mutation == "delete":
        paths = [path for path in paths if isinstance(_walk(data, path[0]), dict)]
    prefix, key = draw(st.sampled_from(paths))
    parent = _walk(data, prefix)
    if mutation == "delete":
        del parent[key]
    else:
        old = type(parent[key])
        parent[key] = draw(_JSON_VALUES.filter(lambda v: v == _NESTED or type(v) is not old))
    return command, json.dumps(data).replace(json.dumps(_NESTED), nested)


@settings(max_examples=150, deadline=None)
@given(_mutated_documents())
def test_mutated_documents_exit_0_or_2(document):
    command, text = document
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), redirect_stdout(out), redirect_stderr(err):
        code = main([command] if command == "check" else [command, "--format", "csv"])
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


# The pin table: one row per launched command, with the exit code and the
# stdout it must print.  A row's command is "argv" and at most one of
# "before" (run first), "pipe" (its stdout piped into argv) or "stdin"
# (text); "{tmp}" stands for a fresh directory.  Its stdout is pinned by
# one of "sha256", "digest" (a key of perfbench/digests.json, read only),
# "golden" (a file in tests/data), "stdout" (its lines), "unpinned" (the
# reason; only a non-empty stdout is checked), or "stderr": a refusal,
# which exits 2 with an empty stdout and one stderr line that the pattern
# matches.  "exit" defaults to 0.
PINS = json.loads((DATA_DIR / "pins.json").read_text())
_DIGESTS = json.loads((ROOT / "perfbench" / "digests.json").read_text())
_EXPECTED = {"sha256", "digest", "golden", "stdout", "unpinned", "stderr"}
_INPUTS = {"before": " && ", "pipe": " | ", "stdin": " | "}


def _command(row) -> str:
    """The row's command as a shell would read it."""
    for key, joint in _INPUTS.items():
        if key in row:
            return row[key] + joint + row["argv"]
    return row["argv"]


def test_dot_style_output_digests_10_2(tmp_path, capsys):
    # The (10,2) rows of the pin table, run in-process: n >= 10 selects
    # dot-separated indices, which the benchmark's digests do not cover.
    pins = {_command(row): row["sha256"] for row in PINS if "sha256" in row}
    path = tmp_path / "system.json"
    np_ = "--n 10 --p 2"
    for argv in (
        f"generate {np_}",
        f"generate {np_} --dedupe --format latex",
        f"generate {np_} --raw --format json",
        f"generate {np_} --m 2 --raw --format json",
    ):
        code, out, _ = run(capsys, *argv.split())
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, pins[argv])
        if "--raw" in argv:
            path.write_text(out, encoding="utf-8")
            code, out, _ = run(capsys, "export", "--in", str(path), "--format", "csv")
            digest = hashlib.sha256(out.encode()).hexdigest()
            assert (code, digest) == (0, pins[f"{argv} | export --format csv"])


def _parses(argv: str) -> bool:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            build_parser().parse_args(argv.split())
        except SystemExit as exc:
            return exc.code == 0  # --help
    return True


def test_pin_table_is_well_formed():
    # A typo in the table fails here, without launching anything.
    commands = [_command(row) for row in PINS]
    assert len(set(commands)) == len(commands)
    for row in PINS:
        assert row.keys() <= {"argv", "exit", *_INPUTS, *_EXPECTED}, row
        assert len(row.keys() & _EXPECTED) == 1 and len(row.keys() & _INPUTS.keys()) <= 1, row
        for key in ("before", "pipe", "argv"):
            if key in row:
                assert _parses(row[key]), row[key]
                paths = [token for token in row[key].split() if token.startswith("tests/")]
                assert all((ROOT / path).is_file() for path in paths), row[key]
        if "sha256" in row:
            assert re.fullmatch("[0-9a-f]{64}", row["sha256"]), row
        if "digest" in row:
            assert row["digest"] in _DIGESTS, row
        if "golden" in row:
            assert (DATA_DIR / row["golden"]).is_file(), row
        if "stderr" in row:
            assert "exit" not in row, row
            re.compile(row["stderr"])


@pytest.mark.slow
@pytest.mark.parametrize("row", PINS, ids=_command)
def test_pinned_output_bytes(tmp_path, row):
    # Each row's command, launched from the repository root, exits with the
    # pinned code and prints the pinned bytes.
    def launch(key, **kwargs):
        argv = row[key].replace("{tmp}", str(tmp_path)).split()
        return subprocess.Popen(
            [sys.executable, "-m", "pluckereqs.cli", *argv],
            cwd=ROOT, env={**os.environ, "PYTHONPATH": _SRC},
            **{"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **kwargs},
        )

    if "before" in row:
        with launch("before") as before:
            assert before.communicate() == (b"", b"") and before.returncode == 0
    if "pipe" in row:
        # A real pipe between two processes, as a shell makes it.
        with launch("pipe", stderr=None) as pipe, launch("argv", stdin=pipe.stdout) as proc:
            pipe.stdout.close()
            out, err = proc.communicate()
        assert pipe.returncode == 0
    else:
        with launch("argv", stdin=subprocess.PIPE) as proc:
            out, err = proc.communicate(row.get("stdin", "").encode())
    assert proc.returncode == row.get("exit", 2 if "stderr" in row else 0), err.decode()
    if "stderr" in row:
        lines = err.decode().splitlines()
        assert out == b"" and len(lines) == 1 and re.search(row["stderr"], lines[0]), lines
        return
    assert err == b""
    if "unpinned" in row:
        assert out
    elif "golden" in row:
        assert out == (DATA_DIR / row["golden"]).read_bytes()
    elif "stdout" in row:
        assert out.decode() == "".join(f"{line}\n" for line in row["stdout"])
    else:
        expected = row["sha256"] if "sha256" in row else _DIGESTS[row["digest"]]
        assert hashlib.sha256(out).hexdigest() == expected


@pytest.mark.parametrize("batch", [None, 7], ids=["default_batch", "7_char_batches"])
@pytest.mark.parametrize("mode", ["canonical", "--raw", "--dedupe"])
@pytest.mark.parametrize("n, p", [(6, 3), (10, 2)])
@pytest.mark.parametrize("fmt", ["text", "latex", "json", "csv"])
def test_streamed_output_equals_render(tmp_path, capsys, monkeypatch, fmt, n, p, mode, batch):
    import pluckereqs.cli

    if batch is not None:
        monkeypatch.setattr(pluckereqs.cli, "_BATCH", batch)
    argv = ["generate", "--n", str(n), "--p", str(p), "--format", fmt]
    if mode != "canonical":
        argv.append(mode)
    code, stdout, _ = run(capsys, *argv)
    assert code == 0
    target = tmp_path / "out"
    assert run(capsys, *argv, "--out", str(target)) == (0, "", "")
    system = gen_generalized(GrassmannParams(n, p), 1)
    if mode == "--dedupe":
        system = EquationSystem(system.params, 1, tuple(dedupe(system)[0]))
    elif mode == "canonical":
        system = EquationSystem(system.params, 1, tuple(canonicalize(eq) for eq in system))
    expected = render(system, fmt, with_labels=mode != "--dedupe")
    assert stdout == expected
    assert target.read_text(encoding="utf-8") == expected


# Runs each command line in a fresh interpreter and prints the peak RSS of
# each, in bytes, from os.wait4.  Linux charges a child the peak RSS of the
# process that launched it, so the launcher is this small script and not
# the test process, whose own peak would hide the child's.
_PEAK_RSS_SCRIPT = """
import json, os, subprocess, sys
peaks = []
for argv in json.loads(sys.argv[1]):
    proc = subprocess.Popen([sys.executable, "-m", "pluckereqs.cli", *argv], stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        sys.exit(f"{argv} exited {os.waitstatus_to_exitcode(status)}")
    peaks.append(usage.ru_maxrss * 1024)
print(json.dumps(peaks))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
def test_generate_and_export_peak_rss_per_document_byte(tmp_path):
    path = tmp_path / "system.json"
    commands = [
        ["--help"],
        ["generate", "--n", "10", "--p", "5", "--m", "2", "--raw", "--format", "json", "--out", str(path)],
        ["export", "--in", str(path), "--format", "csv"],
    ]
    result = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_SCRIPT, json.dumps(commands)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": _SRC},
    )
    assert result.returncode == 0, result.stderr
    help_peak, generate_peak, export_peak = json.loads(result.stdout)
    size = path.stat().st_size
    # Building the 38.7 MB document as one string peaked at 3.45 times its
    # size above a --help launch; reading it back at 3.27 times.  Streamed
    # one equation at a time, and read back in chunks, they peak at about
    # 0.14 and 0.58 times its size; read back into flat rows of interned
    # factors, with no equation built, at about 0.35 times.
    assert generate_peak - help_peak < 0.25 * size
    assert export_peak - help_peak < 0.45 * size


# (8,4) is one 231 KB batch, and the violations of a random (9,4) vector
# one 218 KB batch: with no write after it, only the check for a short
# write can notice the closed reader.
@pytest.mark.parametrize(
    "command, n, p",
    [
        pytest.param("generate", 10, 5, id="10-5"),
        pytest.param("generate", 8, 4, id="8-4"),
        pytest.param("check", 9, 4, id="check-9-4"),
    ],
)
@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_reader_closing_early_exits_3(tmp_path, unbuffered, command, n, p):
    env = {**os.environ, "PYTHONPATH": _SRC}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = ["generate", "--n", str(n), "--p", str(p)]
    if command == "check":
        path = tmp_path / "h.json"
        path.write_text(pvector_to_json(random_pvector(GrassmannParams(n, p), 1)))
        argv = ["check", str(path), "--m", "1"]
    with subprocess.Popen(
        [sys.executable, "-m", "pluckereqs.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    ) as proc:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 3
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("i/o error: "), err
