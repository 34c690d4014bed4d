import json
import time

import pytest

from pluckereqs import pvector, pvector_to_json, wedge
from pluckereqs.cli import main
from pluckereqs.multiindex import GrassmannParams


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    code, _, err = run(capsys, "generate", "--n", "6", "--p", "7", "--m", "1")
    assert code == 2
    assert "error" in err
    code, _, err = run(capsys, "generate", "--n", "6", "--p", "3", "--m", "9")
    assert code == 2


def test_generate_m3_needs_experimental(capsys):
    code, _, err = run(capsys, "generate", "--n", "6", "--p", "3", "--m", "3")
    assert code == 2
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


def test_check_malformed_input(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    code, _, err = run(capsys, "check", str(path))
    assert code == 2
    code, _, _ = run(capsys, "check", str(tmp_path / "missing.json"))
    assert code == 3


@pytest.mark.parametrize(
    "entry",
    [
        {"re": "1"},  # no "idx"
        {"idx": [1, 2, 3], "re": "1/0"},
        {"idx": [1, 2, 3], "re": float("inf")},
        {"idx": [1.5, 2, 3], "re": "1"},
        {"idx": [True, 2, 3], "re": "1"},
        {"idx": [1, 2, 3], "re": "1e10000000"},
    ],
    ids=["missing_idx", "zero_denominator", "infinity", "float_idx", "bool_idx", "exponent"],
)
def test_check_malformed_entry_exits_2(tmp_path, capsys, entry):
    field = "f64" if isinstance(entry["re"], float) else "Q"
    data = {"n": 6, "p": 3, "field": field, "coeffs": [entry, {"idx": [4, 5, 6], "re": "1"}]}
    if field == "f64":
        data["coeffs"][1]["re"] = 1.0
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    started = time.perf_counter()
    code, out, err = run(capsys, "check", str(path))
    # Rejected at the boundary: an exact exponent expansion would take seconds.
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("m", ["1", "2"])
def test_check_f64_builds_system_once(tmp_path, capsys, monkeypatch, m):
    import pluckereqs.cli
    import pluckereqs.pvectors
    from pluckereqs.equations import gen_generalized

    builds = []

    def counting(params, m, jobs=1):
        builds.append(m)
        return gen_generalized(params, m, jobs)

    monkeypatch.setattr(pluckereqs.cli, "gen_generalized", counting)
    monkeypatch.setattr(pluckereqs.pvectors, "gen_generalized", counting)
    params = GrassmannParams(6, 3)
    path = tmp_path / "h.json"
    path.write_text(pvector_to_json(pvector(params, {(1, 2, 3): 1.0, (4, 5, 6): 1.0}, "f64")))
    code, out, _ = run(capsys, "check", str(path), "--m", m)
    assert code == 1
    assert out.startswith("not simple: ")
    assert len(out.splitlines()) == 1 + int(out.split()[2])
    assert builds == [int(m)]
    # p outside 2..n-2: the two-index system is trivial, nothing is built.
    builds.clear()
    path.write_text(pvector_to_json(pvector(GrassmannParams(6, 1), {(1,): 1.0}, "f64")))
    code, out, _ = run(capsys, "check", str(path), "--m", "2")
    assert (code, out, builds) == (0, "simple\n", [])


def test_check_param_mismatch(tmp_path, capsys):
    params = GrassmannParams(6, 3)
    path = tmp_path / "h.json"
    path.write_text(pvector_to_json(pvector(params, {(1, 2, 3): 1})))
    code, _, err = run(capsys, "check", str(path), "--n", "7")
    assert code == 2
    assert "does not match" in err


def test_check_selftest(capsys):
    code, out, _ = run(
        capsys, "check", "--selftest", "5", "--seed", "9", "--n", "6", "--p", "3"
    )
    assert code == 0
    assert "5/5 verdicts agree" in out
    code, _, err = run(capsys, "check", "--selftest", "5", "--n", "6", "--p", "3")
    assert code == 2
    assert "--seed" in err


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "--n", "6", "--p", "3")
    assert code == 0
    assert "PASS" in out


def test_verify_out_of_range(capsys):
    code, _, err = run(capsys, "verify", "--n", "6", "--p", "5")
    assert code == 2
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
    code, _, _ = run(capsys, "census", "--n", "6", "--p", "1")
    assert code == 2


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


@pytest.mark.parametrize(
    "n, entry",
    [
        (6, {"j": [1], "k": [2, 3, 4, 5, 6]}),
        (6, 5),
        (6, {**_EQUATION, "terms": [{**_TERM, "c": 1.5}]}),
        (6, {**_EQUATION, "terms": [{**_TERM, "c": True}]}),
        (6, {**_EQUATION, "terms": [{**_TERM, "right": [4, 5, 10]}]}),
        (6, {**_EQUATION, "terms": [{**_TERM, "left": [1, 2]}]}),
        (6, {**_EQUATION, "k": [2, 3, 4, 5, 10]}),
        ("6", _EQUATION),
    ],
    ids=[
        "missing_terms", "entry_not_object", "float_c", "bool_c",
        "index_above_n", "short_term", "label_above_n", "string_n",
    ],
)
def test_export_malformed_system_exits_2(tmp_path, capsys, n, entry):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({"n": 6, "p": 3, "m": 2, "equations": [_EQUATION]}))
    assert run(capsys, "export", "--in", str(path))[0] == 0
    path.write_text(json.dumps({"n": n, "p": 3, "m": 2, "equations": [entry]}))
    code, out, err = run(capsys, "export", "--in", str(path))
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_probe_json(capsys):
    code, out, _ = run(capsys, "probe", "--n", "8", "--p", "4", "--q", "0")
    assert code == 0
    data = json.loads(out)
    assert data["equation_count"] == 28
    assert data["note"] == "exploratory - no claim"
    code, out, _ = run(capsys, "probe", "--n", "6", "--p", "3", "--q", "0", "--format", "text")
    assert code == 0
    assert "admissible=False" in out


def test_usage_errors(capsys):
    code, _, _ = run(capsys, "generate", "--n", "6")
    assert code == 2
    code, _, _ = run(capsys, "nonsense")
    assert code == 2
    code, _, _ = run(capsys, "--help")
    assert code == 0
