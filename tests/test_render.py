import json

import pytest

from pluckereqs import (
    EquationSystem,
    GrassmannParams,
    canonicalize,
    dedupe,
    equation_latex,
    equation_text,
    gen_plucker,
    gen_plucker_like,
    raw_equation,
    render,
    system_from_json,
    system_to_dict,
)


def test_equation_text_matches_table_style(params63, pluckerlike63):
    canon = canonicalize(pluckerlike63.equations[0])
    assert (
        equation_text(canon)
        == "(1,12345): λ_{123}λ_{145} - λ_{124}λ_{135} + λ_{125}λ_{134} = 0"
    )


def test_trivial_renders_zero(params63):
    eq = canonicalize(raw_equation(params63, (1, 2), (1, 2, 3, 4), 1))
    assert equation_text(eq) == "(12,1234): 0 = 0"
    assert equation_latex(eq) == "$0 = 0$"


def test_dotted_style_above_nine():
    params = GrassmannParams(10, 3)
    eq = canonicalize(raw_equation(params, (1, 2), (1, 2, 3, 10), 1))
    text = equation_text(eq)
    assert text.startswith("(1.2,1.2.3.10):")
    big = raw_equation(params, (1, 2), (3, 4, 5, 10), 1)
    assert "λ_{1.2.10}" in equation_text(big)


def test_explicit_style_override(params63):
    eq = canonicalize(raw_equation(params63, (1, 2), (1, 3, 4, 5), 1))
    assert "λ_{1.2.3}" in equation_text(eq, index_style="dots")


def test_latex_system_shape(pluckerlike63):
    out = render(pluckerlike63, "latex")
    lines = out.splitlines()
    assert lines[0] == "\\begin{longtable}{rll}"
    assert lines[-1] == "\\end{longtable}"
    assert "\\# & $(j,k)$ & Equation \\\\" in lines
    assert any(line.startswith("1 & (1,12345) & $") for line in lines)


def test_latex_without_labels(params63, plucker63):
    reduced, _ = dedupe(plucker63)
    system = EquationSystem(params63, 1, tuple(reduced))
    out = render(system, "latex", with_labels=False)
    assert out.splitlines()[0] == "\\begin{longtable}{rl}"
    assert "(12," not in out


def test_latex_term_style(params63):
    eq = canonicalize(raw_equation(params63, (1, 2), (1, 3, 4, 5), 1))
    assert (
        equation_latex(eq)
        == "${\\lambda}_{123} {\\lambda}_{145} - {\\lambda}_{124} {\\lambda}_{135}"
        " + {\\lambda}_{125} {\\lambda}_{134} = 0$"
    )


def test_json_round_trip_raw(pluckerlike63):
    assert system_from_json(render(pluckerlike63, "json")) == pluckerlike63


def test_json_round_trip_canonical(params63, pluckerlike63):
    canonical = EquationSystem(
        params63, 2, tuple(canonicalize(eq) for eq in pluckerlike63)
    )
    again = system_from_json(render(canonical, "json"))
    assert again == canonical


def test_json_schema_fields(pluckerlike63):
    data = system_to_dict(pluckerlike63)
    assert set(data) == {"n", "p", "m", "equations"}
    entry = data["equations"][0]
    assert set(entry) == {"j", "k", "terms"}
    assert set(entry["terms"][0]) == {"c", "left", "right"}
    assert entry["j"] == [1]
    json.dumps(data)


def test_json_rejects_malformed():
    with pytest.raises(ValueError):
        system_from_json("{not json")
    with pytest.raises(ValueError):
        system_from_json(json.dumps({"n": 6, "p": 3}))
    bad = {
        "n": 6, "p": 3, "m": 1,
        "equations": [{"j": [1, 2], "k": [1, 2, 3, 4], "terms": [
            {"c": 0, "left": [1, 2, 3], "right": [1, 2, 4]}
        ]}],
    }
    with pytest.raises(ValueError):
        system_from_json(json.dumps(bad))


def test_csv_one_row_per_term(params63):
    system = gen_plucker(params63)
    out = render(system, "csv")
    lines = out.splitlines()
    assert lines[0] == "ordinal,j,k,coefficient,left,right"
    term_total = sum(len(eq.terms) for eq in system)
    assert len(lines) == 1 + term_total
    assert lines[1].startswith("1,12,1234,")


def test_render_rejects_unknown_format(pluckerlike63):
    with pytest.raises(ValueError):
        render(pluckerlike63, "yaml")
    with pytest.raises(ValueError):
        render(pluckerlike63.equations[0], "csv")


def test_byte_identical_output(pluckerlike63):
    assert render(pluckerlike63, "json") == render(pluckerlike63, "json")
    regenerated = gen_plucker_like(GrassmannParams(6, 3))
    assert render(regenerated, "text") == render(pluckerlike63, "text")
