import json
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pluckereqs import (
    EquationSystem,
    GrassmannParams,
    QuadraticEquation,
    QuadTerm,
    canonicalize,
    dedupe,
    equation_latex,
    equation_text,
    gen_generalized,
    gen_plucker,
    gen_plucker_like,
    linear_combination,
    raw_equation,
    render,
    system_from_dict,
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


def test_parsed_system_shares_one_tuple_per_multiindex():
    params = GrassmannParams(8, 4)
    system = gen_plucker_like(params)
    parsed = system_from_json(render(system, "json"))
    assert parsed == system
    ids = {id(idx) for eq in parsed for t in eq.terms for idx in (t.left, t.right)}
    assert len(ids) <= comb(8, 4)
    # They are the generated tuples themselves, labels included.
    for eq, generated in zip(parsed, system):
        assert all(a is b for a, b in zip(eq.label, generated.label))
        for term, twin in zip(eq.terms, generated.terms):
            assert term.left is twin.left and term.right is twin.right


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
    # The label flags are keyword-only: a third positional argument, such as
    # an index style, is an error and not a truthy flag.
    with pytest.raises(TypeError):
        render(system, "text", "dots")
    with pytest.raises(TypeError):
        equation_text(system.equations[0], False)


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


def test_unknown_format_raises_before_any_piece(tmp_path, pluckerlike63):
    from pluckereqs.cli import _write_output
    from pluckereqs.render import _render_pieces

    for obj, fmt in ((pluckerlike63, "yaml"), (pluckerlike63.equations[0], "csv")):
        with pytest.raises(ValueError):
            _render_pieces(obj, fmt)
        target = tmp_path / "out.txt"
        with pytest.raises(ValueError):
            _write_output(_render_pieces(obj, fmt), str(target))
        assert not target.exists()


def test_writers_read_generate_rows_as_render_reads_the_library_system():
    # Each stream generate writes, fed as rows to the one writer per format,
    # gives render() of the system the library builds for it: _raw_rows
    # through _tuple_terms against _raw_equations, _canonical_rows against
    # canonicalize, and first_only against dedupe without labels.
    from pluckereqs.equations import _canonical_rows, _raw_equations, _raw_rows, _tuple_terms
    from pluckereqs.render import _system_pieces

    systems = 0
    for n in range(4, 9):
        for p in range(2, n - 1):
            params = GrassmannParams(n, p)
            for m in (1, 2):
                raw = EquationSystem(params, m, tuple(_raw_equations(params, m)))
                canonical = EquationSystem(params, m, tuple(canonicalize(eq) for eq in raw))
                reduced = EquationSystem(params, m, tuple(dedupe(raw)[0]))
                streams = [
                    (lambda: ((label, _tuple_terms(terms)) for label, terms in _raw_rows(params, m)), raw, True),
                    (lambda: _canonical_rows(params, m), canonical, True),
                    (lambda: _canonical_rows(params, m, first_only=True), reduced, False),
                ]
                for rows, system, with_labels in streams:
                    for fmt in ("text", "latex", "json", "csv"):
                        pieces = _system_pieces(params, m, rows(), fmt, with_labels=with_labels)
                        assert "".join(pieces) == render(system, fmt, with_labels=with_labels), (n, p, m, fmt)
                systems += 1
    assert systems == 2 * sum(n - 3 for n in range(4, 9))


def test_system_from_dict_rejects_equal_tuple_of_bools():
    term = {"c": 1, "left": (1, 2, 3), "right": (1, 4, 5)}
    twin = {**term, "left": (True, 2, 3)}
    data = {"n": 6, "p": 3, "m": 2, "equations": [{"j": (1,), "k": (2, 3, 4, 5, 6), "terms": [term]}]}
    assert system_from_dict(data).equations[0].terms == (QuadTerm(1, (1, 2, 3), (1, 4, 5)),)
    data["equations"][0]["terms"].append(twin)
    with pytest.raises(ValueError, match="integers"):
        system_from_dict(data)


def test_system_from_dict_checks_the_size_of_a_reused_tuple():
    # One tuple object, validated as a term index of size p, must not pass
    # as a label of another size.
    idx = (1, 2, 3)
    first = {"j": (1,), "k": (2, 3, 4, 5, 6), "terms": [{"c": 1, "left": idx, "right": (1, 4, 5)}]}
    second = {**first, "j": idx}
    with pytest.raises(ValueError, match="entries"):
        system_from_dict({"n": 6, "p": 3, "m": 2, "equations": [first, second]})


def test_render_rejects_unknown_format(pluckerlike63):
    with pytest.raises(ValueError):
        render(pluckerlike63, "yaml")
    with pytest.raises(ValueError, match="^csv rendering requires a full EquationSystem$"):
        render(pluckerlike63.equations[0], "csv")
    # An unknown format is named as such for one equation too.
    with pytest.raises(ValueError, match="^format must be one of .*, got 'nope'$"):
        render(pluckerlike63.equations[0], "nope")


def test_render_one_equation_is_its_line(pluckerlike63):
    eq = pluckerlike63.equations[0]
    assert render(eq, "text") == equation_text(eq) + "\n"
    assert render(eq, "latex") == equation_latex(eq) + "\n"


def test_byte_identical_output(pluckerlike63):
    assert render(pluckerlike63, "json") == render(pluckerlike63, "json")
    regenerated = gen_plucker_like(GrassmannParams(6, 3))
    assert render(regenerated, "text") == render(pluckerlike63, "text")


def _assert_json_matches_encoder(system):
    # A failure names the first differing offset: pytest's own diff of two
    # large strings could run for minutes.
    got = render(system, "json")
    want = json.dumps(system_to_dict(system), indent=2) + "\n"
    if got != want:
        at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        pytest.fail(f"JSON differs at offset {at}: {got[at - 60:at + 60]!r} != {want[at - 60:at + 60]!r}")


def _forms(system):
    """The raw, canonical and deduplicated forms of a generated system."""
    canonical = tuple(canonicalize(eq) for eq in system)
    reduced, _ = dedupe(system)
    return (
        system,
        EquationSystem(system.params, system.m, canonical),
        EquationSystem(system.params, system.m, tuple(reduced)),
    )


# Every (n, p, m) with 2 <= n <= 11 whose system has at most 600 equations;
# the JSON layout does not depend on the size.
_SMALL_SYSTEMS = [
    (n, p, m)
    for n in range(2, 12)
    for p in range(1, n)
    for m in (1, 2)
    if m <= min(p, n - p) and comb(n, p - m) * comb(n, p + m) <= 600
]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(_SMALL_SYSTEMS))
def test_json_writer_matches_encoder(point):
    n, p, m = point
    for system in _forms(gen_generalized(GrassmannParams(n, p), m)):
        _assert_json_matches_encoder(system)


def test_json_writer_matches_encoder_edge_cases(params63, plucker63):
    trivial = canonicalize(raw_equation(params63, (1, 2), (1, 2, 3, 4), 1))
    assert trivial.terms == ()
    combined = linear_combination(
        [(3, plucker63.equations[5]), (-2, plucker63.equations[9])], params63
    )
    assert combined.label == ((), ())
    assert {t.coefficient for t in combined.terms} == {3, -3, 2, -2}
    scaled = QuadraticEquation(params63, ((), ()), (
        QuadTerm(-5, (1, 2, 3), (4, 5, 6)), QuadTerm(12, (1, 2, 4), (3, 5, 6)),
    ))
    systems = [
        EquationSystem(params63, 1, ()),
        EquationSystem(params63, 1, (trivial,)),
        EquationSystem(params63, 1, (combined,)),
        EquationSystem(params63, 1, (scaled, trivial, combined, plucker63.equations[7])),
        EquationSystem(GrassmannParams(10, 2), 2, gen_plucker_like(GrassmannParams(10, 2)).equations[:3]),
    ]
    for system in systems:
        _assert_json_matches_encoder(system)
        assert system_from_json(render(system, "json")) == system


def test_scaled_coefficients_in_every_text_format(params63):
    # Expected strings recorded from the per-term formatter the memoized
    # writer replaced.
    eq = QuadraticEquation(params63, ((), ()), (
        QuadTerm(-5, (1, 2, 3), (4, 5, 6)),
        QuadTerm(12, (1, 2, 4), (3, 5, 6)),
        QuadTerm(-1, (1, 2, 5), (3, 4, 6)),
    ))
    latex = (
        "-5 {\\lambda}_{123} {\\lambda}_{456} + 12 {\\lambda}_{124} {\\lambda}_{356}"
        " - {\\lambda}_{125} {\\lambda}_{346} = 0"
    )
    assert equation_text(eq) == "(,): -5λ_{123}λ_{456} + 12λ_{124}λ_{356} - λ_{125}λ_{346} = 0"
    assert equation_latex(eq) == f"${latex}$"
    system = EquationSystem(params63, 1, (eq,))
    assert render(system, "csv") == (
        "ordinal,j,k,coefficient,left,right\n1,,,-5,123,456\n1,,,12,124,356\n1,,,-1,125,346\n"
    )
    assert render(system, "latex", with_labels=False).splitlines()[4] == f"1 & ${latex}$ \\\\"


def _spaced(value, rng) -> str:
    """``value`` as JSON with random whitespace around every token."""
    space = lambda: rng.choice(["", " ", "\n", "\t", "\r\n  ", "    "])  # noqa: E731
    if isinstance(value, dict):
        items = [f"{space()}{json.dumps(k)}{space()}:{_spaced(v, rng)}" for k, v in value.items()]
        return f"{space()}{{{','.join(items) or space()}}}{space()}"
    if isinstance(value, list):
        return f"{space()}[{','.join(_spaced(v, rng) for v in value) or space()}]{space()}"
    return f"{space()}{json.dumps(value)}{space()}"


def _reader_documents() -> dict[str, str]:
    import random
    from itertools import permutations

    rng = random.Random(15)
    full = system_to_dict(gen_plucker_like(GrassmannParams(6, 3)))
    few = {**full, "equations": full["equations"][:3]}
    extra = {
        "note": "x" * 5000,
        "nested": [{"left": [1, 2, 3], "right": [4, 5, 6]}, 1.5e300, None],
        # Each token a chunk can cut short: literals, escapes, a surrogate
        # pair, long and signed numbers.
        "tokens": [True, False, None, float("nan"), float("inf"), -float("inf"),
                   'q"\\/\b\f\n\r\té\U0001F600', -0.5e-7, 10 ** 30, -(10 ** 30), 1e100],
    }
    documents = {
        "rendered": render(gen_plucker_like(GrassmannParams(6, 3)), "json"),
        "compact": json.dumps(full, separators=(",", ":")),
        "spaced": _spaced(full, rng),
        "empty_equations": json.dumps({**full, "equations": []}),
        "empty_equations_spaced": '{"n": 6, "p": 3, "m": 2, "equations": [ \n\t ]}',
        "long_number_last": json.dumps({**few, "extra": 10 ** 40}),
    }
    for order in permutations(["n", "p", "m", "equations", "extra"]):
        doc = {key: extra if key == "extra" else few[key] for key in order}
        documents["order_" + "_".join(order)] = _spaced(doc, rng)
    return documents


_READER_DOCUMENTS = _reader_documents()


@pytest.mark.parametrize("chunk", [1, 7, None], ids=["chunk_1", "chunk_7", "default_chunk"])
def test_chunked_reader_equals_whole_document_decode(monkeypatch, chunk):
    import io

    import pluckereqs.documents
    from pluckereqs.render import _load_system

    if chunk is not None:
        monkeypatch.setattr(pluckereqs.documents, "_CHUNK", chunk)
    for name, text in _READER_DOCUMENTS.items():
        expected = system_from_dict(json.loads(text))
        assert _load_system(io.StringIO(text)) == expected, name
        assert system_from_json(text) == expected, name
    assert len(_load_system(io.StringIO(_READER_DOCUMENTS["empty_equations"]))) == 0


def _cut_points(text: str) -> list[int]:
    return sorted(set(range(0, len(text), 13)) | {len(text) - 1, len(text) - 2})


@pytest.mark.parametrize("chunk", [1, 7, None], ids=["chunk_1", "chunk_7", "default_chunk"])
def test_chunked_reader_places_syntax_errors_as_json_loads(monkeypatch, chunk):
    # Every prefix of a valid document fails where json.loads fails, with the
    # same message, line, column and offset, however the text is chunked.
    import io

    import pluckereqs.documents
    from pluckereqs.render import _load_system

    if chunk is not None:
        monkeypatch.setattr(pluckereqs.documents, "_CHUNK", chunk)
    system = EquationSystem(GrassmannParams(6, 3), 2, gen_plucker_like(GrassmannParams(6, 3)).equations[:4])
    text = render(system, "json")
    for cut in _cut_points(text) + [len(text)]:
        prefix = text[:cut] + ("  }" if cut == len(text) else "")
        try:
            json.loads(prefix)
        except json.JSONDecodeError as exc:
            message = f"invalid JSON: {exc}"
        else:
            assert _load_system(io.StringIO(prefix)) == system
            continue
        with pytest.raises(ValueError) as raised:
            _load_system(io.StringIO(prefix))
        assert str(raised.value) == message, cut


_TRAILING_COMMAS = [
    '{"n": 6,}',
    '{"n": 6,\n  }',
    '{"equations": [{}, ], "n": 6}',
    '{"equations": [{},\n\n]}',
    '{"n": 6, "p": [3,]}',
]


@pytest.mark.parametrize("chunk", [1, 7, None], ids=["chunk_1", "chunk_7", "default_chunk"])
def test_chunked_reader_refuses_a_trailing_comma_as_json_loads(monkeypatch, chunk):
    # Python 3.13 names a trailing comma and places it at the comma; earlier
    # versions fail at the closer.  The reader walks the top-level object and
    # the equations array itself, and says what the running interpreter says.
    import io

    import pluckereqs.documents
    from pluckereqs.render import _load_system

    if chunk is not None:
        monkeypatch.setattr(pluckereqs.documents, "_CHUNK", chunk)
    for text in _TRAILING_COMMAS:
        with pytest.raises(json.JSONDecodeError) as expected:
            json.loads(text)
        with pytest.raises(ValueError) as raised:
            _load_system(io.StringIO(text))
        assert str(raised.value) == f"invalid JSON: {expected.value}", text


class _Scanner313(json.JSONDecoder):
    """The scanner of Python 3.13 on: a comma right before a closer is named and placed there."""

    def raw_decode(self, s, idx=0):
        try:
            return super().raw_decode(s, idx)
        except json.JSONDecodeError as exc:
            comma = len(s[: exc.pos].rstrip(" \t\n\r")) - 1
            closer = {"]": "array", "}": "object"}.get(s[exc.pos : exc.pos + 1])
            if closer is None or s[comma] != ",":
                raise
            msg = f"Illegal trailing comma before end of {closer}"
            raise json.JSONDecodeError(msg, s, comma) from None


@pytest.mark.parametrize("chunk", [1, 7, None], ids=["chunk_1", "chunk_7", "default_chunk"])
def test_chunked_reader_places_a_named_trailing_comma_at_the_comma(monkeypatch, chunk):
    # Whichever interpreter runs this, both readers say what a 3.13 scanner says.
    import io

    import pluckereqs.documents
    from pluckereqs import pvector_from_json
    from pluckereqs.render import _load_system

    if chunk is not None:
        monkeypatch.setattr(pluckereqs.documents, "_CHUNK", chunk)
    monkeypatch.setattr(pluckereqs.documents, "_DECODER", _Scanner313())
    in_object = "Illegal trailing comma before end of object: line 1 column 8 (char 7)"
    in_array = "Illegal trailing comma before end of array: line 1 column 18 (char 17)"
    in_value = "Illegal trailing comma before end of array: line 1 column 17 (char 16)"
    messages = [in_object, in_object, in_array, in_array, in_value]
    for text, message in zip(_TRAILING_COMMAS, messages):
        with pytest.raises(ValueError) as raised:
            _load_system(io.StringIO(text))
        assert str(raised.value) == f"invalid JSON: {message}", text
    # The p-vector reader walks its top-level object the same way.
    for text, message in zip(_TRAILING_COMMAS, [in_object, in_object]):
        with pytest.raises(ValueError) as raised:
            pvector_from_json(text)
        assert str(raised.value) == f"invalid JSON: {message}", text


def test_chunked_reader_stops_at_an_error_away_from_the_chunk_end(monkeypatch):
    # A syntax error early in a long document is reported without reading
    # the rest of it.
    import io

    import pluckereqs.documents
    from pluckereqs.render import _load_system

    class CountingReader(io.StringIO):
        read_chars = 0

        def read(self, size=-1):
            text = super().read(size)
            self.read_chars += len(text)
            return text

    monkeypatch.setattr(pluckereqs.documents, "_CHUNK", 64)
    text = render(gen_plucker_like(GrassmannParams(6, 3)), "json")
    cut = text.index('"c": ', 300)
    bad = text[:cut] + '"c": ]' + text[cut + 6:]
    source = CountingReader(bad)
    with pytest.raises(ValueError) as raised:
        _load_system(source)
    with pytest.raises(json.JSONDecodeError) as expected:
        json.loads(bad)
    assert str(raised.value) == f"invalid JSON: {expected.value}"
    # Reads grow geometrically from the start of the broken element.
    assert source.read_chars <= 2 * (cut + 64) < len(bad) // 10


_VALID_63 = json.dumps(system_to_dict(gen_plucker_like(GrassmannParams(6, 3))))


@pytest.mark.parametrize("chunk", [1, 7, None], ids=["chunk_1", "chunk_7", "default_chunk"])
@pytest.mark.parametrize(
    "text",
    [
        '{"n": 6, "p": 3, "n": 6, "m": 2, "equations": []}',
        '{"equations": [], "n": 6, "p": 3, "m": 2, "equations": []}',
        _VALID_63[:-1] + ', "m": 2}',
        _VALID_63 + " x",
        _VALID_63 + _VALID_63,
        _VALID_63 + "]",
        "[" + _VALID_63 + "]",
        "5",
        '"n"',
        "null",
        "",
        '{"n": 6, "p": 3, "m": 2, "equations": {}}',
        '{"n": 6, "p": 3, "m": 2, "equations": ""}',
        '{"n": 6, "p": 3, "m": 2, "equations": null}',
        '{"equations": 5, "n": 6, "p": 3, "m": 2}',
    ],
    ids=[
        "repeated_n", "repeated_equations", "repeated_m_last", "trailing_word",
        "two_documents", "trailing_bracket", "array_top_level", "number_top_level",
        "string_top_level", "null_top_level", "empty_document", "equations_object",
        "equations_string", "equations_null", "equations_number_first",
    ],
)
def test_export_refuses_document(capsys, monkeypatch, chunk, text):
    import io

    import pluckereqs.documents
    from pluckereqs.cli import main

    if chunk is not None:
        monkeypatch.setattr(pluckereqs.documents, "_CHUNK", chunk)
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["export", "--format", "csv"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
