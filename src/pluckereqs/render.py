"""Text, LaTeX, JSON and CSV serialization of equations and systems.

Multi-indices are rendered as concatenated digits for n <= 9 (so ``(1,2,3)``
prints as ``123``) and dot-separated for n >= 10 (``1.2.10``), since plain
concatenation is ambiguous there.  JSON always stores explicit integer
arrays and round-trips losslessly.

Each format has one writer, a generator that reads rows ``(label, terms)``,
each term a plain ``(c, left, right)`` tuple, from any iterable and yields
the output one row (one line or block) at a time.  A writer holds no
equation: ``render`` passes it each equation's label and terms and joins
its pieces, and ``generate`` passes it the rows of
``equations._canonical_rows`` or ``equations._raw_rows`` as they are made
and writes its pieces out in batches, so a large system is held neither as
equations nor as one string.  A system has far fewer distinct multi-indices
than terms (252 against 158,760 at (n,p) = (10,5), m = 1), so each writer
formats every distinct multi-index once, in a memo table keyed by the index
tuple, and one function builds the equation bodies of text, LaTeX and the
single-equation forms.  JSON output is ``json.dumps(system_to_dict(system),
indent=2)`` byte for byte, written from templates without building the
nested dicts; ``system_to_dict`` stays public and is the oracle the tests
compare with.

Reading a system back walks the document's top-level object by hand and
decodes one member, and one element of ``"equations"``, at a time from a
file read in chunks of about 1 MiB (``documents.JsonText``), so neither its
text nor its decoded tree is held whole.  Each element becomes a row
``(label, (c1, left1, right1, c2, ...))`` once ``n``, ``p`` and ``m`` are
known.  Labels go through ``GrassmannParams.multiindex``, and each distinct
term factor through it once per document, by a memo; rows hold the
process's one tuple per multi-index.  Every row is read before anything is
written, so a malformed document writes nothing.  ``export`` writes the rows
and builds no equation; the library readers build an ``EquationSystem``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from io import TextIOBase

from . import _EXPORTS, FORMATS
from .documents import JsonText, json_int, read_document
from .equations import EquationSystem, Label, QuadraticEquation, QuadTerm, check_width
from .multiindex import _INT_ONLY, GrassmannParams, MultiIndex, _Memo

__all__ = _EXPORTS["render"]

# One equation as a writer reads it: its label and its ``(c, left, right)`` terms.
_Terms = Sequence[tuple[int, MultiIndex, MultiIndex]]
_Row = tuple[Label, _Terms]


def _names(n: int) -> _Memo:
    """Each multi-index's name at ambient dimension n, formatted once per render call.

    Names are concatenated digits, dot-separated from n = 10 on, where
    concatenation would be ambiguous.
    """
    sep = "." if n >= 10 else ""
    return _Memo(lambda idx: sep.join(str(i) for i in idx))


def _equation_body(terms: _Terms, names: _Memo, latex: bool) -> str:
    """The equation ``... = 0`` with signs between the terms, as text or LaTeX."""
    if not terms:
        return "0 = 0"
    lam, gap = ("{\\lambda}", " ") if latex else ("λ", "")
    pieces = []
    for c, left, right in terms:
        sign = "+ " if c == 1 else "- " if c == -1 else f"{'-' if c < 0 else '+'} {abs(c)}{gap}"
        pieces.append(f"{sign}{lam}_{{{names[left]}}}{gap}{lam}_{{{names[right]}}}")
    text = " ".join(pieces)
    # The first term has no "+ " and a bare "-".
    return ("-" + text[2:] if text[0] == "-" else text[2:]) + " = 0"


def _label_text(label: tuple[MultiIndex, MultiIndex], names: _Memo) -> str:
    j, k = label
    return f"({names[j]},{names[k]})"


def _label_formatter(n: int):
    """A function giving a label ``(j, k)`` as ``(j,k)`` at ambient dimension n.

    It keeps one memo table, so each distinct multi-index is formatted once
    however many labels it prints.
    """
    names = _names(n)
    return lambda label: _label_text(label, names)


def _text_line(label: Label, terms: _Terms, names: _Memo, with_label: bool) -> str:
    body = _equation_body(terms, names, latex=False)
    return f"{_label_text(label, names)}: {body}" if with_label else body


def equation_text(eq: QuadraticEquation, *, with_label: bool = True) -> str:
    """One-line text form, e.g. ``(1,12345): λ_{123}λ_{145} - ... = 0``."""
    return _text_line(eq.label, eq.terms, _names(eq.params.n), with_label)


def equation_latex(eq: QuadraticEquation) -> str:
    """Math-mode LaTeX for one equation, without the label."""
    return f"${_equation_body(eq.terms, _names(eq.params.n), latex=True)}$"


def _system_caption(params: GrassmannParams, m: int) -> str:
    name = {1: "Plucker equations", 2: "Plucker-like equations"}.get(
        m, f"generalized equations (m={m})"
    )
    return f"{name} for (n,p) = ({params.n},{params.p})"


def _text_pieces(params: GrassmannParams, m: int, rows: Iterable[_Row], with_labels: bool) -> Iterator[str]:
    names = _names(params.n)
    empty = True
    for label, terms in rows:
        empty = False
        yield _text_line(label, terms, names, with_labels) + "\n"
    if empty:
        yield "\n"


def _latex_pieces(params: GrassmannParams, m: int, rows: Iterable[_Row], with_labels: bool) -> Iterator[str]:
    names = _names(params.n)
    if with_labels:
        yield (
            "\\begin{longtable}{rll}\n"
            f"\\caption{{{_system_caption(params, m)}}} \\\\\n"
            "\\# & $(j,k)$ & Equation \\\\\n\\hline\n"
        )
    else:
        yield (
            "\\begin{longtable}{rl}\n"
            f"\\caption{{{_system_caption(params, m)}, reduced}} \\\\\n"
            "\\# & Equation \\\\\n\\hline\n"
        )
    for ordinal, (label, terms) in enumerate(rows, 1):
        body = _equation_body(terms, names, True)
        if with_labels:
            yield f"{ordinal} & {_label_text(label, names)} & ${body}$ \\\\\n"
        else:
            yield f"{ordinal} & ${body}$ \\\\\n"
    yield "\\end{longtable}\n"


def system_to_dict(system: EquationSystem) -> dict:
    return {
        "n": system.params.n,
        "p": system.params.p,
        "m": system.m,
        "equations": [
            {
                "j": list(eq.label[0]),
                "k": list(eq.label[1]),
                "terms": [
                    {"c": t.coefficient, "left": list(t.left), "right": list(t.right)}
                    for t in eq.terms
                ],
            }
            for eq in system
        ],
    }


def _factor(params: GrassmannParams, values, factors: dict) -> MultiIndex:
    """``params.multiindex(values, params.p)`` through ``factors``, one document's memo."""
    key = tuple(values)
    # 1.0 and True equal 1 as keys, so only exactly-int factors are looked up.
    idx = factors.get(key) if _INT_ONLY.issuperset(map(type, key)) else None
    return idx or factors.setdefault(key, params.multiindex(key, params.p))


def _row_from_dict(params: GrassmannParams, m: int, entry: dict, factors: dict) -> tuple[Label, tuple]:
    """One equation of a document as ``(label, (c1, left1, right1, c2, ...))``."""
    j, k = entry["j"], entry["k"]
    # linear_combination gives its results the empty label ((), ()).
    sizes = (params.p - m, params.p + m) if j or k else (0, 0)
    label = (params.multiindex(j, sizes[0]), params.multiindex(k, sizes[1]))
    flat: list = []
    for t in entry["terms"]:
        coefficient = t["c"]
        if coefficient.__class__ is not int or not coefficient:
            json_int(coefficient, "term coefficient")
            raise ValueError("term coefficient must be non-zero")
        left, right = _factor(params, t["left"], factors), _factor(params, t["right"], factors)
        if right < left:
            raise ValueError("terms must be stored with left <= right")
        flat += (coefficient, left, right)
    return label, tuple(flat)


def _terms(flat: tuple) -> list[tuple[int, MultiIndex, MultiIndex]]:
    it = iter(flat)  # (c1, left1, right1, c2, ...), in threes
    return list(zip(it, it, it))


def _system(params: GrassmannParams, m: int, rows: list) -> EquationSystem:
    for i, (label, flat) in enumerate(rows):  # in place: each row is freed once it is built
        rows[i] = QuadraticEquation(params, label, tuple(map(QuadTerm._make, _terms(flat))))
    return EquationSystem(params, m, tuple(rows))


def _header(data: dict) -> tuple[GrassmannParams, int]:
    params = GrassmannParams(json_int(data["n"], "n"), json_int(data["p"], "p"))
    return params, check_width(params, json_int(data["m"], "m"))


def _system_from_document(data: dict) -> tuple[GrassmannParams, int, list]:
    params, m = _header(data)
    factors: dict = {}
    return params, m, [_row_from_dict(params, m, entry, factors) for entry in data["equations"]]


def system_from_dict(data: dict) -> EquationSystem:
    """Rebuild a system from its JSON dictionary form.

    Malformed input raises ``ValueError``.  ``n``, ``p``, ``m`` and each
    term's ``c`` must be JSON integers, with ``1 <= m <= min(p, n-p)``;
    term multi-indices have ``p`` entries in 1..n, and a label ``(j, k)``
    has ``p-m`` and ``p+m`` entries in 1..n, or is the empty label
    ``((), ())`` that ``equations.linear_combination`` gives.
    """
    return _system(*read_document(_system_from_document, data, "equation-system"))


def _system_from_text(text: JsonText) -> tuple[GrassmannParams, int, list]:
    """Read a system document member by member into ``(params, m, rows)``.

    Each element of ``"equations"`` is decoded alone and read into a row,
    through this read's one factor memo, once ``n``, ``p`` and ``m`` are
    known; elements before those keys wait, decoded.  A top-level key may
    appear only once.  A non-object is refused by :func:`_system_from_document`.
    """
    if text.peek() != "{":
        data = text.decode()
        text.end()
        return _system_from_document(data)
    values: dict = {}
    rows: list = []  # rows, or decoded elements waiting for n, p and m
    header = None
    factors: dict = {}
    for key in text.members():
        if key != "equations":
            values[key] = text.decode()
        elif text.peek() != "[":
            raise TypeError("equations must be a JSON array")
        else:
            values[key] = rows
            for _ in text.elements("]"):
                entry = text.decode()
                rows.append(entry if header is None else _row_from_dict(*header, entry, factors))
        if header is None and all(name in values for name in ("n", "p", "m")):
            header = _header(values)
            rows[:] = [_row_from_dict(*header, entry, factors) for entry in rows]
    text.end()
    params, m = header or _header(values)
    return params, m, values["equations"]


def _load_rows(source: str | TextIOBase) -> tuple[GrassmannParams, int, list]:
    """``(params, m, rows)`` of a system document: a JSON string, or an open file read in chunks."""
    return read_document(_system_from_text, JsonText(source), "equation-system")


def _load_system(source: str | TextIOBase) -> EquationSystem:
    """``system_from_json`` for a JSON string or an open text file."""
    return _system(*_load_rows(source))


def system_from_json(text: str) -> EquationSystem:
    return _load_system(text)


def _json_array(idx: MultiIndex, indent: int) -> str:
    """``json.dumps(list(idx), indent=2)`` for an array opened at ``indent`` spaces."""
    if not idx:
        return "[]"
    pad = " " * (indent + 2)
    return "[\n" + ",\n".join(pad + str(i) for i in idx) + "\n" + " " * indent + "]"


def _json_pieces(params: GrassmannParams, m: int, rows: Iterable[_Row], with_labels: bool) -> Iterator[str]:
    """``json.dumps(system_to_dict(system), indent=2) + "\\n"``, one equation at a time.

    The encoder's indented mode runs in pure Python and first needs the
    nested dicts; this writer emits the same layout from templates and
    formats each multi-index array once per depth (labels at 6 spaces,
    term indices at 10).
    """
    label_arrays = _Memo(lambda idx: _json_array(idx, 6))
    term_arrays = _Memo(lambda idx: _json_array(idx, 10))
    yield f'{{\n  "n": {params.n},\n  "p": {params.p},\n  "m": {m},\n  "equations": '
    opener = "[\n"
    for (j, k), terms in rows:
        body = "[]"
        if terms:
            body = "[\n" + ",\n".join(
                f'        {{\n          "c": {c},\n'
                f'          "left": {term_arrays[left]},\n'
                f'          "right": {term_arrays[right]}\n        }}'
                for c, left, right in terms
            ) + "\n      ]"
        yield (
            f'{opener}    {{\n      "j": {label_arrays[j]},\n      "k": {label_arrays[k]},\n'
            f'      "terms": {body}\n    }}'
        )
        opener = ",\n"
    yield "[]\n}\n" if opener == "[\n" else "\n  ]\n}\n"


def _csv_pieces(params: GrassmannParams, m: int, rows: Iterable[_Row], with_labels: bool) -> Iterator[str]:
    # Index names hold only digits and dots, so no field needs CSV quoting.
    names = _names(params.n)
    yield "ordinal,j,k,coefficient,left,right\n"
    for ordinal, ((j, k), terms) in enumerate(rows, 1):
        label = f"{ordinal},{names[j]},{names[k]},"
        yield "".join(f"{label}{c},{names[left]},{names[right]}\n" for c, left, right in terms)


_WRITERS = {"text": _text_pieces, "latex": _latex_pieces, "json": _json_pieces, "csv": _csv_pieces}


def _system_pieces(
    params: GrassmannParams,
    m: int,
    rows: Iterable[_Row],
    fmt: str,
    *,
    with_labels: bool = True,
) -> Iterator[str]:
    """The rendered system ``(params, m, rows)`` in pieces of one equation each.

    Each row is one equation's ``(label, terms)``, each term ``(c, left,
    right)``.  ``rows`` is read once, one row per piece, so it may be a
    generator: the system is never held whole.  The format is checked here,
    before the first piece is asked for, so a caller writing the pieces out
    learns of a bad format before any byte is written.
    """
    if fmt not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}, got {fmt!r}")
    return _WRITERS[fmt](params, m, rows, with_labels)


def _render_pieces(
    obj: EquationSystem | QuadraticEquation, fmt: str, *, with_labels: bool = True
) -> Iterator[str]:
    """The text of ``render(obj, fmt)`` in pieces of one equation (one line or block) each."""
    if not isinstance(obj, QuadraticEquation):
        rows = ((eq.label, eq.terms) for eq in obj.equations)
        return _system_pieces(obj.params, obj.m, rows, fmt, with_labels=with_labels)
    if fmt == "text":
        return iter((equation_text(obj, with_label=with_labels) + "\n",))
    if fmt == "latex":
        return iter((equation_latex(obj) + "\n",))
    if fmt not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}, got {fmt!r}")
    raise ValueError(f"{fmt} rendering requires a full EquationSystem")


def render(
    obj: EquationSystem | QuadraticEquation,
    fmt: str = "text",
    *,
    with_labels: bool = True,
) -> str:
    """Render a system or a single equation to one of the supported formats."""
    return "".join(_render_pieces(obj, fmt, with_labels=with_labels))
