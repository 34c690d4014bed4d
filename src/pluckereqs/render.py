"""Text, LaTeX, JSON and CSV serialization of equations and systems.

Multi-indices are rendered as concatenated digits for n <= 9 (so ``(1,2,3)``
prints as ``123``) and dot-separated for n >= 10 (``1.2.10``), since plain
concatenation is ambiguous there.  JSON always stores explicit integer
arrays and round-trips losslessly.
"""

from __future__ import annotations

import csv
import io
import json

from .documents import json_int, load_document, read_document
from .equations import EquationSystem, QuadraticEquation, QuadTerm, check_width
from .multiindex import GrassmannParams, MultiIndex

FORMATS = ("text", "latex", "json", "csv")
INDEX_STYLES = ("auto", "concat", "dots")

__all__ = [
    "FORMATS",
    "INDEX_STYLES",
    "format_multiindex",
    "format_label",
    "equation_text",
    "equation_latex",
    "render",
    "system_to_dict",
    "system_from_dict",
    "system_from_json",
]


def resolve_style(n: int, style: str = "auto") -> str:
    if style not in INDEX_STYLES:
        raise ValueError(f"index style must be one of {INDEX_STYLES}, got {style!r}")
    if style == "auto":
        return "dots" if n >= 10 else "concat"
    return style


def format_multiindex(idx: MultiIndex, style: str = "concat") -> str:
    sep = "." if style == "dots" else ""
    return sep.join(str(i) for i in idx)


def format_label(eq: QuadraticEquation, style: str = "concat") -> str:
    j, k = eq.label
    return f"({format_multiindex(j, style)},{format_multiindex(k, style)})"


def _term_body(term: QuadTerm, style: str, latex: bool) -> str:
    magnitude = abs(term.coefficient)
    left = format_multiindex(term.left, style)
    right = format_multiindex(term.right, style)
    if latex:
        body = f"{{\\lambda}}_{{{left}}} {{\\lambda}}_{{{right}}}"
        return f"{magnitude} {body}" if magnitude != 1 else body
    body = f"λ_{{{left}}}λ_{{{right}}}"
    return f"{magnitude}{body}" if magnitude != 1 else body


def _equation_body(eq: QuadraticEquation, style: str, latex: bool) -> str:
    if not eq.terms:
        return "0 = 0"
    pieces = []
    for pos, term in enumerate(eq.terms):
        body = _term_body(term, style, latex)
        if pos == 0:
            pieces.append(f"-{body}" if term.coefficient < 0 else body)
        else:
            pieces.append(("- " if term.coefficient < 0 else "+ ") + body)
    return " ".join(pieces) + " = 0"


def equation_text(eq: QuadraticEquation, index_style: str = "auto", with_label: bool = True) -> str:
    """One-line text form, e.g. ``(1,12345): λ_{123}λ_{145} - ... = 0``."""
    style = resolve_style(eq.params.n, index_style)
    body = _equation_body(eq, style, latex=False)
    if not with_label:
        return body
    return f"{format_label(eq, style)}: {body}"


def equation_latex(eq: QuadraticEquation, index_style: str = "auto") -> str:
    """Math-mode LaTeX for one equation, without the label."""
    style = resolve_style(eq.params.n, index_style)
    return f"${_equation_body(eq, style, latex=True)}$"


def _system_caption(system: EquationSystem) -> str:
    name = {1: "Plucker equations", 2: "Plucker-like equations"}.get(
        system.m, f"generalized equations (m={system.m})"
    )
    return f"{name} for (n,p) = ({system.params.n},{system.params.p})"


def _render_text(system: EquationSystem, style: str, with_labels: bool) -> str:
    lines = [equation_text(eq, style, with_label=with_labels) for eq in system]
    return "\n".join(lines) + "\n"


def _render_latex(system: EquationSystem, style: str, with_labels: bool) -> str:
    lines = []
    if with_labels:
        lines.append("\\begin{longtable}{rll}")
        lines.append(f"\\caption{{{_system_caption(system)}}} \\\\")
        lines.append("\\# & $(j,k)$ & Equation \\\\")
    else:
        lines.append("\\begin{longtable}{rl}")
        lines.append(f"\\caption{{{_system_caption(system)}, reduced}} \\\\")
        lines.append("\\# & Equation \\\\")
    lines.append("\\hline")
    for ordinal, eq in enumerate(system, 1):
        resolved = resolve_style(eq.params.n, style)
        body = equation_latex(eq, style)
        if with_labels:
            lines.append(f"{ordinal} & {format_label(eq, resolved)} & {body} \\\\")
        else:
            lines.append(f"{ordinal} & {body} \\\\")
    lines.append("\\end{longtable}")
    return "\n".join(lines) + "\n"


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


def _equation_from_dict(params: GrassmannParams, m: int, entry: dict) -> QuadraticEquation:
    j, k = entry["j"], entry["k"]
    # linear_combination gives its results the empty label ((), ()).
    sizes = (params.p - m, params.p + m) if j or k else (0, 0)
    label = (params.multiindex(j, sizes[0]), params.multiindex(k, sizes[1]))
    terms = []
    for t in entry["terms"]:
        coefficient = json_int(t["c"], "term coefficient")
        if coefficient == 0:
            raise ValueError("term coefficient must be non-zero")
        left = params.multiindex(t["left"], params.p)
        right = params.multiindex(t["right"], params.p)
        if right < left:
            raise ValueError("terms must be stored with left <= right")
        terms.append(QuadTerm(coefficient, left, right))
    return QuadraticEquation(params, label, tuple(terms))


def _system_from_document(data: dict) -> EquationSystem:
    params = GrassmannParams(json_int(data["n"], "n"), json_int(data["p"], "p"))
    m = check_width(params, json_int(data["m"], "m"))
    equations = tuple(_equation_from_dict(params, m, entry) for entry in data["equations"])
    return EquationSystem(params, m, equations)


def system_from_dict(data: dict) -> EquationSystem:
    """Rebuild a system from its JSON dictionary form.

    Malformed input raises ``ValueError``.  ``n``, ``p``, ``m`` and each
    term's ``c`` must be JSON integers, with ``1 <= m <= min(p, n-p)``;
    term multi-indices have ``p`` entries in 1..n, and a label ``(j, k)``
    has ``p-m`` and ``p+m`` entries in 1..n, or is the empty label
    ``((), ())`` that ``equations.linear_combination`` gives.
    """
    return read_document(_system_from_document, data, "equation-system")


def system_from_json(text: str) -> EquationSystem:
    return load_document(_system_from_document, text, "equation-system")


def _render_json(system: EquationSystem) -> str:
    return json.dumps(system_to_dict(system), indent=2) + "\n"


def _render_csv(system: EquationSystem, style: str) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["ordinal", "j", "k", "coefficient", "left", "right"])
    for ordinal, eq in enumerate(system, 1):
        resolved = resolve_style(eq.params.n, style)
        j, k = eq.label
        for term in eq.terms:
            writer.writerow(
                [
                    ordinal,
                    format_multiindex(j, resolved),
                    format_multiindex(k, resolved),
                    term.coefficient,
                    format_multiindex(term.left, resolved),
                    format_multiindex(term.right, resolved),
                ]
            )
    return buffer.getvalue()


def render(
    obj: EquationSystem | QuadraticEquation,
    fmt: str = "text",
    index_style: str = "auto",
    with_labels: bool = True,
) -> str:
    """Render a system or a single equation to one of the supported formats."""
    if fmt not in FORMATS:
        raise ValueError(f"format must be one of {FORMATS}, got {fmt!r}")
    if isinstance(obj, QuadraticEquation):
        if fmt == "text":
            return equation_text(obj, index_style, with_label=with_labels) + "\n"
        if fmt == "latex":
            return equation_latex(obj, index_style) + "\n"
        raise ValueError(f"{fmt} rendering requires a full EquationSystem")
    if fmt == "text":
        return _render_text(obj, index_style, with_labels)
    if fmt == "latex":
        return _render_latex(obj, index_style, with_labels)
    if fmt == "json":
        return _render_json(obj)
    return _render_csv(obj, index_style)
