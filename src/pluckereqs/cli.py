"""Command line interface.

Subcommands: generate, check, verify, census, export, probe.  Exit codes:
0 success or affirmative answer, 1 verified negative (violations found or
an identity failed), 2 usage or input error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import os
import sys
from collections.abc import Iterable, Iterator
from io import TextIOBase
from itertools import chain

# Each subcommand imports the submodules it runs, so a launch loads only
# those: ``--help`` loads none, ``generate`` and ``export`` never load the
# p-vector code, ``check`` loads the renderer only to print violations, and
# the structural commands load neither.
from . import FORMATS

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_IO = 3

# Characters per write.  Output is rendered one equation at a time and
# written in batches of about this size: one write per equation would be one
# system call per equation on a write-through stdout (PYTHONUNBUFFERED=1).
_BATCH = 1 << 20


def _batches(pieces: Iterable[str]) -> Iterator[str]:
    batch: list[str] = []
    size = 0
    for piece in pieces:
        batch.append(piece)
        size += len(piece)
        if size >= _BATCH:
            # The pieces are freed before the joined text is encoded, and the
            # generator keeps no reference to it: two copies of a batch at most.
            batch = ["".join(batch)]
            yield batch.pop()
            size = 0
    if batch:
        yield "".join(batch)


def _write_output(pieces: Iterable[str], out: str | None) -> None:
    """Write the pieces, in batches, to the file ``out`` or to stdout.

    It is the one writer of stdout, ``--help`` included.  On stdout each
    batch goes to the binary layer whole: a write-through text layer over an
    unbuffered pipe passes a short write on silently.  When stdout fails (a
    closed reader, a full device), its descriptor is pointed at the null
    device before the ``OSError`` is re-raised, so the exit flush of the
    bytes left buffered cannot fail again outside ``main``.
    """
    if out is not None and out != "-":
        with open(out, "w", encoding="utf-8") as handle:
            for batch in _batches(pieces):
                handle.write(batch)
        return
    stdout = sys.stdout
    binary = getattr(stdout, "buffer", None)
    try:
        if binary is None:  # a text-only stream, such as io.StringIO
            for batch in _batches(pieces):
                stdout.write(batch)
            return
        stdout.flush()
        for batch in _batches(pieces):
            data = memoryview(batch.encode(stdout.encoding, stdout.errors))
            while data:
                data = data[binary.write(data):]
        binary.flush()
    except OSError:
        with contextlib.suppress(OSError), open(os.devnull, "wb") as null:  # io.StringIO has no descriptor
            os.dup2(null.fileno(), stdout.fileno())
        raise


def _open_input(path: str | None) -> contextlib.AbstractContextManager[TextIOBase]:
    if path is None or path == "-":
        return contextlib.nullcontext(sys.stdin)
    return open(path, "r", encoding="utf-8")


def _add_params(parser: argparse.ArgumentParser, required: bool = True) -> None:
    parser.add_argument("--n", type=int, required=required, help="ambient dimension")
    parser.add_argument("--p", type=int, required=required, help="subspace dimension")


def cmd_generate(args: argparse.Namespace) -> int:
    from .equations import _canonical_rows, _raw_rows, _tuple_terms
    from .multiindex import GrassmannParams
    from .render import _system_pieces

    if args.raw and args.dedupe:
        raise ValueError("--raw and --dedupe cannot be combined: dedupe compares canonical forms")
    params = GrassmannParams(args.n, args.p)
    if args.m >= 3 and not args.experimental:
        raise ValueError("m >= 3 has no structural guarantees; pass --experimental to proceed")
    # One row (label, terms) at a time from generation to output: no
    # equation is built and no system is held.
    if args.raw:
        rows = ((label, _tuple_terms(terms)) for label, terms in _raw_rows(params, args.m))
    else:
        rows = _canonical_rows(params, args.m, first_only=args.dedupe)
    pieces = _system_pieces(params, args.m, rows, args.format, with_labels=not args.dedupe)
    _write_output(pieces, args.out)
    return EXIT_OK


def _run_selftest(args: argparse.Namespace) -> int:
    if args.n is None or args.p is None:
        raise ValueError("--selftest requires --n and --p")
    if args.seed is None:
        raise ValueError("--selftest requires --seed")
    if args.selftest < 1:
        raise ValueError(f"--selftest needs N >= 1, got {args.selftest}")
    from .equations import _by_mask, _raw_rows
    from .multiindex import GrassmannParams
    from .pvectors import _violations, checked_tolerance, is_simple, random_pvector, random_simple

    tol = checked_tolerance(args.tolerance)
    params = GrassmannParams(args.n, args.p)
    if params.p == params.n:
        raise ValueError(f"--selftest needs p < n: no equation system exists at p = n = {params.n}")
    count = args.selftest
    flagged = [
        f"simple vector at seed {args.seed + offset} flagged as non-simple\n"
        for offset in range(count)
        if not is_simple(random_simple(params, args.seed + offset), "plucker")
    ]
    # The chart verdict against each system that exists at (n, p), read
    # row by row up to the first violated one.
    widths = range(1, min(2, params.p, params.n - params.p) + 1)
    agreements = 0
    for offset in range(count):
        h = random_pvector(params, args.seed + offset)
        verdict = is_simple(h, "plucker")
        coeffs = _by_mask(h.coeffs)
        violated = (next(_violations(_raw_rows(params, m), coeffs, h.field, tol), None) for m in widths)
        agreements += all(verdict == (first is None) for first in violated)
    wedges = f"{count} wedge vectors clean"
    if flagged:
        wedges = f"{len(flagged)} of {count} wedge vectors flagged as non-simple"
    _write_output([*flagged, f"selftest: {wedges}, {agreements}/{count} verdicts agree\n"], None)
    if flagged or agreements != count:
        return EXIT_NEGATIVE
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    if args.selftest is not None:
        if args.pvector is not None:
            raise ValueError("--selftest reads no input file; pass either FILE or --selftest")
        if args.m is not None:
            raise ValueError("--selftest runs both systems; drop --m")
        return _run_selftest(args)
    if args.seed is not None:
        raise ValueError("--seed is read only by --selftest; pass --selftest N or drop --seed")
    from .pvectors import is_simple, pvector_from_json

    with _open_input(args.pvector) as handle:
        h = pvector_from_json(handle.read())
    if args.n is not None and args.n != h.params.n:
        raise ValueError(f"--n {args.n} does not match input n={h.params.n}")
    if args.p is not None and args.p != h.params.p:
        raise ValueError(f"--p {args.p} does not match input p={h.params.p}")
    params = h.params
    m = 2 if args.m is None else args.m
    choice = "plucker" if m == 1 else "plucker_like"
    # is_simple checks the input (the width of --m 1, the tolerance) before
    # its zero-vector convention, so the zero vector is rejected where any
    # other vector would be.
    if is_simple(h, choice, args.tolerance):
        _write_output(["simple (zero vector)\n" if h.is_zero else "simple\n"], None)
        return EXIT_OK
    from .equations import _by_mask, _raw_rows
    from .pvectors import _violations, checked_tolerance
    from .render import _label_formatter

    # Each row is evaluated on masks as it is generated, so no system is
    # held, and each violation is formatted as it is found.  Only the output
    # text is kept, joined in batches, because the header line counts the
    # violations first: one line each.
    tol = checked_tolerance(args.tolerance)
    label_text = _label_formatter(params.n)
    violated = _violations(_raw_rows(params, m), _by_mask(h.coeffs), h.field, tol)
    batches = list(_batches(f"  {label_text(label)} = {value}\n" for label, value in violated))
    count = sum(batch.count("\n") for batch in batches)
    _write_output(chain([f"not simple: {count} violated equations\n"], batches), None)
    return EXIT_NEGATIVE


def cmd_verify(args: argparse.Namespace) -> int:
    from .multiindex import GrassmannParams
    from .structure import verify_structure

    params = GrassmannParams(args.n, args.p)
    report = verify_structure(params)
    c = report.census
    verdict = "PASS" if report.ok else f"FAIL at {report.first_failure}"
    lines = [
        f"decomposition identity: {report.decompositions_checked - len(report.decomposition_failures)}"
        f"/{report.decompositions_checked} labels ok",
        f"census: total {c.total_observed}/{c.total_predicted}, "
        f"distinct={c.all_distinct}, nontrivial={c.all_nontrivial}",
        f"families: {report.families_checked} checked, "
        f"{report.combinations_checked} pair combinations checked",
        f"3-term multiplicities (4x one-index, 1x two-index): {report.multiplicity_ok}",
        f"VERIFY (n={args.n}, p={args.p}): {verdict}",
    ]
    _write_output(["\n".join(lines) + "\n"], None)
    return EXIT_OK if report.ok else EXIT_NEGATIVE


def cmd_census(args: argparse.Namespace) -> int:
    from .equations import size_ratio
    from .multiindex import GrassmannParams
    from .structure import census

    params = GrassmannParams(args.n, args.p)
    report = census(params)
    if args.format == "json":
        import json

        _write_output([json.dumps(report.to_dict(), indent=2) + "\n"], args.out)
        return EXIT_OK if report.ok else EXIT_NEGATIVE
    lines = [f"census for (n,p) = ({args.n},{args.p})"]
    header = f"{'kind':>8} {'q':>3} {'count':>8} {'predicted':>10} {'terms':>6}"
    lines.append(header)
    for entry in report.classes:
        terms = ",".join(str(t) for t in entry.observed_terms) or "-"
        lines.append(
            f"{entry.kind:>8} {entry.q_size:>3} {entry.observed:>8} "
            f"{entry.predicted:>10} {terms:>6}"
        )
    lines.append(
        f"total {report.total_observed}/{report.total_predicted}, "
        f"families {report.families_observed}/{report.families_predicted}"
    )
    lines.append(f"distinct: {report.all_distinct}, nontrivial: {report.all_nontrivial}")
    ratio = size_ratio(params)
    one_index_size = report.total_predicted * ratio
    lines.append(
        f"system size ratio (p+2)(n-p+2)/((p-1)(n-p-1)): "
        f"{one_index_size}/{report.total_predicted} = {float(ratio)}"
    )
    _write_output(["\n".join(lines) + "\n"], args.out)
    return EXIT_OK if report.ok else EXIT_NEGATIVE


def cmd_export(args: argparse.Namespace) -> int:
    from .render import _load_rows, _system_pieces, _terms

    if args.no_labels and args.format in ("json", "csv"):
        raise ValueError(f"--no-labels applies to text and latex only, not {args.format}")
    # Every row is read before the first byte is written: a malformed document writes nothing.
    with _open_input(args.infile) as handle:
        params, m, rows = _load_rows(handle)
    rows = ((label, _terms(flat)) for label, flat in rows)
    _write_output(_system_pieces(params, m, rows, args.format, with_labels=not args.no_labels), args.out)
    return EXIT_OK


def cmd_probe(args: argparse.Namespace) -> int:
    from .multiindex import GrassmannParams
    from .structure import stratum_probe

    params = GrassmannParams(args.n, args.p)
    report = stratum_probe(params, args.q)
    if args.format == "text":
        lines = [
            f"probe (n={args.n}, p={args.p}, q={args.q}): "
            f"{report.equation_count} equations, admissible={report.admissible}",
            f"support groups (size, count): {list(report.support_group_sizes) or '-'}",
            f"max support overlap: {report.max_support_overlap}",
            f"combinations tried: {report.combinations_tried}, "
            f"collapses found: {len(report.collapses)}",
            f"note: {report.note}",
        ]
        _write_output(["\n".join(lines) + "\n"], args.out)
    else:
        _write_output([report.to_json()], args.out)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None) -> None:
        """Help goes to stdout through ``_write_output``; every subparser is of this class too."""
        if file is None:
            _write_output([self.format_help()], None)
        else:
            super().print_help(file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pluckereqs",
        description="Generate, check and verify quadratic Grassmann coordinate identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="generate an equation system")
    _add_params(p_gen)
    p_gen.add_argument("--m", type=int, default=1, help="indices moved per term (1 or 2)")
    p_gen.add_argument("--format", choices=FORMATS, default="text")
    p_gen.add_argument("--raw", action="store_true", help="emit generation-order raw terms")
    p_gen.add_argument("--dedupe", action="store_true", help="drop trivial/repeated equations")
    p_gen.add_argument(
        "--jobs", type=int, default=1, help="accepted for compatibility; has no effect"
    )
    p_gen.add_argument("--experimental", action="store_true", help="allow m >= 3")
    p_gen.add_argument("--out", default=None, help="output path (default stdout)")
    p_gen.set_defaults(func=cmd_generate)

    p_check = sub.add_parser("check", help="decide simplicity of a p-vector")
    p_check.add_argument("pvector", nargs="?", default=None, help="p-vector JSON path or '-'")
    _add_params(p_check, required=False)
    p_check.add_argument(
        "--m", type=int, choices=(1, 2), default=None, help="system to evaluate (default 2)"
    )
    p_check.add_argument("--tolerance", type=float, default=None, help="float-mode tolerance")
    p_check.add_argument("--seed", type=int, default=None)
    p_check.add_argument(
        "--selftest",
        type=int,
        default=None,
        metavar="N",
        help="check N seeded random vectors instead of reading input (needs --seed)",
    )
    p_check.set_defaults(func=cmd_check)

    p_verify = sub.add_parser("verify", help="verify the structural identities")
    _add_params(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_census = sub.add_parser("census", help="per-stratum counts vs predictions")
    _add_params(p_census)
    p_census.add_argument("--format", choices=("text", "json"), default="text")
    p_census.add_argument("--out", default=None)
    p_census.set_defaults(func=cmd_census)

    p_export = sub.add_parser("export", help="re-render a system JSON stream")
    p_export.add_argument("--in", dest="infile", default=None, help="input path (default stdin)")
    p_export.add_argument("--format", choices=FORMATS, default="text")
    p_export.add_argument(
        "--no-labels", action="store_true", help="drop the labels (text and latex only)"
    )
    p_export.add_argument("--out", default=None)
    p_export.set_defaults(func=cmd_export)

    p_probe = sub.add_parser("probe", help="exploratory large-stratum support statistics")
    _add_params(p_probe)
    p_probe.add_argument("--q", type=int, required=True, help="stratum |j intersect k|")
    p_probe.add_argument("--format", choices=("json", "text"), default="json")
    p_probe.add_argument("--out", default=None)
    p_probe.set_defaults(func=cmd_probe)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    # The cyclic collector is paused for the command and the caller's state
    # restored after it.  Every object the package builds is acyclic (tuples,
    # QuadTerm named tuples, slotted record classes, and dicts and lists of
    # those), so reference counting frees all of it; a collection after any
    # subcommand finds only argparse's few hundred objects, whatever the
    # size of the run.  Left on, the collector repeatedly traverses the
    # millions of live terms of a large system and frees nothing.  Library
    # functions leave this process-wide switch alone.
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        args = parser.parse_args(argv)  # --help writes its text here
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    finally:
        if was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
