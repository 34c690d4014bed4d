"""Traced run: the workload's pass replayed in-process, with spans per layer.

The replay calls each module's public functions the way the CLI does for the
same pass, and records a span around every call from this file; nothing in
the package is patched.  Layers the workload's pass never calls are timed by
a small fixed probe at ``Point.layers``, so every layer metric is a measured
value on every workload.  Counts come from return values.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import random
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction
from functools import partial
from itertools import combinations

from endtoend import SELFTEST_K, selftest_seeds, system_size
from inputs import decide_pass, minors, pvector_dict

SAMPLE_LABELS = 1000
SAMPLE_FAMILIES = 70
MULTIINDEX_PAIRS = 20000

# Per-layer metric -> unit.  A metric in seconds is the summed self time of
# the spans named like it without "_s"; the others come from counts.
LAYER_METRICS = {
    "multiindex.ops_per_s": "ops/s",
    "equations.gen_m1_s": "s",
    "equations.gen_m2_s": "s",
    "equations.gen_jobs2_s": "s",
    "equations.terms": "count",
    "equations.canonicalize_s": "s",
    "equations.dedupe_s": "s",
    "equations.dedupe_yield": "ratio",
    "pvectors.parse_s": "s",
    "pvectors.is_simple_cold_s": "s",
    "pvectors.wedge_s": "s",
    "pvectors.is_simple_warm_q_s": "s",
    "pvectors.is_simple_warm_qi_s": "s",
    "pvectors.residual_q_s": "s",
    "pvectors.residual_qi_s": "s",
    "pvectors.residual_f64_s": "s",
    "structure.verify_s": "s",
    "structure.census_s": "s",
    "structure.decomposition_s": "s",
    "structure.pair_combine_s": "s",
    "structure.probe_s": "s",
    "structure.checks": "count",
    "render.text_s": "s",
    "render.latex_s": "s",
    "render.json_s": "s",
    "render.csv_s": "s",
    "render.bytes": "count",
    "render.parse_s": "s",
    "cli.import_s": "s",
    "cli.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}
FIELD_SUFFIX = {"Q": "q", "Q_i": "qi", "f64": "f64"}


class Tracer:
    """In-memory spans (name, start, end, parent, op id) and named counts."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op_id = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else None, self.op_id])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def count(self, name: str, value: int) -> None:
        self.counts[name] += value

    def names(self) -> set[str]:
        return {s[0] for s in self.spans}

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time its child spans cover."""
        children = defaultdict(list)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        totals: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for child_start, child_end in sorted(children[index]):
                child_start = max(child_start, reach)
                if child_end > child_start:
                    covered += child_end - child_start
                    reach = child_end
            totals[name] += (end - start) - covered
        return totals

    def dump(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": parent, "op": op}
            for n, s, e, parent, op in self.spans
        ]


class Replay:
    """In-process mirror of one workload pass, plus probes for untouched layers."""

    def __init__(self, pe, tracer: Tracer, digests: dict[str, str]):
        self.pe = pe  # the imported pluckereqs package
        self.t = tracer
        self.digests = digests
        self.failures: list[tuple[str, bool]] = []  # (message, input was malformed)
        self.attempted = 0
        self.op_walls: list[float] = []
        self.json_text = ""

    # -- bookkeeping outside the spans ------------------------------------

    def expect(self, ok: bool, message: str, malformed: bool = False) -> None:
        if not ok:
            self.failures.append((message, malformed))

    def expect_digest(self, key: str, data: bytes) -> None:
        self.expect(hashlib.sha256(data).hexdigest() == self.digests.get(key), f"digest mismatch for {key}")

    @contextmanager
    def op(self, name: str):
        """One operation: a root span, and its wall time even with tracing off."""
        self.t.op_id += 1
        self.attempted += 1
        gc.collect()  # each CLI operation starts with a fresh heap; so does each replayed one
        start = time.perf_counter()
        with self.t.span("op." + name):
            yield
        self.op_walls.append(time.perf_counter() - start)

    def cold_cache(self) -> None:
        # A fresh CLI process starts with an empty system cache; mirror that.
        cached = getattr(self.pe.pvectors, "_cached_system", None)
        if cached is not None:
            cached.cache_clear()

    # -- equations / render ------------------------------------------------

    def generate(self, n: int, p: int, m: int, jobs: int = 1, dedupe: bool = False, raw: bool = False,
                 fmt: str | None = "text") -> tuple:
        pe, t = self.pe, self.t
        params = pe.GrassmannParams(n, p)
        with t.span("equations.gen_jobs2" if jobs > 1 else f"equations.gen_m{m}"):
            system = pe.gen_generalized(params, m, jobs=jobs)
        generated = system
        if dedupe:
            with t.span("equations.dedupe"):
                reduced, _ = pe.dedupe(system)
            system = pe.EquationSystem(params, m, tuple(reduced))
        elif not raw:
            with t.span("equations.canonicalize"):
                system = pe.EquationSystem(params, m, tuple(pe.canonicalize(eq) for eq in system.equations))
        text = None
        if fmt is not None:
            with t.span("render." + fmt):
                text = pe.render(system, fmt, with_labels=not dedupe)
        return generated, system, text

    def account_generated(self, generated, system, dedupe: bool) -> None:
        n, p, m = generated.params.n, generated.params.p, generated.m
        self.expect(len(generated) == system_size(n, p, m), f"len(system) != closed form at ({n},{p}) m={m}")
        self.t.count("equations.terms", sum(len(eq.terms) for eq in generated.equations))
        if dedupe:
            self.t.count("equations.dedupe_in", len(generated))
            self.t.count("equations.dedupe_out", len(system))

    def account_text(self, key: str, text: str) -> None:
        data = text.encode()
        self.t.count("render.bytes", len(data))
        self.expect_digest(key, data)

    def generate_op(self, key: str, n: int, p: int, **kwargs) -> None:
        with self.op(key):
            generated, system, text = self.generate(n, p, **kwargs)
        self.account_generated(generated, system, kwargs.get("dedupe", False))
        self.account_text(f"{key}@{n},{p}", text)
        if kwargs.get("fmt") == "json":
            self.json_text = text

    def export_op(self, n: int, p: int) -> None:
        with self.op("export"):
            with self.t.span("render.parse"):
                parsed = self.pe.system_from_json(self.json_text)
            with self.t.span("render.csv"):
                csv_text = self.pe.render(parsed, "csv")
        self.expect(len(parsed) == system_size(n, p, 2), "parsed system size != closed form")
        self.account_text(f"export-m2-csv@{n},{p}", csv_text)

    def tables_ops(self, n: int, p: int) -> list:
        return [
            partial(self.generate_op, "generate-m1-text", n, p, m=1),
            partial(self.generate_op, "generate-m1-text", n, p, m=1, jobs=2),
            partial(self.generate_op, "generate-m1-dedupe-latex", n, p, m=1, dedupe=True, fmt="latex"),
            partial(self.generate_op, "generate-m2-raw-json", n, p, m=2, raw=True, fmt="json"),
            partial(self.export_op, n, p),
        ]

    def render_probe(self, n: int, p: int) -> None:
        with self.op("render probe"):
            generated, system, _ = self.generate(n, p, 2, fmt=None)
            texts = {}
            for fmt in ("text", "latex", "json", "csv"):
                with self.t.span("render." + fmt):
                    texts[fmt] = self.pe.render(system, fmt)
            with self.t.span("render.parse"):
                parsed = self.pe.system_from_json(texts["json"])
        self.account_generated(generated, system, False)
        self.expect(parsed == system, "system_from_json(render json) != system")
        for text in texts.values():
            self.t.count("render.bytes", len(text.encode()))

    def equations_probe(self, n: int, p: int) -> None:
        with self.op("equations probe"):
            results = [self.generate(n, p, 1, fmt=None), self.generate(n, p, 2, raw=True, fmt=None),
                       self.generate(n, p, 1, jobs=2, raw=True, fmt=None),
                       self.generate(n, p, 1, dedupe=True, fmt=None)]
        for (generated, system, _), dedupe in zip(results, (False, False, False, True)):
            self.account_generated(generated, system, dedupe)

    def multiindex_probe(self, seed: int, n: int = 10) -> None:
        mi = self.pe.multiindex
        rng = random.Random(f"multiindex:{seed}")
        pairs = [
            (tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, n)))),
             tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, n)))))
            for _ in range(MULTIINDEX_PAIRS)
        ]
        checksum = 0
        with self.op("multiindex probe"), self.t.span("multiindex.ops"):
            for a, b in pairs:
                checksum += len(mi.ordered_union(a, b)) + len(mi.difference(a, b))
                checksum += len(mi.symmetric_difference(a, b)) + len(mi.intersection(a, b))
                checksum += mi.inversion_pairs(a, b)
        expected = sum(
            len(set(a) | set(b)) + len(set(a) - set(b)) + len(set(a) ^ set(b)) + len(set(a) & set(b))
            + sum(1 for x in a for y in b if x > y)
            for a, b in pairs
        )
        self.expect(checksum == expected, "multiindex operations disagree with the set reference")
        self.t.count("multiindex.ops", 5 * len(pairs))

    # -- pvectors ----------------------------------------------------------

    def check_file(self, text: str, m: int, expected: str) -> None:
        pe, t = self.pe, self.t
        outcome = "simple"
        with self.op("check"):
            try:
                with t.span("pvectors.parse"):
                    h = pe.pvector_from_json(text)
                if not h.is_zero:
                    self.cold_cache()
                    with t.span("pvectors.is_simple_cold"):
                        simple = pe.is_simple(h, "plucker" if m == 1 else "plucker_like")
                    if not simple:
                        with t.span(f"equations.gen_m{m}"):
                            system = pe.gen_generalized(h.params, m)
                        with t.span("pvectors.residual_" + FIELD_SUFFIX[h.field]):
                            report = pe.residual(system, h)
                        outcome = "not simple" if report.violations else "no violations"
            except ValueError:
                outcome = "malformed"
            except Exception as exc:  # the CLI would print a traceback here
                outcome = f"crash {type(exc).__name__}"
        self.expect(outcome == expected, f"check expected {expected}, replay gave {outcome}",
                    malformed=expected == "malformed")

    def selftest(self, n: int, p: int, seed: int) -> None:
        pe, t = self.pe, self.t
        params = pe.GrassmannParams(n, p)
        warmed: set[str] = set()
        agree = clean = 0
        with self.op("selftest"):
            self.cold_cache()
            for offset in range(SELFTEST_K):
                with t.span("pvectors.wedge"):
                    h = pe.random_simple(params, seed + offset)
                verdicts = []
                for choice in ("plucker", "plucker_like"):
                    with t.span("pvectors.is_simple_" + ("warm_q" if choice in warmed else "cold")):
                        verdicts.append(pe.is_simple(h, choice))
                    warmed.add(choice)
                clean += all(verdicts)
            for offset in range(SELFTEST_K):
                h = pe.random_pvector(params, seed + offset)
                with t.span("pvectors.is_simple_warm_q"):
                    agree += pe.is_simple(h, "plucker") == pe.is_simple(h, "plucker_like")
        self.expect(clean == agree == SELFTEST_K, f"selftest: {clean} clean, {agree} agree of {SELFTEST_K}")

    def decide_ops(self, n: int, p: int, seed: int) -> list:
        ops = [partial(self.check_file, item.text, item.m, item.expected) for item in decide_pass(seed, 0, n, p)]
        return ops + [partial(self.selftest, n, p, s) for s in selftest_seeds(seed, 0)]

    def pvectors_probe(self, n: int, p: int, seed: int) -> None:
        """One input per (field, verdict), plus a wedge of the benchmark's own rows."""
        pe, t = self.pe, self.t
        rng = random.Random(f"pvectors:{seed}:{n}:{p}")
        docs = {(f, s): json.dumps(pvector_dict(rng, n, p, f, s)) for f in FIELD_SUFFIX for s in (True, False)}
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(p)]
        with self.op("pvectors probe"):
            with t.span("pvectors.parse"):
                vectors = {key: pe.pvector_from_json(doc) for key, doc in docs.items()}
            with t.span("pvectors.wedge"):
                wedged = pe.wedge([[Fraction(v) for v in row] for row in rows])
            self.cold_cache()
            with t.span("pvectors.is_simple_cold"):
                cold = pe.is_simple(vectors["Q", True], "plucker_like")
            verdicts = {}
            for (field, simple), h in vectors.items():
                with t.span("pvectors.is_simple_warm_" + ("qi" if field == "Q_i" else "q")):
                    verdicts[field, simple] = pe.is_simple(h, "plucker_like")
            system = pe.gen_generalized(pe.GrassmannParams(n, p), 2)
            violations = {}
            for field in FIELD_SUFFIX:
                with t.span("pvectors.residual_" + FIELD_SUFFIX[field]):
                    violations[field] = len(pe.residual(system, vectors[field, False]).violations)
        self.expect(dict(wedged.coeffs) == {k: Fraction(v) for k, v in minors(rows).items()},
                    "wedge disagrees with the benchmark's exact minors")
        self.expect(cold and all(verdicts[key] == key[1] for key in verdicts), "pvectors probe verdicts")
        self.expect(all(violations.values()), "a non-simple probe vector has no violations")

    # -- structure -----------------------------------------------------------

    def verify_op(self, np_) -> None:
        with self.op("verify"), self.t.span("structure.verify"):
            report = self.pe.verify_structure(self.pe.GrassmannParams(*np_))
        self.account_verify(report, np_)

    def census_op(self, np_) -> None:
        with self.op("census"), self.t.span("structure.census"):
            census = self.pe.census(self.pe.GrassmannParams(*np_))
        self.expect(census.ok and census.total_observed == system_size(*np_, 2), "census report")

    def probe_op(self, np_) -> None:
        with self.op("probe"), self.t.span("structure.probe"):
            probe = self.pe.stratum_probe(self.pe.GrassmannParams(*np_), 0)
        self.expect_digest("probe-q0@{},{}".format(*np_), probe.to_json().encode())

    def account_verify(self, report, np_) -> None:
        self.expect(report.ok, f"verify_structure{np_} failed: {report.first_failure}")
        self.expect(report.decompositions_checked == system_size(*np_, 2), "decompositions != closed form")
        self.t.count("structure.checks", report.decompositions_checked + report.families_checked
                     + report.combinations_checked)

    def structure_probe(self, n: int, p: int, seed: int, names: set[str]) -> None:
        pe, t = self.pe, self.t
        params = pe.GrassmannParams(n, p)
        rng = random.Random(f"structure:{seed}:{n}:{p}")
        labels = [(j, k) for j in combinations(range(1, n + 1), p - 2)
                  for k in combinations(range(1, n + 1), p + 2)]
        labels = rng.sample(labels, min(SAMPLE_LABELS, len(labels)))
        with self.op("structure probe"):
            if "structure.verify" not in names:
                with t.span("structure.verify"):
                    report = pe.verify_structure(params)
                self.account_verify(report, (n, p))
            if "structure.census" not in names:
                with t.span("structure.census"):
                    self.expect(pe.census(params).ok, "census probe")
            if "structure.probe" not in names:
                with t.span("structure.probe"):
                    pe.stratum_probe(params, 0)
            with t.span("structure.decomposition"):
                ok = all(pe.check_decomposition(params, j, k) for j, k in labels)
            self.expect(ok, "check_decomposition failed on a sampled label")
            families = pe.pair_families(params)
            families = rng.sample(families, min(SAMPLE_FAMILIES, len(families)))
            with t.span("structure.pair_combine"):
                ok = all(pe.check_pair_combine(params, family, i, i2)
                         for family in families for i, i2 in combinations(range(1, 7), 2))
            self.expect(ok, "check_pair_combine failed on a sampled family")


def pass_ops(replay: Replay, workload: str, point, seed: int) -> list:
    """The in-process mirror of one end-to-end pass of ``workload``, op by op."""
    if workload == "tables":
        return replay.tables_ops(*point.tables)
    if workload == "decide":
        return replay.decide_ops(*point.decide, seed)
    return [partial(replay.verify_op, point.verify), partial(replay.census_op, point.census),
            partial(replay.probe_op, point.probe)]


def run_probes(replay: Replay, workload: str, point, seed: int) -> None:
    """Probe every layer the pass did not reach, at ``point.layers``."""
    n, p = point.layers
    names = replay.t.names()
    replay.multiindex_probe(seed)
    if not {"equations.gen_m1", "equations.gen_m2", "equations.gen_jobs2",
            "equations.canonicalize", "equations.dedupe"} <= names:
        replay.equations_probe(n, p)
    if not {"render.text", "render.latex", "render.json", "render.csv", "render.parse"} <= names:
        replay.render_probe(n, p)
    replay.pvectors_probe(n, p, seed)
    replay.structure_probe(n, p, seed, names)


def traced_metrics(workload: str, point, seed: int, digests: dict[str, str], endtoend_wall_s: float):
    """Run the traced replay; return (metrics, spans, attempted, failures)."""
    tracer = Tracer()
    for module in [m for m in sys.modules if m == "pluckereqs" or m.startswith("pluckereqs.")]:
        del sys.modules[module]  # time a first import even when an earlier run imported it
    with tracer.span("cli.import"):
        pe = importlib.import_module("pluckereqs")
        importlib.import_module("pluckereqs.cli")
    replay = Replay(pe, tracer, digests)

    # The process's first operation pays one-off memory growth; keep it out
    # of the comparison.
    pass_ops(Replay(pe, Tracer(enabled=False), digests), workload, point, seed)[0]()
    untraced = Replay(pe, Tracer(enabled=False), digests)
    # Each op runs untraced and traced back to back, alternating which goes
    # first, so drift over the run does not show up as tracing overhead.
    pairs = zip(pass_ops(untraced, workload, point, seed), pass_ops(replay, workload, point, seed))
    for index, pair in enumerate(pairs):
        for op in pair if index % 2 == 0 else reversed(pair):
            op()
    untraced_s, traced_s = sum(untraced.op_walls), sum(replay.op_walls)
    run_probes(replay, workload, point, seed)

    self_times = tracer.self_times()
    counts = tracer.counts
    metrics = {}
    for name, unit in LAYER_METRICS.items():
        if unit == "s":
            metrics[name] = self_times.get(name[:-2], 0.0)
    metrics["multiindex.ops_per_s"] = counts["multiindex.ops"] / self_times["multiindex.ops"]
    metrics["equations.terms"] = counts["equations.terms"]
    metrics["equations.dedupe_yield"] = counts["equations.dedupe_out"] / counts["equations.dedupe_in"]
    metrics["structure.checks"] = counts["structure.checks"]
    metrics["render.bytes"] = counts["render.bytes"]
    metrics["cli.overhead_s"] = endtoend_wall_s - untraced_s
    metrics["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    failures = untraced.failures + replay.failures
    missing = [n for n, unit in LAYER_METRICS.items() if unit == "s" and n[:-2] not in self_times
               and n != "cli.overhead_s"]
    failures += [(f"no span recorded for {name}", False) for name in missing]
    result = {name: (metrics[name], unit) for name, unit in LAYER_METRICS.items()}
    return result, tracer.dump(), untraced.attempted + replay.attempted, failures
