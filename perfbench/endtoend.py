"""End-to-end runs: the working tree's CLI launched as subprocesses.

Each workload is a fixed list of CLI operations per pass.  Operations run one
at a time from this process; each one's wall time is taken around the
launch and its peak RSS is read from ``os.wait4``.  Every output is checked:
a wrong exit code, a wrong verdict, a digest mismatch, a traceback on stderr
or a timeout counts the operation as failed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from inputs import decide_pass

HERE = Path(__file__).resolve().parent
OP_TIMEOUT_S = 60.0
SELFTEST_K = 20
SELFTESTS_PER_PASS = 6
HELP_EVERY_S = 2.0


@dataclass(frozen=True)
class Point:
    """The (n, p) points the workloads run at; smoke mode shrinks all to (6, 3).

    ``layers`` is where the traced run probes the layers a workload's pass
    does not call: the decide and verify point, which keeps the traced
    tables run short.
    """

    tables: tuple[int, int] = (10, 5)
    decide: tuple[int, int] = (9, 4)
    verify: tuple[int, int] = (9, 4)
    census: tuple[int, int] = (10, 5)
    probe: tuple[int, int] = (9, 4)
    layers: tuple[int, int] = (9, 4)


FULL = Point()
SMOKE = Point(*[(6, 3)] * 6)


def system_size(n: int, p: int, m: int) -> int:
    """Closed-form equation count C(n, p-m) * C(n, p+m) of one generated system."""
    return math.comb(n, p - m) * math.comb(n, p + m)


@dataclass
class Op:
    """One CLI launch: its arguments, closed-form work units and output check."""

    name: str
    argv: list[str]
    units: int
    stdout: Path
    output: Path | None = None  # checked file, when not stdout
    check: Callable[["Result"], str | None] = lambda result: None
    # Malformed input the CLI must reject with exit 2.  Until it does, these
    # fail, and count in ``failed`` without making the run incorrect.
    malformed: bool = False


@dataclass
class Result:
    op: Op
    wall_s: float
    rss_kb: int
    code: int | None
    stderr: str
    failure: str | None = None

    def digest(self) -> str:
        return file_digest(self.op.output or self.op.stdout)

    def first_line(self) -> str:
        with open(self.op.stdout, "r", encoding="utf-8", errors="replace") as handle:
            return handle.readline().rstrip("\n")


class Launcher:
    """Runs ``python -m pluckereqs.cli`` from ``root/src`` with a pinned environment."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.env = dict(os.environ)
        self.env.update(PYTHONPATH=str(root / "src"), PLUCKEREQS_JOBS="1", PYTHONHASHSEED="0")

    def launch(self, op: Op) -> Result:
        err_path = self.work / "stderr.txt"
        with open(op.stdout, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "pluckereqs.cli", *op.argv],
                stdout=out, stderr=err, stdin=subprocess.DEVNULL, cwd=self.root, env=self.env,
            )
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()  # interrupted: leave no child behind
                os.wait4(proc.pid, 0)
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        timed_out = proc.returncode == -signal.SIGKILL and wall >= OP_TIMEOUT_S
        result = Result(op, wall, usage.ru_maxrss, None if timed_out else proc.returncode,
                        err_path.read_text(encoding="utf-8", errors="replace"))
        if timed_out:
            result.failure = f"timeout after {OP_TIMEOUT_S:.0f} s"
        elif "Traceback" in result.stderr:
            result.failure = "traceback: " + result.stderr.strip().splitlines()[-1]
        else:
            result.failure = op.check(result)
        return result


def file_digest(path: Path) -> str:
    """SHA-256 of a file, read in chunks.

    Linux folds this process's peak RSS into every child it launches, so
    outputs are never read whole: the floor under a child's peak RSS stays
    at this process's own 20-odd MB.
    """
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def load_digests() -> dict[str, str]:
    return json.loads((HERE / "digests.json").read_text())


def digest_check(key: str, digests: dict[str, str], code: int = 0) -> Callable[[Result], str | None]:
    def check(result: Result) -> str | None:
        if result.code != code:
            return f"exit {result.code}, expected {code}"
        expected = digests.get(key)
        if expected is None:
            return f"no recorded digest for {key}"
        return None if result.digest() == expected else f"digest mismatch for {key}"
    return check


def percentile_tail(values: list[float], beyond: int = 10) -> tuple[float, int, int] | None:
    """The highest whole percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile, sample_count)``, or None with too few samples.
    """
    ordered = sorted(values)
    count = len(ordered)
    for pct in range(99, 0, -1):
        rank = math.ceil(pct / 100 * count)  # nearest-rank percentile
        if rank >= 1 and count - rank >= beyond:
            return ordered[rank - 1], pct, count
    return None


@dataclass
class Workload:
    """A named pass of operations plus how its results become metrics."""

    name: str
    point: Point
    work: Path
    digests: dict[str, str]
    results: list[Result] = field(default_factory=list)
    # Wall time of one pass at the seed commit on a 2-core Xeon; the pass
    # count is fixed from it, so every run of a workload does the same work.
    pass_s = 1.0

    def passes(self, seconds: float) -> int:
        return max(1, round(seconds / self.pass_s))

    def ops(self, seed: int, pass_index: int) -> list[Op]:
        raise NotImplementedError

    def metrics(self) -> dict[str, tuple[float, str]]:
        raise NotImplementedError

    def walls(self, prefix: str) -> list[float]:
        return [r.wall_s for r in self.results if r.op.name.startswith(prefix)]

    def rate(self, prefix: str) -> float:
        """Work units per second, taking each operation kind at its median wall time.

        The median keeps a short slow spell of the machine out of the rate;
        each kind counts as often as it ran.
        """
        by_name: dict[str, list[Result]] = defaultdict(list)
        for result in self.results:
            if result.op.name.startswith(prefix):
                by_name[result.op.name].append(result)
        units = sum(len(group) * group[0].op.units for group in by_name.values())
        seconds = sum(len(group) * statistics.median(r.wall_s for r in group) for group in by_name.values())
        return units / seconds

    def peak_rss_mb(self) -> float:
        return max(r.rss_kb for r in self.results) / 1024


class Tables(Workload):
    pass_s = 18.0

    def ops(self, seed: int, pass_index: int) -> list[Op]:
        n, p = self.point.tables
        np_ = ["--n", str(n), "--p", str(p)]
        at = f"@{n},{p}"
        one, two = system_size(n, p, 1), system_size(n, p, 2)
        json_path = self.work / "system_m2.json"
        m1_text = Op("generate m1 text", ["generate", *np_, "--m", "1"], one, self.work / "m1.txt",
                     check=digest_check("generate-m1-text" + at, self.digests))

        def same_as_jobs1(result: Result) -> str | None:
            failure = digest_check("generate-m1-text" + at, self.digests)(result)
            if failure is None and result.digest() != file_digest(m1_text.stdout):
                failure = "--jobs 2 output differs from --jobs 1"
            return failure

        return [
            m1_text,
            Op("generate m1 text jobs2", ["generate", *np_, "--m", "1", "--jobs", "2"], one,
               self.work / "m1_jobs2.txt", check=same_as_jobs1),
            Op("generate m1 dedupe latex", ["generate", *np_, "--m", "1", "--dedupe", "--format", "latex"],
               one, self.work / "m1_dedupe.tex", check=digest_check("generate-m1-dedupe-latex" + at, self.digests)),
            Op("generate m2 raw json", ["generate", *np_, "--m", "2", "--raw", "--format", "json",
                                        "--out", str(json_path)],
               two, self.work / "m2_stdout.txt", output=json_path,
               check=digest_check("generate-m2-raw-json" + at, self.digests)),
            Op("export csv", ["export", "--in", str(json_path), "--format", "csv"], two,
               self.work / "m2.csv", check=digest_check("export-m2-csv" + at, self.digests)),
        ]

    def metrics(self) -> dict[str, tuple[float, str]]:
        return {
            "gen_eq_per_s": (self.rate("generate"), "eq/s"),
            "export_eq_per_s": (self.rate("export"), "eq/s"),
            "op_p50_s": (statistics.median(self.walls("")), "s"),
        }


class Decide(Workload):
    pass_s = 29.0

    def ops(self, seed: int, pass_index: int) -> list[Op]:
        n, p = self.point.decide
        checks = []
        for item in decide_pass(seed, pass_index, n, p):
            path = self.work / f"pvector_{item.name}.json"
            path.write_text(item.text)
            checks.append(Op(f"check {item.field} {item.expected} m{item.m}",
                             ["check", str(path), "--m", str(item.m)], 1,
                             self.work / f"check_{item.name}.txt", check=verdict_check(item.expected),
                             malformed=item.expected == "malformed"))
        expected = f"selftest: {SELFTEST_K} wedge vectors clean, {SELFTEST_K}/{SELFTEST_K} verdicts agree"

        def selftest_check(result: Result) -> str | None:
            if result.code != 0 or result.first_line() != expected:
                return f"selftest exit {result.code}: {result.first_line()!r}"
            return None

        # The selftest launches sit evenly among the check launches.
        ops, step = [], -(-len(checks) // SELFTESTS_PER_PASS)
        for index, selftest_seed in enumerate(selftest_seeds(seed, pass_index)):
            ops += checks[index * step:(index + 1) * step]
            ops.append(Op("selftest", ["check", "--selftest", str(SELFTEST_K), "--seed", str(selftest_seed),
                                       "--n", str(n), "--p", str(p)],
                          2 * SELFTEST_K, self.work / "selftest.txt", check=selftest_check))
        return ops

    def metrics(self) -> dict[str, tuple[float, str]]:
        return {
            "selftest_vectors_per_s": (self.rate("selftest"), "vec/s"),
            "check_vectors_per_s": (self.rate("check"), "vec/s"),
            "check_p50_s": (statistics.median(self.walls("check")), "s"),
        }


def selftest_seeds(seed: int, pass_index: int) -> list[int]:
    return [seed * 1000 + pass_index * SELFTESTS_PER_PASS + i for i in range(SELFTESTS_PER_PASS)]


def verdict_check(expected: str) -> Callable[[Result], str | None]:
    def check(result: Result) -> str | None:
        if expected == "malformed":
            return None if result.code == 2 else f"malformed input gave exit {result.code}, expected 2"
        line = result.first_line()
        if expected == "simple":
            ok = result.code == 0 and line == "simple"
        else:
            ok = result.code == 1 and line.startswith("not simple: ") and not line.startswith("not simple: 0 ")
        return None if ok else f"expected {expected}, got exit {result.code}: {line!r}"
    return check


class Verify(Workload):
    pass_s = 5.6

    def ops(self, seed: int, pass_index: int) -> list[Op]:
        (vn, vp), (cn, cp), (pn, pp) = self.point.verify, self.point.census, self.point.probe

        def verify_check(result: Result) -> str | None:
            failure = digest_check(f"verify@{vn},{vp}", self.digests)(result)
            if failure is None and "PASS" not in result.op.stdout.read_text():
                failure = "verify did not print PASS"
            return failure

        return [
            Op("verify", ["verify", "--n", str(vn), "--p", str(vp)], system_size(vn, vp, 2),
               self.work / "verify.txt", check=verify_check),
            Op("census", ["census", "--n", str(cn), "--p", str(cp)], system_size(cn, cp, 2),
               self.work / "census.txt", check=digest_check(f"census@{cn},{cp}", self.digests)),
            Op("probe", ["probe", "--n", str(pn), "--p", str(pp), "--q", "0"], system_size(pn, pp, 2),
               self.work / "probe.json", check=digest_check(f"probe-q0@{pn},{pp}", self.digests)),
        ]

    def metrics(self) -> dict[str, tuple[float, str]]:
        return {
            "verify_labels_per_s": (self.rate(""), "labels/s"),
            "verify_only_labels_per_s": (self.rate("verify"), "labels/s"),
            "op_p50_s": (statistics.median(self.walls("")), "s"),
        }


WORKLOADS = {"tables": Tables, "decide": Decide, "verify": Verify}

# The benchmark's end-to-end metrics, with the workload metric each one reads.
GENERIC = {
    "units_per_s": {"tables": "gen_eq_per_s", "decide": "selftest_vectors_per_s",
                    "verify": "verify_labels_per_s"},
    "aux_units_per_s": {"tables": "export_eq_per_s", "decide": "check_vectors_per_s",
                        "verify": "verify_only_labels_per_s"},
}
