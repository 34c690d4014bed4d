"""pluckereqs benchmark: CLI end-to-end metrics and a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tables --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30   # every metric, all workloads
    python3 perfbench/run.py --smoke                                 # fast self-check at (6,3)

``--trace 0`` launches the working tree's CLI (``python -m pluckereqs.cli``
with ``PYTHONPATH=src``) one operation at a time for ``--seconds`` seconds and
reports the end-to-end metrics.  ``--trace 1`` replays one pass in-process
with spans around every layer call and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from endtoend import (FULL, GENERIC, HELP_EVERY_S, SMOKE, WORKLOADS, Launcher, Op, load_digests,
                      percentile_tail)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_work"
WORK = OUT / f"run-{os.getpid()}"  # scratch of this process only


class SetupError(Exception):
    """The checkout cannot run the benchmark; no result is printed."""


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version()}


def launch_help(launcher: Launcher) -> float:
    """One ``pluckereqs --help`` launch: interpreter start, package import, parser build."""
    def help_check(result):
        return None if result.code == 0 and result.first_line().startswith("usage:") else "--help failed"

    result = launcher.launch(Op("help", ["--help"], 0, WORK / "help.txt", check=help_check))
    if result.failure:
        raise SetupError(f"pluckereqs --help: {result.failure}: {result.stderr.strip()[-300:]}")
    return result.wall_s


def run_endtoend(name: str, point, seed: int, seconds: float, launcher: Launcher) -> tuple:
    """As many whole passes as fill ``seconds`` at the seed commit; at least one.

    After an untimed warm-up launch (which compiles the .pyc files), set-up is
    timed three times up front and then between operations every
    HELP_EVERY_S seconds, so its median does not hang on one moment's load.
    """
    workload = WORKLOADS[name](name, point, WORK, load_digests())
    launch_help(launcher)
    setup = [launch_help(launcher) for _ in range(3)]
    last_help = time.perf_counter()
    passes = workload.passes(seconds)
    for pass_index in range(passes):
        for op in workload.ops(seed, pass_index):
            workload.results.append(launcher.launch(op))
            if time.perf_counter() - last_help >= HELP_EVERY_S:
                setup.append(launch_help(launcher))
                last_help = time.perf_counter()
    return workload, setup, passes


def endtoend_report(name: str, workload, setup: list[float], passes: int) -> dict:
    named = workload.metrics()
    named["peak_rss_mb"] = (workload.peak_rss_mb(), "MB")
    named["setup_s"] = (statistics.median(setup), "s")
    results = workload.results
    failed = [r for r in results if r.failure]
    named["failed_frac"] = (len(failed) / len(results), "ratio")
    lines = [f"# {name}: {passes} pass(es), {len(results)} operations, {len(setup)} set-up launches, "
             f"machine {json.dumps(machine())}"]
    for metric, (value, unit) in named.items():
        lines.append(f"{name} {metric} {value:.6g} {unit}")
    if name == "decide":
        tail = percentile_tail(workload.walls("check"))
        if tail is None:
            lines.append(f"{name} check_tail_s n/a s (fewer than 11 check launches)")
        else:
            value, pct, count = tail
            lines.append(f"{name} check_tail_s {value:.6g} s (p{pct} of {count} launches)")
    for result in failed:
        lines.append(f"# failed: {result.op.name}: {result.failure}")
    metrics = {"setup_s": named["setup_s"], "peak_rss_mb": named["peak_rss_mb"]}
    for generic, per_workload in GENERIC.items():
        value, unit = named[per_workload[name]]
        metrics[generic] = (value, "units/s" if unit.endswith("/s") else unit)
    correct = all(r.op.malformed for r in failed)
    return {"lines": lines, "correct": correct, "attempted": len(results), "failed": len(failed),
            "metrics": metrics}


def run_traced(name: str, point, seed: int, launcher: Launcher) -> dict:
    from replay import traced_metrics

    workload = WORKLOADS[name](name, point, WORK, load_digests())
    launch_help(launcher)
    for op in workload.ops(seed, 0):
        workload.results.append(launcher.launch(op))
    endtoend_wall = sum(r.wall_s for r in workload.results)
    sys.path.insert(0, str(ROOT / "src"))
    metrics, spans, attempted, failures = traced_metrics(name, point, seed, load_digests(), endtoend_wall)
    (OUT / f"spans-{name}-seed{seed}.json").write_text(json.dumps({"machine": machine(), "spans": spans}))
    failures += [(f"{r.op.name}: {r.failure}", r.op.malformed) for r in workload.results if r.failure]
    lines = [f"# {name} traced: {len(spans)} spans, machine {json.dumps(machine())}"]
    lines += [f"{name} {metric} {value:.6g} {unit}" for metric, (value, unit) in metrics.items()]
    lines += [f"# failed: {failure}" for failure, _ in failures]
    correct = all(malformed for _, malformed in failures)
    return {"lines": lines, "correct": correct, "attempted": attempted + len(workload.results),
            "failed": len(failures), "metrics": metrics}


def result_json(report: dict) -> str:
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in report["metrics"].items()}
    return json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                       "failed": report["failed"], "metrics": metrics})


def run_one(name: str, point, seed: int, seconds: float, trace: bool) -> dict:
    launcher = Launcher(ROOT, WORK)
    if trace:
        return run_traced(name, point, seed, launcher)
    return endtoend_report(name, *run_endtoend(name, point, seed, seconds, launcher))


def smoke() -> list[str]:
    """Every workload at (6,3), one pass, both modes; returns the problems found."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in WORKLOADS:
        for trace, declared in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            report = run_one(name, SMOKE, 1, 0, trace)
            print("\n".join(report["lines"]))
            printed = json.loads(result_json(report))["metrics"]
            for metric in declared:
                got = printed.get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    problems.append(f"{name} trace={int(trace)}: {metric['name']} missing or wrong unit: {got}")
            if set(printed) != {m["name"] for m in declared}:
                problems.append(f"{name} trace={int(trace)}: metrics {sorted(printed)} differ from BENCHMARK.json")
            if not report["correct"]:
                problems.append(f"{name} trace={int(trace)}: incorrect output")
    launcher = Launcher(ROOT, WORK)
    for argv, expected in ((["--m", "1"], 225), (["--m", "2"], 36), (["--m", "1", "--dedupe"], 45)):
        op = Op("count", ["generate", "--n", "6", "--p", "3", *argv], 0, WORK / "count.txt")
        result = launcher.launch(op)
        lines = len(op.stdout.read_text().splitlines())
        if result.code != 0 or lines != expected:
            problems.append(f"generate (6,3) {' '.join(argv)}: {lines} equations, expected {expected}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="fast self-check at (6,3)")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "pluckereqs" / "cli.py").is_file():
        print(f"error: no pluckereqs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    try:
        if args.smoke:
            problems = smoke()
            for problem in problems:
                print(f"smoke: {problem}", file=sys.stderr)
            print("smoke: " + ("FAIL" if problems else "PASS"))
            return 1 if problems else 0
        if args.workload == "all":
            # One process per run: a child's peak RSS includes the launching
            # process's, which a traced run in this process would inflate.
            for name in WORKLOADS:
                for trace in ("0", "1"):
                    code = subprocess.call([sys.executable, __file__, "--workload", name, "--seed",
                                            str(args.seed), "--seconds", str(args.seconds), "--trace", trace])
                    if code:
                        return code
            return 0
        report = run_one(args.workload, FULL, args.seed, args.seconds, bool(args.trace))
        print("\n".join(report["lines"]))
        print(result_json(report), flush=True)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
