"""Benchmark of `rootgrowth run`: end-to-end metrics, or a traced per-layer split.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --workload NAME --record-reference

Run from anywhere inside a checkout; the tree measured is the one holding
this file, imported by absolute path from its `src` directory. Each rep is a
fresh `rootgrowth run` process on inputs made from the seed. One untimed
run at the reference seed comes first: it warms the caches and is compared
with the stored reference results. Then reps repeat until S seconds have
passed (at least three). Work files go to `.perfbench/` in the checkout; a
JSON report per run stays there.

The last line of standard output is one JSON object: `correct`,
`attempted` (processes launched), `failed` (runs that exited non-zero,
wrote invalid or differing result files, or lost a fit span) and
`metrics` (end-to-end with --trace 0, per-layer with --trace 1).
See README.md in this directory for every workload and metric.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import analysis
from workloads import WORKLOADS, Workload, write_tracks_csv

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE_DIR = BENCH / "reference"
REFERENCE_SEED = 0
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 150.0
START_DEADLINE_S = 120.0  # no rep starts later than this into a run
OUTPUT_FILES = ("results.json", "results.csv", "table.txt")
END_TO_END = {"wall_s": "s", "setup_s": "s", "fits_per_s": "fits/s", "peak_rss_mb": "MB"}


@dataclass
class Rep:
    """One `rootgrowth run` process and what it left behind."""

    seed: int
    jobs: int
    traced: bool
    problems: list[str] = field(default_factory=list)
    wall_s: float = 0.0
    setup_s: float = 0.0
    search_s: float = 0.0
    peak_rss_mb: float = 0.0
    digests: dict[str, str] = field(default_factory=dict)
    cells: dict = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems


def import_program():
    """The tree's own `rootgrowth.cli`, checked to come from SRC."""
    sys.path.insert(0, str(SRC))
    import rootgrowth
    import rootgrowth.cli

    if not Path(rootgrowth.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported rootgrowth from {rootgrowth.__file__}, not from {SRC}")
    return rootgrowth.cli


def machine_facts() -> dict:
    import numpy as np

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": THREAD_ENV,
    }


class Runner:
    """Launches reps of one workload and checks each one's outputs."""

    def __init__(self, workload: Workload, work: Path, load_results):
        self.workload = workload
        self.work = work
        self.load_results = load_results
        self.attempted = 0
        self._configs: dict[int, Path] = {}

    def config_for(self, seed: int) -> Path:
        """The config file (and CSV input) for one seed, made once."""
        if seed not in self._configs:
            dataset = "synthetic"
            if self.workload.csv is not None:
                csv_path = self.work / f"tracks-{seed}.csv"
                write_tracks_csv(csv_path, self.workload.csv, seed)
                dataset = str(csv_path)
            path = self.work / f"run-{seed}.cfg"
            path.write_text(self.workload.config_text(seed, dataset))
            self._configs[seed] = path
        return self._configs[seed]

    def launch(self, seed: int, *, jobs: int | None = None, traced: bool = False) -> Rep:
        cfg = self.config_for(seed)
        self.attempted += 1
        rep_dir = self.work / f"rep-{self.attempted:03d}"
        out = rep_dir / "out"
        rep_dir.mkdir()
        stamp_path = rep_dir / "stamp.json"
        args = [sys.executable, str(BENCH / "child.py"), str(SRC), str(stamp_path), "1" if traced else "0", "--"]
        args += ["run", "--config", str(cfg), "--out", str(out)]
        if jobs is not None:
            args += ["--jobs", str(jobs)]
        rep = Rep(seed, jobs or self.workload.jobs, traced)
        env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(SRC)}
        with open(rep_dir / "log.txt", "wb") as log:
            start = time.monotonic()
            proc = subprocess.Popen(args, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=rep_dir, start_new_session=True)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # stopped from outside: take the child's process group down too
                os.killpg(proc.pid, signal.SIGKILL)
                os.wait4(proc.pid, 0)
                raise
            finally:
                watchdog.cancel()
            end = time.monotonic()
        proc.returncode = code = os.waitstatus_to_exitcode(status)  # reaped by wait4, not by Popen
        rep.wall_s = end - start
        rep.peak_rss_mb = usage.ru_maxrss / 1024.0
        if code != 0:
            tail = (rep_dir / "log.txt").read_text(errors="replace").strip().splitlines()[-3:]
            rep.problems.append(f"exit code {code}: " + " | ".join(tail))
            return rep
        stamp = json.loads(stamp_path.read_text())
        if not Path(stamp["rootgrowth_file"]).is_relative_to(SRC):
            rep.problems.append(f"child imported rootgrowth from {stamp['rootgrowth_file']}, not from {SRC}")
        if not stamp["window_search"]:
            rep.problems.append("rootgrowth.cli never called window_search")
            return rep
        rep.setup_s = stamp["window_search"][0][0] - start
        rep.search_s = sum(e - s for s, e in stamp["window_search"])
        self.check_outputs(rep, out)
        if traced:
            rep.problems += analysis.coverage_problems(stamp["spans"], self.workload)
        if traced and rep.ok:
            rep.layers = analysis.layer_metrics(stamp["spans"])
            rep.layers["cli.output_bytes"] = sum((out / name).stat().st_size for name in OUTPUT_FILES)
        return rep

    def check_outputs(self, rep: Rep, out: Path) -> None:
        try:
            payload = self.load_results(str(out / "results.json"))
            for name in OUTPUT_FILES:
                rep.digests[name] = hashlib.sha256((out / name).read_bytes()).hexdigest()
            rep.cells = analysis.result_cells(payload)
            rep.problems += analysis.result_problems(payload, self.workload)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            rep.problems.append(f"invalid results: {exc}")


def load_reference(name: str) -> dict:
    data = json.loads((REFERENCE_DIR / f"{name}.json").read_text())
    return {tuple(cell[:5]): cell[5] for cell in data["cells"]}


class MeasureError(Exception):
    """A run that cannot report its metrics."""


def mark_mismatches(reps: list[Rep]) -> Rep | None:
    """Every rep of one seed, at any --jobs and traced or not, must write the
    same bytes: flag the reps whose files differ from the first good rep's."""
    first = next((r for r in reps if r.ok), None)
    for rep in reps:
        if rep.ok and rep.digests != first.digests:
            rep.problems.append("result files differ from the first rep's")
    return first


def measure(workload: Workload, seed: int, seconds: float, trace: bool, load_results) -> dict:
    """Run the reps of one workload and return its report."""
    work = WORK / f"{workload.name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    work.mkdir(parents=True)
    runner = Runner(workload, work, load_results)
    reps: list[Rep] = []

    def more(rounds: int) -> bool:
        elapsed = time.monotonic() - began
        if rounds < MIN_ROUNDS:
            return elapsed < START_DEADLINE_S
        return elapsed < seconds

    try:
        # Untimed: it warms the page cache and the imports before timing, and
        # is checked against the stored reference results.
        reference_rep = runner.launch(REFERENCE_SEED)
        began = time.monotonic()
        rounds = 0
        while more(rounds):
            if trace:
                reps.append(runner.launch(seed, jobs=1))
                reps.append(runner.launch(seed, jobs=1, traced=True))
                if workload.jobs > 1:
                    reps.append(runner.launch(seed))
            else:
                reps.append(runner.launch(seed))
            rounds += 1
        measured_s = time.monotonic() - began

        mark_mismatches(([reference_rep] if seed == REFERENCE_SEED else []) + reps)
        problems: list[str] = []
        drift = 1.0
        if reference_rep.ok:
            try:
                drift = analysis.error_drift(reference_rep.cells, load_reference(workload.name))
            except OSError as exc:
                problems.append(f"no reference results: {exc}")
        all_reps = [reference_rep] + reps
        failed = sum(not r.ok for r in all_reps)
        for i, rep in enumerate(all_reps, start=1):
            problems += [f"rep {i} (seed {rep.seed}, jobs {rep.jobs}{', traced' if rep.traced else ''}): {p}" for p in rep.problems]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    good = [r for r in reps if r.ok and not r.traced and r.jobs == workload.jobs]
    traced = [r for r in reps if r.ok and r.traced]
    samples: dict[str, list[float]] = {}
    if trace:
        untraced_1 = [r.wall_s for r in reps if r.ok and not r.traced and r.jobs == 1]
        for name in analysis.LAYER_METRICS:
            samples[name] = [r.layers[name] for r in traced if name in r.layers]
        if traced and untraced_1:
            samples["trace.overhead_s"] = [
                statistics.median([r.wall_s for r in traced]) - statistics.median(untraced_1)
            ]
        pool = [r.search_s for r in good] if workload.jobs > 1 else []
        samples["evaluation.pool_efficiency"] = (
            [statistics.median([r.search_s for r in traced]) / (workload.jobs * statistics.median(pool))]
            if pool and traced
            else [0.0]
        )
        units = {name: unit for name, (unit, _) in analysis.LAYER_METRICS.items()}
    else:
        samples = {
            "wall_s": [r.wall_s for r in good],
            "setup_s": [r.setup_s for r in good],
            "fits_per_s": [workload.fits / r.search_s for r in good],
            "peak_rss_mb": [r.peak_rss_mb for r in good],
        }
        units = END_TO_END
    if not all(samples.get(name) for name in units):
        raise MeasureError("no rep produced every metric:\n  " + "\n  ".join(problems))
    stats = {name: analysis.quartiles(samples[name]) for name in units}
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "measured_s": measured_s,
        "reps": len(reps),
        "attempted": runner.attempted,
        "failed": failed,
        "error_drift": drift,
        "problems": problems,
        "metrics": {name: {"value": stats[name][1], "unit": units[name]} for name in units},
        "quartiles": {name: [stats[name][0], stats[name][2], len(samples[name])] for name in units},
        "samples": samples,
        "runs": [
            {k: getattr(r, k) for k in ("seed", "jobs", "traced", "wall_s", "setup_s", "search_s", "peak_rss_mb")}
            for r in all_reps
        ],
    }


def correct(report: dict) -> bool:
    return report["failed"] == 0 and report["error_drift"] == 0.0 and not report["problems"]


def print_report(report: dict) -> None:
    print(f"workload {report['workload']} seed {report['seed']} trace {report['trace']}: "
          f"{report['reps']} reps in {report['measured_s']:.1f} s, {report['attempted']} processes")
    for name, metric in report["metrics"].items():
        q1, q3, n = report["quartiles"][name]
        print(f"  {name:32s} {metric['value']:14.6g} {metric['unit']:8s} q1 {q1:.6g}  q3 {q3:.6g}  n={n}")
    print(f"  {'error_drift':32s} {report['error_drift']:14.6g} {'error fraction':8s}")
    print(f"  {'failed_runs':32s} {report['failed']:14d} {'runs':8s} of {report['attempted']} attempted")
    for problem in report["problems"]:
        print(f"  problem: {problem}")


def record_reference(workload: Workload, load_results) -> None:
    work = WORK / f"{workload.name}-reference-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        rep = Runner(workload, work, load_results).launch(REFERENCE_SEED)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not rep.ok:
        raise SystemExit("reference run failed: " + "; ".join(rep.problems))
    cells = [list(key) + [err] for key, err in sorted(rep.cells.items())]
    path = REFERENCE_DIR / f"{workload.name}.json"
    head = json.dumps({"workload": workload.name, "seed": REFERENCE_SEED})[:-1]
    path.write_text(head + ', "cells": [\n ' + ",\n ".join(map(json.dumps, cells)) + "\n]}\n")
    print(f"wrote {path.relative_to(ROOT)}: {len(cells)} cells")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store the workload's results at the reference seed")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "rootgrowth" / "__init__.py").is_file():
        print(f"error: no rootgrowth package under {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC), quiet=1)
    load_results = import_program().load_results
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.record_reference:
        for name in names:
            record_reference(WORKLOADS[name], load_results)
        return 0

    facts = machine_facts()
    print("machine: " + ", ".join(f"{k}={v}" for k, v in facts.items()))
    reports = {}
    for name in names:
        try:
            report = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), load_results)
        except MeasureError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        report["machine"] = facts
        (WORK / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=1) + "\n")
        print_report(report)
        reports[name] = report
    summary = {
        "correct": all(correct(r) for r in reports.values()),
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": sum(r["failed"] for r in reports.values()),
    }
    if len(names) == 1:
        summary["metrics"] = reports[names[0]]["metrics"]
    else:
        summary["metrics"] = {name: r["metrics"] for name, r in reports.items()}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
