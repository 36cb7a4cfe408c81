"""Check that `rootgrowth run` gives the same outputs as at a base revision.

    python tools/cmp_parent.py --base REV [--config FILE ...]

Exports REV with `git archive` into a temporary directory and runs
`python -m rootgrowth run` from its `src` and from this checkout's `src`
on the same inputs, each with `--jobs 1` and `--jobs 2`:

- every workload that `BENCHMARK.json` lists, at seeds 0 and 1000, with
  the config and tracks CSV that `perfbench/workloads.py` makes;
- every `--config` file given, run from the file's own directory, so a
  relative `dataset` path resolves as it does there.

Both sides write to the same output path, so stdout can be compared too.
`results.json`, `results.csv`, `table.txt`, stdout, stderr and the exit
code must be equal. Prints one line per input and jobs count, and exits 1
when any output differs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 1000)
JOBS = (1, 2)
OUTPUT_FILES = ("results.json", "results.csv", "table.txt")


def benchmark_inputs(work: Path) -> list[tuple[str, Path]]:
    """Write each listed workload's config (and CSV) per seed; return (name, config) pairs."""
    sys.dont_write_bytecode = True  # import the benchmark's module without writing into its directory
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS, write_tracks_csv

    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    inputs = []
    for name in names:
        workload = WORKLOADS[name]
        for seed in SEEDS:
            folder = work / f"{name}-{seed}"
            folder.mkdir(parents=True)
            dataset = "synthetic"
            if workload.csv is not None:
                dataset = "tracks.csv"
                write_tracks_csv(folder / dataset, workload.csv, seed)
            config = folder / "run.cfg"
            config.write_text(workload.config_text(seed, dataset))
            inputs.append((f"{name} seed {seed}", config))
    return inputs


def run(src: Path, config: Path, jobs: int, out: Path) -> dict[str, object]:
    """One `rootgrowth run` from ``src``; its exit code, streams and results files."""
    shutil.rmtree(out, ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "rootgrowth", "run", "--config", str(config), "--out", str(out), "--jobs", str(jobs)],
        cwd=config.parent, env=env, capture_output=True,
    )
    outputs: dict[str, object] = {"exit code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
    for name in OUTPUT_FILES:
        path = out / name
        outputs[name] = path.read_bytes() if path.exists() else None
    return outputs


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--config", action="append", default=[], help="a further run config (repeatable)")
    args = parser.parse_args(argv)
    configs = [Path(c).resolve() for c in args.config]
    for config in configs:
        if not config.is_file():
            parser.error(f"no config file {config}")

    differing = 0
    with tempfile.TemporaryDirectory(prefix="cmp_parent-") as tmp:
        work = Path(tmp)
        archive = work / "base.tar"
        subprocess.run(["git", "archive", "--format=tar", "-o", str(archive), args.base], cwd=ROOT, check=True)
        with tarfile.open(archive) as tar:
            tar.extractall(work / "base", filter="data")
        inputs = benchmark_inputs(work / "inputs") + [(str(c), c) for c in configs]
        for label, config in inputs:
            for jobs in JOBS:
                base = run(work / "base" / "src", config, jobs, work / "out")
                change = run(ROOT / "src", config, jobs, work / "out")
                diff = [key for key in base if base[key] != change[key]]
                differing += bool(diff)
                verdict = "differ: " + ", ".join(diff) if diff else f"equal (exit code {base['exit code']})"
                print(f"{label}, --jobs {jobs}: {verdict}", flush=True)
    print(f"{len(inputs) * len(JOBS)} runs compared with {args.base}, {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
