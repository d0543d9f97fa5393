#!/usr/bin/env python3
"""bornlab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload dense_figure --seed 1 --seconds 15 --trace 0

Run from the root of a bornlab checkout; the package is imported from src/.
Each workload runs in fresh interpreters (worker.py), so set-up is measured
from interpreter start. --trace 0 starts SETUPS interpreters, each timing
passes for a share of --seconds, and prints the end-to-end metrics; --trace 1
starts one interpreter whose passes alternate untraced and traced and prints
the per-layer metrics with the tracing overhead. Human-readable lines come
first; the last line of stdout is one JSON object. Results with provenance
and, for traced runs, the raw spans are kept under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUPS = 3
CHILD_TIMEOUT_S = 150
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(Exception):
    """Reported on stderr with exit status 2, and no result line."""


def git_sha(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(root: Path, seed: int, worker: dict) -> dict:
    return {
        **worker["versions"],
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(root),
        "seed": seed,
        **BLAS_ENV,
    }


def run_worker(args, index: int, budget: float, tmp: Path, root: Path) -> dict:
    result_path = tmp / f"result-{index}.json"
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--budget", repr(budget),
        "--trace", str(args.trace),
        "--tmp", str(tmp / f"worker-{index}"),
        "--result", str(result_path),
    ] + (["--tiny"] if args.tiny else [])
    path = [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, **BLAS_ENV, PYTHONPATH=os.pathsep.join(path))
    started = time.monotonic()
    try:
        # the worker's stdout goes to our stderr: our last stdout line is the result
        proc = subprocess.run(command, env=env, stdout=sys.stderr, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {index} exceeded {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {index} exited with status {proc.returncode}")
    result = json.loads(result_path.read_text())
    result["setup_s"] = result["first_pass_at"] - started
    return result


def percentile_line(walls: list[float]) -> str:
    """The highest listed percentile with at least ten passes beyond it."""
    ordered = sorted(walls)
    for p in (99, 95, 90, 75, 50):
        rank = math.ceil(p / 100 * len(ordered))
        if len(ordered) - rank >= 10:
            return f"p{p} {ordered[rank - 1]:.4f} s over {len(ordered)} passes"
    return f"no percentile has 10 passes beyond it ({len(ordered)} passes)"


def end_to_end(results: list[dict]) -> tuple[dict, list[str]]:
    passes = [p for r in results for p in r["passes"]]
    walls = [p["wall_s"] for p in passes]
    values = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "setup_s": statistics.median(r["setup_s"] for r in results),
    }
    notes = {
        "wall_s": f"median of {len(walls)} passes; {percentile_line(walls)}",
        "cpu_s": "median per pass, pool workers included",
        "peak_rss_mb": f"median over {len(results)} processes of max(self, children) ru_maxrss",
        "setup_s": f"median of {len(results)} fresh interpreters, to the first timed pass",
    }
    lines = [
        f"{name} {values[name]:.6g} {END_TO_END_UNITS[name]}  ({notes[name]})" for name in values
    ]
    return values, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="timed seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test size: two n values per experiment")
    args = parser.parse_args(argv)

    root = Path.cwd()
    try:
        if not (root / "src" / "bornlab" / "cli.py").is_file():
            raise BenchError(f"{root} is not a bornlab checkout: src/bornlab/cli.py is missing")
        workers = WORKLOADS[args.workload].workers
        cpus = len(os.sched_getaffinity(0))
        if workers > cpus:
            raise BenchError(f"{args.workload} needs {workers} workers; only {cpus} CPUs are usable")
        out_dir = root / ".perfbench_out"
        tmp = out_dir / f"tmp-{os.getpid()}"
        tmp.mkdir(parents=True)
        try:
            if args.trace:
                results = [run_worker(args, 0, args.seconds, tmp, root)]
            else:
                results = [
                    run_worker(args, i, args.seconds / SETUPS, tmp, root) for i in range(SETUPS)
                ]
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    except BenchError as e:
        print(f"perfbench: error: {e}", file=sys.stderr)
        return 2

    info = provenance(root, args.seed, results[0])
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(f"workload {args.workload}  seed {args.seed}  workers {workers}  {json.dumps(info)}")
    if args.trace:
        layers = results[0]["layers"]
        traced = sum(p["traced"] for p in results[0]["passes"])
        print(f"per traced pass, {traced} traced and {len(results[0]['passes']) - traced} untraced passes:")
        for name, value in layers.items():
            if value:
                print(f"  {name} {value:.6g} {LAYER_METRICS[name]}")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in LAYER_METRICS.items()}
    else:
        values, lines = end_to_end(results)
        print("\n".join(lines))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    print(f"error_rate {failed / attempted:.6g}  ({failed} of {attempted} operations failed)")
    for message in [m for r in results for m in r["messages"]][:20]:
        print(f"  failure: {message}")

    record = {"workload": args.workload, "trace": args.trace, "provenance": info, "results": results}
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
