"""Run one workload in a fresh interpreter and write its result as JSON.

run.py starts this script once per set-up measurement, with src/ on
PYTHONPATH. It builds the workload's inputs from the seed, runs one warm-up
pass, then timed passes until --budget seconds have gone by, checking every
pass's output. With --trace 1 the timed passes alternate between untraced
and traced, and the traced ones record spans (spans.py).
"""

import os

# before numpy loads: each pool worker would otherwise start its own BLAS
# thread pool on a machine with as few cores as workers
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from bornlab import circuits, cli  # noqa: E402

import gate  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY_FILE_SAMPLES = 200


def call_cli(argv: list[str]) -> tuple[bool, str]:
    """Run `bornlab <argv>` in this process; (succeeded, stdout or traceback)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except Exception:
        return False, traceback.format_exc()
    return code == 0, out.getvalue()


def versions() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def cpu_seconds() -> float:
    """User+sys time of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class WorkloadRun:
    """A workload's inputs in a scratch directory, and one pass over them."""

    def __init__(self, name: str, seed: int, tmp: Path, tiny: bool):
        spec = WORKLOADS[name]
        self.tmp = tmp
        self.config = tmp / "config.json"
        self.csv = tmp / "out.csv"
        configs = spec.configs(seed, tiny)
        self.config.write_text(json.dumps({"configs": configs}, indent=2))
        self.cells = {
            (c["experiment"], cli.parse_family(f).label(), str(n))
            for c in configs
            for f in c["families"]
            for n in range(c["n_min"], c["n_max"] + 1, c["n_step"])
        }
        self.reference = gate.reference_rows(name)
        self.file_test = spec.file_test
        if self.file_test is not None:
            if tiny:
                self.file_test = replace(self.file_test, samples=TINY_FILE_SAMPLES)
            self._write_sample_files(seed)

    def _write_sample_files(self, seed: int) -> None:
        test = self.file_test
        rng = np.random.default_rng(seed)
        p = circuits.iqp_prob_values(test.n, 2, rng)
        self.samples = [rng.choice(1 << test.n, test.samples, p=row) for row in p]
        self.sample_files = [self.tmp / "x.txt", self.tmp / "y.txt"]
        for path, outcomes in zip(self.sample_files, self.samples):
            path.write_text("".join(f"{int(v):0{test.n}b}\n" for v in outcomes))

    def run(self) -> dict:
        """One pass through the CLI; returns what check() needs."""
        self.csv.unlink(missing_ok=True)
        outputs = {}
        if self.file_test is not None:
            test = self.file_test
            outputs["file_test"] = call_cli(
                ["mmdtest", *map(str, self.sample_files),
                 "--sigma", repr(test.sigma), "--alpha", repr(test.alpha)]
            )
        outputs["run"] = call_cli(["run", "--config", str(self.config), "--out", str(self.csv)])
        return outputs

    def check(self, outputs: dict) -> tuple[int, int, list[str]]:
        """(operations attempted, operations failed, failure messages)."""
        messages = []
        attempted = len(self.cells)
        ok, text = outputs["run"]
        if ok:
            failures = gate.check_cells(gate.read_rows(self.csv), self.reference, self.cells)
            attempted = len(failures)
            messages += [f"{cell}: {'; '.join(f)}" for cell, f in failures.items() if f]
            failed = sum(1 for f in failures.values() if f)
        else:
            messages.append(f"bornlab run failed: {text}")
            failed = attempted
        if "file_test" in outputs:
            attempted += 1
            ok, text = outputs["file_test"]
            test = self.file_test
            reason = (
                gate.check_file_test(text, *self.samples, test.n, test.sigma, test.alpha)
                if ok else f"bornlab mmdtest failed: {text}"
            )
            if reason is not None:
                failed += 1
                messages.append(reason)
        return attempted, failed, messages


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True, help="seconds of timed passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True, help="scratch directory for inputs and outputs")
    parser.add_argument("--result", required=True, help="where to write the JSON result")
    parser.add_argument("--tiny", action="store_true", help="two n values per experiment")
    args = parser.parse_args()

    tmp = Path(args.tmp)
    (tmp / "spool").mkdir(parents=True)
    workload = WorkloadRun(args.workload, args.seed, tmp, args.tiny)
    tally = {"attempted": 0, "failed": 0, "messages": []}

    def checked_pass():
        t0, c0 = time.perf_counter(), cpu_seconds()
        outputs = workload.run()
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
        attempted, failed, messages = workload.check(outputs)
        tally["attempted"] += attempted
        tally["failed"] += failed
        tally["messages"] += messages
        return wall, cpu

    checked_pass()  # warm-up, part of set-up
    first_pass_at = time.monotonic()
    tracer = spans.Tracer(tmp / "spool")
    passes = []
    while not passes or time.monotonic() - first_pass_at < args.budget or (
        args.trace and len(passes) < 2
    ):
        traced = bool(args.trace) and len(passes) % 2 == 1
        saved = None
        if traced:
            tracer.pass_id = len(passes)
            saved = spans.install(tracer)
        try:
            wall, cpu = checked_pass()
        finally:
            if saved is not None:
                spans.uninstall(saved)
        passes.append({"wall_s": wall, "cpu_s": cpu, "traced": traced})

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "versions": versions(),
        "first_pass_at": first_pass_at,
        "passes": passes,
        "peak_rss_mb": max(own, kids) / 1024.0,  # ru_maxrss is in KiB on Linux
        **tally,
    }
    if args.trace:
        tracer.read_spool()
        traced = [p["wall_s"] for p in passes if p["traced"]]
        untraced = [p["wall_s"] for p in passes if not p["traced"]]
        layers = spans.layer_metrics(tracer.spans, len(traced))
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        result["layers"] = layers
        result["spans"] = tracer.spans
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
