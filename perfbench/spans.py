"""Spans and counters of the traced run, recorded from outside the program.

`install()` replaces the module attributes that bornlab resolves at call
time (for example `lab.instance_prob_values`, which the chunk workers look
up in `lab`'s globals) with timing wrappers, and `uninstall()` puts the
originals back, so untraced passes run the unmodified functions.

A span is a dict with an id, the id of the span open when it started, a
name, the pass it belongs to (the trace id), perf_counter start and end, and
counter attributes. Spans stay in memory until the run ends. Forked pool
workers append the spans of each chunk to a per-pid spool file before the
chunk returns, because the pool terminates its workers without running exit
handlers; `read_spool()` merges them back. perf_counter is CLOCK_MONOTONIC on
Linux, so times from different processes share one axis.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

DENSE_KINDS = ("iqp_product", "mps", "iqp", "pareto", "peaked_iqp", "dirichlet")
REFMASS_KINDS = ("product", "iqp_product", "dirichlet", "peaked", "pareto", "peaked_iqp")


def _layer_metrics() -> dict[str, str]:
    units = {
        "bitmath.fwht.s": "s",
        "bitmath.fwht.calls": "calls",
        "bitmath.fwht.cells": "cells",
        "bitmath.fwht.bytes_computed": "B_computed",
        "mps.prob_values.s": "s",
        "mps.prob_values.instances": "instances",
        "circuits.iqp_prob_values.self_s": "s",
        "circuits.iqp_prob_values.instances": "instances",
        "circuits.sample_prob_vector.s": "s",
        "circuits.sample_prob_vector.samples": "samples",
    }
    for kind in DENSE_KINDS:
        units[f"lab.dense.{kind}.s"] = "s"
        units[f"lab.dense.{kind}.instances"] = "instances"
    for kind in REFMASS_KINDS:
        units[f"lab.refmass.{kind}.s"] = "s"
        units[f"lab.refmass.{kind}.instances"] = "instances"
    units.update(
        {
            "metrics.mmd2_fourier_batch.s": "s",
            "metrics.mmd2_fourier_batch.rows": "rows",
            "metrics.mmd2_unbiased.s": "s",
            "metrics.mmd2_unbiased.calls": "calls",
            "metrics.mmd2_unbiased.kernel_cells": "cells",
            "lab.chunk.self_s": "s",
            "lab.fanout.s": "s",
            "lab.fanout.maps": "maps",
            "lab.fanout.pools": "pools",
            "lab.fanout.tasks": "tasks",
            "lab.fanout.result_bytes": "B_computed",
            "lab.fanout.chunk_busy_s": "s",
            "lab.fanout.wait_s": "s",
            "lab.moments.s": "s",
            "lab.tail_grid.s": "s",
            "cli.run_config.self_s": "s",
            "cli.write_outputs.s": "s",
            "cli.write_outputs.bytes": "B",
            "cli.read_sample_file.s": "s",
            "cli.read_sample_file.lines": "lines",
            "cli.mmdtest_rates.self_s": "s",
            "trace.overhead_s": "s",
        }
    )
    return units


# per-layer metric name -> unit; BENCHMARK.json's per_layer list mirrors it
LAYER_METRICS = _layer_metrics()

# the tracer the wrappers and chunk timers report to; module level because
# forked pool workers reach it only through the module they inherited
ACTIVE: Tracer | None = None


class Tracer:
    def __init__(self, spool_dir: Path):
        self.spool_dir = Path(spool_dir)
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.pass_id = 0
        self._stack: list[dict] = []
        self._count = 0

    def open(self, name: str, **counters) -> dict:
        self._count += 1
        span = {
            "id": f"{os.getpid()}.{time.perf_counter_ns()}.{self._count}",
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "trace": self.pass_id,
            "start": time.perf_counter(),
            **counters,
        }
        self._stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()
        self.spans.append(span)

    def spool(self, mark: int) -> None:
        """Move the spans recorded since index `mark` to this pid's spool file."""
        with open(self.spool_dir / f"{os.getpid()}.jsonl", "a") as f:
            for span in self.spans[mark:]:
                f.write(json.dumps(span) + "\n")
        del self.spans[mark:]

    def read_spool(self) -> None:
        for path in sorted(self.spool_dir.glob("*.jsonl")):
            with open(path) as f:
                self.spans.extend(json.loads(line) for line in f)
            path.unlink()


class ChunkTimer:
    """Picklable stand-in for a lab chunk worker that records a lab.chunk span."""

    def __init__(self, fn, pooled: bool):
        self.fn = fn
        self.pooled = pooled

    def __call__(self, task):
        tracer = ACTIVE
        mark = len(tracer.spans)
        span = tracer.open("lab.chunk", pooled=self.pooled)
        try:
            return self.fn(task)
        finally:
            tracer.close(span)
            if os.getpid() != tracer.pid:
                tracer.spool(mark)


def _wrap(tracer: Tracer, name, fn, counters=None):
    """Time every call of fn as a span; counters(result, *args) adds counts."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name(*args) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if counters is not None:
            span.update(counters(result, *args))
        return result

    return wrapper


def _fwht_counts(out, a):
    # modelled traffic, not measured: one read and one write of the array
    # per butterfly stage
    stages = int(out.shape[-1]).bit_length() - 1
    return {"calls": 1, "cells": int(out.size), "bytes_computed": 2 * stages * int(out.nbytes)}


def _unbiased_counts(result, X, Y, spec):
    m, l = len(X), len(Y)
    return {"calls": 1, "kernel_cells": m * m + l * l + m * l}


def _write_counts(result, configs, rows, out):
    # measured: the sizes of the CSV and manifest just written
    return {"bytes": os.path.getsize(out) + os.path.getsize(out + ".manifest.json")}


def _traced_parallel_map(tracer: Tracer, original):
    def parallel_map(fn, tasks, workers):
        # the condition under which lab._parallel_map starts a Pool
        count = (os.cpu_count() or 1) if workers is None else workers
        pooled = count > 1 and len(tasks) > 1
        span = tracer.open("lab.fanout", maps=1, pools=int(pooled), tasks=len(tasks))
        try:
            results = original(ChunkTimer(fn, pooled), tasks, workers)
        finally:
            tracer.close(span)
        # computed from array shapes, not measured pickle traffic
        span["result_bytes"] = sum(int(np.asarray(r).nbytes) for r in results)
        return results

    return parallel_map


def _targets(tracer: Tracer):
    """(module, attribute, replacement factory) for every traced call site."""
    from bornlab import circuits, cli, lab, metrics

    def wrap(name, counters=None):
        return lambda fn: _wrap(tracer, name, fn, counters)

    fwht = wrap("bitmath.fwht", _fwht_counts)
    return [
        (lab, "instance_prob_values",
         wrap(lambda fam, n, count, rng: f"lab.dense.{fam.kind}",
              lambda r, fam, n, count, rng: {"instances": count})),
        (lab, "reference_mass_values",
         wrap(lambda fam, n, count, rng: f"lab.refmass.{fam.kind}",
              lambda r, fam, n, count, rng: {"instances": count})),
        (lab, "mps_prob_values",
         wrap("mps.prob_values", lambda r, *a: {"instances": int(r.shape[0])})),
        (lab, "iqp_prob_values",
         wrap("circuits.iqp_prob_values", lambda r, *a: {"instances": int(r.shape[0])})),
        (lab, "mmd2_fourier_batch",
         wrap("metrics.mmd2_fourier_batch", lambda r, *a: {"rows": int(np.size(r))})),
        (lab, "_moment_report", wrap("lab.moments")),
        (lab, "_parallel_map", lambda fn: _traced_parallel_map(tracer, fn)),
        (metrics, "fwht", fwht),
        (circuits, "fwht", fwht),
        (circuits, "sample_prob_vector",
         wrap("circuits.sample_prob_vector", lambda r, *a: {"samples": len(r)})),
        (cli, "mmd2_unbiased", wrap("metrics.mmd2_unbiased", _unbiased_counts)),
        (cli, "read_sample_file", wrap("cli.read_sample_file", lambda r, *a: {"lines": len(r)})),
        (cli, "write_outputs", wrap("cli.write_outputs", _write_counts)),
        (cli, "run_config", wrap("cli.run_config")),
        (cli, "_mmdtest_rejection_rates", wrap("cli.mmdtest_rates")),
        (cli, "estimate_tail_curve", wrap("lab.tail_grid")),
        (cli, "anticoncentration_statistic", wrap("lab.tail_grid")),
    ]


def install(tracer: Tracer) -> list:
    """Put the wrappers in place; returns what uninstall() needs."""
    global ACTIVE
    ACTIVE = tracer
    saved = []
    for module, attr, factory in _targets(tracer):
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, factory(original))
    return saved


def uninstall(saved: list) -> None:
    global ACTIVE
    for module, attr, original in reversed(saved):
        setattr(module, attr, original)
    ACTIVE = None


def self_time(span: dict, children: list[dict]) -> float:
    """The span's duration minus the part of it its children's intervals cover."""
    start, end = span["start"], span["end"]
    covered = 0.0
    reach = start
    for lo, hi in sorted((c["start"], c["end"]) for c in children):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return (end - start) - covered


def layer_metrics(spans: list[dict], passes: int) -> dict[str, float]:
    """Per-pass per-layer metrics from the spans of `passes` traced passes.

    A span named X contributes its duration to X.s, its self time to
    X.self_s and each counter attribute c to X.c, where LAYER_METRICS has
    that name. Two metrics are derived instead: lab.tail_grid.s is the self
    time of the tail statistics (the grid loop runs inside them), and a
    chunk's duration goes to lab.fanout.chunk_busy_s and, for chunks run by
    a Pool, the delay from the map's start to the chunk's start goes to
    lab.fanout.wait_s.
    """
    by_id = {s["id"]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)
    totals = dict.fromkeys(LAYER_METRICS, 0.0)

    def add(name, value):
        if name in totals:
            totals[name] += value

    for s in spans:
        name = s["name"]
        own = self_time(s, children[s["id"]])
        if name == "lab.tail_grid":
            add("lab.tail_grid.s", own)
            continue
        add(f"{name}.s", s["end"] - s["start"])
        add(f"{name}.self_s", own)
        for key, value in s.items():
            if key not in ("id", "parent", "name", "trace", "start", "end"):
                add(f"{name}.{key}", value)
        if name == "lab.chunk":
            add("lab.fanout.chunk_busy_s", s["end"] - s["start"])
            if s["pooled"]:
                add("lab.fanout.wait_s", s["start"] - by_id[s["parent"]]["start"])
    return {name: value / passes for name, value in totals.items()}
