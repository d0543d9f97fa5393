"""Tests of the benchmark itself: metric names, the correctness gate, span
arithmetic, and a one-pass smoke run of every workload.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests

Run from the repository root; the smoke runs start perfbench/run.py there.
"""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_match_pattern_and_have_units():
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(metric["name"]), metric
        assert metric["unit"], metric
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == spans.LAYER_METRICS
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


CELL = ("pairwise", "iqp", "6")
MEAN = CELL + ("sd", "", "mean")
VARIANCE = CELL + ("sd", "", "variance")
REFERENCE = {MEAN: gate.Row(1.0, 0.01, 2500), VARIANCE: gate.Row(0.5, 0.002, 2500)}


def cell_failures(rows):
    return gate.check_cells(rows, REFERENCE, {CELL})[CELL]


def test_gate_passes_rows_within_a_few_stderr():
    rows = {MEAN: gate.Row(1.1, 0.05, 100), VARIANCE: gate.Row(0.49, 0.01, 100)}
    assert cell_failures(rows) == []


def test_gate_flags_row_moved_by_ten_stderr():
    rows = {MEAN: gate.Row(1.0 + 10 * 0.05, 0.05, 100), VARIANCE: gate.Row(0.5, 0.01, 100)}
    assert len(cell_failures(rows)) == 1


def test_gate_flags_missing_row():
    failures = cell_failures({MEAN: gate.Row(1.0, 0.05, 100)})
    assert len(failures) == 1 and "missing" in failures[0]


def test_gate_flags_nan():
    rows = {MEAN: gate.Row(math.nan, 0.05, 100), VARIANCE: gate.Row(0.5, 0.01, 100)}
    assert len(cell_failures(rows)) == 1


def test_gate_needs_exact_match_when_both_stderrs_are_zero():
    reference = {MEAN: gate.Row(0.25, 0.0, 2500)}
    assert gate.check_row(gate.Row(0.25 * (1 + 1e-13), 0.0, 100), reference[MEAN]) is None
    assert gate.check_row(gate.Row(0.25 * (1 + 1e-9), 0.0, 100), reference[MEAN]) is not None


def test_independent_mmd_matches_kernel_double_sum():
    rng = np.random.default_rng(0)
    n, rho = 5, 0.6
    x, y = rng.integers(0, 1 << n, 40), rng.integers(0, 1 << n, 30)

    def mean_kernel(a, b, skip_diagonal):
        d = np.array([[bin(int(u) ^ int(v)).count("1") for v in b] for u in a])
        k = rho**d
        if skip_diagonal:
            return (k.sum() - np.trace(k)) / (len(a) * (len(a) - 1))
        return k.mean()

    direct = mean_kernel(x, x, True) + mean_kernel(y, y, True) - 2 * mean_kernel(x, y, False)
    assert gate.mmd2_from_counts(x, y, n, rho) == pytest.approx(direct, rel=1e-12)


def span(sid, parent, name, start, end, **counters):
    return {"id": sid, "parent": parent, "name": name, "trace": 1, "start": start, "end": end, **counters}


def test_self_time_subtracts_the_union_of_child_intervals():
    parent = span("p", None, "cli.run_config", 0.0, 10.0)
    children = [
        span("a", "p", "lab.fanout", 1.0, 4.0),
        span("b", "p", "lab.fanout", 3.0, 5.0),  # overlaps a
        span("c", "p", "lab.fanout", 9.0, 12.0),  # runs past the parent's end
    ]
    assert spans.self_time(parent, children) == pytest.approx(10.0 - 4.0 - 1.0)
    assert spans.self_time(parent, []) == 10.0


def test_layer_metrics_on_a_synthetic_tree():
    tree = [
        span("run", None, "cli.run_config", 0.0, 10.0),
        span("map", "run", "lab.fanout", 1.0, 9.0, maps=1, pools=1, tasks=2, result_bytes=64),
        # two pooled chunks, one per worker, started 0.5 s and 1.0 s after the map
        span("c1", "map", "lab.chunk", 1.5, 8.5, pooled=True),
        span("c2", "map", "lab.chunk", 2.0, 6.0, pooled=True),
        span("d1", "c1", "lab.dense.iqp", 2.0, 8.0, instances=100),
        span("f1", "d1", "bitmath.fwht", 3.0, 4.0, calls=1, cells=10, bytes_computed=80),
        span("i1", "d1", "circuits.iqp_prob_values", 2.5, 7.5, instances=100),
        span("f2", "i1", "bitmath.fwht", 3.0, 5.0, calls=1, cells=10, bytes_computed=80),
        span("t", "run", "lab.tail_grid", 9.0, 9.5),
    ]
    m = spans.layer_metrics(tree, passes=2)
    assert m["cli.run_config.self_s"] == pytest.approx((10.0 - 8.0 - 0.5) / 2)
    assert m["lab.fanout.s"] == pytest.approx(8.0 / 2)
    assert m["lab.fanout.tasks"] == pytest.approx(1.0)
    assert m["lab.fanout.chunk_busy_s"] == pytest.approx((7.0 + 4.0) / 2)
    assert m["lab.fanout.wait_s"] == pytest.approx((0.5 + 1.0) / 2)
    assert m["lab.chunk.self_s"] == pytest.approx((1.0 + 4.0) / 2)
    assert m["lab.dense.iqp.s"] == pytest.approx(6.0 / 2)
    assert m["lab.dense.iqp.instances"] == pytest.approx(50.0)
    assert m["circuits.iqp_prob_values.self_s"] == pytest.approx(3.0 / 2)
    assert m["bitmath.fwht.s"] == pytest.approx(3.0 / 2)
    assert m["bitmath.fwht.calls"] == pytest.approx(1.0)
    assert m["lab.tail_grid.s"] == pytest.approx(0.5 / 2)
    assert m["mps.prob_values.s"] == 0.0


def run_bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(workload):
    lines = run_bench(workload, trace=0)
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any(line.startswith("error_rate 0 ") for line in lines)


def test_traced_run_merges_pool_worker_spans():
    result = json.loads(run_bench("tails_fanout", trace=1)[-1])
    assert set(result["metrics"]) == set(spans.LAYER_METRICS)
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert values["lab.fanout.pools"] > 0
    assert values["lab.fanout.chunk_busy_s"] > 0 and values["lab.fanout.wait_s"] > 0
    assert values["lab.refmass.product.instances"] > 0
