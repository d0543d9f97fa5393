"""Correctness gate for the benchmark's outputs.

CSV rows are compared with reference rows that capture_reference.py wrote
with more trials at a fixed seed. A row passes when its key matches and its
value lies within Z_LIMIT combined standard errors of the reference value,
so a change of random stream passes while a wrong number fails; where both
standard errors are 0 the values must agree to EXACT_RTOL. The sample file
test is checked against mmd2_from_counts(), an evaluation that shares no
code with bornlab.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

KEY = ("experiment", "family", "n", "metric", "sigma", "statistic")

# a row 10 standard errors off must fail; over seeds 0..59 the largest |z|
# of any row was 3.7 (DESIGN.md)
Z_LIMIT = 6.0
EXACT_RTOL = 1e-12
ESTIMATE_RTOL = 1e-9


class Row(NamedTuple):
    value: float
    stderr: float
    trials: int


def read_rows(path) -> dict[tuple, Row]:
    """CSV rows keyed by KEY."""
    with open(path, newline="") as f:
        return {
            tuple(row[k] for k in KEY): Row(float(row["value"]), float(row["stderr"]), int(row["trials"]))
            for row in csv.DictReader(f)
        }


def reference_rows(workload: str) -> dict[tuple, Row]:
    return read_rows(REFERENCE_DIR / f"{workload}.csv")


def check_row(row: Row, ref: Row) -> str | None:
    """None when the row agrees with the reference row, else the reason.

    The row's standard error is taken as at least the reference's, rescaled
    to the row's trial count: the row's own estimate is poor for rare events
    (a rate of 0 reports 0) and the reference's rests on more trials.
    """
    if not (math.isfinite(row.value) and math.isfinite(row.stderr)):
        return f"non-finite value {row.value!r} or stderr {row.stderr!r}"
    stderr = max(row.stderr, ref.stderr * math.sqrt(ref.trials / row.trials))
    if stderr == 0.0 and ref.stderr == 0.0:
        if abs(row.value - ref.value) <= EXACT_RTOL * max(abs(row.value), abs(ref.value)):
            return None
        return f"{row.value!r} != reference {ref.value!r} (both stderrs 0)"
    z = abs(row.value - ref.value) / math.hypot(stderr, ref.stderr)
    if z <= Z_LIMIT:
        return None
    return f"{row.value!r} is {z:.1f} stderr from reference {ref.value!r}"


def check_cells(rows: dict, reference: dict, cells) -> dict[tuple, list[str]]:
    """Failures per (experiment, family, n) cell; a cell passes with [].

    Every reference row of a cell must be present and agree; a row the
    reference does not have fails its cell, as does a cell without any
    reference rows.
    """
    failures = {cell: [] for cell in cells}
    expected = {key for key in reference if key[:3] in failures}
    for cell in failures:
        if not any(key[:3] == cell for key in expected):
            failures[cell].append("no reference rows")
    for key in expected - rows.keys():
        failures[key[:3]].append(f"missing row {key}")
    for key, row in rows.items():
        if key not in expected:
            failures.setdefault(key[:3], []).append(f"unexpected row {key}")
            continue
        reason = check_row(row, reference[key])
        if reason is not None:
            failures[key[:3]].append(f"{key}: {reason}")
    return failures


def mmd2_from_counts(x: np.ndarray, y: np.ndarray, n: int, rho: float) -> float:
    """Unbiased two-sample MMD^2 under k(x, y) = rho^hamming(x, y).

    The kernel is the n-fold tensor power of [[1, rho], [rho, 1]], so K c is
    n small matrix products on the outcome histogram c, and the U-statistic
    follows from c^T K c minus the diagonal (k(x, x) = 1).
    """
    m, l = len(x), len(y)
    cx = np.bincount(x, minlength=1 << n).astype(float)
    cy = np.bincount(y, minlength=1 << n).astype(float)
    factor = np.array([[1.0, rho], [rho, 1.0]])

    def apply_kernel(c):
        t = c.reshape((2,) * n)
        for axis in range(n):
            t = np.moveaxis(np.tensordot(factor, t, axes=([1], [axis])), 0, axis)
        return t.reshape(-1)

    kx, ky = apply_kernel(cx), apply_kernel(cy)
    xx = (cx @ kx - m) / (m * (m - 1))
    yy = (cy @ ky - l) / (l * (l - 1))
    return float(xx + yy - 2.0 * (cx @ ky) / (m * l))


def check_file_test(stdout: str, x, y, n, sigma, alpha) -> str | None:
    """None when `bornlab mmdtest` output agrees with the independent evaluation."""
    fields = dict(
        line.split(": ", 1)
        for line in stdout.splitlines()
        if line.startswith(("estimate:", "verdict:"))
    )
    if set(fields) != {"estimate", "verdict"}:
        return f"unparsable mmdtest output {stdout!r}"
    estimate = float(fields["estimate"])
    expected = mmd2_from_counts(x, y, n, math.exp(-1.0 / (2.0 * sigma**2)))
    if not abs(estimate - expected) <= ESTIMATE_RTOL * max(abs(estimate), abs(expected)):
        return f"estimate {estimate!r} != independent {expected!r}"
    threshold = math.sqrt(8.0 * math.log(1.0 / alpha) / (len(x) + len(y)))
    verdict = "ACCEPT" if expected <= threshold else "REJECT"
    if fields["verdict"] != verdict:
        return f"verdict {fields['verdict']} != independent {verdict}"
    return None
