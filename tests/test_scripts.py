"""The scripts under scripts/, run in process as `python scripts/<name>.py` would."""

import math
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from bornlab.cli import ExperimentConfig, run_config

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, args, monkeypatch):
    monkeypatch.setattr(sys, "argv", [name, *map(str, args)])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return exit_info.value.code


def test_concentration_table(monkeypatch, capsys):
    args = ["--n-min", "4", "--n-max", "6", "--pairs", "200", "--trials", "2000"]
    assert run_script("concentration_table.py", args, monkeypatch) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[0] == "family"
    table = {line.split()[0]: line.split()[1:] for line in lines[2:]}
    assert list(table) == [
        "product", "iqp_product", "dirichlet", "pareto(2)", "peaked(K=16)", "iqp", "mps",
    ]
    assert all(len(row) == 4 and all(math.isfinite(float(x)) for x in row)
               for row in table.values())
    # product-state SD decays like (2/3)^n, and flat Dirichlet's second
    # moment 2^{2n} E[p^2] is 2N/(N+1), about 2
    assert float(table["product"][0]) < 0
    assert 1.8 <= float(table["dirichlet"][2]) <= 2.2
    # the slope is the fit of the mean rows that `bornlab run` writes for the
    # same pairwise config, and the second moment is its anticoncentration row
    families = runpy.run_path(str(SCRIPTS / "concentration_table.py"))["DEFAULT_FAMILIES"]
    config = ExperimentConfig("pairwise", families, n_min=4, n_max=6, trials=200, seed=0)
    means = [r.value for r in run_config(config) if r.statistic == "mean"]
    anti = ExperimentConfig("anticoncentration", families, n_min=6, n_max=6, trials=2000, seed=0)
    second = [r for r in run_config(anti) if r.statistic == "second_moment"]
    for i, row in enumerate(table.values()):
        slope = np.polyfit(config.n_values, np.log(means[3 * i : 3 * i + 3]), 1)[0]
        assert row[0] == f"{slope:.3f}"
        assert row[2] == f"{second[i].value:.3f}"
