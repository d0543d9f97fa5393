"""The scripts under scripts/, run in process as `python scripts/<name>.py` would."""

import csv
import math
import runpy
import sys
from pathlib import Path

import pytest

import bornlab.cli

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
    table = {line.split()[0]: [float(x) for x in line.split()[1:]] for line in lines[2:]}
    assert list(table) == [
        "product", "iqp_product", "dirichlet", "pareto(2)", "peaked(K=16)", "iqp", "mps",
    ]
    assert all(len(row) == 4 and all(map(math.isfinite, row)) for row in table.values())
    # product-state SD decays like (2/3)^n, and flat Dirichlet's second
    # moment 2^{2n} E[p^2] is 2N/(N+1), about 2
    assert table["product"][0] < 0
    assert 1.8 <= table["dirichlet"][2] <= 2.2


def test_reproduce_figures_writes_csv_and_manifest(tmp_path, monkeypatch):
    args = ["--outdir", tmp_path, "--only", "fig2", "--pairs", "200"]
    assert run_script("reproduce_figures.py", args, monkeypatch) == 0
    with open(tmp_path / "fig2.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 3 * 10  # n = 4, 8, 12 over the default y grid
    assert {r["experiment"] for r in rows} == {"tails"}
    assert {r["trials"] for r in rows} == {"200"}
    assert (tmp_path / "fig2.csv.manifest.json").exists()


def _figure_kinds(args, monkeypatch):
    """The kinds reproduce_figures.py asks `bornlab figures` for, without running them."""
    kinds = []

    def fake_main(cli_args):
        kinds.append(cli_args[1])
        return 0

    monkeypatch.setattr(bornlab.cli, "main", fake_main)
    assert run_script("reproduce_figures.py", args, monkeypatch) == 0
    return kinds


def test_reproduce_figures_default_skips_fig6_which_repeats_fig5(tmp_path, monkeypatch):
    kinds = _figure_kinds(["--outdir", tmp_path], monkeypatch)
    assert kinds == ["fig2", "fig4", "fig5", "fig7", "fig8", "fig9"]
    assert _figure_kinds(["--outdir", tmp_path, "--only", "fig6"], monkeypatch) == ["fig6"]
