#!/usr/bin/env python3
"""Run every figure preset into one output directory.

Desk scale (10^4 pairs) by default; pass --paper-scale for the full 10^5.
Each preset writes <outdir>/<kind>.csv plus its JSON manifest, so any run
can be reproduced later with `bornlab run --config <kind>.csv.manifest.json`.

fig6 is left out of the default list: its preset is fig5's config (SD over
the figure families), so a default run would draw the same rows twice.
`--only fig6` still writes it.
"""

import argparse
import pathlib
import sys

from bornlab.cli import main as bornlab_main

KINDS = ("fig2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9")
DEFAULT_KINDS = tuple(kind for kind in KINDS if kind != "fig6")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="figures_out")
    parser.add_argument("--seed", type=int, default=0)
    scale = parser.add_mutually_exclusive_group()
    scale.add_argument("--paper-scale", action="store_true")
    scale.add_argument("--pairs", type=int, default=None,
                       help="override the preset pair/trial count")
    parser.add_argument("--only", choices=KINDS, action="append",
                        help="restrict to specific figures (repeatable)")
    args = parser.parse_args()

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for kind in args.only or DEFAULT_KINDS:
        cli_args = ["figures", kind, "--seed", str(args.seed),
                    "--out", str(outdir / f"{kind}.csv")]
        if args.paper_scale:
            cli_args.append("--paper-scale")
        if args.pairs is not None:
            cli_args.extend(["--pairs", str(args.pairs)])
        print(f"== {kind} ==")
        status = bornlab_main(cli_args)
        if status != 0:
            return status
    return 0


if __name__ == "__main__":
    sys.exit(main())
