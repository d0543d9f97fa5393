#!/usr/bin/env python3
"""Write the reference rows the correctness gate compares against.

    PYTHONPATH=src python3 perfbench/capture_reference.py [workload ...]

Runs each workload's experiments through `bornlab run` with TRIALS_SCALE
times the benchmark's trials at REFERENCE_SEED, and writes
perfbench/reference/<workload>.csv with its manifest. Rerun only when the
expected values themselves change, never to make a failing gate pass.
"""

import json
import sys
import tempfile
from pathlib import Path

from bornlab import cli

from gate import REFERENCE_DIR
from workloads import WORKLOADS

REFERENCE_SEED = 99991
TRIALS_SCALE = 25


def capture(name: str) -> None:
    configs = WORKLOADS[name].configs(REFERENCE_SEED, trials_scale=TRIALS_SCALE)
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps({"configs": configs}))
        out = REFERENCE_DIR / f"{name}.csv"
        if cli.main(["run", "--config", str(config), "--out", str(out)]) != 0:
            raise SystemExit(f"bornlab run failed for {name}")


def main(names) -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        capture(name)


if __name__ == "__main__":
    main(sys.argv[1:])
