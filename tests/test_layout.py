"""The package holds the production path and nothing else.

A top-level name stays in src/bornlab only if `bornlab.cli.main` reaches it;
the oracles that tests check the production routes against live in
tests/oracles.py. Importing and running the command line loads no scipy.
CI's replay table holds a case for every experiment. Every input the
program reads is listed here once.
"""

import argparse
import ast
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

from bornlab.cli import EXPERIMENTS, FIGURES, ExperimentConfig, build_parser

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "bornlab"
WORKFLOW = PACKAGE.parent.parent / ".github" / "workflows" / "tests.yml"


def _definitions(tree: ast.Module) -> dict[str, list[ast.AST]]:
    """Top-level name -> the statements that bind it."""
    found: dict[str, list[ast.AST]] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            found.setdefault(name, []).append(node)
    return found


def _imports(tree: ast.Module, modules: set[str]) -> dict[str, tuple[str, str | None]]:
    """Local alias -> (module, name) for the package's relative imports;
    name is None when the alias is a module of the package."""
    aliases = {}
    for node in tree.body:
        if not (isinstance(node, ast.ImportFrom) and node.level == 1):
            continue
        for alias in node.names:
            local = alias.asname or alias.name
            if node.module is not None:
                aliases[local] = (node.module, alias.name)
            elif alias.name in modules:
                aliases[local] = (alias.name, None)
            else:
                aliases[local] = ("__init__", alias.name)
    return aliases


def unreached_names() -> list[str]:
    """'module.name' of every top-level definition that cli.main does not reach."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    definitions = {mod: _definitions(tree) for mod, tree in trees.items()}
    imports = {mod: _imports(tree, set(trees)) for mod, tree in trees.items()}

    def references(mod: str, node: ast.AST):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                if sub.id in definitions[mod]:
                    yield mod, sub.id
                elif sub.id in imports[mod] and imports[mod][sub.id][1] is not None:
                    yield imports[mod][sub.id]
            elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                target = imports[mod].get(sub.value.id)
                if target is not None and target[1] is None:
                    yield target[0], sub.attr

    reached, frontier = set(), [("cli", "main")]
    while frontier:
        key = frontier.pop()
        if key in reached:
            continue
        reached.add(key)
        mod, name = key
        for node in definitions.get(mod, {}).get(name, []):
            frontier.extend(references(mod, node))
    return sorted(
        f"{mod}.{name}"
        for mod, names in definitions.items()
        for name in names
        if (mod, name) not in reached
    )


def test_src_holds_only_the_production_path():
    unreached = unreached_names()
    assert unreached == [], (
        "defined in src/bornlab but reached from no path out of cli.main "
        f"(move test-only code to tests/oracles.py): {unreached}"
    )


def test_cli_loads_no_scipy(tmp_path):
    program = (
        "import sys\n"
        "from bornlab.cli import main\n"
        "status = main(['tails', '--family', 'product,dirichlet', '--n-min', '4',\n"
        "               '--n-max', '5', '--trials', '200', '--workers', '1',\n"
        f"               '--out', {str(tmp_path / 'tails.csv')!r}])\n"
        "assert status == 0, status\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    paths = [p for p in [os.environ.get("PYTHONPATH")] if p]
    result = subprocess.run(
        [sys.executable, "-c", program],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(PACKAGE.parent), *paths])},
    )
    assert result.stdout.splitlines()[-1] == "[]", result.stdout


def _step_script(name: str) -> str:
    """The run block of the workflow step whose name starts with name, dedented."""
    lines = WORKFLOW.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.strip().startswith(f"- name: {name}"))
    run = next(i for i in range(start, len(lines)) if lines[i].strip() == "run: |")
    indent = len(lines[run]) - len(lines[run].lstrip()) + 2
    block = []
    for line in lines[run + 1 :]:
        if line.strip() and not line.startswith(" " * indent):
            break
        block.append(line[indent:])
    return "\n".join(block)


def test_the_replay_table_covers_every_experiment(tmp_path):
    # the replay step's case list, run alone, lists its cases and writes their
    # configs: an experiment added without a replay case fails here
    script = _step_script("Replay smoke")
    case_list = script[: script.index('for c in "${cases[@]}"')]
    cases = subprocess.run(
        ["bash", "-ec", case_list + 'printf "%s\\n" "${cases[@]}"'],
        cwd=tmp_path, capture_output=True, text=True, check=True,
    ).stdout.split("\n")[:-1]
    named = set()
    for case in cases:
        name, command, *args = case.split()
        if command == "figures":
            named.update(c["experiment"] for kind in args if kind in FIGURES for c in FIGURES[kind])
        else:
            assert command == "run" and "--config" in args, case
            config = json.loads((tmp_path / "replay" / name / "config.json").read_text())
            named.add(config["experiment"])
    assert any(case.split()[1] == "figures" for case in cases), cases
    assert sorted(set(EXPERIMENTS) - named) == []


# Every input the program reads, listed once: the option strings of each
# subcommand, the fields of a config, and the environment variables that
# src/bornlab reads. One added or removed without editing this list fails
# test_every_input_is_listed.
OPTIONS = {
    "run": ["--config", "--seed", "--workers", "--out"],
    "tails": ["--family", "--n-min", "--n-max", "--trials", "--seed", "--workers", "--out"],
    "pairwise": ["--family", "--metric", "--sigma", "--n-min", "--n-max", "--pairs", "--seed", "--workers",
                 "--out"],
    "figures": ["--pairs", "--trials", "--seed", "--workers", "--out"],
    "mmdtest": ["--sigma", "--alpha"],
}
CONFIG_FIELDS = ["experiment", "families", "n_min", "n_max", "trials", "seed", "metrics", "sigmas", "n_step",
                 "y_grid", "subset", "alpha", "samples", "workers", "out"]
ENVIRONMENT = []


def environment_reads() -> list[str]:
    """The environment variables src/bornlab reads: the key of each
    os.environ[...], os.environ.get(...) and os.getenv(...), and '?' for a key
    that is not a constant or for any other use of the environment."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            if name not in ("environ", "environb", "getenv", "getenvb"):
                continue
            use = parents[node]
            if isinstance(use, ast.Attribute) and use.attr == "get":
                use = parents[use]
            key = (use.slice if isinstance(use, ast.Subscript)
                   else use.args[0] if isinstance(use, ast.Call) and use.args else None)
            found.append(key.value if isinstance(key, ast.Constant) else "?")
    return sorted(found)


def test_every_input_is_listed():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    options = {name: [o for action in command._actions for o in action.option_strings if o not in ("-h", "--help")]
               for name, command in commands.items()}
    assert options == OPTIONS
    assert [f.name for f in dataclasses.fields(ExperimentConfig)] == CONFIG_FIELDS
    assert environment_reads() == ENVIRONMENT
