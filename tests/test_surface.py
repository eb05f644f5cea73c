"""The hand-written lists of the public surface match the code: the package's
``__all__``, the subcommands in the README's CLI block and the module
attributes the README names.  Every settable field of a run's config is read
by the run, and the package imports nothing but numpy and the standard
library."""

import argparse
import ast
import importlib
import pkgutil
import re
import sys
from dataclasses import fields
from pathlib import Path

import synthfall
from synthfall.classifier import TrainConfig
from synthfall.cli import build_parser
from synthfall.harness import AlignmentOptions, ExperimentConfig

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(synthfall.__file__).parent


def test_every_exported_name_resolves():
    assert [name for name in synthfall.__all__ if not hasattr(synthfall, name)] == []


def test_every_imported_public_name_is_exported():
    tree = ast.parse(Path(synthfall.__file__).read_text("utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    assert sorted(public - set(synthfall.__all__)) == []


def test_readme_cli_block_names_every_subcommand():
    section = README.read_text("utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    documented = {line.split()[1] for line in block.splitlines() if line.startswith("synthfall ")}
    (subcommands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert documented == set(subcommands.choices)


def test_readme_module_names_resolve():
    modules = {"synthfall"} | {f"synthfall.{m.name}" for m in pkgutil.iter_modules(synthfall.__path__)}
    named = re.findall(r"`((?:synthfall\.)?\w+)\.(\w+)`", README.read_text("utf-8"))
    qualified = ((m if m.startswith("synthfall") else f"synthfall.{m}", name) for m, name in named)
    checked = [(module, name) for module, name in qualified if module in modules]
    assert {("synthfall.ingest", "write_files"), ("synthfall", "AlignmentReport")} <= set(checked)
    missing = [f"{module}.{name}" for module, name in checked if not hasattr(importlib.import_module(module), name)]
    assert missing == []


def attributes_read(module: str, name: str) -> set[str]:
    """Every attribute read as ``<name>.<attribute>`` in a module of the package."""
    tree = ast.parse((SRC / f"{module}.py").read_text("utf-8"))
    return {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and isinstance(node.value, ast.Name) and node.value.id == name
    }


def test_every_config_field_is_read():
    read = attributes_read("harness", "config") | attributes_read("classifier", "config")
    settable = {f.name for cls in (ExperimentConfig, TrainConfig) for f in fields(cls)}
    assert sorted(settable - read) == []
    assert sorted({f.name for f in fields(AlignmentOptions)} - attributes_read("harness", "opts")) == []


def test_runtime_needs_numpy_alone():
    """scipy and the other tools the tests use stay out of the package."""
    imported = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Import):
                imported |= {(path.name, alias.name.split(".")[0]) for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add((path.name, node.module.split(".")[0]))
    assert ("metrics.py", "numpy") in imported
    allowed = {"numpy", *sys.stdlib_module_names}
    assert sorted((name, module) for name, module in imported if module not in allowed) == []
