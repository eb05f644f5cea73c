"""The hand-written lists of the public surface match the code: the package's
``__all__`` and the subcommands in the README's CLI block."""

import argparse
import ast
from pathlib import Path

import synthfall
from synthfall.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


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
