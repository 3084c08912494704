"""Checks made on the package source with `ast`, without running it."""

import ast
from pathlib import Path

import entrecovery

PACKAGE = Path(entrecovery.__file__).resolve().parent


def test_no_private_name_imported_across_modules():
    # a module's underscore names are its own; another module that needs one
    # needs a public name instead
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "entrecovery":
                continue
            found += [f"{path.name}:{node.lineno} imports {alias.name}"
                      for alias in node.names if alias.name.startswith("_")]
    assert found == []
