"""``poset_ramsey.__all__`` lists exactly the package's public names.

A helper deleted from its module must not leave a stale export behind, and
a name imported into the package must not go unlisted.
"""

from __future__ import annotations

import ast
from pathlib import Path

import poset_ramsey


def _public_names_bound_in_init() -> set[str]:
    tree = ast.parse(Path(poset_ramsey.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.FunctionDef):
            names.add(node.name)
    return {name for name in names if not name.startswith("_")}


def test_every_listed_name_resolves():
    assert len(set(poset_ramsey.__all__)) == len(poset_ramsey.__all__)
    for name in poset_ramsey.__all__:
        assert hasattr(poset_ramsey, name), name


def test_every_public_import_is_listed():
    assert _public_names_bound_in_init() == set(poset_ramsey.__all__)
