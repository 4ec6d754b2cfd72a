"""``smxreg.__all__`` lists exactly the public names ``smxreg/__init__.py``
imports, once each, so an export of a deleted name fails at once."""
import ast
from pathlib import Path

import smxreg


def _imported_names() -> list[str]:
    tree = ast.parse(Path(smxreg.__file__).read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def test_all_has_no_duplicates():
    assert len(smxreg.__all__) == len(set(smxreg.__all__))


def test_every_exported_name_resolves():
    assert [name for name in smxreg.__all__ if not hasattr(smxreg, name)] == []


def test_all_is_the_public_imports():
    public = {name for name in _imported_names() if not name.startswith("_")}
    assert set(smxreg.__all__) == public
