"""``smxreg.__all__`` lists exactly the public names ``smxreg/__init__.py``
imports, once each, so an export of a deleted name fails at once; and
README's library sketch imports only names that exist."""
import ast
import importlib
import re
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


def readme_library_sketch() -> str:
    """The ``python`` block under README's ``## Library sketch``."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = text.split("\n## Library sketch\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_sketch_imports_names_that_exist():
    source = readme_library_sketch()
    compile(source, "README.md", "exec")
    tree = ast.parse(source)
    imports = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "smxreg"
               for alias in node.names]
    assert imports
    assert [f"{module}.{name}" for module, name in imports
            if not hasattr(importlib.import_module(module), name)] == []
