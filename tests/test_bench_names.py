"""The names the benchmark's tracer wraps exist in the package.

``bench/spans.py`` ``Tracer.wrap`` replaces ``owner.attr`` by a timing
wrapper, found with a bare ``getattr``, for each pair that
``bench/workloads.py`` ``_wrap_layers`` lists.  A rename, or an import
cleanup that drops a re-exported name such as ``smxreg.trainer.softmax``,
would crash every traced benchmark run.  The pairs and the imports that
bind their owners are read from the benchmark's source, so this test
follows its list.
"""
import ast
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


def _smxreg_imports_and_wrapped_pairs():
    tree = ast.parse(WORKLOADS.read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[0] == "smxreg"]
    (wrap_layers,) = [node for node in tree.body if isinstance(node, ast.FunctionDef)
                      and node.name == "_wrap_layers"]
    pairs = [(call.args[0].id, call.args[1].value) for call in ast.walk(wrap_layers)
             if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
             and call.func.attr == "wrap"]
    return imports, pairs


def test_names_the_tracer_wraps_exist():
    imports, pairs = _smxreg_imports_and_wrapped_pairs()
    owners = {}
    exec(compile(ast.Module(body=imports, type_ignores=[]), str(WORKLOADS), "exec"),
         owners)
    assert pairs
    missing = [f"{owner}.{attr}" for owner, attr in pairs
               if not callable(getattr(owners[owner], attr, None))]
    assert missing == []
