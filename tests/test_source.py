"""Checks that read source files with ast instead of importing them."""
import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "toricnash"


def test_no_assert_statements():
    # python -O strips assert statements; a library check must raise
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_bench_bindings_resolve():
    # bench/tracing.py wraps these names; a deleted one breaks the bench
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    (bindings,) = [ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets
                        if isinstance(t, ast.Name)] == ["BINDINGS"]]
    assert bindings
    for module, attr, _ in bindings:
        mod = importlib.import_module(f"toricnash.{module}")
        assert callable(getattr(mod, attr, None)), f"{module}.{attr}"
