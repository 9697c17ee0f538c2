"""Checks that read source files with ast instead of importing them."""
import ast
import importlib
import re
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


def test_no_private_names_imported_across_modules():
    # a name starting with _ is its module's own; a rule that another
    # module of the package needs gets a public name or moves to its one
    # owner
    found = [f"{path.name}:{node.lineno} {alias.name}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.ImportFrom)
             and (node.level or node.module.split(".")[0] == PACKAGE.name)
             for alias in node.names if alias.name.startswith("_")]
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



def test_module_level_names_are_used():
    # a function or class nothing refers to is dead code; a private one
    # must be used by the library itself, not only by the tests
    files = {path: path.read_text().splitlines()
             for top in ("src", "tests", "bench")
             for path in sorted((ROOT / top).rglob("*.py"))}
    unused, private_unused_in_src = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            # the definition itself, decorators included, is no reference
            first = min([node.lineno]
                        + [d.lineno for d in node.decorator_list])
            word = re.compile(rf"\b{node.name}\b")
            users = [where for where, lines in files.items()
                     if any(word.search(line)
                            for i, line in enumerate(lines, 1)
                            if where != path
                            or not first <= i <= node.end_lineno)]
            if not users:
                unused.append(node.name)
            elif node.name.startswith("_") and not any(
                    PACKAGE.parent in where.parents for where in users):
                private_unused_in_src.append(node.name)
    assert unused == []
    assert private_unused_in_src == []


def test_choice_names_listed_once():
    # the term order names and the family names are listed together in a
    # literal only in the table that owns them, so a new order or family
    # is added in one place; every other site reads the table
    owners = {("lex", "degrevlex"): ("algebra.py", "ORDERS"),
              ("minimal", "groebner"): ("nash.py", "FAMILIES")}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        assigned = {id(node.value): node.targets[0].id for node in tree.body
                    if isinstance(node, ast.Assign)
                    and isinstance(node.targets[0], ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
                items = node.elts
            elif isinstance(node, ast.Dict):
                items = node.keys
            else:
                continue
            strings = {item.value for item in items
                       if isinstance(item, ast.Constant)}
            where = assigned.get(id(node), f"line {node.lineno}")
            found += [(names, path.name, where)
                      for names in owners if strings.issuperset(names)]
    assert sorted(found) == sorted(
        (names, *owner) for names, owner in owners.items())


def test_internal_messages_raised_once():
    # each literal message of the library's own check errors has one
    # raise, so a report of the error says which check fired
    kinds = ("InvariantViolation", "TheoremViolation", "NonMonomialResidue")
    sites = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and getattr(node.exc.func, "id", None) in kinds
                    and node.exc.args
                    and isinstance(node.exc.args[0], ast.Constant)):
                sites.setdefault(node.exc.args[0].value, []).append(
                    f"{path.name}:{node.lineno}")
    assert sites
    assert {m: s for m, s in sites.items() if len(s) > 1} == {}


def test_text_io_names_its_encoding():
    # JSON is UTF-8 (RFC 8259); a text-mode open, read_text or write_text
    # without encoding= uses the locale's encoding instead
    calls = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            func = getattr(node, "func", None)
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name not in ("open", "read_text", "write_text"):
                continue
            mode = ([k.value for k in node.keywords if k.arg == "mode"]
                    + node.args[1:2])
            if name == "open" and mode and "b" in ast.literal_eval(mode[0]):
                continue
            calls.append((f"{path.name}:{node.lineno} {name}",
                          any(k.arg == "encoding" for k in node.keywords)))
    assert calls
    assert [where for where, named in calls if not named] == []


def test_reducer_rows_read_in_ideal_only():
    # the reducer-row format (i, plus[i], plus, minus - plus) is ideal's
    # own: every other module rewrites through ideal.monomial_nf, so one
    # rule picks the first dividing row everywhere
    readers = {path.name
               for path in sorted(PACKAGE.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, (ast.For, ast.comprehension))
               and "reducers" in (getattr(node.iter, "id", None),
                                  getattr(node.iter, "attr", None))}
    assert readers == {"ideal.py"}
