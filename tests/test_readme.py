"""README's "Library" example runs, and the package exports what it
documents: the symbolic oracle and the one-field readers stay module
names, and the names a minor's old record form needed are gone."""
import importlib
import re
import warnings
from pathlib import Path

import pytest

import toricnash as tn

README = Path(__file__).resolve().parent.parent / "README.md"

# the symbolic oracle, minor_monomial_formula and the four readers that
# each rerun analyze for one field, by the module that defines them
UNEXPORTED = [("algebra", "derivative"), ("algebra", "determinant"),
              ("ideal", "normal_form"), ("nash", "rank"),
              ("nash", "minor_symbolic"), ("nash", "minor_monomial_formula"),
              ("nash", "singular_locus"), ("nash", "search_all_subsets"),
              ("nash", "dim1_selector"), ("nash", "verify_dichotomy")]

# a minor has one form, the (selection, coefficient, exponent) triple: the
# record, the reader that wrapped subset_minors and its error went; the
# singular locus is one OrbitSet, without a record around it; a generator
# set is its points, without a record around them
REMOVED = [("algebra", "Monomial"), ("nash", "nash_ideal"),
           ("errors", "RankDeficient"), ("nash", "SingularLocus"),
           ("semigroup", "generator_set"), ("algebra", "lex_order"),
           ("algebra", "degrevlex_order"), ("semigroup", "GeneratorSet")]


def _library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"^```python\n(.*?)^```$", section, re.M | re.S)
    return block


def test_library_example_runs():
    # warnings are errors, as in the tier-1 run; a removed or renamed name
    # raises AttributeError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(_library_block(), str(README), "exec"), {})


def test_every_package_name_in_readme_exists():
    names = set(re.findall(r"\btn\.(\w+)", README.read_text(encoding="utf-8")))
    assert {"analyze", "predict", "subset_minors", "toric_ideal",
            "validate", "zero_locus"} <= names
    assert sorted(n for n in names if not hasattr(tn, n)) == []


def test_record_list_names_every_public_record():
    # the names in "Every record (...)" are the package's named-tuple types
    # and cli.InputSpec, the set test_records' _records() covers
    text = " ".join(README.read_text(encoding="utf-8").split())
    listed = text.split("Every record (", 1)[1].split(")", 1)[0]
    public = {v.__name__ for v in vars(tn).values()
              if isinstance(v, type) and issubclass(v, tuple)}
    assert set(re.findall(r"`([\w.]+)`", listed)) == \
        public | {"cli.InputSpec"}


@pytest.mark.parametrize("module, name", UNEXPORTED,
                         ids=[name for _, name in UNEXPORTED])
def test_oracle_and_readers_not_exported(module, name):
    # README names each by its module, never as a package name
    readme = README.read_text(encoding="utf-8")
    assert f"`{module}.{name}`" in readme
    assert f"`{name}`" not in readme and f"tn.{name}" not in readme
    assert not hasattr(tn, name)
    assert callable(getattr(importlib.import_module(f"toricnash.{module}"),
                            name))


@pytest.mark.parametrize("module, name", REMOVED,
                         ids=[name for _, name in REMOVED])
def test_removed_names_gone(module, name):
    assert not hasattr(tn, name)
    assert not hasattr(importlib.import_module(f"toricnash.{module}"), name)


def test_validate_steps_not_exported():
    # validate's cone and lattice steps take the points it has read, so
    # they stay semigroup module functions, not package names
    from toricnash import semigroup
    for name in ("compute_cone_rays", "check_generates_Z2"):
        assert not hasattr(tn, name)
        assert callable(getattr(semigroup, name))
