"""Records are named tuples: immutable, equal and hashed by their fields,
checked again by _replace, and importing the package loads no
dataclasses."""
import subprocess
import sys
from pathlib import Path

import pytest

import toricnash as tn
from toricnash.cli import InputError, InputSpec
from toricnash.errors import InvalidGeneratorSet, LengthMismatch

import _support as sup

SRC = Path(__file__).resolve().parent.parent / "src"


def _records():
    """One instance of every public record."""
    vs, ideal = sup.build(sup.FIXTURE_B)
    a = tn.analyze(ideal)
    return [ideal.order, ideal.gb.elements[0], vs.gens, vs.gens.points[0],
            vs, ideal.gb, ideal, a.sigma.orbits, a.sigma, a.witness,
            a.verdict, a, InputSpec(((1, 0), (0, 1)))]


def test_import_loads_no_dataclasses():
    # a fresh interpreter without site, so only the package's own imports
    # count; importlib.resources loads inspect on Python 3.12+
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import toricnash.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code, str(SRC)],
                         capture_output=True, text=True, check=True,
                         timeout=60).stdout
    assert out == "[]\n"


def test_every_public_record_is_listed():
    public = {v for v in vars(tn).values()
              if isinstance(v, type) and issubclass(v, tuple)}
    assert public | {InputSpec} == {type(r) for r in _records()}


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_immutable_and_equal_by_fields(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], record[0])
    copy = type(record)(*record)
    assert copy is not record
    assert copy == record and hash(copy) == hash(record)


def test_repr_names_the_fields():
    assert repr(tn.lex_order(2)) == \
        "TermOrder(kind='lex', nvars=2, weights=None)"
    assert repr(tn.Binomial([1, 0], [0, 1])) == \
        "Binomial(plus=(1, 0), minus=(0, 1))"


@pytest.mark.parametrize("record, change, error", [
    (tn.lex_order(2), {"kind": "grlex"}, ValueError),
    (tn.lex_order(2), {"nvars": -1}, ValueError),
    (tn.Binomial((1, 0), (0, 1)), {"minus": (1, 0)}, ValueError),
    (tn.Binomial((1, 0), (0, 1)), {"plus": (1, -1)}, ValueError),
    (tn.generator_set([(1, 0), (0, 1)]), {"points": ((1, 0), (1, 0))},
     InvalidGeneratorSet),
    (InputSpec(((1, 0), (0, 1))), {"order": "grlex"}, InputError),
    (InputSpec(((1, 0), (0, 1))), {"family": None}, InputError),
    (InputSpec(((1, 0), (0, 1))), {"names": ("a",)}, InputError)],
    ids=["term_order_kind", "term_order_nvars", "binomial_zero",
         "binomial_negative", "generator_set", "input_order", "input_family",
         "input_names"])
def test_replace_checks_as_the_constructor(record, change, error):
    with pytest.raises(error):
        record._replace(**change)


@pytest.mark.parametrize("names", [("a", "b"), ("a", "b", "c", "d")])
def test_input_spec_needs_one_name_per_generator(names):
    with pytest.raises(InputError,
                       match='"names" must have one entry per generator'):
        InputSpec(((1, 0), (1, 1), (1, 2)), "lex", names)


def test_replace_rebuilds_term_order_key():
    order = tn.lex_order(2)._replace(nvars=3)
    assert order.nvars == 3 and order.key((1, 2, 0)) == (1, 2, 0)
    with pytest.raises(LengthMismatch):
        order.key((1, 2))


def test_records_are_tuples_of_their_fields():
    b = tn.Binomial((1, 0), (0, 1))
    plus, minus = b
    assert (plus, minus) == b == ((1, 0), (0, 1))


def test_generator_set_length_counts_points():
    pts = [(1, 0), (1, 1), (1, 2), (1, 3)]
    assert len(tn.generator_set(pts)) == len(pts)
