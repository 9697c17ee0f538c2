"""Batch command line front end.

Three commands:

    toricnash validate --input FILE.json
    toricnash analyze  --input FILE.json [--out REPORT.json] [--order ...]
                       [--family minimal|groebner]
    toricnash examples [--corpus DIR]

Input files are UTF-8 JSON documents with keys "generators" (list of
integer pairs, required), "order" ("lex" or "degrevlex"), "names" (one
string per generator) and "family" ("minimal" or "groebner").  Floats
are rejected outright; coordinates must be exact integers.  The names are
printed in the relations and minors, so each must be distinct and a
Python identifier (str.isidentifier(): no leading digit, which would read
as a coefficient, and no whitespace or operator such as * / ^ + -).

Exit codes: 0 success, 1 usage error, input parse error or
unreadable/unwritable file, 2 validation failure, 3 dichotomy or
bundled-example violation.  main maps every failure to its exit code and
stderr line: the commands raise InputError (1), TheoremViolation (3) or
another ToricNashError (2).  Only the failures with a message of their
own are handled where they happen: an unwritable --out, an unreadable or
empty corpus and a failing example.  analyze writes --out before its
text.  A stdout closed at start or during the run exits 1 without a
message; text its encoding cannot hold prints as backslash escapes.
Every string a report prints is made here.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from collections import namedtuple
from pathlib import Path
from typing import Optional, Sequence

from .algebra import ORDERS, Binomial
from .errors import InvalidExponent, TheoremViolation, ToricNashError
from .ideal import ToricIdeal, buchberger, toric_ideal
# dim1_selector, search_all_subsets, singular_locus and verify_dichotomy
# are not called here; bench/tracing.py wraps them at this module too
from .nash import (  # noqa: F401
    FAMILIES,
    Analysis,
    OrbitSet,
    analyze,
    dim1_selector,
    monomial_classes,
    search_all_subsets,
    singular_locus,
    subset_minors,
    verify_dichotomy,
    zero_locus,
)
from .semigroup import ValidatedSemigroup, validate

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_VALIDATION = 2
EXIT_VIOLATION = 3


class InputError(Exception):
    """Malformed input document (maps to exit code 1)."""


# --- input parsing -----------------------------------------------------------


class InputSpec(namedtuple("InputSpec", "generators order names family")):
    """Parsed analysis request; its fields are the input keys, which
    build_report passes on as they are.  InputError is raised for
    generators that are not a non-empty list or tuple, an order or family
    that is not a name in ORDERS or FAMILIES (also when not a string), and
    names that are not a list or tuple of distinct strings with one per
    generator.  names and each list pair of generators are stored as
    tuples, so a spec hashes."""

    __slots__ = ()

    def __new__(cls, generators, order="lex", names=None, family="minimal"):
        if not isinstance(generators, (list, tuple)) or not generators:
            raise InputError('"generators" must be a non-empty list')
        for key, value, choices in (("order", order, ORDERS),
                                    ("family", family, FAMILIES)):
            if not (isinstance(value, str) and value in choices):
                quoted = " or ".join(f'"{name}"' for name in choices)
                raise InputError(f"{key} must be {quoted}, got {value!r}")
        if names is not None:
            if (not isinstance(names, (list, tuple))
                    or not all(isinstance(s, str) for s in names)):
                raise InputError('"names" must be a list of strings')
            if len(names) != len(generators):
                raise InputError('"names" must have one entry per generator')
            if len(set(names)) != len(names):
                raise InputError('"names" must be distinct')
            names = tuple(names)
        generators = tuple(tuple(g) if type(g) is list and len(g) == 2 else g
                           for g in generators)
        return super().__new__(cls, generators, order, names, family)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks


def _reject_float(text: str):
    raise InputError(f"floating point number {text!r}: inputs must be exact "
                     "integers")


def parse_input(text: str) -> InputSpec:
    try:
        doc = json.loads(text, parse_float=_reject_float)
    except InputError:
        raise
    except (ValueError, RecursionError) as exc:  # bad or deep JSON, huge int
        raise InputError(f"invalid JSON: {exc}")
    if not isinstance(doc, dict):
        raise InputError("top level must be an object")
    unknown = set(doc) - set(InputSpec._fields)
    if unknown:
        raise InputError(f"unknown keys: {sorted(unknown)}")
    gens = doc.get("generators")
    if not isinstance(gens, list) or not gens:
        raise InputError('"generators" must be a non-empty list')
    for g in gens:
        if (not isinstance(g, list) or len(g) != 2
                or not all(isinstance(c, int) and not isinstance(c, bool)
                           for c in g)):
            raise InputError(f"generator {g!r} is not an integer pair")
    spec = InputSpec(**doc)  # InputSpec's defaults for absent keys
    for name in spec.names or ():
        if not name.isidentifier():
            raise InputError(f'"names" entry {name!r} is not an identifier')
    return spec


# --- report ------------------------------------------------------------------


def monomial_str(exp: tuple, names: Sequence[str]) -> str:
    """x^exp over names, as name or name^e factors joined by *; "1" for
    the zero exponent."""
    return "*".join([name if e == 1 else f"{name}^{e}"
                     for name, e in zip(names, exp) if e]) or "1"


class RunReport:
    """Everything one analysis produced; both output formats render this.

    bodies maps each exponent rendered so far, a minor's or a binomial
    side's, to monomial_str(exp, names), once for both outputs."""

    def __init__(self, spec: InputSpec, names: list, ideal: ToricIdeal,
                 analysis: Analysis, warnings: Sequence[str] = ()):
        self.spec, self.names, self.ideal = spec, names, ideal
        self.analysis, self.warnings = analysis, list(warnings)
        self.bodies: dict = {}

    def body(self, exp: tuple) -> str:
        """monomial_str(exp, names), from bodies."""
        body = self.bodies.get(exp)
        if body is None:
            body = self.bodies[exp] = monomial_str(exp, self.names)
        return body

    def binomial_str(self, b: Binomial) -> str:
        """x^plus - x^minus, its two sides read from bodies."""
        return f"{self.body(b.plus)} - {self.body(b.minus)}"

    def minor_str(self, coeff: int, exp: tuple) -> str:
        """The body of exp alone for the coefficient 1, -body for -1,
        coeff*body otherwise.  No minor is constant (analyze's zero_locus
        check refuses one), so no body is a bare "1"."""
        body = self.body(exp)
        return (body if coeff == 1 else
                f"-{body}" if coeff == -1 else f"{coeff}*{body}")


def _canonical_names(spec: InputSpec, vs: ValidatedSemigroup) -> list:
    """The input's names in canonical variable order, by default x1..xl,
    y1..ym, z1..zn."""
    if spec.names is None:
        return [f"{block}{i + 1}"
                for block, size in zip("xyz", (vs.l, vs.m, vs.n))
                for i in range(size)]
    return [spec.names[vs.permutation[i]] for i in range(vs.N)]


def build_report(spec: InputSpec) -> RunReport:
    ideal = toric_ideal(validate(spec.generators), spec.order)
    a = analyze(ideal, spec.family)
    fallbacks = sum(r.fallbacks for r in a.reports)
    warnings = ([f"minor formula fell back to the symbolic determinant "
                 f"{fallbacks} times"] if fallbacks else [])
    return RunReport(spec, _canonical_names(spec, ideal.semigroup), ideal, a,
                     warnings)


def _orbit_json(o: Optional[OrbitSet]):
    if o is None:
        return None
    return {"O1": o.has_O1, "O2": o.has_O2}


def _orbit_text(o: OrbitSet) -> str:
    """The closures in o, then the origin, joined by " u "."""
    return " u ".join([name for name, has in (("closure(O1)", o.has_O1),
                                              ("closure(O2)", o.has_O2))
                       if has] + ["{0}"])


def _binomial_json(b: Binomial, rep: RunReport) -> dict:
    return {"plus": list(b.plus), "minus": list(b.minus),
            "str": rep.binomial_str(b)}


def report_json(rep: RunReport) -> dict:
    """The JSON report.  "subset", "K" and "exp" are tuples of the
    analysis and its minors, which json writes as arrays; a minimal
    generator's entry is its "groebner_basis" entry, rendered once."""
    return _document(rep, [{
        "subset": r.subset,
        "rank_ok": r.rank_ok,
        "minors": [{"K": sel, "det": coeff, "exp": exp, "coeff": coeff,
                    "str": rep.minor_str(coeff, exp)}
                   for sel, coeff, exp in minors],
        "zero_locus": _orbit_json(r.zero_locus),
        "equals_sigma": r.equals_sigma,
    } for r, minors in zip(rep.analysis.reports, rep.analysis.minors())])


def _document(rep: RunReport, subsets: list) -> dict:
    """report_json(rep) with subsets as its "subsets"."""
    vs, a = rep.ideal.semigroup, rep.analysis
    basis = {b: _binomial_json(b, rep) for b in rep.ideal.gb.elements}
    return {
        "input": {
            "generators": [list(g) for g in rep.spec.generators],
            "order": rep.spec.order,
            "family": rep.spec.family,
            "names": list(rep.spec.names) if rep.spec.names else None,
        },
        "semigroup": {
            "l": vs.l, "m": vs.m, "n": vs.n, "N": vs.N, "r": vs.r,
            "permutation": list(vs.permutation),
            "canonical_generators": [list(p) for p in vs.gens.points],
        },
        "ideal": {
            "order": rep.spec.order,
            "s_min": rep.ideal.s_min,
            "minimal_generators": [basis[b] for b in rep.ideal.minimal_gens],
            "groebner_basis": list(basis.values()),
        },
        "sigma": _orbit_json(a.sigma),
        "origin_singular": True,  # always, as OrbitSet says
        "ci": {"is_hypersurface": a.verdict.is_hypersurface,
               "is_complete_intersection": a.verdict.is_complete_intersection},
        "subsets": subsets,
        "verdict": {
            "predicted": a.verdict.predicted,
            "observed": a.verdict.observed,
            "witness": a.witness and list(a.witness.subset),
        },
        "warnings": list(rep.warnings),
    }


_LITERALS = {True: "true", False: "false", None: "null"}


def _json_ints(values: tuple, pad: str) -> str:
    """json.dumps(values, indent=2) of a non-empty tuple of ints, its
    items at the indent pad and its "]" two spaces left of them."""
    return ("[\n" + pad + (",\n" + pad).join(map(str, values)) + "\n"
            + pad[2:] + "]")


def write_report_json(rep: RunReport, fh) -> None:
    """Write json.dumps(report_json(rep), indent=2, sort_keys=True) and a
    newline to fh, one subset entry at a time, so the document is never
    held whole; an analysis lists at least one subset.  Everything but
    the entries goes through json.dumps, and so does each minor's "str";
    the text of each distinct (selection, coefficient, exponent) minor is
    made once."""
    head, tail = json.dumps(_document(rep, []), indent=2,
                            sort_keys=True).split('"subsets": []')
    a, made = rep.analysis, {}
    fh.write(head + '"subsets": [')
    sep = "\n"
    for r, minors in zip(a.reports, a.minors()):
        texts = []
        for minor in minors:
            text = made.get(minor)
            if text is None:
                sel, coeff, exp = minor
                text = made[minor] = (
                    '        {\n          "K": '
                    f'{_json_ints(sel, " " * 12)},\n'
                    f'          "coeff": {coeff},\n'
                    f'          "det": {coeff},\n'
                    f'          "exp": {_json_ints(exp, " " * 12)},\n'
                    f'          "str": {json.dumps(rep.minor_str(coeff, exp))}'
                    "\n        }")
            texts.append(text)
        o = r.zero_locus
        locus = "null" if o is None else (
            f'{{\n        "O1": {_LITERALS[o.has_O1]},\n'
            f'        "O2": {_LITERALS[o.has_O2]}\n      }}')
        listed = ("[\n" + ",\n".join(texts) + "\n      ]") if texts else "[]"
        fh.write(f'{sep}    {{\n'
                 f'      "equals_sigma": {_LITERALS[r.equals_sigma]},\n'
                 f'      "minors": {listed},\n'
                 f'      "rank_ok": {_LITERALS[r.rank_ok]},\n'
                 f'      "subset": {_json_ints(r.subset, " " * 8)},\n'
                 f'      "zero_locus": {locus}\n'
                 "    }")
        sep = ",\n"
    fh.write("\n  ]" + tail + "\n")


def _text_lines(rep: RunReport):
    """The lines of report_text(rep), each with its newline, as they are
    made."""
    vs, a = rep.ideal.semigroup, rep.analysis
    blocks = " | ".join(
        " ".join(str(tuple(vs.gens.points[i])) for i in idx) or "-"
        for idx in (vs.x_indices, vs.y_indices, vs.z_indices))
    yield f"semigroup: l={vs.l} m={vs.m} n={vs.n} N={vs.N} r={vs.r}\n"
    yield f"canonical generators: {blocks}\n"
    yield f"input permutation: {list(vs.permutation)}\n"
    yield f"term order: {rep.spec.order}\n"
    yield f"minimal generators (s_min={rep.ideal.s_min}):\n"
    for b in rep.ideal.minimal_gens:
        yield f"  {rep.binomial_str(b)}\n"
    yield f"groebner basis ({len(rep.ideal.gb.elements)} elements):\n"
    for b in rep.ideal.gb.elements:
        yield f"  {rep.binomial_str(b)}\n"
    yield (f"singular locus: {_orbit_text(a.sigma)}"
           " (origin singular: yes)\n")
    v = a.verdict
    yield (f"hypersurface: {'yes' if v.is_hypersurface else 'no'}; "
           f"complete intersection: "
           f"{'yes' if v.is_complete_intersection else 'no'}\n")
    valid = [r for r in a.reports if r.rank_ok]
    yield (f"subsets: {len(a.reports)} of size r={vs.r} "
           f"({len(valid)} with full rank)\n")
    for r, minors in zip(a.reports, a.minors()):
        if not r.rank_ok:
            yield f"  {list(r.subset)}: rank deficient, skipped\n"
            continue
        mons = ", ".join(rep.minor_str(coeff, exp) for _, coeff, exp in minors)
        eq = "yes" if r.equals_sigma else "no"
        yield (f"  {list(r.subset)}: V = {_orbit_text(r.zero_locus)}; "
               f"equals sigma: {eq}\n")
        yield f"      minors: {mons}\n"
    yield (f"verdict: predicted={a.verdict.predicted} "
           f"observed={a.verdict.observed}"
           + (f" witness={list(a.witness.subset)}" if a.witness else "")
           + "\n")
    for w in rep.warnings:
        yield f"warning: {w}\n"


def report_text(rep: RunReport) -> str:
    return "".join(_text_lines(rep))


# --- bundled example corpus ----------------------------------------------------


def _load_corpus(corpus_dir: Optional[str]) -> list:
    """(name, document) for each *.json in corpus_dir, by default the
    fixtures directory beside this module, in name order."""
    if corpus_dir is None:
        corpus_dir = Path(__file__).with_name("fixtures")
    if not Path(corpus_dir).is_dir():
        raise InputError(f"{corpus_dir}: not a directory")
    docs = []
    for p in sorted(Path(corpus_dir).glob("*.json")):
        try:
            docs.append((p.name, json.loads(p.read_text(encoding="utf-8"))))
        except (ValueError, RecursionError) as exc:  # not UTF-8 or JSON, deep
            raise InputError(f"{p.name}: {exc}")
    return docs


def _exponents(e, nvars: int) -> tuple:
    """e as an exponent vector: a list of nvars non-negative integers."""
    if not (isinstance(e, list) and len(e) == nvars
            and all(type(x) is int and x >= 0 for x in e)):
        raise InvalidExponent(
            f"{e!r} is not a list of {nvars} non-negative integers")
    return tuple(e)


def _binomials_from_pairs(pairs, nvars: int) -> list:
    if not (isinstance(pairs, list) and all(
            isinstance(p, list) and len(p) == 2 and p[0] != p[1]
            for p in pairs)):
        raise InvalidExponent(
            f"{pairs!r} is not a list of pairs of distinct exponent vectors")
    return [Binomial(_exponents(plus, nvars), _exponents(minus, nvars))
            for plus, minus in pairs]


def _nf_exponents(exps, ideal) -> frozenset:
    if not isinstance(exps, list):
        raise InvalidExponent(f"{exps!r} is not a list of exponent vectors")
    return monomial_classes([_exponents(e, ideal.semigroup.N) for e in exps],
                            ideal)


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise InputError(f"{what} is not an object")
    return value


def _check_fixture(name: str, doc) -> list:
    """Run one bundled example through build_report; returns a list of
    mismatch strings.  InputError when doc, its "expected" or "verdict"
    entry or a minor fixture is not an object, or "minor_fixtures" is not a
    list."""
    exp = _object(_object(doc, "example document")["expected"], '"expected"')
    rep = build_report(parse_input(json.dumps(
        {key: doc[key] for key in InputSpec._fields if key in doc})))
    ideal, a = rep.ideal, rep.analysis
    vs, sig, v = ideal.semigroup, a.sigma, a.verdict
    # blocks, sigma and verdict are required (KeyError), origin_singular
    # defaults to True, the rest are compared when given, as JSON (true != 1)
    exp_verdict = _object(exp["verdict"], '"verdict"')
    expected = {"origin_singular": True, **exp, "blocks": exp["blocks"],
                "sigma": exp["sigma"], "verdict": [exp_verdict["predicted"],
                                                   exp_verdict["observed"]]}
    actual = {"blocks": [vs.l, vs.m, vs.n], "s_min": ideal.s_min,
              "sigma": _orbit_json(sig), "origin_singular": True,
              "hypersurface": v.is_hypersurface,
              "complete_intersection": v.is_complete_intersection,
              "verdict": [v.predicted, v.observed]}
    problems = [f"{key} {value} != {expected[key]}"
                for key, value in actual.items() if key in expected
                and json.dumps(value, sort_keys=True)
                != json.dumps(expected[key], sort_keys=True)]
    flags = {key: exp.get(key, False)
             for key in ("all_rank_valid_equal_sigma", "dim1_witness")}
    problems += [f"{key} {json.dumps(value)} is not true or false"
                 for key, value in flags.items() if type(value) is not bool]
    expected_binomials = _binomials_from_pairs(exp["ideal"], vs.N)
    if buchberger(expected_binomials, ideal.order).elements != \
            ideal.gb.elements:
        computed = [rep.binomial_str(b) for b in ideal.gb.elements]
        problems.append(f"ideal mismatch; computed basis {computed}")
    minor_fixtures = exp.get("minor_fixtures", [])
    if not isinstance(minor_fixtures, list):
        raise InputError('"minor_fixtures" is not a list')
    for i, mf in enumerate(minor_fixtures):
        mf = _object(mf, f"minor fixture {i}")
        rows = _binomials_from_pairs(mf["rows"], vs.N)
        got = monomial_classes(
            [exp for _, _, exp in subset_minors(rows, ideal)[0]], ideal)
        want = _nf_exponents(mf["monomials"], ideal)
        if got != want:
            problems.append(f"minor fixture {i}: classes {sorted(got)} != "
                            f"{sorted(want)}")
    if flags["all_rank_valid_equal_sigma"] is True:
        bad = [r.subset for r in a.reports
               if r.rank_ok and not r.equals_sigma]
        if bad:
            problems.append(f"subsets with V != sigma: {bad}")
    if "witness_rows" in exp:
        rows = _binomials_from_pairs(exp["witness_rows"], vs.N)
        minors = subset_minors(rows, ideal)[0]
        if not minors or zero_locus(minors, vs) != sig:
            problems.append("witness rows do not cut out sigma")
    if flags["dim1_witness"] is True:
        a.dim1_witness()  # SigmaDimensionError unless sigma is a curve
    status = "pass" if not problems else "FAIL"
    print(f"{name}: {status}")
    for p in problems:
        print(f"  {p}")
    return problems


def cmd_examples(corpus_dir: Optional[str]) -> int:
    try:
        docs = _load_corpus(corpus_dir)
    except (OSError, InputError) as exc:
        print(f"cannot read corpus: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if not docs:
        print("no example documents found", file=sys.stderr)
        return EXIT_PARSE
    failures = 0
    for name, doc in docs:
        try:
            problems = _check_fixture(name, doc)
        except (ToricNashError, KeyError, InputError) as exc:
            print(f"{name}: FAIL ({type(exc).__name__}: {exc})")
            problems = [str(exc)]
        failures += bool(problems)
    total = len(docs)
    print(f"{total - failures}/{total} examples pass")
    return EXIT_OK if failures == 0 else EXIT_VIOLATION


# --- commands ------------------------------------------------------------------


def _read_spec(path: str) -> InputSpec:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}")
    return parse_input(text)


def cmd_validate(path: str) -> int:
    vs = validate(_read_spec(path).generators)
    print(f"l={vs.l} m={vs.m} n={vs.n} N={vs.N} r={vs.r}")
    print("canonical generators: "
          + " ".join(str(tuple(p)) for p in vs.gens.points))
    print(f"input permutation: {list(vs.permutation)}")
    return EXIT_OK


def cmd_analyze(path: str, out_path: Optional[str], order: Optional[str],
                family: Optional[str]) -> int:
    """--out first, then the text, which a closed stdout can cut short."""
    spec = _read_spec(path)
    rep = build_report(spec._replace(order=order or spec.order,
                                     family=family or spec.family))
    status = _write_out(rep, out_path)
    for line in _text_lines(rep):
        print(line, end="")
    return status


def _write_out(rep: RunReport, out_path: Optional[str]) -> int:
    """write_report_json to out_path, if given; on an OSError one cannot-write
    line and EXIT_PARSE.  A failure after the open removes a regular file."""
    if out_path is None:
        return EXIT_OK
    try:
        fh = open(out_path, "w", encoding="utf-8")
        try:
            with fh:
                write_report_json(rep, fh)
        except BaseException:
            if Path(out_path).is_file():
                Path(out_path).unlink()
            raise
    except OSError as exc:
        print(f"cannot write {out_path}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    return EXIT_OK


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="toricnash",
        description="Exact Nash-blowup minor ideal analysis of toric "
                    "surfaces")
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="validate a generator set")
    p_val.add_argument("--input", required=True, help="input JSON file")

    p_an = sub.add_parser("analyze", help="run the full analysis")
    p_an.add_argument("--input", required=True, help="input JSON file")
    p_an.add_argument("--out", help="write a JSON report here")
    p_an.add_argument("--order", choices=ORDERS,
                      help="override the term order")
    p_an.add_argument("--family", choices=FAMILIES,
                      help="override the relation family searched")

    p_ex = sub.add_parser("examples", help="run the bundled example corpus")
    p_ex.add_argument("--corpus", help="directory of example JSON files "
                                       "(defaults to the bundled set)")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
        return EXIT_PARSE if exc.code else EXIT_OK
    try:
        if hasattr(sys.stdout, "reconfigure"):  # None when fd 1 is closed
            sys.stdout.reconfigure(errors="backslashreplace")
        if args.command == "validate":
            status = cmd_validate(args.input)
        elif args.command == "analyze":
            status = cmd_analyze(args.input, args.out, args.order, args.family)
        else:
            status = cmd_examples(args.corpus)
        if sys.stdout is None:  # fd 1 was closed at start; print wrote nothing
            return EXIT_PARSE
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return status
    except BrokenPipeError:
        # stdout was closed: send the flush at exit to os.devnull
        with contextlib.suppress(AttributeError, OSError), \
                open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return EXIT_PARSE
    except InputError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except TheoremViolation as exc:
        print(f"dichotomy violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except ToricNashError as exc:
        print(f"validation failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
