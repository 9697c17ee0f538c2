"""Batch command line front end.

Three commands:

    toricnash validate --input FILE.json
    toricnash analyze  --input FILE.json [--out REPORT.json] [--order ...]
                       [--family minimal|groebner]
    toricnash examples [--corpus DIR]

Input files are JSON documents with keys "generators" (list of integer
pairs, required), "order" ("lex" or "degrevlex"), "names" (one string per
generator) and "family" ("minimal" or "groebner").  Floats are rejected
outright; coordinates must be exact integers.

Exit codes: 0 success, 1 input parse error or unreadable/unwritable file,
2 validation failure, 3 dichotomy or bundled-example violation.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Optional, Sequence

from .algebra import (
    Binomial,
    TermOrder,
    binomial_str,
    default_names,
    lex_order,
    degrevlex_order,
    monomial_str,
)
from .errors import InvalidExponent, TheoremViolation, ToricNashError
from .ideal import ToricIdeal, same_ideal, toric_ideal
# dim1_selector, search_all_subsets, singular_locus and verify_dichotomy
# are not called here; bench/tracing.py wraps them at this module too
from .nash import (  # noqa: F401
    Analysis,
    OrbitSet,
    analyze,
    dim1_selector,
    monomial_classes,
    nash_ideal,
    nash_ideal_classes,
    search_all_subsets,
    singular_locus,
    verify_dichotomy,
    zero_locus,
)
from .semigroup import ValidatedSemigroup, generator_set, validate

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_VALIDATION = 2
EXIT_VIOLATION = 3


class InputError(Exception):
    """Malformed input document (maps to exit code 1)."""


# --- input parsing -----------------------------------------------------------


@dataclass(frozen=True)
class InputSpec:
    """Parsed analysis request."""

    generators: tuple
    order: str = "lex"
    names: Optional[tuple] = None
    family: str = "minimal"


def _reject_float(text: str):
    raise InputError(f"floating point number {text!r}: inputs must be exact "
                     "integers")


def parse_input(text: str) -> InputSpec:
    try:
        doc = json.loads(text, parse_float=_reject_float)
    except InputError:
        raise
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}")
    if not isinstance(doc, dict):
        raise InputError("top level must be an object")
    allowed = {"generators", "order", "names", "family"}
    unknown = set(doc) - allowed
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
    order = doc.get("order", "lex")
    if order not in ("lex", "degrevlex"):
        raise InputError(f'order must be "lex" or "degrevlex", got {order!r}')
    family = doc.get("family", "minimal")
    if family not in ("minimal", "groebner"):
        raise InputError(
            f'family must be "minimal" or "groebner", got {family!r}')
    names = doc.get("names")
    if names is not None:
        if (not isinstance(names, list)
                or not all(isinstance(s, str) for s in names)):
            raise InputError('"names" must be a list of strings')
        if len(names) != len(gens):
            raise InputError('"names" must have one entry per generator')
        names = tuple(names)
    return InputSpec(tuple(tuple(g) for g in gens), order, names, family)


# --- report ------------------------------------------------------------------


@dataclass
class RunReport:
    """Everything one analysis produced; both output formats render this."""

    spec: InputSpec
    semigroup: ValidatedSemigroup
    names: list
    ideal: ToricIdeal
    analysis: Analysis
    warnings: list = field(default_factory=list)


def _canonical_names(spec: InputSpec, vs: ValidatedSemigroup) -> list:
    if spec.names is None:
        return default_names(vs.l, vs.m, vs.n)
    return [spec.names[vs.permutation[i]] for i in range(vs.N)]


def _term_order(spec: InputSpec, vs: ValidatedSemigroup) -> TermOrder:
    return (lex_order if spec.order == "lex" else degrevlex_order)(vs.N)


def build_report(spec: InputSpec) -> RunReport:
    vs = validate(generator_set(spec.generators))
    ideal = toric_ideal(vs, _term_order(spec, vs))
    a = analyze(ideal, spec.family)
    warnings = []
    if not a.sigma.origin_singular:
        warnings.append("origin is a smooth point; the dichotomy does not "
                        "apply to this input")
    if a.fallbacks:
        warnings.append(f"minor formula fell back to the symbolic "
                        f"determinant {a.fallbacks} times")
    return RunReport(spec, vs, _canonical_names(spec, vs), ideal, a, warnings)


def _orbit_json(o: Optional[OrbitSet]):
    if o is None:
        return None
    return {"O1": o.has_O1, "O2": o.has_O2}


def _binomial_json(b: Binomial, names) -> dict:
    return {"plus": list(b.plus), "minus": list(b.minus),
            "str": binomial_str(b, names)}


def report_json(rep: RunReport) -> dict:
    vs, names, a = rep.semigroup, rep.names, rep.analysis
    subsets = []
    for r in a.reports:
        subsets.append({
            "subset": list(r.subset),
            "rank_ok": r.rank_ok,
            "minors": [{"K": list(sel), "det": det,
                        "exp": list(m.exp), "coeff": m.coeff,
                        "str": monomial_str(m.coeff, m.exp, names)}
                       for sel, det, m in r.minors],
            "zero_locus": _orbit_json(r.zero_locus),
            "equals_sigma": r.equals_sigma,
        })
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
            "minimal_generators": [_binomial_json(b, names)
                                   for b in rep.ideal.minimal_gens],
            "groebner_basis": [_binomial_json(b, names)
                               for b in rep.ideal.gb.elements],
        },
        "sigma": _orbit_json(a.sigma.orbits),
        "origin_singular": a.sigma.origin_singular,
        "ci": {"is_hypersurface": a.is_hypersurface,
               "is_complete_intersection": a.is_complete_intersection},
        "subsets": subsets,
        "verdict": {
            "predicted": a.verdict.predicted,
            "observed": a.verdict.observed,
            "witness": (list(a.verdict.witness)
                        if a.verdict.witness is not None else None),
        },
        "warnings": list(rep.warnings),
    }


def report_text(rep: RunReport) -> str:
    vs, names, a = rep.semigroup, rep.names, rep.analysis
    lines = []
    blocks = " | ".join(
        " ".join(str(tuple(vs.gens.points[i])) for i in idx) or "-"
        for idx in (vs.x_indices, vs.y_indices, vs.z_indices))
    lines.append(f"semigroup: l={vs.l} m={vs.m} n={vs.n} N={vs.N} r={vs.r}")
    lines.append(f"canonical generators: {blocks}")
    lines.append(f"input permutation: {list(vs.permutation)}")
    lines.append(f"term order: {rep.spec.order}")
    lines.append(f"minimal generators (s_min={rep.ideal.s_min}):")
    for b in rep.ideal.minimal_gens:
        lines.append(f"  {binomial_str(b, names)}")
    lines.append(f"groebner basis ({len(rep.ideal.gb.elements)} elements):")
    for b in rep.ideal.gb.elements:
        lines.append(f"  {binomial_str(b, names)}")
    lines.append(f"singular locus: {a.sigma.orbits.describe()}"
                 f" (origin singular: {'yes' if a.sigma.origin_singular else 'no'})")
    lines.append(f"hypersurface: {'yes' if a.is_hypersurface else 'no'}; "
                 f"complete intersection: "
                 f"{'yes' if a.is_complete_intersection else 'no'}")
    valid = [r for r in a.reports if r.rank_ok]
    lines.append(f"subsets: {len(a.reports)} of size r={vs.r} "
                 f"({len(valid)} with full rank)")
    for r in a.reports:
        if not r.rank_ok:
            lines.append(f"  {list(r.subset)}: rank deficient, skipped")
            continue
        mons = ", ".join(monomial_str(m.coeff, m.exp, names)
                         for _, _, m in r.minors)
        eq = "yes" if r.equals_sigma else "no"
        lines.append(f"  {list(r.subset)}: V = {r.zero_locus.describe()}; "
                     f"equals sigma: {eq}")
        lines.append(f"      minors: {mons}")
    lines.append(f"verdict: predicted={a.verdict.predicted} "
                 f"observed={a.verdict.observed}"
                 + (f" witness={list(a.verdict.witness)}"
                    if a.verdict.witness is not None else ""))
    for w in rep.warnings:
        lines.append(f"warning: {w}")
    return "\n".join(lines) + "\n"


# --- bundled example corpus ----------------------------------------------------


def _load_corpus(corpus_dir: Optional[str]) -> list:
    if corpus_dir is not None:
        paths = Path(corpus_dir).glob("*.json")
    else:
        root = resources.files("toricnash").joinpath("fixtures")
        paths = (p for p in root.iterdir() if p.name.endswith(".json"))
    docs = []
    for p in sorted(paths, key=lambda q: q.name):
        try:
            docs.append((p.name, json.loads(p.read_text())))
        except ValueError as exc:  # not UTF-8 or not JSON
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


def _check_fixture(name: str, doc: dict, out) -> list:
    """Run one bundled example; returns a list of mismatch strings."""
    problems = []
    spec = parse_input(json.dumps(
        {k: doc[k] for k in ("generators", "order", "names") if k in doc}))
    exp = doc["expected"]
    vs = validate(generator_set(spec.generators))
    if [vs.l, vs.m, vs.n] != exp["blocks"]:
        problems.append(f"blocks {[vs.l, vs.m, vs.n]} != {exp['blocks']}")
    order = _term_order(spec, vs)
    ideal = toric_ideal(vs, order)
    expected_binomials = _binomials_from_pairs(exp["ideal"], vs.N)
    if not same_ideal(ideal.gb.elements, expected_binomials, order):
        computed = [binomial_str(b, _canonical_names(spec, vs))
                    for b in ideal.gb.elements]
        problems.append(f"ideal mismatch; computed basis {computed}")
    if "s_min" in exp and ideal.s_min != exp["s_min"]:
        problems.append(f"s_min {ideal.s_min} != {exp['s_min']}")
    a = analyze(ideal)
    sig = a.sigma
    if _orbit_json(sig.orbits) != exp["sigma"]:
        problems.append(f"sigma {_orbit_json(sig.orbits)} != {exp['sigma']}")
    if sig.origin_singular != exp.get("origin_singular", True):
        problems.append("origin singularity flag mismatch")
    is_hyp, is_ci = a.is_hypersurface, a.is_complete_intersection
    if "hypersurface" in exp and is_hyp != exp["hypersurface"]:
        problems.append(f"hypersurface flag {is_hyp}")
    if "complete_intersection" in exp and \
            is_ci != exp["complete_intersection"]:
        problems.append(f"complete intersection flag {is_ci}")
    verdict = a.verdict
    if [verdict.predicted, verdict.observed] != \
            [exp["verdict"]["predicted"], exp["verdict"]["observed"]]:
        problems.append(f"verdict {verdict.predicted}/{verdict.observed} != "
                        f"{exp['verdict']}")
    for i, mf in enumerate(exp.get("minor_fixtures", [])):
        rows = _binomials_from_pairs(mf["rows"], vs.N)
        got = nash_ideal_classes(rows, ideal)
        want = _nf_exponents(mf["monomials"], ideal)
        if got != want:
            problems.append(f"minor fixture {i}: classes {sorted(got)} != "
                            f"{sorted(want)}")
    if exp.get("all_rank_valid_equal_sigma"):
        bad = [r.subset for r in a.reports
               if r.rank_ok and not r.equals_sigma]
        if bad:
            problems.append(f"subsets with V != sigma: {bad}")
    if "witness_rows" in exp:
        rows = _binomials_from_pairs(exp["witness_rows"], vs.N)
        locus = zero_locus(nash_ideal(rows, ideal), vs)
        if locus != sig.orbits:
            problems.append("witness rows do not cut out sigma")
    if exp.get("dim1_witness"):
        report = a.dim1_witness(vs)
        if not report.equals_sigma:
            problems.append("constructed witness does not match sigma")
    status = "pass" if not problems else "FAIL"
    print(f"{name}: {status}", file=out)
    for p in problems:
        print(f"  {p}", file=out)
    return problems


def cmd_examples(corpus_dir: Optional[str], out=None) -> int:
    out = out if out is not None else sys.stdout
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
            problems = _check_fixture(name, doc, out)
        except (ToricNashError, KeyError, InputError) as exc:
            print(f"{name}: FAIL ({type(exc).__name__}: {exc})", file=out)
            problems = [str(exc)]
        failures += bool(problems)
    total = len(docs)
    print(f"{total - failures}/{total} examples pass", file=out)
    return EXIT_OK if failures == 0 else EXIT_VIOLATION


# --- commands ------------------------------------------------------------------


def _read_spec(path: str) -> InputSpec:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}")
    return parse_input(text)


def cmd_validate(path: str, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        spec = _read_spec(path)
    except InputError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        vs = validate(generator_set(spec.generators))
    except ToricNashError as exc:
        print(f"validation failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_VALIDATION
    print(f"l={vs.l} m={vs.m} n={vs.n} N={vs.N} r={vs.r}", file=out)
    print("canonical generators: "
          + " ".join(str(tuple(p)) for p in vs.gens.points), file=out)
    print(f"input permutation: {list(vs.permutation)}", file=out)
    return EXIT_OK


def cmd_analyze(path: str, out_path: Optional[str], order: Optional[str],
                family: Optional[str], out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        spec = _read_spec(path)
        if order is not None or family is not None:
            spec = InputSpec(spec.generators, order or spec.order,
                             spec.names, family or spec.family)
    except InputError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        rep = build_report(spec)
    except TheoremViolation as exc:
        print(f"dichotomy violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except ToricNashError as exc:
        print(f"validation failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_VALIDATION
    print(report_text(rep), end="", file=out)
    if out_path:
        try:
            Path(out_path).write_text(
                json.dumps(report_json(rep), indent=2, sort_keys=True) + "\n")
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
    p_an.add_argument("--order", choices=("lex", "degrevlex"),
                      help="override the term order")
    p_an.add_argument("--family", choices=("minimal", "groebner"),
                      help="override the relation family searched")

    p_ex = sub.add_parser("examples", help="run the bundled example corpus")
    p_ex.add_argument("--corpus", help="directory of example JSON files "
                                       "(defaults to the bundled set)")

    args = parser.parse_args(argv)
    if args.command == "validate":
        return cmd_validate(args.input)
    if args.command == "analyze":
        return cmd_analyze(args.input, args.out, args.order, args.family)
    return cmd_examples(args.corpus)


if __name__ == "__main__":
    sys.exit(main())
