"""Acceptance gate: every shipped capability checked at its contract.

Each test prints one pass line; failures carry enough data to reproduce.
Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.
"""
import itertools
import random
import time

import pytest

import toricnash as tn
from toricnash.algebra import lex_order
from toricnash.errors import TheoremViolation
from toricnash.ideal import buchberger, normal_form
from toricnash.nash import (
    OrbitSet,
    classify_ci,
    dim1_selector,
    minor_monomial_formula,
    minor_symbolic,
    nash_ideal,
    rank,
    search_all_subsets,
    singular_locus,
    subset_minors,
    verify_dichotomy,
    zero_locus,
)

import _support as sup

POP_SEED = 20240817


def _elapsed_ok(t0, budget, label):
    dt = time.monotonic() - t0
    assert dt < budget, f"{label} took {dt:.1f}s, budget {budget}s"
    return dt


def test_criterion_1_ideal_fixture_a(fixture_a):
    t0 = time.monotonic()
    _, ideal = fixture_a
    expected = buchberger(sup.binomials(sup.IDEAL_A), lex_order(4))
    assert ideal.gb.elements == expected.elements
    assert ideal.s_min == 3
    dt = _elapsed_ok(t0, 1.0, "criterion 1")
    print(f"PASS criterion 1: fixture A ideal and s_min=3 ({dt:.3f}s)")


def test_criterion_2_minor_fixtures(fixture_a):
    t0 = time.monotonic()
    _, ideal = fixture_a
    rows = sup.binomials(sup.IDEAL_A)
    for (i, j), printed in (((0, 1), sup.J12), ((0, 2), sup.J13),
                            ((1, 2), sup.J23)):
        got = sup.minor_classes([rows[i], rows[j]], ideal)
        assert got == sup.nf_classes(printed, ideal), \
            f"rows {(i + 1, j + 1)}: {sorted(got)}"
    dt = _elapsed_ok(t0, 1.0, "criterion 2")
    print(f"PASS criterion 2: J12/J13/J23 monomial sets ({dt:.3f}s)")


def test_criterion_3_point_locus_never_equal(fixture_a):
    t0 = time.monotonic()
    _, ideal = fixture_a
    sigma = singular_locus(ideal)
    assert sigma.orbits == OrbitSet(False, False)
    assert sigma.origin_singular
    assert classify_ci(ideal) == (False, False)
    reports = search_all_subsets(ideal)
    assert len(reports) == 3
    assert all(r.rank_ok for r in reports)
    assert not any(r.equals_sigma for r in reports)
    verdict = verify_dichotomy(ideal)
    assert (verdict.predicted, verdict.observed) == \
        ("never_equal", "never_equal")
    dt = _elapsed_ok(t0, 1.0, "criterion 3")
    print(f"PASS criterion 3: fixture A never_equal/never_equal ({dt:.3f}s)")


def test_criterion_4_fixture_b(fixture_b):
    t0 = time.monotonic()
    _, ideal = fixture_b
    expected = buchberger(sup.binomials(sup.IDEAL_B), lex_order(5))
    assert ideal.gb.elements == expected.elements
    assert singular_locus(ideal).orbits == OrbitSet(True, True)
    reports = search_all_subsets(ideal)
    valid = [r for r in reports if r.rank_ok]
    assert valid
    assert all(r.equals_sigma for r in valid)
    verdict = verify_dichotomy(ideal)
    assert (verdict.predicted, verdict.observed) == \
        ("always_equal", "always_equal")
    dt = _elapsed_ok(t0, 30.0, "criterion 4")
    print(f"PASS criterion 4: fixture B ideal, sigma, always_equal over "
          f"{len(valid)} subsets ({dt:.3f}s)")


def test_criterion_5_fixture_c(fixture_c):
    t0 = time.monotonic()
    vs, ideal = fixture_c
    expected = buchberger(sup.binomials(sup.IDEAL_C), lex_order(4))
    assert ideal.gb.elements == expected.elements
    sigma = singular_locus(ideal).orbits
    assert sigma == OrbitSet(False, True)
    rows = sup.binomials(sup.IDEAL_C[:2])
    assert zero_locus(nash_ideal(rows, ideal), vs) == sigma
    witness = dim1_selector(ideal)
    assert witness.equals_sigma
    verdict = verify_dichotomy(ideal)
    assert (verdict.predicted, verdict.observed) == \
        ("exists_equal", "exists_equal")
    dt = _elapsed_ok(t0, 5.0, "criterion 5")
    print(f"PASS criterion 5: fixture C witness rows (1,2), "
          f"exists_equal ({dt:.3f}s)")


def test_criterion_6_formula_oracle_equivalence(
        fixture_a, fixture_b, fixture_c, population):
    t0 = time.monotonic()
    inputs = [fixture_a, fixture_b, fixture_c] + list(population)
    assert len(inputs) >= 53
    pairs_checked = 0
    for vs, ideal in inputs:
        fam = ideal.minimal_gens
        pairs = list(itertools.combinations(range(vs.N), 2))
        gens_repr = [tuple(p) for p in vs.gens.points]
        for subset in itertools.combinations(range(len(fam)), vs.r):
            chosen = [fam[i] for i in subset]
            if rank(chosen) < vs.r:
                continue
            # one evaluation of the subset serves all of its pairs;
            # minor_monomial_formula must read the same entry for one of them
            minors = dict(subset_minors(chosen, ideal)[0])
            sel = pairs[sum(subset) % len(pairs)]
            assert minor_monomial_formula(chosen, sel, ideal) == \
                minors.get(sel), f"{gens_repr} subset {subset} K {sel}"
            for sel in pairs:
                sym = minor_symbolic(chosen, sel, ideal)
                fast = minors.get(sel)
                if fast is None:
                    assert not sym, \
                        f"{gens_repr} subset {subset} K {sel}"
                else:
                    poly = {fast.exp: fast.coeff}
                    assert normal_form(poly, ideal.gb) == sym, \
                        f"{gens_repr} subset {subset} K {sel}"
                pairs_checked += 1
    dt = _elapsed_ok(t0, 300.0, "criterion 6")
    print(f"PASS criterion 6: formula == symbolic oracle on "
          f"{pairs_checked} (subset, K) pairs over {len(inputs)} inputs "
          f"({dt:.1f}s)")


def test_criterion_7_containment(fixture_a, fixture_b, fixture_c,
                                 population):
    inputs = [fixture_a, fixture_b, fixture_c] + list(population)
    subsets_checked = 0
    for vs, ideal in inputs:
        sigma = singular_locus(ideal).orbits
        for report in search_all_subsets(ideal):
            if not report.rank_ok:
                continue
            assert sup.contains(report.zero_locus, sigma), \
                f"{[tuple(p) for p in vs.gens.points]} subset {report.subset}"
            subsets_checked += 1
    print(f"PASS criterion 7: sigma contained in every zero locus "
          f"({subsets_checked} subsets)")


def test_criterion_8_membership_oracle(fixture_a, fixture_b, fixture_c):
    rng = random.Random(99)
    for vs, ideal in (fixture_a, fixture_b, fixture_c):
        for _ in range(500):
            a = tuple(rng.randint(0, 4) for _ in range(vs.N))
            b = tuple(rng.randint(0, 4) for _ in range(vs.N))
            p = {a: 1}
            p[b] = p.get(b, 0) - 1
            member = sup.ideal_member(p, ideal.gb)
            assert member == (sup.pi(vs, a) == sup.pi(vs, b)), \
                f"{[tuple(q) for q in vs.gens.points]}: alpha={a} beta={b}"
    print("PASS criterion 8: membership matches the defining map on "
          "500 pairs per fixture")


def test_criterion_9_dichotomy_sweep(population):
    counts = {}
    for vs, ideal in population:
        assert singular_locus(ideal).origin_singular
        try:
            verdict = verify_dichotomy(ideal)
        except TheoremViolation as exc:
            pytest.fail(
                "dichotomy violated; reproduction bundle: "
                f"generators={[tuple(p) for p in vs.gens.points]} "
                f"seed={POP_SEED} order=lex family=minimal error={exc}")
        assert verdict.predicted == verdict.observed
        counts[verdict.predicted] = counts.get(verdict.predicted, 0) + 1
    assert sum(counts.values()) >= 50
    # the sweep must exercise every in-scope branch of the dichotomy
    for branch in ("always_equal", "exists_equal", "never_equal"):
        assert counts.get(branch, 0) >= 1, f"no {branch} case in population"
    print(f"PASS criterion 9: predicted == observed on "
          f"{sum(counts.values())} inputs {counts}")
