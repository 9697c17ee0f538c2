import itertools
import json
from collections import Counter
from math import comb

import pytest

from toricnash import nash
from toricnash.cli import (
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VALIDATION,
    EXIT_VIOLATION,
    InputError,
    InputSpec,
    build_report,
    main,
    parse_input,
    report_json,
    report_text,
)

import _support as sup


def write_input(tmp_path, doc, name="input.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


class TestParseInput:
    def test_minimal_document(self):
        spec = parse_input('{"generators": [[1, 0], [1, 1], [1, 2]]}')
        assert spec.generators == ((1, 0), (1, 1), (1, 2))
        assert spec.order == "lex"
        assert spec.family == "minimal"

    def test_floats_rejected(self):
        with pytest.raises(InputError):
            parse_input('{"generators": [[1.0, 0], [1, 1]]}')

    def test_bad_order(self):
        with pytest.raises(InputError):
            parse_input('{"generators": [[1, 0]], "order": "grlex"}')

    def test_names_length(self):
        with pytest.raises(InputError):
            parse_input('{"generators": [[1, 0], [0, 1]], "names": ["x"]}')

    def test_unknown_key(self):
        with pytest.raises(InputError):
            parse_input('{"generators": [[1, 0]], "extra": 1}')

    def test_not_json(self):
        with pytest.raises(InputError):
            parse_input("generators = 1")


class TestValidateCommand:
    def test_fixture_a(self, tmp_path, capsys):
        path = write_input(tmp_path, {"generators": sup.FIXTURE_A})
        assert main(["validate", "--input", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "l=1 m=2 n=1 N=4 r=2" in out

    def test_not_minimal(self, tmp_path, capsys):
        path = write_input(tmp_path,
                           {"generators": [[1, 0], [2, 0], [0, 1]]})
        assert main(["validate", "--input", path]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "NotMinimal" in err and "(2, 0)" in err

    def test_single_generator(self, tmp_path, capsys):
        path = write_input(tmp_path, {"generators": [[1, 0]]})
        assert main(["validate", "--input", path]) == EXIT_VALIDATION
        assert "ConeNotTwoDimensional" in capsys.readouterr().err

    def test_malformed(self, tmp_path, capsys):
        path = write_input(tmp_path, {"generators": "nope"})
        assert main(["validate", "--input", path]) == EXIT_PARSE

    def test_missing_file(self, capsys):
        assert main(["validate", "--input", "/nonexistent.json"]) == \
            EXIT_PARSE

    def test_non_utf8_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"generators": [[1, 0]], "names": ["\xe9"]}')
        assert main(["validate", "--input", str(path)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("parse error: cannot read")
        assert err.count("\n") == 1


class TestAnalyzeCommand:
    def test_fixture_a_report(self, tmp_path, capsys):
        path = write_input(
            tmp_path,
            {"generators": sup.FIXTURE_A,
             "names": ["x1", "x2", "x3", "x4"]})
        out_path = tmp_path / "report.json"
        code = main(["analyze", "--input", path, "--out", str(out_path)])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "predicted=never_equal observed=never_equal" in text
        assert "s_min=3" in text
        doc = json.loads(out_path.read_text())
        assert doc["verdict"] == {"predicted": "never_equal",
                                  "observed": "never_equal",
                                  "witness": None}
        assert doc["ideal"]["s_min"] == 3
        assert doc["sigma"] == {"O1": False, "O2": False}
        assert len(doc["subsets"]) == 3

    def test_fixture_b_verdict(self, tmp_path, capsys):
        path = write_input(tmp_path, {"generators": sup.FIXTURE_B})
        assert main(["analyze", "--input", path]) == EXIT_OK
        assert "predicted=always_equal" in capsys.readouterr().out

    def test_fixture_c_witness(self, tmp_path, capsys):
        path = write_input(tmp_path, {"generators": sup.FIXTURE_C})
        assert main(["analyze", "--input", path]) == EXIT_OK
        out = capsys.readouterr().out
        assert "predicted=exists_equal" in out
        assert "witness=[0, 1]" in out

    def test_deterministic_output(self, tmp_path):
        path = write_input(tmp_path, {"generators": sup.FIXTURE_B})
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        main(["analyze", "--input", path, "--out", str(out1)])
        main(["analyze", "--input", path, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_text_and_json_from_same_report(self, tmp_path):
        spec = parse_input(json.dumps({"generators": sup.FIXTURE_C}))
        rep = build_report(spec)
        doc = report_json(rep)
        text = report_text(rep)
        assert f"s_min={doc['ideal']['s_min']}" in text
        assert doc["verdict"]["predicted"] in text

    def test_unwritable_out(self, tmp_path, capsys):
        path = write_input(tmp_path, {"generators": sup.FIXTURE_A})
        out_path = tmp_path / "missing" / "r.json"
        assert main(["analyze", "--input", path, "--out", str(out_path)]) \
            == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith(f"cannot write {out_path}")
        assert err.count("\n") == 1
        assert not out_path.exists()

    def test_validation_failure(self, tmp_path, capsys):
        path = write_input(tmp_path, {"generators": [[2, 0], [0, 2]]})
        assert main(["analyze", "--input", path]) == EXIT_VALIDATION
        assert "LatticeNotFull" in capsys.readouterr().err

    def test_degrevlex_order_flag(self, tmp_path, capsys):
        path = write_input(tmp_path, {"generators": sup.FIXTURE_A})
        assert main(["analyze", "--input", path,
                     "--order", "degrevlex"]) == EXIT_OK
        assert "predicted=never_equal" in capsys.readouterr().out

    def test_groebner_family_flag(self, tmp_path, capsys):
        path = write_input(tmp_path, {"generators": sup.FIXTURE_C})
        assert main(["analyze", "--input", path,
                     "--family", "groebner"]) == EXIT_OK
        assert "predicted=exists_equal" in capsys.readouterr().out


class TestExamplesCommand:
    def test_bundled_corpus_passes(self, capsys):
        assert main(["examples"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "3/3 examples pass" in out

    def test_corrupted_expectation_fails(self, tmp_path, capsys):
        from importlib import resources
        root = resources.files("toricnash").joinpath("fixtures")
        doc = json.loads(root.joinpath("a_origin_only.json").read_text())
        doc["expected"]["s_min"] = 7
        (tmp_path / "broken.json").write_text(json.dumps(doc))
        assert main(["examples", "--corpus", str(tmp_path)]) == \
            EXIT_VIOLATION
        assert "FAIL" in capsys.readouterr().out

    def test_corrupted_ideal_fails(self, tmp_path, capsys):
        from importlib import resources
        root = resources.files("toricnash").joinpath("fixtures")
        doc = json.loads(root.joinpath("a_origin_only.json").read_text())
        doc["expected"]["ideal"][0] = [[2, 0, 0, 0], [0, 0, 2, 0]]
        (tmp_path / "broken.json").write_text(json.dumps(doc))
        assert main(["examples", "--corpus", str(tmp_path)]) == \
            EXIT_VIOLATION

    def test_empty_corpus(self, tmp_path, capsys):
        assert main(["examples", "--corpus", str(tmp_path)]) == EXIT_PARSE

    def test_invalid_json_in_corpus(self, tmp_path, capsys):
        (tmp_path / "good.json").write_text(
            json.dumps(_bundled("a_origin_only.json")))
        (tmp_path / "torn.json").write_text('{"generators": [[1, 0]')
        assert main(["examples", "--corpus", str(tmp_path)]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.err.startswith("cannot read corpus: torn.json")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("entry", [None, ["a", 0, 0, 0], [1, 0, 0],
                                       [1, -1, 0, 0], [True, 0, 0, 0]])
    def test_malformed_minor_fixture_fails(self, tmp_path, capsys, entry):
        doc = _bundled("a_origin_only.json")
        doc["expected"]["minor_fixtures"][0]["monomials"][0] = entry
        (tmp_path / "broken.json").write_text(json.dumps(doc))
        assert main(["examples", "--corpus", str(tmp_path)]) == \
            EXIT_VIOLATION
        assert "broken.json: FAIL (InvalidExponent" in capsys.readouterr().out

    @pytest.mark.parametrize("pair", [None, [[1, 0, 1, 0]],
                                      [[1, 0, 1, 0], [1, 0, 1, 0]],
                                      [[1, 0, 1, 0], [0, "2", 0, 0]]])
    def test_malformed_ideal_fails(self, tmp_path, capsys, pair):
        doc = _bundled("a_origin_only.json")
        doc["expected"]["ideal"][0] = pair
        (tmp_path / "broken.json").write_text(json.dumps(doc))
        assert main(["examples", "--corpus", str(tmp_path)]) == \
            EXIT_VIOLATION
        assert "broken.json: FAIL (InvalidExponent" in capsys.readouterr().out

    def test_dim1_witness_on_point_locus_fails(self, tmp_path, capsys):
        doc = _bundled("a_origin_only.json")
        doc["expected"]["dim1_witness"] = True
        (tmp_path / "broken.json").write_text(json.dumps(doc))
        assert main(["examples", "--corpus", str(tmp_path)]) == \
            EXIT_VIOLATION
        assert capsys.readouterr().out == (
            "broken.json: FAIL (SigmaDimensionError: witness construction "
            "requires a one-dimensional singular locus)\n"
            "0/1 examples pass\n")

    @pytest.mark.parametrize("name", ["a_origin_only.json",
                                      "b_two_edges.json", "c_one_edge.json"])
    def test_one_sweep_per_fixture(self, tmp_path, capsys, monkeypatch,
                                   name):
        doc = _bundled(name)
        (tmp_path / name).write_text(json.dumps(doc))
        ideal = build_report(InputSpec(
            tuple(map(tuple, doc["generators"])), doc["order"])).ideal
        r = ideal.semigroup.r
        calls = Counter()
        inner = nash._subset_report

        def counted(ideal, fam, subset, *rest):
            calls[subset] += 1
            return inner(ideal, fam, subset, *rest)

        monkeypatch.setattr(nash, "_subset_report", counted)
        assert main(["examples", "--corpus", str(tmp_path)]) == EXIT_OK
        assert sum(calls.values()) == comb(ideal.s_min, r)
        assert calls == Counter(itertools.combinations(range(ideal.s_min), r))

    def test_degrevlex_copy_passes(self, tmp_path, capsys):
        for name in ("a_origin_only.json", "c_one_edge.json"):
            doc = _bundled(name)
            assert doc.get("order", "lex") == "lex"
            doc["order"] = "degrevlex"
            (tmp_path / name).write_text(json.dumps(doc))
        assert main(["examples", "--corpus", str(tmp_path)]) == EXIT_OK
        assert "2/2 examples pass" in capsys.readouterr().out


def _bundled(name):
    from importlib import resources
    root = resources.files("toricnash").joinpath("fixtures")
    return json.loads(root.joinpath(name).read_text())


CYC6 = [(1, j) for j in range(6)]


class TestOneSweep:
    @pytest.mark.parametrize("gens", [sup.FIXTURE_B, sup.FIXTURE_C, CYC6])
    def test_one_report_per_subset(self, monkeypatch, gens):
        calls = Counter()
        inner = nash._subset_report

        def counted(ideal, fam, subset, *rest):
            calls[subset] += 1
            return inner(ideal, fam, subset, *rest)

        monkeypatch.setattr(nash, "_subset_report", counted)
        rep = build_report(InputSpec(tuple(gens)))
        fam = rep.ideal.minimal_gens
        subsets = itertools.combinations(range(len(fam)), rep.semigroup.r)
        assert calls == Counter(subsets)

    @pytest.mark.parametrize("gens", [sup.FIXTURE_B, sup.FIXTURE_C, CYC6])
    def test_groebner_family_same_sigma(self, gens):
        minimal = build_report(InputSpec(tuple(gens)))
        groebner = build_report(InputSpec(tuple(gens), family="groebner"))
        assert groebner.analysis.sigma == minimal.analysis.sigma

    def test_fallback_count_cyc6(self):
        # the count the report gave when every analysis ran several sweeps
        # and only the search's own sweep was counted
        rep = build_report(InputSpec(tuple(CYC6)))
        assert rep.warnings == ["minor formula fell back to the symbolic "
                                "determinant 922 times"]
