import errno
import io
import itertools
import json
import os
import subprocess
import sys
from collections import Counter
from math import comb
from pathlib import Path

import pytest

from toricnash import cli, nash
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
from toricnash.errors import TheoremViolation

import _support as sup


# the scalar expectations of an example document
SCALARS = ["blocks", "s_min", "sigma", "origin_singular", "hypersurface",
           "complete_intersection", "verdict"]


# a generator list nested 100,000 deep, past any recursion limit
DEEP_DOCUMENT = '{"generators": ' + "[" * 100_000 + "]" * 100_000 + "}"


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

    @pytest.mark.parametrize("names", [
        ["a", "a", "b"], ["", "", ""], ["x", "", "z"], ["x", "y z", "w"],
        ["x", "y\t", "w"], ["x*", "y", "z"], ["x", "y^2", "z"],
        ["x+", "y", "z"], ["x", "y", "-z"], ["2", "x", "y"],
        ["x/2", "y", "z"], [".5", "x", "y"]])
    def test_ambiguous_names(self, names):
        with pytest.raises(InputError):
            parse_input(json.dumps({"generators": [[1, 0], [1, 1], [1, 2]],
                                    "names": names}))

    def test_unknown_key(self):
        with pytest.raises(InputError):
            parse_input('{"generators": [[1, 0]], "extra": 1}')

    def test_not_json(self):
        with pytest.raises(InputError):
            parse_input("generators = 1")

    @pytest.mark.parametrize("text", ["[1, 2]", "5", '"generators"', "null"])
    def test_top_level_not_object(self, text):
        with pytest.raises(InputError, match="^top level must be an object$"):
            parse_input(text)

    @pytest.mark.parametrize("point", [[1], [1, 0, 2], [1, True], [1, "0"],
                                       {"u": 1, "v": 0}, 7])
    def test_generator_not_integer_pair(self, point):
        with pytest.raises(InputError, match="is not an integer pair$"):
            parse_input(json.dumps({"generators": [[1, 0], point]}))

    @pytest.mark.parametrize("names", ["xyz", ["x", 2, "z"], {"x": 1}])
    def test_names_not_list_of_strings(self, names):
        with pytest.raises(InputError,
                           match='^"names" must be a list of strings$'):
            parse_input(json.dumps({"generators": [[1, 0], [1, 1], [1, 2]],
                                    "names": names}))


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

    @pytest.mark.parametrize("names", [["a", "a", "b"], ["", "", ""],
                                       ["2", "x", "y"], ["x/2", "y", "z"],
                                       [".5", "x", "y"]])
    def test_ambiguous_names_exit_1(self, tmp_path, capsys, names):
        # the relation x*z - y^2 would print as a*b - a^2, as * - ^2, as
        # 2*y - x^2, whose 2 reads as a coefficient, as x/2*z - y^2, or as
        # .5*y - x^2
        path = write_input(tmp_path, {"generators": [[1, 0], [1, 1], [1, 2]],
                                      "names": names})
        for command in ("validate", "analyze"):
            assert main([command, "--input", path]) == EXIT_PARSE
            assert "names" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["validate", "--input", "/nonexistent.json"]) == \
            EXIT_PARSE

    @pytest.mark.parametrize("command", ["validate", "analyze"])
    def test_oversize_integer_is_parse_error(self, tmp_path, capsys, command):
        # json raises a bare ValueError past the integer digit limit
        path = tmp_path / "big.json"
        path.write_text('{"generators": [[1, 0], [0, 1], [%s, 1]]}'
                        % ("1" * 5000))
        assert main([command, "--input", str(path)]) == EXIT_PARSE == 1
        err = capsys.readouterr().err
        assert err.startswith("parse error: invalid JSON: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["validate", "analyze"])
    def test_deep_nesting_is_parse_error(self, tmp_path, capsys, command):
        # json raises RecursionError, not ValueError, past the stack depth
        path = tmp_path / "deep.json"
        path.write_text(DEEP_DOCUMENT)
        assert main([command, "--input", str(path)]) == EXIT_PARSE == 1
        err = capsys.readouterr().err
        assert err.startswith("parse error: invalid JSON: ")
        assert err.count("\n") == 1

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

    def test_json_generators_read_back_as_rows(self):
        # a report's minimal generators, read back from their "plus" and
        # "minus" lists, give subset_minors the minors of the Binomials
        rep = build_report(parse_input(json.dumps(
            {"generators": sup.FIXTURE_C})))
        doc = json.loads(json.dumps(report_json(rep)))
        rows = [(g["plus"], g["minus"])
                for g in doc["ideal"]["minimal_generators"]]
        pairs = list(zip(rows, rep.ideal.minimal_gens))
        subsets = list(itertools.combinations(pairs, rep.ideal.semigroup.r))
        assert len(subsets) > 1
        for subset in subsets:
            read, gens = zip(*subset)
            assert nash.subset_minors(read, rep.ideal) == \
                nash.subset_minors(gens, rep.ideal)

    # "" names no file: open refuses it like a missing directory
    @pytest.mark.parametrize("out", [Path("missing") / "r.json", ""],
                             ids=["missing_dir", "empty"])
    def test_unwritable_out(self, tmp_path, capsys, monkeypatch, out):
        path = write_input(tmp_path, {"generators": sup.FIXTURE_A})
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.iterdir())
        assert main(["analyze", "--input", path, "--out", str(out)]) \
            == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith(f"cannot write {out}: ")
        assert err.count("\n") == 1
        assert sorted(tmp_path.iterdir()) == before

    def test_validation_failure(self, tmp_path, capsys):
        path = write_input(tmp_path, {"generators": [[2, 0], [0, 2]]})
        assert main(["analyze", "--input", path]) == EXIT_VALIDATION
        assert "LatticeNotFull" in capsys.readouterr().err

    def test_invariant_violation_exits_2(self, tmp_path, capsys,
                                         monkeypatch):
        sup.disagreeing_sigma(monkeypatch)
        path = write_input(tmp_path, {"generators": sup.FIXTURE_A})
        assert main(["analyze", "--input", path]) == EXIT_VALIDATION == 2
        assert capsys.readouterr().err == (
            "validation failed: InvariantViolation: edge rule and minor "
            "ideal disagree about the singular locus\n")

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

    @pytest.mark.parametrize("key, value, message", [
        ("order", ["lex"],
         'order must be "lex" or "degrevlex", got [\'lex\']'),
        ("family", {"minimal": 1},
         'family must be "minimal" or "groebner", got {\'minimal\': 1}')])
    def test_non_string_choice_exits_1(self, tmp_path, capsys, key, value,
                                       message):
        # a value that cannot be a dict key is refused like any unknown name
        path = write_input(tmp_path, {"generators": sup.FIXTURE_A,
                                      key: value})
        assert main(["analyze", "--input", path]) == EXIT_PARSE == 1
        assert capsys.readouterr().err == f"parse error: {message}\n"

    @pytest.mark.parametrize("order, family, message", [
        ("grlex", None, 'order must be "lex" or "degrevlex", got \'grlex\''),
        (None, "graver",
         'family must be "minimal" or "groebner", got \'graver\'')])
    def test_unknown_override_exits_1(self, tmp_path, capsys, order, family,
                                      message):
        # an override is checked like the document's own value: InputError,
        # which main maps to exit 1 (argparse's choices stop these values
        # before main, so the command is called directly)
        path = write_input(tmp_path, {"generators": sup.FIXTURE_A})
        with pytest.raises(InputError) as info:
            cli.cmd_analyze(path, None, order, family)
        assert str(info.value) == message
        assert capsys.readouterr().out == ""
        # through main, argparse's usage error exits 1 as well, and so
        # does a missing --input; --help exits 0
        flag = ["--order", order] if order else ["--family", family]
        for argv in (["analyze", "--input", path, *flag], ["analyze"]):
            assert main(argv) == EXIT_PARSE
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("usage: ")
        assert main(["--help"]) == EXIT_OK
        assert capsys.readouterr().out.startswith("usage: ")

    def test_theorem_violation_exits_3(self, tmp_path, capsys, monkeypatch):
        def violated(ideal, family):
            raise TheoremViolation("predicted never_equal but observed "
                                   "exists_equal")

        monkeypatch.setattr(cli, "analyze", violated)
        path = write_input(tmp_path, {"generators": sup.FIXTURE_A})
        assert main(["analyze", "--input", path]) == EXIT_VIOLATION == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("dichotomy violation: predicted never_equal "
                                "but observed exists_equal\n")


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
        # the computed basis is printed with the input's names
        rep = build_report(parse_input(json.dumps(
            {key: doc[key] for key in ("generators", "order", "names")})))
        computed = [sup.reference_binomial_str(b, rep.names)
                    for b in rep.ideal.gb.elements]
        assert capsys.readouterr().out == (
            f"broken.json: FAIL\n  ideal mismatch; computed basis {computed}"
            "\n0/1 examples pass\n")

    # one corrupted scalar expectation of fixture A each, with the line
    # that reports it
    @pytest.mark.parametrize("key, value, line", [
        ("blocks", [2, 1, 1], "blocks [1, 2, 1] != [2, 1, 1]"),
        ("s_min", 4, "s_min 3 != 4"),
        ("sigma", {"O1": True, "O2": False},
         "sigma {'O1': False, 'O2': False} != {'O1': True, 'O2': False}"),
        ("origin_singular", False, "origin_singular True != False"),
        ("hypersurface", True, "hypersurface False != True"),
        ("complete_intersection", True,
         "complete_intersection False != True"),
        ("verdict", {"predicted": "exists_equal", "observed": "never_equal"},
         "verdict ['never_equal', 'never_equal'] != "
         "['exists_equal', 'never_equal']")], ids=SCALARS)
    def test_corrupted_scalar_reported(self, tmp_path, capsys, key, value,
                                       line):
        doc = _bundled("a_origin_only.json")
        doc["expected"][key] = value
        (tmp_path / "broken.json").write_text(json.dumps(doc))
        assert main(["examples", "--corpus", str(tmp_path)]) == \
            EXIT_VIOLATION == 3
        assert capsys.readouterr().out == (
            f"broken.json: FAIL\n  {line}\n0/1 examples pass\n")

    def test_bool_for_int_reported(self, tmp_path, capsys):
        # JSON true is not 1, nor 0 false, though Python's == says so
        doc = _bundled("c_one_edge.json")
        doc["expected"]["blocks"] = [True, True, 2]
        doc["expected"]["hypersurface"] = 0
        (tmp_path / "c.json").write_text(json.dumps(doc))
        assert main(["examples", "--corpus", str(tmp_path)]) == \
            EXIT_VIOLATION == 3
        assert capsys.readouterr().out == (
            "c.json: FAIL\n  blocks [1, 1, 2] != [True, True, 2]\n"
            "  hypersurface False != 0\n0/1 examples pass\n")

    @pytest.mark.parametrize("key", SCALARS)
    def test_only_blocks_sigma_verdict_required(self, tmp_path, capsys,
                                                key):
        doc = _bundled("a_origin_only.json")
        del doc["expected"][key]
        (tmp_path / "a.json").write_text(json.dumps(doc))
        code = main(["examples", "--corpus", str(tmp_path)])
        out = capsys.readouterr().out
        if key in ("blocks", "sigma", "verdict"):
            assert code == EXIT_VIOLATION
            assert out.startswith(f"a.json: FAIL (KeyError: '{key}')\n")
        else:
            assert code == EXIT_OK
            assert out == "a.json: pass\n1/1 examples pass\n"

    def test_monomials_not_a_list_fails(self, tmp_path, capsys):
        doc = _bundled("a_origin_only.json")
        doc["expected"]["minor_fixtures"][0]["monomials"] = 5
        (tmp_path / "broken.json").write_text(json.dumps(doc))
        assert main(["examples", "--corpus", str(tmp_path)]) == \
            EXIT_VIOLATION
        assert capsys.readouterr().out == (
            "broken.json: FAIL (InvalidExponent: 5 is not a list of exponent "
            "vectors)\n0/1 examples pass\n")

    def test_minor_fixture_of_another_class_reported(self, tmp_path, capsys):
        # x1^2 replaced by x4^2 in the expected minors of f1, f2
        doc = _bundled("a_origin_only.json")
        doc["expected"]["minor_fixtures"][0]["monomials"][0] = [0, 0, 0, 2]
        (tmp_path / "broken.json").write_text(json.dumps(doc))
        assert main(["examples", "--corpus", str(tmp_path)]) == \
            EXIT_VIOLATION == 3
        assert capsys.readouterr().out == (
            "broken.json: FAIL\n  minor fixture 0: classes [(0, 0, 2, 0), "
            "(0, 1, 1, 0), (0, 2, 0, 0), (1, 1, 0, 0), (2, 0, 0, 0)] != "
            "[(0, 0, 0, 2), (0, 0, 2, 0), (0, 1, 1, 0), (0, 2, 0, 0), "
            "(1, 1, 0, 0)]\n0/1 examples pass\n")

    def test_subsets_off_sigma_reported(self, tmp_path, capsys):
        # fixture C has a single closure in sigma; four of its full-rank
        # subsets cut out something else
        doc = _bundled("c_one_edge.json")
        doc["expected"]["all_rank_valid_equal_sigma"] = True
        (tmp_path / "broken.json").write_text(json.dumps(doc))
        assert main(["examples", "--corpus", str(tmp_path)]) == \
            EXIT_VIOLATION == 3
        assert capsys.readouterr().out == (
            "broken.json: FAIL\n  subsets with V != sigma: [(0, 3), (1, 2), "
            "(1, 3), (2, 3)]\n0/1 examples pass\n")

    def test_witness_rows_off_sigma_reported(self, tmp_path, capsys):
        # the rows of subset (0, 3), whose zero locus is not sigma
        doc = _bundled("c_one_edge.json")
        ideal = doc["expected"]["ideal"]
        doc["expected"]["witness_rows"] = [ideal[0], ideal[3]]
        (tmp_path / "broken.json").write_text(json.dumps(doc))
        assert main(["examples", "--corpus", str(tmp_path)]) == \
            EXIT_VIOLATION == 3
        assert capsys.readouterr().out == (
            "broken.json: FAIL\n  witness rows do not cut out sigma\n"
            "0/1 examples pass\n")

    def test_rank_deficient_witness_rows_reported(self, tmp_path, capsys):
        # a row twice has no minor, so it cuts out no locus at all
        doc = _bundled("c_one_edge.json")
        row = doc["expected"]["witness_rows"][0]
        doc["expected"]["witness_rows"] = [row, row]
        (tmp_path / "broken.json").write_text(json.dumps(doc))
        assert main(["examples", "--corpus", str(tmp_path)]) == \
            EXIT_VIOLATION == 3
        assert capsys.readouterr().out == (
            "broken.json: FAIL\n  witness rows do not cut out sigma\n"
            "0/1 examples pass\n")

    def test_rank_deficient_minor_fixture_reported(self, tmp_path, capsys):
        # rows f1, f1 of fixture A: no minor, so no class
        doc = _bundled("a_origin_only.json")
        fixture = doc["expected"]["minor_fixtures"][0]
        fixture["rows"] = [fixture["rows"][0]] * 2
        (tmp_path / "broken.json").write_text(json.dumps(doc))
        assert main(["examples", "--corpus", str(tmp_path)]) == \
            EXIT_VIOLATION == 3
        assert capsys.readouterr().out == (
            "broken.json: FAIL\n  minor fixture 0: classes [] != "
            "[(0, 0, 2, 0), (0, 1, 1, 0), (0, 2, 0, 0), (1, 1, 0, 0), "
            "(2, 0, 0, 0)]\n0/1 examples pass\n")

    # a flag that is not JSON true or false is one line naming its key and
    # value, and the check it guards does not run: no SigmaDimensionError
    # for fixture A's point locus, no subset list for fixture C
    @pytest.mark.parametrize("name, flags, lines", [
        ("a_origin_only.json", {"dim1_witness": "false"},
         ['dim1_witness "false" is not true or false']),
        ("c_one_edge.json",
         {"dim1_witness": "no", "all_rank_valid_equal_sigma": 0},
         ["all_rank_valid_equal_sigma 0 is not true or false",
          'dim1_witness "no" is not true or false']),
        ("c_one_edge.json", {"all_rank_valid_equal_sigma": "false"},
         ['all_rank_valid_equal_sigma "false" is not true or false'])],
        ids=["dim1_witness_string", "string_and_zero",
             "all_rank_valid_string"])
    def test_non_boolean_flag_reported(self, tmp_path, capsys, name, flags,
                                       lines):
        doc = _bundled(name)
        doc["expected"].update(flags)
        (tmp_path / "broken.json").write_text(json.dumps(doc))
        assert main(["examples", "--corpus", str(tmp_path)]) == \
            EXIT_VIOLATION == 3
        assert capsys.readouterr().out == (
            "broken.json: FAIL\n" + "".join(f"  {line}\n" for line in lines)
            + "0/1 examples pass\n")

    def test_empty_corpus(self, tmp_path, capsys):
        assert main(["examples", "--corpus", str(tmp_path)]) == EXIT_PARSE
        assert capsys.readouterr().err == "no example documents found\n"

    def test_missing_corpus(self, tmp_path, capsys):
        missing = tmp_path / "missing"
        assert main(["examples", "--corpus", str(missing)]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.err == \
            f"cannot read corpus: {missing}: not a directory\n"
        assert captured.out == ""

    def test_corpus_is_a_file(self, tmp_path, capsys):
        path = write_input(tmp_path, {"generators": sup.FIXTURE_A})
        assert main(["examples", "--corpus", path]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.err == f"cannot read corpus: {path}: not a directory\n"
        assert captured.out == ""

    def test_invalid_json_in_corpus(self, tmp_path, capsys):
        (tmp_path / "good.json").write_text(
            json.dumps(_bundled("a_origin_only.json")))
        (tmp_path / "torn.json").write_text('{"generators": [[1, 0]')
        assert main(["examples", "--corpus", str(tmp_path)]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.err.startswith("cannot read corpus: torn.json")
        assert captured.err.count("\n") == 1

    def test_deep_nesting_in_corpus(self, tmp_path, capsys):
        (tmp_path / "deep.json").write_text(DEEP_DOCUMENT)
        assert main(["examples", "--corpus", str(tmp_path)]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.err.startswith("cannot read corpus: deep.json: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

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

    @pytest.mark.parametrize("part, value", [
        ("document", 5), ("expected", []), ("verdict", []),
        ("minor_fixtures", 5), ("minor_fixtures", [5])],
        ids=["document", "expected", "verdict", "minor_fixtures",
             "minor_fixture"])
    def test_malformed_document_fails(self, tmp_path, capsys, part, value):
        # valid JSON of the wrong shape: a document, "expected" or
        # "verdict" that is not an object, "minor_fixtures" that is not a
        # list of objects
        doc = _bundled("a_origin_only.json")
        if part == "document":
            doc = value
        elif part == "expected":
            doc["expected"] = value
        else:
            doc["expected"][part] = value
        (tmp_path / "broken.json").write_text(json.dumps(doc))
        assert main(["examples", "--corpus", str(tmp_path)]) == \
            EXIT_VIOLATION
        assert "broken.json: FAIL (InputError" in capsys.readouterr().out

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

    def test_unknown_family_fails(self, tmp_path, capsys):
        doc = _bundled("a_origin_only.json")
        doc["family"] = "foo"
        (tmp_path / "broken.json").write_text(json.dumps(doc))
        assert main(["examples", "--corpus", str(tmp_path)]) == \
            EXIT_VIOLATION
        assert "broken.json: FAIL (InputError" in capsys.readouterr().out

    def test_family_is_analysed(self, tmp_path, capsys, monkeypatch):
        doc = _bundled("c_one_edge.json")
        doc["family"] = "groebner"
        (tmp_path / "c_one_edge.json").write_text(json.dumps(doc))
        families = []
        inner = cli.build_report

        def spy(spec):
            families.append(spec.family)
            return inner(spec)

        monkeypatch.setattr(cli, "build_report", spy)
        assert main(["examples", "--corpus", str(tmp_path)]) == EXIT_OK
        assert families == ["groebner"]

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
        r = rep.ideal.semigroup.r
        subsets = itertools.combinations(range(len(fam)), r)
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


# the surfaces of the sweep benchmark, then the three fixtures
RENDERED = [(CYC6, "lex"), (CYC6, "degrevlex"),
            ([(7, 0), (9, 0), (3, 1), (7, 4), (6, 6)], "lex"),
            ([(5, 0), (7, 0), (2, 3), (0, 5), (0, 7)], "degrevlex"),
            (sup.FIXTURE_A, "lex"), (sup.FIXTURE_B, "lex"),
            (sup.FIXTURE_C, "lex")]


class TestRendering:
    def test_monomial(self):
        rep = cli.RunReport(None, ["x", "y", "z"], None, None)
        assert rep.minor_str(-3, (2, 0, 1)) == "-3*x^2*z"
        assert rep.minor_str(-1, (1, 0, 0)) == "-x"
        assert rep.minor_str(1, (0, 1, 1)) == "y*z"
        assert cli.monomial_str((0, 0, 0), ["x", "y", "z"]) == "1"


class TestRenderOnce:
    def test_matches_monomial_str(self):
        # every minor and binomial of the report renders as the reference
        # renderer of _support does, with the default and with custom
        # names, in both outputs; the minors reach the coefficients 1, -1
        # and |c| > 1
        coeffs = set()
        for gens, order in RENDERED:
            for names in (None, tuple(f"g{i}_" for i in range(len(gens)))):
                rep = build_report(InputSpec(tuple(gens), order, names))
                text, doc = report_text(rep), report_json(rep)
                for r, minors, entry in zip(rep.analysis.reports,
                                            sup.report_minors(rep.analysis),
                                            doc["subsets"]):
                    want = [sup.reference_monomial_str(coeff, exp, rep.names)
                            for _, coeff, exp in minors]
                    assert [rep.minor_str(coeff, exp)
                            for _, coeff, exp in minors] == want
                    assert [m["str"] for m in entry["minors"]] == want
                    if r.rank_ok:
                        assert f"      minors: {', '.join(want)}\n" in text
                    coeffs.update(coeff for _, coeff, _ in minors)
                for key, fam in (("minimal_generators",
                                  rep.ideal.minimal_gens),
                                 ("groebner_basis", rep.ideal.gb.elements)):
                    want = [sup.reference_binomial_str(b, rep.names)
                            for b in fam]
                    assert [rep.binomial_str(b) for b in fam] == want
                    assert [b["str"] for b in doc["ideal"][key]] == want
                    assert all(f"  {w}\n" in text for w in want)
        assert {1, -1} <= coeffs
        assert any(abs(c) > 1 for c in coeffs)

    def test_each_exponent_rendered_once(self, monkeypatch):
        # report_text and report_json of one report call monomial_str
        # once for each exponent they print, a minor's or a binomial
        # side's
        calls = Counter()
        inner = cli.monomial_str

        def counted(exp, names):
            calls[exp] += 1
            return inner(exp, names)

        monkeypatch.setattr(cli, "monomial_str", counted)
        rep = build_report(InputSpec(tuple(CYC6)))
        report_text(rep)
        report_json(rep)
        exps = {exp for minors in sup.report_minors(rep.analysis)
                for _, _, exp in minors}
        exps.update(e for b in rep.ideal.minimal_gens + rep.ideal.gb.elements
                    for e in (b.plus, b.minus))
        assert calls == Counter(exps)


# a lex surface whose minimal family has subsets below full rank
RANK_DEFICIENT = [(2, 0), (1, 1), (1, 2), (0, 2), (0, 3)]


def streamed(rep) -> str:
    buf = io.StringIO()
    cli.write_report_json(rep, buf)
    return buf.getvalue()


def oracle(rep) -> str:
    return json.dumps(report_json(rep), indent=2, sort_keys=True) + "\n"


class TestStreamedReport:
    # write_report_json writes the bytes of json.dumps(report_json(rep),
    # indent=2, sort_keys=True) and a newline
    def test_every_small_set_both_families(self):
        sets = sup.box_semigroups(3, (3, 4))
        for vs in sets:
            gens = tuple(map(tuple, vs.points))
            for family in ("minimal", "groebner"):
                rep = build_report(InputSpec(gens, family=family))
                assert streamed(rep) == oracle(rep), (gens, family)
        assert len(sets) == 754

    def test_bundled_fixtures(self):
        docs = cli._load_corpus(None)
        for _, doc in docs:
            rep = build_report(parse_input(json.dumps(
                {key: doc[key] for key in InputSpec._fields if key in doc})))
            assert streamed(rep) == oracle(rep)
        assert len(docs) == 3

    # the three surfaces of the sweep benchmark, each under both orders
    @pytest.mark.parametrize("order", ["lex", "degrevlex"])
    @pytest.mark.parametrize("gens", [gens for gens, _ in RENDERED[1:4]])
    def test_sweep_surfaces(self, gens, order):
        rep = build_report(InputSpec(tuple(gens), order))
        assert streamed(rep) == oracle(rep)

    @pytest.mark.parametrize("family", ["minimal", "groebner"])
    def test_rank_deficient_subsets(self, family):
        rep = build_report(InputSpec(tuple(RANK_DEFICIENT), family=family))
        assert not all(r.rank_ok for r in rep.analysis.reports)
        assert streamed(rep) == oracle(rep)

    @pytest.mark.parametrize("order", ["lex", "degrevlex"])
    def test_groebner_family(self, order):
        # the reduced basis is larger than the minimal generators here
        rep = build_report(InputSpec(tuple(RENDERED[2][0]), order,
                                     family="groebner"))
        assert len(rep.analysis.reports) > comb(len(rep.ideal.minimal_gens),
                                                rep.ideal.semigroup.r)
        assert streamed(rep) == oracle(rep)

    def test_escaped_names(self):
        rep = build_report(InputSpec(tuple(sup.FIXTURE_A),
                                     names=("é", "Ω1", "x", "y")))
        text = streamed(rep)
        assert text == oracle(rep)
        assert "\\u00e9" in text and "\\u03a91" in text
        assert text.isascii()

    def test_entries_hold_analysis_tuples(self):
        # no list copies: a subset entry holds the analysis's own tuples,
        # and each minor its pair table's selection and an exponent tuple
        rep = build_report(InputSpec(tuple(CYC6)))
        doc = report_json(rep)
        for r, minors, entry in zip(rep.analysis.reports,
                                    sup.report_minors(rep.analysis),
                                    doc["subsets"], strict=True):
            assert entry["subset"] is r.subset
            for (sel, _, exp), minor in zip(minors, entry["minors"],
                                            strict=True):
                assert minor["K"] is sel
                assert type(minor["exp"]) is tuple and minor["exp"] == exp

    def test_writer_renders_each_exponent_once(self, monkeypatch):
        # the writer reads the report's rendered minors, so the two
        # outputs and report_json together still call monomial_str once
        # for each exponent
        calls = Counter()
        inner = cli.monomial_str

        def counted(exp, names):
            calls[exp] += 1
            return inner(exp, names)

        monkeypatch.setattr(cli, "monomial_str", counted)
        rep = build_report(InputSpec(tuple(CYC6)))
        report_text(rep)
        streamed(rep)
        report_json(rep)
        assert max(calls.values()) == 1

    def test_analyze_streams_both_outputs(self, tmp_path, capsys):
        path = write_input(tmp_path, {"generators": CYC6,
                                      "order": "degrevlex"})
        out_path = tmp_path / "r.json"
        assert main(["analyze", "--input", path, "--out", str(out_path)]) \
            == EXIT_OK
        rep = build_report(InputSpec(tuple(CYC6), "degrevlex"))
        assert capsys.readouterr().out == report_text(rep)
        assert out_path.read_text() == oracle(rep)

    def test_failed_write_removes_partial_file(self, tmp_path, capsys,
                                               monkeypatch):
        # the disk fills after 4096 characters of the report: the partial
        # file is removed, one line names it and the exit code is 1
        path = write_input(tmp_path, {"generators": CYC6})
        out_path = tmp_path / "r.json"
        out_path.write_text("an earlier report")
        inner = cli.write_report_json
        sizes = []

        class FullDisk:
            def __init__(self, fh):
                self.fh, self.left = fh, 4096

            def write(self, text):
                if len(text) > self.left:
                    self.fh.write(text[:self.left])
                    self.fh.flush()
                    sizes.append(out_path.stat().st_size)
                    raise OSError(errno.ENOSPC, "No space left on device")
                self.left -= len(text)
                return self.fh.write(text)

        monkeypatch.setattr(cli, "write_report_json",
                            lambda rep, fh: inner(rep, FullDisk(fh)))
        assert main(["analyze", "--input", path, "--out", str(out_path)]) \
            == EXIT_PARSE
        captured = capsys.readouterr()
        assert sizes == [4096]
        assert not out_path.exists()
        assert captured.err == (f"cannot write {out_path}: [Errno 28] No "
                                "space left on device\n")
        assert captured.out == report_text(build_report(InputSpec(
            tuple(CYC6))))


class ClosedStdout(io.StringIO):
    """A stdout whose reader is gone; like io.StringIO it has no file
    descriptor."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


def closed_stdout_args(command, path, out_path):
    return {"validate": ["--input", path],
            "analyze": ["--input", path, "--out", str(out_path)],
            "examples": []}[command]


def python_env(**overrides):
    """os.environ with this checkout's src/ on PYTHONPATH and Python's
    default stdout buffering, then overrides."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parent.parent)}
    env.pop("PYTHONUNBUFFERED", None)
    return {**env, **overrides}


def run_closed_at_start(args):
    # sh closes fd 1 before python starts, so sys.stdout is None
    return subprocess.run(
        ["sh", "-c", '"$@" >&-', "sh", sys.executable, "-X", "dev", "-W",
         "error", "-m", "toricnash", *args],
        stderr=subprocess.PIPE, env=python_env())


class TestClosedStdout:
    # a closed stdout ends the text and exits 1 with nothing on stderr;
    # analyze still writes --out in full
    @pytest.mark.parametrize("command", ["validate", "analyze", "examples"])
    def test_main_exits_1_quietly(self, tmp_path, capsys, monkeypatch,
                                  command):
        path = write_input(tmp_path, {"generators": sup.FIXTURE_A})
        out_path = tmp_path / "r.json"
        args = closed_stdout_args(command, path, out_path)
        monkeypatch.setattr(sys, "stdout", ClosedStdout())
        assert main([command, *args]) == EXIT_PARSE
        assert capsys.readouterr().err == ""
        if command == "analyze":
            rep = build_report(InputSpec(tuple(sup.FIXTURE_A)))
            assert out_path.read_text() == oracle(rep)

    @pytest.mark.parametrize("buffered", [False, True])
    @pytest.mark.parametrize("command", ["validate", "analyze", "examples"])
    def test_real_pipe(self, tmp_path, command, buffered):
        # a pipe whose read end is closed: a block-buffered stdout fails
        # only when main flushes it, an unbuffered one at the first write
        path = write_input(tmp_path, {"generators": sup.FIXTURE_A})
        out_path = tmp_path / "r.json"
        args = closed_stdout_args(command, path, out_path)
        env = python_env(**({} if buffered else {"PYTHONUNBUFFERED": "1"}))
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-X", "dev", "-W", "error", "-m",
                 "toricnash", command, *args],
                stdout=write, stderr=subprocess.PIPE, env=env)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (EXIT_PARSE, b"")
        if command == "analyze":
            rep = build_report(InputSpec(tuple(sup.FIXTURE_A)))
            assert out_path.read_text() == oracle(rep)

    @pytest.mark.parametrize("command", ["validate", "analyze", "examples"])
    def test_closed_at_start(self, tmp_path, command):
        # the same exit, stderr and --out as for a stdout closed mid-run
        path = write_input(tmp_path, {"generators": sup.FIXTURE_A})
        out_path = tmp_path / "r.json"
        proc = run_closed_at_start(
            [command, *closed_stdout_args(command, path, out_path)])
        assert (proc.returncode, proc.stderr) == (EXIT_PARSE, b"")
        if command == "analyze":
            rep = build_report(InputSpec(tuple(sup.FIXTURE_A)))
            assert out_path.read_text() == oracle(rep)

    @pytest.mark.parametrize("command", ["validate", "analyze"])
    @pytest.mark.parametrize("generators, status, err", [
        ("nope", EXIT_PARSE,
         b'parse error: "generators" must be a non-empty list\n'),
        ([[1, 0], [2, 0], [0, 1]], EXIT_VALIDATION,
         b"validation failed: NotMinimal: generator (2, 0) (input index 1) "
         b"is generated by the others\n")], ids=["parse", "validation"])
    def test_closed_at_start_keeps_failures(self, tmp_path, command,
                                            generators, status, err):
        path = write_input(tmp_path, {"generators": generators})
        proc = run_closed_at_start([command, "--input", path])
        assert (proc.returncode, proc.stderr) == (status, err)


class TestUtf8Input:
    # input documents and corpus files are read as UTF-8 whatever the
    # locale's encoding; no read or write falls back to that encoding
    NAMES = ["\u03b1", "\u03b2", "\u03b3", "\u03b4"]

    def run(self, args, encoding="utf-8"):
        return subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error",
             "-m", "toricnash", *args],
            capture_output=True, env=python_env(PYTHONIOENCODING=encoding))

    def test_input_document(self, tmp_path):
        path = tmp_path / "greek.json"
        path.write_text(json.dumps({"generators": sup.FIXTURE_A,
                                    "names": self.NAMES}, ensure_ascii=False),
                        encoding="utf-8")
        out_path = tmp_path / "r.json"
        proc = self.run(["validate", "--input", str(path)])
        assert (proc.returncode, proc.stderr) == (EXIT_OK, b"")
        proc = self.run(["analyze", "--input", str(path),
                         "--out", str(out_path)])
        assert (proc.returncode, proc.stderr) == (EXIT_OK, b"")
        rep = build_report(InputSpec(tuple(sup.FIXTURE_A),
                                     names=tuple(self.NAMES)))
        assert proc.stdout.decode("utf-8") == report_text(rep)
        assert out_path.read_text(encoding="utf-8") == oracle(rep)

    def test_corpus(self, tmp_path):
        doc = json.loads((Path(cli.__file__).with_name("fixtures")
                          / "a_origin_only.json").read_text(encoding="utf-8"))
        doc["names"] = self.NAMES
        (tmp_path / "greek.json").write_text(
            json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        proc = self.run(["examples", "--corpus", str(tmp_path)])
        assert (proc.returncode, proc.stderr) == (EXIT_OK, b"")
        assert proc.stdout == b"greek.json: pass\n1/1 examples pass\n"

    def test_ascii_stdout(self, tmp_path):
        # text an ASCII stdout cannot hold, names and a corpus file name,
        # prints as backslash escapes, and the rest keeps its bytes
        gens, names = ((1, 0), (1, 1), (1, 2)), self.NAMES[:3]
        path = tmp_path / "greek.json"
        path.write_text(json.dumps({"generators": gens, "names": names},
                                   ensure_ascii=False), encoding="utf-8")
        proc = self.run(["analyze", "--input", str(path)], "ascii")
        assert (proc.returncode, proc.stderr) == (EXIT_OK, b"")
        rep = build_report(InputSpec(gens, names=tuple(names)))
        assert proc.stdout == report_text(rep).encode("ascii",
                                                      "backslashreplace")
        assert b"\\u03b1*\\u03b3 - \\u03b2^2" in proc.stdout
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "\u03b3.json").write_text(json.dumps(
            _bundled("a_origin_only.json")), encoding="utf-8")
        proc = self.run(["examples", "--corpus", str(corpus)], "ascii")
        assert (proc.returncode, proc.stderr) == (EXIT_OK, b"")
        assert proc.stdout == b"\\u03b3.json: pass\n1/1 examples pass\n"
