"""Tests for the command line interface: exit codes, JSON round trips, and
deterministic output."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from braidops import cli, multipoly, pddo
from braidops.cli import main, poly_from_json, poly_to_json
from braidops.families import OperatorFamily
from braidops.field import FieldElement
from braidops.multipoly import MultiPoly, SlotPoly
from braidops.pddo import PDDO, identity_op
from braidops.words import Permutation, TableEntry, polynomial_table, staircase


GOLDEN = Path(__file__).resolve().parent / "golden"
DEGENT3 = json.loads((GOLDEN / "degent3.json").read_text())
VANQ0_ISOLATED = json.loads((GOLDEN / "vanq0_isolated.json").read_text())
VANQ0_INTERVAL = json.loads((GOLDEN / "vanq0_interval.json").read_text())


def _with(cfg, path, value):
    """A deep copy of cfg with the object at path replaced by value."""
    cfg = json.loads(json.dumps(cfg))
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return cfg


def _cases(*cases):
    """pytest params (family, n, config, message) from (label, family, n, config,
    message) tuples, with ids family-n-config<k>-label: a case keeps its id when
    its expected message changes."""
    return [pytest.param(family, n, config, message, id=f"{family}-{n}-config{k}-{label}")
            for k, (label, family, n, config, message) in enumerate(cases)]


# The JSON name of each type that json.loads returns, as refusals print it.
JSON_TYPE = {dict: "object", list: "list", str: "string", int: "number",
             float: "number", bool: "boolean", type(None): "null"}


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestJsonForms:
    def test_round_trip(self):
        p = staircase(3) + MultiPoly.variable(3, 2).scale("1/2-2z")
        assert poly_from_json(poly_to_json(p), 3) == p

    def test_wrong_arity_rejected(self):
        with pytest.raises(cli.ConfigError) as info:
            poly_from_json([{"e": [1, 0], "c": "1"}], 3)
        assert str(info.value) == "term list: [0].e must have 3 entries, not 2"

    def test_wrong_shape_is_a_value_error(self):
        with pytest.raises(ValueError) as info:
            poly_from_json({"e": [1, 0, 0], "c": "1"}, 3)
        assert str(info.value) == "term list: top level must be a JSON list, not object"


class TestVerify:
    def test_passing_family_exits_zero(self, capsys):
        code, out, _ = run(
            ["verify", "--n", "4", "--family", "case1", "--params", "1,2,1,2,3"],
            capsys,
        )
        assert code == 0
        assert "overall: pass" in out

    def test_constraint_violation_exits_two(self, capsys):
        code, _, err = run(
            ["verify", "--n", "3", "--family", "case1", "--params", "1,1,1,0,1"],
            capsys,
        )
        assert code == 2
        assert "ad" in err

    def test_missing_params_exits_two(self, capsys):
        code, _, err = run(["verify", "--n", "3", "--family", "case1"], capsys)
        assert code == 2

    def test_zero_denominator_exits_two(self, capsys):
        code, out, err = run(
            ["verify", "--n", "4", "--family", "case1", "--params", "1/0,1,1,1,1"],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("family,n", [
        ("preset:demazure", "0"), ("preset:demazure", "1"),
        ("case2", "-1"), ("case1", "1"),
    ])
    def test_small_n_exits_two(self, family, n, capsys):
        params = {"case1": "1,2,1,2,3", "case2": "0,1,0,0"}.get(family, "")
        argv = ["verify", "--n", n, "--family", family]
        code, out, err = run(argv + (["--params", params] if params else []), capsys)
        assert (code, out) == (2, "")
        assert err == f"error: --n must be at least 2, got {n}\n"

    @pytest.mark.parametrize("family,params,message", [
        ("preset:grothendieck", "1,2",
         "preset:grothendieck takes at most one --params value, got 2"),
        ("preset:pure_ddiff", "1,2,3",
         "preset:pure_ddiff takes at most one --params value, got 3"),
        ("preset:demazure", "1", "demazure takes no parameter"),
    ])
    def test_surplus_preset_params_exit_two(self, family, params, message, capsys):
        argv = ["verify", "--n", "4", "--family", family, "--params", params]
        code, out, err = run(argv, capsys)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("argv,message", [
        (["--family", "case1", "--params", "1,2,1,2,3", "--lines", "l9"],
         "case1 takes no --lines"),
        (["--family", "degen-t", "--config", str(GOLDEN / "degent4.json"),
          "--params", "1,2"], "degen-t takes no --params"),
        (["--family", "preset:demazure", "--lines", "l1,l1,l1"],
         "preset:demazure takes no --lines"),
        (["--family", "vanq0", "--config", "", "--lines", ""], "vanq0 takes no --lines"),
        (["--family", "case2", "--random-trials", "2", "--params", "1,2,1,2"],
         "--random-trials takes no --params"),
        (["--family", "vanq0", "--random-trials", "1", "--config",
          str(GOLDEN / "vanq0_isolated.json")], "--random-trials takes no --config"),
    ])
    def test_unused_option_exits_two(self, argv, message, capsys):
        code, out, err = run(["verify", "--n", "4", *argv], capsys)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_unknown_family_exits_two(self, capsys):
        code, _, err = run(
            ["verify", "--n", "3", "--family", "nope", "--params", "1"], capsys
        )
        assert code == 2

    def test_random_trials_deterministic(self, capsys):
        argv = [
            "verify", "--n", "4", "--family", "case2",
            "--random-trials", "3", "--rng-seed", "5",
        ]
        code1, out1, _ = run(argv, capsys)
        code2, out2, _ = run(argv, capsys)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_random_trials_refuse_json_output(self, capsys):
        code, out, err = run(
            ["verify", "--n", "4", "--family", "case2", "--random-trials", "1",
             "--output", "json"],
            capsys,
        )
        assert (code, out, err) == (
            2, "", "error: --random-trials prints text only; it takes no --output json\n")

    @pytest.mark.parametrize("trials", [[], ["--random-trials", "0"]])
    def test_rng_seed_needs_random_trials(self, trials, capsys):
        code, out, err = run(
            ["verify", "--n", "4", "--family", "case1", "--params", "1,2,1,2,3",
             "--rng-seed", "5", *trials],
            capsys,
        )
        assert (code, out, err) == (
            2, "", "error: --rng-seed needs a positive --random-trials\n")

    def test_failing_family_exits_one(self, monkeypatch, capsys):
        """A case1 family whose middle operator gains u d_2 fails both cubic
        relations; verify reports every failing coefficient."""
        build = cli.build_family

        def perturbed(*args):
            fam = build(*args)
            op, h = fam[2], SlotPoly.u()
            return OperatorFamily(fam.n, (fam[1], PDDO(op.T + h, op.Q0 + h), fam[3]))

        monkeypatch.setattr(cli, "build_family", perturbed)
        argv = ["verify", "--n", "4", "--family", "case1", "--params", "1,2,1,2,3"]
        code, out, err = run(argv, capsys)
        bad = "f, sf, sigma_f, s_sigma_f, sigma_s_f, s_sigma_s_f"
        assert (code, err) == (1, "")
        assert out.splitlines() == [
            f"cubic  (1,2): FAIL  (failing coefficients: {bad})",
            f"cubic  (2,3): FAIL  (failing coefficients: {bad})",
            "quad   (1,3): pass",
            "overall: FAIL",
        ]
        code, out, _ = run(argv + ["--output", "json"], capsys)
        data = json.loads(out)
        assert code == 1 and data["passed"] is False
        assert [rep["passed"] for rep in data["cubic"].values()] == [False, False]

    def test_negative_random_trials_exits_two(self, capsys):
        code, out, err = run(
            ["verify", "--n", "4", "--family", "case1", "--params", "1,2,1,2,3",
             "--random-trials", "-1"],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err == "error: --random-trials must be at least 0, got -1\n"

    def test_json_output(self, capsys):
        code, out, _ = run(
            [
                "verify", "--n", "4", "--family", "case2",
                "--params", "0,1,0,0", "--lines", "l1,l2,l4",
                "--output", "json",
            ],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data["passed"] is True
        assert set(data["cubic"]) == {"1,2", "2,3"}


class TestHecke:
    def test_case1_values(self, capsys):
        code, out, _ = run(
            [
                "hecke", "--n", "3", "--family", "case1",
                "--params", "1,2,1,2,3", "--output", "json",
            ],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data["hecke"] == [
            {"index": 1, "mu": "1", "nu": "6"},
            {"index": 2, "mu": "1", "nu": "6"},
        ]

    def test_one_computation_per_distinct_operator(self, monkeypatch, capsys):
        """hecke reads each operator's kept parameters, so an operator at
        two indices forms them once."""
        one, two = identity_op(1), identity_op(2)
        monkeypatch.setattr(cli, "build_family",
                            lambda *args: OperatorFamily(4, (one, two, one)))
        formed = []
        hecke_params = PDDO.hecke_params
        monkeypatch.setattr(PDDO, "hecke_params", lambda op: (
            op._hecke is pddo._UNFORMED and formed.append(op)) or hecke_params(op))
        code, out, _ = run(["hecke", "--n", "4", "--family", "case1"], capsys)
        assert (code, out) == (0, "pi_1: mu = 1, nu = 0\npi_2: mu = 2, nu = 0\n"
                                  "pi_3: mu = 1, nu = 0\n")
        assert formed == [one, two]


class TestTable:
    def test_six_entries_for_s3(self, capsys):
        code, out, _ = run(
            [
                "table", "--n", "3", "--family", "preset:pure_ddiff",
                "--params", "1", "--output", "json",
            ],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert data["n"] == 3
        assert len(data["entries"]) == 6
        polys = {
            tuple(e["perm"]): poly_from_json(e["poly"], 3) for e in data["entries"]
        }
        assert polys[(3, 2, 1)] == staircase(3)
        assert polys[(1, 2, 3)] == MultiPoly.const(3, 1)

    def test_s2_table_has_no_braid_audit(self, capsys):
        code, out, _ = run(
            ["table", "--n", "2", "--family", "preset:pure_ddiff", "--output", "text"],
            capsys,
        )
        assert (code, out) == (0, "(1, 2)  (1)\n(2, 1)  x1\n")

    def test_byte_identical_across_runs(self, capsys):
        argv = ["table", "--n", "3", "--family", "preset:demazure"]
        _, out1, _ = run(argv, capsys)
        _, out2, _ = run(argv, capsys)
        assert out1 == out2

    def test_custom_seed_inline(self, capsys):
        seed = json.dumps(poly_to_json(MultiPoly.monomial(3, (1, 0, 0))))
        code, out, _ = run(
            [
                "apply", "--n", "3", "--family", "preset:pure_ddiff",
                "--word", "1", "--seed-poly", seed, "--output", "json",
            ],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert poly_from_json(data["poly"], 3) == MultiPoly.const(3, 1)


class TestApply:
    def test_empty_word(self, capsys):
        code, out, _ = run(
            ["apply", "--n", "3", "--family", "preset:demazure", "--output", "json"],
            capsys,
        )
        assert code == 0
        data = json.loads(out)
        assert poly_from_json(data["poly"], 3) == staircase(3)


    @pytest.mark.parametrize("word", ["5", "0", "1,3", "-1"])
    def test_letter_out_of_range_exits_two(self, word, capsys):
        code, out, err = run(
            ["apply", "--n", "3", "--family", "preset:demazure", "--word", word],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: --word letter ") and err.count("\n") == 1
        assert err.endswith(" out of range 1..2\n")

    @pytest.mark.parametrize("word", ["1,,2", "a", "1,2,", "1.0"])
    def test_non_integer_word_exits_two(self, word, capsys):
        code, out, err = run(
            ["apply", "--n", "3", "--family", "preset:demazure", "--word", word], capsys
        )
        assert (code, out, err) == (
            2, "", f"error: --word {word!r} is not a comma-separated list of integers\n")


class TestCommute:
    @pytest.mark.parametrize("argv", [
        ["commute", "--family", "case1", "--params", "1,2,1,2,3",
         "--family2", "case1", "--params2", "1,x,1,2,3"],
        ["verify", "--family", "case1", "--params", "1,x,1,2,3"],
    ])
    def test_bad_params_entry_is_named(self, argv, capsys):
        code, out, err = run([*argv, "--n", "4"], capsys)
        assert (code, out, err) == (
            2, "", 'error: --params: [1] "x" is not a field element p/q or p/q+r/sz\n')

    def test_unused_second_family_option_exits_two(self, capsys):
        code, out, err = run(
            ["commute", "--n", "4", "--family", "preset:demazure",
             "--family2", "case1", "--params2", "1,2,1,2,3", "--config2", "x.json"],
            capsys,
        )
        assert (code, out, err) == (2, "", "error: case1 takes no --config\n")

    def test_consecutive_demazure_fails(self, capsys):
        code, out, _ = run(
            [
                "commute", "--n", "4",
                "--family", "preset:demazure",
                "--family2", "preset:demazure",
            ],
            capsys,
        )
        assert code == 1
        assert "overall: FAIL" in out


class TestEmptyOptionValues:
    # An empty value is given, as _refuse_unused counts it, so it is read and
    # refused, never replaced by the default that an absent option gets.
    @pytest.mark.parametrize("argv,message", [
        (["verify", "--n", "4", "--family", "case2", "--params", "1,2,1,2",
          "--lines", ""], "--lines is empty; give one of l1..l4 per index"),
        (["table", "--n", "3", "--family", "preset:grothendieck", "--params", ""],
         '--params: [0] "" is not a field element p/q or p/q+r/sz'),
        (["table", "--n", "3", "--family", "preset:demazure", "--seed-poly", ""],
         "--seed-poly: top level cannot be read as JSON "
         "(Expecting value: line 1 column 1 (char 0))"),
        (["commute", "--n", "4", "--family", "preset:demazure", "--family2", "case2",
          "--params2", "1,2,1,2", "--lines2", ""],
         "--lines is empty; give one of l1..l4 per index"),
        (["commute", "--n", "4", "--family", "preset:demazure",
          "--family2", "preset:pure_ddiff", "--params2", ""],
         '--params: [0] "" is not a field element p/q or p/q+r/sz'),
        (["verify", "--n", "4", "--family", "vanq0", "--config", ""],
         "--config is empty; give a JSON file"),
        (["hecke", "--n", "3", "--family", "degen-t", "--config", ""],
         "--config is empty; give a JSON file"),
        (["commute", "--n", "4", "--family", "preset:demazure",
          "--family2", "vanq0", "--config2", ""],
         "--config is empty; give a JSON file"),
    ], ids=["lines", "params", "seed-poly", "lines2", "params2", "config", "config-degen-t",
            "config2"])
    def test_empty_value_exits_two(self, argv, message, capsys):
        assert run(argv, capsys) == (2, "", f"error: {message}\n")

    def test_absent_config_is_missing(self, capsys):
        assert run(["verify", "--n", "4", "--family", "vanq0"], capsys) == (
            2, "", "error: this family needs --config with a JSON file\n")

    def test_unreadable_config_names_the_option(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        argv = ["verify", "--n", "4", "--family", "vanq0", "--config"]
        assert run([*argv, missing], capsys) == (
            2, "", f"error: --config: cannot read {missing!r} (No such file or directory)\n")
        assert run([*argv, str(tmp_path)], capsys) == (
            2, "", f"error: --config: cannot read {str(tmp_path)!r} (Is a directory)\n")

    @pytest.mark.parametrize("lines,message", [
        ("l1,,l1", "--lines: [1] unknown line ''; use l1..l4"),
        ("l1,l2,l5", "--lines: [2] unknown line 'l5'; use l1..l4"),
        (",", "--lines: [0] unknown line ''; use l1..l4"),
    ], ids=["empty-entry", "unknown-entry", "comma"])
    def test_lines_entry_refusal_names_option_and_entry(self, lines, message, capsys):
        argv = ["verify", "--n", "4", "--family", "case2", "--params", "1,2,1,2",
                "--lines", lines]
        assert run(argv, capsys) == (2, "", f"error: {message}\n")

    def test_empty_word_is_the_empty_word(self, capsys):
        argv = ["apply", "--n", "3", "--family", "preset:demazure", "--output", "text"]
        assert run([*argv, "--word", ""], capsys) == run(argv, capsys)


class TestConfigFamilies:
    def test_degen_t_from_config(self, tmp_path, capsys):
        cfg = {
            "qhat": [{"e": [0, 0], "c": "1"}],
            "p": ["0", "1"],
            "pairs": [[["0", "1"], ["1"]], [["1"], ["0", "1"]]],
        }
        path = tmp_path / "degent.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run(
            ["verify", "--n", "3", "--family", "degen-t", "--config", str(path)],
            capsys,
        )
        assert code == 0

    def test_vanq0_from_config(self, tmp_path, capsys):
        cfg = {
            "mu": "1",
            "isolated": [
                {
                    "index": 1,
                    "phi": [{"e": [0, 0], "c": "1"}],
                    "psi": [{"e": [1, 0], "c": "1"}],
                }
            ],
            "intervals": [],
        }
        path = tmp_path / "vanq0.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run(
            ["verify", "--n", "4", "--family", "vanq0", "--config", str(path)],
            capsys,
        )
        assert code == 0

    @pytest.mark.parametrize("field,value,message", [
        pytest.param("p", 5, "p must be a JSON list, not number", id="p-5"),
        pytest.param("qhat", [{"e": [0, 0], "c": 1}],
                     "qhat[0].c must be a JSON string, not number", id="qhat-value1"),
    ])
    def test_malformed_degen_t_config_exits_two(self, field, value, message,
                                                tmp_path, capsys):
        cfg = {
            "qhat": [{"e": [0, 0], "c": "1"}],
            "p": ["0", "1"],
            "pairs": [[["0", "1"], ["1"]], [["1"], ["0", "1"]]],
            field: value,
        }
        path = tmp_path / "degent.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run(
            ["verify", "--n", "3", "--family", "degen-t", "--config", str(path)],
            capsys,
        )
        assert (code, out, err) == (2, "", f"error: degen-t config: {message}\n")

    @pytest.mark.parametrize("family,n,config,message", _cases(
        ("p must be a JSON list, not str", "degen-t", "3", {**DEGENT3, "p": "12"},
         "p must be a JSON list, not string"),
        ("pairs entry must be a JSON list, not str", "degen-t", "3",
         {**DEGENT3, "pairs": [["0", ["1"]], [["1"], ["0", "1"]]]},
         "pairs[0][0] must be a JSON list, not string"),
        ("pairs entry must be a JSON list, not str", "degen-t", "3",
         {**DEGENT3, "pairs": ["ab", [["1"], ["0", "1"]]]},
         "pairs[0] must be a JSON list, not string"),
        ("lines must be a JSON list, not str", "vanq0", "5", {"mu": "1", "intervals": [
            {"start": 2, "stop": 3, "a": "1", "b": "2", "c": "1", "d": "2",
             "lines": "l1"}]}, "intervals[0].lines must be a JSON list, not string"),
        ("isolated must be a JSON list, not dict", "vanq0", "4",
         {"mu": "1", "isolated": {"index": 1}}, "isolated must be a JSON list, not object"),
        ("vanq0 config must be a JSON object, not list", "vanq0", "4", [],
         "top level must be a JSON object, not list"),
        ("isolated entry 0 must be a JSON object, not list", "vanq0", "4",
         {"mu": "1", "isolated": [[1, [], []]]},
         "isolated[0] must be a JSON object, not list"),
        *[(f"pairs entry 0 must hold two lists [q_l, q_r], not {len(pair)}", "degen-t", "3",
           _with(DEGENT3, ("pairs", 0), pair),
           f"pairs[0] must hold two lists [q_l, q_r], not {len(pair)}")
          for pair in ([], [["0", "1"]], [["0", "1"], ["1"], ["1"]])],
        # Every coefficient is a JSON string.
        ("field 'mu' in vanq0 config must be a JSON string, not int", "vanq0", "4",
         {**VANQ0_ISOLATED, "mu": 1}, "mu must be a JSON string, not number"),
        ("field 'c' in isolated entry 0 phi entry 0 must be a JSON string, not int",
         "vanq0", "4", _with(VANQ0_ISOLATED, ("isolated", 0, "phi", 0, "c"), 1),
         "isolated[0].phi[0].c must be a JSON string, not number"),
        ("field 'c' in isolated entry 0 psi entry 0 must be a JSON string, not NoneType",
         "vanq0", "4", _with(VANQ0_ISOLATED, ("isolated", 0, "psi", 0, "c"), None),
         "isolated[0].psi[0].c must be a JSON string, not null"),
        *[(f"field {x!r} in intervals entry 0 must be a JSON string, not int", "vanq0", "5",
           _with(VANQ0_INTERVAL, ("intervals", 0, x), 2),
           f"intervals[0].{x} must be a JSON string, not number") for x in "abcd"],
        ("intervals entry 0 lines entry 1 must be a JSON string, not int", "vanq0", "5",
         _with(VANQ0_INTERVAL, ("intervals", 0, "lines", 1), 4),
         "intervals[0].lines[1] must be a JSON string, not number"),
        ("field 'c' in qhat entry 0 must be a JSON string, not float", "degen-t", "3",
         _with(DEGENT3, ("qhat", 0, "c"), 1.5), "qhat[0].c must be a JSON string, not number"),
        ("p entry 1 must be a JSON string, not int", "degen-t", "3",
         _with(DEGENT3, ("p", 1), 1), "p[1] must be a JSON string, not number"),
        ("pairs entry 0 q_l entry 1 must be a JSON string, not int", "degen-t", "3",
         _with(DEGENT3, ("pairs", 0, 0, 1), 1),
         "pairs[0][0][1] must be a JSON string, not number"),
        ("pairs entry 1 q_r entry 0 must be a JSON string, not bool", "degen-t", "3",
         _with(DEGENT3, ("pairs", 1, 1, 0), True),
         "pairs[1][1][0] must be a JSON string, not boolean"),
        # A string that is no field element, and an exponent vector of the
        # wrong length, are named by their path too.
        ("mu is not a field element", "vanq0", "4", {**VANQ0_ISOLATED, "mu": "x"},
         'mu "x" is not a field element p/q or p/q+r/sz'),
        ("c is not a field element", "vanq0", "4",
         _with(VANQ0_ISOLATED, ("isolated", 0, "phi", 0, "c"), "1/0"),
         'isolated[0].phi[0].c "1/0" is not a field element p/q or p/q+r/sz'),
        ("pairs entry is not a field element", "degen-t", "3",
         _with(DEGENT3, ("pairs", 1, 0, 0), "one"),
         'pairs[1][0][0] "one" is not a field element p/q or p/q+r/sz'),
        ("phi exponent vector of the wrong length", "vanq0", "4",
         _with(VANQ0_ISOLATED, ("isolated", 0, "phi", 0, "e"), [0, 0, 0]),
         "isolated[0].phi[0].e must have 2 entries, not 3"),
        ("qhat exponent vector of the wrong length", "degen-t", "3",
         _with(DEGENT3, ("qhat", 0, "e"), [0]), "qhat[0].e must have 2 entries, not 1"),
    ))
    def test_wrong_shape_config_exits_two(self, family, n, config, message,
                                          tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, out, err = run(
            ["hecke", "--n", n, "--family", family, "--config", str(path)], capsys
        )
        assert (code, out, err) == (2, "", f"error: {family} config: {message}\n")

    @pytest.mark.parametrize("seed,message", [
        pytest.param(seed, message, id=f"{seed}-{label}") for label, seed, message in [
            ("term list must be a JSON list, not dict", "{}",
             "top level must be a JSON list, not object"),
            ("exponent vector must be a JSON list, not str", '[{"e": "100", "c": "1"}]',
             "[0].e must be a JSON list, not string"),
            ("field 'c' in term list entry 0 must be a JSON string, not int",
             '[{"e": [1, 0, 0], "c": 2}]', "[0].c must be a JSON string, not number"),
            ("exponent vector of the wrong length", '[{"e": [1, 0], "c": "1"}]',
             "[0].e must have 3 entries, not 2"),
            ("not a field element", '[{"e": [1, 0, 0], "c": "1/2z"}]',
             '[0].c "1/2z" is not a field element p/q or p/q+r/sz'),
            ("not JSON", "[", "top level cannot be read as JSON "
             "(Expecting value: line 1 column 2 (char 1))"),
        ]
    ])
    def test_wrong_shape_seed_poly_exits_two(self, seed, message, capsys):
        code, out, err = run(
            ["table", "--n", "3", "--family", "preset:demazure", "--seed-poly", seed],
            capsys,
        )
        assert (code, out, err) == (2, "", f"error: --seed-poly: {message}\n")

    def test_deeply_nested_seed_poly_exits_two(self, capsys):
        seed = "[" * 100_000 + "]" * 100_000
        code, out, err = run(
            ["apply", "--n", "3", "--family", "preset:demazure", "--seed-poly", seed], capsys
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: --seed-poly: top level cannot be read as JSON (")
        assert err.count("\n") == 1

    def test_malformed_seed_poly_exits_two(self, capsys):
        code, out, err = run(
            ["table", "--n", "3", "--family", "preset:demazure",
             "--seed-poly", '[{"e": [0, 0, 0], "c": 1}]'],
            capsys,
        )
        assert (code, out, err) == (
            2, "", "error: --seed-poly: [0].c must be a JSON string, not number\n")

    @pytest.mark.parametrize("exponent", ["-1", "1.5", "true", '"1"'])
    def test_bad_seed_poly_exponent_exits_two(self, exponent, capsys):
        seed = f'[{{"e": [1, {exponent}, 0], "c": "1/1"}}]'
        code, out, err = run(
            ["apply", "--n", "3", "--family", "preset:demazure", "--word", "1",
             "--seed-poly", seed],
            capsys,
        )
        problem = {"true": "must be a JSON number, not boolean",
                   '"1"': "must be a JSON number, not string"}.get(
            exponent, f"{exponent} is not a non-negative integer")
        assert (code, out, err) == (2, "", f"error: --seed-poly: [0].e[1] {problem}\n")

    def test_seed_poly_exponent_over_the_limit_exits_two(self, capsys):
        code, out, err = run(
            ["apply", "--n", "3", "--family", "preset:demazure", "--word", "1",
             "--seed-poly", '[{"e": [100001, 0, 0], "c": "1"}]'],
            capsys,
        )
        assert (code, out, err) == (
            2, "", "error: --seed-poly: [0].e[0] 100001 exceeds the limit 100000\n")

    def test_exponent_over_the_limit_is_shown_as_json_wrote_it(self, capsys):
        code, out, err = run(
            ["apply", "--n", "3", "--family", "preset:demazure", "--word", "1",
             "--seed-poly", '[{"e": [1e300, 0, 0], "c": "1"}]'],
            capsys,
        )
        assert (code, out, err) == (
            2, "", "error: --seed-poly: [0].e[0] 1e+300 exceeds the limit 100000\n")

    def test_seed_poly_exponent_at_the_limit_is_read(self, capsys):
        code, out, err = run(
            ["apply", "--n", "3", "--family", "preset:demazure", "--word", "",
             "--seed-poly", '[{"e": [100000, 0, 0], "c": "1"}]'],
            capsys,
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["poly"] == [{"e": [100000, 0, 0], "c": "1"}]

    def test_long_inline_seed_poly_is_not_read_as_a_path(self, capsys):
        seed = json.dumps([{"e": [k, 19 - k, 0], "c": "1"} for k in range(20)])
        assert len(seed) > 255  # longer than a file name may be
        code, out, err = run(
            ["apply", "--n", "3", "--family", "preset:demazure", "--word", "1",
             "--seed-poly", seed],
            capsys,
        )
        assert (code, err) == (0, "")
        assert len(json.loads(out)["poly"]) > 0

    def test_missing_seed_poly_file_exits_two(self, tmp_path, capsys):
        code, out, err = run(
            ["apply", "--n", "3", "--family", "preset:demazure", "--word", "1",
             "--seed-poly", str(tmp_path / "missing.json")],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["table", "apply"])
    def test_unreadable_seed_poly_names_the_option(self, command, tmp_path, capsys):
        argv = [command, "--n", "3", "--family", "preset:demazure", "--seed-poly", str(tmp_path)]
        assert run(argv, capsys) == (
            2, "", f"error: --seed-poly: cannot read {str(tmp_path)!r} (Is a directory)\n")

    @pytest.mark.parametrize("argv", [
        ["verify", "--n", "4", "--family", "vanq0", "--config"],
        ["hecke", "--n", "3", "--family", "degen-t", "--config"],
        ["table", "--n", "3", "--family", "preset:demazure", "--seed-poly"],
        ["apply", "--n", "3", "--family", "preset:demazure", "--seed-poly"],
    ], ids=["vanq0-config", "degen-t-config", "table-seed", "apply-seed"])
    def test_file_that_is_not_utf8_names_the_option(self, argv, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b"\xff\xfe")
        assert run([*argv, str(path)], capsys) == (
            2, "", f"error: {argv[-1]}: cannot read {str(path)!r} ('utf-8' codec can't "
            "decode byte 0xff in position 0: invalid start byte)\n")

    @pytest.mark.parametrize("command", ["table", "apply"])
    def test_value_too_long_to_name_a_file_is_read_as_json(self, command, capsys):
        argv = [command, "--n", "3", "--family", "preset:demazure", "--seed-poly", "x" * 300]
        assert run(argv, capsys) == (
            2, "", "error: --seed-poly: top level cannot be read as JSON "
            "(Expecting value: line 1 column 1 (char 0))\n")

    @pytest.mark.parametrize("name,n,segments,key,value", [
        *[("vanq0_isolated.json", 4, "isolated", "index", v) for v in (1.9, True, "1")],
        *[("vanq0_interval.json", 5, "intervals", key, v)
          for key in ("start", "stop") for v in (2.5, True, "2")],
    ])
    def test_non_integer_config_index_exits_two(self, name, n, segments, key, value,
                                                tmp_path, capsys):
        cfg = json.loads((GOLDEN / name).read_text())
        cfg[segments][0][key] = value
        path = tmp_path / "vanq0.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run(
            ["hecke", "--n", str(n), "--family", "vanq0", "--config", str(path)], capsys
        )
        problem = (f"{value} is not a non-negative integer" if type(value) is float
                   else f"must be a JSON number, not {JSON_TYPE[type(value)]}")
        assert (code, out, err) == (
            2, "", f"error: vanq0 config: {segments}[0].{key} {problem}\n")

    def test_integral_float_exponent_reads_as_int(self):
        p = poly_from_json([{"e": [2.0, 0, 1], "c": "1"}], 3)
        assert p == MultiPoly.monomial(3, (2, 0, 1))

    @pytest.mark.parametrize("exponent", [-1, 0.5, False])
    def test_bad_config_exponent_exits_two(self, exponent, tmp_path, capsys):
        cfg = {
            "qhat": [{"e": [exponent, 0], "c": "1"}],
            "p": ["0", "1"],
            "pairs": [[["0", "1"], ["1"]], [["1"], ["0", "1"]]],
        }
        path = tmp_path / "degent.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run(
            ["verify", "--n", "3", "--family", "degen-t", "--config", str(path)],
            capsys,
        )
        problem = ("must be a JSON number, not boolean" if exponent is False
                   else f"{exponent} is not a non-negative integer")
        assert (code, out, err) == (2, "", f"error: degen-t config: qhat[0].e[0] {problem}\n")

    def test_config_exponent_over_the_limit_exits_two(self, tmp_path, capsys):
        path = tmp_path / "degent.json"
        path.write_text(json.dumps({**DEGENT3, "qhat": [{"e": [100001, 0], "c": "1"}]}))
        code, out, err = run(
            ["verify", "--n", "3", "--family", "degen-t", "--config", str(path)],
            capsys,
        )
        assert (code, out, err) == (
            2, "", "error: degen-t config: qhat[0].e[0] 100001 exceeds the limit 100000\n")

    def test_missing_config_exits_two(self, capsys):
        code, _, err = run(["verify", "--n", "4", "--family", "vanq0"], capsys)
        assert code == 2

    def test_unknown_config_line_reads_like_lines_option(self, tmp_path, capsys):
        cfg = {
            "mu": "1",
            "isolated": [],
            "intervals": [
                {"start": 1, "stop": 2, "a": "0", "b": "1", "c": "0", "d": "0",
                 "lines": ["l9", "l1"]}
            ],
        }
        path = tmp_path / "vanq0.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run(
            ["verify", "--n", "5", "--family", "vanq0", "--config", str(path)],
            capsys,
        )
        code_lines, out_lines, err_lines = run(
            ["verify", "--n", "3", "--family", "case2", "--params", "0,1,0,0",
             "--lines", "l9,l1"],
            capsys,
        )
        assert (code_lines, out_lines, err_lines) == (
            2, "", "error: --lines: [0] unknown line 'l9'; use l1..l4\n")
        # The config names the entry's path, then the problem as --lines words it.
        problem = err_lines.removeprefix("error: --lines: [0] ")
        assert (code, out, err) == (
            2, "", f"error: vanq0 config: intervals[0].lines[0] {problem}")


class TestConfigFields:
    @pytest.mark.parametrize("family,n,config,message", _cases(
        ("unknown field 'isolatd' in vanq0 config", "vanq0", "4",
         {"mu": "1", "isolatd": VANQ0_ISOLATED["isolated"]}, "isolatd is an unknown field"),
        ("missing field 'mu' in vanq0 config", "vanq0", "4", {"isolated": []},
         "mu is missing"),
        ("unknown field 'psy' in isolated entry 0", "vanq0", "4",
         _with(VANQ0_ISOLATED, ("isolated", 0, "psy"), []),
         "isolated[0].psy is an unknown field"),
        ("missing field 'psi' in isolated entry 0", "vanq0", "4",
         _with(VANQ0_ISOLATED, ("isolated", 0), {"index": 1, "phi": []}),
         "isolated[0].psi is missing"),
        ("unknown field 'x' in isolated entry 0 phi entry 0", "vanq0", "4",
         _with(VANQ0_ISOLATED, ("isolated", 0, "phi", 0, "x"), 2),
         "isolated[0].phi[0].x is an unknown field"),
        ("unknown field 'line' in intervals entry 0", "vanq0", "5",
         _with(VANQ0_INTERVAL, ("intervals", 0, "line"), ["l3", "l4"]),
         "intervals[0].line is an unknown field"),
        ("missing field 'a' in intervals entry 0", "vanq0", "5",
         {"mu": "1", "intervals": [{"start": 2, "stop": 3}]}, "intervals[0].a is missing"),
        ("unknown field 'q_hat' in degen-t config", "degen-t", "3",
         {**DEGENT3, "q_hat": DEGENT3["qhat"]}, "q_hat is an unknown field"),
        ("missing field 'pairs' in degen-t config", "degen-t", "3",
         {"qhat": DEGENT3["qhat"], "p": DEGENT3["p"]}, "pairs is missing"),
        ("missing field 'c' in qhat entry 0", "degen-t", "3",
         {**DEGENT3, "qhat": [{"e": [0, 0]}]}, "qhat[0].c is missing"),
        ("unknown field 'x' in isolated entry 1 phi entry 0", "vanq0", "4",
         {**VANQ0_ISOLATED, "isolated": [
             *VANQ0_ISOLATED["isolated"],
             {"index": 3, "phi": [{"e": [0, 0], "c": "1", "x": 2}], "psi": []}]},
         "isolated[1].phi[0].x is an unknown field"),
        # A field name that is no identifier is quoted as a JSON string.
        ("unknown field with a space", "vanq0", "4", {**VANQ0_ISOLATED, "is olated": []},
         '["is olated"] is an unknown field'),
    ))
    def test_unknown_or_missing_field_exits_two(self, family, n, config, message,
                                                tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, out, err = run(
            ["hecke", "--n", n, "--family", family, "--config", str(path)], capsys
        )
        assert (code, out, err) == (2, "", f"error: {family} config: {message}\n")

    @pytest.mark.parametrize("seed,message", [
        pytest.param(seed, message, id=f"{seed}-{label}") for label, seed, message in [
            ("unknown field 'x' in term list entry 0", '[{"e": [1, 0, 0], "c": "1", "x": 2}]',
             "[0].x is an unknown field"),
            ("missing field 'c' in term list entry 1",
             '[{"e": [1, 0, 0], "c": "1"}, {"e": [1, 0, 0]}]', "[1].c is missing"),
        ]
    ])
    def test_seed_poly_term_fields_checked(self, seed, message, capsys):
        code, out, err = run(
            ["apply", "--n", "3", "--family", "preset:demazure", "--seed-poly", seed],
            capsys,
        )
        assert (code, out, err) == (2, "", f"error: --seed-poly: {message}\n")


# -- term lists ------------------------------------------------------------------


def _plain_terms(value, arity: int) -> dict | None:
    """The exponent -> coefficient map of a term list read in plain Python,
    with no _Json, or None if a term list must be refused: items of exactly
    the fields e and c, arity exponents each an int or an integral float in
    0..MAX_EXPONENT, coefficients that FieldElement.parse reads, equal
    exponents summed."""
    if type(value) is not list:
        return None
    terms = {}
    for item in value:
        if type(item) is not dict or set(item) != {"e", "c"}:
            return None
        e, c = item["e"], item["c"]
        if type(e) is not list or len(e) != arity or type(c) is not str or not all(
                (type(x) is int or type(x) is float and x.is_integer())
                and 0 <= x <= cli.MAX_EXPONENT for x in e):
            return None
        try:
            coeff = FieldElement.parse(c)
        except ValueError:
            return None
        e = tuple(int(x) for x in e)
        terms[e] = terms.get(e, FieldElement.of(0)) + coeff
    return terms


# Values json.loads can return where a term list holds an exponent or a
# coefficient: the edges of each check, and a value of every other JSON type.
ODD_EXPONENTS = st.sampled_from([cli.MAX_EXPONENT, cli.MAX_EXPONENT + 1, -1, 2.0, 0.0, -0.0,
                                 2.5, 1e300, True, False, "1", None, [], {}])
GOOD_COEFFS = st.sampled_from(["1", "-1", "1/1", "-3/4+2/3z", "0-1z", "0", " 2 "])
ODD_COEFFS = st.sampled_from(["1/0", "1/2z", "x", "", 1, 1.5, None, True, [], {}])


@st.composite
def term_items(draw, arity: int):
    """An item of a term list: {"e": [...], "c": "p/q"} with arity
    exponents from 0..3, its fields in either order, or, one time in two,
    with one fault: not an object, an odd exponent or coefficient, the wrong
    number of exponents, or an extra or a missing field."""
    exponents = draw(st.lists(st.integers(0, 3), min_size=arity, max_size=arity))
    fields = {"e": exponents, "c": draw(GOOD_COEFFS)}
    fault = draw(st.integers(0, 11))
    if fault == 6:
        return draw(st.sampled_from([[], "e", 3, None, True, [{"e": [0], "c": "1"}]]))
    if fault == 7:
        exponents[draw(st.integers(0, arity - 1))] = draw(ODD_EXPONENTS)
    elif fault == 8:
        fields["c"] = draw(ODD_COEFFS)
    elif fault == 9:
        fields["e"] = exponents[:draw(st.integers(0, arity - 1))] or exponents + [0]
    elif fault == 10:
        fields[draw(st.sampled_from(["x", "a", "z"]))] = 1
    elif fault == 11:
        del fields[draw(st.sampled_from(["e", "c"]))]
    if draw(st.booleans()):
        fields = dict(reversed(fields.items()))
    return fields


@given(st.integers(1, 4).flatmap(lambda arity: st.tuples(st.just(arity), st.one_of(
    st.lists(term_items(arity), max_size=6),
    st.sampled_from([{}, {"e": [0], "c": "1"}, "[]", 0, 1.5, True, None])))))
@example((2, []))
@example((2, [{"e": [1, 0], "c": "1/2"}, {"c": "-1/2", "e": [1, 0]}, {"e": [0, 1], "c": "3"}]))
@example((2, [{"e": [cli.MAX_EXPONENT, 0], "c": "1"}, {"e": [0, cli.MAX_EXPONENT + 1], "c": "1"}]))
@example((2, [{"e": [2.0, 0], "c": "1"}, {"e": [2, 0], "c": "1"}]))
@example((2, [{"e": [1, 0], "c": "1", "x": 2}]))
@example((2, [{"e": [1, 0], "c": 1}, {"e": [1], "c": "1"}]))
@example((2, [{"e": [1, 0], "c": "1/0"}]))
@example((1, [{"e": [True], "c": "1"}]))
@example((1, [{"e": [-1], "c": "1"}]))
@settings(max_examples=300, deadline=None)
def test_term_list_reader_reads_or_refuses_as_plain_python(case):
    """poly_from_json against _plain_terms: a list is read or refused with a
    ConfigError and nothing else, an accepted list gives the polynomial of
    _plain_terms and a refused one is one that _plain_terms refuses, for
    bools, integral floats, negative exponents, the MAX_EXPONENT edge, wrong
    arity, extra or missing fields, non-string and bad coefficients,
    duplicate exponents that cancel, [] and tops that are not lists."""
    arity, value = case
    expected = _plain_terms(value, arity)
    try:
        poly = poly_from_json(value, arity)
    except cli.ConfigError:
        assert expected is None
    else:
        assert expected is not None and poly == MultiPoly(arity, expected)


class TestReportSizeLimit:
    LIMIT = cli.MAX_REPORT_N

    @pytest.mark.parametrize("argv", [
        ["verify", "--family", "preset:demazure"],
        ["verify", "--family", "case2", "--random-trials", "3"],
        ["commute", "--family", "preset:demazure", "--family2", "preset:demazure"],
    ])
    def test_over_the_limit_exits_two(self, argv, capsys):
        for n in (self.LIMIT + 1, 100_000):
            code, out, err = run([*argv, "--n", str(n)], capsys)
            assert (code, out) == (2, "")
            assert err == (f"error: --n {n} exceeds the limit {self.LIMIT} "
                           "of verify and commute\n")

    def test_at_the_limit_runs(self, capsys):
        code, out, err = run(
            ["verify", "--n", str(self.LIMIT), "--family", "preset:demazure"], capsys
        )
        assert (code, err) == (0, "")
        assert out.count("\n") == (self.LIMIT - 2) + (self.LIMIT - 2) * (self.LIMIT - 3) // 2 + 1

    def test_other_commands_take_a_larger_n(self, capsys):
        code, out, err = run(
            ["hecke", "--n", str(self.LIMIT + 1), "--family", "preset:demazure"], capsys
        )
        assert (code, err) == (0, "")
        assert out.count("\n") == self.LIMIT


class TestHeckeSizeLimit:
    """hecke and apply share one limit on --n."""
    LIMIT = cli.MAX_HECKE_N
    # command -> (its family and options, its text output's line count at the limit)
    COMMANDS = {"hecke": (["--family", "case2", "--params", "1,2,1,2"], LIMIT - 1),
                "apply": (["--family", "preset:demazure", "--word", "1"], 1)}

    @pytest.mark.parametrize("command", COMMANDS)
    def test_over_the_limit_exits_two_before_building_the_family(self, command, monkeypatch,
                                                                 capsys):
        built = []
        monkeypatch.setattr(cli, "build_family", lambda *args: built.append(args))
        for n in (self.LIMIT + 1, 10 * self.LIMIT):
            code, out, err = run([command, "--n", str(n), *self.COMMANDS[command][0],
                                  "--output", "json"], capsys)
            assert (code, out, err) == (2, "", f"error: --n {n} exceeds the limit "
                                               f"{self.LIMIT} of {command}\n")
        assert built == []

    @pytest.mark.parametrize("command", COMMANDS)
    def test_at_the_limit_runs(self, command, capsys):
        options, lines = self.COMMANDS[command]
        code, out, err = run([command, "--n", str(self.LIMIT), *options, "--output", "text"],
                             capsys)
        assert (code, err) == (0, "")
        assert out.count("\n") == lines


def test_table_refuses_a_large_n_before_building_the_family(monkeypatch, capsys):
    built = []
    monkeypatch.setattr(cli, "build_family", lambda *args: built.append(args))
    code, out, err = run(["table", "--n", "7", "--family", "case2",
                          "--params", "1,2,1,2"], capsys)
    assert (code, out, err) == (2, "", "error: tables capped at n = 6\n")
    assert built == []


def test_memory_error_exits_two(monkeypatch, capsys):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "polynomial_table", exhausted)
    code, out, err = run(["table", "--n", "3", "--family", "preset:demazure"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: out of memory") and err.count("\n") == 1


def test_runs_as_a_module(tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-m", "braidops", "verify", "--n", "3",
         "--family", "preset:demazure"],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert done.returncode == 0
    assert done.stdout.endswith("overall: pass\n")


# -- the JSON writers and the cached parser ------------------------------------

# Tables, apply and hecke print through the CLI's own writers; the bytes are
# those of the stdlib over the plain JSON values, plus the newline print adds.

def _reference(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _entry_json(entry) -> dict:
    return {"perm": list(entry.perm.one_line), "word": list(entry.word),
            "poly": poly_to_json(entry.poly)}


# Coefficients with z parts, negative parts and denominators other than 1; an
# empty map is the zero polynomial.
WRITER_COEFFS = st.builds(
    FieldElement,
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=30),
    st.fractions(min_value=-40, max_value=40, max_denominator=12) | st.just(0),
)


@st.composite
def writer_polys(draw, n):
    exponent = st.integers(0, 12)
    terms = draw(st.dictionaries(st.tuples(*[exponent] * n), WRITER_COEFFS, max_size=8))
    return MultiPoly(n, terms)


@st.composite
def writer_words(draw, n):
    return tuple(draw(st.lists(st.integers(1, n - 1), max_size=6)))


@given(st.integers(2, 6).flatmap(lambda n: st.tuples(
    st.just(n), writer_polys(n), writer_words(n),
    st.lists(st.tuples(st.permutations(range(1, n + 1)), writer_words(n), writer_polys(n)),
             min_size=1, max_size=4))))
@example((2, MultiPoly.zero(2), (), [((1, 2), (), MultiPoly.zero(2))]))
@example((3, MultiPoly.const(3, "-1/2+3/4z"), (2, 1),
          [((3, 2, 1), (1,), MultiPoly(3, {(2, 1, 0): "-7/3-1z", (0, 0, 1): "5"}))]))
@settings(max_examples=60, deadline=None)
def test_apply_and_table_writers_match_dumps(case):
    """The two streaming writers against json.dumps over poly_to_json, with
    the computation replaced by drawn polynomials and entries."""
    n, poly, word, rows = case
    entries = [TableEntry(perm=Permutation(tuple(perm)), word=w, poly=p) for perm, w, p in rows]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "apply_word", lambda fam, letters, seed: poly)
        patch.setattr(cli, "polynomial_table", lambda fam, seed: entries)
        family = ["--n", str(n), "--family", "preset:demazure"]
        applied = run_quietly(["apply", *family, "--word", ",".join(map(str, word))])
        table = run_quietly(["table", *family])
    assert applied == (0, _reference({"n": n, "word": list(word),
                                      "poly": poly_to_json(poly)}), "")
    assert table == (0, _reference({"n": n, "entries": [_entry_json(e) for e in entries]}), "")


def _odd_seed(n: int) -> str:
    """A --seed-poly in n variables with z parts, negative parts and
    denominators, of degree 3, so that d kills it along long words."""
    return json.dumps([{"e": [2] + [0] * (n - 2) + [1], "c": "-3/4+2/3z"},
                       {"e": [0, 1] + [0] * (n - 2), "c": "5/6"},
                       {"e": [1] * min(n, 3) + [0] * (n - 3), "c": "0-1z"}])


@pytest.mark.parametrize("family, params, lines", [
    ("preset:pure_ddiff", None, None), ("preset:demazure", None, None),
    ("preset:grothendieck", None, None), ("preset:grothendieck", "-2/3", None),
    ("case1", "1,2,1,2,3", None), ("case2", "1,2,1,2", "l1,l3,l4"),
])
@pytest.mark.parametrize("seed", [None, _odd_seed], ids=["staircase", "odd-seed"])
def test_table_writer_matches_dumps(family, params, lines, seed):
    """Whole tables at n = 2..5 (case1 and case2 to n = 4: their n = 5
    staircase tables hold over 80,000 terms) against json.dumps.  Every table
    lists w0 with the empty word; the odd seed, w0's entry, has coefficients
    with a denominator and a z part, and d kills it along the long words of
    n = 4 and 5, so pure_ddiff and grothendieck at beta = 0 list zero
    entries ("poly": []) between nonzero ones."""
    for n in range(2, 5 if family.startswith("case") else 6):
        argv = ["table", "--n", str(n), "--family", family]
        lines_n = lines and ",".join((lines.split(",") * n)[:n - 1])
        seed_n = seed and seed(n)
        for option, value in (("--params", params), ("--lines", lines_n), ("--seed-poly", seed_n)):
            argv += [f"{option}={value}"] if value is not None else []
        start = seed_n and poly_from_json(json.loads(seed_n), n)
        entries = polynomial_table(cli.build_family(family, n, params, lines_n, None), start)
        assert [e.poly for e in entries if not e.word] == [start or staircase(n)]
        killed = (seed is not None and n >= 4 and params is None
                  and family in ("preset:pure_ddiff", "preset:grothendieck"))
        assert any(not e.poly for e in entries) is killed
        expected = _reference({"n": n, "entries": [_entry_json(e) for e in entries]})
        assert run_quietly(argv) == (0, expected, "")


@given(st.integers(2, 7).flatmap(lambda n: st.lists(
    st.none() | st.tuples(WRITER_COEFFS, WRITER_COEFFS), min_size=n - 1, max_size=n - 1)))
@example([None])
@example([(FieldElement.of(0), FieldElement.parse("-3/4+2/5z")), None,
          (FieldElement.parse("0-1z"), FieldElement.of(0))])
@settings(max_examples=60, deadline=None)
def test_hecke_writer_matches_dumps(params):
    """hecke's listing writer against json.dumps, with the Hecke parameters
    replaced by drawn (mu, nu) pairs, or None where no relation holds."""
    n = len(params) + 1
    ops = tuple(identity_op(i) for i in range(1, n))
    drawn = dict(zip(map(id, ops), params))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "build_family", lambda *args: OperatorFamily(n, ops))
        patch.setattr(PDDO, "hecke_params", lambda op: drawn[id(op)])
        printed = run_quietly(["hecke", "--n", str(n), "--family", "preset:demazure",
                               "--output", "json"])
    assert printed == (0, _reference({"n": n, "hecke": [
        {"index": i, "mu": hp and str(hp[0]), "nu": hp and str(hp[1])}
        for i, hp in enumerate(params, 1)]}), "")


def test_refused_table_prints_nothing(monkeypatch):
    """The whole table is computed before its first byte is written, so a
    refusal at the table sweep's last operator application leaves stdout
    empty."""
    argv = ["table", "--n", "4", "--family", "case1", "--params", "1,2,1,2,3"]
    apply, calls = multipoly._apply, []

    def counted(f, k, action):
        calls.append(k)
        return apply(f, k, action)

    monkeypatch.setattr(multipoly, "_apply", counted)
    assert run_quietly(argv)[0] == 0
    last = len(calls)

    def refused(f, k, action):
        calls.append(k)
        if len(calls) == last:
            raise ValueError("refused at the last application")
        return apply(f, k, action)

    calls.clear()
    monkeypatch.setattr(multipoly, "_apply", refused)
    assert run_quietly(argv) == (2, "", "error: refused at the last application\n")


def _read_64_bytes_and_close(argv, env=()):
    """Run the CLI, with env added to its environment, into a pipe that is
    closed after 64 bytes, as `| head -c 64` does; return its exit status, its
    stderr and the 64 bytes."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src), **dict(env)}
    proc = subprocess.Popen([sys.executable, "-m", "braidops", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    head = proc.stdout.read(64)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return proc.wait(timeout=120), err, head


def test_closed_stdout_exits_141_silently():
    """A reader that closes the pipe early: nothing on stderr, and the status
    of a process that SIGPIPE killed, as cat gives."""
    # 1.39 MB of JSON, more than a pipe buffer holds, so the streamed writes
    # meet the closed pipe.
    status, err, head = _read_64_bytes_and_close(["table", "--n", "5", "--family",
                                                  "preset:demazure"])
    assert (status, err) == (141, b"")
    assert head.startswith(b'{\n  "entries": [\n    {\n      "perm": [')


@pytest.mark.parametrize("argv, first", [
    (["verify", "--n", "500", "--family", "preset:demazure", "--output", "text"],
     b"cubic  (1,2): pass\ncubic  (2,3): pass\n"),
    (["verify", "--n", "500", "--family", "preset:demazure", "--output", "json"],
     b'{\n  "cubic": {\n    "1,2": {\n'),
    (["apply", "--n", "3", "--family", "preset:demazure", "--word", "1",
      "--seed-poly", '[{"e": [3000, 0, 0], "c": "1"}]'], b'{\n  "n": 3,\n  "poly": [\n'),
], ids=["verify-text", "verify-json", "apply"])
@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_during_one_write_exits_141_silently(argv, first, unbuffered):
    """A 2.8 MB report, or a 0.3 MB apply result, printed in one call meets the
    closed pipe; with PYTHONUNBUFFERED (python -u) that write is cut short
    without an error, and the newline that print writes after it raises."""
    status, err, head = _read_64_bytes_and_close(argv, {"PYTHONUNBUFFERED": unbuffered})
    assert (status, err) == (141, b"")
    assert head.startswith(first)


# -- the report writer -----------------------------------------------------------

REPORT_LABELS = {"cubic": "cubic  ", "quad": "quad   ", "same_index": "same-index  ",
                 "distant": "distant     ", "consecutive": "consecutive "}


def _report_by_lines(report) -> str:
    """A report's text printed one line per print call, sections in field
    order and index pairs in sorted order; a same-index entry i reads (i,i)."""
    out = io.StringIO()
    for name, results in vars(report).items():
        for key, result in sorted(results.items()):
            i, k = key if isinstance(key, tuple) else (key, key)
            bad = [c for c, ok in getattr(result, "flags", {}).items() if not ok]
            detail = f"  (failing coefficients: {', '.join(bad)})" if bad else ""
            print(f"{REPORT_LABELS[name]}({i},{k}): {'pass' if result else 'FAIL'}{detail}",
                  file=out)
    print(f"overall: {'pass' if report.passed else 'FAIL'}", file=out)
    return out.getvalue()


def _kept(monkeypatch, name):
    """Replace cli.<name> by a wrapper that keeps each value it returns."""
    compute, kept = getattr(cli, name), []
    monkeypatch.setattr(cli, name, lambda *args: kept.append(compute(*args)) or kept[-1])
    return kept


def test_family_report_text_matches_one_print_per_line(monkeypatch):
    """A case1 family at n = 30 whose operator 15 gains u d_2: the cubic pairs
    next to it name failing coefficients."""
    build = cli.build_family

    def perturbed(*args):
        fam = build(*args)
        op, h = fam[15], SlotPoly.u()
        ops = list(fam.ops)
        ops[14] = PDDO(op.T + h, op.Q0 + h)
        return OperatorFamily(fam.n, tuple(ops))

    monkeypatch.setattr(cli, "build_family", perturbed)
    reports = _kept(monkeypatch, "family_braid_check")
    code, out, err = run_quietly(["verify", "--n", "30", "--family", "case1",
                                  "--params", "1,2,1,2,3", "--output", "text"])
    assert (code, err) == (1, "")
    assert out == _report_by_lines(reports[0])
    assert out.count("failing coefficients") == 2 and len(out.splitlines()) == 28 + 378 + 1


def test_commute_report_text_matches_one_print_per_line(monkeypatch):
    reports = _kept(monkeypatch, "cross_family_commute")
    code, out, err = run_quietly(["commute", "--n", "30", "--family", "preset:demazure",
                                  "--family2", "preset:demazure", "--output", "text"])
    assert (code, err) == (1, "")
    assert out == _report_by_lines(reports[0])
    assert "consecutive (1,2): FAIL\n" in out


def test_cached_parser_carries_nothing_between_calls(capsys):
    """One process, one parser: each call answers as a fresh process does."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    seed = json.dumps([{"e": [1, 0, 0], "c": "1/2-1z"}])
    sequence = [
        ["table", "--n", "3", "--family", "preset:demazure", "--seed-poly", seed],
        ["table", "--n", "3", "--family", "preset:demazure"],
        ["verify", "--n", "4", "--family", "case1", "--random-trials", "2",
         "--rng-seed", "3"],
        ["verify", "--n", "4", "--family", "case1", "--params", "1,2,1,2,3"],
        ["table", "--n", "3"],  # no --family: argparse exits 2
        ["hecke", "--n", "3", "--family", "case1", "--params", "1,2,1,2,3"],
    ]
    answers = []
    for argv in sequence:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        answers.append((code, *capsys.readouterr()))
    assert cli._build_parser() is cli._build_parser()
    fresh = [subprocess.run([sys.executable, "-m", "braidops", *argv],
                            capture_output=True, text=True, env=env)
             for argv in sequence]
    assert answers == [(done.returncode, done.stdout, done.stderr) for done in fresh]
    assert [code for code, _, _ in answers] == [0, 0, 0, 0, 2, 0]


# -- fuzzing the exit-code contract -------------------------------------------

FAMILY_NAMES = [name for name in cli._FAMILIES if name != "preset:"] + [
    "preset:pure_ddiff", "preset:demazure", "preset:grothendieck", "preset:nope", "nope",
]
OPTION_VALUES = {
    "params": ["1,2,1,2,3", "0,1,0,0", "1,2,1/2,1", "2", "", "1/0", "x", "1,,2"],
    "lines": ["l1,l2,l4", "l1,l1", "l1", "l9", "", "l1,l2,l3,l4", "l1,7"],
    "config": [str(GOLDEN / name) for name in (
        "degent3.json", "degent4.json", "vanq0_isolated.json", "vanq0_interval.json",
    )] + [str(GOLDEN / "missing.json"), str(GOLDEN), ""],
}


def run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_contract(code, err):
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    else:
        assert err == ""


@st.composite
def family_args(draw, suffix=""):
    """--family and a subset of --params/--lines/--config; half the time only
    options that the family takes."""
    family = draw(st.sampled_from(FAMILY_NAMES))
    key = "preset:" if family.startswith("preset:") else family
    takes = cli._FAMILIES[key][0] if key in cli._FAMILIES else ()
    fitting = draw(st.booleans())
    argv = [f"--family{suffix}", family]
    for option, values in OPTION_VALUES.items():
        if (option in takes or not fitting) and draw(st.booleans()):
            argv.append(f"--{option}{suffix}={draw(st.sampled_from(values))}")
    return argv


@st.composite
def cli_argvs(draw):
    command = draw(st.sampled_from(["verify", "hecke", "commute", "table", "apply"]))
    argv = [command, "--n", str(draw(st.integers(2, 4))), *draw(family_args())]
    if command == "commute":
        argv += draw(family_args("2"))
    if command == "verify" and draw(st.booleans()):
        argv += ["--random-trials", str(draw(st.integers(0, 2)))]
    if command == "verify" and draw(st.booleans()):
        argv += ["--rng-seed", str(draw(st.integers(0, 9)))]
    if command == "apply" and draw(st.booleans()):
        argv += ["--word", draw(st.sampled_from(["1", "2,1", "3,x"]))]
    return argv + ["--output", draw(st.sampled_from(["text", "json"]))]


@settings(max_examples=150, deadline=None)
@given(cli_argvs())
def test_fuzzed_argv_keeps_exit_code_contract(argv):
    code, _, err = run_quietly(argv)
    assert_contract(code, err)


# (config file, n, paths of every field that must be a JSON list, paths of
# every coefficient)
CONFIG_BASES = [
    ("degent4.json", 4, [("p",), ("pairs",), ("pairs", 1), ("pairs", 2, 0),
                         ("qhat",), ("qhat", 0, "e")],
     [("p", 0), ("pairs", 2, 0, 1), ("pairs", 1, 1, 0), ("qhat", 1, "c")]),
    ("vanq0_isolated.json", 4, [("isolated",), ("intervals",), ("isolated", 0, "phi"),
                                ("isolated", 0, "psi"), ("isolated", 0, "phi", 0, "e")],
     [("mu",), ("isolated", 0, "phi", 0, "c"), ("isolated", 0, "psi", 0, "c")]),
    ("vanq0_interval.json", 5, [("isolated",), ("intervals",), ("intervals", 0, "lines")],
     [("mu",), *[("intervals", 0, x) for x in "abcd"]]),
]
NOT_LISTS = st.one_of(
    st.text(max_size=4), st.integers(), st.floats(), st.booleans(), st.none(),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)
NOT_ELEMENTS = st.sampled_from(["x", "1/0", "", "1/2+", "z", "1 2", "0x1", "1/2z-3"])


def _object_fields(node, path=()):
    """The path of every field of every JSON object inside node."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield path + (key,)
            yield from _object_fields(value, path + (key,))
    elif isinstance(node, list):
        for k, value in enumerate(node):
            yield from _object_fields(value, path + (k,))


def _path_text(path):
    """A path such as ("isolated", 0, "phi") written isolated[0].phi."""
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}"
                   for key in path).lstrip(".")


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "config.json"


@settings(max_examples=100, deadline=None)
@given(base=st.sampled_from(CONFIG_BASES), data=st.data())
def test_fuzzed_config_keeps_exit_code_contract(config_file, base, data):
    name, n, list_fields, coefficients = base
    cfg = json.loads((GOLDEN / name).read_text())
    mutation = data.draw(st.sampled_from(["replace", "delete", "rename", "coefficient"]))
    # A rename misspells any field of any object in the config.
    fields = {"rename": list(_object_fields(cfg)),
              "coefficient": coefficients}.get(mutation, list_fields)
    path = data.draw(st.sampled_from(fields))
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    if mutation == "replace":
        value = parent[path[-1]] = data.draw(NOT_LISTS)
    elif mutation == "coefficient":
        value = parent[path[-1]] = data.draw(NOT_ELEMENTS)
    elif mutation == "rename":
        renamed = path[-1] + "s"
        parent[renamed] = parent.pop(path[-1])
    elif isinstance(parent, dict):
        del parent[path[-1]]
    else:
        parent.pop(path[-1])
    config_file.write_text(json.dumps(cfg))
    family = "degen-t" if name.startswith("degent") else "vanq0"
    command = data.draw(st.sampled_from(["verify", "hecke", "table"]))
    code, _, err = run_quietly(
        [command, "--n", str(n), "--family", family, "--config", str(config_file)]
    )
    assert_contract(code, err)
    # A refusal names the mutated field by its full path.
    where = f"error: {family} config: {_path_text(path)}"
    if mutation == "replace":
        assert (code, err) == (2, f"{where} must be a JSON list, not "
                                  f"{JSON_TYPE[type(value)]}\n")
    if mutation == "coefficient":
        assert (code, err) == (2, f"{where} {json.dumps(value)} is not a field element "
                                  "p/q or p/q+r/sz\n")
    if mutation == "rename":
        renamed_path = _path_text((*path[:-1], renamed))
        assert (code, err) == (2, f"error: {family} config: {renamed_path} "
                                  "is an unknown field\n")
