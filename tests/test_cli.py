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

from braidops import cli
from braidops.cli import main, poly_from_json, poly_to_json
from braidops.families import OperatorFamily
from braidops.multipoly import MultiPoly, SlotPoly
from braidops.pddo import PDDO, identity_op
from braidops.words import staircase


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
        one, two = identity_op(1), identity_op(2)
        monkeypatch.setattr(cli, "build_family",
                            lambda *args: OperatorFamily(4, (one, two, one)))
        computed = []
        hecke_params = PDDO.hecke_params
        monkeypatch.setattr(PDDO, "hecke_params",
                            lambda op: computed.append(op) or hecke_params(op))
        code, out, _ = run(["hecke", "--n", "4", "--family", "case1"], capsys)
        assert (code, out) == (0, "pi_1: mu = 1, nu = 0\npi_2: mu = 2, nu = 0\n"
                                  "pi_3: mu = 1, nu = 0\n")
        assert computed == [one, two]


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
    ], ids=["lines", "params", "seed-poly", "lines2", "params2"])
    def test_empty_value_exits_two(self, argv, message, capsys):
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
            2, "", "error: unknown line 'l9'; use l1..l4\n")
        # The config names the entry's path, then the problem as --lines words it.
        problem = err_lines.removeprefix("error: ")
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


# -- the JSON writer and the cached parser --------------------------------------

# Strings with quotes, backslashes, control characters and non-ASCII text.
JSON_TEXT = st.text(alphabet=st.sampled_from('a"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600')
                    | st.characters(), max_size=6)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(max_value=-10**40) | JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(JSON_TEXT, inner, max_size=4),
    max_leaves=30,
)


@given(JSON_VALUES)
@example({"": [], "a\"\\\x01\u00e9": {}, "b": [[{}], -10**60, True, False, None]})
def test_dumps_matches_json_dumps(obj):
    assert cli._dumps(obj) == json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize("obj", [1.5, (1, 2), {"a": [0.0]}, [(1,)], {1: "one"}],
                         ids=["float", "tuple", "nested-float", "nested-tuple", "int-key"])
def test_dumps_refuses_other_types(obj):
    with pytest.raises(TypeError):
        cli._dumps(obj)


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
