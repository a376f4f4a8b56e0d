"""Golden corpus of CLI output.

Every argv in ARGVS must reproduce its recorded exit code, stdout and stderr
byte for byte.  Configs and seeds live in tests/golden/, and argvs name configs
relative to that directory.  Re-record only when an output change is
intended:

    PYTHONPATH=src python3 tests/test_golden_cli.py
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from braidops.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CORPUS = GOLDEN / "cli_corpus.json"


def _seed(terms):
    return json.dumps([{"e": list(e), "c": c} for e, c in terms])


DENSE3 = _seed([((2, 1, 0), "1"), ((0, 2, 1), "-1/2"), ((1, 0, 1), "3"),
                ((1, 1, 1), "2+1z"), ((0, 0, 2), "1"), ((0, 0, 0), "-4")])
DENSE4 = _seed([((3, 2, 1, 0), "1"), ((2, 0, 1, 0), "1/3"),
                ((0, 1, 0, 2), "-2"), ((1, 1, 1, 1), "1"), ((0, 0, 0, 0), "5")])

CASE1 = ["--family", "case1", "--params", "1,2,1,2,3"]
CASE2_MIXED4 = ["--family", "case2", "--params", "0,1,0,0", "--lines", "l1,l2,l4"]
CASE2_MIXED5 = ["--family", "case2", "--params", "1,2,1/2,1",
                "--lines", "l1,l2,l4,l3"]
DEGENT3 = ["--family", "degen-t", "--config", "degent3.json"]
DEGENT4 = ["--family", "degen-t", "--config", "degent4.json"]
VANQ0 = ["--family", "vanq0", "--config", "vanq0_isolated.json"]
VANQ0_IV = ["--family", "vanq0", "--config", "vanq0_interval.json"]
JSON = ["--output", "json"]
TEXT = ["--output", "text"]


def _both(argv):
    return [argv + TEXT, argv + JSON]


ARGVS = [
    *_both(["verify", "--n", "4", *CASE1]),
    *_both(["verify", "--n", "4", *CASE2_MIXED4]),
    *_both(["verify", "--n", "5", *CASE2_MIXED5]),
    *_both(["verify", "--n", "6", "--family", "preset:grothendieck", "--params", "2"]),
    *_both(["verify", "--n", "3", *DEGENT3]),
    *_both(["verify", "--n", "4", *DEGENT4]),
    *_both(["verify", "--n", "4", *VANQ0]),
    *_both(["verify", "--n", "5", *VANQ0_IV]),
    *_both(["verify", "--n", "4", "--family", "case2",
            "--random-trials", "3", "--rng-seed", "5"]),
    ["verify", "--n", "5", "--family", "case1", "--random-trials", "2", "--rng-seed", "1"],
    ["verify", "--n", "4", "--family", "degen-t", "--random-trials", "2", "--rng-seed", "2"],
    ["verify", "--n", "4", "--family", "vanq0", "--random-trials", "2", "--rng-seed", "3"],
    ["verify", "--n", "3", "--family", "case1", "--params", "1,1,1,0,1"],
    ["verify", "--n", "3", "--family", "preset:nope"],
    *_both(["hecke", "--n", "3", *CASE1]),
    *_both(["hecke", "--n", "4", *CASE2_MIXED4]),
    *_both(["hecke", "--n", "4", *DEGENT4]),
    *_both(["hecke", "--n", "5", *VANQ0_IV]),
    *_both(["commute", "--n", "4", *CASE1, "--family2", "case1", "--params2", "1,2,1,2,3"]),
    *_both(["commute", "--n", "4", "--family", "preset:demazure",
            "--family2", "preset:demazure"]),
    *_both(["commute", "--n", "5", "--family", "preset:pure_ddiff",
            "--family2", "preset:grothendieck", "--params2", "0"]),
    *_both(["commute", "--n", "4", *VANQ0, "--family2", "preset:pure_ddiff"]),
    *_both(["table", "--n", "3", "--family", "preset:demazure"]),
    *_both(["table", "--n", "3", *CASE1]),
    *_both(["table", "--n", "3", *DEGENT3]),
    *_both(["table", "--n", "3", "--family", "preset:pure_ddiff", "--seed-poly", DENSE3]),
    *_both(["table", "--n", "4", "--family", "preset:grothendieck", "--params", "1"]),
    *_both(["table", "--n", "4", *CASE2_MIXED4]),
    *_both(["table", "--n", "4", *VANQ0]),
    *_both(["table", "--n", "4", "--family", "preset:pure_ddiff", "--seed-poly", DENSE4]),
    *_both(["apply", "--n", "3", "--family", "preset:demazure", "--word", "1,2,1"]),
    *_both(["apply", "--n", "3", "--family", "preset:demazure"]),
    *_both(["apply", "--n", "4", *CASE2_MIXED4, "--word", "3,2,1",
            "--seed-poly", DENSE4]),
    *_both(["apply", "--n", "4", *DEGENT4, "--word", "2,3"]),
    # Refused input: a misspelled config field, an unknown term field and an
    # --n over the size limit of verify and commute.
    ["hecke", "--n", "4", "--family", "vanq0", "--config", "vanq0_misspelled.json"],
    ["apply", "--n", "3", "--family", "preset:demazure",
     "--seed-poly", '[{"e":[1,0,0],"c":"1","x":2}]'],
    ["verify", "--n", "100000", "--family", "preset:demazure"],
    ["verify", "--n", "100000", "--family", "case2", "--random-trials", "2"],
    # Refused input: a coefficient that is not a JSON string, a --word that is
    # not a list of integers, a degen-t pair without exactly two lists, and a
    # bad term in a nested term list, named by its full path.
    ["hecke", "--n", "4", "--family", "vanq0", "--config", "vanq0_mu_number.json"],
    ["hecke", "--n", "4", "--family", "vanq0", "--config", "vanq0_phi_c_number.json"],
    ["hecke", "--n", "5", "--family", "vanq0", "--config", "vanq0_interval_a_number.json"],
    ["hecke", "--n", "3", "--family", "degen-t", "--config", "degent3_p_number.json"],
    ["hecke", "--n", "3", "--family", "degen-t", "--config", "degent3_pairs_number.json"],
    ["apply", "--n", "3", "--family", "preset:demazure",
     "--seed-poly", '[{"e":[1,0,0],"c":2}]'],
    ["apply", "--n", "3", "--family", "preset:demazure", "--word", "1,,2"],
    ["apply", "--n", "3", "--family", "preset:demazure", "--word", "a"],
    ["hecke", "--n", "3", "--family", "degen-t", "--config", "degent3_pair_one_list.json"],
    ["hecke", "--n", "3", "--family", "degen-t", "--config", "degent3_pair_three_lists.json"],
    ["hecke", "--n", "4", "--family", "vanq0", "--config", "vanq0_second_phi_extra_field.json"],
    # Refused input: an option the family does not take, and a seed exponent
    # over the limit.
    ["verify", "--n", "4", *CASE1, "--lines", "l1,l1,l1"],
    ["apply", "--n", "3", "--family", "preset:demazure",
     "--seed-poly", '[{"e":[100001,0,0],"c":"1"}]'],
    # Refused input: a coefficient string that is no field element, and an
    # exponent vector of the wrong length.
    ["hecke", "--n", "4", "--family", "vanq0", "--config", "vanq0_phi_c_not_element.json"],
    ["apply", "--n", "3", "--family", "preset:demazure",
     "--seed-poly", '[{"e":[1,0],"c":"1"}]'],
    # Refused before any operator is built: a vanq0 interval far beyond n, and
    # a table over the size cap.
    ["hecke", "--n", "4", "--family", "vanq0", "--config", "vanq0_interval_out_of_range.json"],
    ["table", "--n", "200000", "--family", "case2", "--params", "1,2,1,2"],
    # Refused input: an empty option value, which is given, not absent.
    ["verify", "--n", "4", "--family", "case2", "--params", "1,2,1,2", "--lines", ""],
    ["table", "--n", "3", "--family", "preset:grothendieck", "--params", ""],
    ["table", "--n", "3", "--family", "preset:demazure", "--seed-poly", ""],
]


def run_cli(argv):
    """Exit code, stdout and stderr of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _recorded():
    return json.loads(CORPUS.read_text())


def test_corpus_covers_every_argv():
    assert [r["argv"] for r in _recorded()] == ARGVS


@pytest.mark.parametrize("index", range(len(ARGVS)),
                         ids=[f"{i:02d}-{argv[0]}" for i, argv in enumerate(ARGVS)])
def test_replay_is_byte_identical(index, monkeypatch):
    record = _recorded()[index]
    monkeypatch.chdir(GOLDEN)
    code, out, err = run_cli(record["argv"])
    assert code == record["exit"]
    assert out == record["stdout"]
    assert err == record["stderr"]


if __name__ == "__main__":
    os.chdir(GOLDEN)
    records = []
    for argv in ARGVS:
        code, out, err = run_cli(argv)
        records.append({"argv": argv, "exit": code, "stdout": out, "stderr": err})
    CORPUS.write_text(json.dumps(records, indent=1) + "\n")
