"""Tests of the benchmark itself, at a tiny size.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS, Lib  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
EXACT_UNITS = ("count", "terms", "bits", "bytes", "ratio")


def bench(*args: str, script: Path = HERE / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(script), *args],
                          capture_output=True, text=True, timeout=300)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["paths"] == [HERE.name]


def test_end_to_end_schema():
    out = last_json(bench("--workload", "slot_algebra", "--seed", "3",
                          "--seconds", "1", "--trace", "0"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload,records", [
    ("slot_algebra", "4"), ("verify_sweep", "1"), ("table_build", "2"),
])
def test_traced_schema_and_exact_counts(workload, records):
    args = ("--workload", workload, "--seed", "5", "--trace", "1", "--records", records)
    first, second = last_json(bench(*args)), last_json(bench(*args))
    assert first["correct"] and second["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == expected
    for name, unit in expected.items():
        if unit in EXACT_UNITS and name != "trace.overhead_ratio":
            assert first["metrics"][name] == second["metrics"][name], name


def test_spans_are_written_with_parents(tmp_path):
    path = tmp_path / "spans.tsv"
    last_json(bench("--workload", "slot_algebra", "--seed", "2", "--trace", "1",
                    "--records", "1", "--spans", str(path)))
    header, *rows = [line.split("\t") for line in path.read_text().splitlines()]
    assert header == ["id", "name", "start", "end", "parent", "record"]
    assert rows and all(int(r[0]) == i for i, r in enumerate(rows))
    for row in rows:
        parent = int(row[4])
        assert parent < int(row[0])
        assert float(row[2]) <= float(row[3])
        if parent >= 0:
            assert float(rows[parent][2]) <= float(row[2])
            assert float(row[3]) <= float(rows[parent][3])
    assert {r[5] for r in rows} == {"-1", "0"}  # set-up spans, then record 0


def _flip_verdict(out):
    if hasattr(out, "cubic"):  # FamilyReport
        pair = next(iter(out.quad))
        return dataclasses.replace(out, quad={**out.quad, pair: not out.quad[pair]})
    pair = next(iter(out.consecutive))  # CommuteReport
    return dataclasses.replace(
        out, consecutive={**out.consecutive, pair: not out.consecutive[pair]})


ALTER = {
    "verify_sweep": _flip_verdict,
    "table_build": lambda out: (out[0], out[1].replace("1", "2", 1)),
    "slot_algebra": lambda out: out[:6] + (not out[6],) + out[7:],
}


def _lib() -> Lib:
    # run.import_library() would drop and re-import braidops, which the other
    # test modules of this process have already imported.
    if str(run.SRC) not in sys.path:
        sys.path.insert(0, str(run.SRC))
    return Lib()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_records_of_a_pass_are_distinct_inputs(name):
    # A cache shared across the records of a pass must find no repeated input.
    workload = WORKLOADS[name]
    k = workload.pass_records
    for seed in (1, 2, 1001):
        records = run.make_records(workload, _lib(), seed, 3 * k)
        for start in range(0, len(records), k):
            inputs = [repr(r.payload) for r in records[start:start + k]]
            assert len(set(inputs)) == k, (seed, start)


@pytest.mark.parametrize("name,kind", [
    ("verify_sweep", "commute:case1:4"),
    ("verify_sweep", "perturbed:case1:4"),
    ("table_build", "pure_ddiff:4:6"),
    ("slot_algebra", "random"),
])
def test_golden_check_catches_altered_output(name, kind):
    workload = WORKLOADS[name]
    lib = _lib()
    golden = run.load_golden(workload)
    entry = workload.pattern.index(kind)
    (record,) = workload.build(lib, [entry])
    out = workload.run(lib, record.kind, record.payload)
    assert run.check(workload, lib, record, out, golden) is None
    assert run.check(workload, lib, record, ALTER[name](out), golden) is not None


def test_fails_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "slot_algebra", "--seed", "1", "--seconds", "1",
                 "--trace", "0", script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
