"""The braidops benchmark: time to verdict on three seeded workloads.

    python3 bench/run.py --workload verify_sweep --seed 1 --seconds 30 --trace 0

One single-threaded process issues records in a closed loop: a record is
issued only after the previous verdict returned.  Every output is checked,
against an answer fixed by the mathematics where there is one and against the
golden digest in ``golden.json`` always.  The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` runs for ``--seconds`` and reports the end-to-end metrics.
``--trace 1`` runs a fixed number of records under the span tracer, then the
same records untraced, and reports the per-layer metrics; its counts repeat
exactly for a given seed.  ``--stability K`` runs the benchmark K times in
each of two sets of seeds, in child processes, and prints each metric's
median and quartiles.  ``--record-golden`` rewrites the golden digests from the program
as it is.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
SETUP_REPEATS = 5  # set-ups timed before each pass
SETS = 2  # sets of seeds a stability report compares
PASS_SECONDS = 10
REFERENCE_STEPS = 1500
REFERENCE_S = 0.007  # the reference loop's time on an idle 2-core machine

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, Lib, Workload, coeff_bits, digest  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402


class SetupError(RuntimeError):
    """The checkout does not hold the braidops sources."""


def import_library() -> Lib:
    """Import braidops from this checkout's src, dropping any earlier import."""
    if not (SRC / "braidops" / "__init__.py").is_file():
        raise SetupError(f"no braidops sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "braidops" or m.startswith("braidops.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    lib = Lib()
    if Path(lib.bo.__file__).resolve().parent != SRC / "braidops":
        raise SetupError(f"braidops imported from {lib.bo.__file__}, not {SRC}")
    return lib


def make_records(workload: Workload, lib: Lib, seed: int, count: int) -> list:
    """The first count records of the seed's order."""
    order = workload.order(seed)
    return workload.build(lib, [order[i % len(order)] for i in range(count)])


def setup(workload: Workload, seed: int, count: int):
    """Import braidops and generate the run's inputs; returns (lib, records)."""
    lib = import_library()
    return lib, make_records(workload, lib, seed, count)


def load_golden(workload: Workload) -> list[str]:
    golden = json.loads(GOLDEN.read_text()).get(workload.name, [])
    if len(golden) != workload.size:
        raise SetupError(f"golden.json has {len(golden)} digests for {workload.name}, "
                         f"expected {workload.size}")
    return golden


def check(workload: Workload, lib: Lib, record, out, golden: list[str]) -> str | None:
    """None when the output is right, else what is wrong with it."""
    problem = workload.known(lib, record.kind, record.payload, out)
    if problem:
        return problem
    if digest(workload.canon(out)) != golden[record.entry]:
        return "output differs from the golden digest"
    return None


def execute(workload: Workload, lib: Lib, record):
    """Run one record; returns (seconds, output or the exception raised)."""
    t0 = time.perf_counter()
    try:
        out = workload.run(lib, record.kind, record.payload)
    except Exception as exc:  # a raising record is a failed record
        out = exc
    return time.perf_counter() - t0, out


def judge(workload, lib, record, out, golden: list[str]) -> str | None:
    """None for a right output, else a line naming the record and the fault."""
    if isinstance(out, Exception):
        problem = f"raised {type(out).__name__}: {out}"
    else:
        problem = check(workload, lib, record, out, golden)
    return problem and f"entry {record.entry} ({record.kind}): {problem}"


def p90(latencies: list[float]) -> float:
    if len(latencies) == 1:
        return latencies[0]
    return statistics.quantiles(latencies, n=10, method="inclusive")[8]


def tail_percentile(count: int) -> int:
    """The highest whole percentile with at least ten samples beyond it."""
    return max(0, int(100 * (1 - 10 / count))) if count > 10 else 0


def reference_seconds() -> float:
    """Time one fixed loop of Fraction arithmetic: the machine's speed now.

    The loop is the benchmark's own code, so no change to braidops moves it.
    The collector is off while it runs, so that it does not pay for garbage
    a record left behind; the loop itself makes no reference cycles.
    """
    gc.disable()
    t0 = time.perf_counter()
    bits = 0
    for i in range(1, REFERENCE_STEPS):
        bits ^= (Fraction(i + 1, i) * Fraction(3, i + 7) + Fraction(1, i * i + 1)).numerator
    dt = time.perf_counter() - t0
    gc.enable()
    return dt


def timed_run(workload: Workload, seed: int, seconds: float) -> dict:
    # A run is a series of passes of pass_records consecutive records of the
    # seed's order, each pass meeting fresh catalogue entries.  A pass lasts
    # about PASS_SECONDS on a 2-core machine and --seconds sets how many run,
    # so that every run holds the same records whatever the machine's speed.
    passes = max(1, round(seconds / PASS_SECONDS))
    k = workload.pass_records
    count = passes * k
    golden = load_golden(workload)

    # Every pass starts from fresh set-ups (braidops imported afresh, the
    # run's inputs rebuilt), so that the median set-up time spans the run as
    # the records do; a pass runs on the last of them.  A reference loop is
    # timed before a pass's first set-up, after every set-up and after every
    # record, before its output is checked.  Each output is checked between
    # records and then dropped, so memory does not grow with speed.
    setup_times, setup_refs, refs, latencies, problems = [], [], [], [], []
    for start in range(0, count, k):
        ref = reference_seconds()
        for _ in range(SETUP_REPEATS):
            lib = records = None
            gc.collect()  # start every set-up from the same heap
            t0 = time.perf_counter()
            lib, records = setup(workload, seed, count)
            dt = time.perf_counter() - t0
            after = reference_seconds()
            setup_times.append(dt)
            setup_refs.append(dt * 2 / (ref + after))
            ref = after
        refs.append(ref)
        for record in records[start:start + k]:
            dt, out = execute(workload, lib, record)
            refs.append(reference_seconds())
            latencies.append(dt)
            problem = judge(workload, lib, record, out, golden)
            if problem:
                problems.append(problem)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # On a shared machine the same computation runs up to twice as slow in
    # phases of a few seconds to minutes, and the reference loop slows with
    # it.  A record's latency in refs is its seconds over the mean of the two
    # reference loops timed around it.  Set-up time is measured the same
    # way and reported in seconds at REFERENCE_S per ref.
    pairs = [(refs[i + p], refs[i + p + 1]) for p in range(passes)
             for i in range(p * k, (p + 1) * k)]
    in_refs = [dt * 2 / (a + b) for dt, (a, b) in zip(latencies, pairs)]

    failed = len(problems)
    for line in problems[:20]:
        print(f"FAILED {line}")
    print(f"{workload.name} seed {seed}: {passes} passes of {k} records in "
          f"{sum(latencies):.2f} s, error_ratio {failed / count:.4f}; in seconds "
          f"p50 {statistics.median(latencies):.4g} p90 {p90(latencies):.4g} "
          f"throughput {count / sum(latencies):.4g}/s (passes "
          + " ".join(f"{k / sum(latencies[i:i + k]):.4g}" for i in range(0, count, k))
          + f"), set-up {statistics.median(setup_times):.4g}; reference loop median {1000 * statistics.median(refs):.3g} ms, "
          f"fastest {1000 * min(refs):.3g} ms; p90 over {count} records (highest "
          f"percentile with ten samples beyond it: p{tail_percentile(count)})"
          + (f"; catalogue of {workload.size} wrapped" if count > workload.size else ""))
    metrics = {
        "setup_s": REFERENCE_S * statistics.median(setup_refs),
        "latency_p50_ref": statistics.median(in_refs),
        "latency_p90_ref": p90(in_refs),
        "throughput_per_kref": 1000 * count / sum(in_refs),
        "peak_rss_mib": rss_mib,
    }
    return result(count, failed, metrics, "end_to_end")


def traced_run(workload: Workload, seed: int, records_wanted: int, spans_path) -> dict:
    lib = import_library()
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    records = make_records(workload, lib, seed, records_wanted)  # set-up spans: record -1
    golden = load_golden(workload)

    outputs = []
    traced_s = 0.0
    for i, record in enumerate(records):
        tracer.record = i
        dt, out = execute(workload, lib, record)
        traced_s += dt
        outputs.append(out)
    tracer.active = False
    tracer.uninstall()
    untraced_s = sum(execute(workload, lib, record)[0] for record in records)

    problems = [p for p in (judge(workload, lib, r, out, golden)
                            for r, out in zip(records, outputs)) if p]
    failed = len(problems)
    for line in problems[:20]:
        print(f"FAILED {line}")
    metrics = layer_metrics(tracer)
    polys = [p for out in outputs if not isinstance(out, Exception)
             for p in workload.polys(out)]
    metrics["output.max_terms"] = max((len(p) for p in polys), default=0)
    metrics["output.max_coeff_bits"] = max((coeff_bits(c) for p in polys for c in p),
                                           default=0)
    metrics["cli.stdout_bytes"] = sum(len(out[1].encode()) for out in outputs
                                      if workload.name == "table_build"
                                      and not isinstance(out, Exception))
    ratio = traced_s / untraced_s
    metrics["trace.overhead_ratio"] = ratio
    print(f"{workload.name} seed {seed}: traced {len(records)} records, "
          f"{len(tracer.name)} spans; traced throughput "
          f"{len(records) / traced_s:.3f} rps against untraced "
          f"{len(records) / untraced_s:.3f} rps (overhead x{ratio:.2f})")
    if spans_path:
        tracer.write_spans(spans_path)
    return result(len(records), failed, metrics, "per_layer")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def result(attempted: int, failed: int, values: dict, kind: str) -> dict:
    """The result line; units come from the metric's entry in BENCHMARK.json."""
    units = {m["name"]: m["unit"] for m in load_spec()[kind]}
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }


def record_golden(names: list[str]) -> int:
    """Run every catalogue entry once and store its output digest."""
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    status = 0
    for name in names:
        workload = WORKLOADS[name]
        lib = import_library()
        records = workload.build(lib, range(workload.size))
        digests = []
        for record in records:
            dt, out = execute(workload, lib, record)
            if isinstance(out, Exception):
                raise out
            problem = workload.known(lib, record.kind, record.payload, out)
            if problem:
                print(f"entry {record.entry} ({record.kind}): {problem}", file=sys.stderr)
                status = 1
            digests.append(digest(workload.canon(out)))
            print(f"{name} entry {record.entry} {record.kind}: {dt:.3f} s", flush=True)
        golden[name] = digests
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return status


def stability(args) -> int:
    """Run each workload K times in each of SETS sets of seeds; compare the sets.

    A spread (quartile distance over the median) above the metric's bound is
    flagged, and so is a median that differs between the sets, in either
    direction, by more than the bound.
    """
    spec = load_spec()
    key = "per_layer" if args.trace else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in spec[key]}
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    status = 0
    for name in names:
        sets = []
        for s in range(SETS):
            runs = []
            for k in range(args.stability):
                seed = 1000 * s + k + 1
                cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                       "--seed", str(seed), "--seconds", str(seconds),
                       "--trace", str(args.trace)]
                proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
                if proc.returncode != 0:
                    print(proc.stderr, file=sys.stderr)
                    return proc.returncode
                lines = proc.stdout.strip().splitlines()
                print(f"  {lines[-2]}")
                runs.append(json.loads(lines[-1]))
                if not runs[-1]["correct"]:
                    status = 1
            sets.append(runs)
        print(f"== {name}: {SETS} sets of {args.stability} runs, {seconds} s each")
        for metric, bound in bounds.items():
            line = f"{metric:32s}"
            medians = []
            for runs in sets:
                values = [r["metrics"][metric]["value"] for r in runs]
                q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
                medians.append(med)
                spread = (q3 - q1) / med if med else 0.0
                line += f"  median {med:.6g} [q1 {q1:.6g}, q3 {q3:.6g}] spread {spread:.3f}"
                if bound is not None and spread > bound:
                    line += " OVER BOUND"
                    status = 1
            if bound is not None and medians[0]:
                line += f"  second/first {medians[1] / medians[0]:.3f}"
                if abs(medians[1] - medians[0]) / medians[0] > bound:
                    line += " SETS DISAGREE"
                    status = 1
            print(line)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--records", type=int, default=None,
                        help="records in a traced run (default: one pass)")
    parser.add_argument("--spans", help="write the traced run's spans to this file")
    parser.add_argument("--stability", type=int, metavar="K",
                        help="run K seeds in each of two sets and compare the sets")
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.record_golden:
            return record_golden([args.workload] if args.workload else list(WORKLOADS))
        if args.stability:
            return stability(args)
        if args.workload is None:
            parser.error("--workload is required")
        workload = WORKLOADS[args.workload]
        if args.trace:
            out = traced_run(workload, args.seed, args.records or workload.pass_records,
                             args.spans)
        else:
            out = timed_run(workload, args.seed, 30.0 if args.seconds is None else args.seconds)
    except (SetupError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
